"""In-memory span tracer that wraps vbtsim's public layer functions.

Each wrapped call records one span (name, parent span, start, end). A
function is wrapped in every vbtsim module namespace that holds it, so a
call such as sweeps -> mincover.build_min_cover -> build_reachability
nests as child spans whichever module looks the name up. Self time is a
span's duration minus the durations of its direct children.

Counters are taken at the same boundaries from arguments and results.
"""

from __future__ import annotations

import os
import sys
import time

# (module, function) pairs whose calls become spans; names are reported
# as "<module>.<function>".
LAYERS = (
    ("model", "build_reachability"),
    ("model", "deploy_uniform"),
    ("mmevbt", "build_mmevbt"),
    ("mmevbt", "relocate_sink"),
    ("mincover", "build_min_cover"),
    ("balanced", "build_forwarding_problem"),
    ("balanced", "select_parent"),
    ("simulate", "run_simulation"),
    ("sweeps", "write_csv"),
    ("sweeps", "run_scenario"),
    ("sweeps", "sweep_figure4"),
    ("scenario_io", "read_scenario"),
    ("cli", "main"),
)

COUNTERS = ("simulate.rounds", "simulate.reconstructions",
            "mincover.tree_nodes_total", "sweeps.successes",
            "sweeps.attempts", "sweeps.write_csv.bytes")


def _observe(counts: dict, name: str, args: tuple, result) -> None:
    if name == "simulate.run_simulation":
        counts["simulate.rounds"] += result.rounds_run
        counts["simulate.reconstructions"] += result.reconstructions
    elif name == "mincover.build_min_cover":
        counts["mincover.tree_nodes_total"] += len(result[0])
    elif name == "sweeps.sweep_figure4":
        summary, attempts = result
        counts["sweeps.successes"] += sum(row.successes for row in summary)
        counts["sweeps.attempts"] += len(attempts)
    elif name == "sweeps.write_csv":
        counts["sweeps.write_csv.bytes"] += os.path.getsize(args[0])


class Tracer:
    """Owns the span list and the counters of one traced process."""

    def __init__(self):
        self.spans: list = []  # [name, parent_id, start, end] per span id
        self.counts = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][2:] = (start, clock())
                stack.pop()
            _observe(counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every LAYERS function in every loaded vbtsim namespace."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "vbtsim" or key.startswith("vbtsim.")]
        for module_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"vbtsim.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def layer_totals(self) -> dict:
        """{name: [calls, self_seconds]} for every LAYERS entry."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {f"{m}.{f}": [0, 0.0] for m, f in LAYERS}
        for (name, _, start, end), inner in zip(self.spans, child_time):
            totals[name][0] += 1
            totals[name][1] += (end - start) - inner
        return totals

    def write_spans(self, path: str) -> None:
        """CSV of every span: id, name, parent id (-1 for a root), start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start,end\n")
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{name},{parent},{start!r},{end!r}\n")
