"""vbtsim benchmark runner: a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one child process at a time (perfbench/child.py), each a fresh
interpreter that sets up, calls vbtsim.cli.main once in-process and
reports. Every child's CSV outputs are checked against the SHA-256
digests recorded from the reference code in perfbench/digests.json.
The last stdout line is the JSON result; the line before it stamps the
host (nproc, Python, numpy, load average at start), the sample counts
and each sample's raw and adjusted wall and set-up time and host speed.

Times are adjusted for the host's speed, which a probe in every child
samples during set-up and during the timed call (see child.py).

--trace 0 reports the end-to-end metrics as medians over the children.
--trace 1 alternates untraced and traced children on the same inputs and
reports per-layer self time and counts (means per traced child) plus the
tracing overhead. See perfbench/README.md for the metric definitions.

--record writes the digests of every input in the seed set's panel
instead of measuring; use it only on the reference code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
DEFAULT_DIGESTS = os.path.join(HERE, "digests.json")

# Sizes per scale. "full" is the benchmark; "toy" is the smoke test's.
SCALES = {
    "full": {"run_nodes": 1000, "run_range": 15, "rounds": 300,
             "sweep_nodes": 4000, "sweep_range": 8, "successes": 2},
    "toy": {"run_nodes": 50, "run_range": 60, "rounds": 20,
            "sweep_nodes": 60, "sweep_range": 60, "successes": 2},
}

# A seed set fixes the scenario layout and a panel of PANEL run (or sweep
# base) seeds. Child c of a run with --seed n uses panel entry
# (n + c) % PANEL: every run walks the same panel from a seed-dependent
# start, so runs differ in order and in which entries time cuts off, not
# in their mix of short and long lifetimes. --seed 0 starts at the
# reference seeds (scenario 7, run seed 1, sweep base seed 1). "heldout"
# is a disjoint panel kept out of tuning for later claims.
PANEL = 16
SEED_SETS = {
    "default": {"scenario": 7, "first": 1},
    "heldout": {"scenario": 8, "first": 1001},
}

WORKLOADS = ("run-mmevbt-1000", "run-balanced-1000-events",
             "sweep-fig4-4000")
MIN_CHILDREN = 3
MIN_PAIRS = 2
BUDGET_S = 170.0  # a run must end within 180 s
CHILD_TIMEOUT_S = 150.0

E2E_UNITS = {"adj_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "adj_work_per_s": "1/s"}


def input_seeds(seed_set: str, seed: int, child: int) -> tuple[int, int]:
    """(scenario seed, run or sweep base seed) of one child's input."""
    ss = SEED_SETS[seed_set]
    return ss["scenario"], ss["first"] + (seed + child) % PANEL


def child_spec(workload: str, scale: str, scenario_seed: int, seed: int,
               out: str) -> dict:
    """gen-scenario argv (or None), timed argv and the file counting work."""
    sz = SCALES[scale]
    if workload == "sweep-fig4-4000":
        return {"gen": None, "work_file": "fig4_attempts.csv",
                "argv": ["sweep-fig4", "--out", out,
                         "--set", f"n_nodes={sz['sweep_nodes']}",
                         "--set", f"ranges={sz['sweep_range']}",
                         "--set", f"target_successes={sz['successes']}",
                         "--seed", str(seed)]}
    scenario = os.path.join(out, "scenario.txt")
    argv = ["run", scenario, "--out", out,
            "--set", f"traffic.rounds_max={sz['rounds']}",
            "--seed", str(seed)]
    if workload == "run-balanced-1000-events":
        argv += ["--set", "algorithm=balanced_probabilistic", "--events"]
    else:
        argv += ["--set", "algorithm=mmevbt"]
    return {"gen": ["gen-scenario", scenario,
                    "--set", f"n_nodes={sz['run_nodes']}",
                    "--range", str(sz["run_range"]),
                    "--seed", str(scenario_seed)],
            "argv": argv, "work_file": "run_alive.csv"}


def adjusted(wall: float, probing: float, speed: float) -> float:
    """Seconds at the reference host's usual speed (see child.py)."""
    return (wall - probing) * speed


def digest_key(workload: str, scenario_seed: int, seed: int) -> str:
    if workload.startswith("sweep"):
        return f"seed={seed}"
    return f"scenario={scenario_seed},seed={seed}"


class Runner:
    """Runs children one after another and keeps their failures."""

    def __init__(self, args: argparse.Namespace, references: dict,
                 deadline: float):
        self.args = args
        self.references = references.get(args.workload, {})
        self.deadline = deadline
        self.failures: list[str] = []
        self.numpy = None
        self.attempted = 0

    def run_child(self, child: int, trace: bool) -> dict | None:
        """One sample; returns its report or None when it failed."""
        args = self.args
        scenario_seed, seed = input_seeds(args.seed_set, args.seed, child)
        out = os.path.join(WORK, args.workload, f"c{self.attempted}")
        self.attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        spec = child_spec(args.workload, args.scale, scenario_seed, seed, out)
        spans = os.path.join(WORK, "spans", f"{args.workload}.csv")
        if trace:
            os.makedirs(os.path.dirname(spans), exist_ok=True)
        spec.update(root=ROOT, out=out, trace=trace,
                    spans_path=spans if trace else None)
        key = digest_key(args.workload, scenario_seed, seed)
        timeout = max(1.0, min(CHILD_TIMEOUT_S,
                               self.deadline - time.monotonic()))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"),
                 json.dumps(spec)],
                capture_output=True, text=True, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{key}: timed out")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            report = None
        if proc.returncode != 0 or report is None:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"{key}: child exit {proc.returncode}: "
                                 f"{tail[0]}")
            return None
        self.numpy = report["numpy"]
        report["key"] = key
        report["raw_setup_s"] = report["ready"] - spawned
        report["setup_s"] = adjusted(report["raw_setup_s"],
                                     report["setup_probing_s"],
                                     report["setup_speed"])
        report["adj_wall_s"] = adjusted(report["wall_s"],
                                        report["probing_s"], report["speed"])
        if report["exit"] != 0:
            self.failures.append(f"{key}: vbtsim exit {report['exit']}")
            return None
        if args.record:
            return report
        expected = self.references.get(key)
        if report["digest"] != expected:
            self.failures.append(f"{key}: digest {report['digest'][:12]} "
                                 f"!= reference {str(expected)[:12]}")
            return None
        return report

    def repeat(self, minimum: int, step) -> None:
        """step(0), step(1), ... until --seconds have passed and at least
        `minimum` steps ran, stopping early when the next step could
        overrun the deadline."""
        start = time.monotonic()
        longest = 0.0
        i = 0
        while i < minimum or time.monotonic() - start < self.args.seconds:
            if time.monotonic() + longest > self.deadline:
                break
            began = time.monotonic()
            step(i)
            longest = max(longest, time.monotonic() - began)
            i += 1


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    """Medians over untraced children."""
    good = []

    def step(child: int) -> None:
        report = runner.run_child(child, trace=False)
        if report is not None:
            report["adj_work_per_s"] = report["work"] / report["adj_wall_s"]
            good.append(report)

    runner.repeat(MIN_CHILDREN, step)
    if not good:
        return {}, {}
    metrics = {name: {"value": statistics.median(r[name] for r in good),
                      "unit": unit}
               for name, unit in E2E_UNITS.items()}
    return metrics, {"samples": len(good),
                     "per_sample": [
                         {k: r[k] for k in ("key", "wall_s", "adj_wall_s",
                                            "speed", "raw_setup_s",
                                            "setup_s")}
                         for r in good]}


def traced(runner: Runner) -> tuple[dict, dict]:
    """Pairs of (untraced, traced) children on one input each."""
    pairs = []

    def step(child: int) -> None:
        plain = runner.run_child(child, trace=False)
        with_trace = runner.run_child(child, trace=True)
        if plain is not None and with_trace is not None:
            pairs.append((plain, with_trace))

    runner.repeat(MIN_PAIRS, step)
    if not pairs:
        return {}, {}
    runs = [t for _, t in pairs]
    n = len(runs)
    metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name in runs[0]["layers"]:
        put(f"{name}.calls", sum(r["layers"][name][0] for r in runs) / n,
            "count")
        put(f"{name}.self_s", sum(r["layers"][name][1] for r in runs) / n,
            "s")
    counts = {k: sum(r["counts"][k] for r in runs) for k in runs[0]["counts"]}
    builds = sum(r["layers"]["mincover.build_min_cover"][0] for r in runs)
    put("simulate.rounds", counts["simulate.rounds"] / n, "count")
    put("simulate.reconstructions", counts["simulate.reconstructions"] / n,
        "count")
    put("mincover.tree_nodes",
        counts["mincover.tree_nodes_total"] / builds if builds else 0.0,
        "count")
    put("sweeps.success_frac",
        counts["sweeps.successes"] / counts["sweeps.attempts"]
        if counts["sweeps.attempts"] else 0.0, "fraction")
    put("sweeps.write_csv.bytes", counts["sweeps.write_csv.bytes"] / n,
        "bytes")
    put("trace.wall_s", sum(r["wall_s"] for r in runs) / n, "s")
    put("trace.overhead_frac",
        statistics.median(t["adj_wall_s"] / p["adj_wall_s"]
                          for p, t in pairs) - 1.0,
        "fraction")
    put("failed_frac", len(runner.failures) / runner.attempted, "fraction")
    return metrics, {"pairs": n}


def record(runner: Runner, table: dict, path: str) -> int:
    """Add the digest of every input in the seed set's panel to table and
    write it to path."""
    entries = table.setdefault(runner.args.workload, {})
    for child in range(PANEL):
        report = runner.run_child(child, trace=False)
        if report is None:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        old = entries.get(report["key"])
        if old is not None and old != report["digest"]:
            print(f"{report['key']}: digest differs from the recorded one",
                  file=sys.stderr)
            return 1
        entries[report["key"]] = report["digest"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {PANEL} digests for {runner.args.workload}")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-set", choices=sorted(SEED_SETS),
                        default="default")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--digests", default=DEFAULT_DIGESTS,
                        help="reference digest file")
    parser.add_argument("--record", action="store_true",
                        help="write the panel's digests instead of checking")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vbtsim", "cli.py")):
        print(f"no vbtsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    began = time.monotonic()
    load = os.getloadavg()
    try:
        with open(args.digests, encoding="utf-8") as fh:
            references = json.load(fh)
    except FileNotFoundError:
        if not args.record:
            print(f"missing digest file {args.digests}", file=sys.stderr)
            return 2
        references = {}
    if args.record:  # not a measured run, so no time budget
        return record(Runner(args, references, math.inf), references,
                      args.digests)
    runner = Runner(args, references, began + BUDGET_S)

    metrics, counts = (traced if args.trace else end_to_end)(runner)
    if not metrics:
        print("every sample failed:\n" + "\n".join(runner.failures),
              file=sys.stderr)
        return 1
    stamp = {"workload": args.workload, "seed": args.seed,
             "seed_set": args.seed_set, "scale": args.scale,
             "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": runner.numpy,
             "loadavg_start": load, "attempted": runner.attempted,
             **counts, "failures": runner.failures}
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
