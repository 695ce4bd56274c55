"""One benchmark sample: set up, call vbtsim.cli.main once, report.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the checkout root, the output directory, the optional
gen-scenario argv (part of set-up), the timed argv, whether to trace and
where to write spans. The last stdout line is a JSON report: the
monotonic time at which set-up ended, the timed wall, the host speed and
probe time of set-up and of the call, the exit code, a SHA-256 over
every CSV written, the work done, the peak RSS and, when traced, the
per-layer totals.

The host's vCPUs run at 0.65-1.5x their usual speed in episodes of
seconds, independently of each other, so raw walls move with the host.
A probe, a fixed pure-Python loop of about 0.5 ms that does not touch
vbtsim, samples the speed of the thread doing the work: once when set-up
or the call begins, every PROBE_EVERY_S during it from a SIGALRM
handler, and once when it ends. A probe's speed is PROBE_REF_S over its
duration. A wall less the time spent in probes, times their mean speed,
is the seconds the work would take on the reference host at its usual
speed; run.py reports times adjusted so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

PROBE_ROUNDS = 8
PROBE_EVERY_S = 0.05
# A probe this long means speed 1: about its median during the timed call
# on the reference host, a 2-core Xeon VM at 2.1 GHz with Python 3.11.
PROBE_REF_S = 0.0005


class _Item:
    __slots__ = ("key", "energy")

    def __init__(self, key: int):
        self.key = key
        self.energy = float(key)


_ITEMS = [_Item(i) for i in range(512)]


def _above(item: _Item, threshold: float) -> bool:
    return item.energy >= threshold


def _probe() -> float:
    """Seconds for a fixed mix of calls, attribute reads, appends, a
    generator sum and a sort: the kind of work vbtsim's Python loops do.
    Of the loops tried, its speed tracked vbtsim's best (pure arithmetic
    under-corrected, random dict reads over-corrected)."""
    start = time.perf_counter()
    kept = []
    for _ in range(PROBE_ROUNDS):
        for item in _ITEMS:
            if _above(item, 100.0):
                kept.append(item.key)
        sum(1 for key in kept if key & 1)
        kept.sort(reverse=True)
        kept.clear()
    return time.perf_counter() - start


class HostProbe:
    """Samples the host's speed while its block runs. After the block,
    `probing_s` is the time spent in probes and `speed` their mean speed."""

    def __enter__(self) -> "HostProbe":
        self.probing_s = 0.0
        self._speeds: list[float] = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.speed = statistics.fmean(self._speeds)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        began = time.perf_counter()
        self._speeds.append(PROBE_REF_S / _probe())
        self.probing_s += time.perf_counter() - began


def _quiet_main(cli, argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _csv_digest(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            digest.update(f"{name}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def _data_rows(path: str) -> int:
    """Rows after the '#' config echo and the header line."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    with HostProbe() as setup:
        import numpy
        from vbtsim import cli

        if spec["gen"] is not None and _quiet_main(cli, spec["gen"]) != 0:
            print("gen-scenario failed", file=sys.stderr)
            return 3
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    with HostProbe() as call:
        code = _quiet_main(cli, spec["argv"])
    wall = time.perf_counter() - start

    report = {"ready": ready, "setup_probing_s": setup.probing_s,
              "setup_speed": setup.speed, "wall_s": wall,
              "probing_s": call.probing_s, "speed": call.speed, "exit": code,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "numpy": numpy.__version__}
    if code == 0:
        out = spec["out"]
        report["digest"] = _csv_digest(out)
        report["work"] = _data_rows(os.path.join(out, spec["work_file"]))
    if tracer is not None:
        report["layers"] = tracer.layer_totals()
        report["counts"] = tracer.counts
        if spec["spans_path"]:
            tracer.write_spans(spec["spans_path"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
