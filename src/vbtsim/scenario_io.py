"""Plain-text scenario persistence.

Format, one record per line, '.' decimal separator, '#' starts a comment:

    field <width> <height> <sink_x> <sink_y> <range> <seed>
    node <id> <x> <y> <energy>
"""

from __future__ import annotations

import math

from .energy import DEFAULT_E_FAIL
from .model import DEFAULT_TH, Field, Node, Scenario, classify_status


class ScenarioFormatError(ValueError):
    """Malformed scenario file; message carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def read_scenario(path: str, th: float = DEFAULT_TH,
                  e_fail: float = DEFAULT_E_FAIL) -> Scenario:
    """Parse a scenario file; node statuses are derived from stored energy."""
    field = None
    nodes: list[Node] = []
    seen_ids: set[int] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind, args = parts[0], parts[1:]
            if kind == "field":
                if field is not None:
                    raise ScenarioFormatError(line_no, "duplicate field line")
                if len(args) != 6:
                    raise ScenarioFormatError(line_no, "field needs 6 values")
                try:
                    w, h, sx, sy, rng_m = (float(v) for v in args[:5])
                    seed = int(args[5])
                except ValueError:
                    raise ScenarioFormatError(line_no, "bad number in field line")
                try:
                    field = Field(w, h, sx, sy)
                except ValueError as exc:
                    raise ScenarioFormatError(line_no, str(exc))
                sensing_range, rng_seed = rng_m, seed
            elif kind == "node":
                if field is None:
                    raise ScenarioFormatError(line_no, "node before field line")
                if len(args) != 4:
                    raise ScenarioFormatError(line_no, "node needs 4 values")
                try:
                    node_id = int(args[0])
                    x, y, energy = (float(v) for v in args[1:])
                except ValueError:
                    raise ScenarioFormatError(line_no, "bad number in node line")
                if not math.isfinite(energy):
                    raise ScenarioFormatError(
                        line_no, f"node {node_id} energy must be finite")
                if node_id in seen_ids:
                    raise ScenarioFormatError(line_no, f"duplicate node id {node_id}")
                if not field.contains(x, y):
                    raise ScenarioFormatError(line_no, f"node {node_id} outside field")
                seen_ids.add(node_id)
                status = classify_status(energy, 0, th, e_fail)
                nodes.append(Node(node_id, x, y, energy, status))
            else:
                raise ScenarioFormatError(line_no, f"unknown record '{kind}'")
    if field is None:
        raise ScenarioFormatError(0, "missing field line")
    nodes.sort(key=lambda n: n.id)
    if [n.id for n in nodes] != list(range(len(nodes))):
        raise ScenarioFormatError(0, "node ids must be dense from 0")
    return Scenario(field, nodes, sensing_range, rng_seed)


def write_scenario(scenario: Scenario, path: str) -> None:
    """Write a scenario; floats use repr so a read round-trips bit-exactly."""
    f = scenario.field
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"field {f.width!r} {f.height!r} {f.sink_x!r} {f.sink_y!r} "
                 f"{scenario.sensing_range!r} {scenario.rng_seed}\n")
        for n in scenario.nodes:
            fh.write(f"node {n.id} {n.x!r} {n.y!r} {n.energy!r}\n")
