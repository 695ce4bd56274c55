"""Plain-text scenario persistence.

Format, one record per line, '.' decimal separator, '#' starts a comment:

    field <width> <height> <sink_x> <sink_y> <range> <seed>
    node <id> <x> <y> <energy>

A file holds energies only: the run's policy decides which nodes are
live (Scenario.state).
"""

from __future__ import annotations

import math

import numpy as np

from .config import Field
from .model import Scenario


class ScenarioFormatError(ValueError):
    """Malformed scenario file; message carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def read_scenario(path: str) -> Scenario:
    """Parse a scenario file."""
    field = None
    nodes: dict[int, tuple[float, float, float]] = {}
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
                    field = Field(w, h, sx, sy).validate()
                except ValueError as exc:
                    raise ScenarioFormatError(line_no, str(exc))
                if not 0 < rng_m < math.inf:  # nan fails it too
                    raise ScenarioFormatError(
                        line_no, "sensing range must be positive and finite")
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
                if energy < 0:
                    raise ScenarioFormatError(
                        line_no, f"node {node_id} energy must be >= 0")
                if node_id in nodes:
                    raise ScenarioFormatError(line_no, f"duplicate node id {node_id}")
                if not field.contains(x, y):
                    raise ScenarioFormatError(line_no, f"node {node_id} outside field")
                nodes[node_id] = (x, y, energy)
            else:
                raise ScenarioFormatError(line_no, f"unknown record '{kind}'")
    if field is None:
        raise ScenarioFormatError(0, "missing field line")
    if not nodes:
        raise ScenarioFormatError(0, "no node lines")
    if sorted(nodes) != list(range(len(nodes))):
        raise ScenarioFormatError(0, "node ids must be dense from 0")
    rows = np.array([nodes[i] for i in range(len(nodes))])  # x, y, energy
    return Scenario(field, rows[:, :2], rows[:, 2], sensing_range, rng_seed)


def write_scenario(scenario: Scenario, path: str) -> None:
    """Write a scenario; floats use repr so a read round-trips bit-exactly."""
    f = scenario.field
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"field {f.width!r} {f.height!r} {f.sink_x!r} {f.sink_y!r} "
                 f"{scenario.sensing_range!r} {scenario.rng_seed}\n")
        for i, ((x, y), energy) in enumerate(zip(scenario.xy.tolist(),
                                                 scenario.energy.tolist())):
            fh.write(f"node {i} {x!r} {y!r} {energy!r}\n")
