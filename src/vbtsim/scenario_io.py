"""Plain-text scenario persistence.

Format, one record per line, '.' decimal separator, '#' starts a comment:

    field <width> <height> <sink_x> <sink_y> <range> <seed>
    node <id> <x> <y> <energy>

A file holds energies only: the run's policy decides which nodes are
live (Scenario.state).

read_scenario reads the file once, as UTF-8 with or without a byte-order
mark. A file as write_scenario writes it (one field line, then node
lines of five tokens each with ids 0..n-1 in order, no comment and no
blank line) is parsed in one pass: each column is converted with float()
or int() and checked as an array. Every other file, and any file with a
bad value, goes through the line-by-line reader, the one place that
names an error's line and message.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

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
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    # text mode ends lines at "\n" alone, as iterating the file would
    return _read_columns(text) or _read_lines(text.split("\n"))


def _read_columns(text: str) -> Optional[Scenario]:
    """The scenario of a file with one field line followed by node lines
    of exactly five tokens, ids 0..n-1 in order; None for any other file
    or any bad value, which _read_lines then reports.

    Every line after the first starts with "node", there are as many
    lines as "node" tokens, and those tokens are every fifth one: as no
    number starts with "node", line k holds tokens 5k to 5k + 4. A
    comment fails too: no number holds a '#'.
    """
    head, _, body = text.partition("\n")
    args, tokens = head.split(), body.split()
    n = len(tokens) // 5
    lines = body.count("\n") + (not body.endswith("\n"))
    if (len(args) != 7 or args[0] != "field" or n == 0
            or len(tokens) != 5 * n or lines != n
            or ("\n" + body).count("\nnode") != n
            or tokens[::5] != ["node"] * n):
        return None
    try:
        field, sensing_range, seed = _field(1, args[1:])
        if list(map(int, tokens[1::5])) != list(range(n)):
            return None
        x, y, energy = (np.array(list(map(float, tokens[k::5])))
                        for k in (2, 3, 4))
        # Scenario checks the energies and the field containment as arrays
        return Scenario(field, np.column_stack((x, y)), energy,
                        sensing_range, seed)
    except ValueError:  # a ScenarioFormatError too
        return None


def _field(line_no: int, args: list[str]) -> tuple[Field, float, int]:
    """A field line's values: the field, the sensing range and the seed."""
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
    return field, rng_m, seed


def _read_lines(lines: Iterable[str]) -> Scenario:
    """Parse a scenario file's lines one by one, in any order the format
    allows; raises ScenarioFormatError at the first bad line."""
    field = None
    nodes: dict[int, tuple[float, float, float]] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "field":
            if field is not None:
                raise ScenarioFormatError(line_no, "duplicate field line")
            field, sensing_range, rng_seed = _field(line_no, args)
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
                raise ScenarioFormatError(line_no,
                                          f"duplicate node id {node_id}")
            if not field.contains(x, y):
                raise ScenarioFormatError(line_no,
                                          f"node {node_id} outside field")
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
