"""Flat key = value experiment configuration over nested sections.

ExperimentConfig holds six top-level scalars and one frozen section per
dotted key prefix: field (below), energy (EnergyParams), radio
(RadioParams), policy (SimPolicy), fitness (FitnessParams) and traffic
(TrafficModel). Keys, their parsers and their defaults all come from
those declarations: a section field `name` is the key `section.name`,
parsed by its declared type, so a new field is a new key with nothing
else to edit.

One key per line, '#' starts a comment (radio.e_elec = 50e-9). Unknown
keys are fatal so typos never pass silently. Every CSV the harness
writes echoes the resolved config back as sorted '#'-prefixed header
lines, which is enough to replay the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional, get_type_hints

from .balanced import FitnessParams
from .energy import EnergyParams, RadioParams
from .simulate import ALGORITHMS, SimPolicy, TrafficModel


@dataclass(frozen=True)
class FieldParams:
    """The numbers of a Field, unchecked until a Field is built from them.

    `run` reads its field from the scenario file, and a field reshaped
    key by key may pass through a state with the sink outside, so the
    checks wait for the Field itself.
    """

    width: float = 200.0
    height: float = 200.0
    sink_x: float = 100.0
    sink_y: float = 100.0


@dataclass(frozen=True)
class ExperimentConfig:
    n_nodes: int = 200
    ranges: tuple[float, ...] = (20.0, 25.0, 30.0, 35.0)
    target_successes: int = 15
    max_attempts: int = 200
    algorithm: str = "mmevbt"
    base_seed: int = 0
    field: FieldParams = FieldParams()
    energy: EnergyParams = EnergyParams()
    radio: RadioParams = RadioParams()
    policy: SimPolicy = SimPolicy()
    fitness: FitnessParams = FitnessParams()
    traffic: TrafficModel = TrafficModel()

    def validate(self) -> "ExperimentConfig":
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if not self.ranges:
            raise ValueError("ranges must be non-empty")
        if any(b <= a for a, b in zip(self.ranges, self.ranges[1:])):
            raise ValueError("ranges must be strictly increasing")
        if not all(0 < r < math.inf for r in self.ranges):  # NaN fails too
            raise ValueError("ranges must be positive and finite")
        if self.base_seed < 0:  # numpy seeds must be non-negative
            raise ValueError("base_seed must be >= 0")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.target_successes < 1 or self.max_attempts < 1:
            raise ValueError("target_successes and max_attempts must be >= 1")
        # field is checked by Field when a sweep or make_scenario builds one
        for section in (self.energy, self.radio, self.fitness, self.policy,
                        self.traffic):
            section.validate()
        return self

    def echo_lines(self) -> list[str]:
        """The resolved config as sorted '# key = value' CSV header lines."""
        return [f"# {key} = {_format_value(_lookup(self, key))}"
                for key in sorted(_PARSERS)]


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_float(text: str) -> float:
    value = float(text)
    if math.isnan(value) or math.isinf(value):
        raise ValueError("must be finite")
    return value


def _none_or(parse):
    return lambda text: None if text.lower() == "none" else parse(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in text.split(",") if part.strip())


_PARSE_BY_TYPE = {
    int: _parse_int,
    float: _parse_float,
    str: str,
    Optional[int]: _none_or(_parse_int),
    Optional[float]: _none_or(_parse_float),
    tuple[float, ...]: _parse_floats,
}


def _key_parsers(cls, prefix: str = "") -> dict:
    """key -> parser for every field of cls, sections flattened."""
    hints = get_type_hints(cls)
    table = {}
    for f in fields(cls):
        hint = hints[f.name]
        if is_dataclass(hint):
            table.update(_key_parsers(hint, f"{prefix}{f.name}."))
        else:
            table[prefix + f.name] = _PARSE_BY_TYPE[hint]
    return table


_PARSERS = _key_parsers(ExperimentConfig)


def _lookup(config: ExperimentConfig, key: str):
    value = config
    for attr in key.split("."):
        value = getattr(value, attr)
    return value


def apply_setting(config: ExperimentConfig, key: str,
                  value: str) -> ExperimentConfig:
    """One key = value assignment; unknown keys and bad values are fatal."""
    if key not in _PARSERS:
        raise ValueError(f"unknown config key '{key}'")
    try:
        parsed = _PARSERS[key](value)
    except ValueError as exc:
        raise ValueError(f"bad value for '{key}': {value} ({exc})")
    return _replace_at(config, key, parsed)


def _replace_at(obj, key: str, value):
    """obj with the field at dotted key set to value, sections copied."""
    attr, _, rest = key.partition(".")
    if rest:
        value = _replace_at(getattr(obj, attr), rest, value)
    return replace(obj, **{attr: value})


def parse_config_text(text: str,
                      base: Optional[ExperimentConfig] = None
                      ) -> ExperimentConfig:
    config = base or ExperimentConfig()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        try:
            config = apply_setting(config, key.strip(), value.strip())
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: {exc}")
    return config


def load_config(path: str,
                base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base)
