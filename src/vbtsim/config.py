"""Flat key = value experiment configuration.

One key per line, '#' starts a comment, sections are dotted
(radio.e_elec = 50e-9). Unknown keys are fatal so typos never pass
silently. Every CSV the harness writes echoes the resolved config back
as '#'-prefixed header lines, which is enough to replay the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

from .balanced import FitnessParams
from .energy import (
    DEFAULT_E_AMP,
    DEFAULT_E_ELEC,
    DEFAULT_E_FAIL,
    DEFAULT_PACKET_BITS,
    RadioParams,
)
from .model import DEFAULT_TH, E_INIT, Field
from .simulate import ALGORITHMS, SimPolicy, TrafficModel


@dataclass(frozen=True)
class ExperimentConfig:
    n_nodes: int = 200
    field_width: float = 200.0
    field_height: float = 200.0
    field_sink_x: float = 100.0
    field_sink_y: float = 100.0
    ranges: tuple[float, ...] = (20.0, 25.0, 30.0, 35.0)
    target_successes: int = 15
    max_attempts: int = 200
    algorithm: str = "mmevbt"
    base_seed: int = 0
    radio_e_elec: float = DEFAULT_E_ELEC
    radio_e_amp: float = DEFAULT_E_AMP
    radio_packet_bits: int = DEFAULT_PACKET_BITS
    energy_e_init: float = E_INIT
    policy_th: float = DEFAULT_TH
    policy_e_fail: float = DEFAULT_E_FAIL
    policy_t_move: Optional[int] = 50
    policy_grid: int = 4
    policy_max_step: Optional[float] = None
    fitness_c1: float = 1.0 / 3.0
    fitness_c2: float = 1.0 / 3.0
    fitness_c3: float = 1.0 / 3.0
    fitness_mode: str = "normalized"
    traffic_origin_probability: float = 0.1
    traffic_rounds_max: int = 1000

    def validate(self) -> "ExperimentConfig":
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if not self.ranges:
            raise ValueError("ranges must be non-empty")
        if any(b <= a for a, b in zip(self.ranges, self.ranges[1:])):
            raise ValueError("ranges must be strictly increasing")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.target_successes < 1 or self.max_attempts < 1:
            raise ValueError("target_successes and max_attempts must be >= 1")
        if self.energy_e_init <= 0:
            raise ValueError("energy.e_init must be > 0")
        self.radio().validate()
        self.fitness().validate()
        self.policy().validate()
        self.traffic().validate()
        return self

    def field(self) -> Field:
        return Field(self.field_width, self.field_height,
                     self.field_sink_x, self.field_sink_y)

    def radio(self) -> RadioParams:
        return RadioParams(self.radio_e_elec, self.radio_e_amp,
                           self.radio_packet_bits)

    def policy(self) -> SimPolicy:
        return SimPolicy(self.policy_th, self.policy_e_fail,
                         self.policy_t_move, self.policy_grid,
                         self.policy_max_step)

    def fitness(self) -> FitnessParams:
        return FitnessParams(self.fitness_c1, self.fitness_c2,
                             self.fitness_c3, self.fitness_mode)

    def traffic(self) -> TrafficModel:
        return TrafficModel(self.traffic_origin_probability,
                            self.traffic_rounds_max)

    def echo_lines(self) -> list[str]:
        """The resolved config as sorted '# key = value' CSV header lines."""
        return [f"# {key} = {_format_value(getattr(self, _KEY_TO_ATTR[key]))}"
                for key in sorted(_KEY_TO_ATTR)]


_KEY_TO_ATTR = {f.name.replace("_", ".", 1) if "_" in f.name and
                f.name.split("_", 1)[0] in
                ("field", "radio", "policy", "fitness", "traffic", "energy")
                else f.name: f.name
                for f in fields(ExperimentConfig)}


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


def _parse_opt_int(text: str) -> Optional[int]:
    return None if text.lower() == "none" else _parse_int(text)


def _parse_opt_float(text: str) -> Optional[float]:
    return None if text.lower() == "none" else _parse_float(text)


def _parse_ranges(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in text.split(",") if part.strip())


_PARSERS = {
    "n_nodes": _parse_int,
    "field.width": _parse_float,
    "field.height": _parse_float,
    "field.sink_x": _parse_float,
    "field.sink_y": _parse_float,
    "ranges": _parse_ranges,
    "target_successes": _parse_int,
    "max_attempts": _parse_int,
    "algorithm": str,
    "base_seed": _parse_int,
    "radio.e_elec": _parse_float,
    "radio.e_amp": _parse_float,
    "radio.packet_bits": _parse_int,
    "energy.e_init": _parse_float,
    "policy.th": _parse_float,
    "policy.e_fail": _parse_float,
    "policy.t_move": _parse_opt_int,
    "policy.grid": _parse_int,
    "policy.max_step": _parse_opt_float,
    "fitness.c1": _parse_float,
    "fitness.c2": _parse_float,
    "fitness.c3": _parse_float,
    "fitness.mode": str,
    "traffic.origin_probability": _parse_float,
    "traffic.rounds_max": _parse_int,
}

assert set(_PARSERS) == set(_KEY_TO_ATTR)


def apply_setting(config: ExperimentConfig, key: str,
                  value: str) -> ExperimentConfig:
    """One key = value assignment; unknown keys and bad values are fatal."""
    if key not in _PARSERS:
        raise ValueError(f"unknown config key '{key}'")
    try:
        parsed = _PARSERS[key](value)
    except ValueError as exc:
        raise ValueError(f"bad value for '{key}': {value} ({exc})")
    return replace(config, **{_KEY_TO_ATTR[key]: parsed})


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
