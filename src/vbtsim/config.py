"""Every parameter section and the flat key = value experiment config.

ExperimentConfig holds six top-level scalars and one frozen section per
dotted key prefix: field (Field), energy (EnergyParams), radio
(RadioParams), policy (SimPolicy), fitness (FitnessParams) and traffic
(TrafficModel). Each is declared here with its defaults and rules, and
this module imports nothing from the package. Keys, their parsers and
their defaults all come from those declarations: a section field `name`
is the key `section.name`, parsed by its declared type, so a new field
is a new key with nothing else to edit.

One key per line, '#' starts a comment (radio.e_elec = 50e-9). Unknown
keys are fatal so typos never pass silently. Every CSV the harness
writes echoes the resolved config back as sorted '#'-prefixed header
lines, which is enough to replay the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional, get_type_hints

E_INIT = 2.0               # default initial battery per node, joules

# Standard first-order radio constants; packet = 512 bytes.
DEFAULT_E_ELEC = 50e-9    # J/bit, transceiver electronics
DEFAULT_E_AMP = 100e-12   # J/bit/m^2, transmit amplifier
DEFAULT_PACKET_BITS = 4096

# Below one packet's reception, rx_cost(RadioParams()), a node can do nothing.
DEFAULT_E_FAIL = DEFAULT_E_ELEC * DEFAULT_PACKET_BITS

DEFAULT_TH = 0.1 * E_INIT  # relay-eligibility threshold, joules

ALGORITHMS = ("mmevbt", "min_cover_best_parent", "balanced_probabilistic")


@dataclass(frozen=True)
class RadioParams:
    e_elec: float = DEFAULT_E_ELEC
    e_amp: float = DEFAULT_E_AMP
    packet_bits: int = DEFAULT_PACKET_BITS

    def validate(self) -> "RadioParams":
        if not (0 < self.e_elec < math.inf and 0 < self.e_amp < math.inf
                and self.packet_bits > 0):  # nan fails every comparison
            raise ValueError("radio parameters must be strictly positive "
                             "and finite")
        return self


@dataclass(frozen=True)
class EnergyParams:
    e_init: float = E_INIT  # initial battery per deployed node, joules

    def validate(self) -> "EnergyParams":
        if not 0 < self.e_init < math.inf:
            raise ValueError("energy.e_init must be > 0 and finite")
        return self


@dataclass(frozen=True)
class FitnessParams:
    c1: float = 1.0 / 3.0
    c2: float = 1.0 / 3.0
    c3: float = 1.0 / 3.0
    mode: str = "normalized"  # or "raw"

    def validate(self) -> "FitnessParams":
        # a nan weight fails both comparisons
        if not all(c >= 0 for c in (self.c1, self.c2, self.c3)):
            raise ValueError("fitness weights must be nonnegative")
        if not abs(self.c1 + self.c2 + self.c3 - 1.0) <= 1e-9:
            raise ValueError("fitness weights must sum to 1")
        if self.mode not in ("normalized", "raw"):
            raise ValueError(f"unknown fitness mode '{self.mode}'")
        return self


@dataclass(frozen=True)
class SimPolicy:
    th: float = DEFAULT_TH
    # e_fail above th is accepted: a node fails only once it holds
    # neither, so such a node relays while it holds th and then fails
    e_fail: float = DEFAULT_E_FAIL
    t_move: Optional[int] = 50  # sink relocation cadence in rounds; None = off
    grid: int = 4
    max_step: Optional[float] = None

    def validate(self) -> "SimPolicy":
        # nan fails every comparison; None alone means an unbounded step
        if not 0 <= self.th < math.inf:
            raise ValueError("policy.th must be >= 0 and finite")
        if not 0 <= self.e_fail < math.inf:
            raise ValueError("policy.e_fail must be >= 0 and finite")
        if not 1 <= self.grid <= 2**62:  # cell indices are int64
            raise ValueError("policy.grid must be in [1, 2**62]")
        if self.t_move is not None and self.t_move < 0:
            raise ValueError("policy.t_move must be >= 0 (0 or none = off)")
        if self.max_step is not None and not 0 <= self.max_step < math.inf:
            raise ValueError("policy.max_step must be >= 0 and finite "
                             "(none = unbounded)")
        return self

    @property
    def floor(self) -> float:
        """The least energy a live node holds: a node is live iff its
        energy >= floor, so it fails below min(th, e_fail), and at 0 J
        whatever they are."""
        return max(min(self.th, self.e_fail), math.ulp(0.0))


@dataclass(frozen=True)
class TrafficModel:
    origin_probability: float = 0.1  # per node per round
    rounds_max: int = 1000

    def validate(self) -> "TrafficModel":
        if not 0.0 <= self.origin_probability <= 1.0:
            raise ValueError("traffic.origin_probability must be in [0,1]")
        if self.rounds_max < 0:
            raise ValueError("traffic.rounds_max must be >= 0")
        return self


@dataclass(frozen=True)
class Field:
    """The deployment area [0, width] x [0, height] and the sink in it.

    Checked by validate() where it is used (deploy_uniform, a Scenario,
    a scenario file, relocate_sink), not when built: `run` reads its field from the
    scenario file, and a field reshaped key by key may pass through a
    state with the sink outside.
    """

    width: float = 200.0
    height: float = 200.0
    sink_x: float = 100.0
    sink_y: float = 100.0

    def validate(self) -> "Field":
        if not all(map(math.isfinite, (self.width, self.height,
                                       self.sink_x, self.sink_y))):
            raise ValueError("field values must be finite")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("field dimensions must be positive")
        # two points of the field are then at most 2**511.5 apart, so the
        # tx cost's squared distance stays finite
        if self.width > 2.0**511 or self.height > 2.0**511:
            raise ValueError("field dimensions must be at most 2**511")
        if not self.contains(self.sink_x, self.sink_y):
            raise ValueError("sink position outside the field")
        return self

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height

    @property
    def sink_pos(self) -> tuple[float, float]:
        return (self.sink_x, self.sink_y)


@dataclass(frozen=True)
class ExperimentConfig:
    n_nodes: int = 200
    ranges: tuple[float, ...] = (20.0, 25.0, 30.0, 35.0)
    target_successes: int = 15
    max_attempts: int = 200
    algorithm: str = "mmevbt"
    base_seed: int = 0
    field: Field = Field()
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
        # NaN fails; a sweep seeds from r * 1000, which must be finite
        if not all(0 < r <= 2.0**1014 for r in self.ranges):
            raise ValueError("ranges must be positive and finite, at most "
                             "2**1014")
        if self.base_seed < 0:  # numpy seeds must be non-negative
            raise ValueError("base_seed must be >= 0")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.target_successes < 1 or self.max_attempts < 1:
            raise ValueError("target_successes and max_attempts must be >= 1")
        # field is checked where it is used: run reads its own from a file
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
