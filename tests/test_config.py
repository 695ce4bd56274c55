"""Experiment configuration: parsing, validation, echo round-trip."""

import dataclasses
import math
import os
import string
import typing
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import vbtsim as v
from vbtsim.config import _PARSERS, EnergyParams, apply_setting

ALL_KEYS = {
    "n_nodes", "field.width", "field.height", "field.sink_x", "field.sink_y",
    "ranges", "target_successes", "max_attempts", "algorithm", "base_seed",
    "radio.e_elec", "radio.e_amp", "radio.packet_bits", "energy.e_init",
    "policy.th", "policy.e_fail", "policy.t_move", "policy.grid",
    "policy.max_step", "fitness.c1", "fitness.c2", "fitness.c3",
    "fitness.mode", "traffic.origin_probability", "traffic.rounds_max",
}


def test_defaults_validate():
    cfg = v.ExperimentConfig()
    assert cfg.validate() is cfg


def test_every_section_validate_returns_the_section():
    cfg = v.ExperimentConfig()
    sections = [getattr(cfg, f.name) for f in dataclasses.fields(cfg)]
    checked = [s for s in sections if hasattr(s, "validate")]
    assert len(checked) == 6  # field too, though only where it is used
    for section in checked:
        assert section.validate() is section


def test_default_factories_match_module_defaults():
    cfg = v.ExperimentConfig()
    assert cfg.field == v.Field()
    assert cfg.energy == EnergyParams()
    assert cfg.radio == v.RadioParams()
    assert cfg.policy == v.SimPolicy()
    assert cfg.fitness == v.FitnessParams()
    assert cfg.traffic == v.TrafficModel()
    assert cfg.policy.th == v.DEFAULT_TH
    assert cfg.policy.e_fail == v.DEFAULT_E_FAIL
    assert cfg.energy.e_init == v.E_INIT
    assert cfg.field.width == 200.0
    assert cfg.field.sink_x == 100.0
    assert cfg.traffic.rounds_max == 1000
    assert cfg.fitness.c1 == pytest.approx(1.0 / 3.0)


def test_parse_text_with_comments_and_blanks():
    text = """
# full-line comment
n_nodes = 120

ranges = 20,25,30   # inline comment
algorithm = min_cover_best_parent
policy.t_move = 10
"""
    cfg = v.parse_config_text(text)
    assert cfg.n_nodes == 120
    assert cfg.ranges == (20.0, 25.0, 30.0)
    assert cfg.algorithm == "min_cover_best_parent"
    assert cfg.policy.t_move == 10
    # untouched keys keep their defaults
    assert cfg.base_seed == 0
    assert cfg.radio.packet_bits == v.ExperimentConfig().radio.packet_bits


def test_unknown_key_is_fatal_and_names_key_and_line():
    text = "n_nodes = 50\nradio.gain = 3\n"
    with pytest.raises(ValueError) as exc:
        v.parse_config_text(text)
    msg = str(exc.value)
    assert "line 2" in msg
    assert "radio.gain" in msg


def test_bad_value_is_fatal_and_names_key_and_line():
    with pytest.raises(ValueError) as exc:
        v.parse_config_text("\nn_nodes = many\n")
    msg = str(exc.value)
    assert "line 2" in msg
    assert "n_nodes" in msg
    assert "many" in msg


def test_line_without_equals_is_fatal():
    with pytest.raises(ValueError, match="line 1"):
        v.parse_config_text("just_some_words\n")


def test_none_parses_for_optional_keys():
    cfg = v.parse_config_text("policy.t_move = none\npolicy.max_step = NONE\n")
    assert cfg.policy.t_move is None
    assert cfg.policy.max_step is None
    cfg2 = v.parse_config_text("policy.max_step = 12.5\n")
    assert cfg2.policy.max_step == 12.5


def test_non_finite_floats_rejected():
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError):
            v.parse_config_text(f"radio.e_elec = {bad}\n")


def test_ranges_must_be_strictly_increasing():
    cfg = v.parse_config_text("ranges = 30,25\n")
    with pytest.raises(ValueError, match="increasing"):
        cfg.validate()
    with pytest.raises(ValueError, match="increasing"):
        v.parse_config_text("ranges = 20,20\n").validate()


@pytest.mark.parametrize("ranges", [
    (math.inf,), (math.nan,), (20.0, math.inf), (20.0, math.nan, 30.0)])
def test_validate_rejects_non_finite_ranges(ranges):
    # the parser refuses non-finite floats, a config built in code does not
    cfg = dataclasses.replace(v.ExperimentConfig(), ranges=ranges)
    with pytest.raises(ValueError, match="ranges must be positive and finite"):
        cfg.validate()


def test_ranges_parse_tolerates_whitespace():
    cfg = v.parse_config_text("ranges = 20, 25 ,30\n")
    assert cfg.ranges == (20.0, 25.0, 30.0)


def test_empty_ranges_rejected_by_validate():
    cfg = v.parse_config_text("ranges = ,\n")
    assert cfg.ranges == ()
    with pytest.raises(ValueError, match="non-empty"):
        cfg.validate()


def test_validate_rejects_unknown_algorithm():
    cfg = v.parse_config_text("algorithm = steepest_descent\n")
    with pytest.raises(ValueError, match="algorithm"):
        cfg.validate()


def test_validate_rejects_origin_probability_out_of_range():
    cfg = v.parse_config_text("traffic.origin_probability = 1.5\n")
    with pytest.raises(ValueError):
        cfg.validate()


def test_validate_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        v.parse_config_text("target_successes = 0\n").validate()
    with pytest.raises(ValueError):
        v.parse_config_text("n_nodes = 0\n").validate()
    with pytest.raises(ValueError):
        v.parse_config_text("policy.grid = 0\n").validate()


def test_echo_lines_sorted_and_complete():
    lines = v.ExperimentConfig().echo_lines()
    keys = []
    for line in lines:
        assert line.startswith("# ")
        key, sep, _ = line[2:].partition(" = ")
        assert sep == " = "
        keys.append(key)
    assert keys == sorted(keys)
    assert set(keys) == ALL_KEYS
    assert set(keys) == set(_PARSERS)


def _round_trip(cfg):
    # echo lines are comment-prefixed; strip the marker and feed them back
    text = "\n".join(line[2:] for line in cfg.echo_lines())
    return v.parse_config_text(text)


def test_echo_round_trip_on_defaults():
    cfg = v.ExperimentConfig()
    assert _round_trip(cfg) == cfg


def test_echo_round_trip_on_modified_config():
    cfg = dataclasses.replace(
        v.ExperimentConfig(),
        n_nodes=73,
        ranges=(15.0, 22.5),
        algorithm="balanced_probabilistic",
        radio=v.RadioParams(e_elec=7.25e-9),
        policy=v.SimPolicy(t_move=None, max_step=17.75),
        fitness=v.FitnessParams(c1=1.0 / 3.0, mode="raw"),
        traffic=v.TrafficModel(origin_probability=0.05),
    )
    assert _round_trip(cfg) == cfg


def test_apply_setting_returns_new_config():
    cfg = v.ExperimentConfig()
    cfg2 = apply_setting(cfg, "n_nodes", "99")
    assert cfg2.n_nodes == 99
    assert cfg.n_nodes == v.ExperimentConfig().n_nodes
    with pytest.raises(ValueError, match="unknown"):
        apply_setting(cfg, "nnodes", "99")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("n_nodes = 33\nbase_seed = 5\n", encoding="utf-8")
    cfg = v.load_config(str(path))
    assert cfg.n_nodes == 33
    assert cfg.base_seed == 5


def test_parse_with_base_only_overrides_given_keys():
    base = dataclasses.replace(v.ExperimentConfig(), n_nodes=44, base_seed=9)
    cfg = v.parse_config_text("base_seed = 10\n", base=base)
    assert cfg.n_nodes == 44
    assert cfg.base_seed == 10


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
STRATEGY_BY_TYPE = {
    int: st.integers(),
    float: _FINITE,
    str: st.text(string.ascii_letters + string.digits + "_", min_size=1),
    Optional[int]: st.none() | st.integers(),
    Optional[float]: st.none() | _FINITE,
    tuple[float, ...]: st.lists(_FINITE, max_size=5).map(tuple),
}


def declared_type(key):
    owner = v.ExperimentConfig
    *sections, name = key.split(".")
    for section in sections:
        owner = typing.get_type_hints(owner)[section]
    return typing.get_type_hints(owner)[name]


def replaced(cfg, key, value):
    section, _, name = key.rpartition(".")
    if not section:
        return dataclasses.replace(cfg, **{name: value})
    inner = dataclasses.replace(getattr(cfg, section), **{name: value})
    return dataclasses.replace(cfg, **{section: inner})


@pytest.mark.parametrize("key", sorted(ALL_KEYS))
@settings(max_examples=25)
@given(data=st.data())
def test_every_key_round_trips_a_value_of_its_declared_type(key, data):
    cfg = replaced(v.ExperimentConfig(), key,
                   data.draw(STRATEGY_BY_TYPE[declared_type(key)]))
    assert _round_trip(cfg) == cfg

    # apply_setting with the echoed text rebuilds cfg from the defaults
    # and moves no other key's echo line
    prefix = f"# {key} = "
    (line,) = [l for l in cfg.echo_lines() if l.startswith(prefix)]
    base = v.ExperimentConfig()
    applied = apply_setting(base, key, line[len(prefix):])
    assert applied == cfg
    assert [l for l in applied.echo_lines() if not l.startswith(prefix)] == \
        [l for l in base.echo_lines() if not l.startswith(prefix)]


def test_readme_config_block_is_the_default_echo():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Config keys", 1)[1]
    block = section.split("```\n", 2)[1]
    assert block.splitlines() == \
        [line[2:] for line in v.ExperimentConfig().echo_lines()]
