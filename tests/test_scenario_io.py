"""Plain-text scenario files: round-trip fidelity and reader validation."""

import pytest

import vbtsim as v
from vbtsim import ScenarioFormatError, read_scenario, write_scenario


def write_text(tmp_path, text, name="case.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


GOOD = """# demo deployment
field 200 200 100 100 25 7

node 0 10.5 20.25 2.0
node 1 100 100 0.15
node 2 30 40 0.0001
"""


def test_read_basic_file(tmp_path):
    sc = read_scenario(write_text(tmp_path, GOOD), th=0.2, e_fail=2.048e-4)
    assert sc.field.width == 200 and sc.field.sink_pos == (100.0, 100.0)
    assert sc.sensing_range == 25.0 and sc.rng_seed == 7
    assert [n.id for n in sc.nodes] == [0, 1, 2]
    assert sc.node(0).pos == (10.5, 20.25)


def test_read_derives_statuses_from_energy(tmp_path):
    sc = read_scenario(write_text(tmp_path, GOOD), th=0.2, e_fail=2.048e-4)
    assert sc.node(0).status is v.NodeStatus.CANDIDATE_NON_TREE
    assert sc.node(1).status is v.NodeStatus.PERMANENT_NON_TREE
    assert sc.node(2).status is v.NodeStatus.FAILED


def test_round_trip_preserves_values_exactly(tmp_path):
    field = v.Field(150, 120, 75, 60)
    nodes = v.deploy_uniform(field, 40, seed=5)
    nodes[3].energy = 0.123456789012345
    sc = v.Scenario(field, nodes, 17.5, 5)
    path = tmp_path / "rt.txt"
    write_scenario(sc, path)
    back = read_scenario(path, th=0.2, e_fail=2.048e-4)
    assert back.sensing_range == sc.sensing_range and back.rng_seed == sc.rng_seed
    for a, b in zip(sc.nodes, back.nodes):
        assert (a.id, a.x, a.y, a.energy) == (b.id, b.x, b.y, b.energy)


def test_write_then_write_is_byte_identical(tmp_path):
    field = v.Field(200, 200, 100, 100)
    sc = v.Scenario(field, v.deploy_uniform(field, 10, seed=2), 30.0, 2)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_scenario(sc, p1)
    write_scenario(sc, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_duplicate_node_id_rejected_with_line_number(tmp_path):
    bad = "field 200 200 100 100 25 7\nnode 0 1 1 2.0\nnode 0 2 2 2.0\n"
    with pytest.raises(ScenarioFormatError) as err:
        read_scenario(write_text(tmp_path, bad), th=0.2, e_fail=2.048e-4)
    assert err.value.line_no == 3
    assert "duplicate" in str(err.value).lower()


def test_out_of_field_position_rejected(tmp_path):
    bad = "field 200 200 100 100 25 7\nnode 0 250 1 2.0\n"
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, bad), th=0.2, e_fail=2.048e-4)


@pytest.mark.parametrize("energy", ["nan", "inf", "-inf"])
def test_non_finite_energy_rejected_with_line_number(tmp_path, energy):
    bad = f"field 200 200 100 100 25 7\nnode 0 1 1 2.0\nnode 1 2 2 {energy}\n"
    with pytest.raises(ScenarioFormatError) as err:
        read_scenario(write_text(tmp_path, bad), th=0.2, e_fail=2.048e-4)
    assert err.value.line_no == 3
    assert "finite" in str(err.value)


def test_node_before_field_rejected(tmp_path):
    bad = "node 0 1 1 2.0\nfield 200 200 100 100 25 7\n"
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, bad), th=0.2, e_fail=2.048e-4)


def test_missing_field_line_rejected(tmp_path):
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, "# nothing here\n"), th=0.2, e_fail=2.048e-4)


def test_second_field_line_rejected(tmp_path):
    bad = "field 200 200 100 100 25 7\nfield 100 100 50 50 10 1\n"
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, bad), th=0.2, e_fail=2.048e-4)


def test_unknown_record_type_rejected(tmp_path):
    bad = "field 200 200 100 100 25 7\nblob 0 1 1 2.0\n"
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, bad), th=0.2, e_fail=2.048e-4)


def test_non_numeric_value_rejected(tmp_path):
    bad = "field 200 200 100 100 25 7\nnode 0 abc 1 2.0\n"
    with pytest.raises(ScenarioFormatError) as err:
        read_scenario(write_text(tmp_path, bad), th=0.2, e_fail=2.048e-4)
    assert err.value.line_no == 2


def test_gappy_ids_rejected(tmp_path):
    bad = "field 200 200 100 100 25 7\nnode 0 1 1 2.0\nnode 2 2 2 2.0\n"
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, bad), th=0.2, e_fail=2.048e-4)


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "\n# header\nfield 200 200 100 100 25 7\n\n# a node\nnode 0 1 1 2.0\n\n"
    sc = read_scenario(write_text(tmp_path, text), th=0.2, e_fail=2.048e-4)
    assert len(sc.nodes) == 1


def test_unsorted_node_lines_are_accepted_and_sorted(tmp_path):
    text = "field 200 200 100 100 25 7\nnode 1 2 2 2.0\nnode 0 1 1 2.0\n"
    sc = read_scenario(write_text(tmp_path, text), th=0.2, e_fail=2.048e-4)
    assert [n.id for n in sc.nodes] == [0, 1]
