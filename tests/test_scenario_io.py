"""Plain-text scenario files: round-trip fidelity and reader validation."""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import vbtsim as v
from vbtsim import ScenarioFormatError, read_scenario, write_scenario
from vbtsim.scenario_io import _read_columns, _read_lines


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
    sc = read_scenario(write_text(tmp_path, GOOD))
    assert sc.field.width == 200 and sc.field.sink_pos == (100.0, 100.0)
    assert sc.sensing_range == 25.0 and sc.rng_seed == 7
    assert sc.xy.tolist() == [[10.5, 20.25], [100.0, 100.0], [30.0, 40.0]]
    assert sc.energy.tolist() == [2.0, 0.15, 0.0001]


def test_read_derives_statuses_from_energy(tmp_path):
    sc = read_scenario(write_text(tmp_path, GOOD))
    # the file holds energies; the run's policy decides liveness: a
    # candidate, a permanent non-tree node and a failed one
    policy = v.SimPolicy(th=0.2, e_fail=2.048e-4)
    assert sc.state(policy.floor)[1].tolist() == [True, True, False]
    assert sc.state(v.SimPolicy(e_fail=0.0).floor)[1].all()


def test_round_trip_preserves_values_exactly(tmp_path):
    field = v.Field(150, 120, 75, 60)
    energy = [v.E_INIT] * 40
    energy[3] = 0.123456789012345
    sc = v.Scenario(field, v.deploy_uniform(field, 40, seed=5), energy,
                    17.5, 5)
    path = tmp_path / "rt.txt"
    write_scenario(sc, path)
    back = read_scenario(path)
    assert back.sensing_range == sc.sensing_range and back.rng_seed == sc.rng_seed
    assert back.xy.tolist() == sc.xy.tolist()
    assert back.energy.tolist() == sc.energy.tolist()


def test_write_then_write_is_byte_identical(tmp_path):
    sc = v.make_scenario(v.ExperimentConfig(n_nodes=10), 2, 30.0)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_scenario(sc, p1)
    write_scenario(sc, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_duplicate_node_id_rejected_with_line_number(tmp_path):
    bad = "field 200 200 100 100 25 7\nnode 0 1 1 2.0\nnode 0 2 2 2.0\n"
    with pytest.raises(ScenarioFormatError) as err:
        read_scenario(write_text(tmp_path, bad))
    assert err.value.line_no == 3
    assert "duplicate" in str(err.value).lower()


def test_out_of_field_position_rejected(tmp_path):
    bad = "field 200 200 100 100 25 7\nnode 0 250 1 2.0\n"
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, bad))


@pytest.mark.parametrize("energy", ["nan", "inf", "-inf"])
def test_non_finite_energy_rejected_with_line_number(tmp_path, energy):
    bad = f"field 200 200 100 100 25 7\nnode 0 1 1 2.0\nnode 1 2 2 {energy}\n"
    with pytest.raises(ScenarioFormatError) as err:
        read_scenario(write_text(tmp_path, bad))
    assert err.value.line_no == 3
    assert "finite" in str(err.value)


def test_node_before_field_rejected(tmp_path):
    bad = "node 0 1 1 2.0\nfield 200 200 100 100 25 7\n"
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, bad))


def test_missing_field_line_rejected(tmp_path):
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, "# nothing here\n"))


def test_second_field_line_rejected(tmp_path):
    bad = "field 200 200 100 100 25 7\nfield 100 100 50 50 10 1\n"
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, bad))


def test_unknown_record_type_rejected(tmp_path):
    bad = "field 200 200 100 100 25 7\nblob 0 1 1 2.0\n"
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, bad))


def test_non_numeric_value_rejected(tmp_path):
    bad = "field 200 200 100 100 25 7\nnode 0 abc 1 2.0\n"
    with pytest.raises(ScenarioFormatError) as err:
        read_scenario(write_text(tmp_path, bad))
    assert err.value.line_no == 2


def test_gappy_ids_rejected(tmp_path):
    bad = "field 200 200 100 100 25 7\nnode 0 1 1 2.0\nnode 2 2 2 2.0\n"
    with pytest.raises(ScenarioFormatError):
        read_scenario(write_text(tmp_path, bad))


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "\n# header\nfield 200 200 100 100 25 7\n\n# a node\nnode 0 1 1 2.0\n\n"
    sc = read_scenario(write_text(tmp_path, text))
    assert sc.xy.tolist() == [[1.0, 1.0]]


def test_unsorted_node_lines_are_accepted_and_sorted(tmp_path):
    text = "field 200 200 100 100 25 7\nnode 1 2 2 2.0\nnode 0 1 1 2.0\n"
    sc = read_scenario(write_text(tmp_path, text))
    assert sc.xy.tolist() == [[1.0, 1.0], [2.0, 2.0]]


def test_byte_order_mark_is_skipped(tmp_path):
    """A file saved with a UTF-8 byte-order mark reads as the same file
    without one, on the one-pass parse and on the line reader."""
    sc = v.make_scenario(v.ExperimentConfig(n_nodes=5), 3, 30.0)
    write_scenario(sc, tmp_path / "plain.txt")
    plain = (tmp_path / "plain.txt").read_text(encoding="utf-8")
    for text in (plain, GOOD):
        want = read_scenario(write_text(tmp_path, text))
        got = read_scenario(write_text(tmp_path, "\ufeff" + text, "bom.txt"))
        assert got.field == want.field
        assert got.xy.tolist() == want.xy.tolist()
        assert got.energy.tolist() == want.energy.tolist()


# one edit each, applied to the lines write_scenario writes; "moved"
# keeps every token and shifts one across a line break, which leaves a
# 4-token node line next to a 6-token one
EDITS = ["none", "crlf", "comment", "blank", "shuffle", "moved", "duplicate",
         "gap", "outside", "energy", "not a number", "second field",
         "unknown record"]


@st.composite
def edited_files(draw):
    """A drawn scenario as write_scenario writes it, one edit from EDITS
    applied: the edit and the file's text."""
    w, h = draw(st.floats(1e-3, 1e6)), draw(st.floats(1e-3, 1e6))
    n = draw(st.integers(1, 6))
    coord = st.one_of(st.just(-0.0), st.floats(0.0, 1.0))
    xy = [(draw(coord) * w, draw(coord) * h) for _ in range(n)]
    energy = [draw(st.one_of(st.just(-0.0), st.floats(0.0, 10.0)))
              for _ in range(n)]
    field = v.Field(w, h, w / 2, h / 2)
    sc = v.Scenario(field, xy, energy, draw(st.floats(1e-3, 1e3)),
                    draw(st.integers(0, 2**40)))
    with tempfile.TemporaryDirectory() as tmp:
        write_scenario(sc, os.path.join(tmp, "sc.txt"))
        with open(os.path.join(tmp, "sc.txt"), encoding="utf-8") as fh:
            lines = fh.read().split("\n")[:-1]
    edit = draw(st.sampled_from(EDITS))
    node = draw(st.integers(1, n))  # a node line
    where = draw(st.integers(1, n + 1))  # a place after the field line
    tokens = lines[node].split()
    if edit == "comment":
        lines.insert(draw(st.integers(0, n + 1)), "# a comment")
    elif edit == "blank":
        lines.insert(draw(st.integers(0, n + 1)), draw(st.sampled_from(
            ["", "  ", "\t"])))
    elif edit == "shuffle":
        lines[1:] = draw(st.permutations(lines[1:]))
    elif edit == "moved":
        k = draw(st.integers(0, n - 1))  # lines k and k + 1
        a, b = lines[k].split(), lines[k + 1].split()
        way = draw(st.sampled_from(["down", "up", "own line"]))
        if way == "down":
            a, b = a[:-1], a[-1:] + b
        elif way == "up":
            a, b = a + b[:1], b[1:]
        else:
            a, b = a[:-1], a[-1:]
            lines.insert(k + 1, "")
        lines[k:k + 2] = [" ".join(a), " ".join(b)]
    elif edit == "duplicate":
        lines.insert(where, lines[node])
    elif edit == "gap":
        tokens[1] = str(n + draw(st.integers(0, 2)))
    elif edit == "outside":
        tokens[draw(st.sampled_from([2, 3]))] = draw(st.sampled_from(
            ["-1.0", "-5e-324", repr(2 * max(w, h)), "inf", "nan"]))
    elif edit == "energy":
        tokens[4] = draw(st.sampled_from(["nan", "inf", "-inf", "-1e-300"]))
    elif edit == "not a number":
        line = draw(st.integers(0, n))
        bad = lines[line].split()
        bad[draw(st.integers(1, len(bad) - 1))] = draw(st.sampled_from(
            ["abc", "1.0.0", "0x10", "node"]))
        lines[line] = " ".join(bad)
    elif edit == "second field":
        lines.insert(where, lines[0])
    elif edit == "unknown record":
        # "nodes" starts its line as a node line does
        tokens[0] = draw(st.sampled_from(["nodes", "Node", "blob"]))
    if edit in ("gap", "outside", "energy", "unknown record"):
        lines[node] = " ".join(tokens)
    end = "\r\n" if edit == "crlf" else "\n"
    return edit, "".join(line + end for line in lines)


def outcome(read):
    """What a read gives: the scenario's values, bit for bit, or the
    error's text."""
    try:
        sc = read()
    except ScenarioFormatError as exc:
        return str(exc)
    return (sc.field, sc.sensing_range, sc.rng_seed, sc.xy.shape,
            sc.xy.tobytes(), sc.energy.tobytes())


@settings(max_examples=500)
@given(edited_files())
def test_one_pass_parse_equals_the_line_reader(case):
    """read_scenario gives the line reader's arrays, bit for bit, or its
    error text, on written files with one edit; the files write_scenario
    writes, with either line end, take the one-pass parse."""
    edit, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sc.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        got = outcome(lambda: read_scenario(path))
        with open(path, encoding="utf-8") as fh:
            want = outcome(lambda: _read_lines(fh))
    assert got == want
    if edit in ("none", "crlf"):
        assert _read_columns(text.replace("\r\n", "\n")) is not None
    if edit == "moved":
        assert _read_columns(text) is None
