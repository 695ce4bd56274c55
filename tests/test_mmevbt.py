"""Minimal-energy backbone: construction, maintenance, sink relocation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vbtsim as v
from oracles import (
    bellman_ford_consumption,
    copy_scenario,
    graph_and_state,
    hop_weight,
    live_ids,
    positions,
    reference_mmevbt,
    reference_relocate_sink,
    scenario_from,
    tree_dicts,
    tree_nodes,
)

RADIO = v.RadioParams()
TH = v.DEFAULT_TH
FIELD = v.Field(200, 200, 100, 100)  # scenario_from's default


def relocate(sc, grid=4, max_step=None):
    """relocate_sink over sc's graph, state and field."""
    return v.relocate_sink(*graph_and_state(sc), sc.field,
                           v.SimPolicy(grid=grid, max_step=max_step))


def built(sc, params=RADIO, th=TH):
    """build_mmevbt over sc, as tree_dicts' (parent, consumption)."""
    graph, state = graph_and_state(sc)
    return tree_dicts(graph, v.build_mmevbt(graph, state, params, th))


def assert_tree_invariants(parent, consumption, scenario, params=RADIO,
                           th=TH):
    pos = positions(scenario)
    for i, par in parent.items():
        hop = hop_weight(params, v.distance(pos[i], pos[par]), par)
        # the tie pass: a node's energy is its hop plus its parent's, bit
        # for bit, in hop_weight's order
        assert consumption[i] == hop + consumption[par]
        if par != v.SINK:
            assert scenario.energy[par] >= th
        # parent chain terminates at the sink without a cycle
        chain = [i]
        while chain[-1] != v.SINK:
            chain.append(parent[chain[-1]])
            assert len(chain) <= len(scenario.xy) + 1


# ---------------------------------------------------------------- build

def test_single_node_routes_directly():
    sc = scenario_from([(100, 110)], range_m=12)
    graph, state = graph_and_state(sc)
    edges, dist = v.build_mmevbt(graph, state, RADIO, TH)
    assert graph.nbrs[edges].tolist() == [1]  # the sink is vertex n
    assert dist[0] == pytest.approx(2.4576e-4, rel=1e-12)
    assert dist[1] == 0.0
    parent, consumption = tree_dicts(graph, (edges, dist))
    assert parent == {0: v.SINK}
    assert consumption == {v.SINK: 0.0, 0: dist[0]}


def test_direct_beats_relay_at_square_path_loss():
    # A 20 m out, B on the segment 10 m from each endpoint
    sc = scenario_from([(100, 120), (100, 110)], range_m=25)
    graph, state = graph_and_state(sc)
    tree = v.build_mmevbt(graph, state, RADIO, TH)
    parent, consumption = tree_dicts(graph, tree)
    assert parent[0] == v.SINK
    assert consumption[0] == pytest.approx(3.6864e-4, rel=1e-12)
    assert len(tree_nodes(graph, tree)) == 0  # nobody relays


def test_relay_wins_when_direct_is_out_of_range():
    sc = scenario_from([(100, 110), (100, 120)], range_m=12)
    graph, state = graph_and_state(sc)
    tree = v.build_mmevbt(graph, state, RADIO, TH)
    parent, consumption = tree_dicts(graph, tree)
    assert parent[1] == 0
    assert consumption[1] == pytest.approx(6.9632e-4, rel=1e-12)
    assert tree_nodes(graph, tree) == {0}


def test_consumption_matches_bellman_ford_oracle():
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        sc = scenario_from(v.deploy_uniform(FIELD, 40, seed=seed), 45.0)
        oracle = bellman_ford_consumption(sc, RADIO, TH)
        try:
            parent, consumption = built(sc)
        except v.ConstructionFailed as err:
            assert err.unreachable == sorted(i for i in live_ids(sc)
                                             if math.isinf(oracle[i]))
            continue
        for i in live_ids(sc):
            assert consumption[i] == pytest.approx(oracle[i], rel=1e-9)
        assert_tree_invariants(parent, consumption, sc)
        checked += 1


def test_oracle_agreement_with_depleted_relays():
    rng = np.random.default_rng(99)
    for seed in range(10):
        xy = v.deploy_uniform(FIELD, 40, seed=200 + seed)
        energies = [float(rng.uniform(0.0, v.E_INIT)) for _ in range(40)]
        sc = scenario_from(xy, 50.0, energies=energies)
        oracle = bellman_ford_consumption(sc, RADIO, TH)
        try:
            _, consumption = built(sc)
        except v.ConstructionFailed as err:
            assert err.unreachable == sorted(i for i in live_ids(sc)
                                             if math.isinf(oracle[i]))
            continue
        for i in live_ids(sc):
            assert consumption[i] == pytest.approx(oracle[i], rel=1e-9)


def exact_tie_scenario():
    # Two 2-hop routes for node 2 with identical total cost. Radio constants
    # are powers of two so every partial sum is exact and the tie is bit-true.
    params = v.RadioParams(e_elec=2.0 ** -20, e_amp=2.0 ** -30, packet_bits=1024)
    sc = scenario_from([(110, 100), (100, 120), (110, 120)], range_m=21)
    return sc, params


def test_tie_breaks_to_smaller_parent_id():
    sc, params = exact_tie_scenario()
    parent, consumption = built(sc, params)
    pos = positions(sc)
    via_a = hop_weight(params, v.distance(pos[2], pos[0]), 0) + consumption[0]
    via_b = hop_weight(params, v.distance(pos[2], pos[1]), 1) + consumption[1]
    assert via_a == via_b  # guard: the tie really is exact
    assert parent[2] == 0


def test_construction_failed_lists_sorted_unreachable():
    sc = scenario_from([(95, 100), (0, 0), (0, 5)], range_m=10)
    with pytest.raises(v.ConstructionFailed) as err:
        v.build_mmevbt(*graph_and_state(sc), RADIO, TH)
    assert err.value.unreachable == [1, 2]


def test_below_threshold_node_cannot_relay():
    # chain sink - A - C where only A can reach the sink
    sc = scenario_from([(100, 110), (100, 120)], range_m=12, energies=[0.15, 2.0])
    with pytest.raises(v.ConstructionFailed) as err:
        v.build_mmevbt(*graph_and_state(sc), RADIO, TH)
    assert err.value.unreachable == [1]


def test_below_threshold_endpoint_may_still_originate():
    sc = scenario_from([(100, 110), (100, 120)], range_m=12, energies=[2.0, 0.15])
    parent, consumption = built(sc)
    assert parent[1] == 0
    assert consumption[1] == pytest.approx(6.9632e-4, rel=1e-12)


def test_failed_nodes_are_ignored_entirely():
    sc = scenario_from([(100, 110), (0, 0)], range_m=12, energies=[2.0, 0.0])
    # the dead corner node is not "unreachable"
    graph, state = graph_and_state(sc)
    edges, dist = v.build_mmevbt(graph, state, RADIO, TH)
    assert graph.edge_rows(edges).tolist() == [0]
    assert dist[1] == math.inf


@pytest.mark.parametrize("radio", [
    v.RadioParams(e_elec=math.nan),
    v.RadioParams(e_amp=-1e-10),
    v.RadioParams(e_elec=-5e-8),
    v.RadioParams(e_elec=0.0),
], ids=["nan", "negative e_amp", "negative e_elec", "zero"])
def test_build_rejects_a_radio_that_fails_validate(radio):
    # a negative hop cost never lets the relaxation's frontier empty
    sc = scenario_from([(100, 110), (100, 120), (110, 110)], range_m=12)
    with pytest.raises(ValueError, match="radio parameters"):
        v.build_mmevbt(*graph_and_state(sc), radio, TH)


EXACT_RADIO = v.RadioParams(e_elec=2.0 ** -20, e_amp=2.0 ** -30,
                            packet_bits=1024)


@st.composite
def spt_cases(draw):
    """A layout after random drains and deaths, with th above and below
    the energies, a few sink moves and nodes stacked on one spot. On a
    10 m lattice the power-of-two radio makes exact cost ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())

    def spots(k):
        if lattice:
            return (10.0 * rng.integers(0, 11, (k, 2))).tolist()
        return rng.uniform(0.0, 100.0, (k, 2)).tolist()

    pts = spots(draw(st.integers(1, 80)))
    pts += [pts[i] for i in rng.integers(0, len(pts), draw(st.integers(0, 6)))]
    th = draw(st.sampled_from([0.0, 0.05, v.DEFAULT_TH, 1.0, 3.0]))
    e_fail = v.DEFAULT_E_FAIL
    energy = rng.uniform(0.0, v.E_INIT, len(pts))
    drained = rng.random(len(pts)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    energy[drained] = rng.choice([0.0, e_fail, th, v.E_INIT], drained.sum())
    live = [v.classify_status(e, 0, th, e_fail) is not v.NodeStatus.FAILED
            for e in energy.tolist()]
    field = v.Field(100.0, 100.0, *spots(1)[0])
    range_m = draw(st.sampled_from([15.0, 22.5, 35.0, 60.0, 150.0]))
    moves = [tuple(p) for p in spots(draw(st.integers(0, 3)))]
    radio = EXACT_RADIO if lattice else RADIO
    sc = scenario_from(pts, range_m, energy, field, live)
    return sc, moves, radio, th, e_fail


def float_bits(values):
    return {k: float.hex(x) for k, x in values.items()}


@settings(max_examples=300)
@given(spt_cases())
@example((scenario_from([(110, 100), (100, 120), (110, 120)], 21.0), [],
          EXACT_RADIO, TH, v.DEFAULT_E_FAIL))
def test_array_spt_equals_heap_dijkstra(case):
    """The frontier relaxation and its tie pass give the heap Dijkstra's
    tree to the bit: consumption, parents and the unreachable ids, on a
    graph whose sink moved in place; neither build writes a scenario."""
    sc, moves, radio, th, _ = case
    ref = copy_scenario(sc)
    graph = v.build_reachability(sc.points(), sc.sensing_range)
    for pos in moves:
        ref.field = v.Field(ref.field.width, ref.field.height, *pos)
        graph.move_sink(pos)

    def attempt(build, *inputs):
        try:
            return build(*inputs, radio, th)
        except v.ConstructionFailed as err:
            return err.unreachable

    tree = attempt(v.build_mmevbt, graph, sc.state())
    expect = attempt(reference_mmevbt, ref)
    for name in ("xy", "energy", "live"):
        assert getattr(ref, name).tolist() == getattr(sc, name).tolist()
    if isinstance(expect, list):
        assert tree == expect
        return
    parent, consumption = tree_dicts(graph, tree)
    assert parent == expect[0]
    assert float_bits(consumption) == float_bits(expect[1])
    # every vertex off the tree is inf: the dead nodes
    edges, dist = tree
    off = np.ones(len(dist), dtype=bool)
    off[graph.edge_rows(edges)] = False
    off[-1] = False
    assert np.isinf(dist[off]).all() and not sc.live[off[:-1]].any()


# ---------------------------------------------------------------- maintenance

def test_maintain_without_changes_reproduces_tree():
    sc = scenario_from(v.deploy_uniform(FIELD, 40, seed=4), 45.0)
    t1 = v.build_mmevbt(*graph_and_state(sc), RADIO, TH)
    t2 = v.build_mmevbt(*graph_and_state(sc), RADIO, TH)
    assert t1[0].tolist() == t2[0].tolist()
    assert t1[1].tolist() == t2[1].tolist()


def test_maintain_equals_fresh_build_after_random_drains():
    rng = np.random.default_rng(8)
    done = 0
    seed = 0
    while done < 5:
        seed += 1
        sc = scenario_from(v.deploy_uniform(FIELD, 50, seed=seed), 45.0)
        try:
            v.build_mmevbt(*graph_and_state(sc), RADIO, TH)
        except v.ConstructionFailed:
            continue
        for i in range(len(sc.xy)):
            if rng.random() < 0.3:
                sc.energy[i] = float(rng.uniform(0.0, v.E_INIT))
        try:
            maintained = built(sc)
        except v.ConstructionFailed:
            continue
        fresh = built(sc)
        assert maintained == fresh
        drained = np.flatnonzero(sc.energy < TH).tolist()
        for i, par in maintained[0].items():
            assert par not in drained
        assert_tree_invariants(*maintained, sc)
        done += 1


# ---------------------------------------------------------------- relocation

def test_relocation_fixed_point_with_uniform_energy():
    coords = [(50, 50), (150, 50), (50, 150), (150, 150)]
    sc = scenario_from(coords, range_m=90, field=v.Field(200, 200, 50, 50))
    assert relocate(sc, grid=2) == (50.0, 50.0)


def test_relocation_targets_richest_cell_centroid():
    sc = scenario_from([(20, 20), (80, 80)], 120.0, energies=[0.5, 2.0],
                       field=v.Field(100, 100, 25, 75))
    assert relocate(sc, grid=2) == (75.0, 75.0)


def test_relocation_bounded_step_moves_along_the_line():
    sc = scenario_from([(20, 20), (80, 80)], 120.0, energies=[0.5, 2.0],
                       field=v.Field(100, 100, 25, 75))
    # target (75, 75) is 50 m away from (25, 75); a 10 m step lands at (35, 75)
    x, y = relocate(sc, grid=2, max_step=10.0)
    assert (x, y) == pytest.approx((35.0, 75.0), abs=1e-12)


def test_relocation_ignores_failed_nodes():
    sc = scenario_from([(20, 20), (80, 80)], 120.0, energies=[0.5, 0.0],
                       field=v.Field(100, 100, 25, 75), live=[True, False])
    assert relocate(sc, grid=2) == (25.0, 25.0)


def test_relocation_picks_maximal_mean_cell_on_random_instances():
    rng = np.random.default_rng(4)
    for seed in range(5):
        xy = v.deploy_uniform(FIELD, 60, seed=400 + seed)
        energies = [float(rng.uniform(0.05, v.E_INIT)) for _ in range(60)]
        sc = scenario_from(xy, 40.0, energies=energies)
        tx, ty = relocate(sc, grid=4)
        # independent recomputation of per-cell means
        cells = {}
        for (x, y), e in zip(xy.tolist(), energies):
            col = min(int(x / 50.0), 3)
            row = min(int(y / 50.0), 3)
            cells.setdefault((row, col), []).append(e)
        means = {k: sum(es) / len(es) for k, es in cells.items()}
        chosen = (min(int(ty / 50.0), 3), min(int(tx / 50.0), 3))
        assert means[chosen] == max(means.values())
        assert tx == 50.0 * chosen[1] + 25.0 and ty == 50.0 * chosen[0] + 25.0


@st.composite
def relocation_cases(draw):
    """Layouts with failed nodes, shared cells, border coordinates and
    grids from 1 to 2**62 cells a side."""
    width = draw(st.sampled_from([1.0, 100.0, 250.0]))
    height = draw(st.sampled_from([1.0, 80.0, 200.0]))
    coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))
    energy = st.one_of(st.floats(0.0, v.E_INIT),
                       st.sampled_from([0.0, 0.5, 1.0]))
    xy, energies, live = [], [], []
    for _ in range(draw(st.integers(1, 30))):
        fx, fy, e = draw(coord), draw(coord), draw(energy)
        status = draw(st.sampled_from(list(v.NodeStatus)))
        xy.append((fx * width, fy * height))
        energies.append(e)
        live.append(status is not v.NodeStatus.FAILED)
    live[0] |= not any(live)
    field = v.Field(width, height, draw(coord) * width, draw(coord) * height)
    grid = draw(st.sampled_from([1, 2, 3, 4, 7, 10**6, 2**62]))
    max_step = draw(st.sampled_from([None, 0.0, 5.0, 1e9]))
    return scenario_from(xy, 10.0, energies, field, live), grid, max_step


@given(relocation_cases())
def test_relocation_equals_reference_loop(case):
    sc, grid, max_step = case
    assert relocate(sc, grid, max_step) == \
        reference_relocate_sink(sc, grid, max_step)


def test_relocation_exact_tie_goes_to_smaller_cell_index():
    # cell 2 (row 1, col 0) comes first in node order; cell 1 (row 0,
    # col 1) averages 0.5 and 1.5 to exactly the same 1.0
    sc = scenario_from([(20, 80), (80, 20), (70, 30), (20, 20)], 10.0,
                       energies=[1.0, 0.5, 1.5, 0.25],
                       field=v.Field(100, 100, 50, 50))
    assert relocate(sc, grid=2) == (75.0, 25.0)
    assert reference_relocate_sink(sc, grid=2) == (75.0, 25.0)


def test_relocation_with_a_million_cells_a_side():
    xy = v.deploy_uniform(FIELD, 300, seed=5)
    rng = np.random.default_rng(5)
    energies = [float(rng.uniform(0.0, v.E_INIT)) for _ in range(300)]
    xy[7] = xy[3]  # one shared cell
    sc = scenario_from(xy, 10.0, energies=energies, live=[True] * 300)
    assert relocate(sc, grid=10**6) == \
        reference_relocate_sink(sc, grid=10**6)


def test_relocation_sums_each_cell_as_a_left_fold():
    # cell 1 holds 1.0 then fifteen 2**-53: added from the left each one
    # rounds away, so its mean is exactly 1/16 and ties cell 0's single
    # node; a pairwise or compensated sum would keep them and win cell 1
    energies = [1.0] + [2.0 ** -53] * 15 + [1.0 / 16]
    sc = scenario_from([(80, 20)] * 16 + [(20, 20)], 10.0, energies=energies,
                       field=v.Field(100, 100, 50, 50), live=[True] * 17)
    assert relocate(sc, grid=2) == (25.0, 25.0)
    assert reference_relocate_sink(sc, grid=2) == (25.0, 25.0)
