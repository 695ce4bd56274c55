"""Minimal-energy backbone: construction, maintenance, sink relocation."""

import math

import pytest

import vbtsim as v
from oracles import bellman_ford_consumption

RADIO = v.RadioParams()
TH = v.DEFAULT_TH


def scenario_from(coords, range_m, energies=None, field=None):
    field = field or v.Field(200, 200, 100, 100)
    nodes = []
    for i, (x, y) in enumerate(coords):
        e = v.E_INIT if energies is None else energies[i]
        nodes.append(v.Node(id=i, x=x, y=y, energy=e,
                            status=v.classify_status(e, 0, TH, v.DEFAULT_E_FAIL)))
    return v.Scenario(field, nodes, range_m, 0)


def assert_tree_invariants(tree, scenario, params=RADIO, th=TH):
    pos = scenario.positions()
    for i, par in tree.parent.items():
        hop = v.hop_weight(params, v.distance(pos[i], pos[par]), par)
        parent_cons = tree.consumption[par]
        assert tree.consumption[i] == pytest.approx(hop + parent_cons, rel=1e-12)
        if par != v.SINK:
            assert scenario.node(par).energy >= th
            assert scenario.node(par).status is v.NodeStatus.TREE
        # parent chain terminates at the sink
        assert tree.route(i)[-1] == v.SINK
    for n in scenario.nodes:
        if n.status is v.NodeStatus.FAILED:
            continue
        expect = v.classify_status(n.energy, tree.children_count.get(n.id, 0),
                                   th, v.DEFAULT_E_FAIL)
        assert n.status is expect


# ---------------------------------------------------------------- build

def test_single_node_routes_directly():
    sc = scenario_from([(100, 110)], range_m=12)
    tree = v.build_mmevbt(sc, RADIO, TH)
    assert tree.parent[0] == v.SINK
    assert tree.consumption[0] == pytest.approx(2.4576e-4, rel=1e-12)
    assert tree.consumption[v.SINK] == 0.0
    assert tree.route(0) == [0, v.SINK]


def test_direct_beats_relay_at_square_path_loss():
    # A 20 m out, B on the segment 10 m from each endpoint
    sc = scenario_from([(100, 120), (100, 110)], range_m=25)
    tree = v.build_mmevbt(sc, RADIO, TH)
    assert tree.parent[0] == v.SINK
    assert tree.consumption[0] == pytest.approx(3.6864e-4, rel=1e-12)
    assert len(tree.tree_nodes()) == 0  # nobody relays


def test_relay_wins_when_direct_is_out_of_range():
    sc = scenario_from([(100, 110), (100, 120)], range_m=12)
    tree = v.build_mmevbt(sc, RADIO, TH)
    assert tree.parent[1] == 0
    assert tree.consumption[1] == pytest.approx(6.9632e-4, rel=1e-12)
    assert tree.tree_nodes() == {0}


def test_consumption_matches_bellman_ford_oracle():
    field = v.Field(200, 200, 100, 100)
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        nodes = v.deploy_uniform(field, 40, seed=seed)
        sc = v.Scenario(field, nodes, 45.0, seed)
        oracle = bellman_ford_consumption(sc, RADIO, TH)
        try:
            tree = v.build_mmevbt(sc, RADIO, TH)
        except v.ConstructionFailed as err:
            assert err.unreachable == sorted(i for i in sc.live_ids()
                                             if math.isinf(oracle[i]))
            continue
        for i in sc.live_ids():
            assert tree.consumption[i] == pytest.approx(oracle[i], rel=1e-9)
        assert_tree_invariants(tree, sc)
        checked += 1


def test_oracle_agreement_with_depleted_relays():
    field = v.Field(200, 200, 100, 100)
    import numpy as np
    rng = np.random.default_rng(99)
    for seed in range(10):
        nodes = v.deploy_uniform(field, 40, seed=200 + seed)
        for n in nodes:
            n.energy = float(rng.uniform(0.0, v.E_INIT))
            n.status = v.classify_status(n.energy, 0, TH, v.DEFAULT_E_FAIL)
        sc = v.Scenario(field, nodes, 50.0, seed)
        oracle = bellman_ford_consumption(sc, RADIO, TH)
        try:
            tree = v.build_mmevbt(sc, RADIO, TH)
        except v.ConstructionFailed as err:
            assert err.unreachable == sorted(i for i in sc.live_ids()
                                             if math.isinf(oracle[i]))
            continue
        for i in sc.live_ids():
            assert tree.consumption[i] == pytest.approx(oracle[i], rel=1e-9)


def exact_tie_scenario():
    # Two 2-hop routes for node 2 with identical total cost. Radio constants
    # are powers of two so every partial sum is exact and the tie is bit-true.
    params = v.RadioParams(e_elec=2.0 ** -20, e_amp=2.0 ** -30, packet_bits=1024)
    sc = scenario_from([(110, 100), (100, 120), (110, 120)], range_m=21)
    return sc, params


def test_tie_breaks_to_smaller_parent_id():
    sc, params = exact_tie_scenario()
    tree = v.build_mmevbt(sc, params, TH)
    pos = sc.positions()
    via_a = v.hop_weight(params, v.distance(pos[2], pos[0]), 0) + tree.consumption[0]
    via_b = v.hop_weight(params, v.distance(pos[2], pos[1]), 1) + tree.consumption[1]
    assert via_a == via_b  # guard: the tie really is exact
    assert tree.parent[2] == 0


def test_construction_failed_lists_sorted_unreachable():
    sc = scenario_from([(95, 100), (0, 0), (0, 5)], range_m=10)
    with pytest.raises(v.ConstructionFailed) as err:
        v.build_mmevbt(sc, RADIO, TH)
    assert err.value.unreachable == [1, 2]


def test_below_threshold_node_cannot_relay():
    # chain sink - A - C where only A can reach the sink
    sc = scenario_from([(100, 110), (100, 120)], range_m=12, energies=[0.15, 2.0])
    with pytest.raises(v.ConstructionFailed) as err:
        v.build_mmevbt(sc, RADIO, TH)
    assert err.value.unreachable == [1]


def test_below_threshold_endpoint_may_still_originate():
    sc = scenario_from([(100, 110), (100, 120)], range_m=12, energies=[2.0, 0.15])
    tree = v.build_mmevbt(sc, RADIO, TH)
    assert tree.parent[1] == 0
    assert tree.consumption[1] == pytest.approx(6.9632e-4, rel=1e-12)


def test_failed_nodes_are_ignored_entirely():
    sc = scenario_from([(100, 110), (0, 0)], range_m=12, energies=[2.0, 0.0])
    tree = v.build_mmevbt(sc, RADIO, TH)  # the dead corner node is not "unreachable"
    assert 1 not in tree.parent


# ---------------------------------------------------------------- reparenting

def test_reparent_is_fixed_point_on_fresh_tree():
    field = v.Field(200, 200, 100, 100)
    nodes = v.deploy_uniform(field, 30, seed=7)
    sc = v.Scenario(field, nodes, 50.0, 7)
    g = v.build_reachability(sc)
    tree = v.build_mmevbt(sc, RADIO, TH, graph=g)
    before = (dict(tree.parent), dict(tree.consumption))
    for i in sc.live_ids():
        rep = v.reparent_if_better(tree, i, g, sc, RADIO, TH)
        assert not rep.changed and not rep.unreachable
    assert (tree.parent, tree.consumption) == before


def test_reparent_tie_preference_demotes_childless_old_parent():
    sc, params = exact_tie_scenario()
    g = v.build_reachability(sc)
    # hand-assemble the equal-cost tree that routes 2 via 1 instead of 0
    tx, rx = v.tx_cost, v.rx_cost
    cons = {v.SINK: 0.0, 0: tx(params, 10.0), 1: tx(params, 20.0)}
    cons[2] = tx(params, 10.0) + rx(params) + cons[1]
    tree = v.BackboneTree(parent={0: v.SINK, 1: v.SINK, 2: 1},
                          consumption=cons,
                          children_count={0: 0, 1: 1, 2: 0})
    sc.node(1).status = v.NodeStatus.TREE
    rep = v.reparent_if_better(tree, 2, g, sc, params, TH)
    assert rep.changed and rep.new_parent == 0 and rep.demoted == 1
    assert rep.new_consumption == rep.old_consumption  # equal-cost switch
    assert tree.parent[2] == 0
    assert sc.node(1).status is v.NodeStatus.CANDIDATE_NON_TREE
    assert sc.node(0).status is v.NodeStatus.TREE


def test_reparent_after_relay_drain_matches_oracle():
    # node 2 reaches the sink via 0 or 1; drain its current parent below Th
    sc = scenario_from([(100, 112), (112, 100), (110, 110)], range_m=13)
    g = v.build_reachability(sc)
    tree = v.build_mmevbt(sc, RADIO, TH, graph=g)
    old_parent = tree.parent[2]
    other = 1 - old_parent
    sc.node(old_parent).energy = 0.05
    sc.node(old_parent).status = v.classify_status(0.05, 1, TH, v.DEFAULT_E_FAIL)
    rep = v.reparent_if_better(tree, 2, g, sc, RADIO, TH)
    assert rep.changed and rep.new_parent == other
    oracle = bellman_ford_consumption(sc, RADIO, TH)
    assert tree.consumption[2] == pytest.approx(oracle[2], rel=1e-9)


def test_reparent_reports_unreachable_without_touching_tree():
    sc = scenario_from([(100, 110), (100, 120)], range_m=12)
    g = v.build_reachability(sc)
    tree = v.build_mmevbt(sc, RADIO, TH, graph=g)
    sc.node(0).energy = 0.05
    sc.node(0).status = v.classify_status(0.05, 1, TH, v.DEFAULT_E_FAIL)
    before = dict(tree.parent)
    rep = v.reparent_if_better(tree, 1, g, sc, RADIO, TH)
    assert rep.unreachable and not rep.changed
    assert tree.parent == before


# ---------------------------------------------------------------- maintenance

def test_maintain_without_changes_reproduces_tree():
    field = v.Field(200, 200, 100, 100)
    nodes = v.deploy_uniform(field, 40, seed=4)
    sc = v.Scenario(field, nodes, 45.0, 4)
    t1 = v.build_mmevbt(sc, RADIO, TH)
    t2 = v.build_mmevbt(sc, RADIO, TH)
    assert t1.parent == t2.parent
    assert t1.consumption == t2.consumption
    assert t1.children_count == t2.children_count


def test_maintain_equals_fresh_build_after_random_drains():
    import numpy as np
    field = v.Field(200, 200, 100, 100)
    rng = np.random.default_rng(8)
    done = 0
    seed = 0
    while done < 5:
        seed += 1
        nodes = v.deploy_uniform(field, 50, seed=seed)
        sc = v.Scenario(field, nodes, 45.0, seed)
        try:
            tree = v.build_mmevbt(sc, RADIO, TH)
        except v.ConstructionFailed:
            continue
        for n in sc.nodes:
            if rng.random() < 0.3:
                n.energy = float(rng.uniform(0.0, v.E_INIT))
        try:
            maintained = v.build_mmevbt(sc, RADIO, TH)
        except v.ConstructionFailed:
            continue
        fresh = v.build_mmevbt(sc, RADIO, TH)
        assert maintained.parent == fresh.parent
        assert maintained.consumption == fresh.consumption
        drained = [n.id for n in sc.nodes if n.energy < TH]
        for i, par in maintained.parent.items():
            assert par not in drained
        assert_tree_invariants(maintained, sc)
        done += 1


# ---------------------------------------------------------------- relocation

def test_relocation_fixed_point_with_uniform_energy():
    field = v.Field(200, 200, 100, 100)
    coords = [(50, 50), (150, 50), (50, 150), (150, 150)]
    sc = scenario_from(coords, range_m=90, field=v.Field(200, 200, 50, 50))
    assert v.relocate_sink(sc, grid=2) == (50.0, 50.0)


def test_relocation_targets_richest_cell_centroid():
    field = v.Field(100, 100, 25, 75)
    nodes = [
        v.Node(0, 20, 20, 0.5, v.NodeStatus.CANDIDATE_NON_TREE),
        v.Node(1, 80, 80, 2.0, v.NodeStatus.CANDIDATE_NON_TREE),
    ]
    sc = v.Scenario(field, nodes, 120.0, 0)
    assert v.relocate_sink(sc, grid=2) == (75.0, 75.0)


def test_relocation_bounded_step_moves_along_the_line():
    field = v.Field(100, 100, 25, 75)
    nodes = [
        v.Node(0, 20, 20, 0.5, v.NodeStatus.CANDIDATE_NON_TREE),
        v.Node(1, 80, 80, 2.0, v.NodeStatus.CANDIDATE_NON_TREE),
    ]
    sc = v.Scenario(field, nodes, 120.0, 0)
    # target (75, 75) is 50 m away from (25, 75); a 10 m step lands at (35, 75)
    x, y = v.relocate_sink(sc, grid=2, max_step=10.0)
    assert (x, y) == pytest.approx((35.0, 75.0), abs=1e-12)


def test_relocation_ignores_failed_nodes():
    field = v.Field(100, 100, 25, 75)
    nodes = [
        v.Node(0, 20, 20, 0.5, v.NodeStatus.CANDIDATE_NON_TREE),
        v.Node(1, 80, 80, 0.0, v.NodeStatus.FAILED),
    ]
    sc = v.Scenario(field, nodes, 120.0, 0)
    assert v.relocate_sink(sc, grid=2) == (25.0, 25.0)


def test_relocation_picks_maximal_mean_cell_on_random_instances():
    import numpy as np
    field = v.Field(200, 200, 100, 100)
    rng = np.random.default_rng(4)
    for seed in range(5):
        nodes = v.deploy_uniform(field, 60, seed=400 + seed)
        for n in nodes:
            n.energy = float(rng.uniform(0.05, v.E_INIT))
        sc = v.Scenario(field, nodes, 40.0, seed)
        tx, ty = v.relocate_sink(sc, grid=4)
        # independent recomputation of per-cell means
        cells = {}
        for n in nodes:
            col = min(int(n.x / 50.0), 3)
            row = min(int(n.y / 50.0), 3)
            cells.setdefault((row, col), []).append(n.energy)
        means = {k: sum(es) / len(es) for k, es in cells.items()}
        chosen = (min(int(ty / 50.0), 3), min(int(tx / 50.0), 3))
        assert means[chosen] == max(means.values())
        assert tx == 50.0 * chosen[1] + 25.0 and ty == 50.0 * chosen[0] + 25.0
