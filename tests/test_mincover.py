"""Greedy tree-node cover: seeding, iteration order, failure detection."""

import pytest
from hypothesis import given, strategies as st

import vbtsim as v
from oracles import min_connected_cover_size

TH = v.DEFAULT_TH


def scenario_from(coords, range_m, energies=None):
    field = v.Field(200, 200, 100, 100)
    nodes = []
    for i, (x, y) in enumerate(coords):
        e = v.E_INIT if energies is None else energies[i]
        nodes.append(v.Node(id=i, x=x, y=y, energy=e,
                            status=v.classify_status(e, 0, TH, v.DEFAULT_E_FAIL)))
    return v.Scenario(field, nodes, range_m, 0)


def replay_greedy(scenario, th):
    """Independent from-scratch replay of the selection loop (no incremental
    bookkeeping); used as a determinism oracle for build_min_cover.

    Returns (tree ids, []) on success and (None, still-uncovered ids) when
    no eligible pick makes progress."""
    g = v.build_reachability(scenario)
    live = [n.id for n in scenario.nodes if n.status is not v.NodeStatus.FAILED]
    live_set = set(live)
    adj = {i: [u for u in g.neighbors(i) if u != v.SINK and u in live_set] for i in live}
    covered = {i: 0 for i in live}
    if not live:
        return set(), []
    seed = max(live, key=lambda i: (len(adj[i]), -i))
    covered[seed] = 2
    for u in adj[seed]:
        if covered[u] == 0:
            covered[u] = 1
    while any(c == 0 for c in covered.values()):
        best, best_wd = None, -1
        for i in sorted(covered):
            if covered[i] == 1 and scenario.node(i).energy >= th:
                wd = sum(1 for u in adj[i] if covered[u] == 0)
                if wd > best_wd:
                    best, best_wd = i, wd
        if best is None or best_wd <= 0:
            return None, sorted(i for i, c in covered.items() if c == 0)
        covered[best] = 2
        for u in adj[best]:
            if covered[u] == 0:
                covered[u] = 1
    return {i for i, c in covered.items() if c == 2}, []


def test_collinear_triple_covered_by_middle_node():
    sc = scenario_from([(100, 60), (100, 70), (100, 80)], range_m=10)
    tree, state = v.build_min_cover(sc, TH)
    assert tree == {1}
    assert state.covered == {0: 1, 1: 2, 2: 1}


def test_single_isolated_node_seeds_itself():
    sc = scenario_from([(100, 95)], range_m=10)
    tree, state = v.build_min_cover(sc, TH)
    assert tree == {0}
    assert state.covered == {0: 2}


def test_seed_eligibility_is_unconditioned_on_energy():
    # the highest-degree hub seeds the cover even below the relay threshold
    coords = [(100, 50), (90, 50), (110, 50), (100, 40), (100, 60)]
    energies = [0.15, 2.0, 2.0, 2.0, 2.0]
    sc = scenario_from(coords, range_m=10, energies=energies)
    tree, state = v.build_min_cover(sc, TH)
    assert tree == {0}
    assert state.covered[0] == 2


def test_later_picks_respect_energy_threshold():
    # chain 0-1-2-3-4; node 2 is the only bridge but sits below Th
    coords = [(100, 20), (100, 30), (100, 40), (100, 50), (100, 60)]
    energies = [2.0, 2.0, 0.15, 2.0, 2.0]
    sc = scenario_from(coords, range_m=10, energies=energies)
    with pytest.raises(v.ConstructionFailed):
        v.build_min_cover(sc, TH)


def test_cover_failure_lists_uncovered_nodes():
    coords = [(100, 60), (100, 70), (20, 20), (20, 30)]
    sc = scenario_from(coords, range_m=10)
    with pytest.raises(v.ConstructionFailed) as err:
        v.build_min_cover(sc, TH)
    assert err.value.unreachable == [2, 3]


def test_greedy_never_beats_exhaustive_minimum():
    field = v.Field(200, 200, 100, 100)
    done = 0
    seed = 0
    while done < 10:
        seed += 1
        nodes = v.deploy_uniform(field, 12, seed=seed)
        sc = v.Scenario(field, nodes, 70.0, seed)
        g = v.build_reachability(sc)
        try:
            tree, state = v.build_min_cover(sc, TH, graph=g)
        except v.ConstructionFailed:
            continue
        best = min_connected_cover_size(sc, g)
        assert best is not None
        assert len(tree) >= best
        done += 1


def test_coverage_completeness_on_success():
    field = v.Field(200, 200, 100, 100)
    done = 0
    seed = 100
    while done < 8:
        seed += 1
        nodes = v.deploy_uniform(field, 60, seed=seed)
        sc = v.Scenario(field, nodes, 40.0, seed)
        g = v.build_reachability(sc)
        try:
            tree, state = v.build_min_cover(sc, TH, graph=g)
        except v.ConstructionFailed:
            continue
        assert set(state.covered.values()) <= {1, 2}
        for i, c in state.covered.items():
            if c == 1:
                assert any(state.covered.get(u) == 2
                           for u in g.neighbors(i) if u != v.SINK)
        assert {i for i, c in state.covered.items() if c == 2} == tree
        done += 1


def test_matches_independent_replay():
    field = v.Field(200, 200, 100, 100)
    done = 0
    seed = 300
    while done < 10:
        seed += 1
        nodes = v.deploy_uniform(field, 50, seed=seed)
        for k, n in enumerate(nodes):
            if k % 7 == 0:
                n.energy = 0.15
                n.status = v.classify_status(n.energy, 0, TH, v.DEFAULT_E_FAIL)
        sc = v.Scenario(field, nodes, 45.0, seed)
        expect, _ = replay_greedy(sc, TH)
        try:
            tree, _ = v.build_min_cover(sc, TH)
        except v.ConstructionFailed:
            assert expect is None
            continue
        assert tree == expect
        done += 1


ENERGY_KINDS = {"full": v.E_INIT, "low": 0.15, "failed": 0.0}


@given(st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(sorted(ENERGY_KINDS)), min_size=1,
                max_size=80),
       st.floats(min_value=10.0, max_value=90.0))
def test_lazy_greedy_equals_full_rescore(seed, kinds, range_m):
    # nodes below th are coverable but never promoted past the seed;
    # failed nodes drop out of the graph altogether
    field = v.Field(200, 200, 100, 100)
    nodes = v.deploy_uniform(field, len(kinds), seed=seed)
    for n, kind in zip(nodes, kinds):
        n.energy = ENERGY_KINDS[kind]
        n.status = v.classify_status(n.energy, 0, TH, v.DEFAULT_E_FAIL)
    sc = v.Scenario(field, nodes, range_m, seed)
    expect_tree, expect_unreachable = replay_greedy(sc, TH)
    try:
        tree, state = v.build_min_cover(sc, TH)
    except v.ConstructionFailed as err:
        assert expect_tree is None
        assert err.unreachable == expect_unreachable
        return
    assert tree == expect_tree
    assert {i for i, c in state.covered.items() if c == 2} == tree


def test_determinism():
    field = v.Field(200, 200, 100, 100)
    nodes = v.deploy_uniform(field, 80, seed=9)
    sc = v.Scenario(field, nodes, 35.0, 9)
    try:
        t1, s1 = v.build_min_cover(sc, TH)
        t2, s2 = v.build_min_cover(sc, TH)
    except v.ConstructionFailed:
        pytest.skip("seed 9 not coverable at this range")
    assert t1 == t2 and s1.covered == s2.covered


def test_degree_tie_prefers_smaller_id():
    # path 0-1-2-3 at exact spacing: nodes 1 and 2 tie on degree 2,
    # so 1 seeds; covering node 3 then forces picking 2
    coords = [(100, 30), (100, 40), (100, 50), (100, 60)]
    sc = scenario_from(coords, range_m=10)
    tree, state = v.build_min_cover(sc, TH)
    assert tree == {1, 2}
    assert state.covered == {0: 1, 1: 2, 2: 2, 3: 1}
