"""Greedy tree-node cover: seeding, iteration order, failure detection."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import vbtsim as v
from oracles import (
    cover_map,
    graph_and_state,
    min_connected_cover_size,
    neighbors,
    reference_min_cover,
    routed,
    scenario_from,
)
from vbtsim.mincover import cover_holds

TH = v.DEFAULT_TH
FIELD = v.Field(200, 200, 100, 100)  # scenario_from's default


def test_collinear_triple_covered_by_middle_node():
    sc = scenario_from([(100, 60), (100, 70), (100, 80)], range_m=10)
    graph, state = graph_and_state(sc)
    tree = routed(v.build_min_cover(graph, state, TH))
    assert tree.tolist() == [1]
    assert cover_map(graph, state, tree) == {0: 1, 1: 2, 2: 1}


def test_single_isolated_node_seeds_itself():
    sc = scenario_from([(100, 95)], range_m=10)
    graph, state = graph_and_state(sc)
    tree = routed(v.build_min_cover(graph, state, TH))
    assert tree.tolist() == [0]
    assert cover_map(graph, state, tree) == {0: 2}


def test_seed_eligibility_is_unconditioned_on_energy():
    # the highest-degree hub seeds the cover even below the relay threshold
    coords = [(100, 50), (90, 50), (110, 50), (100, 40), (100, 60)]
    energies = [0.15, 2.0, 2.0, 2.0, 2.0]
    sc = scenario_from(coords, range_m=10, energies=energies)
    graph, state = graph_and_state(sc)
    tree = routed(v.build_min_cover(graph, state, TH))
    assert tree.tolist() == [0]
    assert cover_map(graph, state, tree)[0] == 2


def test_later_picks_respect_energy_threshold():
    # chain 0-1-2-3-4; node 2 is the only bridge but sits below Th
    coords = [(100, 20), (100, 30), (100, 40), (100, 50), (100, 60)]
    energies = [2.0, 2.0, 0.15, 2.0, 2.0]
    sc = scenario_from(coords, range_m=10, energies=energies)
    tree, stranded = v.build_min_cover(*graph_and_state(sc), TH)
    assert stranded.tolist() == [3, 4] and tree.tolist() == [1]


def test_cover_failure_lists_uncovered_nodes():
    coords = [(100, 60), (100, 70), (20, 20), (20, 30)]
    sc = scenario_from(coords, range_m=10)
    stranded = v.build_min_cover(*graph_and_state(sc), TH)[1]
    assert stranded.tolist() == [2, 3]


def test_greedy_never_beats_exhaustive_minimum():
    done = 0
    seed = 0
    while done < 10:
        seed += 1
        sc = scenario_from(v.deploy_uniform(FIELD, 12, seed=seed), 70.0)
        g, state = graph_and_state(sc)
        try:
            tree = routed(v.build_min_cover(g, state, TH))
        except v.ConstructionFailed:
            continue
        best = min_connected_cover_size(sc, g)
        assert best is not None
        assert len(tree) >= best
        done += 1


def test_coverage_completeness_on_success():
    done = 0
    seed = 100
    while done < 8:
        seed += 1
        sc = scenario_from(v.deploy_uniform(FIELD, 60, seed=seed), 40.0)
        g, state = graph_and_state(sc)
        try:
            tree = routed(v.build_min_cover(g, state, TH))
        except v.ConstructionFailed:
            continue
        # every live node is a tree node or next to one
        covered = cover_map(g, state, tree)
        assert set(covered.values()) <= {1, 2}
        assert [i for i, c in covered.items() if c == 2] == sorted(
            tree.tolist())
        done += 1


def test_matches_independent_replay():
    done = 0
    seed = 300
    while done < 10:
        seed += 1
        energies = [0.15 if k % 7 == 0 else v.E_INIT for k in range(50)]
        sc = scenario_from(v.deploy_uniform(FIELD, 50, seed=seed), 45.0,
                           energies=energies)
        expect, _ = reference_min_cover(sc, TH)
        try:
            tree = routed(v.build_min_cover(*graph_and_state(sc), TH))
        except v.ConstructionFailed:
            assert expect is None
            continue
        assert tree.tolist() == expect
        done += 1


ENERGY_KINDS = {"full": v.E_INIT, "low": 0.15, "failed": 0.0}


def assert_equals_full_rescore(sc):
    """build_min_cover on sc makes reference_min_cover's picks in its
    order, or strands the same uncovered ids; either way its first pick
    is the seed: the live node with the most live neighbours, the smaller
    id on ties, whatever its energy."""
    expect_tree, expect_unreachable = reference_min_cover(sc, TH)
    graph, state = graph_and_state(sc)
    tree, stranded = v.build_min_cover(graph, state, TH)
    live = np.flatnonzero(state[1]).tolist()
    if live:
        seed = max(live, key=lambda i: (sum(
            u != v.SINK and bool(state[1][u]) for u in neighbors(graph, i)),
            -i))
        assert tree[0] == seed
    else:
        assert not tree.size
    assert stranded.tolist() == expect_unreachable
    if expect_tree is None:
        return
    assert tree.tolist() == expect_tree
    covered = cover_map(graph, state, tree)
    assert [i for i, c in covered.items() if c == 2] == sorted(tree.tolist())


@given(st.integers(0, 2**32 - 1), st.integers(20, 120),
       st.floats(min_value=6.0, max_value=12.0), st.data())
def test_lazy_greedy_equals_full_rescore(seed, n, degree, data):
    """20 to 120 nodes at a mean degree of 6 to 12 on the field, so that
    the greedy makes several picks. Nodes below th are coverable but
    never promoted past the seed; failed nodes drop out of the graph
    altogether."""
    area = FIELD.width * FIELD.height
    range_m = math.sqrt(degree * area / (math.pi * (n - 1)))
    # half the nodes full on average, a quarter low, a quarter failed
    kinds = data.draw(st.lists(
        st.sampled_from(["full", "full", "low", "failed"]),
        min_size=n, max_size=n))
    assert_equals_full_rescore(scenario_from(
        v.deploy_uniform(FIELD, n, seed=seed), range_m,
        energies=[ENERGY_KINDS[kind] for kind in kinds]))


@given(st.integers(1, 9), st.integers(1, 9),
       st.sampled_from([1.0, 1.5, 2.0, 2.5]), st.data())
@example(rows=3, cols=5, reach=1.0, data=None)
def test_lazy_greedy_equals_full_rescore_on_lattices(rows, cols, reach,
                                                     data):
    """A lattice at spacing 10 and range reach * 10 gives many nodes the
    same uncovered count, so most picks rest on the smaller-id rule. The
    ids are a drawn permutation of the lattice points, so ties reach ids
    0 and n - 1, and most nodes are full, some below th, some failed."""
    n = rows * cols
    points = [(15.0 + 10 * (k % cols), 15.0 + 10 * (k // cols))
              for k in range(n)]
    if data is None:  # row order, every node full
        order, kinds = range(n), ["full"] * n
    else:
        order = data.draw(st.permutations(range(n)))
        kinds = data.draw(st.lists(
            st.sampled_from(["full"] * 4 + ["low", "failed"]),
            min_size=n, max_size=n))
    sc = scenario_from([points[k] for k in order], range_m=10 * reach,
                       energies=[ENERGY_KINDS[k] for k in kinds])
    assert_equals_full_rescore(sc)


def test_determinism():
    sc = scenario_from(v.deploy_uniform(FIELD, 80, seed=9), 35.0)
    t1 = v.build_min_cover(*graph_and_state(sc), TH)
    t2 = v.build_min_cover(*graph_and_state(sc), TH)
    if t1[1].size:
        pytest.skip("seed 9 not coverable at this range")
    assert t1[0].tolist() == t2[0].tolist()
    assert t1[1].tolist() == t2[1].tolist()


def test_degree_tie_prefers_smaller_id():
    # path 0-1-2-3 at exact spacing: nodes 1 and 2 tie on degree 2,
    # so 1 seeds; covering node 3 then forces picking 2
    coords = [(100, 30), (100, 40), (100, 50), (100, 60)]
    sc = scenario_from(coords, range_m=10)
    graph, state = graph_and_state(sc)
    tree = routed(v.build_min_cover(graph, state, TH))
    assert tree.tolist() == [1, 2]
    assert cover_map(graph, state, tree) == {0: 1, 1: 2, 2: 2, 3: 1}


# what a drain does to its target: a seed flip, a later pick's flip, the
# flips of both the seed and a later pick, a non-pick's flip, a death, a
# node regaining th, or nothing beyond the drains that keep th
DRAIN_TARGETS = ["seed", "pick", "seed+pick", "other", "death", "rise",
                 "none"]
SMALL = v.Field(100, 100, 50, 50)  # dense enough that most layouts cover


@given(st.integers(0, 2**32 - 1), st.integers(2, 40),
       st.floats(min_value=30.0, max_value=70.0),
       st.sampled_from(DRAIN_TARGETS), st.integers(0, 2**16),
       st.lists(st.floats(0.0, 1.0), min_size=40, max_size=40),
       st.one_of(st.none(), st.tuples(st.floats(0.0, 100.0),
                                      st.floats(0.0, 100.0))))
@example(seed=2, n=30, range_m=35.0, target="seed", pick=0,
         fractions=[0.5] * 40, sink=(10.0, 90.0))
@example(seed=2, n=30, range_m=35.0, target="other", pick=3,
         fractions=[0.5] * 40, sink=None)
@example(seed=2, n=30, range_m=35.0, target="pick", pick=1,
         fractions=[0.5] * 40, sink=(60.0, 40.0))
@example(seed=2, n=30, range_m=35.0, target="rise", pick=0,
         fractions=[0.5, 0.5, 0.05] * 13 + [0.5], sink=None)
@example(seed=2, n=30, range_m=35.0, target="seed+pick", pick=1,
         fractions=[0.5] * 40, sink=None)
def test_a_kept_cover_equals_a_fresh_build(seed, n, range_m, target, pick,
                                           fractions, sink):
    """cover_holds accepts a cover after drains exactly when no later
    pick lost th, no node died and none regained th, with or without a
    sink move, and the cover it accepts is the fresh build's and the full
    re-score's, picks in order. A fraction below 0.1 starts its node
    below th."""
    energy = np.where(np.array(fractions[:n]) < 0.1, TH / 2, v.E_INIT)
    sc = scenario_from(v.deploy_uniform(SMALL, n, seed=seed), range_m,
                       energies=energy.tolist(), field=SMALL)
    graph, built = graph_and_state(sc)
    tree, stranded = v.build_min_cover(graph, built, TH)
    assume(not stranded.size)
    first = max(range(n), key=lambda i: (len(neighbors(graph, i)) - (
        v.SINK in neighbors(graph, i)), -i))  # every node is live
    assert tree[0] == first
    rich = set(np.flatnonzero(energy >= TH).tolist())
    later = sorted(tree[1:].tolist())
    pools = {"seed": [first] if first in rich else [], "pick": later,
             "seed+pick": later if first in rich else [],
             "other": sorted(rich - set(tree.tolist())),
             "death": list(range(n)), "rise": sorted(set(range(n)) - rich),
             "none": [None]}
    assume(pools[target])
    k = pools[target][pick % len(pools[target])]
    # every node that holds th drains, but keeps th unless it is the
    # target; the rest keep what they hold
    energy = np.where(energy >= TH,
                      TH + (v.E_INIT - TH) * np.array(fractions[:n]), energy)
    state = energy, built[1].copy()
    if k is not None:
        energy[k] = {"death": 0.0, "rise": v.E_INIT}.get(target, TH / 2)
        state[1][k] = target != "death"
    if target == "seed+pick":
        energy[first] = TH / 2
    field = SMALL
    if sink is not None:
        graph.move_sink(sink)
        field = v.Field(100, 100, *sink)
    holds = cover_holds(state, TH, tree, built)
    assert holds == (target not in ("pick", "seed+pick", "death", "rise"))
    if holds:
        fresh, stranded = v.build_min_cover(graph, state, TH)
        moved = v.Scenario(field, sc.xy, energy, range_m, 0)
        assert (fresh.tolist(), stranded.tolist()) == (tree.tolist(), [])
        assert reference_min_cover(moved, TH, state[1]) == (tree.tolist(),
                                                            [])
