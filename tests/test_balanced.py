"""Fitness scoring, selection probabilities, expected loads, exact min-max."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

import vbtsim as v
from oracles import (FitnessContext, ReferenceProblem, best_parent,
                     brute_force_min_max, candidate_dicts, deviation_angle,
                     expected_loads, fitness, graph_and_state, load_stats,
                     min_max_load_exact, realize_selections,
                     reference_forwarding_problem,
                     routed, scan_select_index, scenario_from)
from vbtsim.balanced import CandidateArrays

TH = v.DEFAULT_TH
FLOOR = v.SimPolicy().floor


class FixedRng:
    """Duck-typed rng returning a preset uniform draw."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def ctx_line(energy=v.E_INIT, cand_pos=(10.0, 0.0), i_pos=(20.0, 0.0), range_m=10.0):
    # candidate 0 forwards to the sink at the origin; node 1 sits behind it
    positions = {v.SINK: (0.0, 0.0), 0: cand_pos, 1: i_pos}
    energies = {v.SINK: v.E_INIT, 0: energy, 1: v.E_INIT}
    return FitnessContext(positions=positions, energies=energies,
                            next_hop={0: v.SINK}, range_m=range_m)


# ------------------------------------------------------------- deviation angle

def test_deviation_straight_line_clamps_to_minimum():
    ctx = ctx_line()
    assert deviation_angle(ctx, 1, 0) == v.BETA_MIN


def test_deviation_full_reversal_is_pi():
    ctx = ctx_line(i_pos=(0.0, 0.0))  # arriving from the sink's own position
    assert deviation_angle(ctx, 1, 0) == pytest.approx(math.pi, rel=1e-12)


def test_deviation_right_angle():
    ctx = ctx_line(i_pos=(10.0, 10.0))
    assert deviation_angle(ctx, 1, 0) == pytest.approx(math.pi / 2, rel=1e-12)


def test_deviation_sink_candidate_counts_as_straight():
    ctx = ctx_line()
    assert deviation_angle(ctx, 1, v.SINK) == v.BETA_MIN


# ------------------------------------------------------------------- fitness

def test_worst_candidate_scores_only_the_angle_floor():
    # distance = range, empty battery, full reversal
    ctx = ctx_line(energy=0.0, i_pos=(0.0, 0.0))
    params = v.FitnessParams()
    br = fitness(1, 0, ctx, params)
    assert br.f_d == pytest.approx(0.0, abs=1e-12)
    assert br.f_e == 0.0
    assert br.beta == pytest.approx(math.pi, rel=1e-12)
    assert br.total == pytest.approx(params.c3 * v.BETA_MIN / math.pi, rel=1e-9)


def test_perfect_candidate_scores_one():
    ctx = ctx_line(cand_pos=(20.0 - 1e-9, 0.0))
    br = fitness(1, 0, ctx, v.FitnessParams())
    assert br.total == pytest.approx(1.0, abs=1e-9)


def test_normalized_components_stay_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(50):
        i_pos = (float(rng.uniform(0, 30)), float(rng.uniform(0, 30)))
        c_pos = (float(rng.uniform(0, 30)), float(rng.uniform(0, 30)))
        if v.distance(i_pos, c_pos) > 30.0 or i_pos == c_pos:
            continue
        ctx = ctx_line(energy=float(rng.uniform(0, 3.0)), cand_pos=c_pos,
                       i_pos=i_pos, range_m=30.0)
        br = fitness(1, 0, ctx, v.FitnessParams())
        for part in (br.f_d, br.f_e, br.f_beta, br.total):
            assert -1e-12 <= part <= 1.0 + 1e-12


def test_raw_mode_uses_literal_terms():
    ctx = ctx_line(energy=0.7)
    params = v.FitnessParams(mode="raw")
    br = fitness(1, 0, ctx, params)
    assert br.f_d == pytest.approx(1.0 / 10.0, rel=1e-12)
    assert br.f_e == 0.7
    assert br.f_beta == pytest.approx(math.pi / v.BETA_MIN, rel=1e-12)
    expect = (br.f_d + br.f_e + br.f_beta) / 3.0
    assert br.total == pytest.approx(expect, rel=1e-12)


def test_raw_mode_rejects_zero_distance():
    ctx = ctx_line(cand_pos=(20.0, 0.0))
    with pytest.raises(ValueError):
        fitness(1, 0, ctx, v.FitnessParams(mode="raw"))


def test_sink_candidate_gets_full_battery_and_straight_angle():
    ctx = ctx_line(i_pos=(8.0, 0.0))
    params = v.FitnessParams()
    br = fitness(1, v.SINK, ctx, params)
    assert br.f_e == 1.0 and br.f_beta == 1.0
    assert br.f_d == pytest.approx(1.0 - 8.0 / 10.0, rel=1e-12)


def test_fitness_params_validation():
    with pytest.raises(ValueError):
        v.FitnessParams(c1=0.5, c2=0.5, c3=0.5).validate()
    with pytest.raises(ValueError):
        v.FitnessParams(c1=-0.2, c2=0.6, c3=0.6).validate()
    with pytest.raises(ValueError):
        v.FitnessParams(mode="other").validate()
    v.FitnessParams().validate()
    v.FitnessParams(mode="raw").validate()


# -------------------------------------------------------------- probabilities

def test_probabilities_for_worked_pair():
    p = v.selection_probabilities([0.58, 0.62])
    assert p[0] == pytest.approx(0.48333, abs=1e-5)
    assert p[1] == pytest.approx(0.51667, abs=1e-5)


def test_single_candidate_gets_probability_one():
    assert v.selection_probabilities([0.37]) == [1.0]


def test_equal_fitness_splits_evenly_at_any_scale():
    for x in (1e-9, 0.4, 17.0, 1e6):
        p = v.selection_probabilities([x, x, x])
        assert p == pytest.approx([1 / 3] * 3, rel=1e-12)


def test_scale_invariance():
    base = [0.2, 0.5, 0.9, 0.1]
    p0 = v.selection_probabilities(base)
    for lam in (1e-6, 3.7, 1e8):
        p1 = v.selection_probabilities([lam * f for f in base])
        assert p1 == pytest.approx(p0, abs=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        p = v.selection_probabilities(list(rng.uniform(0.01, 5.0, size=k)))
        assert sum(p) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_fitness_rejected():
    with pytest.raises(ValueError):
        v.selection_probabilities([0.0, 0.0])
    with pytest.raises(ValueError):
        v.selection_probabilities([0.5, -0.1])
    with pytest.raises(ValueError):
        v.selection_probabilities([])


def test_higher_fitness_means_higher_probability():
    rng = np.random.default_rng(13)
    for _ in range(50):
        vals = sorted(set(float(x) for x in rng.uniform(0.01, 2.0, size=4)))
        p = v.selection_probabilities(vals)
        assert all(a < b for a, b in zip(p, p[1:]))


# ------------------------------------------------------------------ selection

def test_sole_candidate_always_selected():
    for r in (0.0, 0.3, 0.999999):
        assert v.select_parent([1.0], FixedRng(r)) == 0


def test_selection_respects_cumulative_boundaries():
    p = v.selection_probabilities([0.58, 0.62])
    assert v.select_parent(p, FixedRng(0.4)) == 0
    assert v.select_parent(p, FixedRng(0.5)) == 1


@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12),
       st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                 st.sampled_from([0.0, 0.5, 1.0 - 2**-53])))
def test_bisect_draw_equals_cumulative_scan(values, r):
    if sum(values) <= 0:
        values = values + [1.0]
    p = v.selection_probabilities(values)
    expect = scan_select_index(p, r)
    assert v.select_parent(p, FixedRng(r)) == expect
    # a draw landing exactly on a cumulative sum moves to the next interval
    for edge in list(itertools.accumulate(p))[:-1]:
        assert v.select_parent(p, FixedRng(edge)) == \
            scan_select_index(p, edge)


def test_best_parent_prefers_fitness_then_smaller_id():
    cands = {9: [v.SINK, 2, 4, 7]}
    assert best_parent(cands, {9: [0.3, 0.8, 0.8, 0.5]}, 9) == 2
    assert best_parent(cands, {9: [0.9, 0.8, 0.8, 0.5]}, 9) == v.SINK


def test_selection_frequency_matches_binomial_oracle():
    p = v.selection_probabilities([0.58, 0.62])
    rng = np.random.default_rng(21)
    n = 10**5
    hits = sum(1 for _ in range(n) if v.select_parent(p, rng) == 0)
    se = math.sqrt(p[0] * p[1] / n)
    assert abs(hits / n - p[0]) <= 3 * se


# ------------------------------------------------------------ expected loads

def test_single_forced_candidate_expected_one():
    assert expected_loads({5: [2]}, {5: [0.9]}) == {2: 1.0}


def test_two_nodes_sharing_the_worked_pair():
    exp = expected_loads({10: [4, 5], 11: [4, 5]},
                         {10: [0.58, 0.62], 11: [0.58, 0.62]})
    assert exp[4] == pytest.approx(2 * 0.48333, abs=2e-5)
    assert exp[5] == pytest.approx(2 * 0.51667, abs=2e-5)
    assert sum(exp.values()) == pytest.approx(2.0, abs=1e-12)


def test_expected_total_equals_node_count():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        cands = {}
        fit = {}
        for i in range(n):
            k = int(rng.integers(1, 4))
            cands[i] = list(range(100, 100 + k))
            fit[i] = list(rng.uniform(0.05, 2.0, size=k))
        assert sum(expected_loads(cands, fit).values()) == \
            pytest.approx(n, abs=1e-9)


def test_monte_carlo_counts_match_expectation():
    cands = {i: [90, 91] for i in range(6)}
    fit = {i: [0.58, 0.62] for i in range(6)}
    exp = expected_loads(cands, fit)
    rng = np.random.default_rng(41)
    rounds = 20000
    totals = {90: 0, 91: 0}
    for _ in range(rounds):
        picks = realize_selections(cands, fit, rng)
        for t in picks.values():
            totals[t] += 1
    for t in (90, 91):
        p = exp[t] / 6
        se = math.sqrt(6 * p * (1 - p) / rounds)
        assert abs(totals[t] / rounds - exp[t]) <= 3 * se


def test_load_stats_counts_and_mc():
    cands = {0: [7], 1: [7], 2: [v.SINK]}
    fit = {0: [1.0], 1: [1.0], 2: [1.0]}
    stats = load_stats(cands, fit, realize_selections(
        cands, fit, np.random.default_rng(1)))
    assert stats.count == {7: 2, v.SINK: 1}
    assert stats.mc == 2  # the sink's direct deliveries never count
    assert sum(stats.count.values()) == 3


# ------------------------------------------------------------------- min-max

def test_min_max_forced_candidate():
    assign, mc = min_max_load_exact({i: [7] for i in range(5)})
    assert mc == 5 and assign == {i: 7 for i in range(5)}


def test_min_max_perfect_split():
    _, mc = min_max_load_exact({0: [7, 8], 1: [7, 8]})
    assert mc == 1


def random_problem(rng):
    n = int(rng.integers(1, 9))
    tree_ids = list(range(50, 50 + int(rng.integers(1, 5))))
    cands = {}
    fit = {}
    for i in range(n):
        k = min(int(rng.integers(1, 4)), len(tree_ids))
        chosen = sorted(rng.choice(tree_ids, size=k, replace=False).tolist())
        cands[i] = [int(c) for c in chosen]
        fit[i] = list(rng.uniform(0.05, 2.0, size=k))
    return cands, fit


def check_min_max_against_brute_force(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        cands, _ = random_problem(rng)
        expect_mc = brute_force_min_max(cands)
        assign, mc = min_max_load_exact(cands)
        assert mc == expect_mc
        # witness validity: one candidate per node, counts honour mc
        counts = {}
        for i, t in assign.items():
            assert t in cands[i]
            if t != v.SINK:
                counts[t] = counts.get(t, 0) + 1
        assert max(counts.values(), default=0) == mc


def test_min_max_matches_brute_force_oracle():
    check_min_max_against_brute_force(51)


def test_min_max_matching_path_agrees_with_brute_force():
    check_min_max_against_brute_force(61)


def test_realized_mc_never_beats_optimum():
    rng = np.random.default_rng(71)
    for _ in range(50):
        cands, fit = random_problem(rng)
        _, optimal = min_max_load_exact(cands)
        stats = load_stats(cands, fit, realize_selections(cands, fit, rng))
        assert stats.mc >= optimal


def test_min_max_solves_a_long_augmenting_chain():
    # node k may take parent 10000 + k + 1 or its own 10000 + k, and the
    # last node only its own: at cap 1 node k's augmenting path moves
    # every node after it, a path as long as the node count
    n = 1500
    cands = {k: [10000 + k + 1, 10000 + k] for k in range(n - 1)}
    cands[n - 1] = [10000 + n - 1]
    assign, mc = min_max_load_exact(cands)
    assert mc == 1
    assert assign == {k: 10000 + k for k in range(n)}


# -------------------------------------------------- building from a scenario

@pytest.mark.parametrize("params", [
    v.FitnessParams(mode="Normalized"),
    v.FitnessParams(c1=5.0),
    v.FitnessParams(c1=math.nan, c2=0.5, c3=0.5),
], ids=["mode case", "weights sum", "nan weight"])
def test_problem_rejects_fitness_params_that_fail_validate(params):
    sc = scenario_from([(100, 110), (100, 120)], range_m=12)
    with pytest.raises(ValueError, match="fitness"):
        v.build_forwarding_problem(*graph_and_state(sc), {0}, TH, params)


def built_dicts(sc, tree):
    """build_forwarding_problem over sc with default fitness, as
    candidate_dicts' (candidates, fitness)."""
    graph, state = graph_and_state(sc)
    return candidate_dicts(graph, routed(v.build_forwarding_problem(
        graph, state, tree, TH, v.FitnessParams())))


def test_problem_chain_uses_strictly_closer_levels():
    coords = [(100, 110), (100, 120), (100, 130), (100, 140)]
    sc = scenario_from(coords, range_m=12)
    cands, fit = built_dicts(sc, {0, 1, 2})
    assert cands == {0: [v.SINK], 1: [0], 2: [1], 3: [2]}
    ref = reference_forwarding_problem(sc, {0, 1, 2}, TH, v.FitnessParams())
    assert ref.levels[v.SINK] == 0 and ref.levels[0] == 1
    assert ref.levels[2] == 3
    assert ref.next_hop[1] == 0
    assert (cands, fit) == (ref.candidates, ref.fitness)


def test_built_problem_is_its_candidate_arrays():
    coords = [(100, 110), (100, 120), (100, 130), (100, 140)]
    sc = scenario_from(coords, range_m=12)
    graph, state = graph_and_state(sc)
    rows = routed(v.build_forwarding_problem(graph, state, {0, 1, 2}, TH,
                                             v.FitnessParams()))
    assert type(rows) is CandidateArrays and rows.max_level == 3
    copy = pickle.loads(pickle.dumps(rows))
    ref = reference_forwarding_problem(sc, {0, 1, 2}, TH, v.FitnessParams())
    assert ref.next_hop == {0: v.SINK, 1: 0, 2: 1}
    assert candidate_dicts(graph, rows) == candidate_dicts(graph, copy) == \
        (ref.candidates, ref.fitness)


def test_sink_adjacent_nodes_deliver_directly():
    coords = [(100, 110), (95, 105), (100, 125)]
    sc = scenario_from(coords, range_m=15)
    cands, _ = built_dicts(sc, {0})
    assert cands[0] == [v.SINK]
    assert cands[1] == [v.SINK]
    assert cands[2] == [0]


def test_problem_unreachable_node_raises():
    coords = [(100, 110), (10, 10)]
    sc = scenario_from(coords, range_m=15)
    graph, state = graph_and_state(sc)
    rows, stranded = v.build_forwarding_problem(graph, state, {0}, TH,
                                                v.FitnessParams())
    assert stranded.tolist() == [1]
    assert candidate_dicts(graph, rows)[0] == {0: [v.SINK]}


def test_problem_skips_depleted_tree_nodes():
    coords = [(100, 110), (100, 120)]
    sc = scenario_from(coords, range_m=12, energies=[0.15, 2.0])
    stranded = v.build_forwarding_problem(*graph_and_state(sc), {0}, TH,
                                          v.FitnessParams())[1]
    assert stranded.tolist() == [1]


def test_symmetric_diamond_splits_fifty_fifty():
    coords = [(100, 112), (112, 100), (110, 110)]
    sc = scenario_from(coords, range_m=13)
    cands, fit = built_dicts(sc, {0, 1})
    assert cands[2] == [0, 1]
    assert v.selection_probabilities(fit[2]) == [0.5, 0.5]
    exp = expected_loads(cands, fit)
    # the two tree nodes deliver their own packets straight to the sink
    assert exp[0] == exp[1] == pytest.approx(0.5, abs=1e-12)
    assert exp[v.SINK] == pytest.approx(2.0, abs=1e-12)


# ------------------------------------------- array build vs scalar oracle

def problem_outcome(build, *args):
    """A build's candidates with every fitness as its exact bits, or its
    error or stranded ids. The levels and next hops decide both, so they
    go unread."""
    try:
        p = build(*args)
        if not isinstance(p, ReferenceProblem):
            p = routed(p)
    except v.ConstructionFailed as fail:
        return "unreachable", fail.unreachable
    except ValueError as err:
        return "error", str(err)
    cands, fit = ((p.candidates, p.fitness) if isinstance(p, ReferenceProblem)
                  else candidate_dicts(args[0], p))
    bits = {i: [f.hex() for f in row] for i, row in fit.items()}
    return "built", cands, bits


@st.composite
def drained_layouts(draw):
    """Up to 40 nodes with duplicate positions, mixed and failed batteries,
    a tree-node set and a few (drain, kill, sink move) steps."""
    f = v.Field(100, 100, draw(st.floats(0, 100)), draw(st.floats(0, 100)))
    n = draw(st.integers(1, 40))
    xy = v.deploy_uniform(f, n, draw(st.integers(0, 2**16)))
    energies = []
    for i in range(n):
        if i and draw(st.integers(0, 4)) == 0:  # stack on a node
            xy[i] = xy[draw(st.integers(0, i - 1))]
        energies.append(draw(st.sampled_from([2.0] * 4 + [0.2, 0.05, 0.0])))
    sc = scenario_from(xy, draw(st.sampled_from([25.0, 45.0, 70.0])),
                       energies=energies, field=f)
    # None: the greedy cover's tree nodes, at each step
    tree = draw(st.sampled_from([None, set(range(n)), set(range(n))]) | st.sets(
        st.integers(0, n - 1), max_size=n))
    steps = draw(st.lists(st.tuples(
        st.lists(st.integers(0, n - 1), max_size=n),
        st.sampled_from([0.5, 0.0]),
        st.one_of(st.none(), st.tuples(st.floats(0, 100),
                                       st.floats(0, 100)))), max_size=3))
    return sc, tree, steps


@given(drained_layouts(), st.sampled_from(["normalized", "raw"]),
       st.sampled_from([2.0, 0.5]))
def test_array_problem_equals_scalar_reference(case, mode, e_init):
    """Candidates, fitness bits, failure lists and the raw-mode error
    (which wins over an unreachable node) all match the pair-by-pair
    build, after drains, deaths and sink moves; so do the draw rows and
    best parents the round loop reads from the arrays."""
    sc, tree, steps = case
    params = v.FitnessParams(mode=mode)
    g = v.build_reachability(sc.points(), sc.sensing_range)
    for touched, factor, sink in [([], 1.0, None)] + steps:
        for i in touched:
            sc.energy[i] *= factor  # a node drained to 0 J dies
        if sink is not None:
            sc.field = v.Field(sc.field.width, sc.field.height, *sink)
            g.move_sink(sink)
        if tree is None:
            try:
                chosen = routed(v.build_min_cover(g, sc.state(FLOOR), TH))
            except v.ConstructionFailed:
                chosen = set()
        else:
            chosen = tree
        got = problem_outcome(v.build_forwarding_problem, g, sc.state(FLOOR),
                              chosen, TH, params, e_init)
        want = problem_outcome(reference_forwarding_problem, sc, chosen, TH,
                               params, e_init, g)
        assert got == want
        if got[0] == "built":
            check_candidate_arrays(v.build_forwarding_problem(
                g, sc.state(FLOOR), chosen, TH, params, e_init)[0], g)


def check_candidate_arrays(arrays, g):
    n = len(g.indptr) - 2
    cands, fit = candidate_dicts(g, arrays)
    ids = g.edge_rows(arrays.edges[arrays.bounds[:-1]])
    rows = ids.tolist()
    assert rows == sorted(cands)
    assert (g.edge_rows(arrays.edges) == np.repeat(
        ids, np.diff(arrays.bounds))).all()
    best = g.nbrs[arrays.best_edges()]
    assert np.where(best == n, v.SINK, best).tolist() == \
        [best_parent(cands, fit, i) for i in rows]
    try:
        probs = [v.selection_probabilities(fit[i]) for i in rows]
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            arrays.draws()
        return
    flat, cums = arrays.draws()
    assert flat.tolist() == [q for row in probs for q in row]
    assert cums.tolist() == [c for row in probs
                             for c in itertools.accumulate(row)]


def test_array_problem_with_no_live_node():
    sc = scenario_from([(100, 110), (100, 120)], range_m=12,
                       energies=[0.0, 0.0])
    graph, state = graph_and_state(sc)
    rows = routed(v.build_forwarding_problem(graph, state, {0}, TH,
                                             v.FitnessParams()))
    ref = reference_forwarding_problem(sc, {0}, TH, v.FitnessParams())
    assert candidate_dicts(graph, rows) == ({}, {}) == \
        (ref.candidates, ref.fitness)
    assert ref.levels == {v.SINK: 0} and rows.max_level == 0
    flat, cums = rows.draws()
    assert flat.size == cums.size == rows.best_edges().size == 0


@pytest.mark.parametrize("mode, error", [
    ("raw", ValueError), ("normalized", v.ConstructionFailed)])
def test_raw_zero_distance_error_precedes_unreachable(mode, error):
    # node 2 sits on tree node 1; node 3 is out of everyone's range
    sc = scenario_from([(100, 110), (100, 121), (100, 121), (10, 10)],
                       range_m=12)
    params = v.FitnessParams(mode=mode)
    with pytest.raises(error):  # the build strands node 3
        routed(v.build_forwarding_problem(*graph_and_state(sc), {0, 1}, TH,
                                          params))
    with pytest.raises(error):
        reference_forwarding_problem(sc, {0, 1}, TH, params)
