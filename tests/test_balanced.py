"""Fitness scoring, selection probabilities, expected loads, exact min-max."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import vbtsim as v
from oracles import brute_force_min_max, scan_select_index
from vbtsim.balanced import draw_index

TH = v.DEFAULT_TH


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
    return v.FitnessContext(positions=positions, energies=energies,
                            next_hop={0: v.SINK}, range_m=range_m)


# ------------------------------------------------------------- deviation angle

def test_deviation_straight_line_clamps_to_minimum():
    ctx = ctx_line()
    assert v.deviation_angle(ctx, 1, 0) == v.BETA_MIN


def test_deviation_full_reversal_is_pi():
    ctx = ctx_line(i_pos=(0.0, 0.0))  # arriving from the sink's own position
    assert v.deviation_angle(ctx, 1, 0) == pytest.approx(math.pi, rel=1e-12)


def test_deviation_right_angle():
    ctx = ctx_line(i_pos=(10.0, 10.0))
    assert v.deviation_angle(ctx, 1, 0) == pytest.approx(math.pi / 2, rel=1e-12)


def test_deviation_sink_candidate_counts_as_straight():
    ctx = ctx_line()
    assert v.deviation_angle(ctx, 1, v.SINK) == v.BETA_MIN


# ------------------------------------------------------------------- fitness

def test_worst_candidate_scores_only_the_angle_floor():
    # distance = range, empty battery, full reversal
    ctx = ctx_line(energy=0.0, i_pos=(0.0, 0.0))
    params = v.FitnessParams()
    br = v.fitness(1, 0, ctx, params)
    assert br.f_d == pytest.approx(0.0, abs=1e-12)
    assert br.f_e == 0.0
    assert br.beta == pytest.approx(math.pi, rel=1e-12)
    assert br.total == pytest.approx(params.c3 * v.BETA_MIN / math.pi, rel=1e-9)


def test_perfect_candidate_scores_one():
    ctx = ctx_line(cand_pos=(20.0 - 1e-9, 0.0))
    br = v.fitness(1, 0, ctx, v.FitnessParams())
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
        br = v.fitness(1, 0, ctx, v.FitnessParams())
        for part in (br.f_d, br.f_e, br.f_beta, br.total):
            assert -1e-12 <= part <= 1.0 + 1e-12


def test_raw_mode_uses_literal_terms():
    ctx = ctx_line(energy=0.7)
    params = v.FitnessParams(mode="raw")
    br = v.fitness(1, 0, ctx, params)
    assert br.f_d == pytest.approx(1.0 / 10.0, rel=1e-12)
    assert br.f_e == 0.7
    assert br.f_beta == pytest.approx(math.pi / v.BETA_MIN, rel=1e-12)
    expect = (br.f_d + br.f_e + br.f_beta) / 3.0
    assert br.total == pytest.approx(expect, rel=1e-12)


def test_raw_mode_rejects_zero_distance():
    ctx = ctx_line(cand_pos=(20.0, 0.0))
    with pytest.raises(ValueError):
        v.fitness(1, 0, ctx, v.FitnessParams(mode="raw"))


def test_sink_candidate_gets_full_battery_and_straight_angle():
    ctx = ctx_line(i_pos=(8.0, 0.0))
    params = v.FitnessParams()
    br = v.fitness(1, v.SINK, ctx, params)
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
    cumulative = list(itertools.accumulate(p))
    assert draw_index(cumulative, r) == expect
    for edge in cumulative[:-1]:
        assert draw_index(cumulative, edge) == scan_select_index(p, edge)


def test_best_parent_prefers_fitness_then_smaller_id():
    prob = v.ForwardingProblem(candidates={9: [v.SINK, 2, 4, 7]},
                               fitness={9: [0.3, 0.8, 0.8, 0.5]})
    assert prob.best_parent(9) == 2
    prob.fitness[9] = [0.9, 0.8, 0.8, 0.5]
    assert prob.best_parent(9) == v.SINK


def test_selection_frequency_matches_binomial_oracle():
    p = v.selection_probabilities([0.58, 0.62])
    rng = np.random.default_rng(21)
    n = 10**5
    hits = sum(1 for _ in range(n) if v.select_parent(p, rng) == 0)
    se = math.sqrt(p[0] * p[1] / n)
    assert abs(hits / n - p[0]) <= 3 * se


# ------------------------------------------------------------ expected loads

def test_single_forced_candidate_expected_one():
    prob = v.ForwardingProblem(candidates={5: [2]}, fitness={5: [0.9]},
                               levels={2: 1}, next_hop={2: v.SINK})
    assert v.expected_loads(prob) == {2: 1.0}


def test_two_nodes_sharing_the_worked_pair():
    prob = v.ForwardingProblem(
        candidates={10: [4, 5], 11: [4, 5]},
        fitness={10: [0.58, 0.62], 11: [0.58, 0.62]},
        levels={4: 1, 5: 1},
        next_hop={4: v.SINK, 5: v.SINK},
    )
    exp = v.expected_loads(prob)
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
        prob = v.ForwardingProblem(candidates=cands, fitness=fit,
                                   levels={}, next_hop={})
        assert sum(v.expected_loads(prob).values()) == pytest.approx(n, abs=1e-9)


def test_monte_carlo_counts_match_expectation():
    prob = v.ForwardingProblem(
        candidates={i: [90, 91] for i in range(6)},
        fitness={i: [0.58, 0.62] for i in range(6)},
        levels={90: 1, 91: 1},
        next_hop={90: v.SINK, 91: v.SINK},
    )
    exp = v.expected_loads(prob)
    rng = np.random.default_rng(41)
    rounds = 20000
    totals = {90: 0, 91: 0}
    for _ in range(rounds):
        picks = v.realize_selections(prob, rng)
        for t in picks.values():
            totals[t] += 1
    for t in (90, 91):
        p = exp[t] / 6
        se = math.sqrt(6 * p * (1 - p) / rounds)
        assert abs(totals[t] / rounds - exp[t]) <= 3 * se


def test_load_stats_counts_and_mc():
    prob = v.ForwardingProblem(
        candidates={0: [7], 1: [7], 2: [v.SINK]},
        fitness={0: [1.0], 1: [1.0], 2: [1.0]},
        levels={7: 1}, next_hop={7: v.SINK},
    )
    stats = v.load_stats(prob, v.realize_selections(prob, np.random.default_rng(1)))
    assert stats.count == {7: 2, v.SINK: 1}
    assert stats.mc == 2  # the sink's direct deliveries never count
    assert sum(stats.count.values()) == 3


# ------------------------------------------------------------------- min-max

def test_min_max_forced_candidate():
    prob = v.ForwardingProblem(candidates={i: [7] for i in range(5)},
                               fitness={i: [1.0] for i in range(5)},
                               levels={7: 1}, next_hop={7: v.SINK})
    assign, mc = v.min_max_load_exact(prob)
    assert mc == 5 and assign == {i: 7 for i in range(5)}


def test_min_max_perfect_split():
    prob = v.ForwardingProblem(candidates={0: [7, 8], 1: [7, 8]},
                               fitness={0: [1.0, 1.0], 1: [1.0, 1.0]},
                               levels={7: 1, 8: 1},
                               next_hop={7: v.SINK, 8: v.SINK})
    _, mc = v.min_max_load_exact(prob)
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
    return v.ForwardingProblem(candidates=cands, fitness=fit, levels={},
                               next_hop={})


def test_min_max_matches_brute_force_oracle():
    rng = np.random.default_rng(51)
    for _ in range(30):
        prob = random_problem(rng)
        expect_mc = brute_force_min_max(prob.candidates)
        assign, mc = v.min_max_load_exact(prob)
        assert mc == expect_mc
        # witness validity: one candidate per node, counts honour mc
        counts = {}
        for i, t in assign.items():
            assert t in prob.candidates[i]
            if t != v.SINK:
                counts[t] = counts.get(t, 0) + 1
        assert max(counts.values(), default=0) == mc


def test_min_max_matching_path_agrees_with_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(30):
        prob = random_problem(rng)
        expect_mc = brute_force_min_max(prob.candidates)
        _, mc = v.min_max_load_exact(prob, brute_force_limit=0)  # force matching
        assert mc == expect_mc


def test_min_max_guard_raises_when_matching_disabled():
    prob = v.ForwardingProblem(candidates={0: [7, 8], 1: [7, 8]},
                               fitness={0: [1.0, 1.0], 1: [1.0, 1.0]},
                               levels={7: 1, 8: 1},
                               next_hop={7: v.SINK, 8: v.SINK})
    with pytest.raises(v.InstanceTooLarge):
        v.min_max_load_exact(prob, allow_matching=False, brute_force_limit=1)


def test_realized_mc_never_beats_optimum():
    rng = np.random.default_rng(71)
    for _ in range(50):
        prob = random_problem(rng)
        _, optimal = v.min_max_load_exact(prob)
        stats = v.load_stats(prob, v.realize_selections(prob, rng))
        assert stats.mc >= optimal


# -------------------------------------------------- building from a scenario

def scenario_from(coords, range_m, energies=None):
    field = v.Field(200, 200, 100, 100)
    nodes = []
    for i, (x, y) in enumerate(coords):
        e = v.E_INIT if energies is None else energies[i]
        nodes.append(v.Node(id=i, x=x, y=y, energy=e,
                            status=v.classify_status(e, 0, TH, v.DEFAULT_E_FAIL)))
    return v.Scenario(field, nodes, range_m, 0)


def test_problem_chain_uses_strictly_closer_levels():
    coords = [(100, 110), (100, 120), (100, 130), (100, 140)]
    sc = scenario_from(coords, range_m=12)
    prob = v.build_forwarding_problem(sc, {0, 1, 2}, TH, v.FitnessParams())
    assert prob.candidates == {0: [v.SINK], 1: [0], 2: [1], 3: [2]}
    assert prob.levels[v.SINK] == 0 and prob.levels[0] == 1 and prob.levels[2] == 3
    assert prob.next_hop[1] == 0


def test_sink_adjacent_nodes_deliver_directly():
    coords = [(100, 110), (95, 105), (100, 125)]
    sc = scenario_from(coords, range_m=15)
    prob = v.build_forwarding_problem(sc, {0}, TH, v.FitnessParams())
    assert prob.candidates[0] == [v.SINK]
    assert prob.candidates[1] == [v.SINK]
    assert prob.candidates[2] == [0]


def test_problem_unreachable_node_raises():
    coords = [(100, 110), (10, 10)]
    sc = scenario_from(coords, range_m=15)
    with pytest.raises(v.ConstructionFailed) as err:
        v.build_forwarding_problem(sc, {0}, TH, v.FitnessParams())
    assert err.value.unreachable == [1]


def test_problem_skips_depleted_tree_nodes():
    coords = [(100, 110), (100, 120)]
    sc = scenario_from(coords, range_m=12, energies=[0.15, 2.0])
    with pytest.raises(v.ConstructionFailed):
        v.build_forwarding_problem(sc, {0}, TH, v.FitnessParams())


def test_symmetric_diamond_splits_fifty_fifty():
    coords = [(100, 112), (112, 100), (110, 110)]
    sc = scenario_from(coords, range_m=13)
    prob = v.build_forwarding_problem(sc, {0, 1}, TH, v.FitnessParams())
    assert prob.candidates[2] == [0, 1]
    assert prob.probabilities(2) == [0.5, 0.5]
    exp = v.expected_loads(prob)
    # the two tree nodes deliver their own packets straight to the sink
    assert exp[0] == exp[1] == pytest.approx(0.5, abs=1e-12)
    assert exp[v.SINK] == pytest.approx(2.0, abs=1e-12)
