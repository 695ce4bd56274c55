"""Round-based lifetime simulation and the load-spread comparison."""

import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vbtsim as v
from oracles import (ReferenceProblem, best_parent, candidate_dicts,
                     event_rows, graph_and_state, positions,
                     reference_compare_load_spread,
                     reference_forwarding_problem, reference_min_cover,
                     reference_mmevbt, reference_relocate_sink,
                     reference_run_simulation, route_energy, scenario_from,
                     tree_dicts, tree_nodes)
from vbtsim import simulate
from vbtsim.config import EnergyParams
from vbtsim.model import left_sum

TH = v.DEFAULT_TH
RADIO = v.RadioParams()
NO_MOVE = v.SimPolicy(th=TH, e_fail=v.DEFAULT_E_FAIL, t_move=0)


def connected_random_scenario(seed, n=30, range_m=45.0):
    field = v.Field(200, 200, 100, 100)
    while True:
        sc = scenario_from(v.deploy_uniform(field, n, seed=seed), range_m)
        try:
            v.build_mmevbt(*graph_and_state(sc), RADIO, TH)
            return sc
        except v.ConstructionFailed:
            seed += 1000


def parse_path(detail):
    return [int(tok) for tok in detail.split(">")]


# ------------------------------------------------------------------ basics

def test_zero_traffic_changes_nothing():
    sc = connected_random_scenario(1)
    traffic = v.TrafficModel(origin_probability=0.0, rounds_max=25)
    m = v.run_simulation(sc, "mmevbt", traffic, RADIO, NO_MOVE, seed=5)
    assert m.total_energy_consumed == 0.0
    assert m.first_node_death_round is None
    assert m.rounds_until_disconnect is None
    assert m.reconstructions == 0
    assert m.rounds_run == 25
    assert m.alive_fraction_curve == [(r, 1.0) for r in range(1, 26)]


def test_single_node_drain_has_closed_form():
    e_start = 0.01
    sc = scenario_from([(100, 110)], range_m=12, energies=[e_start])
    policy = v.SimPolicy(th=0.001, e_fail=v.DEFAULT_E_FAIL, t_move=0)
    traffic = v.TrafficModel(origin_probability=1.0, rounds_max=200)
    m = v.run_simulation(sc, "mmevbt", traffic, RADIO, policy, seed=0,
                         e_init=e_start)
    per_round = v.tx_cost(RADIO, 10.0)
    expect_death = math.floor((e_start - v.DEFAULT_E_FAIL) / per_round) + 1
    assert m.first_node_death_round == expect_death
    assert m.rounds_until_disconnect == expect_death
    assert m.total_energy_consumed == pytest.approx(expect_death * per_round,
                                                    rel=1e-12)


def test_unknown_algorithm_rejected():
    sc = connected_random_scenario(2)
    with pytest.raises(ValueError):
        v.run_simulation(sc, "mystery", v.TrafficModel(), RADIO, NO_MOVE, seed=1)


def test_initial_construction_failure_propagates():
    sc = scenario_from([(100, 110), (10, 10)], range_m=12)
    for algo in v.ALGORITHMS:
        with pytest.raises(v.ConstructionFailed):
            v.run_simulation(sc, algo, v.TrafficModel(), RADIO, NO_MOVE, seed=1)


def arrays_of(sc):
    """A Scenario's arrays as lists, to compare before and after."""
    return sc.xy.tolist(), sc.energy.tolist()


def test_input_scenario_is_never_mutated():
    sc = connected_random_scenario(3)
    before = arrays_of(sc)
    sink_before = sc.field.sink_pos
    v.run_simulation(sc, "mmevbt", v.TrafficModel(rounds_max=50), RADIO,
                     v.SimPolicy(th=TH, e_fail=v.DEFAULT_E_FAIL, t_move=10),
                     seed=4)
    assert arrays_of(sc) == before
    assert sc.field.sink_pos == sink_before


@pytest.mark.parametrize("algo", v.ALGORITHMS)
def test_runs_leave_the_input_scenario_unchanged(algo):
    # low batteries: nodes die and the sink moves, all on the copy
    sc = connected_random_scenario(5, n=30, range_m=50.0)
    sc.energy[:] = 0.01
    before = arrays_of(sc)
    policy = v.SimPolicy(th=0.002, t_move=3)
    m = v.run_simulation(sc, algo, v.TrafficModel(0.5, 200), RADIO, policy,
                         seed=2, e_init=0.01)
    assert m.first_node_death_round is not None
    v.compare_load_spread(sc, rounds=5, seed=2, th=0.002, e_init=0.01)
    assert arrays_of(sc) == before
    assert sc.field.sink_pos == (100, 100)


def test_determinism_across_runs():
    sc = connected_random_scenario(4)
    traffic = v.TrafficModel(origin_probability=0.4, rounds_max=120)
    runs = [v.run_simulation(sc, "balanced_probabilistic", traffic, RADIO,
                             NO_MOVE, seed=11, e_init=0.01) for _ in range(2)]
    assert runs[0] == runs[1]
    other = v.run_simulation(sc, "balanced_probabilistic", traffic, RADIO,
                             NO_MOVE, seed=12, e_init=0.01)
    assert other != runs[0]


# ------------------------------------------------------------- conservation

@pytest.mark.parametrize("algo", v.ALGORITHMS)
def test_energy_conservation_against_event_replay(algo):
    sc = connected_random_scenario(6, n=25, range_m=50.0)
    sc.energy[:] = 0.02
    traffic = v.TrafficModel(origin_probability=0.3, rounds_max=150)
    policy = v.SimPolicy(th=0.002, e_fail=v.DEFAULT_E_FAIL, t_move=0)
    log = simulate.EventLog()
    m = v.run_simulation(sc, algo, traffic, RADIO, policy, seed=8,
                         e_init=0.02, event_log=log)
    pos = positions(sc)
    replayed = sum(route_energy(RADIO, pos, parse_path(detail))
                   for _, ev, _, detail in event_rows(log) if ev == "packet")
    assert m.total_energy_consumed == pytest.approx(replayed, rel=1e-9)
    assert m.total_energy_consumed > 0  # the drain really happened


@pytest.mark.parametrize("algo", v.ALGORITHMS)
def test_packets_never_transit_ineligible_nodes(algo):
    # independent replay: track energies round by round and check every
    # relay had threshold energy and every origin was alive at send time
    sc = connected_random_scenario(7, n=25, range_m=50.0)
    e_start = 0.02
    sc.energy[:] = e_start
    th = 0.004
    policy = v.SimPolicy(th=th, e_fail=v.DEFAULT_E_FAIL, t_move=0)
    traffic = v.TrafficModel(origin_probability=0.4, rounds_max=200)
    log = simulate.EventLog()
    v.run_simulation(sc, algo, traffic, RADIO, policy, seed=9,
                     e_init=e_start, event_log=log)
    pos = positions(sc)
    energy = dict.fromkeys(range(len(sc.xy)), e_start)
    dead = set()
    by_round = {}
    for rnd, ev, node, detail in event_rows(log):
        by_round.setdefault(rnd, []).append((ev, node, detail))
    for rnd in sorted(by_round):
        spend = {}
        for ev, node, detail in by_round[rnd]:
            if ev != "packet":
                continue
            path = parse_path(detail)
            assert node == path[0] and path[-1] == v.SINK
            assert node not in dead and energy[node] >= v.DEFAULT_E_FAIL
            for relay in path[1:-1]:
                assert relay not in dead
                assert energy[relay] >= th
            for a, b in zip(path, path[1:]):
                spend[a] = spend.get(a, 0.0) + v.tx_cost(
                    RADIO, v.distance(pos[a], pos[b]))
                if b != v.SINK:
                    spend[b] = spend.get(b, 0.0) + v.rx_cost(RADIO)
        for i, c in spend.items():
            energy[i] = max(0.0, energy[i] - c)
        for ev, node, _ in by_round[rnd]:
            if ev == "death":
                dead.add(node)
                assert energy[node] < v.DEFAULT_E_FAIL


def test_alive_curve_monotone_and_death_before_disconnect():
    for algo in v.ALGORITHMS:
        sc = connected_random_scenario(10, n=20, range_m=55.0)
        sc.energy[:] = 0.01
        traffic = v.TrafficModel(origin_probability=0.5, rounds_max=300)
        policy = v.SimPolicy(th=0.001, e_fail=v.DEFAULT_E_FAIL, t_move=0)
        m = v.run_simulation(sc, algo, traffic, RADIO, policy, seed=3,
                             e_init=0.01)
        fractions = [f for _, f in m.alive_fraction_curve]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert m.first_node_death_round is not None
        assert m.rounds_until_disconnect is not None
        assert m.first_node_death_round <= m.rounds_until_disconnect


def test_failed_nodes_never_reappear_in_routes():
    sc = connected_random_scenario(12, n=25, range_m=50.0)
    sc.energy[:] = 0.02
    traffic = v.TrafficModel(origin_probability=0.4, rounds_max=250)
    policy = v.SimPolicy(th=0.002, e_fail=v.DEFAULT_E_FAIL, t_move=0)
    log = simulate.EventLog()
    v.run_simulation(sc, "mmevbt", traffic, RADIO, policy, seed=6,
                     e_init=0.02, event_log=log)
    events = event_rows(log)
    death_round = {}
    for rnd, ev, node, _ in events:
        if ev == "death":
            assert node not in death_round  # dies at most once
            death_round[node] = rnd
    assert death_round
    for rnd, ev, node, detail in events:
        if ev == "packet":
            for vertex in parse_path(detail)[:-1]:
                assert death_round.get(vertex, rnd + 1) >= rnd


def test_eligibility_flip_triggers_rebuild():
    # uneven batteries: the poor nodes lose relay rights early while the
    # rich majority keeps the network routable through the rebuild
    sc = connected_random_scenario(13, n=35, range_m=60.0)
    sc.energy[:] = 0.1
    sc.energy[::5] = 0.004
    traffic = v.TrafficModel(origin_probability=0.4, rounds_max=100)
    policy = v.SimPolicy(th=0.002, e_fail=v.DEFAULT_E_FAIL, t_move=0)
    log = simulate.EventLog()
    m = v.run_simulation(sc, "mmevbt", traffic, RADIO, policy, seed=7,
                         e_init=0.1, event_log=log)
    rebuilds = [e for e in event_rows(log) if e[1] == "rebuild"]
    assert m.reconstructions == len(rebuilds)
    assert m.reconstructions >= 1


# -------------------------------------------------------------- relocation

def test_relocation_moves_the_sink_and_rebuilds():
    sc = connected_random_scenario(14, n=40, range_m=50.0)
    policy = v.SimPolicy(th=TH, e_fail=v.DEFAULT_E_FAIL, t_move=5, grid=4)
    traffic = v.TrafficModel(origin_probability=0.2, rounds_max=20)
    log = simulate.EventLog()
    m = v.run_simulation(sc, "mmevbt", traffic, RADIO, policy, seed=2,
                         event_log=log)
    moves = [e for e in event_rows(log) if e[1] == "relocate"]
    assert moves and all(e[0] % 5 == 0 for e in moves)
    assert m.reconstructions >= len([e for e in moves if e[3] != "reverted"])


def test_failed_relocation_reverts_and_sim_continues():
    # the rich lone node pulls the sink into a cell from which nothing is
    # reachable; every attempt must be rolled back
    sc = scenario_from([(79, 50), (105, 60)], 30.0, energies=[0.5, 2.0],
                       field=v.Field(200, 200, 50, 50))
    policy = v.SimPolicy(th=TH, e_fail=v.DEFAULT_E_FAIL, t_move=4, grid=2)
    traffic = v.TrafficModel(origin_probability=0.0, rounds_max=12)
    log = simulate.EventLog()
    m = v.run_simulation(sc, "mmevbt", traffic, RADIO, policy, seed=1,
                         event_log=log)
    moves = [e for e in event_rows(log) if e[1] == "relocate"]
    assert len(moves) == 3
    assert all(e[3] == "reverted" for e in moves)
    assert m.rounds_until_disconnect is None
    assert m.rounds_run == 12
    assert m.reconstructions == 0


# ------------------------------------------------------- load spread compare

def test_compare_load_spread_forced_single_tree_node():
    coords = [(100, 85), (100, 95), (90, 95)]
    sc = scenario_from(coords, range_m=10)
    mc_prob, mc_det = v.compare_load_spread(sc, rounds=5, seed=3)
    assert mc_prob == mc_det == 10  # nodes 0 and 2 send via node 1 every round


def ten_client_two_gateway_scenario():
    """Ten nodes exactly equidistant from two equal gateways, plus one
    satellite per gateway so the cover keeps both."""
    coords = [(100.0, 141.0 + 2 * k) for k in range(10)]
    coords += [(88.0, 125.0), (112.0, 125.0)]   # gateways, ids 10 and 11
    coords += [(53.0, 110.0), (147.0, 140.0)]   # satellites, ids 12 and 13
    return scenario_from(coords, range_m=40.0)


def test_ten_clients_split_between_equal_gateways():
    sc = ten_client_two_gateway_scenario()
    graph, state = graph_and_state(sc)
    tree = v.build_min_cover(graph, state, TH).tree_nodes
    assert tree == {10, 11}
    cands, fit = candidate_dicts(graph, v.build_forwarding_problem(
        graph, state, tree, TH, v.FitnessParams()))
    for i in range(10):
        assert cands[i] == [10, 11]
        # exact by symmetry
        assert v.selection_probabilities(fit[i]) == [0.5, 0.5]
    assert cands[10] == [v.SINK] and cands[11] == [v.SINK]
    assert cands[12] == [10] and cands[13] == [11]

    # deterministic best-fitness forwarding dumps all ten clients plus one
    # satellite on gateway 10; the probabilistic policy splits binomially
    mc_prob, mc_det = v.compare_load_spread(sc, rounds=1, seed=0)
    assert mc_det == 11
    wins = 0
    means = []
    for seed in range(100):
        mc_p, mc_d = v.compare_load_spread(sc, rounds=1, seed=seed)
        assert mc_d == 11
        means.append(mc_p)
        if mc_p < mc_d:
            wins += 1
    # max(X+1, 11-X) with X ~ Binomial(10, 1/2): mean about 6.7, and the
    # probabilistic side loses only when one gateway takes every client
    assert wins >= 97
    assert 5.0 <= sum(means) / len(means) <= 8.5


def test_compare_load_spread_deterministic_per_seed():
    sc = ten_client_two_gateway_scenario()
    assert v.compare_load_spread(sc, rounds=7, seed=5) == \
        v.compare_load_spread(sc, rounds=7, seed=5)


def test_compare_respects_origin_probability():
    sc = ten_client_two_gateway_scenario()
    mc_prob, mc_det = v.compare_load_spread(sc, rounds=50, seed=1,
                                            origin_probability=0.0)
    assert mc_prob == mc_det == 0


@pytest.mark.parametrize("kwargs", [
    {"th": -1.0}, {"origin_probability": 2.0}, {"origin_probability": -1.0},
    {"rounds": -4},
], ids=["th<0", "origin_p>1", "origin_p<0", "rounds<0"])
def test_compare_load_spread_rejects_bad_values(kwargs):
    args = {"rounds": 5, "seed": 1, **kwargs}
    with pytest.raises(ValueError):
        v.compare_load_spread(ten_client_two_gateway_scenario(), **args)


def run_ten(radio=RADIO, policy=NO_MOVE, **kwargs):
    return v.run_simulation(ten_client_two_gateway_scenario(), "mmevbt",
                            v.TrafficModel(), radio, policy, 1, **kwargs)


def relocate(sc, grid=4, max_step=None):
    """relocate_sink over sc's graph, state and field."""
    return v.relocate_sink(*graph_and_state(sc), sc.field,
                           v.SimPolicy(grid=grid, max_step=max_step))


def all_failed_scenario():
    sc = ten_client_two_gateway_scenario()
    sc.energy[:] = 0.0
    return sc


@pytest.mark.parametrize("call, message", [
    (lambda: relocate(all_failed_scenario()), "live node"),
    (lambda: relocate(ten_client_two_gateway_scenario(), grid=0),
     "policy.grid"),
    (lambda: relocate(ten_client_two_gateway_scenario(), max_step=-1.0),
     "policy.max_step"),
    (lambda: v.run_simulation(ten_client_two_gateway_scenario(), "mmevbt",
                              v.TrafficModel(), RADIO, NO_MOVE, seed=-1),
     "seed must be >= 0"),
    (lambda: v.compare_load_spread(ten_client_two_gateway_scenario(),
                                   rounds=1, seed=-1), "seed must be >= 0"),
    (lambda: v.run_simulation(scenario_from([], 30.0), "mmevbt",
                              v.TrafficModel(), RADIO, NO_MOVE, seed=1),
     "need at least one node"),
    (lambda: run_ten(fitness_params=v.FitnessParams(c1=math.nan)),
     "fitness weights"),
    (lambda: run_ten(radio=v.RadioParams(e_elec=math.nan)),
     "radio parameters"),
    (lambda: run_ten(radio=v.RadioParams(e_amp=math.inf)),
     "radio parameters"),
    (lambda: run_ten(policy=v.SimPolicy(max_step=math.nan)),
     "policy.max_step"),
    (lambda: run_ten(policy=v.SimPolicy(max_step=math.inf)),
     "policy.max_step must be >= 0 and finite"),
    (lambda: run_ten(policy=v.SimPolicy(th=math.inf)),
     "policy.th must be >= 0 and finite"),
    (lambda: run_ten(policy=v.SimPolicy(e_fail=math.inf)),
     "policy.e_fail must be >= 0 and finite"),
    (lambda: EnergyParams(e_init=math.nan).validate(), "energy.e_init"),
    (lambda: run_ten(e_init=math.nan), "energy.e_init"),
    (lambda: run_ten(e_init=-1.0), "energy.e_init"),
    (lambda: v.compare_load_spread(ten_client_two_gateway_scenario(),
                                   rounds=1, seed=0, e_init=math.nan),
     "energy.e_init"),
], ids=["relocate-no-live-node", "relocate-grid-0", "relocate-max-step<0",
        "run-seed<0", "compare-seed<0", "run-no-nodes", "run-c1-nan",
        "run-e-elec-nan", "run-e-amp-inf", "run-max-step-nan",
        "run-max-step-inf", "run-th-inf", "run-e-fail-inf",
        "e-init-nan", "run-e-init-nan", "run-e-init<0", "compare-e-init-nan"])
def test_library_calls_reject_bad_inputs_clearly(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def build_ten(build, th=TH, e_init=v.E_INIT):
    """build over the ten-client layout's graph and state."""
    graph, state = graph_and_state(ten_client_two_gateway_scenario())
    if build is v.build_forwarding_problem:
        return build(graph, state, {10, 11}, th, v.FitnessParams(), e_init)
    if build is v.build_mmevbt:
        return build(graph, state, RADIO, th)
    return build(graph, state, th)


@pytest.mark.parametrize("build", [v.build_mmevbt, v.build_min_cover,
                                   v.build_forwarding_problem],
                         ids=["mmevbt", "min_cover", "forwarding"])
@pytest.mark.parametrize("th", [-1.0, math.nan, math.inf],
                         ids=["th<0", "th-nan", "th-inf"])
def test_builds_reject_a_bad_th(build, th):
    # th = -1 used to be accepted; nan and inf raised ConstructionFailed
    # listing the nodes that no relay could serve
    with pytest.raises(ValueError, match="policy.th must be >= 0 and finite"):
        build_ten(build, th=th)


@pytest.mark.parametrize("e_init", [0.0, math.nan, -1.0, math.inf],
                         ids=["0", "nan", "<0", "inf"])
def test_forwarding_build_rejects_a_bad_e_init(e_init):
    # 0 used to score candidates nan with a RuntimeWarning, nan in silence
    with pytest.raises(ValueError, match="energy.e_init must be > 0"):
        build_ten(v.build_forwarding_problem, e_init=e_init)


def spread_outcome(compare, sc, rounds, seed, **kwargs):
    """A comparison's counts, or the error it raised."""
    try:
        return compare(sc, rounds, seed, **kwargs)
    except v.ConstructionFailed as fail:
        return "unreachable", fail.unreachable
    except ValueError as err:
        return "error", str(err)


def backbone_layout(layout_seed, n, range_m, energies):
    """The first of a few seeded layouts whose cover and forwarding
    problem build (the last one tried if none does), with the given
    batteries and failed nodes."""
    field = v.Field(100, 100, 10, 10)
    for attempt in range(20):
        sc = scenario_from(
            v.deploy_uniform(field, n, layout_seed + 1000 * attempt),
            range_m, energies[:n], field)
        try:
            tree = v.build_min_cover(*graph_and_state(sc), TH).tree_nodes
            v.build_forwarding_problem(*graph_and_state(sc), tree, TH,
                                       v.FitnessParams())
            return sc
        except v.ConstructionFailed:
            pass
    return sc


@settings(max_examples=200)
@given(layout_seed=st.integers(0, 2**16), n=st.integers(1, 40),
       range_m=st.sampled_from([30.0, 40.0, 55.0]),
       energies=st.lists(st.sampled_from([2.0, 2.0, 2.0, 0.5, 0.05, 0.0]),
                         min_size=40, max_size=40),
       mode=st.sampled_from(["normalized", "raw"]),
       origin_probability=st.sampled_from([0.0, 0.5, 1.0]),
       rounds=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_compare_load_spread_equals_dict_reference(
        layout_seed, n, range_m, energies, mode, origin_probability, rounds,
        seed):
    """Both busiest-parent counts, and any failure, match the per-node
    dict comparison on random connected layouts with mixed and failed
    batteries."""
    sc = backbone_layout(layout_seed, n, range_m, energies)
    kwargs = dict(fitness_params=v.FitnessParams(mode=mode),
                  origin_probability=origin_probability)
    got = spread_outcome(v.compare_load_spread, sc, rounds, seed, **kwargs)
    assert got == spread_outcome(reference_compare_load_spread, sc, rounds,
                                 seed, **kwargs)


# ---------------------------------------------------------- uniform stream

@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.one_of(
           st.tuples(st.just("take"),
                     st.sampled_from([0, 1, 7, simulate._CHUNK + 5])),
           st.tuples(st.just("read"), st.integers(0, 9),
                     st.integers(0, 9))), max_size=12))
def test_uniform_stream_replays_scalar_draws(seed, ops):
    """Vector takes and reserved scalar reads, in any order, give exactly
    the values of successive scalar rng.random() calls."""
    stream = simulate._Uniforms(np.random.default_rng(seed))
    scalar = np.random.default_rng(seed).random
    for op in ops:
        if op[0] == "take":
            got = stream.take(op[1]).tolist()
            assert got == [scalar() for _ in range(op[1])]
        else:
            # reserve more than is read, as the round loop does
            reserved, extra = op[1], op[2]
            stream.reserve(reserved + extra)
            for _ in range(reserved):
                assert stream.values[stream.pos] == scalar()
                stream.pos += 1


# ------------------------------------------------ full-rescan loop oracle

def run_both(sc, algo, traffic, policy, seed, fitness_params=None,
             e_init=v.E_INIT):
    """Run the route-table loop and the reference loop on one input.

    Returns the two (metrics or unreachable ids, event rows) outcomes;
    the route-table loop's rows are its EventLog as written.
    """
    outcomes = []
    for run, log in ((v.run_simulation, simulate.EventLog()),
                     (reference_run_simulation, [])):
        try:
            result = run(sc, algo, traffic, RADIO, policy, seed,
                         fitness_params=fitness_params, e_init=e_init,
                         event_log=log)
        except v.ConstructionFailed as fail:
            result = fail.unreachable
        outcomes.append((result, log if isinstance(log, list)
                         else event_rows(log)))
    return outcomes


@st.composite
def lifetime_cases(draw):
    field = v.Field(100, 100, draw(st.sampled_from([50.0, 10.0])), 50.0)
    n = draw(st.integers(1, 25))
    e_init = draw(st.sampled_from([0.01, 0.03]))
    th = e_init / draw(st.sampled_from([5, 20]))
    # e_fail above th is accepted input: a node below th is then failed
    e_fail = draw(st.sampled_from([v.DEFAULT_E_FAIL, 0.0, 1.5 * th]))
    # mostly full batteries; some start below th or already failed
    levels = st.sampled_from([e_init] * 6 + [e_init / 2, th / 2, 1e-4])
    xy = v.deploy_uniform(field, n, draw(st.integers(0, 2**16)))
    energies = [draw(levels) for _ in range(n)]
    sc = scenario_from(xy, draw(st.sampled_from([70.0, 45.0, 30.0])),
                       energies, field)
    policy = v.SimPolicy(th=th, e_fail=e_fail,
                         t_move=draw(st.sampled_from([0, None, 1, 4])),
                         grid=draw(st.sampled_from([2, 4])),
                         max_step=draw(st.sampled_from([None, 10.0])))
    traffic = v.TrafficModel(draw(st.sampled_from([0.2, 0.6, 1.0])),
                             draw(st.integers(1, 80)))
    fitness = v.FitnessParams(mode=draw(st.sampled_from(["normalized",
                                                         "raw"])))
    return (sc, draw(st.sampled_from(v.ALGORITHMS)), traffic, policy,
            draw(st.integers(0, 2**32 - 1)), fitness, e_init)


@given(lifetime_cases())
def test_route_table_loop_equals_reference_loop(case):
    sc, algo, traffic, policy, seed, fitness, e_init = case
    new, ref = run_both(sc, algo, traffic, policy, seed, fitness, e_init)
    assert new == ref


# 60 nodes at range 45 and low batteries: deaths, eligibility rebuilds,
# kept and reverted relocations and a mid-run construction failure
@pytest.mark.parametrize("algo", v.ALGORITHMS)
@pytest.mark.parametrize("mode", ["normalized", "raw"])
def test_route_table_loop_equals_reference_on_eventful_runs(algo, mode):
    field = v.Field(200, 200, 100, 100)
    policy = v.SimPolicy(th=0.005, t_move=5)
    traffic = v.TrafficModel(0.1, 300)
    fitness = v.FitnessParams(mode=mode)
    seen = set()
    for layout in (2, 4, 16, 18, 23):
        sc = scenario_from(v.deploy_uniform(field, 60, layout), 45.0,
                           energies=[0.05] * 60)
        new, ref = run_both(sc, algo, traffic, policy, 1, fitness, 0.05)
        assert new == ref
        metrics, events = new
        if isinstance(metrics, v.LifetimeMetrics):
            assert metrics.rounds_until_disconnect is not None
        seen |= {ev if detail != "reverted" else "reverted"
                 for _, ev, _, detail in events}
    assert {"death", "rebuild", "relocate", "reverted", "disconnect"} <= seen


@pytest.mark.parametrize("algo", v.ALGORITHMS)
def test_rounds_without_origins_equal_reference(algo):
    # ten nodes at 2% a round: most rounds send nothing, a few send
    sc = connected_random_scenario(21, n=10, range_m=70.0)
    traffic = v.TrafficModel(0.02, 60)
    new, ref = run_both(sc, algo, traffic, NO_MOVE, 3, e_init=v.E_INIT)
    assert new == ref
    sent = {rnd for rnd, ev, _, _ in new[1] if ev == "packet"}
    assert 0 < len(sent) < 30
    assert new[0].total_energy_consumed > 0


@pytest.mark.parametrize("algo", v.ALGORITHMS)
def test_one_hop_rounds_equal_reference(algo):
    # every node in range of the sink: each packet's walk is one hop
    coords = [(100 + 20 * math.cos(k), 100 + 20 * math.sin(k))
              for k in range(8)]
    sc = scenario_from(coords, range_m=25.0, energies=[0.002] * 8)
    policy = v.SimPolicy(th=0.0004, t_move=0)
    new, ref = run_both(sc, algo, v.TrafficModel(0.7, 400), policy, 5,
                        e_init=0.002)
    assert new == ref
    metrics, events = new
    paths = [parse_path(d) for _, ev, _, d in events if ev == "packet"]
    assert paths and all(len(p) == 2 and p[1] == v.SINK for p in paths)
    assert metrics.first_node_death_round is not None
    assert metrics.tree_load_counts == {} == metrics.tree_load_expected


def test_zero_probability_candidate_keeps_its_load_row():
    # node 2 is exactly the sensing range from tree node 1, so with all
    # weight on distance it picks 1 with probability 0.0; no other node
    # forwards to 1, yet 1 still gets an expected-load row
    coords = [(100.0, 80.0), (110.0, 100.0), (110.0, 130.0), (120.0, 120.0),
              (140.0, 140.0), (150.0, 150.0)]
    sc = scenario_from(coords, range_m=30.0)
    fitness = v.FitnessParams(c1=1.0, c2=0.0, c3=0.0)
    graph, state = graph_and_state(sc)
    tree = v.build_min_cover(graph, state, TH).tree_nodes
    cands, fit = candidate_dicts(graph, v.build_forwarding_problem(
        graph, state, tree, TH, fitness))
    assert cands[2] == [1, 3]
    assert v.selection_probabilities(fit[2]) == [0.0, 1.0]
    new, ref = run_both(sc, "balanced_probabilistic", v.TrafficModel(1.0, 20),
                        NO_MOVE, 3, fitness)
    assert new == ref
    metrics = new[0]
    assert metrics.tree_load_expected[1] == 0.0
    assert 1 not in metrics.tree_load_counts
    assert metrics.tree_load_expected[3] == 40.0  # nodes 2 and 4, 20 rounds


@pytest.mark.parametrize("algo", v.ALGORITHMS)
@pytest.mark.parametrize("at_th", [True, False], ids=["th", "e_fail"])
def test_energies_exactly_at_thresholds_equal_reference(algo, at_th):
    # a node holding exactly th is eligible, one holding exactly e_fail
    # alive, so its first spend is a crossing
    th = 0.004
    sc = connected_random_scenario(13, n=35, range_m=60.0)
    sc.energy[:] = 0.1
    sc.energy[::4] = th if at_th else v.DEFAULT_E_FAIL  # still live
    policy = v.SimPolicy(th=th, t_move=0)
    new, ref = run_both(sc, algo, v.TrafficModel(0.3, 20), policy, 7,
                        e_init=0.1)
    assert new == ref
    assert new[0].reconstructions >= 1


@pytest.mark.parametrize("algo", v.ALGORITHMS)
def test_live_status_on_an_empty_battery_equals_reference(algo):
    # a node that holds neither th nor e_fail is failed from the start,
    # without a logged death
    sc = connected_random_scenario(15, n=35, range_m=60.0)
    sc.energy[::5] = 0.0
    new, ref = run_both(sc, algo, v.TrafficModel(0.5, 30), NO_MOVE, 7)
    assert new == ref
    assert new[0].alive_fraction_curve[0] == (1, 28 / 35)
    assert not [e for e in new[1] if e[1] == "death"]


@pytest.mark.parametrize("th, e_fail", [(0.0, v.DEFAULT_E_FAIL), (0.002, 0.0)],
                         ids=["th=0", "e_fail=0"])
def test_a_battery_at_zero_joules_dies_whatever_the_thresholds(th, e_fail):
    # with a zero threshold, a drained node used to stay live and keep
    # relaying: the th = 0 run went all 3000 rounds and reported 74 J
    # consumed of 0.6 J; node 0 starts live on an empty battery
    field = v.Field(100, 100, 50, 50)
    sc = scenario_from(v.deploy_uniform(field, 60, 1), 40.0, [0.01] * 60,
                       field)
    sc.energy[0] = 0.0
    policy = v.SimPolicy(th=th, e_fail=e_fail, t_move=0)
    new, ref = run_both(sc, "mmevbt", v.TrafficModel(0.5, 3000), policy, 1,
                        e_init=0.01)
    assert new == ref
    metrics, events = new
    assert metrics.alive_fraction_curve[0] == (1, 59 / 60)
    assert metrics.first_node_death_round is not None
    assert metrics.rounds_until_disconnect < 100
    assert 0 not in {node for _, ev, node, _ in events if ev == "death"}


def test_event_log_writes_rows_in_run_order_whatever_the_groups(monkeypatch):
    def ids(*values):
        return np.array(values, dtype=np.int64)

    log = simulate.EventLog()
    log.add_packets(1, ids(3, 2), ids(3, 1, 2), ids(0, 2))
    log.add_packets(2, ids(), ids(), ids())  # a round with no packets
    log.add_packets(3, ids(0), ids(0, 3, 1), ids(0))
    log.add_event(3, "death", 3)
    log.add_event(3, "rebuild", detail="eligibility")
    log.add_packets(4, ids(1, 10), ids(1, 10, 2), ids(0, 1))
    log.add_event(4, "relocate", detail="reverted")
    log.add_packets(5, ids(2, 1), ids(2, 1), ids(0, 1))
    log.add_packets(6, ids(10), ids(10), ids(0))
    log.add_packets(7, ids(2), ids(2, 0), ids(0))
    log.add_event(7, "disconnect", detail="0;10")
    expected = ("1,packet,3,3>1>-1\n1,packet,2,2>-1\n"
                "3,packet,0,0>3>1>-1\n3,death,3,\n3,rebuild,-1,eligibility\n"
                "4,packet,1,1>-1\n4,packet,10,10>2>-1\n"
                "4,relocate,-1,reverted\n"
                "5,packet,2,2>-1\n5,packet,1,1>-1\n6,packet,10,10>-1\n"
                "7,packet,2,2>0>-1\n7,disconnect,-1,0;10\n")
    # three hops a group: groups end inside rounds 1-2 and 5-7 too
    for cap in (simulate._HOP_CAP, 3):
        monkeypatch.setattr(simulate, "_HOP_CAP", cap)
        text = io.StringIO()
        log.write(text)
        assert text.getvalue() == expected


def chain_scenario(energies=None):
    """Node 4 is forced to 3, which draws between 1 and 2; both are
    forced on through 0 to the sink. 5 and 0 reach only the sink, 6
    and 7 are forced through 1 and 2."""
    coords = [(100, 125), (85, 150), (115, 150), (100, 170), (100, 195),
              (80, 115), (60, 160), (140, 160)]
    return scenario_from(coords, 29.5, energies)


def test_forced_chains_stop_at_draws_and_the_sink():
    sc = chain_scenario()
    graph, state = graph_and_state(sc)
    tree = v.build_min_cover(graph, state, TH).tree_nodes
    cands, _ = candidate_dicts(graph, v.build_forwarding_problem(
        graph, state, tree, TH, v.FitnessParams()))
    assert cands == {0: [v.SINK], 1: [0], 2: [0], 3: [1, 2],
                     4: [3], 5: [v.SINK], 6: [1], 7: [2]}
    names = [str(i) for i in range(8)] + ["-1"]
    router = simulate._Router("balanced_probabilistic", RADIO, NO_MOVE,
                              v.FitnessParams(), v.E_INIT)
    router.rebuild(*graph_and_state(sc))
    ptr = router.chain_ptr.tolist()
    # each chain's stop, its heads' names as a packet path shows them,
    # and its senders and heads
    chains = {i: (router.stops[i],
                  ">".join(names[h] for h in router.head[c].tolist()),
                  router.sender[c].tolist(), router.head[c].tolist())
              for i in range(8)
              if (c := router.chain[ptr[i]:ptr[i + 1]]).size}
    assert router.lengths == [b - a for a, b in zip(ptr, ptr[1:9 + 1])]
    assert chains == {
        0: (8, "-1", [0], [8]), 1: (8, "0>-1", [1, 0], [0, 8]),
        2: (8, "0>-1", [2, 0], [0, 8]), 4: (3, "3", [4], [3]),
        5: (8, "-1", [5], [8]), 6: (8, "1>0>-1", [6, 1, 0], [1, 0, 8]),
        7: (8, "2>0>-1", [7, 2, 0], [2, 0, 8])}
    assert np.flatnonzero(np.diff(router.slot_ptr) > 1).tolist() == [3]


def test_chain_walk_equals_reference():
    # forced -> draw -> forced -> sink, and a forced hop onto the sink;
    # node 5 falls below th first, so a rebuild remakes the chains
    sc = chain_scenario([1.0, 0.5, 0.5, 0.5, 0.05, 0.02, 0.05, 0.05])
    policy = v.SimPolicy(th=0.01, t_move=0)
    new, ref = run_both(sc, "balanced_probabilistic", v.TrafficModel(0.5, 400),
                        policy, 5, e_init=0.1)
    assert new == ref
    metrics, events = new
    paths = {tuple(parse_path(d)) for _, ev, _, d in events if ev == "packet"}
    assert {(4, 3, 1, 0, -1), (4, 3, 2, 0, -1), (5, -1)} <= paths
    assert metrics.reconstructions == 1 and metrics.rounds_run > 38


def test_all_forced_multi_hop_balanced_run_equals_reference():
    # every node of this layout has one candidate, some five hops from
    # the sink: each round walks one whole chain per packet and uses up
    # one uniform per hop, until a flip's rebuild fails
    field = v.Field(100, 100, 50, 50)
    sc = scenario_from(v.deploy_uniform(field, 8, 33), 30.0, [0.05] * 8,
                       field)
    policy = v.SimPolicy(th=0.005, t_move=0)
    router = simulate._Router("balanced_probabilistic", RADIO, policy,
                              v.FitnessParams(), 0.05)
    router.rebuild(*graph_and_state(sc))
    assert np.diff(router.slot_ptr).max() == 1
    assert router.lengths == np.diff(router.chain_ptr[:9 + 1]).tolist()
    origins = np.array([0, 3, 3, 7, 5])
    stream = simulate._Uniforms(np.random.default_rng(0))
    rows, firsts = router._walk(origins, stream)
    assert rows.tolist() == origins.tolist() and firsts == [0, 1, 2, 3, 4]
    assert stream.pos == sum(router.lengths[u] for u in origins.tolist())
    new, ref = run_both(sc, "balanced_probabilistic", v.TrafficModel(0.5, 300),
                        policy, 4, e_init=0.05)
    assert new == ref
    metrics, events = new
    paths = [parse_path(d) for _, ev, _, d in events if ev == "packet"]
    assert max(map(len, paths)) == 6  # five hops
    assert metrics.rounds_run > 20 and metrics.rounds_until_disconnect


def fixed_parent_router(algo, sc):
    router = simulate._Router(algo, RADIO, NO_MOVE, v.FitnessParams(),
                              v.E_INIT)
    router.rebuild(*graph_and_state(sc))
    return router


@pytest.mark.parametrize("algo", ["mmevbt", "min_cover_best_parent"])
@pytest.mark.parametrize("layout", [1, 6, 9])
def test_fixed_parent_chains_follow_the_parents(algo, layout):
    sc = connected_random_scenario(layout, n=40, range_m=35.0)
    graph, state = graph_and_state(sc)
    if algo == "mmevbt":
        parent, _ = tree_dicts(graph, v.build_mmevbt(graph, state, RADIO, TH))
    else:
        tree = v.build_min_cover(graph, state, TH).tree_nodes
        cands, fit = candidate_dicts(graph, v.build_forwarding_problem(
            graph, state, tree, TH, v.FitnessParams()))
        parent = {i: best_parent(cands, fit, i) for i in cands}
    router = fixed_parent_router(algo, sc)
    assert np.diff(router.slot_ptr).max() == 1
    n, ptr = len(sc.xy), router.chain_ptr
    for i in range(n):
        want = [i]
        while want[-1] != v.SINK:
            want.append(parent[want[-1]])
        chain = router.chain[ptr[i]:ptr[i + 1]]
        got = [i, *(v.SINK if h == n else h
                    for h in router.head[chain].tolist())]
        assert got == want
        assert router.sender[chain].tolist() == want[:-1]


class FixedUniforms:
    """A Generator stand-in whose random(k) yields given values, then 0."""

    def __init__(self, values):
        self.values = values

    def random(self, k):
        return np.array((self.values + [0.0] * k)[:k])


def test_walk_draws_bisect_each_row_in_place():
    # three draw nodes, two slots each, all onto the sink (vertex 3);
    # node 1's sums end at the largest double below 1, node 2's below it
    router = simulate._Router("balanced_probabilistic", RADIO, NO_MOVE,
                              v.FitnessParams(), v.E_INIT)
    router.sink, router.max_draws = 3, 1
    router.lengths, router.stops, router.heads = [0] * 4, [0, 1, 2, 3], [3] * 6
    router.starts = [0, 2, 4, 6, 6]
    router.cums = [0.5, 1.0, 0.25, 1 - 2**-53, 0.5, 1 - 2**-52]
    uniforms = [0.5, 0.25, 1 - 2**-53, 1 - 2**-53, 0.0]
    stream = simulate._Uniforms(FixedUniforms(uniforms))
    rows, firsts = router._walk(np.array([0, 1, 1, 2, 2]), stream)
    # a uniform equal to a sum picks the next slot; one at or above a
    # row's last sum picks that row's last slot, never the next row's
    assert (rows - 4).tolist() == [1, 3, 3, 5, 4]
    assert firsts == [0, 1, 2, 3, 4] and stream.pos == 5


@st.composite
def charge_rounds(draw):
    """A round's packets as sender paths ending at vertex n, their hops'
    tx costs, rx, th, the floor, and energies at and just below th and
    the floor or small enough for the round to floor at 0."""
    n = draw(st.integers(1, 6))
    th = draw(st.just(0.0) | st.floats(0.0, 0.01))
    e_fail = draw(st.just(0.0) | st.floats(0.0, 0.01))
    floor = v.SimPolicy(th=th, e_fail=e_fail).floor
    edges = [th, math.nextafter(th, 0.0), floor, math.nextafter(floor, 0.0)]
    energy = draw(st.lists(st.sampled_from(edges) | st.floats(0.0, 0.02),
                           min_size=n, max_size=n))
    paths = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=4).map(lambda p: [*p, n]),
                          max_size=6))
    hops = sum(len(p) - 1 for p in paths)
    costs = st.floats(0.0, 0.01)
    tx = draw(st.lists(costs, min_size=hops, max_size=hops))
    return np.array(energy), paths, np.array(tx), draw(costs), th, floor


@settings(max_examples=300, deadline=None)
@given(charge_rounds())
def test_charge_equals_a_per_hop_loop(case):
    energy, paths, tx, rx, th, floor = case
    # the scalar loop: rx then tx per hop, no rx at an origin, spends
    # kept in first-touch order, a debit floored at 0
    spend, k = {}, 0
    for path in paths:
        for hop, sender in enumerate(path[:-1]):
            if hop:
                spend[sender] = spend.get(sender, 0.0) + rx
            spend[sender] = spend.get(sender, 0.0) + tx[k]
            k += 1
    want_energy, total = energy.tolist(), 0.0
    for node, amount in spend.items():
        total += amount
        want_energy[node] = max(want_energy[node] - amount, 0.0)
    before = energy.tolist()
    dead = sorted(i for i in spend if want_energy[i] < floor)
    flipped = any(before[i] >= th > want_energy[i] for i in spend)

    senders = np.array([u for p in paths for u in p[:-1]], dtype=np.int64)
    first = np.cumsum([0, *(len(p) - 1 for p in paths)])[:-1]
    got = simulate._charge(energy, senders, tx, first, rx, th, floor)
    assert got[:2] == (dead, flipped)
    assert got[2].hex() == total.hex()
    assert [e.hex() for e in energy.tolist()] == [e.hex() for e in want_energy]


# ---------------------------------------------------------- state arrays

@st.composite
def drained_states(draw):
    """A layout after drains, deaths and a sink move: the Scenario, a copy
    of its state, and the moved graph."""
    n = draw(st.integers(1, 25))
    th = 0.002
    e_fail = draw(st.sampled_from([v.DEFAULT_E_FAIL, 0.0, 1.5 * th]))
    levels = [0.01] * 4 + [0.005, th, th / 2, 1e-4, 0.0]
    energy = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    live = draw(st.lists(st.sampled_from([True] * 7 + [False]),
                         min_size=n, max_size=n))
    field = v.Field(100, 100, 50.0, 50.0)
    sc = scenario_from(v.deploy_uniform(field, n, draw(st.integers(0, 2**16))),
                       draw(st.sampled_from([70.0, 45.0])), energy, field)
    graph = v.build_reachability(sc.points(), sc.sensing_range)
    sink = (draw(st.sampled_from([0.0, 10.0, 50.0, 100.0])),
            draw(st.sampled_from([0.0, 37.5, 50.0])))
    sc.field = v.Field(100, 100, *sink)
    graph.move_sink(sink)
    return sc, (np.array(energy), np.array(live)), graph, th, e_fail


def outcome(build, *args, **kwargs):
    """build's result, or the type and message of what it raised."""
    try:
        return build(*args, **kwargs)
    except (v.ConstructionFailed, ValueError) as exc:
        return type(exc), str(exc)


def input_arrays(graph, state):
    """The arrays a build or relocate_sink reads and must not write."""
    return (*state, graph.points, graph.indptr, graph.nbrs)


def fitness_bits(candidates, fitness):
    """A problem's candidates, every fitness as its exact bits."""
    return candidates, {i: [f.hex() for f in fit]
                        for i, fit in fitness.items()}


@given(drained_states(), st.sampled_from(["normalized", "raw"]))
def test_builds_equal_references_on_drained_states(case, mode):
    """After drains, deaths and a sink move, each build and relocate_sink
    over (graph, state) equals its reference over the Scenario that
    holds that state's energies and its live mask, and leaves the state
    and the graph's arrays as they were."""
    sc, state, graph, th, _ = case
    live = state[1]
    kept = [a.copy() for a in input_arrays(graph, state)]

    tree = outcome(v.build_mmevbt, graph, state, RADIO, th)
    want = outcome(reference_mmevbt, sc, RADIO, th, live=live)
    if isinstance(want[0], dict):  # not an error's (type, message)
        assert tree_dicts(graph, tree) == want
    else:
        assert tree == want

    cover = outcome(v.build_min_cover, graph, state, th)
    chosen, uncovered = reference_min_cover(sc, th, live)
    if chosen is None:
        failed = v.ConstructionFailed(uncovered)
        assert cover == (type(failed), str(failed))
    else:
        assert cover.tree_nodes == chosen
        params = v.FitnessParams(mode=mode)
        got = outcome(v.build_forwarding_problem, graph, state, chosen, th,
                      params, 0.01)
        want = outcome(reference_forwarding_problem, sc, chosen, th, params,
                       0.01, live=live)
        if isinstance(want, ReferenceProblem):
            assert fitness_bits(*candidate_dicts(graph, got)) == \
                fitness_bits(want.candidates, want.fitness)
        else:
            assert got == want

    for grid, step in [(2, None), (4, 10.0)]:
        got = outcome(v.relocate_sink, graph, state, sc.field,
                      v.SimPolicy(grid=grid, max_step=step))
        if live.any():
            assert got == reference_relocate_sink(sc, grid, step, live)
        else:
            assert got == (ValueError,
                           "relocate_sink needs at least one live node")
    assert all(np.array_equal(a, b)
               for a, b in zip(kept, input_arrays(graph, state)))


def test_builds_write_no_node():
    """Every backbone build and the sink relocation leave the state
    arrays, the graph's points and CSR arrays and the Scenario they came
    from as they were."""
    sc = ten_client_two_gateway_scenario()
    sc.energy[:10] = np.resize([v.E_INIT, TH / 2, TH], 10)  # the clients
    live = np.ones(14, dtype=bool)
    live[:10] = np.arange(10) % 4 != 3  # NodeStatus.FAILED is 4th
    before, field = arrays_of(sc), sc.field
    graph, state = graph_and_state(sc, live)
    kept = [a.copy() for a in input_arrays(graph, state)]
    tree = v.build_mmevbt(graph, state, RADIO, TH)
    cover = v.build_min_cover(graph, state, TH).tree_nodes
    v.build_forwarding_problem(graph, state, cover, TH, v.FitnessParams())
    v.relocate_sink(graph, state, sc.field,
                    v.SimPolicy(grid=2, max_step=5.0))
    assert tree_nodes(graph, tree) >= {10, 11} and cover == {10, 11}
    assert arrays_of(sc) == before and sc.field is field
    assert all(np.array_equal(a, b)
               for a, b in zip(kept, input_arrays(graph, state)))


# ------------------------------------------------------- array round kernel

def test_bincount_order_matters_for_floats():
    # the left fold in index order is what np.bincount must reproduce
    big, one = 1e16, 1.0
    assert (big + one) + one != (one + one) + big
    assert np.bincount([0, 0, 0], weights=[big, one, one])[0] == big
    assert np.bincount([0, 0, 0], weights=[one, one, big])[0] == big + 2


@given(st.lists(st.tuples(st.integers(0, 4),
                          st.sampled_from([1e16, 1.0, 0.5, 3e-3, 7.25e15,
                                           0.0, 1e-300])),
                max_size=40))
def test_weighted_bincount_is_a_left_fold_in_input_order(charges):
    """The array round kernel's premise: per bin, np.bincount adds the
    weights one by one in input order, starting from 0.0."""
    fold = [0.0] * 5
    for i, w in charges:
        fold[i] = fold[i] + w
    idx = np.array([i for i, _ in charges], dtype=np.int64)
    weights = np.array([w for _, w in charges])
    assert np.bincount(idx, weights=weights, minlength=5).tolist() == fold


@given(st.lists(st.one_of(
    st.floats(0.0, 1.0), st.floats(0.0, 1e300),
    st.floats(0.0, 1e-300, allow_subnormal=True),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e16, 1.0, 0.1])),
    min_size=1, max_size=80))
def test_cumsum_is_a_left_fold(values):
    """The round total's premise: np.cumsum adds one by one from the
    left, as left_sum does (np.sum would add pairwise)."""
    values = [abs(x) for x in values]  # no -0.0
    assert float(np.cumsum(values)[-1]).hex() == left_sum(values).hex()


@pytest.mark.parametrize("bad", [
    v.SimPolicy(th=-0.1), v.SimPolicy(th=math.nan), v.SimPolicy(t_move=-5),
    v.SimPolicy(max_step=-10.0), v.SimPolicy(grid=0),
    v.SimPolicy(grid=2**62 + 1),
    v.SimPolicy(e_fail=-1.0), v.SimPolicy(e_fail=math.nan),
    v.TrafficModel(rounds_max=-3), v.TrafficModel(origin_probability=1.5),
    v.TrafficModel(origin_probability=-0.1),
], ids=["th<0", "th=nan", "t_move<0", "max_step<0", "grid=0", "grid>2**62",
        "e_fail<0", "e_fail=nan", "rounds_max<0", "origin_p>1", "origin_p<0"])
def test_policy_and_traffic_reject_bad_values(bad):
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("policy, traffic", [
    (v.SimPolicy(t_move=-5, max_step=-10.0), v.TrafficModel()),
    (v.SimPolicy(t_move=-5), v.TrafficModel()),
    (v.SimPolicy(max_step=-10.0), v.TrafficModel()),
    (v.SimPolicy(th=-1.0), v.TrafficModel()),
    (NO_MOVE, v.TrafficModel(rounds_max=-3)),
], ids=["t_move_and_max_step<0", "t_move<0", "max_step<0", "th<0",
        "rounds_max<0"])
def test_run_simulation_rejects_bad_policy_or_traffic(policy, traffic):
    sc = connected_random_scenario(20, n=20)
    with pytest.raises(ValueError):
        v.run_simulation(sc, "mmevbt", traffic, RADIO, policy, seed=1)


def refills_inside_chains(walks, events):
    """How many stream refills put their first new value strictly inside
    a forced chain, replaying each round's packet paths (from events)
    over that round's chains; walks holds one (index of the first new
    value or None, chain length by node) per round."""
    paths = {}
    for rnd, ev, _, detail in events:
        if ev == "packet":
            paths.setdefault(rnd, []).append(parse_path(detail))
    inside = 0
    for rnd, (new_at, lengths) in enumerate(walks, 1):
        pos = 0  # the next value a hop uses up
        for path in paths.get(rnd, []):
            k = 0
            while path[k] != v.SINK:
                step = lengths[path[k]] or 1  # a chain or one draw
                inside += new_at is not None and pos < new_at < pos + step
                pos, k = pos + step, k + step
    return inside


@pytest.mark.parametrize("algo", v.ALGORITHMS)
def test_route_table_loop_equals_reference_across_refills(algo, monkeypatch):
    # a tiny chunk makes the stream refill every round, between the origin
    # draws and the hop draws, carrying unread values over
    monkeypatch.setattr(simulate, "_CHUNK", 3)
    monkeypatch.setattr(simulate, "_HOP_CAP", 3)  # and a write every round
    routers, walks = [], []

    class Router(simulate._Router):
        def __init__(self, *args):
            super().__init__(*args)
            routers.append(self)

    class Uniforms(simulate._Uniforms):
        def reserve(self, k):
            old, carried = self._array, len(self._array) - self.pos
            super().reserve(k)
            self.new_at = None if self._array is old else carried

        @property
        def values(self):  # read by the balanced walk, once a round
            walks.append((self.new_at, routers[-1].lengths))
            return super().values

    monkeypatch.setattr(simulate, "_Router", Router)
    monkeypatch.setattr(simulate, "_Uniforms", Uniforms)
    sc = scenario_from(v.deploy_uniform(v.Field(200, 200, 100, 100), 60, 16),
                       45.0, energies=[0.05] * 60)
    policy = v.SimPolicy(th=0.005, t_move=5)
    new, ref = run_both(sc, algo, v.TrafficModel(0.3, 300), policy, 1,
                        e_init=0.05)
    assert new == ref
    assert len([e for e in new[1] if e[1] == "packet"]) > 100
    if algo == "balanced_probabilistic":
        assert len(walks) == new[0].rounds_run
        assert refills_inside_chains(walks, new[1]) > 0


def assert_run_leaves_numpy_ma_unloaded(tmp_path, algorithm):
    """A CLI run with relocation every 5 rounds, in a fresh interpreter,
    rebuilds its backbone and never imports numpy.ma."""
    scen, out = str(tmp_path / "s.txt"), str(tmp_path / "out")
    code = "\n".join([
        "import sys",
        "from vbtsim.cli import main",
        f"assert main(['gen-scenario', {scen!r}, '--set', 'n_nodes=60',"
        " '--range', '45', '--seed', '16', '--set', 'energy.e_init=0.05',"
        " '--set', 'policy.th=0.005']) == 0",
        f"assert main(['run', {scen!r}, '--out', {out!r}, '--events',"
        f" '--set', 'algorithm={algorithm}', '--set',"
        " 'policy.t_move=5', '--set', 'policy.th=0.005']) == 0",
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[:2] == ['numpy', 'ma']))",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "[]"
    with open(os.path.join(out, "run_metrics.csv"), encoding="utf-8") as fh:
        header, row = [ln for ln in fh.read().splitlines()
                       if not ln.startswith("#")]
    assert int(dict(zip(header.split(","),
                        row.split(",")))["reconstructions"]) > 0
    with open(os.path.join(out, "run_events.csv"), encoding="utf-8") as fh:
        relocated = [ln for ln in fh if ",relocate," in ln
                     and "reverted" not in ln]
    assert relocated


def test_balanced_run_leaves_numpy_ma_unloaded(tmp_path):
    """np.unique and a few other numpy calls import numpy.ma on first use,
    about 0.5 MB of code objects; the rebuilds must not need it."""
    assert_run_leaves_numpy_ma_unloaded(tmp_path, "balanced_probabilistic")


def test_mmevbt_run_leaves_numpy_ma_unloaded(tmp_path):
    """Nor may the shortest-path tree, the sink moves or the relocation."""
    assert_run_leaves_numpy_ma_unloaded(tmp_path, "mmevbt")
