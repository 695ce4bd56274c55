"""Round-based lifetime simulation and the load-spread comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import vbtsim as v
from oracles import reference_run_simulation, route_energy
from vbtsim import simulate

TH = v.DEFAULT_TH
RADIO = v.RadioParams()
NO_MOVE = v.SimPolicy(th=TH, e_fail=v.DEFAULT_E_FAIL, t_move=0)


def scenario_from(coords, range_m, energies=None, field=None):
    field = field or v.Field(200, 200, 100, 100)
    nodes = []
    for i, (x, y) in enumerate(coords):
        e = v.E_INIT if energies is None else energies[i]
        nodes.append(v.Node(id=i, x=x, y=y, energy=e,
                            status=v.classify_status(e, 0, TH, v.DEFAULT_E_FAIL)))
    return v.Scenario(field, nodes, range_m, 0)


def connected_random_scenario(seed, n=30, range_m=45.0):
    field = v.Field(200, 200, 100, 100)
    while True:
        nodes = v.deploy_uniform(field, n, seed=seed)
        sc = v.Scenario(field, nodes, range_m, seed)
        try:
            v.build_mmevbt(sc, RADIO, TH)
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


def test_input_scenario_is_never_mutated():
    sc = connected_random_scenario(3)
    before = [(n.id, n.x, n.y, n.energy, n.status) for n in sc.nodes]
    sink_before = sc.field.sink_pos
    v.run_simulation(sc, "mmevbt", v.TrafficModel(rounds_max=50), RADIO,
                     v.SimPolicy(th=TH, e_fail=v.DEFAULT_E_FAIL, t_move=10),
                     seed=4)
    assert [(n.id, n.x, n.y, n.energy, n.status) for n in sc.nodes] == before
    assert sc.field.sink_pos == sink_before


@pytest.mark.parametrize("algo", v.ALGORITHMS)
def test_runs_leave_the_input_scenario_unchanged(algo):
    # low batteries: nodes die and the sink moves, all on the copy
    sc = connected_random_scenario(5, n=30, range_m=50.0)
    for n in sc.nodes:
        n.energy = 0.01
    before = [(n.energy, n.status) for n in sc.nodes]
    policy = v.SimPolicy(th=0.002, t_move=3)
    m = v.run_simulation(sc, algo, v.TrafficModel(0.5, 200), RADIO, policy,
                         seed=2, e_init=0.01)
    assert m.first_node_death_round is not None
    v.compare_load_spread(sc, rounds=5, seed=2, th=0.002, e_init=0.01)
    assert [(n.energy, n.status) for n in sc.nodes] == before
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
    for n in sc.nodes:
        n.energy = 0.02
    traffic = v.TrafficModel(origin_probability=0.3, rounds_max=150)
    policy = v.SimPolicy(th=0.002, e_fail=v.DEFAULT_E_FAIL, t_move=0)
    events = []
    m = v.run_simulation(sc, algo, traffic, RADIO, policy, seed=8,
                         e_init=0.02, event_log=events)
    pos = sc.positions()
    replayed = sum(route_energy(RADIO, pos, parse_path(detail))
                   for _, ev, _, detail in events if ev == "packet")
    assert m.total_energy_consumed == pytest.approx(replayed, rel=1e-9)
    assert m.total_energy_consumed > 0  # the drain really happened


@pytest.mark.parametrize("algo", v.ALGORITHMS)
def test_packets_never_transit_ineligible_nodes(algo):
    # independent replay: track energies round by round and check every
    # relay had threshold energy and every origin was alive at send time
    sc = connected_random_scenario(7, n=25, range_m=50.0)
    e_start = 0.02
    for n in sc.nodes:
        n.energy = e_start
    th = 0.004
    policy = v.SimPolicy(th=th, e_fail=v.DEFAULT_E_FAIL, t_move=0)
    traffic = v.TrafficModel(origin_probability=0.4, rounds_max=200)
    events = []
    v.run_simulation(sc, algo, traffic, RADIO, policy, seed=9,
                     e_init=e_start, event_log=events)
    pos = sc.positions()
    energy = {n.id: e_start for n in sc.nodes}
    dead = set()
    by_round = {}
    for rnd, ev, node, detail in events:
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
        for n in sc.nodes:
            n.energy = 0.01
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
    for n in sc.nodes:
        n.energy = 0.02
    traffic = v.TrafficModel(origin_probability=0.4, rounds_max=250)
    policy = v.SimPolicy(th=0.002, e_fail=v.DEFAULT_E_FAIL, t_move=0)
    events = []
    v.run_simulation(sc, "mmevbt", traffic, RADIO, policy, seed=6,
                     e_init=0.02, event_log=events)
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
    for n in sc.nodes:
        n.energy = 0.004 if n.id % 5 == 0 else 0.1
    traffic = v.TrafficModel(origin_probability=0.4, rounds_max=100)
    policy = v.SimPolicy(th=0.002, e_fail=v.DEFAULT_E_FAIL, t_move=0)
    events = []
    m = v.run_simulation(sc, "mmevbt", traffic, RADIO, policy, seed=7,
                         e_init=0.1, event_log=events)
    rebuilds = [e for e in events if e[1] == "rebuild"]
    assert m.reconstructions == len(rebuilds)
    assert m.reconstructions >= 1


# -------------------------------------------------------------- relocation

def test_relocation_moves_the_sink_and_rebuilds():
    sc = connected_random_scenario(14, n=40, range_m=50.0)
    policy = v.SimPolicy(th=TH, e_fail=v.DEFAULT_E_FAIL, t_move=5, grid=4)
    traffic = v.TrafficModel(origin_probability=0.2, rounds_max=20)
    events = []
    m = v.run_simulation(sc, "mmevbt", traffic, RADIO, policy, seed=2,
                         event_log=events)
    moves = [e for e in events if e[1] == "relocate"]
    assert moves and all(e[0] % 5 == 0 for e in moves)
    assert m.reconstructions >= len([e for e in moves if e[3] != "reverted"])


def test_failed_relocation_reverts_and_sim_continues():
    # the rich lone node pulls the sink into a cell from which nothing is
    # reachable; every attempt must be rolled back
    field = v.Field(200, 200, 50, 50)
    nodes = [
        v.Node(0, 79, 50, 0.5, v.NodeStatus.CANDIDATE_NON_TREE),
        v.Node(1, 105, 60, 2.0, v.NodeStatus.CANDIDATE_NON_TREE),
    ]
    sc = v.Scenario(field, nodes, 30.0, 0)
    policy = v.SimPolicy(th=TH, e_fail=v.DEFAULT_E_FAIL, t_move=4, grid=2)
    traffic = v.TrafficModel(origin_probability=0.0, rounds_max=12)
    events = []
    m = v.run_simulation(sc, "mmevbt", traffic, RADIO, policy, seed=1,
                         event_log=events)
    moves = [e for e in events if e[1] == "relocate"]
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
    tree, _ = v.build_min_cover(sc, TH)
    assert tree == {10, 11}
    prob = v.build_forwarding_problem(sc, tree, TH, v.FitnessParams())
    for i in range(10):
        assert prob.candidates[i] == [10, 11]
        assert prob.probabilities(i) == [0.5, 0.5]  # exact by symmetry
    assert prob.candidates[10] == [v.SINK] and prob.candidates[11] == [v.SINK]
    assert prob.candidates[12] == [10] and prob.candidates[13] == [11]

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

    Returns the two (metrics or unreachable ids, event log) outcomes.
    """
    outcomes = []
    for run in (v.run_simulation, reference_run_simulation):
        events = []
        try:
            result = run(sc, algo, traffic, RADIO, policy, seed,
                         fitness_params=fitness_params, e_init=e_init,
                         event_log=events)
        except v.ConstructionFailed as fail:
            result = fail.unreachable
        outcomes.append((result, events))
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
    nodes = v.deploy_uniform(field, n, draw(st.integers(0, 2**16)),
                             e_init=e_init, th=th, e_fail=e_fail)
    for node in nodes:
        node.energy = draw(levels)
        node.status = v.classify_status(node.energy, 0, th, e_fail)
    sc = v.Scenario(field, nodes, draw(st.sampled_from([70.0, 45.0, 30.0])))
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
        nodes = v.deploy_uniform(field, 60, layout, e_init=0.05, th=0.005)
        sc = v.Scenario(field, nodes, 45.0, layout)
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


@pytest.mark.parametrize("algo", v.ALGORITHMS)
@pytest.mark.parametrize("at_th", [True, False], ids=["th", "e_fail"])
def test_energies_exactly_at_thresholds_equal_reference(algo, at_th):
    # a node holding exactly th is eligible, one holding exactly e_fail
    # alive, so its first spend is a crossing
    th = 0.004
    sc = connected_random_scenario(13, n=35, range_m=60.0)
    for n in sc.nodes:
        n.energy = 0.1 if n.id % 4 else th if at_th else v.DEFAULT_E_FAIL
        n.status = v.classify_status(n.energy, 0, th)
    policy = v.SimPolicy(th=th, t_move=0)
    new, ref = run_both(sc, algo, v.TrafficModel(0.3, 20), policy, 7,
                        e_init=0.1)
    assert new == ref
    assert new[0].reconstructions >= 1


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


@pytest.mark.parametrize("bad", [
    v.SimPolicy(th=-0.1), v.SimPolicy(th=math.nan), v.SimPolicy(t_move=-5),
    v.SimPolicy(max_step=-10.0), v.SimPolicy(grid=0),
    v.TrafficModel(rounds_max=-3), v.TrafficModel(origin_probability=1.5),
    v.TrafficModel(origin_probability=-0.1),
], ids=["th<0", "th=nan", "t_move<0", "max_step<0", "grid=0",
        "rounds_max<0", "origin_p>1", "origin_p<0"])
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


@pytest.mark.parametrize("algo", v.ALGORITHMS)
def test_route_table_loop_equals_reference_across_refills(algo, monkeypatch):
    # a tiny chunk makes the stream refill every round, between the origin
    # draws and the hop draws, carrying unread values over
    monkeypatch.setattr(simulate, "_CHUNK", 3)
    field = v.Field(200, 200, 100, 100)
    nodes = v.deploy_uniform(field, 60, 16, e_init=0.05, th=0.005)
    sc = v.Scenario(field, nodes, 45.0, 16)
    policy = v.SimPolicy(th=0.005, t_move=5)
    new, ref = run_both(sc, algo, v.TrafficModel(0.3, 300), policy, 1,
                        e_init=0.05)
    assert new == ref
    assert len([e for e in new[1] if e[1] == "packet"]) > 100
