"""Round-based traffic simulation over a chosen backbone algorithm.

Each round: draw packet origins, fix every route against start-of-round
state, debit radio costs, refresh statuses, rebuild the backbone when any
node's relay eligibility flipped, and periodically relocate the sink.
Everything is driven by one seeded generator, so a (scenario, config,
seed) triple always replays bit-for-bit.

Each build fills a route table (_Router): every live node's candidate
parents with the tx cost of each hop, the cumulative selection sums the
probabilistic algorithm draws from (the other two have one parent), the
node's row of expected load, and the serving counts. A round then only
walks that table and touches the nodes that spent energy. This is exact:
a status is a pure function of (energy, serving count), serving counts
change only at a rebuild and every rebuild refreshes every status, so
only a node that spent can change status; and relay eligibility only
ever flips from true to false, so a rebuild is due exactly when such a
node has just died or dropped below th. Sums are taken per node in the
same packet and hop order, so every float is bit-identical.
"""

from __future__ import annotations

import copy
from itertools import accumulate, compress
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .balanced import (
    FitnessParams,
    build_forwarding_problem,
    draw_index,
    select_parent,
)
from .energy import DEFAULT_E_FAIL, RadioParams, rx_cost, tx_cost
from .mincover import build_min_cover
from .mmevbt import build_mmevbt, relocate_sink, _refresh_statuses
from .model import (
    DEFAULT_TH,
    E_INIT,
    SINK,
    ConstructionFailed,
    NodeStatus,
    Scenario,
    build_reachability,
    classify_status,
    distance,
)

ALGORITHMS = ("mmevbt", "min_cover_best_parent", "balanced_probabilistic")


@dataclass(frozen=True)
class TrafficModel:
    origin_probability: float = 0.1  # per node per round
    rounds_max: int = 1000

    def validate(self) -> "TrafficModel":
        if not 0.0 <= self.origin_probability <= 1.0:
            raise ValueError("traffic.origin_probability must be in [0,1]")
        if self.rounds_max < 0:
            raise ValueError("traffic.rounds_max must be >= 0")
        return self


@dataclass(frozen=True)
class SimPolicy:
    th: float = DEFAULT_TH
    e_fail: float = DEFAULT_E_FAIL
    t_move: Optional[int] = 50  # sink relocation cadence in rounds; None = off
    grid: int = 4
    max_step: Optional[float] = None

    def validate(self) -> "SimPolicy":
        if not self.th >= 0:
            raise ValueError("policy.th must be >= 0")
        if self.grid < 1:
            raise ValueError("policy.grid must be >= 1")
        if self.t_move is not None and self.t_move < 0:
            raise ValueError("policy.t_move must be >= 0 (0 or none = off)")
        if self.max_step is not None and self.max_step < 0:
            raise ValueError("policy.max_step must be >= 0 (none = unbounded)")
        return self


@dataclass
class LifetimeMetrics:
    first_node_death_round: Optional[int] = None
    rounds_until_disconnect: Optional[int] = None
    alive_fraction_curve: list[tuple[int, float]] = dc_field(default_factory=list)
    reconstructions: int = 0
    total_energy_consumed: float = 0.0
    rounds_run: int = 0
    tree_load_counts: dict[int, int] = dc_field(default_factory=dict)
    tree_load_expected: dict[int, float] = dc_field(default_factory=dict)


class _Router:
    """Route table of one backbone build for one algorithm.

    hops[i] is (candidates, tx cost of the hop to each, cumulative
    selection sums) for every live node i; the sums are None for the
    fixed-parent algorithms, whose one candidate is the parent. loads[i]
    holds the (tree node, weight) pairs one packet from i adds to the
    expected load. serving counts how many nodes each tree node forwards
    for; it fixes, with its energy, every status until the next build.
    """

    def __init__(self, algorithm: str, radio: RadioParams, policy: SimPolicy,
                 fitness_params: FitnessParams, e_init: float):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{algorithm}'")
        self.algorithm = algorithm
        self.radio = radio
        self.policy = policy
        self.fitness_params = fitness_params
        self.e_init = e_init
        self.hops: dict[int, tuple[list[int], list[float],
                                   Optional[list[float]]]] = {}
        self.loads: dict[int, list[tuple[int, float]]] = {}
        self.serving: dict[int, int] = {}

    def rebuild(self, scenario: Scenario, graph) -> None:
        """Reconstruct the backbone; raises ConstructionFailed and then
        changes nothing."""
        th, e_fail = self.policy.th, self.policy.e_fail
        if self.algorithm == "mmevbt":
            tree = build_mmevbt(scenario, self.radio, th, graph=graph,
                                e_fail=e_fail)
            parents = {i: [p] for i, p in tree.parent.items()}
            probs = None
            serving = tree.children_count
        else:
            tree_set, _ = build_min_cover(scenario, th, graph=graph)
            problem = build_forwarding_problem(scenario, tree_set, th,
                                               self.fitness_params,
                                               self.e_init, graph=graph)
            if self.algorithm == "balanced_probabilistic":
                parents = problem.candidates
                probs = {i: problem.probabilities(i) for i in parents}
            else:
                parents = {i: [problem.best_parent(i)]
                           for i in problem.candidates}
                probs = None
            serving = {i: 0 for i in tree_set}
            for cands in problem.candidates.values():
                for cand in cands:
                    if cand != SINK:
                        serving[cand] = serving.get(cand, 0) + 1
            _refresh_statuses(scenario, serving, th, e_fail)

        pos = scenario.positions()
        self.hops = {}
        self.loads = {}
        for i, cands in parents.items():
            costs = [tx_cost(self.radio, distance(pos[i], pos[c]))
                     for c in cands]
            if probs is None:
                self.hops[i] = (cands, costs, None)
                self.loads[i] = [(c, 1.0) for c in cands if c != SINK]
            else:
                self.hops[i] = (cands, costs, list(accumulate(probs[i])))
                self.loads[i] = [(c, p) for c, p in zip(cands, probs[i])
                                 if c != SINK]
        self.serving = serving


def run_simulation(scenario: Scenario, algorithm: str, traffic: TrafficModel,
                   radio: RadioParams, policy: SimPolicy, seed: int,
                   fitness_params: Optional[FitnessParams] = None,
                   e_init: float = E_INIT,
                   event_log: Optional[list] = None) -> LifetimeMetrics:
    """Run one seeded lifetime simulation; the input scenario is untouched.

    event_log, when given, collects (round, event, node, detail) tuples
    for packet sends, deaths, rebuilds, relocations and disconnect.
    """
    traffic.validate()
    policy.validate()
    sc = copy.deepcopy(scenario)
    fparams = (fitness_params or FitnessParams()).validate()
    radio.validate()
    rng = np.random.default_rng(seed)
    random = rng.random
    nodes = sc.nodes
    n_total = len(nodes)
    th, e_fail = policy.th, policy.e_fail
    rx = rx_cost(radio)
    metrics = LifetimeMetrics()
    load_counts = metrics.tree_load_counts
    load_expected = metrics.tree_load_expected

    def log(round_no: int, event: str, node: int = -1, detail: str = "") -> None:
        if event_log is not None:
            event_log.append((round_no, event, node, detail))

    graph = build_reachability(sc)
    router = _Router(algorithm, radio, policy, fparams, e_init)
    router.rebuild(sc, graph)  # initial ConstructionFailed propagates
    alive = sc.live_ids()

    for round_no in range(1, traffic.rounds_max + 1):
        metrics.rounds_run = round_no
        hops, loads = router.hops, router.loads
        draws = random(len(alive))
        origins = list(compress(alive,
                                (draws < traffic.origin_probability).tolist()))

        # routes all reflect start-of-round energies; debits land afterwards
        spend: dict[int, float] = {}
        for origin in origins:
            path = [origin]
            u = origin
            while u != SINK:
                cands, costs, cumulative = hops[u]
                k = 0 if cumulative is None else draw_index(cumulative,
                                                            random())
                v = cands[k]
                spend[u] = spend.get(u, 0.0) + costs[k]
                if v != SINK:
                    spend[v] = spend.get(v, 0.0) + rx
                path.append(v)
                u = v
            if event_log is not None:
                log(round_no, "packet", origin,
                    ">".join(str(v) for v in path))
            # load bookkeeping counts the origin's parent pick, one per packet
            if path[1] != SINK:
                load_counts[path[1]] = load_counts.get(path[1], 0) + 1
            for cand, p in loads[origin]:
                load_expected[cand] = load_expected.get(cand, 0.0) + p

        metrics.total_energy_consumed += sum(spend.values())
        # only a node that spent can change status or relay eligibility
        serving = router.serving
        died = False
        flipped = False
        for node_id in sorted(spend):
            node = nodes[node_id]
            eligible = node.energy >= th
            node.energy = max(0.0, node.energy - spend[node_id])
            node.status = classify_status(node.energy,
                                          serving.get(node_id, 0), th, e_fail)
            if node.status is NodeStatus.FAILED:
                died = True
                log(round_no, "death", node_id)
                if metrics.first_node_death_round is None:
                    metrics.first_node_death_round = round_no
            elif eligible and node.energy < th:
                flipped = True
        if died:
            alive = [i for i in alive if nodes[i].status is not NodeStatus.FAILED]

        metrics.alive_fraction_curve.append((round_no, len(alive) / n_total))
        if not alive:
            metrics.rounds_until_disconnect = round_no
            log(round_no, "disconnect")
            break

        if died or flipped:
            try:
                router.rebuild(sc, graph)
            except ConstructionFailed as fail:
                metrics.rounds_until_disconnect = round_no
                log(round_no, "disconnect",
                    detail=";".join(str(i) for i in fail.unreachable))
                break
            metrics.reconstructions += 1
            log(round_no, "rebuild", detail="eligibility")

        if policy.t_move and round_no % policy.t_move == 0:
            target = relocate_sink(sc, policy.grid, policy.max_step)
            if target != sc.field.sink_pos:
                saved = sc.field.sink_pos
                sc.field.sink_x, sc.field.sink_y = target
                graph.move_sink(target)
                try:
                    router.rebuild(sc, graph)
                except ConstructionFailed:
                    # rebuild mutates nothing when it fails, so the old
                    # route table is still valid at the old position
                    sc.field.sink_x, sc.field.sink_y = saved
                    graph.move_sink(saved)
                    log(round_no, "relocate", detail="reverted")
                else:
                    metrics.reconstructions += 1
                    log(round_no, "relocate",
                        detail=f"{target[0]:.3f};{target[1]:.3f}")

    return metrics


def compare_load_spread(scenario: Scenario, rounds: int, seed: int, *,
                        th: float = DEFAULT_TH,
                        fitness_params: Optional[FitnessParams] = None,
                        e_init: float = E_INIT,
                        origin_probability: float = 1.0) -> tuple[int, int]:
    """Busiest-parent packet counts: probabilistic vs fixed best-fitness.

    Both policies see identical traffic over the same frozen backbone (no
    energy drain, so fitness never shifts). Every packet charges its
    origin's chosen parent; returns each policy's maximum per-tree-node
    count. Direct-to-sink deliveries burden no tree node and count for
    neither policy.
    """
    sc = copy.deepcopy(scenario)
    fparams = (fitness_params or FitnessParams()).validate()
    graph = build_reachability(sc)
    tree_set, _ = build_min_cover(sc, th, graph=graph)
    problem = build_forwarding_problem(sc, tree_set, th, fparams, e_init,
                                       graph=graph)
    probs = {i: problem.probabilities(i) for i in problem.candidates}
    best_next = {i: problem.best_parent(i) for i in problem.candidates}

    rng_origin = np.random.default_rng(seed)
    rng_pick = np.random.default_rng(seed + 1)
    ids = sorted(problem.candidates)
    count_prob: dict[int, int] = {}
    count_det: dict[int, int] = {}
    for _ in range(rounds):
        draws = rng_origin.random(len(ids))
        origins = [i for i, u in zip(ids, draws) if u < origin_probability]
        for origin in origins:
            idx = select_parent(probs[origin], rng_pick)
            pick = problem.candidates[origin][idx]
            if pick != SINK:
                count_prob[pick] = count_prob.get(pick, 0) + 1
            pick = best_next[origin]
            if pick != SINK:
                count_det[pick] = count_det.get(pick, 0) + 1
    mc_prob = max(count_prob.values(), default=0)
    mc_det = max(count_det.values(), default=0)
    return mc_prob, mc_det
