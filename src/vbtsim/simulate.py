"""Round-based traffic simulation over a chosen backbone algorithm.

Each round: draw packet origins, fix every route against start-of-round
state, debit radio costs, refresh statuses, rebuild the backbone when any
node's relay eligibility flipped, and periodically relocate the sink.
Everything is driven by one seeded generator, so a (scenario, config,
seed) triple always replays bit-for-bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .balanced import (
    FitnessParams,
    ForwardingProblem,
    build_forwarding_problem,
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


@dataclass(frozen=True)
class SimPolicy:
    th: float = DEFAULT_TH
    e_fail: float = DEFAULT_E_FAIL
    t_move: Optional[int] = 50  # sink relocation cadence in rounds; None = off
    grid: int = 4
    max_step: Optional[float] = None


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
    """Per-build routing state for one algorithm over one scenario."""

    def __init__(self, algorithm: str, radio: RadioParams, policy: SimPolicy,
                 fitness_params: FitnessParams, e_init: float):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{algorithm}'")
        self.algorithm = algorithm
        self.radio = radio
        self.policy = policy
        self.fitness_params = fitness_params
        self.e_init = e_init
        self.next_map: dict[int, int] = {}
        self.problem: Optional[ForwardingProblem] = None
        self.probs: dict[int, list[float]] = {}

    def rebuild(self, scenario: Scenario, graph) -> None:
        """Reconstruct the backbone; raises ConstructionFailed."""
        if self.algorithm == "mmevbt":
            tree = build_mmevbt(scenario, self.radio, self.policy.th,
                                graph=graph, e_fail=self.policy.e_fail)
            self.next_map = tree.parent
            self.problem = None
            self.probs = {}
            return
        tree_set, _ = build_min_cover(scenario, self.policy.th, graph=graph)
        problem = build_forwarding_problem(scenario, tree_set, self.policy.th,
                                           self.fitness_params, self.e_init,
                                           graph=graph)
        self.problem = problem
        self.probs = {i: problem.probabilities(i) for i in problem.candidates}
        self.next_map = {}
        for i, cands in problem.candidates.items():
            best, best_f = cands[0], problem.fitness[i][0]
            for cand, f in zip(cands[1:], problem.fitness[i][1:]):
                if f > best_f:  # strict: ties keep the smaller id
                    best, best_f = cand, f
            self.next_map[i] = best
        serving = {i: 0 for i in tree_set}
        for cands in problem.candidates.values():
            for cand in cands:
                if cand != SINK:
                    serving[cand] = serving.get(cand, 0) + 1
        _refresh_statuses(scenario, serving, self.policy.th, self.policy.e_fail)

    def route(self, origin: int, rng: np.random.Generator) -> list[int]:
        """Vertex path origin..sink; probabilistic mode draws per hop."""
        path = [origin]
        if self.algorithm == "balanced_probabilistic":
            while path[-1] != SINK:
                cur = path[-1]
                idx = select_parent(self.probs[cur], rng)
                path.append(self.problem.candidates[cur][idx])
        else:
            while path[-1] != SINK:
                path.append(self.next_map[path[-1]])
        return path

    def decision_weights(self, node_id: int) -> list[tuple[int, float]]:
        """(candidate, probability) pairs behind one forwarding decision."""
        if self.algorithm == "balanced_probabilistic":
            return list(zip(self.problem.candidates[node_id],
                            self.probs[node_id]))
        return [(self.next_map[node_id], 1.0)]


def _eligibility_signature(scenario: Scenario, th: float) -> tuple:
    return tuple((n.status is not NodeStatus.FAILED, n.energy >= th)
                 for n in scenario.nodes)


def run_simulation(scenario: Scenario, algorithm: str, traffic: TrafficModel,
                   radio: RadioParams, policy: SimPolicy, seed: int,
                   fitness_params: Optional[FitnessParams] = None,
                   e_init: float = E_INIT,
                   event_log: Optional[list] = None) -> LifetimeMetrics:
    """Run one seeded lifetime simulation; the input scenario is untouched.

    event_log, when given, collects (round, event, node, detail) tuples
    for packet sends, deaths, rebuilds, relocations and disconnect.
    """
    sc = copy.deepcopy(scenario)
    fparams = (fitness_params or FitnessParams()).validate()
    radio.validate()
    rng = np.random.default_rng(seed)
    n_total = len(sc.nodes)
    metrics = LifetimeMetrics()

    def log(round_no: int, event: str, node: int = -1, detail: str = "") -> None:
        if event_log is not None:
            event_log.append((round_no, event, node, detail))

    graph = build_reachability(sc)
    router = _Router(algorithm, radio, policy, fparams, e_init)
    router.rebuild(sc, graph)  # initial ConstructionFailed propagates
    last_sig = _eligibility_signature(sc, policy.th)

    for round_no in range(1, traffic.rounds_max + 1):
        metrics.rounds_run = round_no
        pos = sc.positions()
        alive = [n.id for n in sc.nodes if n.status is not NodeStatus.FAILED]
        draws = rng.random(len(alive))
        origins = [i for i, u in zip(alive, draws)
                   if u < traffic.origin_probability]

        # routes all reflect start-of-round energies; debits land afterwards
        spend: dict[int, float] = {}
        for origin in origins:
            path = router.route(origin, rng)
            if event_log is not None:
                log(round_no, "packet", origin,
                    ">".join(str(v) for v in path))
            for u, v in zip(path, path[1:]):
                cost = tx_cost(radio, distance(pos[u], pos[v]))
                spend[u] = spend.get(u, 0.0) + cost
                if v != SINK:
                    spend[v] = spend.get(v, 0.0) + rx_cost(radio)
            # load bookkeeping counts the origin's parent pick, one per packet
            if path[1] != SINK:
                metrics.tree_load_counts[path[1]] = \
                    metrics.tree_load_counts.get(path[1], 0) + 1
            for cand, p in router.decision_weights(origin):
                if cand != SINK:
                    metrics.tree_load_expected[cand] = \
                        metrics.tree_load_expected.get(cand, 0.0) + p

        metrics.total_energy_consumed += sum(spend.values())
        for node_id in sorted(spend):
            node = sc.node(node_id)
            node.energy = max(0.0, node.energy - spend[node_id])

        children = _serving_counts(router, sc)
        for node in sc.nodes:
            if node.status is NodeStatus.FAILED:
                continue
            status = classify_status(node.energy, children.get(node.id, 0),
                                     policy.th, policy.e_fail)
            if status is NodeStatus.FAILED:
                log(round_no, "death", node.id)
                if metrics.first_node_death_round is None:
                    metrics.first_node_death_round = round_no
            node.status = status

        alive_after = sum(1 for n in sc.nodes
                          if n.status is not NodeStatus.FAILED)
        metrics.alive_fraction_curve.append((round_no, alive_after / n_total))
        if alive_after == 0:
            metrics.rounds_until_disconnect = round_no
            log(round_no, "disconnect")
            break

        sig = _eligibility_signature(sc, policy.th)
        if sig != last_sig:
            try:
                router.rebuild(sc, graph)
            except ConstructionFailed as fail:
                metrics.rounds_until_disconnect = round_no
                log(round_no, "disconnect",
                    detail=";".join(str(i) for i in fail.unreachable))
                break
            metrics.reconstructions += 1
            last_sig = sig
            log(round_no, "rebuild", detail="eligibility")

        if policy.t_move and round_no % policy.t_move == 0:
            target = relocate_sink(sc, policy.grid, policy.max_step)
            if target != sc.field.sink_pos:
                saved = (sc.field.sink_x, sc.field.sink_y)
                sc.field.sink_x, sc.field.sink_y = target
                graph = build_reachability(sc)
                try:
                    router.rebuild(sc, graph)
                except ConstructionFailed:
                    # rebuild mutates nothing when it fails, so the old
                    # routing state is still valid at the old position
                    sc.field.sink_x, sc.field.sink_y = saved
                    graph = build_reachability(sc)
                    log(round_no, "relocate", detail="reverted")
                else:
                    metrics.reconstructions += 1
                    last_sig = _eligibility_signature(sc, policy.th)
                    log(round_no, "relocate",
                        detail=f"{target[0]:.3f};{target[1]:.3f}")

    return metrics


def _serving_counts(router: _Router, scenario: Scenario) -> dict[int, int]:
    """How many nodes each backbone vertex currently forwards for."""
    counts: dict[int, int] = {}
    if router.algorithm == "mmevbt":
        for parent in router.next_map.values():
            if parent != SINK:
                counts[parent] = counts.get(parent, 0) + 1
        return counts
    if router.problem is not None:
        for cands in router.problem.candidates.values():
            for cand in cands:
                if cand != SINK:
                    counts[cand] = counts.get(cand, 0) + 1
    return counts


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
    best_next: dict[int, int] = {}
    for i, cands in problem.candidates.items():
        best, best_f = cands[0], problem.fitness[i][0]
        for cand, f in zip(cands[1:], problem.fitness[i][1:]):
            if f > best_f:
                best, best_f = cand, f
        best_next[i] = best

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
