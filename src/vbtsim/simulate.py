"""Round-based traffic simulation over a chosen backbone algorithm.

Each round: draw packet origins, fix every route against start-of-round
state, debit radio costs, refresh statuses, rebuild the backbone when any
node's relay eligibility flipped, and periodically relocate the sink.
Everything is driven by one seeded generator, so a (scenario, config,
seed) triple always replays bit-for-bit.

Each build fills a route table (_Router) and a round touches only the
nodes that spent energy. This is exact: a status is a pure function of
(energy, serving count), serving counts change only at a rebuild, which
refreshes every status, and energy only falls, so a status changes
exactly when a node's energy crosses th or e_fail; only those nodes are
reclassified, and a rebuild is due exactly when one died or fell below
th. Energies live in one array during the run and the Nodes are synced
from it before a rebuild or a relocation reads them.

The fixed-parent algorithms (mmevbt, min_cover_best_parent) walk all of
a round's packets at once, one numpy step per hop, and lay the charges
out packet by packet and hop by hop, a relay's receive cost just before
its transmit cost: the order in which the reference loop charges them.
Weighted np.bincount adds each node's charges one by one in that order,
the same left fold, so every float is bit-identical; the round total
sums the nodes in first-touch order, as a dict keyed on first spend.

balanced_probabilistic walks its packets in Python, reading its
uniforms in order from one stream (_Uniforms): rng.random(k) yields
exactly the values of k scalar rng.random() calls, so the origin draws
are a slice of it and each hop reads the next value; each round first
reserves packets times the table's longest path. A draw bisects the
row's cut points, balanced.draw_index's rule, and spend is a list
indexed by node id plus the ids in first-touch order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .balanced import FitnessParams, build_forwarding_problem, select_parent
from .energy import DEFAULT_E_FAIL, RadioParams, rx_cost
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
)

ALGORITHMS = ("mmevbt", "min_cover_best_parent", "balanced_probabilistic")

# Uniforms drawn per refill of _Uniforms beyond the values asked for.
_CHUNK = 2048


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


class _Uniforms:
    """The doubles of one Generator, drawn in chunks and read in order.

    rng.random(k) yields exactly the values of k scalar rng.random()
    calls, so reading this stream in order replays those calls bit for
    bit. values holds the current chunk as Python floats (converted on
    first read, so array-only readers never pay for it) and pos is the
    next unread one; a reader may take values[pos:pos + k] after
    reserve(k) and then moves pos past the values it used.
    """

    def __init__(self, rng: np.random.Generator):
        self._random = rng.random
        self._array = np.empty(0)
        self._values: Optional[list[float]] = None
        self.pos = 0

    @property
    def values(self) -> list[float]:
        if self._values is None:
            self._values = self._array.tolist()
        return self._values

    def reserve(self, k: int) -> None:
        """Make at least k unread values available from pos on."""
        if self.pos + k > len(self._array):
            self._array = np.concatenate((self._array[self.pos:],
                                          self._random(k + _CHUNK)))
            self._values = None
            self.pos = 0

    def take(self, k: int) -> np.ndarray:
        """The next k values, as an array."""
        self.reserve(k)
        start = self.pos
        self.pos += k
        return self._array[start:self.pos]


class _Router:
    """Route table of one backbone build for one algorithm.

    The fixed-parent algorithms fill arrays indexed by node id, the sink
    mapped to index n (the node count): parent[i], the tx cost of that
    hop and depth[i], the hops to the sink; parent[n] is n. For
    balanced_probabilistic, hops[i] is (candidates, tx cost of the hop
    to each, cut points) for every live node and None for a failed one,
    the cut points being the cumulative selection sums without the last
    (the draw for a uniform r is bisect_right(cuts, r)); loads[i] holds
    the (tree node, probability) pairs one packet from i adds to the
    expected load; max_draws is the longest path to the sink. serving
    counts how many nodes each tree node forwards for; with its energy
    it fixes every status until the next build.
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
        self.parent: Optional[np.ndarray] = None
        self.tx: Optional[np.ndarray] = None
        self.depth: Optional[np.ndarray] = None
        self.hops: list[Optional[tuple[list[int], list[float],
                                       list[float]]]] = []
        self.loads: list[Optional[list[tuple[int, float]]]] = []
        self.serving: dict[int, int] = {}
        self.max_draws = 0

    def rebuild(self, scenario: Scenario, graph) -> None:
        """Reconstruct the backbone; raises ConstructionFailed and then
        changes nothing."""
        th, e_fail = self.policy.th, self.policy.e_fail
        n = len(scenario.nodes)
        if self.algorithm == "mmevbt":
            tree = build_mmevbt(scenario, self.radio, th, graph=graph,
                                e_fail=e_fail)
            self._fill_parents(tree.parent, graph, n)
            self.serving = tree.children_count
            return
        tree_set, _ = build_min_cover(scenario, th, graph=graph)
        problem = build_forwarding_problem(scenario, tree_set, th,
                                           self.fitness_params, self.e_init,
                                           graph=graph)
        serving = {i: 0 for i in tree_set}
        for cands in problem.candidates.values():
            for cand in cands:
                if cand != SINK:
                    serving[cand] = serving.get(cand, 0) + 1
        _refresh_statuses(scenario, serving, th, e_fail)
        if self.algorithm == "balanced_probabilistic":
            self._fill_draw_rows(problem, graph, n)
        else:
            self._fill_parents({i: problem.best_parent(i)
                                for i in problem.candidates}, graph, n)
        self.serving = serving

    def _fill_parents(self, parents: dict[int, int], graph, n: int) -> None:
        adjacency = graph.adjacency
        costs = graph.tx_costs(self.radio)
        parent = np.full(n + 1, n, dtype=np.int64)
        tx = np.zeros(n + 1)
        ids = list(parents)
        parent[ids] = [n if p == SINK else p for p in parents.values()]
        tx[ids] = [costs[i][adjacency[i].index(p)]
                   for i, p in parents.items()]
        depth = np.zeros(n + 1, dtype=np.int64)
        cur = np.arange(n + 1)
        moving = cur != n
        while moving.any():
            depth += moving
            cur = parent[cur]
            moving = cur != n
        self.parent, self.tx, self.depth = parent, tx, depth

    def _fill_draw_rows(self, problem, graph, n: int) -> None:
        adjacency = graph.adjacency
        costs = graph.tx_costs(self.radio)
        self.hops = [None] * n
        self.loads = [None] * n
        for i, cands in problem.candidates.items():
            probs = problem.probabilities(i)
            row = costs[i]
            self.hops[i] = (cands,
                            [row[adjacency[i].index(c)] for c in cands],
                            list(accumulate(probs))[:-1])
            self.loads[i] = [(c, p) for c, p in zip(cands, probs)
                             if c != SINK]
        # longest path: every candidate has a smaller level than its
        # child, and a node off the backbone (no level) is nobody's
        # candidate, so level order visits parents first
        levels = problem.levels
        depth = {SINK: 0}
        for i in sorted(problem.candidates,
                        key=lambda i: levels.get(i, math.inf)):
            depth[i] = 1 + max(depth[c] for c in problem.candidates[i])
        self.max_draws = max(depth.values())

    def walk(self, origins: np.ndarray) -> np.ndarray:
        """Every origin's fixed parent chain, one row per packet.

        Row p lists the senders of origins[p]'s packet, origin first,
        padded with n (the sink) to the longest chain of the round.
        """
        parent = self.parent
        steps = int(self.depth[origins].max(initial=0))
        walk = np.empty((steps, len(origins)), dtype=np.int64)
        cur = origins
        for h in range(steps):
            walk[h] = cur
            cur = parent[cur]
        return walk.T


def _fixed_spend(walk: np.ndarray, tx: np.ndarray, rx: float,
                 n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Spend of one round of fixed-parent packets, from _Router.walk.

    Each sender is charged rx (0.0 for the origin, which leaves a sum
    unchanged) and then its tx, packet by packet and hop by hop; padding
    charges the sink's bin n, which is dropped. Returns the ids that
    spent (ascending), their spend, and the round total summed in
    first-touch order.
    """
    senders = walk.ravel()
    charges = np.empty(walk.shape + (2,))
    charges[:, :, 0] = rx
    charges[:, :1, 0] = 0.0
    charges[:, :, 1] = tx[walk]
    spend = np.bincount(np.repeat(senders, 2), charges.ravel(),
                        minlength=n + 1)
    first = np.full(n + 1, senders.size)  # each node's first position
    np.minimum.at(first, senders, np.arange(senders.size))
    ids = np.flatnonzero(first[:n] < senders.size)
    total = sum(spend[ids[np.argsort(first[ids])]].tolist())
    return ids, spend[ids], total


def _debit(energy: np.ndarray, ids: np.ndarray, amounts: np.ndarray,
           th: float, e_fail: float) -> tuple[list[int], list[float], bool]:
    """Debit amounts from energy[ids] (ascending, distinct), floored at 0.

    Returns the ids whose energy crossed th or e_fail with their new
    energies, ascending, and whether any of them crossed th.
    """
    before = energy[ids]
    after = np.maximum(before - amounts, 0.0)
    energy[ids] = after
    below_th = (before >= th) & (after < th)
    crossed = below_th | ((before >= e_fail) & (after < e_fail))
    return ids[crossed].tolist(), after[crossed].tolist(), bool(below_th.any())


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
    sc = scenario.copy()
    fparams = (fitness_params or FitnessParams()).validate()
    radio.validate()
    stream = _Uniforms(np.random.default_rng(seed))
    nodes = sc.nodes
    n_total = len(nodes)
    th, e_fail = policy.th, policy.e_fail
    rx = rx_cost(radio)
    metrics = LifetimeMetrics()
    load_counts = metrics.tree_load_counts
    load_expected = metrics.tree_load_expected
    # the run's energies; the Nodes are synced from it only before a
    # rebuild or a relocation reads them
    energy = np.array([node.energy for node in nodes], dtype=float)
    # fixed-parent first hops per vertex over the run (the sink is n)
    first_hops = np.zeros(n_total + 1, dtype=np.int64)

    def log(round_no: int, event: str, node: int = -1, detail: str = "") -> None:
        if event_log is not None:
            event_log.append((round_no, event, node, detail))

    def sync_energies() -> None:
        for node, e in zip(nodes, energy.tolist()):
            node.energy = e

    graph = build_reachability(sc)
    router = _Router(algorithm, radio, policy, fparams, e_init)
    router.rebuild(sc, graph)  # initial ConstructionFailed propagates
    alive = np.array(sc.live_ids(), dtype=np.int64)

    for round_no in range(1, traffic.rounds_max + 1):
        metrics.rounds_run = round_no
        draws = stream.take(len(alive))
        origins = alive[draws < traffic.origin_probability]

        # routes all reflect start-of-round energies; debits land afterwards
        if router.parent is not None:
            walk = router.walk(origins)
            ids, amounts, spent = _fixed_spend(walk, router.tx, rx, n_total)
            first_hops += np.bincount(router.parent[origins],
                                      minlength=n_total + 1)
            if event_log is not None:
                depth = router.depth[origins].tolist()
                for row, hops in zip(walk.tolist(), depth):
                    log(round_no, "packet", row[0],
                        ">".join(map(str, row[:hops] + [SINK])))
        else:
            hops, loads = router.hops, router.loads
            spend_list = [0.0] * n_total
            touched: list[int] = []  # first-touch order
            stream.reserve(len(origins) * router.max_draws)
            uniforms, j = stream.values, stream.pos
            for origin in origins.tolist():
                path = [origin] if event_log is not None else None
                first = None
                u = origin
                received = 0.0
                while u != SINK:
                    cands, costs, cuts = hops[u]
                    k = bisect_right(cuts, uniforms[j])
                    j += 1
                    # a relay pays its receive cost, then its transmit cost
                    if not spend_list[u]:
                        touched.append(u)
                    spend_list[u] = spend_list[u] + received + costs[k]
                    received = rx
                    u = cands[k]
                    if first is None:
                        first = u
                    if path is not None:
                        path.append(u)
                if path is not None:
                    log(round_no, "packet", origin, ">".join(map(str, path)))
                # load bookkeeping counts the origin's parent pick, one
                # per packet
                if first != SINK:
                    load_counts[first] = load_counts.get(first, 0) + 1
                for cand, p in loads[origin]:
                    load_expected[cand] = load_expected.get(cand, 0.0) + p
            stream.pos = j
            spent = sum([spend_list[i] for i in touched])
            touched.sort()
            ids = np.array(touched, dtype=np.int64)
            amounts = np.array([spend_list[i] for i in touched])

        metrics.total_energy_consumed += spent
        # only a node that spent can change status or relay eligibility,
        # and its status changes only when its energy crosses th or e_fail
        crossed, after, flipped = _debit(energy, ids, amounts, th, e_fail)
        serving = router.serving
        dead = []
        for node_id, e in zip(crossed, after):
            status = classify_status(e, serving.get(node_id, 0), th, e_fail)
            nodes[node_id].status = status
            if status is NodeStatus.FAILED:
                dead.append(node_id)
                log(round_no, "death", node_id)
                if metrics.first_node_death_round is None:
                    metrics.first_node_death_round = round_no
        if dead:
            alive = alive[~np.isin(alive, dead)]

        metrics.alive_fraction_curve.append((round_no, len(alive) / n_total))
        if not len(alive):
            metrics.rounds_until_disconnect = round_no
            log(round_no, "disconnect")
            break

        if dead or flipped:
            sync_energies()
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
            sync_energies()
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

    # a fixed-parent packet adds 1.0 to its first hop's expected load, and
    # sums of 1.0 are exact
    for i in np.flatnonzero(first_hops[:n_total]).tolist():
        load_counts[i] = int(first_hops[i])
        load_expected[i] = float(first_hops[i])
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
    SimPolicy(th=th).validate()
    TrafficModel(origin_probability, rounds).validate()
    sc = scenario.copy()
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
