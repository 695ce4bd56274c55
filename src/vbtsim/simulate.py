"""Round-based traffic simulation over a chosen backbone algorithm.

Each round: draw packet origins, fix every route against start-of-round
state, debit radio costs, mark the nodes that died, rebuild the backbone
when any node's relay eligibility flipped, and periodically relocate the
sink. Everything is driven by one seeded generator, so a (scenario,
config, seed) triple always replays bit-for-bit.

The run's state is two arrays by node id (model.State: energy, live),
passed as state= to every build and relocation, which then read no
Node: the run writes no Node and copies only the Field it moves. A
status matters only as "failed or not": relay eligibility is energy >=
th, and a node fails once it holds neither th nor e_fail, whatever its
child count. Each build fills a route table (_Router) and a round
touches only the nodes that spent energy. Energy only falls, so a node
dies or loses eligibility exactly when a debit takes it below e_fail or
th, and a rebuild is due exactly when one did.

Every algorithm charges a round through one kernel (_spend): a list of
senders packet by packet and hop by hop, a relay's receive cost just
before its transmit cost, the order in which the reference loop charges
them. Weighted np.bincount adds each node's charges one by one in that
order, the same left fold, so every float is bit-identical; the round
total folds the nodes in first-touch order with np.cumsum, a left fold
(never sum(), which compensates from Python 3.12 on). The fixed-parent
algorithms (mmevbt, min_cover_best_parent) walk a round's packets at
once, one numpy step per hop.

balanced_probabilistic walks its packets in Python, reading its
uniforms in order from one stream (_Uniforms): rng.random(k) yields
exactly the values of k scalar rng.random() calls, so the origin draws
are a slice of it and each hop uses up the next value; each round first
reserves packets times a bound on the table's longest path. A draw
bisects the row's cut points, balanced.draw_index's rule; a node with
one candidate is forced, and a packet there takes its whole chain of
forced hops (and as many values) in one step, so a packet costs one
Python step per draw or chain, not per hop. The round then folds its
origins' expected loads, flat arrays of the build, into the run's
totals with one weighted np.bincount led by those totals: per tree node
0 + total + p1 + ..., the left fold of a per-packet loop.

A cover rebuild reads the build's CandidateArrays, an mmevbt rebuild
each routed node's CSR edge (BackboneTree.edges): parents, tx costs
and the draw rows' cut points come from array passes over them and the
graph's per-edge costs. compare_load_spread picks from the same arrays.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .balanced import (
    CandidateArrays,
    FitnessParams,
    build_forwarding_problem,
    split_rows,
)
from .energy import DEFAULT_E_FAIL, RadioParams, rx_cost
from .mincover import build_min_cover
from .mmevbt import build_mmevbt, relocate_sink
from .model import (
    DEFAULT_TH,
    E_INIT,
    SINK,
    ConstructionFailed,
    Scenario,
    State,
    build_reachability,
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
    # e_fail above th is accepted: a node fails only once it holds
    # neither, so such a node relays while it holds th and then fails
    e_fail: float = DEFAULT_E_FAIL
    t_move: Optional[int] = 50  # sink relocation cadence in rounds; None = off
    grid: int = 4
    max_step: Optional[float] = None

    def validate(self) -> "SimPolicy":
        if not self.th >= 0:
            raise ValueError("policy.th must be >= 0")
        if not self.e_fail >= 0:
            raise ValueError("policy.e_fail must be >= 0")
        if not 1 <= self.grid <= 2**62:  # cell indices are int64
            raise ValueError("policy.grid must be in [1, 2**62]")
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
    balanced_probabilistic, slot s, a position in the build's
    CandidateArrays.edges, is the hop from sender[s] to head[s] (n for
    the sink; heads is head as a list) at cost slot_tx[s]. A node with
    several candidates has draw_rows[i] = (cut points, first slot), the
    cut points being the cumulative selection sums without the last (a
    uniform r picks slot first + bisect_right(cuts, r)). A node with one
    is forced: chains[i] lists the slots it and the forced nodes after
    it take, up to stops[i], the sink or the first node with a draw, and
    texts[i] their heads' names joined by '>' (event logs only). One
    packet from i adds load_p[k] to the expected load of tree node
    load_cand[k] for load_bounds[i] <= k < load_bounds[i + 1];
    max_draws bounds the longest path to the sink.
    """

    def __init__(self, algorithm: str, radio: RadioParams, policy: SimPolicy,
                 fitness_params: FitnessParams, e_init: float,
                 names: list[str]):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{algorithm}'")
        self.algorithm = algorithm
        self.radio = radio
        self.policy = policy
        self.fitness_params = fitness_params
        self.e_init = e_init
        self.names = names
        self.parent: Optional[np.ndarray] = None
        self.tx: Optional[np.ndarray] = None
        self.depth: Optional[np.ndarray] = None
        self.chains: list[tuple[int, ...]] = []
        self.load_bounds = np.zeros(1, dtype=np.int64)
        self.load_cand, self.load_p = np.zeros(0, dtype=np.int64), np.zeros(0)
        self.max_draws = 0

    def rebuild(self, scenario: Scenario, graph,
                state: Optional[State] = None) -> None:
        """Reconstruct the backbone from state, else from the Nodes;
        raises ConstructionFailed and then changes nothing."""
        th = self.policy.th
        n = len(scenario.nodes)
        if self.algorithm == "mmevbt":
            tree = build_mmevbt(scenario, self.radio, th, graph=graph,
                                e_fail=self.policy.e_fail, state=state)
            self._fill_parents(list(tree.parent), tree.edges, graph, n)
            return
        tree_set, _ = build_min_cover(scenario, th, graph=graph, state=state)
        rows = build_forwarding_problem(
            scenario, tree_set, th, self.fitness_params, self.e_init,
            graph=graph, state=state).arrays
        if self.algorithm == "balanced_probabilistic":
            self._fill_draw_rows(rows, graph, n)
        else:
            self._fill_parents(rows.rows, rows.best_edges(), graph, n)

    def _fill_parents(self, ids, edges, graph, n: int) -> None:
        """Route node ids[k] over graph edge edges[k]."""
        parent = np.full(n + 1, n, dtype=np.int64)
        tx = np.zeros(n + 1)
        parent[ids] = graph.nbrs[edges]
        tx[ids] = graph.edge_tx(self.radio)[edges]
        depth = np.zeros(n + 1, dtype=np.int64)
        cur = np.arange(n + 1)
        moving = cur != n
        while moving.any():
            depth += moving
            cur = parent[cur]
            moving = cur != n
        self.parent, self.tx, self.depth = parent, tx, depth

    def _fill_draw_rows(self, rows: CandidateArrays, graph, n: int) -> None:
        """Slots, draw rows, forced chains and load arrays of a build."""
        self.chains = self.draw_rows = self.texts = []  # old rows go first
        probs, cuts = rows.draws()
        widths, first = np.diff(rows.bounds), rows.bounds[:-1]
        many = widths > 1
        self.head = head = graph.nbrs[rows.edges].astype(np.int64)
        self.sender, self.heads = np.repeat(rows.rows, widths), head.tolist()
        self.slot_tx = graph.edge_tx(self.radio)[rows.edges]
        self.draw_rows = dict(zip(rows.rows[many].tolist(), zip(split_rows(
            cuts.tolist(), np.cumsum([0, *widths[many] - 1]).tolist()),
            first[many].tolist())))
        # a forced node's chain extends its head's, so go by chain length
        ids, slot = rows.rows[~many], first[~many]
        nxt = np.arange(n + 1)
        nxt[ids] = head[slot]
        at, length = ids, np.zeros(len(ids), dtype=np.int64)
        while (more := nxt[at] != at).any():
            length += more
            at = nxt[at]
        order = np.argsort(length)
        chains, stops = [()] * (n + 1), list(range(n + 1))
        texts, names = [""] * (n + 1), self.names
        for i, s, h in zip(ids[order].tolist(), slot[order].tolist(),
                           nxt[ids[order]].tolist()):
            chains[i], stops[i] = (s, *chains[h]), stops[h]
            if names:
                texts[i] = f"{names[h]}>{texts[h]}" if chains[h] else names[h]
        self.chains, self.stops, self.texts = chains, stops, texts
        # a node with the sink in range has it as its one candidate, and
        # a packet from it loads no tree node: its load row is empty
        to_node = head != n
        load_bounds = np.concatenate(([0], np.cumsum(to_node)))[rows.bounds]
        count = np.zeros(n, dtype=np.int64)
        count[rows.rows] = np.diff(load_bounds)
        self.load_bounds = np.concatenate(([0], np.cumsum(count)))
        self.load_cand = head[to_node]
        self.load_p = probs[to_node]
        # each hop goes one level down, or onto the backbone from off it
        self.max_draws = 1 + rows.max_level

    def load_rows(self, origins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tree nodes and probabilities one packet from each origin
        adds to the expected load, origin by origin, flat."""
        start = self.load_bounds[origins]
        count = self.load_bounds[origins + 1] - start
        at = np.arange(count.sum())
        at += np.repeat(start - np.cumsum(count) + count, count)
        return self.load_cand[at], self.load_p[at]

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


def _spend(senders: np.ndarray, tx: np.ndarray, first: np.ndarray,
           rx: float, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Spend of one round's hops, packet by packet and hop by hop.

    Sender k is charged 0.0 if it is its packet's origin (k in first),
    else rx, and then tx[k]; sender n, the sink as padding, is dropped.
    Returns the ids that spent (ascending), their spend, and the round
    total folded in first-touch order (cumsum adds one by one).
    """
    charges = np.empty((senders.size, 2))
    charges[:, 0] = rx
    charges[first, 0] = 0.0
    charges[:, 1] = tx
    spend = np.bincount(np.repeat(senders, 2), charges.ravel(),
                        minlength=n + 1)
    at = np.full(n + 1, senders.size)  # each node's first position
    np.minimum.at(at, senders, np.arange(senders.size))
    ids = np.flatnonzero(at[:n] < senders.size)
    total = np.cumsum(spend[ids[np.argsort(at[ids])]])
    return ids, spend[ids], float(total[-1]) if total.size else 0.0


def _debit(energy: np.ndarray, ids: np.ndarray, amounts: np.ndarray,
           th: float, e_fail: float) -> tuple[list[int], bool]:
    """Debit amounts from energy[ids] (ascending, distinct), floored at 0.

    The ids are live nodes, each holding th or e_fail. Returns those
    that now hold neither, the round's deaths, ascending, and whether
    any node fell below th.
    """
    before = energy[ids]
    after = np.maximum(before - amounts, 0.0)
    energy[ids] = after
    dead = (after < th) & (after < e_fail)
    return ids[dead].tolist(), bool(((before >= th) & (after < th)).any())


def _generator(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


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
    fparams = (fitness_params or FitnessParams()).validate()
    radio.validate()
    # the run moves the sink and never writes a Node: the copy shares them
    sc = copy.copy(scenario)
    sc.field = copy.copy(scenario.field)
    stream = _Uniforms(_generator(seed))
    n_total = len(sc.nodes)
    th, e_fail = policy.th, policy.e_fail
    rx = rx_cost(radio)
    metrics = LifetimeMetrics()
    state = energy, live = sc.state()  # written in place by the rounds
    # parent picks per vertex over the run (the sink is n); balanced
    # expected loads and the tree nodes any packet could pick
    first_hops = np.zeros(n_total + 1, dtype=np.int64)
    expected, seen = np.zeros(n_total), np.zeros(n_total, dtype=bool)
    # packet path names; the sink's "-1" is names[SINK]
    names = ([str(i) for i in range(n_total)] + [str(SINK)]
             if event_log is not None else [])

    def log(round_no: int, event: str, node: int = -1, detail: str = "") -> None:
        if event_log is not None:
            event_log.append((round_no, event, node, detail))

    graph = build_reachability(sc)
    router = _Router(algorithm, radio, policy, fparams, e_init, names)
    router.rebuild(sc, graph, state)  # initial ConstructionFailed propagates
    # a live node holding neither th nor e_fail failed at the first build
    live &= (energy >= th) | (energy >= e_fail)
    alive = np.flatnonzero(live)

    for round_no in range(1, traffic.rounds_max + 1):
        metrics.rounds_run = round_no
        draws = stream.take(len(alive))
        origins = alive[draws < traffic.origin_probability]

        # routes all reflect start-of-round energies; debits land afterwards
        if router.parent is not None:
            walk = router.walk(origins)
            senders = walk.ravel()
            ids, amounts, spent = _spend(
                senders, router.tx[senders],
                np.arange(len(origins)) * walk.shape[1], rx, n_total)
            first_hops += np.bincount(router.parent[origins],
                                      minlength=n_total + 1)
            if event_log is not None:
                depth = router.depth[origins].tolist()
                for row, hops in zip(walk.tolist(), depth):
                    event_log.append((round_no, "packet", row[0], ">".join(
                        [*map(names.__getitem__, row[:hops]), names[SINK]])))
        else:
            chains, stops, texts = router.chains, router.stops, router.texts
            draw_rows, heads = router.draw_rows, router.heads
            slots: list[int] = []  # the round's hops, packet by packet
            starts: list[int] = []  # each packet's first hop in slots
            stream.reserve(len(origins) * router.max_draws)
            uniforms, j = stream.values, stream.pos
            for origin in origins.tolist():
                starts.append(len(slots))
                path = [names[origin]] if event_log is not None else None
                u = origin
                while u != n_total:
                    chain = chains[u]
                    if chain:  # forced hops still use up a uniform each
                        slots += chain
                        j += len(chain)
                        if path is not None:
                            path.append(texts[u])
                        u = stops[u]
                    else:
                        cuts, s = draw_rows[u]
                        s += bisect_right(cuts, uniforms[j])
                        j += 1
                        slots.append(s)
                        u = heads[s]
                        if path is not None:
                            path.append(names[u])
                if path is not None:
                    event_log.append((round_no, "packet", origin,
                                      ">".join(path)))
            stream.pos = j
            hops = np.array(slots, dtype=np.int64)
            ids, amounts, spent = _spend(router.sender[hops],
                                         router.slot_tx[hops], starts, rx,
                                         n_total)
            first_hops += np.bincount(router.head[hops[starts]],
                                      minlength=n_total + 1)
            # per tree node 0.0 + its total so far + each p as drawn
            load_ids, load_ps = router.load_rows(origins)
            expected = np.bincount(
                np.concatenate((np.arange(n_total), load_ids)),
                np.concatenate((expected, load_ps)))
            seen[load_ids] = True

        metrics.total_energy_consumed += spent
        # only a node that spent can die or lose relay eligibility
        dead, flipped = _debit(energy, ids, amounts, th, e_fail)
        for node_id in dead:
            log(round_no, "death", node_id)
        if dead:
            live[dead] = False
            alive = np.flatnonzero(live)
            if metrics.first_node_death_round is None:
                metrics.first_node_death_round = round_no

        metrics.alive_fraction_curve.append((round_no, len(alive) / n_total))
        if not len(alive):
            metrics.rounds_until_disconnect = round_no
            log(round_no, "disconnect")
            break

        if dead or flipped:
            try:
                router.rebuild(sc, graph, state)
            except ConstructionFailed as fail:
                metrics.rounds_until_disconnect = round_no
                log(round_no, "disconnect",
                    detail=";".join(str(i) for i in fail.unreachable))
                break
            metrics.reconstructions += 1
            log(round_no, "rebuild", detail="eligibility")

        if policy.t_move and round_no % policy.t_move == 0:
            target = relocate_sink(sc, policy.grid, policy.max_step,
                                   graph=graph, state=state)
            if target != sc.field.sink_pos:
                saved = sc.field.sink_pos
                sc.field.sink_x, sc.field.sink_y = target
                graph.move_sink(target)
                try:
                    router.rebuild(sc, graph, state)
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

    counts = first_hops[:n_total]
    if router.parent is not None:
        # a fixed-parent packet adds 1.0 to its first hop's expected load,
        # and sums of 1.0 are exact
        expected, seen = counts.astype(float), counts > 0
    ids = np.flatnonzero(counts)
    metrics.tree_load_counts = dict(zip(ids.tolist(), counts[ids].tolist()))
    ids = np.flatnonzero(seen)
    metrics.tree_load_expected = dict(zip(ids.tolist(),
                                          expected[ids].tolist()))
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
    neither policy. Picks read the build's CandidateArrays as a run does.
    """
    SimPolicy(th=th).validate()
    TrafficModel(origin_probability, rounds).validate()
    fparams = (fitness_params or FitnessParams()).validate()
    rng_origin, rng_pick = _generator(seed), _generator(seed + 1)
    state = scenario.state()
    graph = build_reachability(scenario)
    tree_set, _ = build_min_cover(scenario, th, graph=graph, state=state)
    rows = build_forwarding_problem(scenario, tree_set, th, fparams, e_init,
                                    graph=graph, state=state).arrays
    cuts = rows.draws()[1].tolist()
    # row k's cut points, one fewer than its slots from bounds[k] on, are
    # cuts[lo[k]:lo[k + 1]]: uniform r picks slot k + bisect_right there
    lo = (rows.bounds - np.arange(len(rows.bounds))).tolist()
    head, n = graph.nbrs[rows.edges], len(state[0])
    best = graph.nbrs[rows.best_edges()]
    count = np.zeros((2, n + 1), dtype=np.int64)  # the sink is vertex n
    for _ in range(rounds):
        origins = np.flatnonzero(
            rng_origin.random(len(rows.rows)) < origin_probability)
        picks = [k + bisect_right(cuts, r, lo[k], lo[k + 1]) for k, r in zip(
            origins.tolist(), rng_pick.random(len(origins)).tolist())]
        count[0] += np.bincount(head[picks], minlength=n + 1)
        count[1] += np.bincount(best[origins], minlength=n + 1)
    mc_prob, mc_det = count[:, :n].max(axis=1, initial=0).tolist()
    return mc_prob, mc_det
