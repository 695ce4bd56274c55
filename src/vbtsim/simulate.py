"""Round-based traffic simulation over a chosen backbone algorithm.

Each round: draw packet origins, fix every route against start-of-round
state, debit radio costs, mark the nodes that died, rebuild the backbone
when any node's relay eligibility flipped, and periodically relocate the
sink. Everything is driven by one seeded generator, so a (scenario,
config, seed) triple always replays bit-for-bit.

The run's state is two arrays by node id (model.State: energy, live),
made from the Scenario's energies at its start. Every build and
relocation reads only the run's graph and that state, so the run never
writes the Scenario and moves only its graph's sink. Liveness is one
rule, energy >= SimPolicy.floor: a node fails once it holds neither th
nor e_fail, or 0 J, whatever its child count; relay eligibility is
energy >= th. A round touches only the nodes that spent energy. Energy
only falls, so a node dies or loses eligibility exactly when a debit
takes it below the floor or th, and a rebuild is due exactly then.

Every build fills one route table (_Router), in which a fixed parent
(mmevbt, min_cover_best_parent) is a row with one candidate. A
fixed-parent packet's route is its origin's chain of forced hops,
gathered for all packets at once. A balanced table always walks its
packets in Python, reading uniforms in order from one stream
(_Uniforms): rng.random(k) yields exactly the values of k scalar
rng.random() calls, so the origin draws are a slice of it and each hop
uses up the next value, a forced chain as many as it has hops. A draw
bisects its node's row of the build's cumulative selection sums in
place, balanced.draw_index's rule, and a chain is one step, so a packet
costs one Python step per draw or chain, not per hop.

Both route paths feed one kernel (_charge): the senders packet by packet
and hop by hop, a relay's receive cost just before its transmit cost,
the order in which the reference loop charges them. Weighted np.bincount
adds each node's charges one by one in that order, the same left fold,
so every float is bit-identical; the kernel debits the nodes that spent
and folds the round total over them in first-touch order with np.cumsum,
a left fold (never sum(), which compensates from Python 3.12 on). A
balanced round folds its origins' selection probabilities, read from the
table's rows, into the run's expected loads with one weighted
np.bincount led by those totals: per tree node 0 + total + p1 + ..., the
left fold of a per-packet loop. A direct-to-sink packet adds to a sink
entry that the run drops. A fixed-parent packet adds exactly 1.0 to its
first hop: there the loads are the counts. compare_load_spread bisects
the same CandidateArrays rows as a rebuild.

The event log (EventLog) keeps each round's packets as arrays, which its
writer formats in groups of rounds with one gather of tokens each: the
round loop builds no string or tuple per packet.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from typing import Optional, TextIO

import numpy as np

from .balanced import build_forwarding_problem
from .config import (ALGORITHMS, DEFAULT_TH, E_INIT, EnergyParams,
                     FitnessParams, RadioParams, SimPolicy, TrafficModel)
from .energy import rx_cost
from .mincover import build_min_cover
from .mmevbt import build_mmevbt, relocate_sink
from .model import (
    SINK,
    ConstructionFailed,
    ReachabilityGraph,
    Scenario,
    State,
    build_reachability,
    csr_positions,
)

# Uniforms drawn per refill of _Uniforms beyond the values asked for.
_CHUNK = 2048
# Hops after which EventLog.write formats its group of packet rows.
_HOP_CAP = 16384


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


class EventLog:
    """A run's rows in run order: a CSV line per event, and per round
    a block (round, origins, senders, starts) of its packets' senders,
    packet after packet and the sink left out, and where each starts."""

    def __init__(self) -> None:
        self.rows: list[str | tuple] = []

    def add_event(self, round_no: int, event: str, node: int = -1,
                  detail: str = "") -> None:
        self.rows.append(f"{round_no},{event},{node},{detail}\n")

    def add_packets(self, round_no: int, origins: np.ndarray,
                    senders: np.ndarray, starts: np.ndarray) -> None:
        self.rows.append((round_no, origins, senders.astype(np.int32), starts))

    def write(self, fh: TextIO) -> None:
        """Write the rows, packets in groups of rounds, each group ended
        after _HOP_CAP hops or by an event."""
        ids = [str(i) for i in range(1 + max((int(r[2].max(initial=-1))
               for r in self.rows if not isinstance(r, str)), default=-1))]
        tokens = [*(i + ">" for i in ids), f"{SINK}\n", *(i + "," for i in ids)]
        group, hops = [], 0
        for row in [*self.rows, ""]:  # "" writes the last group
            if group and (isinstance(row, str) or hops >= _HOP_CAP):
                fh.write(_packet_rows(group, tokens))
                group, hops = [], 0
            if isinstance(row, str):
                fh.write(row)
            else:
                group.append(row)
                hops += len(row[2])


def _packet_rows(group: list, tokens: list[str]) -> str:
    """The blocks' packet rows from tokens "i>" (i), "-1\n" (n), "i,"
    (n + 1 + i) and, after those, each block's "r,packet,". At a first
    sender go the previous sink, the round and the origin, in order."""
    rounds, origins, senders, starts = zip(*group)
    offsets = np.cumsum([0, *map(len, senders)])
    starts = np.concatenate([s + k for s, k in zip(starts, offsets)])
    sink, prefix = len(tokens) // 2, len(tokens) + np.arange(len(group))
    # np.insert keeps the given order at equal positions
    at = np.insert(np.concatenate(senders), np.concatenate(
        (np.append(starts, offsets[-1])[1:], starts, starts)), np.concatenate(
        (np.full(len(starts), sink), np.repeat(prefix, list(map(len, origins))),
         sink + 1 + np.concatenate(origins))))
    return "".join(np.array([*tokens, *(f"{r},packet," for r in rounds)],
                            dtype=object)[at].tolist())


class _Uniforms:
    """The doubles of one Generator, drawn in chunks and read in order.

    rng.random(k) yields exactly the values of k scalar rng.random()
    calls, so reading this stream in order replays those calls bit for
    bit. values views the current chunk, and pos is the next unread
    value; a reader may read values[pos:pos + k] after reserve(k) and
    then moves pos past the values it used.
    """

    def __init__(self, rng: np.random.Generator):
        self._random = rng.random
        self._array = np.empty(0)
        self.pos = 0

    @property
    def values(self) -> memoryview:
        # a memoryview reads Python floats on the fly: no list of the chunk
        return memoryview(self._array)

    def reserve(self, k: int) -> None:
        """Make at least k unread values available from pos on."""
        if self.pos + k > len(self._array):
            self._array = np.concatenate((self._array[self.pos:],
                                          self._random(k + _CHUNK)))
            self.pos = 0

    def take(self, k: int) -> np.ndarray:
        """The next k values, as an array."""
        self.reserve(k)
        start = self.pos
        self.pos += k
        return self._array[start:self.pos]


class _Router:
    """Route table of one backbone build for one algorithm.

    Slot s, a position in the build's candidate edges, is the hop from
    sender[s] to head[s] (the sink is vertex n, the node count) at cost
    slot_tx[s]; node i's slots are slot_ptr[i] <= s < slot_ptr[i + 1].
    mmevbt and min_cover_best_parent give each routed node one
    candidate, balanced_probabilistic all of them, with selection
    probability slot_p[s] and cumulative sum cums[s] along the row. A
    node with several draws: a uniform r picks slot
    bisect_right(cums, r, lo, hi - 1) for its slots lo..hi - 1. A node
    with one is forced. Row r of the table is
    chain[chain_ptr[r]:chain_ptr[r + 1]]: for r = i <= n, the slots node
    i and the forced nodes after it take up to the sink or the first
    node with a draw (none at a draw node); for r = n + 1 + s, the drawn
    slot s alone. route() expands each packet's rows with one gather.
    A balanced table walks (route() reads its walk lists, and max_draws
    bounds its longest path to the sink); in a fixed-parent one a packet
    is its origin's row.
    """

    def __init__(self, algorithm: str, radio: RadioParams, policy: SimPolicy,
                 fitness_params: FitnessParams, e_init: float):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{algorithm}'")
        self.algorithm = algorithm
        self.balanced = algorithm == "balanced_probabilistic"
        self.radio = radio
        self.policy = policy
        self.fitness_params = fitness_params
        self.e_init = e_init

    def rebuild(self, graph: ReachabilityGraph, state: State) -> None:
        """Reconstruct the backbone from state; raises ConstructionFailed
        and then changes nothing."""
        th = self.policy.th
        if self.algorithm == "mmevbt":
            self._fill(graph, build_mmevbt(graph, state, self.radio, th)[0])
            return
        tree_set = build_min_cover(graph, state, th).tree_nodes
        rows = build_forwarding_problem(graph, state, tree_set, th,
                                        self.fitness_params, self.e_init)
        if self.balanced:
            # a hop goes one level down, or onto the backbone from off it
            self._fill(graph, rows.edges, (*rows.draws(), 1 + rows.max_level))
        else:
            self._fill(graph, rows.best_edges())

    def _fill(self, graph, edges: np.ndarray,
              draws: Optional[tuple[np.ndarray, np.ndarray, int]] = None
              ) -> None:
        """The table of candidate edges, senders ascending. A balanced
        build gives draws, its CandidateArrays.draws() and max_draws, and
        its table gets the walk lists (lengths, stops, heads, starts,
        cums): each node's chain length and stop (where its chain ends,
        the head of its last slot; itself at a draw node), each slot's
        head, each node's first slot and the slots' cumulative sums."""
        self.sink = n = len(graph.indptr) - 2
        self.sender = graph.edge_rows(edges)
        self.head = head = graph.nbrs[edges].astype(np.int64)
        self.slot_tx = graph.edge_tx(self.radio)[edges]
        self.slot_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(self.sender, minlength=n + 1))))
        # each forced node's slot (-1 at the rest), and the slot taken
        # after each slot: -1 at a draw node or the sink, and after -1
        forced = np.full(n + 1, -1)
        ids = np.flatnonzero(np.diff(self.slot_ptr) == 1)
        forced[ids] = slot = self.slot_ptr[ids]
        after = np.append(forced[head], -1)
        # chase every chain at once: row k of steps holds each one's k-th
        steps = [slot]
        while (slot := after[slot]).max(initial=-1) >= 0:
            steps.append(slot)
        steps = np.array(steps).T
        taken = steps >= 0
        length = np.zeros(n + 1, dtype=np.int64)
        length[ids] = taken.sum(axis=1)
        ptr = np.concatenate(([0], np.cumsum(length)))
        self.chain_ptr = np.concatenate((ptr, ptr[-1] + 1
                                         + np.arange(len(edges))))
        self.chain = np.concatenate((steps[taken], np.arange(len(edges))))
        if draws is not None:
            self.slot_p, cums, self.max_draws = draws
            stops = np.arange(n + 1)
            ends = length > 0
            stops[ends] = head[self.chain[ptr[1:][ends] - 1]]
            self.lengths, self.stops = length.tolist(), stops.tolist()
            self.heads = head.tolist()
            self.starts, self.cums = self.slot_ptr.tolist(), cums.tolist()

    def route(self, origins: np.ndarray,
              stream: _Uniforms) -> tuple[np.ndarray, np.ndarray]:
        """The slots of one packet from each origin, packet by packet and
        hop by hop, and the index of each packet's first slot."""
        rows, firsts = (self._walk(origins, stream) if self.balanced
                        else (origins, slice(None)))
        at, count = csr_positions(self.chain_ptr, rows)
        return self.chain[at], (np.cumsum(count) - count)[firsts]

    def _walk(self, origins: np.ndarray,
              stream: _Uniforms) -> tuple[np.ndarray, list[int]]:
        """The table rows packet by packet, one Python step per draw or
        forced chain, and the index of each packet's first row."""
        lengths, stops, heads = self.lengths, self.stops, self.heads
        starts, cums, sink = self.starts, self.cums, self.sink
        rows: list[int] = []
        firsts: list[int] = []
        stream.reserve(len(origins) * self.max_draws)
        uniforms, j = stream.values, stream.pos
        for u in origins.tolist():
            firsts.append(len(rows))
            while u != sink:
                k = lengths[u]
                if k:  # forced hops still use up a uniform each
                    rows.append(u)
                    j += k
                    u = stops[u]
                else:
                    s = bisect_right(cums, uniforms[j], starts[u],
                                     starts[u + 1] - 1)
                    j += 1
                    rows.append(sink + 1 + s)
                    u = heads[s]
        stream.pos = j
        return np.array(rows, dtype=np.int64), firsts


def _charge(energy: np.ndarray, senders: np.ndarray, tx: np.ndarray,
            first: np.ndarray, rx: float, th: float,
            floor: float) -> tuple[list[int], bool, float]:
    """Charge one round's hops, packet by packet and hop by hop.

    Sender k is charged 0.0 if it is its packet's origin (k in first),
    else rx, and then tx[k]; sender n, the sink as padding, is dropped.
    The senders are live nodes, each holding at least floor, and each is
    debited its charges, floored at 0. Returns those that now hold less,
    the round's deaths, ascending; whether any node fell below th; and
    the round total, folded in first-touch order (cumsum adds one by one).
    """
    n = len(energy)
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
    before = energy[ids]
    after = np.maximum(before - spend[ids], 0.0)
    energy[ids] = after
    return (ids[after < floor].tolist(),
            bool(((before >= th) & (after < th)).any()),
            float(total[-1]) if total.size else 0.0)


def _generator(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def run_simulation(scenario: Scenario, algorithm: str, traffic: TrafficModel,
                   radio: RadioParams, policy: SimPolicy, seed: int,
                   fitness_params: Optional[FitnessParams] = None,
                   e_init: float = E_INIT,
                   event_log: Optional[EventLog] = None) -> LifetimeMetrics:
    """Run one seeded lifetime simulation; the input scenario is untouched.

    event_log, when given, collects the packet sends, deaths, rebuilds,
    relocations and disconnect.
    """
    traffic.validate()
    policy.validate()
    fparams = (fitness_params or FitnessParams()).validate()
    radio.validate()
    EnergyParams(e_init).validate()
    stream = _Uniforms(_generator(seed))
    n_total = len(scenario.xy)
    th, floor = policy.th, policy.floor
    rx = rx_cost(radio)
    metrics = LifetimeMetrics()
    # written in place by the rounds; a node below floor starts failed,
    # with no death logged
    state = energy, live = scenario.state(floor)
    # per vertex over the run (the sink is n, dropped at the end): parent
    # picks, balanced expected loads and the tree nodes any packet could pick
    first_hops = np.zeros(n_total + 1, dtype=np.int64)
    expected, seen = np.zeros(n_total + 1), np.zeros(n_total + 1, dtype=bool)
    log = (event_log.add_event if event_log is not None
           else lambda *args, **kwargs: None)

    # the run moves only the graph's sink, never the scenario's
    graph = build_reachability(scenario.points(), scenario.sensing_range)
    router = _Router(algorithm, radio, policy, fparams, e_init)
    router.rebuild(graph, state)  # initial failure propagates
    alive = np.flatnonzero(live)

    for round_no in range(1, traffic.rounds_max + 1):
        metrics.rounds_run = round_no
        draws = stream.take(len(alive))
        origins = alive[draws < traffic.origin_probability]

        # routes all reflect start-of-round energies; debits land afterwards
        hops, starts = router.route(origins, stream)
        senders = router.sender[hops]
        # only a node that spent can die or lose relay eligibility
        dead, flipped, spent = _charge(energy, senders, router.slot_tx[hops],
                                       starts, rx, th, floor)
        metrics.total_energy_consumed += spent
        first_hops += np.bincount(router.head[hops[starts]],
                                  minlength=n_total + 1)
        if event_log is not None:
            event_log.add_packets(round_no, origins, senders, starts)
        if router.balanced:
            # per tree node 0.0 + its total so far + each p as drawn
            at, _ = csr_positions(router.slot_ptr, origins)
            load_ids = router.head[at]
            expected = np.bincount(
                np.concatenate((np.arange(n_total + 1), load_ids)),
                np.concatenate((expected, router.slot_p[at])))
            seen[load_ids] = True

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
                router.rebuild(graph, state)
            except ConstructionFailed as fail:
                metrics.rounds_until_disconnect = round_no
                log(round_no, "disconnect",
                    detail=";".join(str(i) for i in fail.unreachable))
                break
            metrics.reconstructions += 1
            log(round_no, "rebuild", detail="eligibility")

        if policy.t_move and round_no % policy.t_move == 0:
            saved = tuple(graph.points[-1].tolist())
            target = relocate_sink(graph, state, scenario.field, policy)
            if target != saved:
                graph.move_sink(target)
                try:
                    router.rebuild(graph, state)
                except ConstructionFailed:
                    # rebuild mutates nothing when it fails, so the old
                    # route table is still valid at the old position
                    graph.move_sink(saved)
                    log(round_no, "relocate", detail="reverted")
                else:
                    metrics.reconstructions += 1
                    log(round_no, "relocate",
                        detail=f"{target[0]:.3f};{target[1]:.3f}")

    if not router.balanced:
        # a fixed-parent packet adds 1.0 to its first hop's expected load,
        # and sums of 1.0 are exact
        expected, seen = first_hops.astype(float), first_hops > 0
    counts = first_hops[:n_total]
    ids = np.flatnonzero(counts)
    metrics.tree_load_counts = dict(zip(ids.tolist(), counts[ids].tolist()))
    ids = np.flatnonzero(seen[:n_total])
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
    A node is live while it holds SimPolicy(th=th).floor.
    """
    policy = SimPolicy(th=th).validate()
    TrafficModel(origin_probability, rounds).validate()
    EnergyParams(e_init).validate()
    fparams = (fitness_params or FitnessParams()).validate()
    rng_origin, rng_pick = _generator(seed), _generator(seed + 1)
    state = scenario.state(policy.floor)
    graph = build_reachability(scenario.points(), scenario.sensing_range)
    tree_set = build_min_cover(graph, state, th).tree_nodes
    rows = build_forwarding_problem(graph, state, tree_set, th, fparams,
                                    e_init)
    # uniform r picks slot bisect_right(cums, r, lo, hi - 1) of row k's
    # slots lo = bounds[k] .. hi - 1, as the round loop does
    cums, bounds = rows.draws()[1].tolist(), rows.bounds.tolist()
    head, n = graph.nbrs[rows.edges], len(state[0])
    best = graph.nbrs[rows.best_edges()]
    count = np.zeros((2, n + 1), dtype=np.int64)  # the sink is vertex n
    for _ in range(rounds):
        origins = np.flatnonzero(
            rng_origin.random(len(rows.rows)) < origin_probability)
        picks = [bisect_right(cums, r, bounds[k], bounds[k + 1] - 1)
                 for k, r in zip(origins.tolist(),
                                 rng_pick.random(len(origins)).tolist())]
        count[0] += np.bincount(head[picks], minlength=n + 1)
        count[1] += np.bincount(best[origins], minlength=n + 1)
    mc_prob, mc_det = count[:, :n].max(axis=1, initial=0).tolist()
    return mc_prob, mc_det
