"""Round-based traffic simulation over a chosen backbone algorithm.

Each round: draw packet origins, fix every route against start-of-round
state, debit radio costs, mark the nodes that died, rebuild the backbone
when any node's relay eligibility flipped, and periodically relocate the
sink. A rebuild that strands a live node ends the run. Everything is
driven by one generator seeded with config.base_seed, so a (scenario,
config) pair always replays bit-for-bit.

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
(mmevbt, min_cover_best_parent) is a row with one candidate. Between
rebuilds a fixed-parent route changes in nothing but whether its origin
sends, so its table lays out each node's route once, as a padded row of
senders and one of their charges; a round gathers its origins' rows of
both and masks the padding once. A balanced table walks its packets in
Python, reading uniforms in order from one stream (_Uniforms): the
origin draws are a slice of it, and each hop uses up the next value.

Both route paths feed one kernel (_charge) the same pair: the senders
packet by packet and hop by hop, and each one's receive cost (0.0 at an
origin) just before its transmit cost, the order in which the reference
loop charges them. Weighted np.bincount adds each node's charges one by
one in that order, the same left fold, so every float is bit-identical;
the round total is an np.cumsum over the nodes in first-touch order,
which the hop order gives, a left fold (never sum(), which compensates
from Python 3.12 on). A balanced round folds its origins' selection
probabilities, read from the table's rows, into the run's expected
loads with one np.add.at, which adds in index order: per tree node
total + p1 + ..., the left fold of a per-packet loop. A
direct-to-sink packet adds to a sink entry that the run drops. A
fixed-parent packet adds exactly 1.0 to its first hop: there the loads
are the counts.

The event log (EventLog) keeps each round's packets as arrays, which its
writer formats in groups of rounds with one gather of tokens each: the
round loop builds no string or tuple per packet.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from typing import Optional, TextIO

import numpy as np

from .balanced import CandidateArrays, build_forwarding_problem
from .config import ExperimentConfig
from .energy import rx_cost, tx_costs
from .mincover import build_min_cover, cover_holds
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
    a block (round, origins, senders, counts) of its packets' senders,
    packet after packet and the sink left out, and each packet's hop
    count."""

    def __init__(self) -> None:
        self.rows: list[str | tuple] = []

    def add_event(self, round_no: int, event: str, node: int = -1,
                  detail: str = "") -> None:
        self.rows.append(f"{round_no},{event},{node},{detail}\n")

    def add_packets(self, round_no: int, origins: np.ndarray,
                    senders: np.ndarray, counts: np.ndarray) -> None:
        self.rows.append((round_no, origins, senders.astype(np.int32), counts))

    def write(self, fh: TextIO) -> None:
        """Write the rows, packets in groups of rounds, each group ended
        after _HOP_CAP hops or by an event."""
        blocks = [r for r in self.rows if not isinstance(r, str)]
        n = 1 + max((int(r[2].max(initial=-1)) for r in blocks), default=-1)
        tokens = np.array([*(f"{i}>" for i in range(n)), f"{SINK}\n",
                           *(f"{i}," for i in range(n)),
                           *(f"{r[0]},packet," for r in blocks)], object)
        first = 2 * n + 1  # the first block's prefix
        group, hops = [], 0
        for row in [*self.rows, ""]:  # "" writes the last group
            if group and (isinstance(row, str) or hops >= _HOP_CAP):
                fh.write(_packet_rows(group, tokens, n, first))
                first += len(group)
                group, hops = [], 0
            if isinstance(row, str):
                fh.write(row)
            else:
                group.append(row)
                hops += len(row[2])


def _packet_rows(group: list, tokens: np.ndarray, n: int, first: int) -> str:
    """The blocks' packet rows from tokens "i>" (i), "-1\n" (n), "i,"
    (n + 1 + i) and, from first on, the group's "r,packet,". At a first
    sender go the previous sink, the round and the origin, in order."""
    _, origins, senders, counts = zip(*group)
    counts = np.concatenate(counts)
    ends = np.cumsum(counts)
    starts = ends - counts
    prefix = first + np.arange(len(group))
    # np.insert keeps the given order at equal positions
    at = np.insert(np.concatenate(senders), np.concatenate(
        (ends, starts, starts)), np.concatenate(
        (np.full(len(starts), n), np.repeat(prefix, list(map(len, origins))),
         n + 1 + np.concatenate(origins))))
    return "".join(tokens[at].tolist())


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
    """Route table of one backbone build of config.algorithm.

    Slot s, a position in the build's candidate edges, is the hop from
    sender[s] to head[s] (the sink is vertex n, the node count) at cost
    slot_tx[s], energy.tx_costs of the graph's squares() at the slots,
    which prices only those, and slot_charges[s] is its (receive,
    transmit) pair as one complex; node i's slots are slot_ptr[i] <= s <
    slot_ptr[i + 1]. mmevbt and min_cover_best_parent give each routed
    node one candidate, balanced_probabilistic all of them, with
    selection probability slot_p[s] and cumulative sum cums[s] along the
    row. A node with several draws: a uniform r picks slot
    bisect_right(cums, r, lo, hi - 1) for its slots lo..hi - 1. A node
    with one is forced.

    In a fixed-parent table every routed node is forced, and a packet is
    its origin's row of two (n + 1) x depth matrices. Row i of
    sender_rows lists the senders of the length[i] hops node i's packet
    takes to the sink, -1 past them (the whole row at an unrouted node
    and the sink). Row i of charge_rows holds each of those hops'
    (receive, transmit) charges as one complex, 0.0 received at the
    first, the origin's own hop, and 0 past them. first_head[i] is the
    head of node i's first hop. route() gathers a round's origins' rows
    of both matrices and masks the padding once.

    A balanced table walks (route() reads its walk lists, and max_draws
    bounds its longest path to the sink). Row r of its CSR table is
    chain[chain_ptr[r]:chain_ptr[r + 1]]: for r = i <= n, the slots node
    i and the forced nodes after it take up to the sink or the first
    node with a draw (none at a draw node); for r = n + 1 + s, the drawn
    slot s alone. route() expands each packet's rows with one gather.

    cover is the picks of the last table-filling cover build and a
    copy of the state it was grown from (the run writes its state in
    place), or None. A cover rebuild hands it back without the greedy
    while mincover.cover_holds; the forwarding problem, kept as
    candidates, and the table are rebuilt every time.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.balanced = config.algorithm == "balanced_probabilistic"
        self.cover: Optional[tuple[np.ndarray, State]] = None
        self.candidates: Optional[CandidateArrays] = None

    def rebuild(self, graph: ReachabilityGraph, state: State) -> np.ndarray:
        """Reconstruct the backbone from state. Returns the ids the build
        strands, ascending; the table is filled only if there are none."""
        config = self.config
        th = config.policy.th
        if config.algorithm == "mmevbt":
            edges, _, stranded = build_mmevbt(graph, state, config.radio, th)
            if not stranded.size:
                self._fill(graph, edges)
            return stranded
        cover = self.cover
        if cover is None or not cover_holds(state, th, *cover):
            picks, stranded = build_min_cover(graph, state, th)
            if stranded.size:
                return stranded
            cover = picks, (state[0].copy(), state[1].copy())
        rows, stranded = build_forwarding_problem(
            graph, state, cover[0], th, config.fitness, config.energy.e_init)
        if stranded.size:
            return stranded
        self.cover = cover
        self.fill_candidates(graph, rows)
        return stranded

    def fill_candidates(self, graph: ReachabilityGraph,
                        rows: CandidateArrays) -> None:
        """The table of a forwarding problem's candidates, which it keeps:
        all of them with their draws, or each row's best parent."""
        self.candidates = rows
        if self.balanced:
            # a hop goes one level down, or onto the backbone from off it
            self._fill(graph, rows.edges, (*rows.draws(), 1 + rows.max_level))
        else:
            self._fill(graph, rows.best_edges())

    def _fill(self, graph, edges: np.ndarray,
              draws: Optional[tuple[np.ndarray, np.ndarray, int]] = None
              ) -> None:
        """The table of candidate edges, senders ascending. A fixed-parent
        table lays out the chased chains as its route rows (sender_rows,
        charge_rows, first_head, length).
        A balanced build gives draws, its CandidateArrays.draws() and
        max_draws; its table packs the chains into the CSR chain and gets
        the walk lists (lengths, stops, heads, starts, cums): each node's
        chain length and stop (where its chain ends, the head of its last
        slot; itself at a draw node), each slot's head, each node's first
        slot and the slots' cumulative sums."""
        self.sink = n = len(graph.indptr) - 2
        self.sender = graph.edge_rows(edges)
        self.head = head = graph.nbrs[edges].astype(np.int64)
        self.slot_tx = tx_costs(self.config.radio, graph.squares(edges))
        self.slot_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(self.sender, minlength=n + 1))))
        # each forced node's slot (-1 at the rest), and the slot taken
        # after each slot: -1 at a draw node or the sink, and after -1
        forced = np.full(n + 1, -1)
        ids = np.flatnonzero(np.diff(self.slot_ptr) == 1)
        forced[ids] = self.slot_ptr[ids]
        after = np.append(forced[head], -1)
        # chase the chains at once, row r of steps listing the slots chain
        # r takes, -1 past its end: a balanced table's forced nodes' chains,
        # which its CSR array packs, a fixed-parent table's every vertex's,
        # so that its route rows are by node id
        chased = ids if draws is not None else np.arange(n + 1)
        slot = forced[chased]
        steps = [slot]
        while (slot := after[slot]).max(initial=-1) >= 0:
            steps.append(slot)
        steps = np.array(steps).T
        taken = steps >= 0
        length = np.zeros(n + 1, dtype=np.int64)
        length[chased] = taken.sum(axis=1)
        # each slot's (receive, transmit) charges as one complex, so that
        # a gather of them views as those floats in that order
        self.slot_charges = np.empty(len(edges), dtype=complex)
        self.slot_charges.real = rx_cost(self.config.radio)
        self.slot_charges.imag = self.slot_tx
        if draws is None:
            # every routed node is forced: its chain is its whole route,
            # laid out as its senders and their charges (-1 and 0 past its
            # end, the appended entries); an origin receives nothing
            steps = steps.copy()  # row by row, as a round gathers them
            self.sender_rows = np.append(self.sender, -1)[steps]
            self.charge_rows = np.append(self.slot_charges, 0)[steps]
            self.charge_rows.real[:, 0] = 0.0
            self.first_head = np.append(head, -1)[forced]
            self.length = length
            return
        ptr = np.concatenate(([0], np.cumsum(length)))
        self.chain_ptr = np.concatenate((ptr, ptr[-1] + 1
                                         + np.arange(len(edges))))
        self.chain = np.concatenate((steps[taken], np.arange(len(edges))))
        self.slot_p, cums, self.max_draws = draws
        stops = np.arange(n + 1)
        ends = length > 0
        stops[ends] = head[self.chain[ptr[1:][ends] - 1]]
        self.lengths, self.stops = length.tolist(), stops.tolist()
        self.heads = head.tolist()
        self.starts, self.cums = self.slot_ptr.tolist(), cums.tolist()

    def route(self, origins: np.ndarray, stream: _Uniforms
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One packet from each origin: the senders, packet by packet and
        hop by hop, their (receive, transmit) charges as _charge reads
        them, and per packet its hop count and first hop's head."""
        if not self.balanced:
            rows = self.sender_rows[origins]
            taken = rows >= 0
            return (rows[taken], self.charge_rows[origins][taken].view(float),
                    self.length[origins], self.first_head[origins])
        rows, firsts = self._walk(origins, stream)
        at, count = csr_positions(self.chain_ptr, rows)
        hops = self.chain[at]
        starts = (np.cumsum(count) - count)[firsts]
        charges = self.slot_charges[hops]
        charges.real[starts] = 0.0  # an origin receives nothing
        counts = np.concatenate((starts[1:], [len(hops)])) - starts
        return (self.sender[hops], charges.view(float), counts,
                self.head[hops[starts]])

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


def _charge(energy: np.ndarray, senders: np.ndarray, charges: np.ndarray,
            th: float, floor: float) -> tuple[list[int], bool, float]:
    """Charge one round's hops, packet by packet and hop by hop.

    Sender k is charged charges[2k], its receive cost (0.0 at an origin),
    and then charges[2k + 1], its transmit cost. The senders are live
    nodes, each holding at least floor; each drains its charges, or all
    it holds if less. Returns those now below floor, the round's deaths,
    ascending; whether any node fell below th; and the energy drained,
    folded in first-touch order (a left fold).
    """
    position = np.arange(senders.size)
    spend = np.bincount(senders.repeat(2), charges)
    at = np.full(len(energy), senders.size)  # each node's first position
    np.minimum.at(at, senders, position)
    ids = senders[at[senders] == position]  # in first-touch order
    before = energy[ids]
    drained = np.minimum(spend[ids], before)
    total = drained.cumsum()
    energy[ids] = after = before - drained
    dead = ids[after < floor]
    return (np.sort(dead).tolist() if dead.size else [],
            bool(((before >= th) & (after < th)).any()),
            float(total[-1]) if total.size else 0.0)


def _routed(stranded: np.ndarray) -> None:
    """Raise ConstructionFailed when a build stranded any live node."""
    if stranded.size:
        raise ConstructionFailed(stranded.tolist())


def run_simulation(scenario: Scenario, config: ExperimentConfig,
                   event_log: Optional[EventLog] = None) -> LifetimeMetrics:
    """Run config.algorithm over the scenario for config.traffic, seeded
    by config.base_seed; the input scenario is untouched.

    event_log, when given, collects the packet sends, deaths, rebuilds,
    relocations and disconnect.
    """
    config.validate()
    traffic, policy = config.traffic, config.policy
    stream = _Uniforms(np.random.default_rng(config.base_seed))
    n_total = len(scenario.xy)
    th, floor = policy.th, policy.floor
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
    router = _Router(config)
    _routed(router.rebuild(graph, state))
    alive = np.flatnonzero(live)

    for round_no in range(1, traffic.rounds_max + 1):
        metrics.rounds_run = round_no
        draws = stream.take(len(alive))
        origins = alive[draws < traffic.origin_probability]

        # routes all reflect start-of-round energies; debits land afterwards
        senders, charges, counts, heads = router.route(origins, stream)
        # only a node that spent can die or lose relay eligibility
        dead, flipped, spent = _charge(energy, senders, charges, th, floor)
        metrics.total_energy_consumed += spent
        first_hops += np.bincount(heads, minlength=n_total + 1)
        if event_log is not None:
            event_log.add_packets(round_no, origins, senders, counts)
        if router.balanced:
            # per tree node its total so far + each p as drawn
            at, _ = csr_positions(router.slot_ptr, origins)
            load_ids = router.head[at]
            np.add.at(expected, load_ids, router.slot_p[at])
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
            stranded = router.rebuild(graph, state)
            if stranded.size:
                metrics.rounds_until_disconnect = round_no
                log(round_no, "disconnect",
                    detail=";".join(map(str, stranded.tolist())))
                break
            metrics.reconstructions += 1
            log(round_no, "rebuild", detail="eligibility")

        if policy.t_move and round_no % policy.t_move == 0:
            saved = tuple(graph.points[-1].tolist())
            target = relocate_sink(graph, state, scenario.field, policy)
            if target != saved:
                graph.move_sink(target)
                if router.rebuild(graph, state).size:
                    # a rebuild that strands nodes fills nothing, so the
                    # old route table is still valid at the old position
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
