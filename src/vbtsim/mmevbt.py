"""Minimal-energy virtual backbone tree.

Sink-rooted shortest-path tree under per-hop radio cost, where only nodes
at or above the relay threshold may forward for others, built by array
passes over the graph's CSR edges. A build returns the arrays it
computes: each routed node's hop, every vertex's path energy and the
live nodes it cannot route. Maintenance is a full rebuild; the sink
relocates by a grid rule.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Field, RadioParams, SimPolicy
from .energy import rx_cost, tx_costs
from .model import ReachabilityGraph, State, distance


def build_mmevbt(graph: ReachabilityGraph, state: State, params: RadioParams,
                 th: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Construct the minimal-energy backbone for every live node.

    A shortest-path tree from the sink over hop costs (the sender's tx
    plus the receiver's rx, none at the sink); a vertex may appear on
    the interior of a path only when its energy is at or above th. The
    path's own endpoint is exempt, so nodes below th still get routes,
    they just never relay. Equal-cost parents resolve to the sink, then
    to the smaller node id.

    Frontier relaxation over the graph's CSR rows: each pass prices the
    edges out of the relays whose distance fell in the last pass
    (energy.tx_costs), adds the hop costs to those distances and folds
    them into their live neighbours' with np.minimum.at. Float + of a
    nonnegative cost is monotone, so any relaxation order reaches the
    same minimum fold as Dijkstra's heap, bit for bit. A last pass gives
    each node the first entry of its row (sink first, then ascending
    ids) that may relay and whose distance plus the hop's cost equals
    its own.

    Returns (edges, dist, stranded). edges holds each routed node's hop
    as its graph's CSR edge, senders ascending: graph.nbrs[edges] are
    the parents, the sink as vertex n. dist[i] is the total energy all
    participants spend moving one packet from vertex i to the sink along
    its parent chain: 0.0 at the sink, inf for a node that is not live
    or has no route. stranded holds the live nodes with no route,
    ascending. Tree membership is this output alone: the tree nodes are
    the parents other than the sink, and no status records it.

    Raises ValueError for params or a th that fail validate(). Reads
    only graph and state, and writes neither.
    """
    params.validate()  # a negative cost would relax forever
    SimPolicy(th=th).validate()
    energy, live = state
    n = len(energy)
    head = np.append(live, False)  # live nodes: the sink is no head
    relay = np.append(live & (energy >= th), True)  # the sink relays for all
    rx = np.full(n + 1, rx_cost(params))  # by receiver: free at the sink
    rx[n] = 0.0
    sq = graph.squares()

    dist = np.full(n + 1, math.inf)
    dist[n] = 0.0
    frontier = np.array([n])
    while frontier.size:
        src, edges = graph.out_edges(frontier)
        dst = graph.nbrs[edges]
        keep = head[dst]
        src, dst, tx = src[keep], dst[keep], tx_costs(params, sq[edges[keep]])
        before = dist[dst]
        # hop_weight's order (tests/oracles.py): tx + rx, then + dist[src]
        np.minimum.at(dist, dst, dist[src] + (tx + rx[src]))
        fell = np.zeros(n + 1, dtype=bool)
        fell[dst] = dist[dst] < before
        frontier = np.flatnonzero(fell & relay)

    # each parent: the first relay of the row on a shortest path to it;
    # a lost node's row is masked, or it would match an unreached relay
    routed = head & (dist < math.inf)
    src = np.arange(n + 1).repeat(np.diff(graph.indptr))  # each edge's row
    via = graph.nbrs
    edges = np.flatnonzero(routed[src] & relay[via] & (
        dist[via] + (tx_costs(params, sq) + rx[via]) == dist[src]))
    src = src[edges]
    return (edges[np.diff(src, prepend=-1) != 0], dist,
            np.flatnonzero(head & ~routed))


def relocate_sink(graph: ReachabilityGraph, state: State, field: Field,
                  policy: SimPolicy) -> tuple[float, float]:
    """Pick the sink's next position: centroid of the richest grid cell.

    The field splits into policy.grid x policy.grid equal cells; each
    non-empty cell scores the mean residual energy of its live nodes and
    the best cell (ties to the smaller row-major index) attracts the
    sink. A bounded policy.max_step clamps the move to that many meters
    along the straight line. Pure: returns the position, the caller
    moves the sink and rebuilds. The node and sink positions are
    graph.points, the sink last. Raises ValueError for a field or policy
    that fails validate(), or no live node.
    """
    field.validate()
    grid, max_step = policy.validate().grid, policy.max_step
    energy, live = state
    if not live.any():
        raise ValueError("relocate_sink needs at least one live node")
    cell_w = field.width / grid
    cell_h = field.height / grid
    x, y = graph.points[:-1][live].T
    energy = energy[live]
    # int() truncates as astype does, and both coordinates are >= 0
    col = np.minimum((x / cell_w).astype(np.int64), grid - 1)
    row = np.minimum((y / cell_h).astype(np.int64), grid - 1)
    # rank the occupied cells in row-major order, then sum each cell's
    # energies in node order: bincount's per-bin left fold
    order = np.lexsort((col, row))
    row, col = row[order], col[order]
    new = np.diff(row, prepend=-1) != 0
    new |= np.diff(col, prepend=-1) != 0
    cell = np.empty(len(order), dtype=np.int64)
    cell[order] = np.cumsum(new) - 1
    mean = np.bincount(cell, energy) / np.bincount(cell)
    best = int(np.argmax(mean))  # the first best: ties to the smaller index
    row, col = int(row[new][best]), int(col[new][best])
    target = ((col + 0.5) * cell_w, (row + 0.5) * cell_h)

    cur = tuple(graph.points[-1].tolist())
    step = distance(cur, target)
    if max_step is None or step <= max_step:
        return target
    frac = max_step / step
    return (cur[0] + (target[0] - cur[0]) * frac,
            cur[1] + (target[1] - cur[1]) * frac)
