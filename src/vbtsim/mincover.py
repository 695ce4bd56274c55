"""Greedy backbone with as few tree nodes as possible.

Classic degree-greedy cover over the sensor-only reachability graph:
seed with the best-connected node, then repeatedly promote the covered
node that reaches the most still-uncovered nodes. build_min_cover
returns the tree nodes and the covered map, id -> 0 uncovered, 1 covered
by a tree node, 2 tree node.

The selection is Minoux's lazy (accelerated) greedy: a node's count of
uncovered neighbours only falls as coverage grows, so a heap of stale
counts is an upper bound and a popped node whose current count is
unchanged is the true maximum. It picks exactly what a full re-score of
every covered node would, ties to the smaller id included.
"""

from __future__ import annotations

import heapq

import numpy as np

from .model import ConstructionFailed, ReachabilityGraph, State


def build_min_cover(graph: ReachabilityGraph, state: State, th: float
                    ) -> tuple[set[int], dict[int, int]]:
    """Pick tree nodes greedily until every live node is covered.

    The sink plays no part here; only sensor-to-sensor adjacency counts
    and only live nodes need covering. The seed is the node with the most
    live neighbors regardless of its energy; every later pick must hold
    at least th joules. Score ties go to the smaller id. Raises
    ConstructionFailed with the still-uncovered ids when no eligible
    pick makes progress (disconnected layout).

    Each newly covered node holding th joules enters a heap keyed
    (-wd, id), wd being its count of uncovered neighbours, unless wd is
    already 0. A pop reads the current wd: if unchanged the node is
    promoted, else it goes back with the new value (or is dropped at 0).
    Same picks as re-scoring every covered node after each promotion,
    without the O(n^2) cost. The live-to-live edges are one mask over
    the graph's CSR arrays, and every node's wd is a counter that each
    node leaving the uncovered state decrements once per live neighbour.
    Reads only graph and state, and writes neither.
    """
    energy, live = state
    n = len(energy)
    live = np.append(live, False)  # the sink, n, is never live
    live_ids = np.flatnonzero(live).tolist()
    covered = [0] * n
    tree_nodes: set[int] = set()
    if not live_ids:
        return tree_nodes, {}
    keep = live[graph.nbrs] & np.repeat(live, np.diff(graph.indptr))
    # a memoryview reads ints on the fly: no list of every edge's ints
    adj = memoryview(graph.nbrs[keep])
    offsets = np.concatenate(([0], np.cumsum(keep, dtype=np.int32)))
    offsets = offsets[graph.indptr]
    degree = np.diff(offsets)
    bounds = offsets.tolist()
    wd = degree.tolist()  # uncovered live neighbours per node
    rich = (energy >= th).tolist()
    heap: list[tuple[int, int]] = []

    def uncover(v: int) -> None:
        """v leaves the uncovered state: its neighbours lose one."""
        for u in adj[bounds[v]:bounds[v + 1]]:
            wd[u] -= 1

    def promote(node_id: int) -> int:
        """Make node_id a tree node; return how many nodes it newly covers."""
        covered[node_id] = 2
        tree_nodes.add(node_id)
        fresh = [v for v in adj[bounds[node_id]:bounds[node_id + 1]]
                 if covered[v] == 0]
        for v in fresh:
            covered[v] = 1
            uncover(v)
        for v in fresh:
            if rich[v] and wd[v]:
                heapq.heappush(heap, (-wd[v], v))
        return len(fresh)

    # most live neighbours, ties to the smaller id
    seed = int(np.argmax(np.where(live, degree, -1)))
    uncover(seed)  # the seed itself was uncovered too
    uncovered = len(live_ids) - 1 - promote(seed)
    while uncovered:
        if not heap:
            raise ConstructionFailed(i for i in live_ids if covered[i] == 0)
        neg_wd, best = heapq.heappop(heap)
        if wd[best] == -neg_wd:
            uncovered -= promote(best)
        elif wd[best]:
            heapq.heappush(heap, (-wd[best], best))

    return tree_nodes, {i: covered[i] for i in live_ids}
