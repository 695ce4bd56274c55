"""Greedy backbone with as few tree nodes as possible: the degree-greedy
connected cover of the sensor-only reachability graph (build_min_cover),
found with Minoux's lazy (accelerated) greedy.

The reuse rule (cover_holds): build_min_cover returns the picks it made
without stranding again from any state with the same live mask in which
no node holds th that did not then, and every pick but the seed, the
first, still holds th. The seed depends on the live set alone. Each
later pick is the best-scoring covered node that holds th, and a score
depends only on the live set and the picks before it; so, step by step,
the candidates are a subset of the old ones that still holds the old
pick, which wins again, until the same picks cover every live node. The
sink plays no part, so a sink move keeps a cover, and so does a seed
that falls below th: it is picked whatever its energy. In a run energy
only falls, so the second clause always holds there.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace

import numpy as np

from .config import SimPolicy
from .model import ReachabilityGraph, State, masked_edges


def build_min_cover(graph: ReachabilityGraph, state: State, th: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Pick tree nodes greedily until every live node is covered.

    The sink plays no part here; only sensor-to-sensor adjacency counts
    and only live nodes need covering. The seed is the node with the most
    live neighbors regardless of its energy; every later pick must hold
    at least th joules. Score ties go to the smaller id. Returns
    (picks, stranded): the tree nodes in the order they were promoted,
    seed first, and the live ids still uncovered, ascending, when no
    eligible pick makes progress (disconnected layout), else none; both
    int64 arrays.

    Each later pick is the covered node that reaches the most uncovered
    ones. That count, wd, only falls, so each newly covered node holding
    th joules enters a heap with its wd then (unless 0) as an upper
    bound, and a top whose wd is unchanged is the maximum: it is popped
    and promoted. Any other top is replaced in place by its current key,
    or popped at wd 0. The key is the int v - wd * (n + 1), which orders
    exactly as the tuple (-wd, v) as 0 <= v < n + 1, and which the
    garbage collector does not track. A node is pushed once, when
    covered, so keys are unique and the pop order, hence every pick, is
    that of popping and pushing back. The picks are those of re-scoring
    every covered node after each promotion, without the O(n^2) cost.
    Raises ValueError for a th that fails SimPolicy.validate(). Reads
    only graph and state, and writes neither.
    """
    SimPolicy(th=th).validate()
    energy, live = state
    n = len(energy)
    live = np.append(live, False)  # the sink, n, is never live
    live_ids = np.flatnonzero(live).tolist()
    if not live_ids:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    keep, offsets = masked_edges(graph, live)
    # a memoryview reads ints on the fly: no list of every edge's ints
    adj = memoryview(graph.nbrs[keep])
    degree = np.diff(offsets)
    bounds = offsets.tolist()
    wd = degree.tolist()  # uncovered live neighbours per node
    rich = (energy >= th).tolist()
    covered = [False] * n
    picks: list[int] = []
    heap: list[int] = []
    m = n + 1

    def promote(node_id: int) -> int:
        """Make node_id a tree node; return how many nodes it newly covers."""
        picks.append(node_id)
        fresh = [v for v in adj[bounds[node_id]:bounds[node_id + 1]]
                 if not covered[v]]
        for v in fresh:  # v leaves the uncovered state
            covered[v] = True
            for u in adj[bounds[v]:bounds[v + 1]]:
                wd[u] -= 1
        for v in fresh:
            if rich[v] and wd[v]:
                heappush(heap, v - wd[v] * m)
        return len(fresh)

    # the live vertex with the most live neighbours, ties to the smaller id
    seed = int(np.argmax(np.where(live, degree, -1)))
    covered[seed] = True
    for u in adj[bounds[seed]:bounds[seed + 1]]:
        wd[u] -= 1
    uncovered = len(live_ids) - 1 - promote(seed)
    while uncovered and heap:
        key = heap[0]
        best = key % m
        w = wd[best]
        if key == best - w * m:
            heappop(heap)
            uncovered -= promote(best)
        elif w:
            heapreplace(heap, best - w * m)
        else:
            heappop(heap)

    stranded = [i for i in live_ids if not covered[i]] if uncovered else []
    return (np.array(picks, dtype=np.int64),
            np.array(stranded, dtype=np.int64))


def cover_holds(state: State, th: float, picks: np.ndarray,
                built: State) -> bool:
    """Whether build_min_cover(graph, state, th) returns picks again,
    where picks is what it returned, with no stranded ids, from the
    state built on the same graph, wherever the sink has moved since.

    True iff the live mask is unchanged, no node holds th that did not
    in built, and every pick but the seed, picks[0], holds th: the reuse
    rule of the module docstring, which says why it is exact. Reads only
    state and built, and writes neither.
    """
    energy, live = state
    if not np.array_equal(live, built[1]):
        return False
    rich = energy >= th
    if (rich & (built[0] < th)).any():
        return False
    return bool(rich[picks[1:]].all())
