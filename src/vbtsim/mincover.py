"""Greedy backbone with as few tree nodes as possible.

Classic degree-greedy cover over the sensor-only reachability graph:
seed with the best-connected node, then repeatedly promote the covered
node that reaches the most still-uncovered nodes. build_min_cover
returns the tree nodes and the covered map, id -> 0 uncovered, 1 covered
by a tree node, 2 tree node.

The selection is Minoux's lazy (accelerated) greedy: a node's count of
uncovered neighbours only falls as coverage grows, so a heap of stale
counts is an upper bound and a popped node whose recomputed count is
unchanged is the true maximum. It picks exactly what a full re-score of
every covered node would, ties to the smaller id included.
"""

from __future__ import annotations

import heapq
from typing import Optional

from .model import (
    ConstructionFailed,
    NodeStatus,
    ReachabilityGraph,
    Scenario,
    build_reachability,
)


def build_min_cover(scenario: Scenario, th: float,
                    graph: Optional[ReachabilityGraph] = None
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
    already 0. A pop recomputes wd: if unchanged the node is promoted,
    else it goes back with the new value (or is dropped at 0). Same
    picks as re-scoring every covered node after each promotion, without
    the O(n^2) cost.
    """
    if graph is None:
        graph = build_reachability(scenario)
    live = [n.id for n in scenario.nodes if n.status is not NodeStatus.FAILED]
    live_set = set(live)
    # live_set holds sensor ids only, so this also drops the sink vertex
    adj = {i: [v for v in graph.neighbors(i) if v in live_set] for i in live}

    covered = {i: 0 for i in live}
    tree_nodes: set[int] = set()
    if not live:
        return tree_nodes, covered
    heap: list[tuple[int, int]] = []

    def uncovered_neighbours(i: int) -> int:
        return list(map(covered.__getitem__, adj[i])).count(0)

    def promote(node_id: int) -> int:
        """Make node_id a tree node; return how many nodes it newly covers."""
        covered[node_id] = 2
        tree_nodes.add(node_id)
        fresh = [v for v in adj[node_id] if covered[v] == 0]
        for v in fresh:
            covered[v] = 1
        for v in fresh:
            if scenario.node(v).energy >= th:
                wd = uncovered_neighbours(v)
                if wd:
                    heapq.heappush(heap, (-wd, v))
        return len(fresh)

    seed = max(live, key=lambda i: (len(adj[i]), -i))
    uncovered = len(live) - 1 - promote(seed)
    while uncovered:
        if not heap:
            raise ConstructionFailed(
                i for i, v in covered.items() if v == 0)
        neg_wd, best = heapq.heappop(heap)
        wd = uncovered_neighbours(best)
        if wd == -neg_wd:
            uncovered -= promote(best)
        elif wd:
            heapq.heappush(heap, (-wd, best))

    return tree_nodes, covered
