"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way and shares
no graph code with the package: edge-list Bellman-Ford instead of the
heap walk, subset enumeration instead of greedy, full assignment
enumeration instead of search-plus-matching.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from vbtsim import SINK, NodeStatus, rx_cost, tx_cost


def dense_reachability(scenario):
    """All-pairs unit-disk adjacency from one dense (n+1)x(n+1)x2 array.

    Same inclusive test and float arithmetic as the package's grid build,
    O(n^2) memory: keep n small. Returns {vertex: sorted neighbour ids},
    nodes 0..n-1 first, then SINK.
    """
    n = len(scenario.nodes)
    pts = np.empty((n + 1, 2))
    for i, nd in enumerate(scenario.nodes):
        pts[i] = (nd.x, nd.y)
    pts[n] = scenario.field.sink_pos
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    within = d2 <= scenario.sensing_range**2
    np.fill_diagonal(within, False)

    def vid(row):
        return SINK if row == n else row

    return {vid(row): sorted(vid(int(c)) for c in np.nonzero(within[row])[0])
            for row in range(n + 1)}


def bellman_ford_consumption(scenario, params, th):
    """Cheapest route energy per live node, relays filtered by th.

    Returns {node_id: joules}, math.inf where no eligible path exists.
    """
    live = [n.id for n in scenario.nodes if n.status is not NodeStatus.FAILED]
    pos = scenario.positions()
    r = scenario.sensing_range

    def eligible_relay(v):
        if v == SINK:
            return True
        node = scenario.node(v)
        return node.status is not NodeStatus.FAILED and node.energy >= th

    edges = []  # (child u, parent v, weight)
    for u in live:
        for v in [SINK] + live:
            if u == v or not eligible_relay(v):
                continue
            d = math.dist(pos[u], pos[v])
            if d <= r:
                w = tx_cost(params, d)
                if v != SINK:
                    w += rx_cost(params)
                edges.append((u, v, w))

    dist = {u: math.inf for u in live}
    dist[SINK] = 0.0
    for _ in range(len(live) + 1):
        changed = False
        for u, v, w in edges:
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    del dist[SINK]
    return dist


def min_connected_cover_size(scenario, graph):
    """Smallest connected dominating set over live sensors, or None.

    Exhaustive over all subsets; only sane for n <= 12 or so.
    """
    live = [n.id for n in scenario.nodes if n.status is not NodeStatus.FAILED]
    live_set = set(live)
    adj = {i: {v for v in graph.neighbors(i) if v != SINK and v in live_set}
           for i in live}

    def connected(subset):
        if len(subset) <= 1:
            return True
        seen = {subset[0]}
        stack = [subset[0]]
        inside = set(subset)
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in inside and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(subset)

    def dominating(subset):
        covered = set(subset)
        for v in subset:
            covered |= adj[v]
        return covered == live_set

    for size in range(1, len(live) + 1):
        for subset in itertools.combinations(live, size):
            if dominating(subset) and connected(subset):
                return size
    return None


def brute_force_min_max(candidates):
    """Optimal max per-parent load over every full assignment."""
    nodes = sorted(candidates)
    best = len(nodes) + 1
    for combo in itertools.product(*(candidates[i] for i in nodes)):
        count = {}
        for t in combo:
            if t != SINK:
                count[t] = count.get(t, 0) + 1
        best = min(best, max(count.values(), default=0))
    return best


def route_energy(params, positions, path):
    """Replay a vertex path's tx/rx charges hop by hop."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        total += tx_cost(params, math.dist(positions[u], positions[v]))
        if v != SINK:
            total += rx_cost(params)
    return total
