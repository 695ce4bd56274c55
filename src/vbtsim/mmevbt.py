"""Minimal-energy virtual backbone tree.

Sink-rooted shortest-path tree under per-hop radio cost, where only nodes
at or above the relay threshold may forward for others. Includes local
re-parenting, full maintenance rebuild, and grid-based sink relocation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .energy import DEFAULT_E_FAIL, RadioParams
from .model import (
    SINK,
    ConstructionFailed,
    NodeStatus,
    ReachabilityGraph,
    Scenario,
    build_reachability,
    classify_status,
    distance,
    hop_weight,
)


@dataclass
class BackboneTree:
    """Parent forest rooted at the sink plus per-node path energy.

    consumption[i] is the total energy all participants spend moving one
    packet from node i to the sink along the parent chain. The sink is
    carried in the map with consumption 0 so hop arithmetic needs no
    special case.
    """

    parent: dict[int, int] = dc_field(default_factory=dict)
    consumption: dict[int, float] = dc_field(default_factory=dict)
    children_count: dict[int, int] = dc_field(default_factory=dict)

    def tree_nodes(self) -> set[int]:
        return {i for i, c in self.children_count.items() if c > 0}

    def route(self, node_id: int) -> list[int]:
        """Vertex sequence from node_id to the sink, both ends included."""
        path = [node_id]
        while path[-1] != SINK:
            path.append(self.parent[path[-1]])
        return path


def _relay_eligible(scenario: Scenario, vertex: int, th: float) -> bool:
    if vertex == SINK:
        return True
    node = scenario.node(vertex)
    return node.status is not NodeStatus.FAILED and node.energy >= th


def build_mmevbt(scenario: Scenario, params: RadioParams, th: float,
                 graph: Optional[ReachabilityGraph] = None,
                 e_fail: float = DEFAULT_E_FAIL) -> BackboneTree:
    """Construct the minimal-energy backbone for every live node.

    Dijkstra from the sink over hop costs, read from the graph's cached
    hop_weights rows; a vertex may appear on the interior of a path only
    when its energy is at or above th. The path's own endpoint is exempt,
    so nodes below th still get routes, they just never relay. Equal-cost
    parents resolve to the smaller vertex id (the sink's id is smaller
    than every node's, so it wins ties).

    Raises ConstructionFailed listing every live node left unreachable.
    Node statuses in the scenario are refreshed from the resulting child
    counts; Failed stays Failed.
    """
    if graph is None:
        graph = build_reachability(scenario)
    weights = graph.hop_weights(params)
    live = set(scenario.live_ids())

    dist: dict[int, float] = {SINK: 0.0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, SINK)]
    done: set[int] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if not _relay_eligible(scenario, v, th):
            continue  # v keeps its route but expands no further
        for u, w in zip(graph.neighbors(v), weights[v]):
            if u == SINK or u not in live:
                continue
            cand = d + w
            old = dist.get(u)
            if old is None or cand < old:
                dist[u] = cand
                parent[u] = v
                heapq.heappush(heap, (cand, u))
            elif cand == old and v < parent[u]:
                parent[u] = v

    unreachable = live - dist.keys()
    if unreachable:
        raise ConstructionFailed(unreachable)

    children: dict[int, int] = {n.id: 0 for n in scenario.nodes}
    for u, p in parent.items():
        if p != SINK:
            children[p] += 1
    tree = BackboneTree(parent=parent, consumption=dist, children_count=children)
    _refresh_statuses(scenario, children, th, e_fail)
    return tree


def _refresh_statuses(scenario: Scenario, children: dict[int, int],
                      th: float, e_fail: float = DEFAULT_E_FAIL) -> None:
    """Re-derive every node's status from energy and child count."""
    for node in scenario.nodes:
        if node.status is NodeStatus.FAILED:
            continue  # death is permanent
        node.status = classify_status(node.energy, children.get(node.id, 0),
                                      th, e_fail)


@dataclass
class ReparentReport:
    """Outcome of one local parent re-election."""

    node: int
    old_parent: Optional[int] = None
    new_parent: Optional[int] = None
    old_consumption: float = 0.0
    new_consumption: float = 0.0
    changed: bool = False
    unreachable: bool = False
    demoted: Optional[int] = None  # old parent, when it dropped to zero children


def _is_descendant(tree: BackboneTree, vertex: int, ancestor: int) -> bool:
    while vertex != SINK:
        if vertex == ancestor:
            return True
        vertex = tree.parent[vertex]
    return False


def reparent_if_better(tree: BackboneTree, node_id: int,
                       graph: ReachabilityGraph, scenario: Scenario,
                       params: RadioParams, th: float,
                       e_fail: float = DEFAULT_E_FAIL) -> ReparentReport:
    """Re-elect node_id's parent among its currently eligible neighbors.

    The winning neighbor minimizes (hop cost + neighbor's consumption),
    ties to the smaller id. On a change the consumption delta propagates
    to the node's whole subtree and both parents' child counts and
    statuses are refreshed; an old parent left childless is demoted off
    the tree. With no eligible neighbor at all the report only flags the
    node unreachable, leaving the tree untouched for the caller to rebuild.
    """
    pos = scenario.positions()
    report = ReparentReport(node=node_id, old_parent=tree.parent.get(node_id),
                            old_consumption=tree.consumption.get(node_id, math.inf))

    best: Optional[tuple[float, int]] = None
    for v in graph.neighbors(node_id):
        if v != SINK:
            if not _relay_eligible(scenario, v, th):
                continue
            if v not in tree.consumption:
                continue  # no path of its own
            if _is_descendant(tree, v, node_id):
                continue
        cand = (tree.consumption[v] if v != SINK else 0.0) \
            + hop_weight(params, distance(pos[node_id], pos[v]), v)
        if best is None or (cand, v) < best:
            best = (cand, v)

    if best is None:
        report.unreachable = True
        return report

    new_cost, new_parent = best
    old_parent = report.old_parent
    if new_parent == old_parent and new_cost == report.old_consumption:
        return report  # fixed point

    report.changed = True
    report.new_parent = new_parent
    report.new_consumption = new_cost
    delta = new_cost - tree.consumption[node_id]
    tree.parent[node_id] = new_parent
    if delta != 0.0:
        # shift the whole subtree hanging off node_id
        for u in tree.parent:
            if _is_descendant(tree, u, node_id):
                tree.consumption[u] += delta
    tree.consumption[node_id] = new_cost

    if old_parent is not None and old_parent != SINK and old_parent != new_parent:
        tree.children_count[old_parent] -= 1
        if tree.children_count[old_parent] == 0:
            old = scenario.node(old_parent)
            if old.status is not NodeStatus.FAILED:
                old.status = classify_status(old.energy, 0, th, e_fail)
                report.demoted = old_parent
    if new_parent != SINK and new_parent != old_parent:
        tree.children_count[new_parent] += 1
        new = scenario.node(new_parent)
        if new.status is not NodeStatus.FAILED:
            new.status = classify_status(new.energy,
                                         tree.children_count[new_parent],
                                         th, e_fail)
    return report


def relocate_sink(scenario: Scenario, grid: int = 4,
                  max_step: Optional[float] = None) -> tuple[float, float]:
    """Pick the sink's next position: centroid of the richest grid cell.

    The field splits into grid x grid equal cells; each non-empty cell
    scores the mean residual energy of its live nodes and the best cell
    (ties to the smaller row-major index) attracts the sink. A bounded
    max_step clamps the move to that many meters along the straight line.
    Pure: returns the position, the caller updates the field and rebuilds.
    """
    f = scenario.field
    cell_w = f.width / grid
    cell_h = f.height / grid
    total: dict[int, float] = {}
    count: dict[int, int] = {}
    for node in scenario.nodes:
        if node.status is NodeStatus.FAILED:
            continue
        col = min(int(node.x / cell_w), grid - 1)
        row = min(int(node.y / cell_h), grid - 1)
        idx = row * grid + col
        total[idx] = total.get(idx, 0.0) + node.energy
        count[idx] = count.get(idx, 0) + 1

    best_idx = min(total, key=lambda i: (-(total[i] / count[i]), i))
    row, col = divmod(best_idx, grid)
    target = ((col + 0.5) * cell_w, (row + 0.5) * cell_h)

    cur = f.sink_pos
    step = distance(cur, target)
    if max_step is None or step <= max_step:
        return target
    frac = max_step / step
    return (cur[0] + (target[0] - cur[0]) * frac,
            cur[1] + (target[1] - cur[1]) * frac)
