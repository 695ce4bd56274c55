"""Domain types, field geometry, seeded deployment and unit-disk reachability.

The reachability graph also carries each edge's hop weight and transmit
cost, each built once per radio, and moves its sink vertex in place.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .energy import DEFAULT_E_FAIL, RadioParams, rx_cost, tx_cost

E_INIT = 2.0               # default initial battery per node, joules
DEFAULT_TH = 0.1 * E_INIT  # relay-eligibility threshold, joules

# Distinguished vertex id for the sink.  The sink is not a Node: it has
# unlimited power, never drains, and may be moved.
SINK = -1


class ConstructionFailed(RuntimeError):
    """A backbone construction attempt left live nodes without a route."""

    def __init__(self, unreachable: Iterable[int]):
        self.unreachable = sorted(unreachable)
        super().__init__(f"no route to sink for nodes {self.unreachable}")


class NodeStatus(Enum):
    TREE = "tree"
    CANDIDATE_NON_TREE = "candidate_non_tree"
    PERMANENT_NON_TREE = "permanent_non_tree"
    FAILED = "failed"


def classify_status(energy: float, children: int, th: float,
                    e_fail: float = DEFAULT_E_FAIL) -> NodeStatus:
    """Four-way node status from residual energy and current child count."""
    if energy >= th:
        return NodeStatus.TREE if children > 0 else NodeStatus.CANDIDATE_NON_TREE
    if energy >= e_fail:
        return NodeStatus.PERMANENT_NON_TREE
    return NodeStatus.FAILED


@dataclass
class Node:
    id: int
    x: float
    y: float
    energy: float
    status: NodeStatus = NodeStatus.CANDIDATE_NON_TREE

    @property
    def pos(self) -> tuple[float, float]:
        return (self.x, self.y)

    def is_alive(self) -> bool:
        return self.status is not NodeStatus.FAILED


@dataclass
class Field:
    width: float
    height: float
    sink_x: float
    sink_y: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("field dimensions must be positive")
        if not self.contains(self.sink_x, self.sink_y):
            raise ValueError("sink position outside the field")

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height

    @property
    def sink_pos(self) -> tuple[float, float]:
        return (self.sink_x, self.sink_y)


@dataclass
class Scenario:
    field: Field
    nodes: list[Node]
    sensing_range: float
    rng_seed: int = 0

    def __post_init__(self):
        if self.sensing_range <= 0:
            raise ValueError("sensing range must be positive")
        ids = [n.id for n in self.nodes]
        if ids != list(range(len(ids))):
            raise ValueError("node ids must be dense from 0 in order")
        for n in self.nodes:
            if not self.field.contains(n.x, n.y):
                raise ValueError(f"node {n.id} outside the field")

    def copy(self) -> "Scenario":
        """An independent copy: a fresh Field and fresh Nodes."""
        f = self.field
        return Scenario(Field(f.width, f.height, f.sink_x, f.sink_y),
                        [Node(n.id, n.x, n.y, n.energy, n.status)
                         for n in self.nodes],
                        self.sensing_range, self.rng_seed)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def positions(self) -> dict[int, tuple[float, float]]:
        """Positions of every vertex, the sink included under id SINK."""
        pos = {n.id: (n.x, n.y) for n in self.nodes}
        pos[SINK] = self.field.sink_pos
        return pos

    def live_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.status is not NodeStatus.FAILED]


@dataclass
class ReachabilityGraph:
    """Unit-disk adjacency: edge iff euclidean distance <= range (inclusive).

    points holds the coordinates the graph was built from, one row per
    node id and the sink last, so row SINK (-1) is the sink. Per-edge
    cost rows (tx_costs, and hop_weights derived from them) are built on
    first use for one radio and kept until another radio asks; a sink
    move patches only the entries that involve the sink.
    """

    adjacency: dict[int, list[int]]
    range: float
    points: np.ndarray = dc_field(repr=False, compare=False)
    # None until first use, so a graph that never routes (the sweeps')
    # allocates nothing more: an empty dict per graph raised the 4000-node
    # sweep's peak RSS by about 0.7 MB
    _radio: Optional[RadioParams] = dc_field(default=None, init=False,
                                             repr=False, compare=False)
    _tx: Optional[dict[int, list[float]]] = dc_field(
        default=None, init=False, repr=False, compare=False)
    _weights: Optional[dict[int, list[float]]] = dc_field(
        default=None, init=False, repr=False, compare=False)

    def neighbors(self, vertex: int) -> list[int]:
        return self.adjacency[vertex]

    def tx_costs(self, params: RadioParams) -> dict[int, list[float]]:
        """Per-vertex rows aligned with adjacency: costs[v][k] is the
        tx_cost of the hop from v to adjacency[v][k]."""
        if params != self._radio:
            self._radio, self._tx, self._weights = params, None, None
        if self._tx is None:
            xy = self.points.tolist()
            self._tx = {v: [tx_cost(params, distance(xy[v], xy[u]))
                            for u in nbrs]
                        for v, nbrs in self.adjacency.items()}
        return self._tx

    def hop_weights(self, params: RadioParams) -> dict[int, list[float]]:
        """Per-vertex rows aligned with adjacency: weights[v][k] is the
        hop_weight of the hop from adjacency[v][k] into v.

        distance is symmetric to the bit (hypot drops the signs), so
        this is the tx_costs entry plus v's receive cost, which is how
        hop_weight adds them.
        """
        tx = self.tx_costs(params)
        if self._weights is None:
            rx = rx_cost(params)
            self._weights = {v: [t + rx for t in row] if v != SINK
                             else list(row) for v, row in tx.items()}
        return self._weights

    def move_sink(self, sink_pos: tuple[float, float]) -> None:
        """Put the sink at sink_pos, as build_reachability would have.

        The sink's row is recomputed with the build's exact inclusive
        test, and every node row the sink enters, stays in or leaves has
        its head (SINK sorts first) inserted, recomputed or dropped, in
        the adjacency and in the cost rows built so far.
        """
        pts = self.points
        pts[-1] = sink_pos
        # (a - b) ** 2 == (b - a) ** 2 exactly: the build's test either way
        d2 = (pts[:-1, 0] - pts[-1, 0]) ** 2 + (pts[:-1, 1] - pts[-1, 1]) ** 2
        row = np.flatnonzero(d2 <= self.range**2).tolist()
        left = set(self.adjacency[SINK]).difference(row)
        entered = set(row).difference(self.adjacency[SINK])
        self.adjacency[SINK] = row
        for u in left:
            del self.adjacency[u][0]
        for u in entered:
            self.adjacency[u].insert(0, SINK)
        if self._tx is None:
            return
        params = self._radio
        xy = pts.tolist()
        sink_row = [tx_cost(params, distance(xy[SINK], xy[u])) for u in row]
        heads = dict(zip(row, sink_row))  # distance is symmetric to the bit
        _patch_heads(self._tx, sink_row, heads, left, entered)
        if self._weights is not None:
            rx = rx_cost(params)
            _patch_heads(self._weights, list(sink_row),
                         {u: t + rx for u, t in heads.items()}, left, entered)


def _patch_heads(rows: dict[int, list[float]], sink_row: list[float],
                 heads: dict[int, float], left: set[int],
                 entered: set[int]) -> None:
    """Give rows the sink's new row and each node row's new head entry."""
    rows[SINK] = sink_row
    for u in left:
        del rows[u][0]
    for u, head in heads.items():
        if u in entered:
            rows[u].insert(0, head)
        else:
            rows[u][0] = head


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def hop_weight(params: RadioParams, dist: float, parent: int) -> float:
    """Energy one hop costs the network: sender tx plus receiver rx.

    The sink is mains-powered, so reception there is free.
    """
    cost = tx_cost(params, dist)
    if parent != SINK:
        cost += rx_cost(params)
    return cost


def deploy_uniform(field: Field, n: int, seed: int, e_init: float = E_INIT,
                   th: float = DEFAULT_TH,
                   e_fail: float = DEFAULT_E_FAIL) -> list[Node]:
    """Drop n nodes i.i.d. uniform over the field; same seed, same layout."""
    if n < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, field.width, n)
    ys = rng.uniform(0.0, field.height, n)
    status = classify_status(e_init, 0, th, e_fail)
    return [Node(i, float(xs[i]), float(ys[i]), e_init, status) for i in range(n)]


def build_reachability(scenario: Scenario) -> ReachabilityGraph:
    """Unit-disk adjacency over the nodes plus the sink vertex.

    The n+1 points fall into a uniform grid of square cells a hair wider
    than the range, so every pair within range sits in the same or an
    adjacent cell and each point is tested only against the 3x3 block of
    cells around it. The test itself is the exact inclusive
    ((p_a - p_b) ** 2).sum() <= range**2, so the graph equals the
    all-pairs one while memory is O(n*k) for mean degree k, not O(n^2).
    Neighbour lists are sorted plain ints, the sink (SINK) first.
    """
    n = len(scenario.nodes)
    pts = np.array([(nd.x, nd.y) for nd in scenario.nodes]
                   + [scenario.field.sink_pos], dtype=float)
    r = scenario.sensing_range

    # The relative margin dwarfs the rounding in the cell index, which the
    # span floor keeps below 2**20 cells a side even for a tiny range.
    origin = pts.min(axis=0)
    span = float((pts.max(axis=0) - origin).max())
    cell = max(r, span * 2.0**-20) * (1.0 + 1e-6)
    cx, cy = np.floor((pts - origin) / cell).astype(np.int64).T
    xs, ys = pts.T.copy()
    rows = int(cy.max()) + 3  # a spare row either side keeps keys unique
    key = (cx + 1) * rows + (cy + 1)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]

    pairs_a = []
    pairs_b = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            # sorted needles: the point order of the pairs does not matter
            target = sorted_key + (dx * rows + dy)
            lo = np.searchsorted(sorted_key, target, side="left")
            hi = np.searchsorted(sorted_key, target, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                continue
            a = np.repeat(order, counts)
            starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
            b = order[starts + np.arange(total)]
            # the same float ops as ((p_a - p_b) ** 2).sum(), in 1-D
            d2 = (xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2
            keep = (d2 <= r**2) & (a != b)
            pairs_a.append(a[keep])
            pairs_b.append(b[keep])

    a = np.concatenate(pairs_a)
    b = np.concatenate(pairs_b)
    vb = np.where(b == n, SINK, b)
    # group by point row, then sort each row's neighbour ids ascending
    a_sorted = np.sort(a * (n + 1) + (vb + 1))
    nbrs = (a_sorted % (n + 1) - 1).tolist()
    bounds = np.concatenate(([0], np.cumsum(np.bincount(a, minlength=n + 1))))
    bounds = bounds.tolist()
    adjacency = {row: nbrs[bounds[row]:bounds[row + 1]] for row in range(n)}
    adjacency[SINK] = nbrs[bounds[n]:bounds[n + 1]]
    return ReachabilityGraph(adjacency, scenario.sensing_range, pts)


def is_connected_to_sink(graph: ReachabilityGraph,
                         alive: Optional[Iterable[int]] = None) -> bool:
    """True iff every (alive) node sits in the sink's connected component.

    Only alive nodes may be traversed; by default all nodes count as alive.
    """
    node_ids = [v for v in graph.adjacency if v != SINK]
    live = set(node_ids) if alive is None else set(alive)
    seen = {SINK}
    queue = deque([SINK])
    while queue:
        v = queue.popleft()
        for u in graph.adjacency[v]:
            if u in live and u not in seen:
                seen.add(u)
                queue.append(u)
    return live <= seen
