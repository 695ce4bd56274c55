"""Scenarios as arrays, seeded deployment and unit-disk reachability.

The reachability graph is geometry only: CSR edges, each edge's distance
and its square as flat arrays priced on demand, once per edge, and a sink
vertex moved in place. energy.tx_costs prices the edges a build gathers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import repeat
from typing import Callable, Iterable, Optional

import numpy as np

from .config import Field

# Edges per block of the scalar per-edge passes (see _per_edge).
_BLOCK = 2048

# Every node's energy (float64) and whether it is alive (bool), by id:
# with a ReachabilityGraph, all that a build or relocate_sink reads.
State = tuple[np.ndarray, np.ndarray]

# Distinguished vertex id for the sink.  The sink is not a node: it has
# unlimited power, never drains, and may be moved.
SINK = -1


class ConstructionFailed(RuntimeError):
    """simulate's error for a first build that strands live nodes."""

    def __init__(self, unreachable: Iterable[int]):
        self.unreachable = sorted(unreachable)
        super().__init__(f"no route to sink for nodes {self.unreachable}")


@dataclass(eq=False)
class Scenario:
    """A deployment as arrays by node id: each node's position (xy, (n, 2))
    and battery (energy, (n,)).

    xy and energy are held as float arrays (np.asarray: a float array is
    not copied). points() and state() return copies, so a run never
    writes them. Liveness is not stored: state(floor) derives it from
    energy under a run's SimPolicy.floor.
    """

    field: Field
    xy: np.ndarray
    energy: np.ndarray
    sensing_range: float
    rng_seed: int = 0

    def __post_init__(self):
        self.field.validate()
        self.xy = np.asarray(self.xy, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        n = len(self.xy)
        if not n:
            raise ValueError("need at least one node")
        if self.xy.shape != (n, 2) or self.energy.shape != (n,):
            raise ValueError("xy and energy must be shaped (n, 2) and (n,)")
        if not 0 < self.sensing_range < math.inf:
            raise ValueError("sensing range must be positive and finite")
        if not (np.isfinite(self.energy) & (self.energy >= 0)).all():
            raise ValueError("node energies must be finite and >= 0")
        # nan fails every comparison
        inside = ((self.xy >= 0.0)
                  & (self.xy <= (self.field.width, self.field.height)))
        if not inside.all():  # .all(axis=1) costs more than the rest
            node = np.flatnonzero(~inside.all(axis=1))[0]
            raise ValueError(f"node {node} outside the field")

    def points(self) -> np.ndarray:
        """A fresh (n+1, 2) array: each node's (x, y) by id, the sink last."""
        return np.vstack((self.xy, [self.field.sink_pos]))

    def state(self, floor: float) -> State:
        """A copy of the nodes' energies and each node's liveness,
        energy >= floor (a SimPolicy's floor), as a State."""
        return self.energy.copy(), self.energy >= floor


@dataclass(eq=False)
class ReachabilityGraph:
    """Unit-disk adjacency: edge iff euclidean distance <= range (inclusive).

    points holds the coordinates the graph was built from, one row per
    node id and the sink last, so row SINK (-1) is the sink. The edges
    are CSR arrays with the sink as row and id n (the node count): row v
    is nbrs[indptr[v]:indptr[v + 1]], its neighbour ids ascending after
    the sink, which sorts first. Per-edge arrays aligned with nbrs (the
    distances and their squares) are kept, and each entry is priced the
    first time a caller asks for it: a build asks for the edges it reads,
    and build_mmevbt, which reads nearly all of them, for the whole array.
    A sink move patches only the entries that involve the sink.
    """

    range: float
    points: np.ndarray = dc_field(repr=False)
    indptr: np.ndarray = dc_field(repr=False)
    nbrs: np.ndarray = dc_field(repr=False)
    # None until first use, so a graph that never routes (the sweeps')
    # allocates nothing more; then NaN marks an entry not yet priced, as
    # two finite points are never a NaN distance apart
    _dist: Optional[np.ndarray] = dc_field(default=None, init=False,
                                           repr=False)
    _sq: Optional[np.ndarray] = dc_field(default=None, init=False,
                                         repr=False)
    # the names of the kept arrays with every entry priced
    _whole: set[str] = dc_field(default_factory=set, init=False, repr=False)

    def edge_rows(self, edges: np.ndarray) -> np.ndarray:
        """The row (sending vertex, the sink as n) of each given edge."""
        return np.searchsorted(self.indptr, edges, side="right") - 1

    def out_edges(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edges of the given rows, row after row, and each one's row."""
        edges, counts = csr_positions(self.indptr, rows)
        return rows.repeat(counts), edges

    def distances(self, edges: Optional[np.ndarray] = None) -> np.ndarray:
        """Per edge, the distance from its row vertex to nbrs[k]; given
        an array of edges, theirs alone.

        Scalar math.hypot, as distance() computes it: np.hypot differs
        from it in the last bit for some inputs. hypot drops the signs,
        so the distance is symmetric to the bit.
        """
        return self._kept("_dist", edges, self._hypot)

    def squares(self, edges: Optional[np.ndarray] = None) -> np.ndarray:
        """Per edge, its distance squared as tx_cost squares it, which
        energy.tx_costs prices; given an array of edges, theirs alone."""
        return self._kept("_sq", edges,
                          lambda at: _squares(self.distances(at)))

    def _kept(self, name: str, edges: Optional[np.ndarray],
              price: Callable[[Optional[np.ndarray]], np.ndarray]
              ) -> np.ndarray:
        """The kept per-edge array name, whole (edges None) or at the
        given edges, after price(at) has priced the entries at the edges
        at that are not priced yet. A whole array asked for before any
        entry is priced is built in one pass, price(None); once whole, it
        is handed back as it is, as a sink move prices its new entries."""
        kept = getattr(self, name)
        if edges is None:
            if name not in self._whole:
                if kept is None:
                    setattr(self, name, price(None))
                else:
                    at = np.flatnonzero(np.isnan(kept))
                    kept[at] = price(at)
                self._whole.add(name)
            return getattr(self, name)
        if kept is None:
            kept = np.full(len(self.nbrs), math.nan)
            setattr(self, name, kept)
        values = kept[edges]
        todo = np.isnan(values)
        if todo.any():
            at = edges[todo]
            values[todo] = kept[at] = price(at)
        return values

    def _hypot(self, edges: Optional[np.ndarray]) -> np.ndarray:
        """The distances of the given edges (None: all), by math.hypot."""
        xs, ys = self.points.T
        if edges is None:
            src = np.repeat(np.arange(len(xs)), np.diff(self.indptr))
            dst = self.nbrs
        else:
            src, dst = self.edge_rows(edges), self.nbrs[edges]
        return _per_edge(math.hypot, xs[src] - xs[dst], ys[src] - ys[dst])

    def move_sink(self, sink_pos: tuple[float, float]) -> None:
        """Put the sink at sink_pos, as build_reachability would have.

        The sink's row is recomputed with the build's exact inclusive
        test, and every node row the sink enters, stays in or leaves has
        its head (the sink sorts first) inserted, recomputed or dropped,
        in the CSR arrays and in the kept distances and squares. There
        the sink's new entries are priced, and every other entry keeps
        its value, or stays unpriced. A non-finite position raises
        ValueError and moves nothing.
        """
        if not np.isfinite(sink_pos).all():
            raise ValueError("points must be finite")
        pts = self.points
        pts[-1] = sink_pos
        n = len(pts) - 1
        # (a - b) ** 2 == (b - a) ** 2 exactly: the build's test either way
        with np.errstate(over="ignore"):
            d2 = ((pts[:-1, 0] - pts[-1, 0]) ** 2
                  + (pts[:-1, 1] - pts[-1, 1]) ** 2)
        row = np.flatnonzero(d2 <= _range_squared(self.range))

        # node rows keep their node entries in order; a row the sink is
        # in gets the sink as its head, and the sink row is replaced
        stop = self.indptr[n]
        tail = self.nbrs[:stop] != n
        lengths = np.diff(self.indptr)
        lengths[self.nbrs[stop:]] -= 1
        lengths[row] += 1
        lengths[n] = len(row)
        self.indptr = np.concatenate(([0], np.cumsum(lengths)))
        heads = self.indptr[row]
        slots = np.ones(self.indptr[n], dtype=bool)
        slots[heads] = False

        def patch(old: np.ndarray, head: np.ndarray,
                  sink_row: np.ndarray) -> np.ndarray:
            new = np.empty(self.indptr[-1], dtype=old.dtype)
            new[:len(slots)][slots] = old[:stop][tail]
            new[heads] = head
            new[len(slots):] = sink_row
            return new

        self.nbrs = patch(self.nbrs, n, row)
        if self._dist is None and self._sq is None:
            return
        # distance is symmetric to the bit, so a node row's head equals
        # the sink row's entry for that node
        sx, sy = sink_pos
        dist = np.array(list(map(math.hypot, (sx - pts[row, 0]).tolist(),
                                 (sy - pts[row, 1]).tolist())), dtype=float)
        if self._dist is not None:
            self._dist = patch(self._dist, dist, dist)
        if self._sq is not None:
            sq = _squares(dist)
            self._sq = patch(self._sq, sq, sq)


def csr_positions(indptr: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the given CSR rows' entries, row after row, and
    each row's entry count."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = counts.cumsum()
    at = np.arange(ends[-1] if len(ends) else 0)
    at += (starts - ends + counts).repeat(counts)
    return at, counts


def _squares(dist: np.ndarray) -> np.ndarray:
    """Each distance squared by libm pow, as tx_cost's distance**2
    computes it; a numpy square is d*d, which differs from it in the
    last bit for some distances."""
    return _per_edge(math.pow, dist, 2.0)


def _per_edge(fn: Callable[..., float], *columns) -> np.ndarray:
    """fn over the Python floats of aligned arrays, or a float that every
    edge shares, a block at a time, so no list of every edge's floats is
    ever held."""
    out = np.empty(len(columns[0]))
    for lo in range(0, len(out), _BLOCK):
        out[lo:lo + _BLOCK] = list(map(fn, *(
            c[lo:lo + _BLOCK].tolist() if isinstance(c, np.ndarray)
            else repeat(c) for c in columns)))
    return out


def left_sum(values: Iterable[float]) -> float:
    """values added one by one from the left, starting at 0.0.

    This is what sum() of floats computed before Python 3.12; from 3.12
    on, sum() compensates the rounding (Neumaier), which can change the
    last bits.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def deploy_uniform(field: Field, n: int, seed: int) -> np.ndarray:
    """n points i.i.d. uniform over the field, (n, 2): all x draws, then
    all y draws, from one generator; same seed, same layout. Raises
    ValueError for a field that fails validate()."""
    field.validate()  # numpy would raise OverflowError for a nan or inf side
    if n < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, field.width, n)
    ys = rng.uniform(0.0, field.height, n)
    return np.column_stack((xs, ys))


def _range_squared(sensing_range: float) -> float:
    """sensing_range**2, the one squared range every in-range test reads;
    inf where the square overflows (above about 1.34e154), so that every
    pair is in range."""
    try:
        return sensing_range**2
    except OverflowError:
        return math.inf


def build_reachability(points: np.ndarray,
                       sensing_range: float) -> ReachabilityGraph:
    """Unit-disk adjacency over an (n+1, 2) array of points, the sink last.

    The graph keeps points (move_sink writes its last row), so pass an
    array nothing else holds, such as Scenario.points(). The points fall
    into square cells a hair wider than the range, so a pair within range
    is in one cell or in adjacent ones. Sorted into cell order, each point
    is tested against the later points of its own cell and all points of
    half of the eight cells around it, and each pair found is kept both
    ways: the exact inclusive ((p_a - p_b) ** 2).sum() <= range**2 is
    symmetric to the bit, as fl(a - b) == -fl(b - a). So the graph equals
    the all-pairs one in O(n*k) memory for mean degree k. Each CSR row
    lists its neighbour ids ascending, the sink (n) first.

    Candidate and kept pairs are int32 cell-order positions, and one
    stencil offset's buffers are freed before the next; the CSR comes from
    one int64 key per directed edge, sorted in place. The transient peak,
    the returned arrays included, is about 19 bytes per directed edge at
    4000 nodes and 17 at 20k and 100k (tracemalloc, mean degree 20 to 31).
    A non-finite point raises ValueError.
    """
    if not 0 < sensing_range < math.inf:
        raise ValueError("sensing range must be positive and finite")
    if points.ndim != 2 or points.shape[1] != 2 or not len(points):
        raise ValueError("points must be a non-empty (m, 2) array")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    pts, r, m = points, sensing_range, len(points)
    r2 = _range_squared(r)

    # The relative margin dwarfs the rounding in the cell index, which the
    # span floor keeps below 2**20 cells a side even for a tiny range.
    # Below 2**-500 a square can underflow (1e-300**2 == 3e-300**2 == 0.0),
    # so a pair cells apart could pass the test: no cell is that small.
    origin = pts.min(axis=0)
    span = float((pts.max(axis=0) - origin).max())
    cell = max(r, span * 2.0**-20, 2.0**-500) * (1.0 + 1e-6)
    cx, cy = np.floor((pts - origin) / cell).astype(np.int64).T
    rows = int(cy.max()) + 3  # a spare row either side keeps keys unique
    key = (cx + 1) * rows + (cy + 1)
    order = np.argsort(key, kind="stable")
    key = key[order]
    xs, ys = pts[order, 0], pts[order, 1]
    ids = order.astype(np.int32)
    # a row's neighbours sort by code: the sink (id m - 1) first, as 0
    codes = (ids + 1) % m
    here = np.arange(m, dtype=np.int32)

    pieces = []
    for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        if dx == dy == 0:  # the later points of the own cell
            lo = here + 1
            hi = np.searchsorted(key, key, side="right")
        else:
            target = key + (dx * rows + dy)
            lo = np.searchsorted(key, target, side="left")
            hi = np.searchsorted(key, target, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            continue
        # candidate t of point i is position lo[i] + t - (i's first t)
        a = np.repeat(here, counts)
        b = np.repeat((lo - np.cumsum(counts) + counts).astype(np.int32),
                      counts)
        b += np.arange(total, dtype=np.int32)
        # the same float ops as ((p_a - p_b) ** 2).sum(), in 1-D
        with np.errstate(over="ignore"):
            d2 = xs[a]
            d2 -= xs[b]
            d2 *= d2
            sq = ys[a]
            sq -= ys[b]
            sq *= sq
            d2 += sq
        del sq
        keep = d2 <= r2
        del d2
        pieces.append((a[keep], b[keep]))
        del a, b, keep

    # each pair both ways, as key row id * m + neighbour code
    keys = np.empty(2 * sum(len(a) for a, _ in pieces), dtype=np.int64)
    at = 0
    while pieces:
        a, b = pieces.pop()
        for u, w in ((a, b), (b, a)):
            out = keys[at:at + len(u)]
            np.multiply(ids[u], m, out=out, dtype=np.int64)
            out += codes[w]
            at += len(u)
        del a, b, u, w, out
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(m + 1) * m)
    # code 0, the sink, becomes its CSR id n = m - 1
    keys -= 1
    keys %= m
    return ReachabilityGraph(sensing_range, pts, indptr,
                             keys.astype(np.int32))


def masked_edges(graph: ReachabilityGraph,
                 mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges between vertices the bool mask holds, as a mask over
    graph.nbrs, and the CSR offsets of each vertex's such edges."""
    keep = mask[graph.nbrs] & np.repeat(mask, np.diff(graph.indptr))
    offsets = np.concatenate(([0], np.cumsum(keep, dtype=np.int32)))
    return keep, offsets[graph.indptr]


def hop_levels(graph: ReachabilityGraph,
               mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Hop levels from the sink (vertex n) over the vertices mask holds,
    and the deepest; an unreached vertex holds level n + 1.

    A breadth-first search over the edges between those vertices and the
    sink: each level walks only the rows of the vertices the level before
    reached, each vertex once, so every edge is read once."""
    n = len(mask) - 1
    mask = mask.copy()
    mask[n] = True
    keep, offsets = masked_edges(graph, mask)
    heads, bounds = graph.nbrs[keep].tolist(), offsets.tolist()
    level = [n + 1] * n + [0]
    frontier, max_level = [n], 0
    while True:
        reached = []
        for u in frontier:
            for w in heads[bounds[u]:bounds[u + 1]]:
                if level[w] > n:
                    level[w] = max_level + 1
                    reached.append(w)
        if not reached:
            return np.array(level), max_level
        frontier, max_level = reached, max_level + 1


def is_connected_to_sink(graph: ReachabilityGraph, live: np.ndarray) -> bool:
    """True iff every node the bool mask live holds (a State's, by id)
    reaches the sink over live nodes alone."""
    level, _ = hop_levels(graph, np.append(live, True))  # the sink, n, too
    return bool((level[:-1][live] <= len(live)).all())
