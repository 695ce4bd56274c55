"""Load-balanced parent selection over a backbone.

Each node scores its reachable tree-node parents with a weighted fitness
(distance, residual energy, path straightness) and forwards each packet
to one of them at random, with probability proportional to fitness. A
build returns its candidate edges and their fitness as flat arrays
(CandidateArrays).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .config import E_INIT, EnergyParams, FitnessParams, SimPolicy
from .model import ReachabilityGraph, State, hop_levels, left_sum

BETA_MIN = math.pi / 36  # 5 degrees; caps the straightness reward


def selection_probabilities(values: Sequence[float]) -> list[float]:
    """Probabilities proportional to the fitness values (sum 1)."""
    if not values:
        raise ValueError("need at least one candidate")
    if min(values) < 0:
        raise ValueError("fitness values must be nonnegative")
    total = left_sum(values)
    if total <= 0:
        raise ValueError("degenerate all-zero fitness")
    return [v / total for v in values]


def select_parent(probabilities: Sequence[float], rng: np.random.Generator) -> int:
    """Draw one candidate index: the first whose cumulative sum exceeds
    R, uniform in [0,1) (the scan's R < acc).

    The last sum never bounds a draw, so rounding that leaves it just
    below 1 lands its slack on the last interval. The round loop (and
    compare_load_spread in tests/oracles.py) bisects each row of a route
    table's sums in place with the same bounds.
    """
    cumulative = list(itertools.accumulate(probabilities))
    return bisect_right(cumulative, rng.random(), 0, len(cumulative) - 1)


@dataclass(frozen=True)
class CandidateArrays:
    """One build's candidate edges as flat arrays, node rows ascending.

    The k-th node with a candidate has the graph edges edges[bounds[k]:
    bounds[k + 1]] in their row's order: the sink (vertex n) first, then
    node ids ascending. fitness aligns with edges.
    max_level is the deepest backbone level: no route takes more than
    1 + max_level hops.
    """

    bounds: np.ndarray
    edges: np.ndarray
    fitness: np.ndarray
    max_level: int

    def _padded(self, fill: float) -> tuple[np.ndarray, ...]:
        """fitness as a rows x widest matrix padded with fill, and each
        value's row and column in it."""
        widths = np.diff(self.bounds)
        rank = np.repeat(np.arange(len(widths)), widths)
        col = np.arange(len(rank)) - self.bounds[:-1][rank]
        fit = np.full((len(widths), int(widths.max(initial=0))), fill)
        fit[rank, col] = self.fitness
        return fit, rank, col

    def best_edges(self) -> np.ndarray:
        """Each row's best parent edge: its first maximal fitness, as
        best_parent in tests/oracles.py picks it."""
        fit, _, _ = self._padded(-math.inf)
        if not fit.size:
            return self.edges[:0]
        return self.edges[self.bounds[:-1] + fit.argmax(axis=1)]

    def draws(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's selection_probabilities and their cumulative sums
        (itertools.accumulate of the row), flat in edges order.

        left_sum and accumulate are left folds, so both are column loops
        over the rows padded with zeros: adding 0.0 changes no sum. The
        first row selection_probabilities rejects raises its error.
        """
        fit, rank, col = self._padded(0.0)
        total = np.zeros(len(fit))
        for k in range(fit.shape[1]):
            total = total + fit[:, k]
        bad = np.flatnonzero((fit < 0).any(axis=1) | (total <= 0))
        if bad.size:
            lo, hi = self.bounds[bad[0]:bad[0] + 2]
            selection_probabilities(self.fitness[lo:hi].tolist())
        with np.errstate(invalid="ignore"):  # inf / inf is nan, silently
            probs = fit / total[:, None]
        cum = probs.copy()
        for k in range(1, cum.shape[1]):
            cum[:, k] = cum[:, k - 1] + probs[:, k]
        return probs[rank, col], cum[rank, col]


def build_forwarding_problem(graph: ReachabilityGraph, state: State,
                             tree_nodes: Collection[int], th: float,
                             params: FitnessParams, e_init: float = E_INIT
                             ) -> tuple[CandidateArrays, np.ndarray]:
    """Wire every live node to its eligible tree-node parents.

    A tree node, an id of tree_nodes (in any order, such as the picks of
    build_min_cover), may serve as a parent while it is alive, holds at
    least th joules and has a backbone path to the sink (breadth-first
    level over eligible tree nodes plus the sink). Candidates are
    neighbors of strictly smaller level; non-backbone nodes rank as level
    infinity, so any adjacent backbone vertex qualifies for them. A node
    with the sink itself in range needs no backbone at all: its candidate
    list is just the sink, delivery is direct. Each backbone node's
    next_hop, which its children's deviation angles read, is its
    smallest-id neighbour one level closer. Returns the candidates and
    their fitness totals as CandidateArrays, and the live nodes with no
    candidate at all, ascending. params, a th or an e_init that fail
    validate(), and in raw mode a zero-distance candidate, raise
    ValueError.

    Everything is a pass over the graph's CSR edges: the level BFS walks
    the edges between eligible vertices, a next_hop is the first edge of
    its row one level down, and one mask picks the candidate edges. The
    fitness terms repeat the float operations of the scalar reference
    fitness() in tests/oracles.py in its order, elementwise, and the
    angle is its scalar math.atan2 per pair, so every total equals
    fitness(...).total to the bit. The normalized distance term divides
    by graph.range. Reads only graph and state, and writes neither.
    """
    params.validate()
    SimPolicy(th=th).validate()
    EnergyParams(e_init).validate()
    energy, live = state
    n = len(energy)
    live = np.append(live, False)
    # the sink, vertex n, is mains-powered: it always scores a full battery
    energy = np.append(energy, e_init)
    tree = np.fromiter(tree_nodes, dtype=np.int64, count=len(tree_nodes))
    eligible = np.zeros(n + 1, dtype=bool)
    eligible[tree] = live[tree] & (energy[tree] >= th)
    level, max_level = hop_levels(graph, eligible)
    cand, child, parent, hop_from, hop_to = _candidate_edges(graph, level,
                                                             live)
    d = graph.distances(cand)
    if params.mode == "raw" and (d == 0).any():
        raise ValueError("raw mode cannot score a zero-distance candidate")
    count = np.bincount(child, minlength=n + 1)

    next_hop = np.full(n + 1, n)
    next_hop[hop_from] = hop_to
    beta = _deviation_angles(graph.points, child, parent, next_hop)
    e = energy[parent]
    # Python floats overflow to inf and make nan silently; so does this
    with np.errstate(over="ignore", invalid="ignore"):
        if params.mode == "normalized":
            f_d = 1.0 - d / graph.range
            f_e = _clamp(e / e_init, 0.0, 1.0)
            f_beta = BETA_MIN / beta
        else:
            f_d = 1.0 / d
            f_e = e
            f_beta = math.pi / beta
        total = params.c1 * f_d + params.c2 * f_e + params.c3 * f_beta

    bounds = np.concatenate(([0], np.cumsum(count[count > 0])))
    return (CandidateArrays(bounds, cand, total, max_level),
            np.flatnonzero(live & (count == 0)))


def _candidate_edges(graph: ReachabilityGraph, level: np.ndarray,
                     live: np.ndarray) -> tuple[np.ndarray, ...]:
    """The candidate edges with their rows and ends, then each backbone
    node's next hop as (nodes, hops) arrays."""
    n = len(level) - 1
    into = np.flatnonzero((level <= n)[graph.nbrs])  # ends on the backbone
    src, dst = graph.edge_rows(into), graph.nbrs[into]
    src_level, dst_level = level[src], level[dst]
    # rows list the sink first, then node ids ascending: the first edge
    # one level down is the sink at level 1, else the smallest id
    down = (src != n) & (src_level <= n) & (dst_level == src_level - 1)
    hop_from, hop_to = src[down], dst[down]
    first = np.diff(hop_from, prepend=-1) != 0
    near_sink = np.zeros(n + 1, dtype=bool)
    near_sink[graph.nbrs[graph.indptr[n]:]] = True
    keep = live[src] & (dst_level < src_level) & (~near_sink[src] | (dst == n))
    return (into[keep], src[keep], dst[keep], hop_from[first],
            hop_to[first])


def _deviation_angles(points: np.ndarray, child: np.ndarray,
                      parent: np.ndarray, next_hop: np.ndarray) -> np.ndarray:
    """The scalar reference deviation_angle (tests/oracles.py) of every
    (child, parent) pair, parent n the sink: its float operations
    elementwise, then math.atan2 per pair."""
    xs, ys = points.T
    beta = np.full(len(child), BETA_MIN)
    turn = np.flatnonzero(parent != len(points) - 1)
    i, c = child[turn], parent[turn]
    h = next_hop[c]
    v1x, v1y = xs[c] - xs[i], ys[c] - ys[i]
    v2x, v2y = xs[h] - xs[c], ys[h] - ys[c]
    # zero-length legs score as perfectly straight
    bent = ((v1x != 0) | (v1y != 0)) & ((v2x != 0) | (v2y != 0))
    v1x, v1y, v2x, v2y = v1x[bent], v1y[bent], v2x[bent], v2y[bent]
    cross = v1x * v2y - v1y * v2x
    dot = v1x * v2x + v1y * v2y
    angle = np.array(list(map(math.atan2, cross.tolist(), dot.tolist())),
                     dtype=float)
    beta[turn[bent]] = _clamp(np.abs(angle), BETA_MIN, math.pi)
    return beta


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """min(max(x, lo), hi) elementwise, with Python's builtin semantics:
    max keeps x unless lo > x, min keeps it unless hi < it."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)
