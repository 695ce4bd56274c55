"""Load-balanced parent selection over a backbone.

Each node scores its reachable tree-node parents with a weighted fitness
(distance, residual energy, path straightness) and forwards each packet
to one of them at random, with probability proportional to fitness. Also
provides the analytic expected per-parent loads and an exact min-max
assignment solver used as the balancing yardstick.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .model import (
    E_INIT,
    SINK,
    ConstructionFailed,
    NodeStatus,
    ReachabilityGraph,
    Scenario,
    build_reachability,
    distance,
)

BETA_MIN = math.pi / 36  # 5 degrees; caps the straightness reward


class InstanceTooLarge(ValueError):
    """Exact solver guard tripped with the matching fallback disabled."""


@dataclass(frozen=True)
class FitnessParams:
    c1: float = 1.0 / 3.0
    c2: float = 1.0 / 3.0
    c3: float = 1.0 / 3.0
    mode: str = "normalized"  # or "raw"

    def validate(self) -> "FitnessParams":
        if min(self.c1, self.c2, self.c3) < 0:
            raise ValueError("fitness weights must be nonnegative")
        if abs(self.c1 + self.c2 + self.c3 - 1.0) > 1e-9:
            raise ValueError("fitness weights must sum to 1")
        if self.mode not in ("normalized", "raw"):
            raise ValueError(f"unknown fitness mode '{self.mode}'")
        return self


@dataclass(frozen=True)
class FitnessBreakdown:
    f_d: float
    f_e: float
    f_beta: float
    beta: float
    total: float


@dataclass
class FitnessContext:
    """Geometry and energy snapshot the fitness terms read from.

    next_hop maps each tree node to the neighbor its own traffic would
    take toward the sink; the deviation angle is measured against that
    direction. The sink appears in positions/energies (full battery by
    convention) and in nobody's next_hop.
    """

    positions: dict[int, tuple[float, float]]
    energies: dict[int, float]
    next_hop: dict[int, int]
    range_m: float
    e_init: float = E_INIT
    beta_min: float = BETA_MIN


def deviation_angle(ctx: FitnessContext, node_i: int, cand: int) -> float:
    """Angle at cand between arriving from node_i and leaving for the sink.

    Clamped to [beta_min, pi]. The sink, a candidate with no onward hop,
    and degenerate zero-length legs all score as perfectly straight.
    """
    nxt = ctx.next_hop.get(cand)
    if cand == SINK or nxt is None:
        return ctx.beta_min
    ix, iy = ctx.positions[node_i]
    cx, cy = ctx.positions[cand]
    nx, ny = ctx.positions[nxt]
    v1 = (cx - ix, cy - iy)
    v2 = (nx - cx, ny - cy)
    if (v1[0] == 0 and v1[1] == 0) or (v2[0] == 0 and v2[1] == 0):
        return ctx.beta_min
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    dot = v1[0] * v2[0] + v1[1] * v2[1]
    beta = abs(math.atan2(cross, dot))
    return min(max(beta, ctx.beta_min), math.pi)


def fitness(node_i: int, cand: int, ctx: FitnessContext,
            params: FitnessParams) -> FitnessBreakdown:
    """Score candidate parent cand from node_i's point of view.

    normalized mode keeps each term in [0,1]: nearer is better, fuller
    battery is better, straighter onward path is better. raw mode keeps
    the literal 1/distance, joules and pi/angle terms (incommensurate
    units, retained for fidelity); distance 0 is rejected there.
    """
    d = distance(ctx.positions[node_i], ctx.positions[cand])
    beta = deviation_angle(ctx, node_i, cand)
    energy = ctx.energies[cand]
    if params.mode == "normalized":
        f_d = 1.0 - d / ctx.range_m
        f_e = min(max(energy / ctx.e_init, 0.0), 1.0)
        f_beta = ctx.beta_min / beta
    else:
        if d == 0:
            raise ValueError("raw mode cannot score a zero-distance candidate")
        f_d = 1.0 / d
        f_e = energy
        f_beta = math.pi / beta
    total = params.c1 * f_d + params.c2 * f_e + params.c3 * f_beta
    return FitnessBreakdown(f_d, f_e, f_beta, beta, total)


def selection_probabilities(values: Sequence[float]) -> list[float]:
    """Probabilities proportional to the fitness values (sum 1)."""
    if not values:
        raise ValueError("need at least one candidate")
    if min(values) < 0:
        raise ValueError("fitness values must be nonnegative")
    total = sum(values)
    if total <= 0:
        raise ValueError("degenerate all-zero fitness")
    return [v / total for v in values]


def select_parent(probabilities: Sequence[float], rng: np.random.Generator) -> int:
    """Draw one candidate index: R uniform in [0,1) against cumulative sums."""
    return draw_index(list(itertools.accumulate(probabilities)), rng.random())


def draw_index(cumulative: Sequence[float], r: float) -> int:
    """First index whose cumulative sum exceeds r (the scan's r < acc).

    This is the number of cut points at or below r, where the cut points
    are the cumulative sums without the last: the last sum never bounds
    a draw, so rounding that leaves it just below 1 lands its slack on
    the last interval. The round loop stores the cut points and bisects
    them directly.
    """
    return bisect_right(cumulative, r, 0, len(cumulative) - 1)


@dataclass
class ForwardingProblem:
    """Who may forward to whom, and how attractive each option is.

    candidates[i] lists node i's admissible parents sorted ascending (the
    sink id precedes all node ids); fitness[i] aligns with candidates[i].
    levels holds each backbone vertex's hop distance from the sink over
    the backbone; every candidate sits strictly closer to the sink than
    its child, so forwarding always terminates.
    """

    candidates: dict[int, list[int]] = dc_field(default_factory=dict)
    fitness: dict[int, list[float]] = dc_field(default_factory=dict)
    levels: dict[int, int] = dc_field(default_factory=dict)
    next_hop: dict[int, int] = dc_field(default_factory=dict)

    def probabilities(self, node_id: int) -> list[float]:
        return selection_probabilities(self.fitness[node_id])

    def best_parent(self, node_id: int) -> int:
        """The highest-fitness candidate; ties keep the smaller id."""
        fit = self.fitness[node_id]
        return self.candidates[node_id][max(range(len(fit)),
                                            key=fit.__getitem__)]


@dataclass
class LoadStats:
    count: dict[int, int]
    mc: int
    expected_count: dict[int, float]


def build_forwarding_problem(scenario: Scenario, tree_nodes: set[int],
                             th: float, params: FitnessParams,
                             e_init: float = E_INIT,
                             graph: Optional[ReachabilityGraph] = None
                             ) -> ForwardingProblem:
    """Wire every live node to its eligible tree-node parents.

    A tree node may serve as a parent while it is alive, holds at least
    th joules and has a backbone path to the sink (breadth-first level
    over eligible tree nodes plus the sink). Candidates are neighbors of
    strictly smaller level; non-backbone nodes rank as level infinity, so
    any adjacent backbone vertex qualifies for them. A node with the sink
    itself in range needs no backbone at all: its candidate list is just
    the sink, delivery is direct. Raises ConstructionFailed for live
    nodes with no candidate at all.
    """
    if graph is None:
        graph = build_reachability(scenario)
    pos = scenario.positions()
    live = [n.id for n in scenario.nodes if n.status is not NodeStatus.FAILED]
    eligible = {t for t in tree_nodes
                if scenario.node(t).status is not NodeStatus.FAILED
                and scenario.node(t).energy >= th}

    levels: dict[int, int] = {SINK: 0}
    frontier = [SINK]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u in eligible and u not in levels:
                    levels[u] = levels[v] + 1
                    nxt.append(u)
        frontier = sorted(nxt)

    energies = {n.id: n.energy for n in scenario.nodes}
    energies[SINK] = e_init  # mains-powered: always scores a full battery
    next_hop: dict[int, int] = {}
    for t in sorted(eligible & levels.keys()):
        options = [u for u in graph.neighbors(t)
                   if u in levels and levels[u] < levels[t]]
        next_hop[t] = min(options, key=lambda u: (levels[u], u))

    ctx = FitnessContext(positions=pos, energies=energies, next_hop=next_hop,
                         range_m=scenario.sensing_range, e_init=e_init)
    problem = ForwardingProblem(levels=levels, next_hop=next_hop)
    unreachable = []
    for i in live:
        own = levels.get(i, math.inf) if i in eligible else math.inf
        if SINK in graph.neighbors(i):
            cands = [SINK]
        else:
            cands = sorted(u for u in graph.neighbors(i)
                           if u in levels and levels[u] < own)
        if not cands:
            unreachable.append(i)
            continue
        problem.candidates[i] = cands
        problem.fitness[i] = [fitness(i, u, ctx, params).total for u in cands]
    if unreachable:
        raise ConstructionFailed(unreachable)
    return problem


def expected_loads(problem: ForwardingProblem) -> dict[int, float]:
    """Per-parent expected child count: sum of selection probabilities."""
    expected: dict[int, float] = {}
    for i in sorted(problem.candidates):
        probs = problem.probabilities(i)
        for cand, p in zip(problem.candidates[i], probs):
            expected[cand] = expected.get(cand, 0.0) + p
    return expected


def realize_selections(problem: ForwardingProblem,
                       rng: np.random.Generator) -> dict[int, int]:
    """One random parent pick per node, in ascending node order."""
    picks: dict[int, int] = {}
    for i in sorted(problem.candidates):
        idx = select_parent(problem.probabilities(i), rng)
        picks[i] = problem.candidates[i][idx]
    return picks


def load_stats(problem: ForwardingProblem,
               selections: dict[int, int]) -> LoadStats:
    """Realized per-parent counts; mc maxes over tree nodes, not the sink."""
    count: dict[int, int] = {}
    for i in sorted(selections):
        count[selections[i]] = count.get(selections[i], 0) + 1
    mc = max((c for t, c in count.items() if t != SINK), default=0)
    return LoadStats(count=count, mc=mc, expected_count=expected_loads(problem))


def min_max_load_exact(problem: ForwardingProblem, allow_matching: bool = True,
                       brute_force_limit: int = 10**6
                       ) -> tuple[dict[int, int], int]:
    """Assign every node one candidate minimizing the busiest parent's load.

    Small instances (product of candidate-list sizes within the guard)
    enumerate every assignment and keep the lexicographically first
    optimum. Larger ones binary-search the answer, checking feasibility
    with capacity-limited augmenting paths; same optimal mc, possibly a
    different witness. Raises InstanceTooLarge past the guard with the
    matching fallback disabled.
    """
    nodes = sorted(problem.candidates)
    if not nodes:
        return {}, 0
    space = 1
    for i in nodes:
        space *= len(problem.candidates[i])
        if space > brute_force_limit:
            break
    if space <= brute_force_limit:
        best_mc = len(nodes) + 1
        best: tuple[int, ...] = ()
        for combo in itertools.product(*(problem.candidates[i] for i in nodes)):
            count: dict[int, int] = {}
            for t in combo:
                if t != SINK:
                    count[t] = count.get(t, 0) + 1
            mc = max(count.values(), default=0)
            if mc < best_mc:
                best_mc = mc
                best = combo
        return dict(zip(nodes, best)), best_mc
    if not allow_matching:
        raise InstanceTooLarge(
            f"assignment space exceeds {brute_force_limit} and matching is off")
    lo, hi = 0, len(nodes)
    feasible = _capacity_match(problem, nodes, hi)
    while lo < hi:
        mid = (lo + hi) // 2
        attempt = _capacity_match(problem, nodes, mid)
        if attempt is None:
            lo = mid + 1
        else:
            feasible = attempt
            hi = mid
    return feasible, lo


def _capacity_match(problem: ForwardingProblem, nodes: list[int],
                    cap: int) -> Optional[dict[int, int]]:
    """Kuhn-style augmenting assignment; each parent takes at most cap
    children (the sink is uncapacitated). None when infeasible."""
    assigned: dict[int, list[int]] = {}
    match: dict[int, int] = {}

    def slots(t: int) -> int:
        return len(nodes) + 1 if t == SINK else cap

    def augment(i: int, visited: set[int]) -> bool:
        for t in problem.candidates[i]:
            if t in visited:
                continue
            visited.add(t)
            holders = assigned.setdefault(t, [])
            if len(holders) < slots(t):
                holders.append(i)
                match[i] = t
                return True
            for j in list(holders):
                if augment(j, visited):
                    holders.remove(j)
                    holders.append(i)
                    match[i] = t
                    return True
        return False

    for i in nodes:
        if not augment(i, set()):
            return None
    return match
