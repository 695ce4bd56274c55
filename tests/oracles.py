"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way and shares
no graph code with the package: edge-list Bellman-Ford instead of the
heap walk, subset enumeration instead of greedy, full assignment
enumeration instead of search-plus-matching. reference_run_simulation is
the round loop as it was before the per-build route table: every hop
cost recomputed, every node reclassified and the whole eligibility
signature compared each round, the graph rebuilt on every relocation.
Its statuses are its own dict under its own copy of the four-way rule
(_refresh_statuses), applied before the first build and after every
build, and its copy of the scenario's live array follows them; no
package build writes a status, and nothing here imports a private
package name.
reference_forwarding_problem is the candidate and fitness build pair by
pair over dicts, scored with the scalar fitness(). reference_mmevbt is
the heap Dijkstra over per-vertex neighbour lists and scalar hop_weight,
and reference_relocate_sink the per-node loop over dicts; the reference
round loop uses both, so it shares no tree or relocation code with the
package. reference_min_cover replays the greedy cover, re-scoring every
covered node after each pick, and cover_map labels a cover's live
nodes. reference_compare_load_spread is the load-spread comparison
over a build's per-node dicts, one select_parent per packet.
tree_dicts, tree_nodes and candidate_dicts read a build's arrays as
the per-node dicts the references return.
event_rows parses the rows an EventLog writes back into the tuples
the reference round loop logs, its paths joined packet by packet.
graph_and_state turns a Scenario into the (graph, state) pair that
every package build takes; the references read the Scenario's arrays
themselves. scenario_from builds a Scenario from a list of points.
neighbors, positions, live_ids and copy_scenario give a graph row or a
Scenario as plain ids, dicts or fresh arrays; the package keeps no such
accessor.

The scalar references (hop_weight, path_consumption, deviation_angle,
fitness, best_parent, expected_loads, realize_selections, load_stats)
state per hop, route, pair or node what the package computes in array
passes; nothing in the package calls them.
"""

from __future__ import annotations

import functools
import heapq
import io
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from vbtsim import (
    ALGORITHMS,
    BETA_MIN,
    DEFAULT_E_FAIL,
    DEFAULT_TH,
    E_INIT,
    SINK,
    ConstructionFailed,
    Field,
    FitnessParams,
    LifetimeMetrics,
    NodeStatus,
    Scenario,
    SimPolicy,
    TrafficModel,
    build_forwarding_problem,
    build_min_cover,
    build_reachability,
    classify_status,
    distance,
    rx_cost,
    select_parent,
    selection_probabilities,
    tx_cost,
)


def scenario_from(coords, range_m, energies=None, field=None, live=None):
    """A Scenario of the points coords, by id, on field (200 x 200, the
    sink central, by default). Each node holds energies[i] (E_INIT by
    default) and is live[i], by default live unless classify_status of
    its energy under the default th and e_fail says FAILED."""
    energy = [E_INIT] * len(coords) if energies is None else energies
    if live is None:
        live = [classify_status(e, 0, DEFAULT_TH, DEFAULT_E_FAIL)
                is not NodeStatus.FAILED for e in energy]
    return Scenario(field or Field(200, 200, 100, 100),
                    np.array(coords, dtype=float), energy, live, range_m, 0)


def graph_and_state(scenario):
    """scenario's reachability graph and State: the (graph, state) pair
    every package build and relocate_sink takes."""
    return (build_reachability(scenario.points(), scenario.sensing_range),
            scenario.state())


def neighbors(graph, vertex):
    """vertex's CSR row as plain ids, the sink (n) shown as SINK."""
    n = len(graph.indptr) - 2
    row = n if vertex == SINK else vertex
    ids = graph.nbrs[graph.indptr[row]:graph.indptr[row + 1]].tolist()
    if ids and ids[0] == n:
        ids[0] = SINK
    return ids


def tree_dicts(graph, tree):
    """build_mmevbt's (edges, dist) as dicts: each routed node's parent,
    the sink as SINK, senders ascending; and its path energy, SINK's 0.0
    first."""
    edges, dist = tree
    n = len(graph.indptr) - 2
    ids = graph.edge_rows(edges).tolist()
    up = graph.nbrs[edges]
    parent = dict(zip(ids, np.where(up == n, SINK, up).tolist()))
    return parent, {SINK: 0.0, **dict(zip(ids, dist[ids].tolist()))}


def tree_nodes(graph, tree):
    """The nodes some node of build_mmevbt's tree routes through."""
    return set(tree_dicts(graph, tree)[0].values()) - {SINK}


def candidate_dicts(graph, rows):
    """build_forwarding_problem's CandidateArrays as dicts: each node's
    candidate parents, the sink as SINK, and their fitness totals."""
    n = len(graph.indptr) - 2
    heads = graph.nbrs[rows.edges]
    heads = np.where(heads == n, SINK, heads).tolist()
    fits, cut = rows.fitness.tolist(), rows.bounds.tolist()
    keys = rows.rows.tolist()
    return ({i: heads[lo:hi] for i, lo, hi in zip(keys, cut, cut[1:])},
            {i: fits[lo:hi] for i, lo, hi in zip(keys, cut, cut[1:])})


def positions(scenario):
    """Positions of every vertex, the sink included under id SINK."""
    pos = dict(enumerate(map(tuple, scenario.xy.tolist())))
    pos[SINK] = scenario.field.sink_pos
    return pos


def live_ids(scenario):
    return np.flatnonzero(scenario.live).tolist()


def copy_scenario(scenario):
    """An independent copy: fresh arrays (the Field is frozen)."""
    return Scenario(scenario.field, scenario.xy.copy(),
                    scenario.energy.copy(), scenario.live.copy(),
                    scenario.sensing_range, scenario.rng_seed)


def dense_reachability(scenario):
    """All-pairs unit-disk adjacency from one dense (n+1)x(n+1)x2 array.

    Same inclusive test and float arithmetic as the package's grid build,
    O(n^2) memory: keep n small. Returns {vertex: sorted neighbour ids},
    nodes 0..n-1 first, then SINK.
    """
    n = len(scenario.xy)
    pts = np.empty((n + 1, 2))
    pts[:n] = scenario.xy
    pts[n] = scenario.field.sink_pos
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    within = d2 <= scenario.sensing_range**2
    np.fill_diagonal(within, False)

    def vid(row):
        return SINK if row == n else row

    return {vid(row): sorted(vid(int(c)) for c in np.nonzero(within[row])[0])
            for row in range(n + 1)}


def adjacency(graph):
    """{vertex: neighbors(graph, vertex)}, nodes ascending, then SINK."""
    n = len(graph.indptr) - 2
    return {u: neighbors(graph, u) for u in [*range(n), SINK]}


# ---------------------------------------------------- scalar references

def hop_weight(params, dist, parent):
    """Energy one hop costs the network: sender tx plus receiver rx.

    The sink is mains-powered, so reception there is free.
    """
    cost = tx_cost(params, dist)
    if parent != SINK:
        cost += rx_cost(params)
    return cost


def path_consumption(params, hop_distances):
    """Total energy drained by one packet travelling a route to the sink.

    Hops are ordered from the originating node toward the sink.  Every sender
    pays tx_cost for its hop and every receiver pays rx_cost, except the sink
    itself (unlimited power).  An empty route (the node is the sink) costs 0.
    """
    hops = list(hop_distances)
    if not hops:
        return 0.0
    total = 0.0
    for d in hops:
        total += tx_cost(params, d)
    return total + rx_cost(params) * (len(hops) - 1)


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


def deviation_angle(ctx, node_i, cand):
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


def fitness(node_i, cand, ctx, params):
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


def best_parent(candidates, fitness, node_id):
    """The highest-fitness candidate; ties keep the smaller id."""
    fit = fitness[node_id]
    return candidates[node_id][max(range(len(fit)), key=fit.__getitem__)]


def expected_loads(candidates, fitness):
    """Per-parent expected child count: sum of selection probabilities."""
    expected = {}
    for i in sorted(candidates):
        probs = selection_probabilities(fitness[i])
        for cand, p in zip(candidates[i], probs):
            expected[cand] = expected.get(cand, 0.0) + p
    return expected


@dataclass
class LoadStats:
    count: dict[int, int]
    mc: int
    expected_count: dict[int, float]


def realize_selections(candidates, fitness, rng):
    """One random parent pick per node, in ascending node order."""
    picks = {}
    for i in sorted(candidates):
        idx = select_parent(selection_probabilities(fitness[i]), rng)
        picks[i] = candidates[i][idx]
    return picks


def load_stats(candidates, fitness, selections):
    """Realized per-parent counts; mc maxes over tree nodes, not the sink."""
    count = {}
    for i in sorted(selections):
        count[selections[i]] = count.get(selections[i], 0) + 1
    mc = max((c for t, c in count.items() if t != SINK), default=0)
    return LoadStats(count=count, mc=mc,
                     expected_count=expected_loads(candidates, fitness))


def reference_mmevbt(scenario, params, th, graph=None):
    """build_mmevbt as a heap Dijkstra from the sink, as dicts: each
    routed node's parent and each vertex's path energy, the form
    tree_dicts gives a build.

    Relaxes over graph.neighbors with scalar hop_weight per edge; only
    the sink and live nodes holding th expand. Equal-cost parents go to
    the smaller id (SINK is smallest). Raises ConstructionFailed; writes
    nothing.
    """
    if graph is None:
        graph = build_reachability(scenario.points(), scenario.sensing_range)
    pos = positions(scenario)
    live = set(live_ids(scenario))

    def relays(u):
        return u == SINK or (u in live and scenario.energy[u] >= th)

    dist = {SINK: 0.0}
    parent = {}
    heap = [(0.0, SINK)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if not relays(u):
            continue  # u keeps its route but expands no further
        for w in neighbors(graph, u):
            if w == SINK or w not in live:
                continue
            cand = d + hop_weight(params, distance(pos[w], pos[u]), u)
            old = dist.get(w)
            if old is None or cand < old:
                dist[w] = cand
                parent[w] = u
                heapq.heappush(heap, (cand, w))
            elif cand == old and u < parent[w]:
                parent[w] = u

    unreachable = live - dist.keys()
    if unreachable:
        raise ConstructionFailed(unreachable)
    return parent, dist


def reference_relocate_sink(scenario, grid=4, max_step=None):
    """relocate_sink as a per-node loop summing energies into dicts."""
    f = scenario.field
    cell_w = f.width / grid
    cell_h = f.height / grid
    total = {}
    count = {}
    for (x, y), energy, alive in zip(scenario.xy.tolist(),
                                     scenario.energy.tolist(),
                                     scenario.live.tolist()):
        if not alive:
            continue
        col = min(int(x / cell_w), grid - 1)
        row = min(int(y / cell_h), grid - 1)
        idx = row * grid + col
        total[idx] = total.get(idx, 0.0) + energy
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


def reference_min_cover(scenario, th):
    """build_min_cover as a from-scratch replay of the selection loop: every
    covered node re-scored after each promotion, no incremental counts.

    Returns (tree ids, []) on success and (None, still-uncovered ids) when
    no eligible pick makes progress."""
    g = build_reachability(scenario.points(), scenario.sensing_range)
    live = live_ids(scenario)
    live_set = set(live)
    adj = {i: [u for u in neighbors(g, i) if u != SINK and u in live_set]
           for i in live}
    covered = {i: 0 for i in live}
    if not live:
        return set(), []
    seed = max(live, key=lambda i: (len(adj[i]), -i))
    covered[seed] = 2
    for u in adj[seed]:
        if covered[u] == 0:
            covered[u] = 1
    while any(c == 0 for c in covered.values()):
        best, best_wd = None, -1
        for i in sorted(covered):
            if covered[i] == 1 and scenario.energy[i] >= th:
                wd = sum(1 for u in adj[i] if covered[u] == 0)
                if wd > best_wd:
                    best, best_wd = i, wd
        if best is None or best_wd <= 0:
            return None, sorted(i for i, c in covered.items() if c == 0)
        covered[best] = 2
        for u in adj[best]:
            if covered[u] == 0:
                covered[u] = 1
    return {i for i, c in covered.items() if c == 2}, []


def cover_map(graph, state, tree):
    """Live id -> 2 for a node of tree, 1 for a node next to one, 0 for an
    uncovered node."""
    return {i: 2 if i in tree else int(any(u in tree
                                           for u in neighbors(graph, i)))
            for i in np.flatnonzero(state[1]).tolist()}


def bellman_ford_consumption(scenario, params, th):
    """Cheapest route energy per live node, relays filtered by th.

    Returns {node_id: joules}, math.inf where no eligible path exists.
    """
    live = live_ids(scenario)
    pos = positions(scenario)
    r = scenario.sensing_range

    def eligible_relay(v):
        return v == SINK or (scenario.live[v] and scenario.energy[v] >= th)

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
    live = live_ids(scenario)
    live_set = set(live)
    adj = {i: {v for v in neighbors(graph, i) if v != SINK and v in live_set}
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


@dataclass
class ReferenceProblem:
    """reference_forwarding_problem's result, per node: candidates[i]
    lists node i's admissible parents ascending (SINK first), fitness[i]
    aligns with it; levels holds each backbone vertex's hop distance
    from the sink, next_hop each backbone node's onward hop."""

    candidates: dict[int, list[int]]
    fitness: dict[int, list[float]]
    levels: dict[int, int]
    next_hop: dict[int, int]

    def probabilities(self, node_id):
        return selection_probabilities(self.fitness[node_id])


def reference_forwarding_problem(scenario, tree_nodes, th, params,
                                 e_init=E_INIT, graph=None):
    """build_forwarding_problem pair by pair: a level BFS over dicts,
    next_hop by min over each row, and fitness() per candidate."""
    if graph is None:
        graph = build_reachability(scenario.points(), scenario.sensing_range)
    pos = positions(scenario)
    live = live_ids(scenario)
    eligible = {t for t in tree_nodes
                if scenario.live[t] and scenario.energy[t] >= th}

    levels = {SINK: 0}
    frontier = [SINK]
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbors(graph, v):
                if u in eligible and u not in levels:
                    levels[u] = levels[v] + 1
                    nxt.append(u)
        frontier = sorted(nxt)

    energies = dict(enumerate(scenario.energy.tolist()))
    energies[SINK] = e_init  # mains-powered: always scores a full battery
    next_hop = {}
    for t in sorted(eligible & levels.keys()):
        options = [u for u in neighbors(graph, t)
                   if u in levels and levels[u] < levels[t]]
        next_hop[t] = min(options, key=lambda u: (levels[u], u))

    ctx = FitnessContext(positions=pos, energies=energies, next_hop=next_hop,
                         range_m=scenario.sensing_range, e_init=e_init)
    problem = ReferenceProblem({}, {}, levels, next_hop)
    unreachable = []
    for i in live:
        own = levels.get(i, math.inf) if i in eligible else math.inf
        if SINK in neighbors(graph, i):
            cands = [SINK]
        else:
            cands = sorted(u for u in neighbors(graph, i)
                           if u in levels and levels[u] < own)
        if not cands:
            unreachable.append(i)
            continue
        problem.candidates[i] = cands
        problem.fitness[i] = [fitness(i, u, ctx, params).total for u in cands]
    if unreachable:
        raise ConstructionFailed(unreachable)
    return problem


def reference_compare_load_spread(scenario, rounds, seed, *, th=DEFAULT_TH,
                                  fitness_params=None, e_init=E_INIT,
                                  origin_probability=1.0):
    """compare_load_spread over the built problem's per-node dicts: one
    select_parent and one best_parent per packet, counts in dicts."""
    SimPolicy(th=th).validate()
    TrafficModel(origin_probability, rounds).validate()
    fparams = (fitness_params or FitnessParams()).validate()
    graph, state = graph_and_state(scenario)
    tree_set = build_min_cover(graph, state, th).tree_nodes
    candidates, fit = candidate_dicts(graph, build_forwarding_problem(
        graph, state, tree_set, th, fparams, e_init))
    probs = {i: selection_probabilities(fit[i]) for i in candidates}
    best_next = {i: best_parent(candidates, fit, i) for i in candidates}

    rng_origin = np.random.default_rng(seed)
    rng_pick = np.random.default_rng(seed + 1)
    ids = sorted(candidates)
    count_prob = {}
    count_det = {}
    for _ in range(rounds):
        draws = rng_origin.random(len(ids))
        origins = [i for i, u in zip(ids, draws) if u < origin_probability]
        for origin in origins:
            idx = select_parent(probs[origin], rng_pick)
            pick = candidates[origin][idx]
            if pick != SINK:
                count_prob[pick] = count_prob.get(pick, 0) + 1
            pick = best_next[origin]
            if pick != SINK:
                count_det[pick] = count_det.get(pick, 0) + 1
    mc_prob = max(count_prob.values(), default=0)
    mc_det = max(count_det.values(), default=0)
    return mc_prob, mc_det


def scan_select_index(probabilities, r):
    """Index drawn by uniform r: first cumulative sum above r, else last."""
    acc = 0.0
    for idx, p in enumerate(probabilities):
        acc += p
        if r < acc:
            return idx
    return len(probabilities) - 1


class _ReferenceRouter:
    """Per-build routing state for one algorithm over one scenario."""

    def __init__(self, algorithm, radio, policy, fitness_params, e_init,
                 status):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{algorithm}'")
        self.algorithm = algorithm
        self.radio = radio
        self.policy = policy
        self.fitness_params = fitness_params
        self.e_init = e_init
        self.status = status  # id -> NodeStatus, refreshed by every build
        self.next_map = {}
        self.problem = None
        self.probs = {}

    def rebuild(self, scenario, graph):
        """Reconstruct the backbone; raises ConstructionFailed."""
        if self.algorithm == "mmevbt":
            self.next_map, _ = reference_mmevbt(scenario, self.radio,
                                                self.policy.th, graph=graph)
            self.problem = None
            self.probs = {}
            _refresh_statuses(scenario, self.status, _serving_counts(self),
                              self.policy)
            return
        tree_set = build_min_cover(graph, scenario.state(),
                                   self.policy.th).tree_nodes
        problem = reference_forwarding_problem(
            scenario, tree_set, self.policy.th, self.fitness_params,
            self.e_init, graph=graph)
        self.problem = problem
        self.probs = {i: problem.probabilities(i) for i in problem.candidates}
        self.next_map = {}
        for i, cands in problem.candidates.items():
            best, best_f = cands[0], problem.fitness[i][0]
            for cand, f in zip(cands[1:], problem.fitness[i][1:]):
                if f > best_f:  # strict: ties keep the smaller id
                    best, best_f = cand, f
            self.next_map[i] = best
        _refresh_statuses(scenario, self.status, _serving_counts(self),
                          self.policy)

    def route(self, origin, rng):
        """Vertex path origin..sink; probabilistic mode draws per hop."""
        path = [origin]
        if self.algorithm == "balanced_probabilistic":
            while path[-1] != SINK:
                cur = path[-1]
                idx = scan_select_index(self.probs[cur], rng.random())
                path.append(self.problem.candidates[cur][idx])
        else:
            while path[-1] != SINK:
                path.append(self.next_map[path[-1]])
        return path

    def decision_weights(self, node_id):
        """(candidate, probability) pairs behind one forwarding decision."""
        if self.algorithm == "balanced_probabilistic":
            return list(zip(self.problem.candidates[node_id],
                            self.probs[node_id]))
        return [(self.next_map[node_id], 1.0)]


def _refresh_statuses(scenario, status, children, policy):
    """Re-derive every live node's status from energy and child count,
    as the round loop once did after every build; Failed stays Failed,
    and a node that fails here leaves scenario.live."""
    for i, energy in enumerate(scenario.energy.tolist()):
        if status[i] is not NodeStatus.FAILED:
            status[i] = classify_status(energy, children.get(i, 0),
                                        policy.th, policy.e_fail)
            scenario.live[i] = status[i] is not NodeStatus.FAILED


def _eligibility_signature(scenario, th):
    return tuple(zip(scenario.live.tolist(),
                     (scenario.energy >= th).tolist()))


def _serving_counts(router):
    """How many nodes each backbone vertex currently forwards for."""
    counts = {}
    if router.algorithm == "mmevbt":
        for parent in router.next_map.values():
            if parent != SINK:
                counts[parent] = counts.get(parent, 0) + 1
        return counts
    if router.problem is not None:
        for cands in router.problem.candidates.values():
            for cand in cands:
                if cand != SINK:
                    counts[cand] = counts.get(cand, 0) + 1
    return counts


def event_rows(log):
    """The rows an EventLog writes, parsed back into (round, event, node,
    detail) tuples: what reference_run_simulation's event_log holds."""
    text = io.StringIO()
    log.write(text)
    return [(int(r), event, int(node), detail) for r, event, node, detail
            in (line.split(",", 3) for line in text.getvalue().splitlines())]


def reference_run_simulation(scenario, algorithm, traffic, radio, policy,
                             seed, fitness_params=None, e_init=E_INIT,
                             event_log: Optional[list] = None):
    """The full-rescan round loop; same contract as run_simulation."""
    sc = copy_scenario(scenario)
    fparams = (fitness_params or FitnessParams()).validate()
    radio.validate()
    rng = np.random.default_rng(seed)
    n_total = len(sc.xy)
    # a given live node starts as a candidate; every build re-derives it
    status = {i: NodeStatus.CANDIDATE_NON_TREE if alive else NodeStatus.FAILED
              for i, alive in enumerate(sc.live.tolist())}
    metrics = LifetimeMetrics()

    def log(round_no, event, node=-1, detail=""):
        if event_log is not None:
            event_log.append((round_no, event, node, detail))

    _refresh_statuses(sc, status, {}, policy)  # a failed node never routes
    graph = build_reachability(sc.points(), sc.sensing_range)
    router = _ReferenceRouter(algorithm, radio, policy, fparams, e_init,
                              status)
    router.rebuild(sc, graph)  # initial ConstructionFailed propagates
    last_sig = _eligibility_signature(sc, policy.th)

    for round_no in range(1, traffic.rounds_max + 1):
        metrics.rounds_run = round_no
        pos = positions(sc)
        alive = [i for i, st in status.items() if st is not NodeStatus.FAILED]
        draws = rng.random(len(alive))
        origins = [i for i, u in zip(alive, draws)
                   if u < traffic.origin_probability]

        # routes all reflect start-of-round energies; debits land afterwards
        spend = {}
        for origin in origins:
            path = router.route(origin, rng)
            if event_log is not None:
                log(round_no, "packet", origin,
                    ">".join(str(v) for v in path))
            for u, v in zip(path, path[1:]):
                cost = tx_cost(radio, distance(pos[u], pos[v]))
                spend[u] = spend.get(u, 0.0) + cost
                if v != SINK:
                    spend[v] = spend.get(v, 0.0) + rx_cost(radio)
            # load bookkeeping counts the origin's parent pick, one per packet
            if path[1] != SINK:
                metrics.tree_load_counts[path[1]] = \
                    metrics.tree_load_counts.get(path[1], 0) + 1
            for cand, p in router.decision_weights(origin):
                if cand != SINK:
                    metrics.tree_load_expected[cand] = \
                        metrics.tree_load_expected.get(cand, 0.0) + p

        # a left fold, as sum() of floats was before Python 3.12
        metrics.total_energy_consumed += functools.reduce(
            operator.add, spend.values(), 0.0)
        for node_id in sorted(spend):
            sc.energy[node_id] = max(0.0, float(sc.energy[node_id])
                                     - spend[node_id])

        children = _serving_counts(router)
        for i, energy in enumerate(sc.energy.tolist()):
            if status[i] is NodeStatus.FAILED:
                continue
            status[i] = classify_status(energy, children.get(i, 0),
                                        policy.th, policy.e_fail)
            if status[i] is NodeStatus.FAILED:
                sc.live[i] = False
                log(round_no, "death", i)
                if metrics.first_node_death_round is None:
                    metrics.first_node_death_round = round_no

        alive_after = sum(1 for st in status.values()
                          if st is not NodeStatus.FAILED)
        metrics.alive_fraction_curve.append((round_no, alive_after / n_total))
        if alive_after == 0:
            metrics.rounds_until_disconnect = round_no
            log(round_no, "disconnect")
            break

        sig = _eligibility_signature(sc, policy.th)
        if sig != last_sig:
            try:
                router.rebuild(sc, graph)
            except ConstructionFailed as fail:
                metrics.rounds_until_disconnect = round_no
                log(round_no, "disconnect",
                    detail=";".join(str(i) for i in fail.unreachable))
                break
            metrics.reconstructions += 1
            last_sig = sig
            log(round_no, "rebuild", detail="eligibility")

        if policy.t_move and round_no % policy.t_move == 0:
            target = reference_relocate_sink(sc, policy.grid,
                                             policy.max_step)
            if target != sc.field.sink_pos:
                saved = sc.field
                sc.field = replace(saved, sink_x=target[0], sink_y=target[1])
                graph = build_reachability(sc.points(), sc.sensing_range)
                try:
                    router.rebuild(sc, graph)
                except ConstructionFailed:
                    # rebuild mutates nothing when it fails, so the old
                    # routing state is still valid at the old position
                    sc.field = saved
                    graph = build_reachability(sc.points(), sc.sensing_range)
                    log(round_no, "relocate", detail="reverted")
                else:
                    metrics.reconstructions += 1
                    last_sig = _eligibility_signature(sc, policy.th)
                    log(round_no, "relocate",
                        detail=f"{target[0]:.3f};{target[1]:.3f}")

    return metrics
