"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way and shares
no graph code with the package: edge-list Bellman-Ford instead of the
heap walk, subset enumeration instead of greedy, full assignment
enumeration instead of search-plus-matching. reference_run_simulation is
the round loop as it was before the per-build route table: every hop
cost recomputed, every node reclassified and the whole eligibility
signature compared each round, the graph rebuilt on every relocation.
"""

from __future__ import annotations

import copy
import itertools
import math
from typing import Optional

import numpy as np

from vbtsim import (
    ALGORITHMS,
    E_INIT,
    SINK,
    ConstructionFailed,
    FitnessParams,
    LifetimeMetrics,
    NodeStatus,
    build_forwarding_problem,
    build_min_cover,
    build_mmevbt,
    build_reachability,
    classify_status,
    distance,
    relocate_sink,
    rx_cost,
    tx_cost,
)
from vbtsim.mmevbt import _refresh_statuses


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

    def __init__(self, algorithm, radio, policy, fitness_params, e_init):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{algorithm}'")
        self.algorithm = algorithm
        self.radio = radio
        self.policy = policy
        self.fitness_params = fitness_params
        self.e_init = e_init
        self.next_map = {}
        self.problem = None
        self.probs = {}

    def rebuild(self, scenario, graph):
        """Reconstruct the backbone; raises ConstructionFailed."""
        if self.algorithm == "mmevbt":
            tree = build_mmevbt(scenario, self.radio, self.policy.th,
                                graph=graph, e_fail=self.policy.e_fail)
            self.next_map = tree.parent
            self.problem = None
            self.probs = {}
            return
        tree_set, _ = build_min_cover(scenario, self.policy.th, graph=graph)
        problem = build_forwarding_problem(scenario, tree_set, self.policy.th,
                                           self.fitness_params, self.e_init,
                                           graph=graph)
        self.problem = problem
        self.probs = {i: problem.probabilities(i) for i in problem.candidates}
        self.next_map = {}
        for i, cands in problem.candidates.items():
            best, best_f = cands[0], problem.fitness[i][0]
            for cand, f in zip(cands[1:], problem.fitness[i][1:]):
                if f > best_f:  # strict: ties keep the smaller id
                    best, best_f = cand, f
            self.next_map[i] = best
        serving = {i: 0 for i in tree_set}
        for cands in problem.candidates.values():
            for cand in cands:
                if cand != SINK:
                    serving[cand] = serving.get(cand, 0) + 1
        _refresh_statuses(scenario, serving, self.policy.th, self.policy.e_fail)

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


def _eligibility_signature(scenario, th):
    return tuple((n.status is not NodeStatus.FAILED, n.energy >= th)
                 for n in scenario.nodes)


def _serving_counts(router, scenario):
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


def reference_run_simulation(scenario, algorithm, traffic, radio, policy,
                             seed, fitness_params=None, e_init=E_INIT,
                             event_log: Optional[list] = None):
    """The full-rescan round loop; same contract as run_simulation."""
    sc = copy.deepcopy(scenario)
    fparams = (fitness_params or FitnessParams()).validate()
    radio.validate()
    rng = np.random.default_rng(seed)
    n_total = len(sc.nodes)
    metrics = LifetimeMetrics()

    def log(round_no, event, node=-1, detail=""):
        if event_log is not None:
            event_log.append((round_no, event, node, detail))

    graph = build_reachability(sc)
    router = _ReferenceRouter(algorithm, radio, policy, fparams, e_init)
    router.rebuild(sc, graph)  # initial ConstructionFailed propagates
    last_sig = _eligibility_signature(sc, policy.th)

    for round_no in range(1, traffic.rounds_max + 1):
        metrics.rounds_run = round_no
        pos = sc.positions()
        alive = [n.id for n in sc.nodes if n.status is not NodeStatus.FAILED]
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

        metrics.total_energy_consumed += sum(spend.values())
        for node_id in sorted(spend):
            node = sc.node(node_id)
            node.energy = max(0.0, node.energy - spend[node_id])

        children = _serving_counts(router, sc)
        for node in sc.nodes:
            if node.status is NodeStatus.FAILED:
                continue
            status = classify_status(node.energy, children.get(node.id, 0),
                                     policy.th, policy.e_fail)
            if status is NodeStatus.FAILED:
                log(round_no, "death", node.id)
                if metrics.first_node_death_round is None:
                    metrics.first_node_death_round = round_no
            node.status = status

        alive_after = sum(1 for n in sc.nodes
                          if n.status is not NodeStatus.FAILED)
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
            target = relocate_sink(sc, policy.grid, policy.max_step)
            if target != sc.field.sink_pos:
                saved = (sc.field.sink_x, sc.field.sink_y)
                sc.field.sink_x, sc.field.sink_y = target
                graph = build_reachability(sc)
                try:
                    router.rebuild(sc, graph)
                except ConstructionFailed:
                    # rebuild mutates nothing when it fails, so the old
                    # routing state is still valid at the old position
                    sc.field.sink_x, sc.field.sink_y = saved
                    graph = build_reachability(sc)
                    log(round_no, "relocate", detail="reverted")
                else:
                    metrics.reconstructions += 1
                    last_sig = _eligibility_signature(sc, policy.th)
                    log(round_no, "relocate",
                        detail=f"{target[0]:.3f};{target[1]:.3f}")

    return metrics
