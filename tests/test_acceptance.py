"""End-to-end acceptance gate.

Every test prints one '[criterion N] name: PASS/FAIL (measurements)'
line before asserting, so a plain pytest run doubles as the release
checklist. Instance generators are seeded; reruns measure identical
numbers.
"""

import math
import time
from dataclasses import replace

import numpy as np

import vbtsim as v
from vbtsim.cli import main
from vbtsim.config import EnergyParams
from vbtsim.sweeps import attempt_seed, make_scenario
from oracles import (
    bellman_ford_consumption,
    brute_force_min_max,
    candidate_dicts,
    compare_load_spread,
    cover_map,
    expected_loads,
    graph_and_state,
    min_connected_cover_size,
    routed,
    scenario_from,
    tree_nodes,
)

RADIO = v.RadioParams()
FIELD_ARGS = (200.0, 200.0, 100.0, 100.0)


def report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def uniform_scenario(n, range_m, seed, e_init=v.E_INIT):
    xy = v.deploy_uniform(v.Field(*FIELD_ARGS), n, seed)
    return scenario_from(xy, range_m, [e_init] * n)


def test_criterion_1_minimal_energy_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    done = attempts = 0
    worst_rel = 0.0
    while done < 100 and attempts < 5000:
        attempts += 1
        n = int(rng.integers(5, 51))
        range_m = float(rng.uniform(35.0, 90.0))
        sc = uniform_scenario(n, range_m, int(rng.integers(0, 2**31)))
        # soften a random subset below the relay threshold so the
        # eligibility filter actually shapes the shortest paths
        for i in range(n):
            if rng.random() < 0.15:
                sc.energy[i] = 0.05  # below th, still live
        try:
            _, dist = routed(v.build_mmevbt(*graph_and_state(sc), RADIO,
                                            v.DEFAULT_TH))
        except v.ConstructionFailed:
            continue
        oracle = bellman_ford_consumption(sc, RADIO, v.DEFAULT_TH)
        for i, expect in oracle.items():
            rel = abs(dist[i] - expect) / expect
            worst_rel = max(worst_rel, rel)
        done += 1
    elapsed = time.perf_counter() - t0
    report(1, "minimal-energy routing matches reference shortest paths",
           done == 100 and worst_rel <= 1e-9 and elapsed < 10.0,
           f"{done} connected instances, worst rel err {worst_rel:.3g}, "
           f"{elapsed:.2f}s")


def test_criterion_2_connectivity_threshold():
    t0 = time.perf_counter()
    cfg = v.ExperimentConfig()  # 200 nodes on the 200x200 field
    rates = {}
    for range_m in (20.0, 25.0, 30.0, 35.0):
        successes = 0
        for s in range(50):
            sc = make_scenario(cfg, attempt_seed(0, range_m, s), range_m)
            stranded = v.build_mmevbt(*graph_and_state(sc), cfg.radio,
                                      cfg.policy.th)[2]
            successes += not stranded.size
        rates[range_m] = successes / 50.0
    elapsed = time.perf_counter() - t0
    ordered = [rates[r] for r in (20.0, 25.0, 30.0, 35.0)]
    ok = (rates[20.0] <= 0.05
          and all(a <= b for a, b in zip(ordered, ordered[1:]))
          and (1.0 - rates[35.0]) < (1.0 - rates[25.0])
          and elapsed < 60.0)
    report(2, "construction success rates vs sensing range", ok,
           "rates " + ", ".join(f"{r:g}m={rates[r]:.2f}"
                                for r in (20.0, 25.0, 30.0, 35.0))
           + f", {elapsed:.2f}s")


def test_criterion_3_greedy_cover_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(301)
    covered_ok = attempts = 0
    while covered_ok < 200 and attempts < 2000:
        attempts += 1
        n = int(rng.integers(10, 201))
        range_m = float(rng.uniform(25.0, 70.0))
        sc = uniform_scenario(n, range_m, int(rng.integers(0, 2**31)))
        graph, state = graph_and_state(sc)
        try:
            tree_nodes = routed(v.build_min_cover(graph, state,
                                                  v.DEFAULT_TH))
        except v.ConstructionFailed:
            continue
        # every live node is a tree node or next to one
        covered = cover_map(graph, state, tree_nodes)
        assert all(c >= 1 for c in covered.values())
        assert sorted(tree_nodes.tolist()) == [i for i, c in covered.items()
                                               if c == 2]
        covered_ok += 1

    rng = np.random.default_rng(302)
    exact_ok = small_attempts = 0
    worst_ratio = 0.0
    while exact_ok < 30 and small_attempts < 600:
        small_attempts += 1
        n = int(rng.integers(4, 13))
        range_m = float(rng.uniform(55.0, 110.0))
        sc = uniform_scenario(n, range_m, int(rng.integers(0, 2**31)))
        graph, state = graph_and_state(sc)
        best = min_connected_cover_size(sc, graph)
        if best is None:
            continue
        try:
            tree_nodes = routed(v.build_min_cover(graph, state,
                                                  v.DEFAULT_TH))
        except v.ConstructionFailed:
            continue
        size = len(tree_nodes)
        assert best <= size <= 3 * best, (sc.rng_seed, size, best)
        worst_ratio = max(worst_ratio, size / best)
        exact_ok += 1
    elapsed = time.perf_counter() - t0
    report(3, "greedy cover invariants and size vs exhaustive minimum",
           covered_ok == 200 and exact_ok == 30 and elapsed < 30.0,
           f"{covered_ok} coverage checks, {exact_ok} exact comparisons, "
           f"worst size ratio {worst_ratio:.2f}, {elapsed:.2f}s")


def test_criterion_4_probability_pipeline():
    t0 = time.perf_counter()
    probs = v.selection_probabilities([0.58, 0.62])
    expected = (0.48333, 0.51667)
    close = all(abs(p - e) <= 1e-5 for p, e in zip(probs, expected))

    n_draws = 100_000
    rng = np.random.default_rng(424242)
    hits1 = sum(v.select_parent(probs, rng) for _ in range(n_draws))
    counts = (n_draws - hits1, hits1)
    worst_z = 0.0
    for count, p in zip(counts, probs):
        se = math.sqrt(p * (1.0 - p) / n_draws)
        worst_z = max(worst_z, abs(count / n_draws - p) / se)
    elapsed = time.perf_counter() - t0
    report(4, "fitness-proportional selection probabilities",
           close and worst_z <= 3.0 and elapsed < 5.0,
           f"probs ({probs[0]:.5f}, {probs[1]:.5f}), "
           f"monte-carlo worst z {worst_z:.2f}, {elapsed:.2f}s")


def _random_forwarding_problem(seed):
    rng = np.random.default_rng(seed)
    while True:
        s = int(rng.integers(0, 2**31))
        n = int(rng.integers(12, 40))
        range_m = float(rng.uniform(40.0, 70.0))
        sc = uniform_scenario(n, range_m, s)
        graph, state = graph_and_state(sc)
        try:
            tree = routed(v.build_mmevbt(graph, state, RADIO, v.DEFAULT_TH))
            tree_set = tree_nodes(graph, tree)
            if not tree_set:
                continue
            candidates, fitness = candidate_dicts(
                graph, routed(v.build_forwarding_problem(
                    graph, state, tree_set, v.DEFAULT_TH,
                    v.FitnessParams())))
            if any(len(c) > 1 for c in candidates.values()):
                return candidates, fitness
        except v.ConstructionFailed:
            continue


def test_criterion_5_expected_load_identity():
    t0 = time.perf_counter()
    base = 7300
    rounds = 100_000
    worst_z = 0.0
    worst_sum_err = 0.0
    for case in range(50):
        candidates, fitness = _random_forwarding_problem(base + case)
        expected = expected_loads(candidates, fitness)
        worst_sum_err = max(worst_sum_err, abs(sum(expected.values())
                                               - len(candidates)))
        rng = np.random.default_rng(base + 50_000 + case)
        nodes = sorted(candidates)
        counts = {t: 0 for t in expected}
        variances = {t: 0.0 for t in expected}
        for i in nodes:
            probs = np.asarray(v.selection_probabilities(fitness[i]))
            cands = candidates[i]
            for cand, p in zip(cands, probs):
                variances[cand] += p * (1.0 - p)
            cum = np.cumsum(probs)
            draws = np.clip(np.searchsorted(cum, rng.random(rounds),
                                            side="right"),
                            0, len(cands) - 1)
            for k, cand in enumerate(cands):
                counts[cand] += int(np.sum(draws == k))
        for t, e in expected.items():
            mean = counts[t] / rounds
            se = math.sqrt(variances[t] / rounds)
            if se == 0.0:
                assert abs(mean - e) <= 1e-12  # deterministic pickers
            else:
                worst_z = max(worst_z, abs(mean - e) / se)
    elapsed = time.perf_counter() - t0
    report(5, "expected per-parent loads match simulation means",
           worst_z <= 3.0 and worst_sum_err <= 1e-9 and elapsed < 60.0,
           f"50 problems, worst z {worst_z:.2f}, "
           f"count-sum err {worst_sum_err:.2g}, {elapsed:.2f}s")


def test_criterion_6_exact_min_max_load():
    t0 = time.perf_counter()
    rng = np.random.default_rng(601)
    for case in range(100):
        n = int(rng.integers(1, 9))
        targets = list(range(100, 100 + int(rng.integers(2, 6))))
        cands = {}
        for i in range(n):
            k = min(int(rng.integers(1, 4)), len(targets))
            cands[i] = sorted(int(c) for c in
                              rng.choice(targets, size=k, replace=False))
            rng.uniform(0.05, 2.0, size=k)  # fitness: keeps the draws' order
        expect = brute_force_min_max(cands)
        _, mc = v.min_max_load_exact(cands)
        assert mc == expect, (case, mc, expect)
    elapsed = time.perf_counter() - t0
    report(6, "exact min-max assignment equals exhaustive optimum",
           elapsed < 10.0, f"100 instances, matching solver, "
           f"{elapsed:.2f}s")


def _clustered_scenario(seed, n_bg=150, n_clusters=4, per_cluster=20,
                        sigma=6.0, range_m=35.0):
    rng = np.random.default_rng(seed)
    field = v.Field(*FIELD_ARGS)
    pts = [(rng.uniform(0, field.width), rng.uniform(0, field.height))
           for _ in range(n_bg)]
    centers = rng.uniform(40.0, 160.0, size=(n_clusters, 2))
    for cx, cy in centers:
        for _ in range(per_cluster):
            x = min(max(rng.normal(cx, sigma), 0.0), field.width)
            y = min(max(rng.normal(cy, sigma), 0.0), field.height)
            pts.append((x, y))
    return scenario_from(pts, range_m, field=field)


def test_criterion_7_lifetime_direction():
    t0 = time.perf_counter()
    # (a) periodic sink relocation vs a fixed sink, same deployments
    e_init, th = 0.1, 0.01
    traffic = v.TrafficModel(origin_probability=0.2, rounds_max=1500)
    moving = v.SimPolicy(th=th, e_fail=v.DEFAULT_E_FAIL, t_move=10, grid=8,
                         max_step=15.0)
    parked = v.SimPolicy(th=th, e_fail=v.DEFAULT_E_FAIL, t_move=0)

    def lifetime(metrics):
        if metrics.rounds_until_disconnect is None:
            return traffic.rounds_max + 1  # censored: outlived the horizon
        return metrics.rounds_until_disconnect

    wins = ties = pairs = 0
    seed = 0
    while pairs < 30 and seed < 300:
        sc = scenario_from(v.deploy_uniform(v.Field(*FIELD_ARGS), 120, seed),
                           38.0, [e_init] * 120)
        config = v.ExperimentConfig(base_seed=seed, traffic=traffic,
                                    energy=EnergyParams(e_init))
        try:
            m_on = v.run_simulation(sc, replace(config, policy=moving))
            m_off = v.run_simulation(sc, replace(config, policy=parked))
        except v.ConstructionFailed:
            seed += 1
            continue
        seed += 1
        pairs += 1
        wins += lifetime(m_on) > lifetime(m_off)
        ties += lifetime(m_on) == lifetime(m_off)

    # (b) probabilistic vs deterministic best-fitness forwarding on
    # clustered layouts: busiest-parent packet counts over shared traffic
    prob_wins = comparisons = 0
    seed = 0
    while comparisons < 30 and seed < 300:
        sc = _clustered_scenario(seed)
        try:
            mc_prob, mc_det = compare_load_spread(sc, v.ExperimentConfig(
                base_seed=seed + 1, traffic=v.TrafficModel(1.0, 20)))
        except v.ConstructionFailed:
            seed += 1
            continue
        seed += 1
        comparisons += 1
        prob_wins += mc_prob < mc_det
    elapsed = time.perf_counter() - t0
    ok = (pairs == 30 and (wins + ties) >= 21
          and comparisons == 30 and prob_wins > 15
          and elapsed < 300.0)
    report(7, "relocation and probabilistic forwarding help lifetime", ok,
           f"relocation wins+ties {wins}+{ties}/30, "
           f"probabilistic busiest-parent wins {prob_wins}/30, "
           f"{elapsed:.2f}s")


def test_criterion_8_deterministic_outputs(tmp_path, capsys):
    t0 = time.perf_counter()
    sweep_args = ["sweep-fig3", "--set", "n_nodes=30",
                  "--set", "ranges=45,60", "--set", "target_successes=3",
                  "--set", "max_attempts=30"]
    codes = [main(sweep_args + ["--out", str(tmp_path / "s1")]),
             main(sweep_args + ["--out", str(tmp_path / "s2")])]

    scen = tmp_path / "scen.txt"
    codes.append(main(["gen-scenario", str(scen), "--set", "n_nodes=25",
                       "--set", "ranges=60", "--seed", "3"]))
    run_args = ["run", str(scen), "--events",
                "--set", "traffic.rounds_max=200"]
    codes.append(main(run_args + ["--out", str(tmp_path / "r1")]))
    codes.append(main(run_args + ["--out", str(tmp_path / "r2")]))
    capsys.readouterr()  # swallow the path listings

    identical = True
    compared = 0
    for a, b in (("s1", "s2"), ("r1", "r2")):
        names = sorted(p.name for p in (tmp_path / a).iterdir())
        identical &= names == sorted(p.name for p in (tmp_path / b).iterdir())
        for name in names:
            compared += 1
            identical &= ((tmp_path / a / name).read_bytes()
                          == (tmp_path / b / name).read_bytes())
    elapsed = time.perf_counter() - t0
    report(8, "identical config and seed reproduce identical CSVs",
           all(c == 0 for c in codes) and identical and compared == 6,
           f"{compared} files byte-compared across sweep and run reruns, "
           f"{elapsed:.2f}s")
