"""Experiment harness: sensing-range sweeps and single-scenario runs.

Sweeps redraw random deployments per sensing range until enough
constructions succeed, then report success/failure tallies and mean
backbone sizes as plot-ready CSV. All outputs carry the resolved config
as '#' header lines and replay byte-for-byte from (config, base_seed).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .config import ExperimentConfig
from .mincover import build_min_cover
from .mmevbt import build_mmevbt
from .model import (
    ConstructionFailed,
    NodeStatus,
    ReachabilityGraph,
    Scenario,
    State,
    build_reachability,
    classify_status,
    deploy_uniform,
)
from .simulate import EventLog, LifetimeMetrics, run_simulation

# Seeds spread attempts out so no two (range, attempt) cells collide for
# any base_seed and ranges on a millimeter grid.
_SEED_STRIDE = 1_000_003


def attempt_seed(base_seed: int, range_m: float, attempt: int) -> int:
    return base_seed + _SEED_STRIDE * int(round(range_m * 1000)) + attempt


def make_scenario(config: ExperimentConfig, seed: int,
                  range_m: float) -> Scenario:
    """config.n_nodes nodes drawn by deploy_uniform over config.field, each
    holding energy.e_init and live unless classify_status says FAILED."""
    n, e_init, policy = config.n_nodes, config.energy.e_init, config.policy
    live = classify_status(e_init, 0, policy.th,
                           policy.e_fail) is not NodeStatus.FAILED
    return Scenario(config.field, deploy_uniform(config.field, n, seed),
                    np.full(n, e_init), np.full(n, live), range_m, seed)


@dataclass(frozen=True)
class AttemptRow:
    scenario_seed: int
    range_m: float
    n_tree_nodes: Optional[int]  # None when construction failed
    failed: bool


@dataclass(frozen=True)
class RangeRow:
    range_m: float
    successes: int
    failures: int
    mean_tree_nodes: Optional[float]
    exhausted: bool


def _sweep(config: ExperimentConfig,
           count_tree_nodes: Callable[[ReachabilityGraph, State], int]
           ) -> tuple[list[RangeRow], list[AttemptRow]]:
    """Each attempt is make_scenario's deployment at its attempt_seed."""
    config.validate()
    summary: list[RangeRow] = []
    attempts: list[AttemptRow] = []
    for range_m in config.ranges:
        successes = 0
        failures = 0
        sizes: list[int] = []
        for attempt in range(config.max_attempts):
            if successes >= config.target_successes:
                break
            seed = attempt_seed(config.base_seed, range_m, attempt)
            scenario = make_scenario(config, seed, range_m)
            graph = build_reachability(scenario.points(), range_m)
            try:
                size = count_tree_nodes(graph, scenario.state())
            except ConstructionFailed:
                failures += 1
                attempts.append(AttemptRow(seed, range_m, None, True))
            else:
                successes += 1
                sizes.append(size)
                attempts.append(AttemptRow(seed, range_m, size, False))
        mean = sum(sizes) / len(sizes) if sizes else None
        summary.append(RangeRow(range_m, successes, failures, mean,
                                successes < config.target_successes))
    return summary, attempts


def sweep_figure3(config: ExperimentConfig
                  ) -> tuple[list[RangeRow], list[AttemptRow]]:
    """Minimal-energy backbone sizes across sensing ranges."""

    def count(graph: ReachabilityGraph, state: State) -> int:
        edges, _ = build_mmevbt(graph, state, config.radio, config.policy.th)
        # the distinct parents other than the sink, vertex n
        per_head = np.bincount(graph.nbrs[edges])[:len(state[0])]
        return int(np.count_nonzero(per_head))

    return _sweep(config, count)


def sweep_figure4(config: ExperimentConfig
                  ) -> tuple[list[RangeRow], list[AttemptRow]]:
    """Greedy minimal-cover backbone sizes across sensing ranges."""

    def count(graph: ReachabilityGraph, state: State) -> int:
        return len(build_min_cover(graph, state, config.policy.th).tree_nodes)

    return _sweep(config, count)


def _fmt(value) -> str:
    if isinstance(value, np.generic):  # numpy 2 reprs as np.float64(...)
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextmanager
def _csv_file(path: str, config: ExperimentConfig,
              columns: list[str]) -> Iterator[TextIO]:
    """path opened for writing, after the config echo and the column line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in config.echo_lines())
        fh.write(",".join(columns) + "\n")
        yield fh


def write_csv(path: str, config: ExperimentConfig, columns: list[str],
              rows: Iterable[Sequence]) -> None:
    with _csv_file(path, config, columns) as fh:
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def write_sweep_outputs(out_dir: str, stem: str, config: ExperimentConfig,
                        summary: list[RangeRow],
                        attempts: list[AttemptRow]) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, f"{stem}_summary.csv")
    write_csv(summary_path, config,
              ["range", "successes", "failures", "mean_tree_nodes",
               "exhausted"],
              [[r.range_m, r.successes, r.failures, r.mean_tree_nodes,
                r.exhausted] for r in summary])
    attempts_path = os.path.join(out_dir, f"{stem}_attempts.csv")
    write_csv(attempts_path, config,
              ["scenario_seed", "range", "n_tree_nodes", "failed"],
              [[a.scenario_seed, a.range_m, a.n_tree_nodes, a.failed]
               for a in attempts])
    return [summary_path, attempts_path]


def run_scenario(scenario: Scenario, config: ExperimentConfig, out_dir: str,
                 stem: str = "run", write_events: bool = False
                 ) -> tuple[LifetimeMetrics, list[str]]:
    """Simulate one scenario under the config; write the metrics CSVs.

    Raises ConstructionFailed when the initial backbone cannot form; the
    caller maps that to a nonzero exit code.
    """
    events = EventLog() if write_events else None
    metrics = run_simulation(scenario, config.algorithm, config.traffic,
                             config.radio, config.policy,
                             seed=config.base_seed,
                             fitness_params=config.fitness,
                             e_init=config.energy.e_init,
                             event_log=events)
    os.makedirs(out_dir, exist_ok=True)
    names = ["metrics", "alive", "loads"] + ["events"] * (events is not None)
    paths = [os.path.join(out_dir, f"{stem}_{name}.csv") for name in names]
    write_csv(paths[0], config,
              ["seed", "algorithm", "range", "n_nodes", "first_death",
               "disconnect", "reconstructions", "total_energy_J"],
              [[config.base_seed, config.algorithm, scenario.sensing_range,
                len(scenario.xy), metrics.first_node_death_round,
                metrics.rounds_until_disconnect, metrics.reconstructions,
                metrics.total_energy_consumed]])
    write_csv(paths[1], config, ["seed", "round", "alive_fraction"],
              [[config.base_seed, rnd, frac]
               for rnd, frac in metrics.alive_fraction_curve])
    load_ids = sorted(set(metrics.tree_load_counts)
                      | set(metrics.tree_load_expected))
    write_csv(paths[2], config,
              ["tree_node_id", "realized_count", "expected_count"],
              [[i, metrics.tree_load_counts.get(i, 0),
                metrics.tree_load_expected.get(i, 0.0)] for i in load_ids])
    if events is not None:
        with _csv_file(paths[3], config,
                       ["round", "event", "node", "detail"]) as fh:
            events.write(fh)
    return metrics, paths
