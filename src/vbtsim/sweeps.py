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
    ReachabilityGraph,
    Scenario,
    State,
    build_reachability,
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
    holding energy.e_init."""
    n = config.n_nodes
    return Scenario(config.field, deploy_uniform(config.field, n, seed),
                    np.full(n, config.energy.e_init), range_m, seed)


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
           count_tree_nodes: Callable[..., Optional[int]]
           ) -> tuple[list[RangeRow], list[AttemptRow]]:
    """Each attempt is make_scenario's deployment at its attempt_seed, in
    the state a run of it would start from. It fails, and
    count_tree_nodes returns None, when its build strands a node."""
    config.validate()
    floor = config.policy.floor
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
            size = count_tree_nodes(graph, scenario.state(floor))
            if size is None:
                failures += 1
            else:
                successes += 1
                sizes.append(size)
            attempts.append(AttemptRow(seed, range_m, size, size is None))
        mean = sum(sizes) / len(sizes) if sizes else None
        summary.append(RangeRow(range_m, successes, failures, mean,
                                successes < config.target_successes))
    return summary, attempts


def sweep_figure3(config: ExperimentConfig
                  ) -> tuple[list[RangeRow], list[AttemptRow]]:
    """Minimal-energy backbone sizes across sensing ranges."""

    def count(graph: ReachabilityGraph, state: State) -> Optional[int]:
        edges, _, stranded = build_mmevbt(graph, state, config.radio,
                                          config.policy.th)
        # the distinct parents other than the sink, vertex n
        per_head = np.bincount(graph.nbrs[edges])[:len(state[0])]
        return None if stranded.size else int(np.count_nonzero(per_head))

    return _sweep(config, count)


def sweep_figure4(config: ExperimentConfig
                  ) -> tuple[list[RangeRow], list[AttemptRow]]:
    """Greedy minimal-cover backbone sizes across sensing ranges."""

    def count(graph: ReachabilityGraph, state: State) -> Optional[int]:
        picks, stranded = build_min_cover(graph, state, config.policy.th)
        return None if stranded.size else len(picks)

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
                 write_events: bool = False
                 ) -> tuple[LifetimeMetrics, list[str]]:
    """Simulate one scenario under the config; write the run_*.csv files.

    Raises ConstructionFailed when the initial build strands a live
    node (the CLI exits 2); a later build that does ends the run.
    """
    events = EventLog() if write_events else None
    metrics = run_simulation(scenario, config, events)
    os.makedirs(out_dir, exist_ok=True)
    names = ["metrics", "alive", "loads"] + ["events"] * (events is not None)
    paths = [os.path.join(out_dir, f"run_{name}.csv") for name in names]
    write_csv(paths[0], config,
              ["seed", "algorithm", "range", "n_nodes", "first_death",
               "disconnect", "reconstructions", "total_energy_J"],
              [[config.base_seed, config.algorithm, scenario.sensing_range,
                len(scenario.xy), metrics.first_node_death_round,
                metrics.rounds_until_disconnect, metrics.reconstructions,
                metrics.total_energy_consumed]])
    # a run's curve and loads are Python ints and floats, which _fmt
    # writes as str and repr: each row's f-string writes _fmt's bytes
    seed = _fmt(config.base_seed)
    with _csv_file(paths[1], config,
                   ["seed", "round", "alive_fraction"]) as fh:
        fh.writelines(f"{seed},{rnd},{frac!r}\n"
                      for rnd, frac in metrics.alive_fraction_curve)
    counts, expected = metrics.tree_load_counts, metrics.tree_load_expected
    with _csv_file(paths[2], config,
                   ["tree_node_id", "realized_count", "expected_count"]) as fh:
        fh.writelines(f"{i},{counts.get(i, 0)},{expected.get(i, 0.0)!r}\n"
                      for i in sorted(counts.keys() | expected.keys()))
    if events is not None:
        with _csv_file(paths[3], config,
                       ["round", "event", "node", "detail"]) as fh:
            events.write(fh)
    return metrics, paths
