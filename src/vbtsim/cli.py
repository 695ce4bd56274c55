"""Command-line harness.

Verbs: sweep-fig3, sweep-fig4, run, gen-scenario. Configuration layers,
later wins: built-in defaults (per verb), --config file, --set key=value,
--seed. All outputs are UTF-8 CSV with a '#'-prefixed config echo.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .config import ExperimentConfig, apply_setting, load_config
from .model import ConstructionFailed
from .scenario_io import ScenarioFormatError, read_scenario, write_scenario
from .sweeps import (
    make_scenario,
    run_scenario,
    sweep_figure3,
    sweep_figure4,
    write_sweep_outputs,
)

_FIG4_BASE = ExperimentConfig(n_nodes=400,
                              ranges=(15.0, 20.0, 25.0, 30.0, 35.0))


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--set", dest="sets", action="append", default=[],
                     metavar="KEY=VALUE", help="override one config key")
    sub.add_argument("--seed", type=int, help="override base_seed")
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbtsim",
        description="Backbone-tree lifetime simulator and experiment sweeps")
    subs = parser.add_subparsers(dest="verb", required=True)

    s3 = subs.add_parser("sweep-fig3",
                         help="minimal-energy backbone sizes over ranges")
    _add_common(s3)

    s4 = subs.add_parser("sweep-fig4",
                         help="greedy-cover backbone sizes over ranges")
    _add_common(s4)

    run = subs.add_parser("run", help="simulate one scenario file")
    run.add_argument("scenario", help="scenario file path")
    run.add_argument("--events", action="store_true",
                     help="also write the per-round event log CSV")
    _add_common(run)

    gen = subs.add_parser("gen-scenario",
                          help="write a fresh uniform random scenario file")
    gen.add_argument("path", help="output scenario file")
    gen.add_argument("--range", type=float, dest="range_m",
                     help="sensing range (default: first of config ranges)")
    _add_common(gen)
    return parser


def resolve_config(args: argparse.Namespace,
                   base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    config = base or ExperimentConfig()
    if args.config:
        config = load_config(args.config, base=config)
    for setting in args.sets:
        if "=" not in setting:
            raise ValueError(f"--set expects KEY=VALUE, got '{setting}'")
        key, _, value = setting.partition("=")
        config = apply_setting(config, key.strip(), value.strip())
    if args.seed is not None:
        config = apply_setting(config, "base_seed", str(args.seed))
    return config.validate()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "sweep-fig3":
            config = resolve_config(args)
            summary, attempts = sweep_figure3(config)
            paths = write_sweep_outputs(args.out, "fig3", config, summary,
                                        attempts)
        elif args.verb == "sweep-fig4":
            config = resolve_config(args, base=_FIG4_BASE)
            summary, attempts = sweep_figure4(config)
            paths = write_sweep_outputs(args.out, "fig4", config, summary,
                                        attempts)
        elif args.verb == "run":
            config = resolve_config(args)
            scenario = read_scenario(args.scenario)
            _, paths = run_scenario(scenario, config, args.out,
                                    write_events=args.events)
        else:  # gen-scenario
            config = resolve_config(args)
            range_m = (config.ranges[0] if args.range_m is None
                       else args.range_m)
            scenario = make_scenario(config, config.base_seed, range_m)
            write_scenario(scenario, args.path)
            paths = [args.path]
    except ScenarioFormatError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConstructionFailed as exc:
        print(f"construction failed: unreachable nodes "
              f"{exc.unreachable}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
