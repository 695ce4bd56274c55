"""Sweep harness and command-line interface."""

import dataclasses
import os

import pytest

import vbtsim as v
from vbtsim.cli import main
from vbtsim.mincover import build_min_cover
from vbtsim.mmevbt import build_mmevbt
from vbtsim.sweeps import (
    attempt_seed,
    make_scenario,
    run_scenario,
    sweep_figure3,
    sweep_figure4,
    write_csv,
    write_sweep_outputs,
)

SEED_STRIDE = 1_000_003


def small_sweep_config(**overrides):
    base = dataclasses.replace(v.ExperimentConfig(), n_nodes=30,
                               ranges=(45.0, 60.0), target_successes=4,
                               max_attempts=30)
    return dataclasses.replace(base, **overrides)


def body_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if not line.startswith("#")]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------- sweeps

def test_attempt_seed_spreads_ranges_and_attempts():
    assert attempt_seed(0, 20.0, 0) == 20_000 * SEED_STRIDE
    assert attempt_seed(5, 20.0, 3) == 20_000 * SEED_STRIDE + 8
    # millimeter rounding: 20.0004 and 19.9996 land on the same cell
    assert attempt_seed(0, 20.0004, 0) == attempt_seed(0, 19.9996, 0)
    seeds = {attempt_seed(0, r, a)
             for r in (20.0, 25.0, 30.0, 35.0) for a in range(200)}
    assert len(seeds) == 4 * 200


def test_make_scenario_uses_config():
    cfg = dataclasses.replace(v.ExperimentConfig(), n_nodes=12,
                              energy_e_init=0.5)
    sc = make_scenario(cfg, 77, 33.0)
    assert len(sc.nodes) == 12
    assert sc.sensing_range == 33.0
    assert sc.rng_seed == 77
    assert sc.field.width == 200.0 and sc.field.sink_x == 100.0
    assert all(n.energy == 0.5 for n in sc.nodes)
    again = make_scenario(cfg, 77, 33.0)
    assert [(n.x, n.y) for n in again.nodes] == [(n.x, n.y) for n in sc.nodes]


def test_sweep_rows_consistent_and_replayable():
    cfg = small_sweep_config()
    summary, attempts = sweep_figure3(cfg)
    assert [r.range_m for r in summary] == list(cfg.ranges)
    for row in summary:
        rows = [a for a in attempts if a.range_m == row.range_m]
        good = [a for a in rows if not a.failed]
        assert row.successes == len(good) == cfg.target_successes
        assert row.failures == len(rows) - len(good)
        assert not row.exhausted
        sizes = [a.n_tree_nodes for a in good]
        assert row.mean_tree_nodes == pytest.approx(sum(sizes) / len(sizes))
        expected_seeds = [attempt_seed(cfg.base_seed, row.range_m, k)
                          for k in range(len(rows))]
        assert [a.scenario_seed for a in rows] == expected_seeds
    assert all((a.n_tree_nodes is None) == a.failed for a in attempts)
    # replay one successful attempt from its recorded seed
    probe = next(a for a in attempts if not a.failed)
    sc = make_scenario(cfg, probe.scenario_seed, probe.range_m)
    tree = build_mmevbt(sc, cfg.radio(), cfg.policy_th,
                        e_fail=cfg.policy_e_fail)
    assert len(tree.tree_nodes()) == probe.n_tree_nodes


def test_sweep_fig4_counts_greedy_cover_sizes():
    cfg = small_sweep_config(n_nodes=40)
    summary, attempts = sweep_figure4(cfg)
    assert all(r.successes == cfg.target_successes for r in summary)
    probe = next(a for a in attempts if not a.failed)
    sc = make_scenario(cfg, probe.scenario_seed, probe.range_m)
    tree_nodes, _ = build_min_cover(sc, cfg.policy_th)
    assert len(tree_nodes) == probe.n_tree_nodes


def test_sweep_exhausted_when_range_too_small():
    # 200 nodes at 15 m on a 200x200 field: construction never succeeds
    cfg = small_sweep_config(n_nodes=200, ranges=(15.0,),
                             target_successes=3, max_attempts=8)
    summary, attempts = sweep_figure3(cfg)
    (row,) = summary
    assert row.exhausted
    assert row.successes == 0
    assert row.failures == 8
    assert row.mean_tree_nodes is None
    assert len(attempts) == 8 and all(a.failed for a in attempts)


def test_write_csv_echoes_config_and_formats_cells(tmp_path):
    cfg = v.ExperimentConfig()
    path = str(tmp_path / "t.csv")
    write_csv(path, cfg, ["a", "b", "c"],
              [[1, None, 2.5], [True, False, "x"]])
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    echo = cfg.echo_lines()
    assert lines[:len(echo)] == echo
    assert lines[len(echo)] == "a,b,c"
    assert lines[len(echo) + 1] == "1,,2.5"
    assert lines[len(echo) + 2] == "1,0,x"


def test_sweep_outputs_byte_identical_across_reruns(tmp_path):
    cfg = small_sweep_config()
    first = write_sweep_outputs(str(tmp_path / "a"), "fig3", cfg,
                                *sweep_figure3(cfg))
    second = write_sweep_outputs(str(tmp_path / "b"), "fig3", cfg,
                                 *sweep_figure3(cfg))
    assert [os.path.basename(p) for p in first] == \
        ["fig3_summary.csv", "fig3_attempts.csv"]
    for p1, p2 in zip(first, second):
        assert read_bytes(p1) == read_bytes(p2)


def test_run_scenario_writes_metrics_alive_loads_events(tmp_path):
    cfg = dataclasses.replace(v.ExperimentConfig(), n_nodes=25,
                              traffic_rounds_max=150)
    sc = make_scenario(cfg, 3, 60.0)
    metrics, paths = run_scenario(sc, cfg, str(tmp_path), stem="probe",
                                  write_events=True)
    assert [os.path.basename(p) for p in paths] == [
        "probe_metrics.csv", "probe_alive.csv",
        "probe_loads.csv", "probe_events.csv"]
    assert all(os.path.exists(p) for p in paths)
    header, row = body_lines(paths[0])
    assert header.split(",") == ["seed", "algorithm", "range", "n_nodes",
                                 "first_death", "disconnect",
                                 "reconstructions", "total_energy_J"]
    cells = row.split(",")
    assert cells[0] == str(cfg.base_seed)
    assert cells[1] == cfg.algorithm
    assert float(cells[2]) == 60.0
    assert int(cells[3]) == 25
    assert float(cells[7]) == pytest.approx(metrics.total_energy_consumed)
    assert len(body_lines(paths[1])) - 1 == len(metrics.alive_fraction_curve)
    assert len(body_lines(paths[3])) - 1 > 0


# ------------------------------------------------------------------ CLI

def test_cli_gen_scenario_then_run(tmp_path, capsys):
    scen = tmp_path / "s.txt"
    rc = main(["gen-scenario", str(scen), "--set", "n_nodes=25",
               "--set", "ranges=60", "--seed", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(scen)
    lines = scen.read_text(encoding="utf-8").splitlines()
    assert lines[0].split() == ["field", "200.0", "200.0", "100.0", "100.0",
                                "60.0", "3"]
    assert sum(1 for l in lines if l.startswith("node ")) == 25

    out_dir = tmp_path / "out"
    rc = main(["run", str(scen), "--events", "--out", str(out_dir),
               "--set", "traffic.rounds_max=150"])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert [os.path.basename(p) for p in printed] == [
        "run_metrics.csv", "run_alive.csv", "run_loads.csv",
        "run_events.csv"]
    assert all(os.path.exists(p) for p in printed)


def test_cli_run_reruns_byte_identical(tmp_path, capsys):
    scen = tmp_path / "s.txt"
    assert main(["gen-scenario", str(scen), "--set", "n_nodes=25",
                 "--set", "ranges=60", "--seed", "3"]) == 0
    args = ["run", str(scen), "--events",
            "--set", "traffic.rounds_max=150"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(tmp_path / "r1"))
    assert names == sorted(os.listdir(tmp_path / "r2"))
    for name in names:
        assert read_bytes(str(tmp_path / "r1" / name)) == \
            read_bytes(str(tmp_path / "r2" / name))


def test_cli_sweep_fig3_writes_summary_and_attempts(tmp_path, capsys):
    rc = main(["sweep-fig3", "--out", str(tmp_path),
               "--set", "n_nodes=30", "--set", "ranges=45,60",
               "--set", "target_successes=3", "--set", "max_attempts=30"])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert [os.path.basename(p) for p in printed] == [
        "fig3_summary.csv", "fig3_attempts.csv"]
    header = body_lines(printed[0])[0]
    assert header == "range,successes,failures,mean_tree_nodes,exhausted"
    assert len(body_lines(printed[0])) == 1 + 2  # header + one row per range


def test_cli_sweep_fig4_defaults_to_denser_deployment(tmp_path, capsys):
    rc = main(["sweep-fig4", "--out", str(tmp_path),
               "--set", "ranges=15", "--set", "target_successes=1",
               "--set", "max_attempts=2"])
    assert rc == 0
    capsys.readouterr()
    with open(tmp_path / "fig4_summary.csv", "r", encoding="utf-8") as fh:
        text = fh.read()
    assert "# n_nodes = 400" in text


def test_cli_exit_codes_and_messages(tmp_path, capsys):
    assert main(["gen-scenario", str(tmp_path / "x.txt"),
                 "--set", "nnodes=5"]) == 1
    assert "unknown config key 'nnodes'" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path)]) == 1
    assert "missing.txt" in capsys.readouterr().err

    dup = tmp_path / "dup.txt"
    dup.write_text("field 200 200 100 100 25 7\n"
                   "node 0 10 10 2.0\n"
                   "node 0 20 20 2.0\n", encoding="utf-8")
    assert main(["run", str(dup), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "scenario error" in err and "line 3" in err and "duplicate" in err

    far = tmp_path / "far.txt"
    far.write_text("field 200 200 100 100 10 7\n"
                   "node 0 10 10 2.0\n"
                   "node 1 190 190 2.0\n", encoding="utf-8")
    assert main(["run", str(far), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unreachable" in err and "[0, 1]" in err

    assert main(["gen-scenario", str(tmp_path / "y.txt"),
                 "--set", "ranges=30,20"]) == 1
    assert "increasing" in capsys.readouterr().err

    assert main(["gen-scenario", str(tmp_path / "z.txt"),
                 "--set", "n_nodes"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_cli_layering_set_and_seed_beat_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("n_nodes = 30\nbase_seed = 4\nranges = 50\n",
                        encoding="utf-8")
    scen = tmp_path / "s.txt"
    rc = main(["gen-scenario", str(scen), "--config", str(cfg_file),
               "--set", "n_nodes=25", "--seed", "9"])
    assert rc == 0
    capsys.readouterr()
    lines = scen.read_text(encoding="utf-8").splitlines()
    assert lines[0].split()[-2:] == ["50.0", "9"]
    assert sum(1 for l in lines if l.startswith("node ")) == 25


def run_with_setting(tmp_path, setting):
    scen = tmp_path / "s.txt"
    assert main(["gen-scenario", str(scen), "--set", "n_nodes=10",
                 "--set", "ranges=80"]) == 0
    out = tmp_path / "out"
    rc = main(["run", str(scen), "--out", str(out), "--set", setting])
    assert not out.exists()
    return rc


def test_cli_rejects_negative_t_move(tmp_path, capsys):
    # round % -5 == 0 would still relocate the sink every 5 rounds
    assert run_with_setting(tmp_path, "policy.t_move=-5") == 1
    assert "policy.t_move must be >= 0" in capsys.readouterr().err


def test_cli_rejects_negative_max_step(tmp_path, capsys):
    # a negative step would move the sink away from its target
    assert run_with_setting(tmp_path, "policy.max_step=-1.5") == 1
    assert "policy.max_step must be >= 0" in capsys.readouterr().err


def test_cli_rejects_negative_rounds_max(tmp_path, capsys):
    assert run_with_setting(tmp_path, "traffic.rounds_max=-1") == 1
    assert "traffic.rounds_max must be >= 0" in capsys.readouterr().err


def test_cli_rejects_negative_th(tmp_path, capsys):
    assert run_with_setting(tmp_path, "policy.th=-1") == 1
    assert "policy.th must be >= 0" in capsys.readouterr().err


def test_cli_rejects_zero_e_init(tmp_path, capsys):
    assert run_with_setting(tmp_path, "energy.e_init=0") == 1
    assert "energy.e_init must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("energy", ["nan", "inf"])
def test_cli_rejects_non_finite_scenario_energy(tmp_path, capsys, energy):
    # nan used to run with the node silently failed; inf never drained
    scen = tmp_path / "s.txt"
    scen.write_text("field 200 200 100 100 60 0\nnode 0 100 120 2.0\n"
                    f"node 1 100 130 {energy}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "scenario error: line 3" in err and "finite" in err
