"""Sweep harness and command-line interface."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vbtsim as v
from vbtsim.cli import main
from vbtsim.config import EnergyParams
from vbtsim.mincover import build_min_cover
from vbtsim.mmevbt import build_mmevbt
from vbtsim.sweeps import (
    _fmt,
    attempt_seed,
    make_scenario,
    run_scenario,
    sweep_figure3,
    sweep_figure4,
    write_csv,
    write_sweep_outputs,
)
from oracles import graph_and_state, live_mask, tree_nodes

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
                              energy=EnergyParams(e_init=0.5))
    sc = make_scenario(cfg, 77, 33.0)
    assert sc.xy.shape == (12, 2)
    assert sc.sensing_range == 33.0
    assert sc.rng_seed == 77
    assert sc.field is cfg.field
    assert sc.energy.tolist() == [0.5] * 12
    assert sc.state(cfg.policy.floor)[1].all()
    assert sc.xy.tolist() == v.deploy_uniform(cfg.field, 12, 77).tolist()
    assert make_scenario(cfg, 77, 33.0).xy.tolist() == sc.xy.tolist()


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
    graph, state = graph_and_state(sc)
    tree = build_mmevbt(graph, state, cfg.radio, cfg.policy.th)
    assert len(tree_nodes(graph, tree)) == probe.n_tree_nodes


def test_sweep_fig4_counts_greedy_cover_sizes():
    cfg = small_sweep_config(n_nodes=40)
    summary, attempts = sweep_figure4(cfg)
    assert all(r.successes == cfg.target_successes for r in summary)
    probe = next(a for a in attempts if not a.failed)
    sc = make_scenario(cfg, probe.scenario_seed, probe.range_m)
    cover = build_min_cover(*graph_and_state(sc), cfg.policy.th)
    assert len(cover.tree_nodes) == probe.n_tree_nodes


# energy levels drawn in every order, ties included; e_fail > e_init >= th
# leaves live nodes that hold th but not e_fail
LEVELS = st.sampled_from([0.05, 0.2, 0.3, 0.5])


@settings(max_examples=25, deadline=None)
@given(e_init=LEVELS, th=st.one_of(st.just(0.0), LEVELS),
       e_fail=st.one_of(st.just(0.0), LEVELS), n=st.integers(1, 60),
       range_m=st.sampled_from([25.0, 40.0, 60.0]),
       base_seed=st.integers(0, 2**16))
@example(e_init=0.3, th=0.2, e_fail=0.5, n=60, range_m=40.0, base_seed=0)
def test_sweep_attempts_equal_their_scenario_replay(e_init, th, e_fail, n,
                                                    range_m, base_seed):
    """Every attempt's count and outcome equal a build on the
    make_scenario of its recorded seed, its nodes live as the four-way
    status says under the config's th and e_fail."""
    cfg = small_sweep_config(
        n_nodes=n, ranges=(range_m,), target_successes=2, max_attempts=3,
        base_seed=base_seed, energy=EnergyParams(e_init),
        policy=v.SimPolicy(th=th, e_fail=e_fail))
    for sweep, count in [
            (sweep_figure3, lambda g, s: len(tree_nodes(g, build_mmevbt(
                g, s, cfg.radio, th)))),
            (sweep_figure4,
             lambda g, s: len(build_min_cover(g, s, th).tree_nodes))]:
        for attempt in sweep(cfg)[1]:
            sc = make_scenario(cfg, attempt.scenario_seed, range_m)
            try:
                size = count(*graph_and_state(sc, live_mask(sc, th, e_fail)))
            except v.ConstructionFailed:
                size = None
            assert (attempt.n_tree_nodes, attempt.failed) == (
                size, size is None)


@pytest.mark.parametrize("sweep", [sweep_figure3, sweep_figure4])
@pytest.mark.parametrize("range_m, error", [
    (0.0, ValueError),
    # not the attempt seed's OverflowError or ValueError from round(r * 1000)
    (math.inf, ValueError),
    (math.nan, ValueError),
])
def test_sweeps_reject_a_range_not_positive_and_finite(sweep, range_m,
                                                        error):
    with pytest.raises(error, match="ranges must be positive and finite"):
        sweep(small_sweep_config(ranges=(range_m,)))


@pytest.mark.parametrize("sweep", [sweep_figure3, sweep_figure4])
def test_sweeps_reject_a_trailing_infinite_range_before_sweeping(sweep):
    with pytest.raises(ValueError, match="ranges must be positive and finite"):
        sweep(small_sweep_config(ranges=(20.0, math.inf)))


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


def test_write_csv_writes_the_per_cell_fmt_join(tmp_path):
    # every cell type a writer meets, then one row per event kind
    rows = [
        [3, "x", 2.5, -0.0, 1e-300, math.inf, -math.inf, math.nan, True,
         False, None, np.float64(0.1), np.int64(7), 10**20],
        (1, "packet", 4, "4>9>-1"),
        (2, "death", 9, ""),
        (2, "rebuild", -1, "eligibility"),
        (5, "relocate", -1, "101.250;98.000"),
        (10, "relocate", -1, "reverted"),
        (11, "disconnect", -1, "3;17;40"),
        (12, "disconnect", -1, ""),
    ]
    cfg = v.ExperimentConfig()
    path = tmp_path / "t.csv"
    write_csv(str(path), cfg, ["round", "event", "node", "detail"],
              iter(rows))
    text = "".join(line + "\n" for line in cfg.echo_lines())
    text += "round,event,node,detail\n"
    text += "".join(",".join(_fmt(c) for c in row) + "\n" for row in rows)
    assert read_bytes(path) == text.encode("utf-8")


@pytest.mark.parametrize("cell", [
    np.float64(0.1), np.float64(-0.0), np.float64(math.nan),
    np.float32(0.1), np.int64(-7), np.bool_(True), np.bool_(False),
], ids=["f64", "f64=-0", "f64=nan", "f32", "i64", "true", "false"])
def test_write_csv_writes_numpy_scalars_as_their_item(tmp_path, cell):
    cfg = v.ExperimentConfig()
    paths = [tmp_path / "np.csv", tmp_path / "item.csv"]
    for path, value in zip(paths, (cell, cell.item())):
        write_csv(str(path), cfg, ["c"], [[value, 1]])
    assert read_bytes(paths[0]) == read_bytes(paths[1])
    assert read_bytes(paths[0]).splitlines()[-1] == (
        f"{_fmt(cell.item())},1".encode("utf-8"))


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
                              traffic=v.TrafficModel(rounds_max=150))
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


def test_cli_run_fails_a_node_below_the_policy_floor(tmp_path, capsys):
    """A scenario file holds energies only: node 1's 0.005 J is live under
    the default thresholds but below min(th, e_fail) here, so the run
    starts with it failed and it sends nothing."""
    scen = tmp_path / "s.txt"
    scen.write_text("field 200 200 100 100 30 0\n"
                    "node 0 115 115 2.0\nnode 1 100 120 0.005\n"
                    "node 2 100 140 2.0\nnode 3 85 130 2.0\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(scen), "--events", "--out", str(out),
                 "--set", "policy.th=0.5", "--set", "policy.e_fail=0.01",
                 "--set", "traffic.origin_probability=1.0",
                 "--set", "traffic.rounds_max=5"]) == 0
    capsys.readouterr()
    assert body_lines(str(out / "run_alive.csv"))[1] == "0,1,0.75"
    paths = [row.split(",")[3].split(">") for row in
             body_lines(str(out / "run_events.csv"))[1:]
             if row.split(",")[1] == "packet"]
    assert len(paths) == 15 and all("1" not in path for path in paths)


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


@pytest.mark.parametrize("algorithm", ["mmevbt", "min_cover_best_parent",
                                       "balanced_probabilistic"])
def test_cli_runs_at_a_range_whose_square_overflows(tmp_path, capsys,
                                                     algorithm):
    """1e300 is positive and finite, but 1e300**2 overflows a float:
    every pair is in range and the run completes."""
    scen = tmp_path / "s.txt"
    scen.write_text("field 200 200 100 100 1e300 0\n"
                    "node 0 110 100 2.0\nnode 1 0 0 2.0\n"
                    "node 2 200 200 2.0\n", encoding="utf-8")
    assert main(["run", str(scen), "--out", str(tmp_path / "out"),
                 "--set", f"algorithm={algorithm}",
                 "--set", "traffic.rounds_max=5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["sweep-fig3", "sweep-fig4"])
def test_cli_sweeps_at_a_range_whose_square_overflows(tmp_path, capsys, verb):
    assert main([verb, "--out", str(tmp_path), "--set", "n_nodes=30",
                 "--set", "ranges=1e300", "--set", "target_successes=2",
                 "--set", "max_attempts=4"]) == 0
    capsys.readouterr()


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


def test_cli_field_settings_apply_before_the_field_is_checked(tmp_path,
                                                             capsys):
    # the sink stays inside only once both settings are in
    scen = tmp_path / "s.txt"
    assert main(["gen-scenario", str(scen), "--set", "n_nodes=10",
                 "--set", "field.width=50", "--set", "field.sink_x=25"]) == 0
    capsys.readouterr()
    assert scen.read_text(encoding="utf-8").split()[1:5] == \
        ["50.0", "200.0", "25.0", "100.0"]


def test_cli_gen_scenario_rejects_sink_outside_field(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert main(["gen-scenario", str(out), "--set", "field.width=50"]) == 1
    assert "sink position outside the field" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_ignores_config_field(tmp_path, capsys):
    # run reads the field from the scenario file, never from field.*
    scen = tmp_path / "s.txt"
    assert main(["gen-scenario", str(scen), "--set", "n_nodes=25",
                 "--set", "ranges=60", "--seed", "3"]) == 0
    assert main(["run", str(scen), "--out", str(tmp_path / "out"),
                 "--set", "field.width=50",
                 "--set", "traffic.rounds_max=20"]) == 0
    capsys.readouterr()


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


def test_cli_rejects_negative_e_fail(tmp_path, capsys):
    # below zero no node could ever be classed failed
    assert run_with_setting(tmp_path, "policy.e_fail=-1") == 1
    assert "policy.e_fail must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("ranges", ["-5", "0", "-5,10"])
def test_cli_rejects_non_positive_ranges(tmp_path, capsys, ranges):
    # a negative range made a negative attempt seed, which numpy rejected
    # without naming the key
    out = tmp_path / "out"
    assert main(["sweep-fig4", "--out", str(out), "--set",
                 f"ranges={ranges}"]) == 1
    assert not out.exists()
    assert "ranges must be positive" in capsys.readouterr().err


def test_cli_rejects_negative_base_seed(tmp_path, capsys):
    assert run_with_setting(tmp_path, "base_seed=-1") == 1
    assert "base_seed must be >= 0" in capsys.readouterr().err
    out = tmp_path / "out2"
    assert main(["sweep-fig3", "--out", str(out), "--seed", "-1"]) == 1
    assert not out.exists()
    assert "base_seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("range_m", ["0", "-5", "nan", "inf"])
def test_gen_scenario_rejects_non_positive_range(tmp_path, capsys, range_m):
    # 0 must not fall back to the first of the config's ranges; nan and
    # inf were written, and run then refused the file
    scen = tmp_path / "s.txt"
    assert main(["gen-scenario", str(scen), "--range", range_m]) == 1
    assert not scen.exists()
    assert "sensing range must be positive" in capsys.readouterr().err


def test_gen_scenario_rejects_a_field_wider_than_2_511(tmp_path, capsys):
    scen = tmp_path / "s.txt"
    assert main(["gen-scenario", str(scen), "--set", "field.width=1e300"]) == 1
    assert not scen.exists()
    assert "field dimensions must be at most 2**511" in capsys.readouterr().err


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


@pytest.mark.parametrize("text, message", [
    # nan used to reach the grid's cell index and exit 2
    ("field 200 200 100 100 nan 7\nnode 0 100 110 2.0\n",
     "line 1: sensing range must be positive and finite"),
    # inf used to run and exit 0
    ("field 200 200 100 100 inf 7\nnode 0 100 110 2.0\n",
     "line 1: sensing range must be positive and finite"),
    # 0 and -5 used to fail in the Scenario, with no line number
    ("field 200 200 100 100 0 7\nnode 0 100 110 2.0\n",
     "line 1: sensing range must be positive and finite"),
    ("field 200 200 100 100 -5 7\nnode 0 100 110 2.0\n",
     "line 1: sensing range must be positive and finite"),
    ("field 200 200 nan 100 60 7\nnode 0 100 110 2.0\n",
     "line 1: field values must be finite"),
    # a negative battery used to be classed failed in silence
    ("field 200 200 100 100 60 7\nnode 0 100 110 -2.0\n",
     "line 2: node 0 energy must be >= 0"),
    # no nodes used to die dividing by the node count
    ("field 200 200 100 100 60 7\n", "line 0: no node lines"),
    # a hop this long used to overflow the tx cost's square
    ("field 1e300 1e300 0 0 1e300 0\nnode 0 1e200 0 2.0\n"
     "node 1 0 1e200 2.0\n",
     "line 1: field dimensions must be at most 2**511"),
], ids=["range=nan", "range=inf", "range=0", "range<0", "sink_x=nan",
        "energy<0", "no nodes", "field>2**511"])
def test_cli_rejects_bad_scenario_numbers(tmp_path, capsys, text, message):
    scen = tmp_path / "s.txt"
    scen.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"scenario error: {message}" in capsys.readouterr().err
