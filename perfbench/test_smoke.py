"""Smoke test of the benchmark harness at toy sizes (50 nodes, 20 rounds).

    python3 -m pytest perfbench/test_smoke.py -q

Digests are recorded into a temporary file first, so the test checks the
harness, not the reference outputs in perfbench/digests.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--scale", "toy", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result(*args: str) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("ref") / "digests.json")
    for workload in WORKLOADS:
        proc = bench("--workload", workload, "--record", "--digests", path)
        assert proc.returncode == 0, proc.stderr
    return path


def assert_declared(metrics: dict, declared: list) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, digests):
    res = result("--workload", workload, "--seconds", "0.5",
                 "--digests", digests)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    assert_declared(res["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload, digests):
    res = result("--workload", workload, "--seconds", "0.5", "--trace", "1",
                 "--digests", digests)
    assert res["correct"]
    metrics = res["metrics"]
    assert_declared(metrics, SPEC["per_layer"])
    assert metrics["failed_frac"]["value"] == 0
    assert metrics["cli.main.calls"]["value"] == 1
    self_total = sum(m["value"] for name, m in metrics.items()
                     if name.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"]["value"]


def test_tampered_digest_counts_as_failure(digests, tmp_path):
    with open(digests, encoding="utf-8") as fh:
        table = json.load(fh)
    workload = "run-balanced-1000-events"
    first = sorted(table[workload])[0]
    table[workload][first] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(table), encoding="utf-8")
    res = result("--workload", workload, "--seconds", "0.5", "--trace", "1",
                 "--digests", str(tampered))
    assert not res["correct"] and res["failed"] >= 1
    assert res["metrics"]["failed_frac"]["value"] > 0


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", WORKLOADS[0], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
