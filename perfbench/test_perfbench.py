"""Tests of the benchmark itself: a tiny run prints every metric that
BENCHMARK.json names, and wrong outputs trip the checks.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads
from mlasce import bench, cli, emulator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_command(*extra, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench_command("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench_command("--workload", "toy_sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def run_one_pass(workload_cls, tmp_path):
    capture = workloads.CaptureRuns()
    capture.install()
    try:
        return run.run_pass(workload_cls(1, str(tmp_path), tiny=True, capture=capture), None)
    finally:
        capture.uninstall()


def overspend(mlasce_run):
    def stub(*args, **kwargs):
        em = mlasce_run(*args, **kwargs)
        em.spent = em.budget + 1.0
        return em

    return stub


@pytest.mark.parametrize("module, workload_cls", [
    (bench, workloads.ToySweep),
    (emulator, workloads.Design2D),
    (cli, workloads.CliSession),
])
def test_overspending_emulator_fails_ops(monkeypatch, tmp_path, module, workload_cls):
    assert run_one_pass(workload_cls, tmp_path)["failed"] == {}
    monkeypatch.setattr(module, "mlasce_run", overspend(module.mlasce_run))
    failed = run_one_pass(workload_cls, tmp_path)["failed"]
    assert failed and any("exceeds budget" in reason for reason in failed.values())


def test_duplicate_design_point_fails_op(monkeypatch, tmp_path):
    mlasce_run = emulator.mlasce_run

    def duplicating(*args, **kwargs):
        em = mlasce_run(*args, **kwargs)
        model = em.levels[0].model
        em.levels[0].model = replace(model, X=model.X[[0] * model.n])
        return em

    monkeypatch.setattr(emulator, "mlasce_run", duplicating)
    failed = run_one_pass(workloads.Design2D, tmp_path)["failed"]
    assert failed and all("duplicate" in reason for reason in failed.values())


def test_corrupted_artifact_fails_predict(monkeypatch, tmp_path):
    save = cli.save_artifact

    def corrupting(em, path):
        save(em, path)
        doc = json.loads(Path(path).read_text())
        doc["levels"][0]["sigma2"] *= 1.0 + 1e-6
        Path(path).write_text(json.dumps(doc))

    monkeypatch.setattr(cli, "save_artifact", corrupting)
    failed = run_one_pass(workloads.CliSession, tmp_path)["failed"]
    assert failed and all("artifact predictions" in reason for reason in failed.values())
