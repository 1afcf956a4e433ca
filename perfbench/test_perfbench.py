"""Tests of the benchmark itself, on the tiny `--quick` workloads.

    python3 -m pytest -q perfbench/test_perfbench.py

They check the output contract (every metric of BENCHMARK.json printed by
name with its unit, and the last line's keys), that the traced counts
repeat exactly, that a wrong reference digest is counted as a failed
invocation, that a run longer than the kill margin is not cut short, and
that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TWO_CORES = len(os.sched_getaffinity(0)) >= 2


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    got = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--quick", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return got.returncode, got.stdout.splitlines()


def result(lines: list[str]) -> dict:
    data = json.loads(lines[-1])
    assert set(data) == {"correct", "attempted", "failed", "metrics"}
    return data


def needs_cores(workload: str):
    if workload == "hunt-par" and not TWO_CORES:
        pytest.skip("hunt-par needs two usable cores")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    needs_cores(workload)
    # Seed 7 is checked against the reference digests, seed 3 against a
    # serial hunt.
    seed = "7" if trace else "3"
    code, lines = bench("--workload", workload, "--seed", seed, "--trace", str(trace))
    assert code == 0
    data = result(lines)
    assert data["correct"] is True and data["failed"] == 0 and data["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in data["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in spec:
        value = data["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert f"metric {m['name']} = " in "\n".join(lines)
    if not trace:
        assert all(data["metrics"][m["name"]]["value"] > 0 for m in spec)
        text = "\n".join(lines)
        assert "metric failed_ratio = 0 ratio" in text
        assert ("metric models_per_s = " in text) == workload.startswith("hunt")


@pytest.mark.parametrize("workload", ["hunt", "theorems", "census"])
def test_traced_counts_repeat_exactly(workload):
    runs = [result(bench("--workload", workload, "--seed", "5", "--trace", "1")[1]) for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in run["metrics"].items() if m["unit"] == "count"}
        for run in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["measure.prob.calls"] > 0


def copy_benchmark(tmp_path: Path) -> Path:
    """A tree with the benchmark and BENCHMARK.json, and no sources."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_tampered_reference_digest_is_a_failed_invocation(tmp_path):
    tree = copy_benchmark(tmp_path)
    (tree / "src").symlink_to(ROOT / "src", target_is_directory=True)
    reference_path = tree / "perfbench" / "reference.json"
    reference = json.loads(reference_path.read_text())
    assert reference["seed"] == 7
    reference["sha256"]["quick"]["hunt"] = "0" * 64
    reference_path.write_text(json.dumps(reference))
    code, lines = bench("--workload", "hunt", "--seed", "7", cwd=tree)
    assert code == 0
    data = result(lines)
    assert data["correct"] is False
    assert data["failed"] == data["attempted"] >= 1
    assert any("is not the reference" in line for line in lines)


def test_kill_deadline_follows_the_run_length(monkeypatch, capsys):
    # With a kill margin shorter than --seconds, a deadline that ignored
    # --seconds would kill the later invocations and count them as failed.
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "DEADLINE_MARGIN_S", 3.0)
    code = run.main(["--quick", "--workload", "census", "--seconds", "5"])
    assert code == 0
    data = result(capsys.readouterr().out.splitlines())
    assert data["correct"] is True and data["failed"] == 0 and data["attempted"] > 1


def test_refuses_to_run_without_the_sources(tmp_path):
    tree = copy_benchmark(tmp_path)
    code, lines = bench("--workload", "hunt", cwd=tree)
    assert code != 0
    assert not lines or not lines[-1].startswith("{")


def test_hunt_par_is_not_run_on_one_core():
    one_core = {min(os.sched_getaffinity(0))}
    got = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload", "hunt-par"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: os.sched_setaffinity(0, one_core),
    )
    assert got.returncode == 3
    assert "hunt-par not run: 1 usable core" in got.stdout
    assert "{" not in got.stdout
