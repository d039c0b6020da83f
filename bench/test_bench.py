"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from harness import Checks, run_pass  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, load, rewrite  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert f"  {name} " in proc.stdout  # printed by name on its own line too


@pytest.fixture(scope="module")
def hr_loaded():
    return load(WORKLOADS["hr-mem"])


def _pass(workload, loaded, tmp_path, expected_digest=None) -> Checks:
    checks = Checks()
    run_pass(loaded, workload, tmp_path / "pass", checks, expected_digest)
    return checks


def test_pinned_values_pass_on_the_shipped_suite(hr_loaded, tmp_path):
    workload = WORKLOADS["hr-mem"]
    checks = _pass(workload, hr_loaded, tmp_path, workload.pinned_digest)
    assert checks.failed == 0, checks.problems
    goals = sum(len(s.tracks()) for item in hr_loaded for s in item.scenarios)
    assert checks.attempted == 882 * 2 + 1 + goals  # dispatches twice, one report, replays


def test_wrong_pinned_counts_fail_the_pass(hr_loaded, tmp_path):
    workload = replace(
        WORKLOADS["hr-mem"],
        pinned_counts={"SUCCESS": 861, "ILLEGAL_TRANSITION": 15, "PRECONDITION_FAIL": 6},
    )
    checks = _pass(workload, hr_loaded, tmp_path)
    assert checks.failed == 882 * 2
    assert any("pinned" in problem for problem in checks.problems)


def test_wrong_pinned_digest_fails_the_pass(hr_loaded, tmp_path):
    checks = _pass(WORKLOADS["hr-mem"], hr_loaded, tmp_path, "0" * 64)
    assert checks.failed == 882 * 2
    assert any("digest" in problem for problem in checks.problems)


def test_paraphrase_is_deterministic_and_seeded(hr_loaded):
    def texts(seed):
        return [m.text for item in rewrite(hr_loaded, seed) for s in item.scenarios for m in s.messages]

    original = [m.text for item in hr_loaded for s in item.scenarios for m in s.messages]
    assert texts(DEFAULT_SEED) == texts(DEFAULT_SEED)
    assert texts(DEFAULT_SEED) != texts(DEFAULT_SEED + 1)
    changed = sum(a != b for a, b in zip(original, texts(DEFAULT_SEED)))
    assert changed > 0.95 * len(original)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
