from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from stagegate.evaluation import compute_report
from stagegate.runner import run_suite
from stagegate.scenarios import load_domain, load_suite
from stagegate.suites import hr_domain_dir, hr_suite_path


def _script(name: str, directory: str = "scripts"):
    """``<directory>/<name>.py`` loaded by path as a module; neither ``scripts`` nor ``bench`` is a package."""
    script = Path(__file__).resolve().parents[1] / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def build_data():
    """``scripts/build_data.py``: the suite builders live there."""
    return _script("build_data")


@pytest.fixture(scope="session")
def bench_pairs():
    """``scripts/bench_pairs.py``: its ``compare`` and ``summarize`` decide every performance claim."""
    return _script("bench_pairs")


@pytest.fixture(scope="session")
def bench_tracing():
    """``bench/tracing.py``: the wrappers behind the benchmark's per-layer metrics."""
    return _script("tracing", "bench")


@pytest.fixture(scope="session")
def hr_bundle():
    return load_domain(hr_domain_dir())


@pytest.fixture(scope="session")
def hr_suite(hr_bundle):
    return load_suite(hr_suite_path(), hr_bundle)


@pytest.fixture(scope="session")
def hr_run(hr_bundle, hr_suite):
    """One full-config run of the shipped hiring suite, shared read-only."""
    return run_suite(hr_bundle, hr_suite)


@pytest.fixture(scope="session")
def hr_report(hr_run, hr_bundle):
    return compute_report(hr_run, hr_bundle)
