from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from stagegate.evaluation import compute_report
from stagegate.runner import run_suite
from stagegate.scenarios import load_domain, load_suite
from stagegate.suites import hr_domain_dir, hr_suite_path


@pytest.fixture(scope="session")
def build_data():
    """``scripts/build_data.py``, loaded by path: the suite builders live there."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "build_data.py"
    spec = importlib.util.spec_from_file_location("build_data", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
