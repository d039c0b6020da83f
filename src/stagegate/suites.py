"""Where the package's shipped domain bundles and labeled suites live.

The hiring domain runs a six-stage workflow; eight service domains run
two-stage search-then-act workflows.  Every bundle is hand-authored as the
four JSON files under ``data/hr`` or ``data/sgd/<D>``, and that JSON is
its only definition.  The suites next to them are generated from those
bundles by ``scripts/build_data.py``; rerun it after editing a bundle.
"""

from __future__ import annotations

from pathlib import Path

from .scenarios import DomainBundle, load_domain

DATA_DIR = Path(__file__).parent / "data"

HR_DOMAIN = "hr"
SGD_DOMAINS = (
    "Banks_1",
    "Hotels_1",
    "RentalCars_1",
    "Events_1",
    "Buses_1",
    "Homes_1",
    "Media_2",
    "Music_1",
)


def hr_bundle() -> DomainBundle:
    """The hand-authored hiring bundle shipped under ``data/hr``."""
    return load_domain(hr_domain_dir())


def hr_domain_dir() -> Path:
    return DATA_DIR / HR_DOMAIN


def sgd_domain_dir(domain: str) -> Path:
    return DATA_DIR / "sgd" / domain


def hr_suite_path() -> Path:
    return DATA_DIR / "hr_suite.json"


def sgd_suite_path(domain: str) -> Path:
    return DATA_DIR / "sgd" / domain / "suite.json"
