#!/usr/bin/env python3
"""Regenerate the shipped suites and service bundles under src/stagegate/data.

``data/hr/*.json`` is the one hand-authored input: the hiring suite is
built and labeled from that bundle as shipped, so rerun this script after
editing it.  The eight service bundles and their suites are generated
from ``suites._SGD_SPEC``.  The builders are deterministic and
self-checking; running this twice produces byte-identical files.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from stagegate.scenarios import save_suite, write_domain  # noqa: E402
from stagegate.suites import (  # noqa: E402
    HR_DOMAIN,
    SGD_DOMAINS,
    build_hr_suite,
    build_sgd_suite,
    hr_bundle,
    hr_suite_path,
    sgd_bundle,
    sgd_domain_dicts,
    sgd_domain_dir,
    sgd_suite_path,
)


def main() -> int:
    suite = build_hr_suite(hr_bundle())
    save_suite(hr_suite_path(), "hr-governance-suite", HR_DOMAIN, suite)
    print(f"hr: {len(suite)} scenarios, {sum(len(s.messages) for s in suite)} messages")

    total_dialogues = 0
    total_turns = 0
    for domain in SGD_DOMAINS:
        write_domain(sgd_domain_dir(domain), sgd_domain_dicts(domain))
        scenarios = build_sgd_suite(domain, sgd_bundle(domain))
        save_suite(sgd_suite_path(domain), f"{domain}-suite", domain, scenarios)
        total_dialogues += len(scenarios)
        total_turns += sum(len(s.messages) for s in scenarios)
    print(f"sgd: {total_dialogues} dialogues, {total_turns} turns across {len(SGD_DOMAINS)} domains")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
