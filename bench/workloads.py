"""The benchmark's workloads: which suites, which store, and what they must yield.

``hr-mem`` and ``sgd-file`` are the shipped, frozen suites and ignore the
seed.  ``hr-paraphrase`` rewrites every hiring-suite message from the seed,
so most messages miss every pattern and take the router's fallback path; the
program only ever sees the rewritten texts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from stagegate import scenarios, suites
from stagegate.scenarios import DomainBundle, Scenario

# The seed whose hr-paraphrase outcome digest is pinned below.
DEFAULT_SEED = 1

FILLERS = ("please", "now", "kindly", "quickly", "today", "then", "okay", "again", "asap", "maybe")


@dataclass(frozen=True)
class Workload:
    name: str
    store: str  # "memory" | "file"
    suites: tuple[tuple[Path, Path], ...]  # (domain directory, suite file)
    paraphrase: bool = False
    pinned_counts: dict[str, int] | None = None
    # sha256 over every dispatch's (goal, outcome, sub_reason, stages, skill),
    # in suite order; for hr-paraphrase it holds for DEFAULT_SEED only.
    pinned_digest: str | None = None


def _workloads() -> dict[str, Workload]:
    hr = ((suites.hr_domain_dir(), suites.hr_suite_path()),)
    sgd = tuple((suites.sgd_domain_dir(d), suites.sgd_suite_path(d)) for d in suites.SGD_DOMAINS)
    return {
        "hr-mem": Workload(
            name="hr-mem",
            store="memory",
            suites=hr,
            pinned_counts={"SUCCESS": 860, "ILLEGAL_TRANSITION": 16, "PRECONDITION_FAIL": 6},
            pinned_digest="339c18598d193558e5471386320b9e2844dd1f36ba6f819aa09e0b6dbb5ab1b6",
        ),
        "sgd-file": Workload(
            name="sgd-file",
            store="file",
            suites=sgd,
            pinned_counts={"SUCCESS": 1533, "ILLEGAL_TRANSITION": 201},
            pinned_digest="8012ac57dbe4b7aeec3afda61a3b1a683819744c8b67445bb27e7d70c74dfb74",
        ),
        "hr-paraphrase": Workload(
            name="hr-paraphrase",
            store="memory",
            suites=hr,
            paraphrase=True,
            pinned_digest="707fe281d5d87ed39aaa93a6208f603a139f423eeb3e921fbdbde18f0f705c8c",
        ),
    }


WORKLOADS = _workloads()


@dataclass
class Loaded:
    """One bundle with its (possibly rewritten) scenarios."""

    bundle: DomainBundle
    scenarios: list[Scenario]

    @property
    def messages(self) -> int:
        return sum(len(s.messages) for s in self.scenarios)


def load(workload: Workload) -> list[Loaded]:
    """Load every bundle and suite of the workload; this is what setup_s times."""
    loaded = []
    for domain_dir, suite_path in workload.suites:
        bundle = scenarios.load_domain(domain_dir)
        loaded.append(Loaded(bundle, scenarios.load_suite(suite_path, bundle)))
    return loaded


def paraphrase(text: str, rng: random.Random) -> str:
    """Rewrite one message by dropping a word, swapping two neighbours or adding a filler."""
    words = text.split()
    op = rng.choice(("drop", "swap", "insert"))
    if op == "drop" and len(words) > 1:
        del words[rng.randrange(len(words))]
    elif op == "swap" and len(words) > 1:
        i = rng.randrange(len(words) - 1)
        words[i], words[i + 1] = words[i + 1], words[i]
    else:
        words.insert(rng.randrange(len(words) + 1), rng.choice(FILLERS))
    return " ".join(words)


def rewrite(loaded: list[Loaded], seed: int) -> list[Loaded]:
    """Paraphrase every message of every scenario, deterministically from *seed*."""
    rng = random.Random(seed)
    out = []
    for item in loaded:
        rewritten = [
            replace(s, messages=tuple(replace(m, text=paraphrase(m.text, rng)) for m in s.messages))
            for s in item.scenarios
        ]
        out.append(Loaded(item.bundle, rewritten))
    return out
