"""Governance metrics over completed runs: rates, confusion, comparisons.

A report is one walk over the run's steps, each read through its scenario,
message and event; a step and its label join by ``(scenario_id, turn_index)``.
The blocking confusion treats ILLEGAL_TRANSITION and PRECONDITION_FAIL as
blocks and the message's ``expected_legal`` as the truth; a routing miss
(SKILL_NOT_FOUND) is not a governance block.  A step counts as violating
when its intent is stage-illegal at the goal's stage, blocked or not, or
when any of its skill's flags failed, enforced or not; so CVR rises when
either the stage gate or the precondition check is removed.  A report holds
no wall-clock data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Mapping, Sequence

from .dispatcher import BLOCK_OUTCOMES, FULL, DispatchToggles
from .errors import IntegrityFault
from .memory import ProcessEvent
from .runner import RunResult, goal_id_for, run_suite
from .scenarios import DomainBundle, Scenario, simulate_scenario

TALLY_ORDER = ("SUCCESS", "ILLEGAL_TRANSITION", "PRECONDITION_FAIL", "SKILL_NOT_FOUND")


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


# -- confusion arithmetic -----------------------------------------------------


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class BlockingMetrics:
    confusion: Confusion
    accuracy: float | None
    precision: float
    recall: float
    f1: float

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def blocking_metrics(confusion: Confusion) -> BlockingMetrics:
    """Derived rates with the empty-denominator conventions pinned.

    precision = 1.0 when tp+fp = 0, recall = 1.0 when tp+fn = 0, f1 = 0 when
    precision+recall = 0, accuracy undefined (None) on an empty matrix.
    """
    tp, fp, fn, tn = confusion.tp, confusion.fp, confusion.fn, confusion.tn
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    accuracy = None if confusion.total == 0 else (tp + tn) / confusion.total
    return BlockingMetrics(confusion, accuracy, precision, recall, f1)


# -- outcome tally ------------------------------------------------------------


@dataclass(frozen=True)
class TraceDistribution:
    counts: Mapping[str, int]
    total: int

    def percentage(self, outcome: str) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.counts.get(outcome, 0) / self.total

    def to_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "counts": dict(self.counts),
            "percentages": {k: round(self.percentage(k), 1) for k in self.counts},
        }


# -- full report ----------------------------------------------------------------


@dataclass
class TypeBreakdown:
    n: int = 0
    completed: int = 0
    steps: int = 0
    blocked: int = 0
    violations: int = 0  # stage-gate blocks (illegal transitions)
    precondition_failures: int = 0
    violating_steps: int = 0
    scenarios_with_violation: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "tcr": None if self.n == 0 else self.completed / self.n,
            "cvr": None if self.steps == 0 else self.violating_steps / self.steps,
            "cvr_scenarios": None if self.n == 0 else self.scenarios_with_violation / self.n,
            "blocked": self.blocked,
            "violations": self.violations,
            "precondition_failures": self.precondition_failures,
        }


@dataclass
class EvalReport:
    n_scenarios: int
    n_messages: int
    tcr: float | None
    cvr: float | None
    sta: float | None
    trc: float | None
    blocking: BlockingMetrics
    distribution: TraceDistribution
    blocked_total: int
    blocked_stage_gate: int
    blocked_precondition: int
    per_type: dict[str, TypeBreakdown]
    toggles: DispatchToggles = FULL

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_scenarios": self.n_scenarios,
            "n_messages": self.n_messages,
            "tcr": self.tcr,
            "cvr": self.cvr,
            "sta": self.sta,
            "trc": self.trc,
            "blocked_total": self.blocked_total,
            "blocked_stage_gate": self.blocked_stage_gate,
            "blocked_precondition": self.blocked_precondition,
            "blocking": self.blocking.to_dict(),
            "trace_distribution": self.distribution.to_dict(),
            "per_type": {k: v.to_dict() for k, v in sorted(self.per_type.items())},
            "toggles": asdict(self.toggles),
        }

    def to_text(self) -> str:
        return render_report(self.to_dict())


def render_report(payload: Mapping[str, Any]) -> str:
    """Text form of a report payload: ``EvalReport.to_dict()`` or a read-back ``report.json``."""
    blocking = payload["blocking"]
    raw = payload["trace_distribution"]
    tally = TraceDistribution(dict.fromkeys(TALLY_ORDER, 0) | raw["counts"], raw["total"])
    lines = [
        f"scenarios: {payload['n_scenarios']}   messages: {payload['n_messages']}",
        f"TCR {_pct(payload['tcr'])}   CVR {_pct(payload['cvr'])}   "
        f"STA {_pct(payload['sta'])}   TRC {_pct(payload['trc'])}",
        f"blocked: {payload['blocked_total']} (stage-gate {payload['blocked_stage_gate']}, "
        f"precondition {payload['blocked_precondition']})",
        f"blocking: accuracy {_pct(blocking['accuracy'])}  precision {_pct(blocking['precision'])}  "
        f"recall {_pct(blocking['recall'])}  f1 {_pct(blocking['f1'])}",
        "trace distribution: "
        + "  ".join(f"{k}={v} ({tally.percentage(k):.1f}%)" for k, v in tally.counts.items()),
    ]
    lines += ["", f"{'type':<12}{'n':>5}{'TCR':>9}{'CVR':>9}{'Blk':>6}{'Vio':>6}{'PreF':>7}"]
    for name, row in sorted(payload["per_type"].items()):
        lines.append(
            f"{name:<12}{row['n']:>5}{_pct(row['tcr']):>9}{_pct(row['cvr']):>9}"
            f"{row['blocked']:>6}{row['violations']:>6}{row['precondition_failures']:>7}"
        )
    return "\n".join(lines)


def step_is_violation(event: ProcessEvent, bundle: DomainBundle) -> bool:
    """Whether a step's event is a stage-illegal attempt, blocked or not, or has a failed flag.

    A flag failure counts whether or not it was enforced: with the
    precondition check off the flags are still recorded, so CVR rises when
    either check is removed.
    """
    binding = bundle.automaton.binding.get(event.intent)
    if binding is not None and event.stage_before not in binding:
        return True
    for _, passed in event.precondition_results:
        if not passed:
            return True
    return False


def compute_report(run: RunResult, bundle: DomainBundle) -> EvalReport:
    """Populate every metric for one completed run in one walk over its steps.

    The scenario walk settles completion and keys each move of
    :func:`simulate_scenario` by ``(scenario_id, turn_index)``; one
    ``routed`` dict serves every scenario, so each distinct text is routed
    once per report.  Each step pops its key and fills every step-level
    number from its own message and event.  A step with no key to pop, a key
    no step popped, or a step whose outcome is not in ``TALLY_ORDER`` is an
    :class:`IntegrityFault` naming the key.
    """
    manager = run.manager
    per_type: dict[str, TypeBreakdown] = {}
    expected: dict[tuple[str, int], tuple[TypeBreakdown, tuple[str, str]]] = {}
    routed: dict[str, str] = {}
    goal_ids: list[str] = []
    for scenario in run.scenarios:
        row = per_type.setdefault(scenario.type, TypeBreakdown())
        row.n += 1
        # Completion: every track of the scenario ends at its expected stage.
        completed = True
        for track in scenario.tracks():
            gid = goal_id_for(scenario, track)
            goal_ids.append(gid)
            if manager.goal(gid).current_stage != scenario.expected_final_stage.get(track):
                completed = False
        row.completed += completed
        # State-transition accuracy is judged against the forward simulation.
        for msg, decision in zip(scenario.messages, simulate_scenario(bundle, scenario, routed)):
            expected[scenario.scenario_id, msg.turn_index] = (
                row, (decision.stage_before, decision.stage_after)
            )

    # Replayable-trace coverage: a step counts when its goal's log replays to
    # exactly the live state (``GoalState`` equality: ids, stage, business state
    # and last seq, not the lock).  Replays run apart from the simulations above:
    # interleaving the two made compute_report ~12% slower on the SGD suites.
    consistent: dict[str, bool] = {}
    if run.toggles.audit:
        consistent = {gid: manager.replay(gid) == manager.live(gid) for gid in goal_ids}

    counts = dict.fromkeys(TALLY_ORDER, 0)
    cells: Counter[tuple[bool, bool]] = Counter()  # (blocked, expected_legal) -> steps
    sta_hits = trc_steps = 0
    violating_ids: set[str] = set()
    for scenario, message, result in run.steps:
        event = result.event
        outcome = event.outcome
        scenario_id = scenario.scenario_id
        key = (scenario_id, message.turn_index)
        try:
            row, move = expected.pop(key)
        except KeyError:
            raise IntegrityFault(
                f"step {key} matches no label: its scenario is not in the run, or it repeats a step"
            ) from None
        try:
            counts[outcome] += 1
        except KeyError:
            raise IntegrityFault(f"step {key} has outcome {outcome!r}, which no tally holds") from None
        row.steps += 1
        sta_hits += move == (event.stage_before, event.stage_after)
        trc_steps += consistent.get(event.goal_id, False)
        blocked = outcome in BLOCK_OUTCOMES
        cells[blocked, message.expected_legal] += 1
        if blocked:
            row.blocked += 1
            if outcome == "ILLEGAL_TRANSITION":
                row.violations += 1
            else:
                row.precondition_failures += 1
        if step_is_violation(event, bundle):
            row.violating_steps += 1
            if scenario_id not in violating_ids:
                violating_ids.add(scenario_id)
                row.scenarios_with_violation += 1
    if expected:
        raise IntegrityFault(
            f"{len(expected)} labelled message(s) have no step, first {next(iter(expected))}"
        )

    total = len(run.steps)
    rows = per_type.values()
    return EvalReport(
        n_scenarios=len(run.scenarios),
        n_messages=total,
        tcr=None if not run.scenarios else sum(r.completed for r in rows) / len(run.scenarios),
        cvr=None if total == 0 else sum(r.violating_steps for r in rows) / total,
        sta=None if total == 0 else sta_hits / total,
        trc=None if total == 0 else trc_steps / total,
        blocking=blocking_metrics(
            Confusion(
                tp=cells[True, False], fp=cells[True, True], fn=cells[False, False], tn=cells[False, True]
            )
        ),
        distribution=TraceDistribution(counts=counts, total=total),
        blocked_total=sum(r.blocked for r in rows),
        blocked_stage_gate=sum(r.violations for r in rows),
        blocked_precondition=sum(r.precondition_failures for r in rows),
        per_type=per_type,
        toggles=run.toggles,
    )

# -- ablation comparison -----------------------------------------------------------


ABLATION_CONFIGS: tuple[tuple[str, DispatchToggles], ...] = (
    ("full", DispatchToggles()),
    ("no_stage_check", DispatchToggles(stage_check=False)),
    ("no_precondition", DispatchToggles(precondition_check=False)),
    ("no_audit", DispatchToggles(audit=False)),
)


@dataclass
class ConfigComparison:
    reports: dict[str, EvalReport]
    baseline: str = "full"

    def deltas(self) -> dict[str, dict[str, float | None]]:
        base = self.reports[self.baseline]
        out: dict[str, dict[str, float | None]] = {}
        for name, report in self.reports.items():
            row: dict[str, float | None] = {"blocked_total": report.blocked_total - base.blocked_total}
            for key in ("cvr", "tcr", "trc"):
                value, ref = getattr(report, key), getattr(base, key)
                row[key] = None if value is None or ref is None else value - ref
            out[name] = row
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "baseline": self.baseline,
            "reports": {name: report.to_dict() for name, report in self.reports.items()},
            "deltas": self.deltas(),
        }

    def to_text(self) -> str:
        lines = [f"{'config':<18}{'TCR':>9}{'CVR':>9}{'TRC':>9}{'Blk':>6}"]
        for name, report in self.reports.items():
            lines.append(
                f"{name:<18}{_pct(report.tcr):>9}{_pct(report.cvr):>9}"
                f"{_pct(report.trc):>9}{report.blocked_total:>6}"
            )
        return "\n".join(lines)


def compare_configs(
    bundle: DomainBundle,
    scenarios: Sequence[Scenario],
    configs: Sequence[tuple[str, DispatchToggles]] = ABLATION_CONFIGS,
) -> ConfigComparison:
    """Run the same suite under each toggle set and report side by side."""
    reports: dict[str, EvalReport] = {}
    for name, toggles in configs:
        run = run_suite(bundle, scenarios, toggles=toggles)
        reports[name] = compute_report(run, bundle)
    baseline = configs[0][0]
    return ConfigComparison(reports=reports, baseline=baseline)
