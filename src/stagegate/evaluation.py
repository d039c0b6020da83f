"""Governance metrics over completed runs: rates, confusion, comparisons.

All computations are pure functions of step records and scenario metadata;
each step is read through its event.  The blocking confusion treats
ILLEGAL_TRANSITION and PRECONDITION_FAIL as blocks; a routing miss
(SKILL_NOT_FOUND) is not a governance block.  A step counts as violating
when its intent is stage-illegal at the goal's stage, blocked or not, or
when any of its skill's flags failed, enforced or not; so CVR rises when
either the stage gate or the precondition check is removed.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Mapping, Sequence

from .dispatcher import BLOCK_OUTCOMES, FULL, DispatchToggles
from .errors import IntegrityFault
from .memory import ProcessEvent
from .runner import RunResult, StepRecord, goal_id_for, run_suite
from .scenarios import DomainBundle, LabeledMessage, Scenario, simulate_scenario

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


def compute_blocking(
    steps: Sequence[StepRecord], labels: Sequence[LabeledMessage]
) -> BlockingMetrics:
    """Message-level blocking correctness against ground-truth labels.

    Steps and labels align by (scenario_id, turn_index); any key present on
    one side only is an integrity fault listing the unmatched keys.
    """
    outcomes = {(m.scenario_id, m.turn_index): r.event.outcome for _, m, r in steps}
    expected = {(m.scenario_id, m.turn_index): m.expected_legal for m in labels}
    unmatched = sorted(set(outcomes) ^ set(expected))
    if unmatched:
        raise IntegrityFault(f"unaligned steps/labels, first unmatched keys: {unmatched[:5]}")
    tp = fp = fn = tn = 0
    for key, outcome in outcomes.items():
        blocked = outcome in BLOCK_OUTCOMES
        legal = expected[key]
        if blocked and not legal:
            tp += 1
        elif blocked and legal:
            fp += 1
        elif not blocked and not legal:
            fn += 1
        else:
            tn += 1
    return blocking_metrics(Confusion(tp, fp, fn, tn))


# -- trace grading ------------------------------------------------------------


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


def grade_traces(events: Iterable[ProcessEvent]) -> TraceDistribution:
    """Per-step outcome tally over events."""
    counts = dict.fromkeys(TALLY_ORDER, 0)
    total = 0
    for event in events:
        counts[event.outcome] = counts.get(event.outcome, 0) + 1
        total += 1
    return TraceDistribution(counts=counts, total=total)


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
    latency_ms: dict[str, float]
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
            "latency_ms": self.latency_ms,
            "toggles": asdict(self.toggles),
        }

    def to_text(self) -> str:
        return render_report(self.to_dict())


def render_report(payload: Mapping[str, Any]) -> str:
    """Text form of a report payload: ``EvalReport.to_dict()`` or a read-back ``report.json``.

    The latency line appears only when the payload carries ``latency_ms``;
    ``report.json`` does not, since wall-clock data stays out of it.
    """
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
    latency = payload.get("latency_ms")
    if latency is not None:
        lines.append(
            f"latency: gate {latency.get('gate', 0.0):.3f} ms"
            f"  route {latency.get('route', 0.0):.3f} ms"
            f"  executor {latency.get('executor', 0.0):.3f} ms (medians)"
        )
    lines += ["", f"{'type':<12}{'n':>5}{'TCR':>9}{'CVR':>9}{'Blk':>6}{'Vio':>6}{'PreF':>7}"]
    for name, row in sorted(payload["per_type"].items()):
        lines.append(
            f"{name:<12}{row['n']:>5}{_pct(row['tcr']):>9}{_pct(row['cvr']):>9}"
            f"{row['blocked']:>6}{row['violations']:>6}{row['precondition_failures']:>7}"
        )
    return "\n".join(lines)


def _median_ms(samples: list[int]) -> float:
    if not samples:
        return 0.0
    return statistics.median(samples) / 1e6


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
    """Populate every metric for one completed run.

    One walk over the scenarios settles completion and the expected stage
    moves, one over their goals the replay consistency, and one over the
    steps fills the per-type rows; the run totals are summed from the rows.
    The expected moves come from :func:`simulate_scenario`, called once per
    scenario with one ``routed`` dict for the whole call, so each distinct
    text is routed once per report; the dict is dropped on return.
    """
    steps = run.steps
    total = len(steps)
    manager = run.manager
    per_type: dict[str, TypeBreakdown] = {}
    row_of: dict[str, TypeBreakdown] = {}
    expected_moves: dict[str, dict[int, tuple[str, str]]] = {}
    routed: dict[str, str] = {}
    goal_ids: list[str] = []
    for scenario in run.scenarios:
        row = row_of[scenario.scenario_id] = per_type.setdefault(scenario.type, TypeBreakdown())
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
        expected_moves[scenario.scenario_id] = {
            s.turn_index: (s.stage_before, s.stage_after)
            for s in simulate_scenario(bundle, scenario, routed)
        }

    # Replayable-trace coverage: a step counts when its goal's log replays to
    # exactly the live state.  Replays run apart from the simulations above:
    # interleaving the two made compute_report ~12% slower on the SGD suites.
    consistent: dict[str, bool] = {}
    if run.toggles.audit:
        consistent = {
            gid: manager.replay(gid).state() == manager.live(gid).state() for gid in goal_ids
        }

    sta_hits = trc_steps = 0
    violating_ids: set[str] = set()
    timing_ns: dict[str, list[int]] = {}
    events: list[ProcessEvent] = []
    for goal_id, message, result in steps:
        event = result.event
        events.append(event)
        outcome = event.outcome
        scenario_id = message.scenario_id
        row = row_of[scenario_id]
        row.steps += 1
        moved = (event.stage_before, event.stage_after)
        sta_hits += expected_moves[scenario_id].get(message.turn_index) == moved
        trc_steps += consistent.get(goal_id, False)
        if outcome in BLOCK_OUTCOMES:
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
        for key, ns in result.detail["timing_ns"].items():
            timing_ns.setdefault(key, []).append(ns)

    rows = per_type.values()
    return EvalReport(
        n_scenarios=len(run.scenarios),
        n_messages=total,
        tcr=None if not run.scenarios else sum(r.completed for r in rows) / len(run.scenarios),
        cvr=None if total == 0 else sum(r.violating_steps for r in rows) / total,
        sta=None if total == 0 else sta_hits / total,
        trc=None if total == 0 else trc_steps / total,
        blocking=compute_blocking(steps, run.labels()),
        distribution=grade_traces(events),
        blocked_total=sum(r.blocked for r in rows),
        blocked_stage_gate=sum(r.violations for r in rows),
        blocked_precondition=sum(r.precondition_failures for r in rows),
        per_type=per_type,
        latency_ms={
            name: round(_median_ms(timing_ns.get(f"{name}_ns", [])), 6)
            for name in ("gate", "route", "executor")
        },
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
