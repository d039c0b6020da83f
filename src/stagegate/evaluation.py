"""Governance metrics over completed runs: rates, confusion, comparisons.

Each part of a report is the JSON it is written as: ``blocking``, the ``per_type``
rows and the ``ablation.json`` object are plain dicts, and the text forms read them.

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

from .dispatcher import BLOCK_OUTCOMES, DispatchToggles
from .errors import IntegrityFault
from .memory import ProcessEvent
from .runner import RunResult, goal_id_for, run_suite
from .scenarios import DomainBundle, Scenario, simulate_scenario

TALLY_ORDER = ("SUCCESS", "ILLEGAL_TRANSITION", "PRECONDITION_FAIL", "SKILL_NOT_FOUND")
# One scenario type's counts; "violations" are its stage-gate blocks (illegal transitions).
_TYPE_TALLY = ("n", "completed", "steps", "blocked", "violations", "precondition_failures",
               "violating_steps", "scenarios_with_violation")


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


# -- confusion arithmetic -----------------------------------------------------


def blocking_metrics(tp: int, fp: int, fn: int, tn: int) -> dict[str, Any]:
    """``report.json``'s ``blocking`` object, with the empty-denominator conventions pinned.

    precision = 1.0 when tp+fp = 0, recall = 1.0 when tp+fn = 0, f1 = 0 when
    precision+recall = 0, accuracy undefined (None) on an empty matrix.
    """
    total = tp + fp + fn + tn
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return {
        "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        "accuracy": None if total == 0 else (tp + tn) / total,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


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
class EvalReport:
    n_scenarios: int
    n_messages: int
    tcr: float | None
    cvr: float | None
    sta: float | None
    trc: float | None
    blocking: dict[str, Any]
    distribution: TraceDistribution
    blocked_total: int
    blocked_stage_gate: int
    blocked_precondition: int
    per_type: dict[str, dict[str, Any]]
    toggles: DispatchToggles

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
            "blocking": self.blocking,
            "trace_distribution": self.distribution.to_dict(),
            "per_type": self.per_type,
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
    tallies = {name: dict.fromkeys(_TYPE_TALLY, 0) for name in sorted({s.type for s in run.scenarios})}
    expected: dict[tuple[str, int], tuple[dict[str, int], tuple[str, str]]] = {}
    routed: dict[str, str] = {}
    goal_ids: list[str] = []
    for scenario in run.scenarios:
        tally = tallies[scenario.type]
        tally["n"] += 1
        # Completion: every track of the scenario ends at its expected stage.
        completed = True
        for track in scenario.tracks():
            gid = goal_id_for(scenario, track)
            goal_ids.append(gid)
            if manager.goal(gid).current_stage != scenario.expected_final_stage.get(track):
                completed = False
        tally["completed"] += completed
        # State-transition accuracy is judged against the forward simulation.
        for msg, decision in zip(scenario.messages, simulate_scenario(bundle, scenario, routed)):
            expected[scenario.scenario_id, msg.turn_index] = (
                tally, (decision.stage_before, decision.stage_after)
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
            tally, move = expected.pop(key)
        except KeyError:
            raise IntegrityFault(
                f"step {key} matches no label: its scenario is not in the run, or it repeats a step"
            ) from None
        try:
            counts[outcome] += 1
        except KeyError:
            raise IntegrityFault(f"step {key} has outcome {outcome!r}, which no tally holds") from None
        tally["steps"] += 1
        sta_hits += move == (event.stage_before, event.stage_after)
        trc_steps += consistent.get(event.goal_id, False)
        blocked = outcome in BLOCK_OUTCOMES
        cells[blocked, message.expected_legal] += 1
        if blocked:
            tally["blocked"] += 1
            tally["violations" if outcome == "ILLEGAL_TRANSITION" else "precondition_failures"] += 1
        if step_is_violation(event, bundle):
            tally["violating_steps"] += 1
            if scenario_id not in violating_ids:
                violating_ids.add(scenario_id)
                tally["scenarios_with_violation"] += 1
    if expected:
        raise IntegrityFault(
            f"{len(expected)} labelled message(s) have no step, first {next(iter(expected))}"
        )

    total = len(run.steps)
    sums = {key: sum(t[key] for t in tallies.values()) for key in _TYPE_TALLY}
    return EvalReport(
        n_scenarios=len(run.scenarios),
        n_messages=total,
        tcr=None if not run.scenarios else sums["completed"] / len(run.scenarios),
        cvr=None if total == 0 else sums["violating_steps"] / total,
        sta=None if total == 0 else sta_hits / total,
        trc=None if total == 0 else trc_steps / total,
        blocking=blocking_metrics(
            tp=cells[True, False], fp=cells[True, True], fn=cells[False, False], tn=cells[False, True]
        ),
        distribution=TraceDistribution(counts=counts, total=total),
        blocked_total=sums["blocked"],
        blocked_stage_gate=sums["violations"],
        blocked_precondition=sums["precondition_failures"],
        per_type={  # a type has a tally only if a scenario has it, so n >= 1
            name: {
                "n": t["n"],
                "tcr": t["completed"] / t["n"],
                "cvr": None if t["steps"] == 0 else t["violating_steps"] / t["steps"],
                "cvr_scenarios": t["scenarios_with_violation"] / t["n"],
                "blocked": t["blocked"],
                "violations": t["violations"],
                "precondition_failures": t["precondition_failures"],
            }
            for name, t in tallies.items()
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


def compare_configs(
    bundle: DomainBundle,
    scenarios: Sequence[Scenario],
    configs: Sequence[tuple[str, DispatchToggles]] = ABLATION_CONFIGS,
) -> dict[str, Any]:
    """Run the same suite under each toggle set: the ``ablation.json`` object.

    ``reports`` holds each configuration's ``report.json`` object by name; each
    ``deltas`` entry is its report minus the first one's, null where a rate is.
    """
    reports = {
        name: compute_report(run_suite(bundle, scenarios, toggles=toggles), bundle).to_dict()
        for name, toggles in configs
    }
    baseline = configs[0][0]
    base = reports[baseline]
    deltas = {
        name: {
            key: None if report[key] is None or base[key] is None else report[key] - base[key]
            for key in ("blocked_total", "cvr", "tcr", "trc")
        }
        for name, report in reports.items()
    }
    return {"baseline": baseline, "reports": reports, "deltas": deltas}


def comparison_text(payload: Mapping[str, Any]) -> str:
    """Text form of an ablation payload: ``compare_configs``' object or a read-back ``ablation.json``."""
    lines = [f"{'config':<18}{'TCR':>9}{'CVR':>9}{'TRC':>9}{'Blk':>6}"]
    for name, report in payload["reports"].items():
        lines.append(
            f"{name:<18}{_pct(report['tcr']):>9}{_pct(report['cvr']):>9}"
            f"{_pct(report['trc']):>9}{report['blocked_total']:>6}"
        )
    return "\n".join(lines)
