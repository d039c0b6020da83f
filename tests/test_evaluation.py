from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagegate import scenarios
from stagegate.dispatcher import DispatchToggles
from stagegate.errors import IntegrityFault
from stagegate.evaluation import (
    ABLATION_CONFIGS,
    blocking_metrics,
    compare_configs,
    comparison_text,
    compute_report,
)
from stagegate.router import identify
from stagegate.runner import run_suite
from stagegate.scenarios import load_domain, load_suite
from stagegate.suites import sgd_domain_dir, sgd_suite_path


def test_paper_shaped_confusion_reproduces_reported_metrics():
    metrics = blocking_metrics(tp=22, fp=0, fn=3, tn=857)
    assert round(100 * metrics["accuracy"], 1) == 99.7
    assert round(100 * metrics["precision"], 1) == 100.0
    assert round(100 * metrics["recall"], 1) == 88.0
    assert round(100 * metrics["f1"], 1) == 93.6


def test_empty_positive_conventions():
    metrics = blocking_metrics(tp=0, fp=0, fn=0, tn=50)
    assert metrics["precision"] == 1.0
    assert metrics["recall"] == 1.0
    assert metrics["accuracy"] == 1.0
    empty = blocking_metrics(0, 0, 0, 0)
    assert empty["accuracy"] is None
    assert empty["precision"] == 1.0 and empty["recall"] == 1.0


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans()),  # (blocked, expected_legal)
        max_size=60,
    )
)
def test_confusion_matches_bruteforce_counter(pairs):
    tally = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for blocked, legal in pairs:
        if blocked and not legal:
            tally["tp"] += 1
        elif blocked and legal:
            tally["fp"] += 1
        elif not blocked and not legal:
            tally["fn"] += 1
        else:
            tally["tn"] += 1
    metrics = blocking_metrics(**tally)
    assert sum(metrics["confusion"].values()) == len(pairs)
    if tally["tp"] + tally["fp"]:
        assert metrics["precision"] == tally["tp"] / (tally["tp"] + tally["fp"])
    else:
        assert metrics["precision"] == 1.0


def test_report_blocking_on_shipped_run(hr_report):
    assert hr_report.blocking["confusion"] == {"tp": 22, "fp": 0, "fn": 3, "tn": 857}


# case -> (the run with one step/label join broken, the key the fault must name)
UNALIGNED = {
    "step-without-scenario": (
        lambda run: replace(run, scenarios=run.scenarios[1:]), "normal-001', 0"),
    "duplicated-step": (
        lambda run: replace(run, steps=run.steps + run.steps[-1:]), "concurrent-030', 2"),
    "label-without-step": (
        lambda run: replace(run, steps=run.steps[:-1]), "concurrent-030', 2"),
}


@pytest.mark.parametrize("case", sorted(UNALIGNED))
def test_report_rejects_unaligned_steps_and_labels(case, hr_run, hr_bundle):
    """Every step pops its own label exactly once; a miss either way names its key."""
    breaker, key = UNALIGNED[case]
    with pytest.raises(IntegrityFault, match=key):
        compute_report(breaker(hr_run), hr_bundle)


def test_report_refuses_an_outcome_outside_the_tally(hr_run, hr_bundle):
    """An outcome that is not in ``TALLY_ORDER`` is a broken run, not a fifth column."""
    step = hr_run.steps[0]
    bogus = step._replace(result=step.result._replace(event=step.event._replace(outcome="BOGUS")))
    refusal = r"^step \('normal-001', 0\) has outcome 'BOGUS', which no tally holds$"
    with pytest.raises(IntegrityFault, match=refusal):
        compute_report(replace(hr_run, steps=[bogus, *hr_run.steps[1:]]), hr_bundle)


def test_renamed_scenarios_report_as_the_originals(hr_bundle, hr_suite, hr_report):
    """A step joins its label through the scenario it holds, so a renamed scenario's steps still match."""
    renamed = [replace(s, scenario_id=s.scenario_id + "-copy") for s in hr_suite]
    report = compute_report(run_suite(hr_bundle, renamed), hr_bundle)
    assert report.to_dict() == hr_report.to_dict()


def test_report_distribution_matches_recount(hr_run, hr_report):
    distribution = hr_report.distribution
    recount = Counter(step.outcome for step in hr_run.steps)
    for outcome, count in recount.items():
        assert distribution.counts[outcome] == count
    assert distribution.total == len(hr_run.steps)
    total_pct = sum(distribution.percentage(k) for k in distribution.counts)
    assert abs(total_pct - 100.0) < 0.2


def test_report_fields_on_shipped_suite(hr_report):
    assert hr_report.n_scenarios == 185
    assert hr_report.n_messages == 882
    assert hr_report.blocked_total == 22
    assert hr_report.blocked_stage_gate == 16
    assert hr_report.blocked_precondition == 6
    assert hr_report.trc == 1.0
    assert hr_report.tcr == 1.0
    assert round(100 * hr_report.cvr, 1) == 2.5
    illegal = hr_report.per_type["illegal"]
    assert illegal["n"] == 25
    assert illegal["blocked"] == 22
    assert illegal["violations"] == 16
    assert illegal["precondition_failures"] == 6
    for name in ("normal", "rollback", "multi", "abort", "concurrent"):
        assert hr_report.per_type[name]["blocked"] == 0


def test_report_six_type_keys_for_hr(hr_report):
    assert set(hr_report.per_type) == {"normal", "illegal", "rollback", "multi", "abort", "concurrent"}


def test_report_two_type_keys_for_sgd():
    bundle = load_domain(sgd_domain_dir("Banks_1"))
    suite = load_suite(sgd_suite_path("Banks_1"), bundle)
    run = run_suite(bundle, suite)
    report = compute_report(run, bundle)
    assert set(report.per_type) == {"normal", "illegal"}


def test_per_type_blocked_sums_to_total(hr_report):
    assert sum(row["blocked"] for row in hr_report.per_type.values()) == hr_report.blocked_total


def test_empty_suite_report_uses_conventions(hr_bundle):
    run = run_suite(hr_bundle, [])
    report = compute_report(run, hr_bundle)
    assert report.n_scenarios == 0 and report.n_messages == 0
    assert report.tcr is None and report.cvr is None and report.sta is None and report.trc is None
    assert report.blocking["precision"] == 1.0 and report.blocking["recall"] == 1.0
    assert report.blocking["accuracy"] is None


def test_tcr_counts_the_scenarios_a_failing_executor_leaves_incomplete(hr_bundle, hr_suite):
    """The closing skill fails, so a track meant to close stops short; recounted from the steps."""
    run = run_suite(hr_bundle, hr_suite, fail_ids=["close_process"])
    report = compute_report(run, hr_bundle)
    final = {step.goal_id: step.event.stage_after for step in run.steps}
    complete: Counter[str] = Counter()
    for scenario in hr_suite:
        complete[scenario.type] += all(
            final[f"{scenario.scenario_id}-t{track}"] == stage
            for track, stage in scenario.expected_final_stage.items()
        )
    assert 0 < sum(complete.values()) < len(hr_suite)
    assert report.tcr == sum(complete.values()) / len(hr_suite) < 1
    for name, row in report.per_type.items():
        assert row["tcr"] == complete[name] / row["n"], name  # tcr is the type's completed / n


def test_audit_off_zeroes_trc_only(hr_bundle, hr_suite, hr_report):
    run = run_suite(hr_bundle, hr_suite, toggles=DispatchToggles(audit=False))
    report = compute_report(run, hr_bundle)
    assert report.trc == 0.0
    assert report.blocked_total == hr_report.blocked_total
    assert report.cvr == hr_report.cvr
    assert report.tcr == hr_report.tcr
    assert dict(report.distribution.counts) == dict(hr_report.distribution.counts)


def test_ablation_directions_on_shipped_suite(hr_bundle, hr_suite):
    comparison = compare_configs(hr_bundle, hr_suite, ABLATION_CONFIGS)
    full = comparison["reports"]["full"]
    no_stage = comparison["reports"]["no_stage_check"]
    no_pre = comparison["reports"]["no_precondition"]
    no_audit = comparison["reports"]["no_audit"]

    assert no_stage["blocked_total"] > full["blocked_total"]
    assert no_stage["cvr"] > full["cvr"]
    assert no_pre["blocked_total"] <= full["blocked_total"]
    assert no_audit["trc"] == 0.0
    assert no_audit["blocked_total"] == full["blocked_total"]
    assert no_audit["trace_distribution"]["counts"] == full["trace_distribution"]["counts"]

    deltas = comparison["deltas"]
    assert deltas["full"]["blocked_total"] == 0
    assert deltas["full"]["cvr"] == 0.0


def test_identical_configs_produce_identical_reports(hr_bundle, hr_suite):
    twice = compare_configs(hr_bundle, hr_suite, (("a", DispatchToggles()), ("b", DispatchToggles())))
    a = twice["reports"]["a"]
    b = twice["reports"]["b"]
    a.pop("toggles"), b.pop("toggles")
    assert a == b


def test_an_empty_ablation_has_null_rate_deltas(hr_bundle):
    """With no scenarios every rate is null, so every rate delta is too, and the table prints n/a."""
    comparison = compare_configs(hr_bundle, [])
    names = [name for name, _ in ABLATION_CONFIGS]
    assert comparison["baseline"] == "full"
    assert list(comparison["reports"]) == names
    assert comparison["deltas"] == {
        name: {"blocked_total": 0, "cvr": None, "tcr": None, "trc": None} for name in names
    }
    assert comparison_text(comparison).splitlines() == [
        "config                  TCR      CVR      TRC   Blk",
        *(f"{name:<18}      n/a      n/a      n/a     0" for name in names),
    ]


def test_report_text_rendering_mentions_key_numbers(hr_report):
    text = hr_report.to_text()
    assert "blocked: 22 (stage-gate 16, precondition 6)" in text
    assert "precision 100.0%" in text
    assert "recall 88.0%" in text


def test_all_success_run_has_clean_distribution(hr_bundle, hr_suite):
    aborts = [s for s in hr_suite if s.type == "abort"]
    run = run_suite(hr_bundle, aborts)
    distribution = compute_report(run, hr_bundle).distribution
    assert distribution.counts == {
        "SUCCESS": len(aborts),
        "ILLEGAL_TRANSITION": 0,
        "PRECONDITION_FAIL": 0,
        "SKILL_NOT_FOUND": 0,
    }


def test_stage_changes_trace_back_to_success_events(hr_run):
    """Every stage change in a goal's log belongs to exactly one SUCCESS event."""
    for gid in hr_run.manager.goal_ids():
        events = hr_run.manager.store.events_for(gid)
        stage = None
        for event in events:
            if stage is not None:
                assert event.stage_before == stage
            if event.stage_after != event.stage_before:
                assert event.outcome == "SUCCESS"
            stage = event.stage_after
        if events:
            assert hr_run.manager.goal(gid).current_stage == stage


def test_compute_report_routes_each_distinct_text_once_per_call(hr_run, hr_bundle, monkeypatch):
    """The simulation's routing memo lives for one call: each call routes every text once."""
    routed: list[str] = []

    def counting(text, table, fallback=None):
        routed.append(text)
        return identify(text, table, fallback)

    monkeypatch.setattr(scenarios, "identify", counting)
    unlabeled = sorted({m.text for s in hr_run.scenarios for m in s.messages if not m.label_intent})
    assert 0 < len(unlabeled) < len(hr_run.steps)
    compute_report(hr_run, hr_bundle)
    assert sorted(routed) == unlabeled
    compute_report(hr_run, hr_bundle)
    assert sorted(routed) == sorted(unlabeled * 2)
