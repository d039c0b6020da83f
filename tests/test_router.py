from __future__ import annotations

import time

from stagegate.automaton import automaton_from_dict
from stagegate.context import DispatchContext
from stagegate.router import (
    UNKNOWN,
    MatchExpr,
    identify,
    normalize,
    table_from_list,
    validate_table,
)

CTX = DispatchContext(goal_id="g")


def _table(*entries):
    return table_from_list(list(entries))


def test_normalization_rules():
    assert normalize("  Schedule   INTERVIEW!!  ") == "schedule interview"
    assert normalize("Check balance.") == "check balance"
    assert normalize("") == ""


def test_exact_substring_and_token_kinds():
    assert MatchExpr.parse("=hello there").kind == "exact"
    assert MatchExpr.parse("&pull candidates").kind == "tokens"
    assert MatchExpr.parse("plain phrase").kind == "substring"
    assert MatchExpr.parse("&screen resumes").matches("please screen all the resumes now") is True
    assert MatchExpr.parse("&screen resumes").matches("resumes to screen") is True
    assert MatchExpr.parse("&screen resumes").matches("screen the shortlist") is False
    assert MatchExpr.parse("=status").matches("status") is True
    assert MatchExpr.parse("=status").matches("job status") is False


def test_pattern_hit_has_full_confidence():
    table = _table({"intent": "schedule_interview", "patterns": ["schedule interview"]})
    decision = identify("Schedule interview", CTX, table)
    assert decision.intent == "schedule_interview"
    assert decision.mode == "pattern"
    assert decision.confidence == 1.0
    assert decision.matched_pattern == "schedule interview"


def test_empty_message_is_unknown():
    table = _table({"intent": "a", "patterns": ["x"]})
    assert identify("", CTX, table).intent == UNKNOWN
    assert identify("   !!! ", CTX, table).intent == UNKNOWN


def test_longer_match_wins_within_priority():
    table = _table(
        {"intent": "screen_resume", "patterns": ["screen resumes"]},
        {"intent": "rescreen", "patterns": ["re-screen resumes"]},
    )
    assert identify("re-screen resumes", CTX, table).intent == "rescreen"
    assert identify("screen resumes", CTX, table).intent == "screen_resume"


def test_priority_beats_length():
    table = _table(
        {"intent": "low", "patterns": ["a much longer pattern text"], "priority": 0},
        {"intent": "high", "patterns": ["pattern"], "priority": 5},
    )
    assert identify("a much longer pattern text", CTX, table).intent == "high"


def test_equal_priority_equal_length_breaks_lexicographically():
    table = _table(
        {"intent": "b_intent", "patterns": ["bbb"], "priority": 0},
        {"intent": "a_intent", "patterns": ["aaa"], "priority": 0},
    )
    assert identify("aaa bbb", CTX, table).intent == "a_intent"


def test_identify_is_deterministic(hr_bundle):
    messages = ["schedule interview", "pull candidates", "close the process", "no match here"]
    first = [identify(m, CTX, hr_bundle.table, hr_bundle.fallback) for m in messages]
    second = [identify(m, CTX, hr_bundle.table, hr_bundle.fallback) for m in messages]
    assert first == second


def test_fallback_consulted_only_on_miss(hr_bundle):
    hits = [
        identify("schedule interview", CTX, hr_bundle.table, None),
        identify("schedule interview", CTX, hr_bundle.table, hr_bundle.fallback),
    ]
    assert hits[0] == hits[1]  # disabling the fallback never changes a pattern hit


def test_fallback_resolves_close_phrasings(hr_bundle):
    decision = identify("screen resumes please", CTX, hr_bundle.table, hr_bundle.fallback)
    # pattern mode: "screen resumes" is a substring hit
    assert decision.mode == "pattern"
    fuzzy = identify("candidates screen", CTX, hr_bundle.table, hr_bundle.fallback)
    assert fuzzy.mode == "fallback"
    assert fuzzy.intent == "screen_resume"
    assert 0.6 <= fuzzy.confidence <= 1.0


def test_fallback_fault_degrades_to_unknown():
    def broken(message, ctx):
        raise RuntimeError("resolver down")

    table = _table({"intent": "a", "patterns": ["something else"]})
    decision = identify("unmatched text", CTX, table, broken)
    assert decision.intent == UNKNOWN
    assert decision.error is not None and "resolver down" in decision.error


def test_validate_table_reports_ambiguity_and_foreign_intents():
    table = _table(
        {"intent": "a", "patterns": ["same text"], "priority": 1},
        {"intent": "b", "patterns": ["same text"], "priority": 1},
    )
    report = validate_table(table)
    assert any(e.code == "ambiguous_pattern" for e in report.entries)

    auto = automaton_from_dict(
        {
            "stages": ["s"],
            "initial": "s",
            "transitions": [],
            "intents": ["a"],
            "binding": {"a": ["s"]},
            "stage_map": {"a": None},
        },
        name="t",
    )
    report = validate_table(_table({"intent": "ghost", "patterns": ["x"]}), auto)
    assert any(e.code == "unknown_intent" for e in report.entries)


def test_shipped_hr_table_validates_clean(hr_bundle):
    assert validate_table(hr_bundle.table, hr_bundle.automaton).empty


def test_pattern_mode_agreement_over_shipped_suite(hr_bundle, hr_suite):
    """Pattern-mode decisions match a brute-force scan on >= 97.5% of messages."""
    flat = []
    for entry in hr_bundle.table:
        for expr in entry.patterns:
            flat.append((entry.priority, expr, entry.intent))

    def brute_force(text):
        candidates = []
        norm = normalize(text)
        for priority, expr, intent in flat:
            if expr.matches(norm):
                candidates.append((-priority, -len(expr.text), expr.text, intent))
        return min(candidates)[3] if candidates else UNKNOWN

    total = 0
    pattern_hits = 0
    for scenario in hr_suite:
        for message in scenario.messages:
            total += 1
            decision = identify(message.text, CTX, hr_bundle.table)
            if decision.mode == "pattern":
                pattern_hits += 1
                assert decision.intent == brute_force(message.text)
    assert total == 882
    assert pattern_hits / total >= 0.975


def test_identify_latency_under_one_ms(hr_bundle):
    # Warm up, then check the median of single identifies over a 100-pattern table.
    table = list(hr_bundle.table)
    extra = [
        {"intent": "ask_missing", "patterns": [f"filler pattern number {i}"], "priority": 0}
        for i in range(100 - sum(len(e.patterns) for e in table))
    ]
    big = tuple(table) + table_from_list(extra)
    for _ in range(10):
        identify("schedule interview", CTX, big)
    samples = []
    for _ in range(200):
        start = time.perf_counter_ns()
        identify("schedule the interview for the shortlisted candidate", CTX, big)
        samples.append(time.perf_counter_ns() - start)
    samples.sort()
    median_ms = samples[len(samples) // 2] / 1e6
    assert median_ms < 1.0, f"median identify latency {median_ms:.3f} ms"
