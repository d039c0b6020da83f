from __future__ import annotations

import time
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagegate.automaton import automaton_from_dict
from stagegate.errors import ConfigError
from stagegate.router import (
    FALLBACK_THRESHOLD,
    UNKNOWN,
    MatchExpr,
    RoutingDecision,
    TokenOverlapFallback,
    identify,
    normalize,
    table_from_list,
    validate_table,
)
from stagegate.scenarios import load_domain, load_suite, read_json
from stagegate.suites import SGD_DOMAINS, hr_domain_dir, sgd_domain_dir, sgd_suite_path

from reference import paraphrased


def _table(*entries):
    return table_from_list(list(entries))


def test_normalization_rules():
    assert normalize("  Schedule   INTERVIEW!!  ") == "schedule interview"
    assert normalize("Check balance.") == "check balance"
    assert normalize("") == ""


def test_a_leading_equals_or_ampersand_is_pattern_text():
    assert MatchExpr.parse("=status").text == "=status"
    assert MatchExpr.parse("&Screen  Resumes").text == "&screen resumes"
    assert MatchExpr.parse("plain phrase").matches("a plain phrase here") is True
    assert MatchExpr.parse("=status").matches("status") is False
    assert MatchExpr.parse("=status").matches("job =status now") is True
    assert MatchExpr.parse("&screen resumes").matches("please screen all the resumes now") is False
    assert MatchExpr.parse("&screen resumes").matches("resumes to screen") is False
    table = _table(
        {"intent": "exact", "patterns": ["=status"]},
        {"intent": "tokens", "patterns": ["&screen resumes"]},
    )
    assert identify("status", table).intent == UNKNOWN
    assert identify("job status", table).intent == UNKNOWN
    assert identify("screen the resumes", table).intent == UNKNOWN
    assert identify("Show =STATUS!", table).intent == "exact"
    assert identify("then &screen resumes", table).intent == "tokens"


def test_pattern_hit_names_its_pattern():
    table = _table({"intent": "schedule_interview", "patterns": ["schedule interview"]})
    decision = identify("Schedule interview", table)
    assert decision.intent == "schedule_interview"
    assert decision.mode == "pattern"
    assert decision.matched_pattern == "schedule interview"


def test_empty_message_is_unknown():
    table = _table({"intent": "a", "patterns": ["x"]})
    assert identify("", table).intent == UNKNOWN
    assert identify("   !!! ", table).intent == UNKNOWN


def test_longer_match_wins_within_priority():
    table = _table(
        {"intent": "screen_resume", "patterns": ["screen resumes"]},
        {"intent": "rescreen", "patterns": ["re-screen resumes"]},
    )
    assert identify("re-screen resumes", table).intent == "rescreen"
    assert identify("screen resumes", table).intent == "screen_resume"


def test_priority_beats_length():
    table = _table(
        {"intent": "low", "patterns": ["a much longer pattern text"], "priority": 0},
        {"intent": "high", "patterns": ["pattern"], "priority": 5},
    )
    assert identify("a much longer pattern text", table).intent == "high"


def test_equal_priority_equal_length_breaks_lexicographically():
    table = _table(
        {"intent": "b_intent", "patterns": ["bbb"], "priority": 0},
        {"intent": "a_intent", "patterns": ["aaa"], "priority": 0},
    )
    assert identify("aaa bbb", table).intent == "a_intent"


def test_identify_is_deterministic(hr_bundle):
    messages = ["schedule interview", "pull candidates", "close the process", "no match here"]
    first = [identify(m, hr_bundle.table, hr_bundle.fallback) for m in messages]
    second = [identify(m, hr_bundle.table, hr_bundle.fallback) for m in messages]
    assert first == second


def test_fallback_consulted_only_on_miss(hr_bundle):
    hits = [
        identify("schedule interview", hr_bundle.table, None),
        identify("schedule interview", hr_bundle.table, hr_bundle.fallback),
    ]
    assert hits[0] == hits[1]  # disabling the fallback never changes a pattern hit


def test_fallback_resolves_close_phrasings(hr_bundle):
    decision = identify("screen resumes please", hr_bundle.table, hr_bundle.fallback)
    # pattern mode: "screen resumes" is a substring hit
    assert decision.mode == "pattern"
    fuzzy = identify("candidates screen", hr_bundle.table, hr_bundle.fallback)
    assert fuzzy.mode == "fallback"
    assert fuzzy.intent == "screen_resume"
    assert fuzzy.matched_pattern == "screen candidates"


def test_fallback_fault_degrades_to_unknown():
    def broken(norm):
        raise RuntimeError("resolver down")

    table = _table({"intent": "a", "patterns": ["something else"]})
    decision = identify("unmatched text", table, broken)
    assert decision.intent == UNKNOWN
    assert decision.error is not None and "resolver down" in decision.error


def test_validate_table_reports_ambiguity_and_foreign_intents():
    table = _table(
        {"intent": "a", "patterns": ["same text"], "priority": 1},
        {"intent": "b", "patterns": ["same text"], "priority": 1},
    )
    errors = validate_table(table)
    assert any(line.startswith("ambiguous_pattern: ") for line in errors)

    auto = automaton_from_dict(
        {
            "stages": ["s"],
            "initial": "s",
            "transitions": [],
            "intents": ["a"],
            "binding": {"a": ["s"]},
            "stage_map": {"a": None},
        },
    )
    errors = validate_table(_table({"intent": "ghost", "patterns": ["x"]}), auto)
    assert any(line.startswith("unknown_intent: ") for line in errors)


@pytest.mark.parametrize("entry, reported", [
    ({"patterns": ["x"]}, "pattern entry: missing key 'intent'"),
    ({"intent": "a"}, "intent 'a': missing key 'patterns'"),
    ({"intent": "a", "patterns": ["x"], "priorty": 5}, "intent 'a': unknown keys: priorty"),
    ({"intent": "a", "pattern": ["x"], "weight": 1}, "intent 'a': unknown keys: pattern, weight"),
])
def test_table_from_list_refusals(entry, reported):
    with pytest.raises(ConfigError) as caught:
        table_from_list([{"intent": "ok", "patterns": ["fine"]}, entry])
    assert str(caught.value) == reported


def test_shipped_hr_table_validates_clean(hr_bundle):
    assert validate_table(hr_bundle.table, hr_bundle.automaton) == []


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
            decision = identify(message.text, hr_bundle.table)
            if decision.mode == "pattern":
                pattern_hits += 1
                assert decision.intent == brute_force(message.text)
    assert total == 882
    assert pattern_hits / total >= 0.975


def test_identify_latency_under_one_ms():
    # Warm up, then check the median of single identifies over a 100-pattern table.
    raw = read_json(hr_domain_dir() / "patterns.json")
    extra = [
        {"intent": "ask_missing", "patterns": [f"filler pattern number {i}"], "priority": 0}
        for i in range(100 - sum(len(item["patterns"]) for item in raw))
    ]
    big = table_from_list(raw + extra)
    assert sum(len(e.patterns) for e in big) == 100
    for _ in range(10):
        identify("schedule interview", big)
    samples = []
    for _ in range(200):
        start = time.perf_counter_ns()
        identify("schedule the interview for the shortlisted candidate", big)
        samples.append(time.perf_counter_ns() - start)
    samples.sort()
    median_ms = samples[len(samples) // 2] / 1e6
    assert median_ms < 1.0, f"median identify latency {median_ms:.3f} ms"


# -- compiled table vs a per-call reference ---------------------------------------

_WORDS = ("ab", "cd", "ef", "gh", "abc", "cde", "x")  # short: ties in length and text abound
_UNRESOLVED = RoutingDecision(intent=UNKNOWN, mode="fallback")


def _reference_identify(message, entries, with_fallback):
    """Route by sorting the raw entries on every call, with matching and scoring of its own."""
    flat = sorted(
        ((-entry.priority, -len(expr.text), expr.text, entry.intent, expr)
         for entry in entries
         for expr in entry.patterns),
        key=lambda item: item[:4],
    )
    norm = normalize(message)
    for *_, intent, expr in flat:
        if expr.text and expr.text in norm:
            return RoutingDecision(intent, "pattern", matched_pattern=expr.text)
    tokens = set(norm.split())
    if not with_fallback or not tokens:
        return _UNRESOLVED
    best_score, best_intent, best_pattern = 0.0, None, None
    for *_, intent, expr in flat:
        expr_tokens = set(expr.text.split())
        if not expr_tokens:
            continue
        score = len(tokens & expr_tokens) / len(tokens | expr_tokens)
        if score > best_score:
            best_score, best_intent, best_pattern = score, intent, expr.text
    if best_intent is not None and best_score >= FALLBACK_THRESHOLD:
        return RoutingDecision(best_intent, "fallback", best_pattern)
    return _UNRESOLVED


_phrase = st.lists(st.sampled_from(_WORDS), max_size=3).map(" ".join)
# Up to 39 characters, 40 with its "=" or "&": a message can be shorter than every pattern, as
# long as one, or longer than the longest.
_long_phrase = st.lists(st.sampled_from(_WORDS), min_size=4, max_size=10).map(" ".join)
_raw_pattern = st.tuples(st.sampled_from(("", "=", "&")), st.one_of(_phrase, _long_phrase)).map("".join)
_raw_table = st.lists(
    st.fixed_dictionaries({
        "intent": st.sampled_from(("i1", "i2", "i3", "i4")),
        "patterns": st.lists(_raw_pattern, max_size=4),
        "priority": st.integers(0, 2),
    }),
    max_size=8,
)
_message = st.tuples(
    st.lists(st.sampled_from(_WORDS + ("zz", "=ab", "&cd")), max_size=12).map(" ".join),  # "=", "&": text
    st.sampled_from(("", "!", " ?")),
    st.booleans(),
).map(lambda parts: (parts[0].upper() if parts[2] else parts[0]) + parts[1])


@settings(max_examples=300, deadline=None)
@given(raw=_raw_table, messages=st.lists(_message, min_size=1, max_size=6))
def test_compiled_table_routes_like_a_per_call_sort(raw, messages):
    table = table_from_list(raw)
    fallback = TokenOverlapFallback(table)
    for message in messages:
        assert identify(message, table) == _reference_identify(message, table, False)
        assert identify(message, table, fallback) == _reference_identify(message, table, True)


# -- compiled indexes vs a full scan -----------------------------------------------


def _first_match(message, table):
    """(intent, text) of the first ``scan`` entry whose expression matches, or None."""
    norm = normalize(message)
    for intent, expr in table.scan:
        if expr.matches(norm):
            return intent, expr.text
    return None


def _full_scan_fallback(message, table):
    """Jaccard-score every ``scan`` entry; a later entry wins only on a higher score."""
    tokens = set(normalize(message).split())
    best_score, best = 0.0, None
    for intent, expr in table.scan:
        union = tokens | expr.tokens
        if union:
            score = len(tokens & expr.tokens) / len(union)
            if score > best_score:
                best_score, best = score, (intent, expr.text)
    if best is not None and best_score >= FALLBACK_THRESHOLD:
        return RoutingDecision(best[0], "fallback", best[1])
    return _UNRESOLVED


@settings(max_examples=300, deadline=None)
@given(raw=_raw_table, messages=st.lists(_message, min_size=1, max_size=6))
def test_indexes_agree_with_a_full_scan(raw, messages):
    table = table_from_list(raw)
    fallback = TokenOverlapFallback(table)
    # Each pattern's own text too, so hits and overlapping texts are common.
    for message in [*messages, *(expr.text for _, expr in table.scan)]:
        hit = _first_match(message, table)
        decision = identify(message, table)
        if hit is None:
            assert decision == _UNRESOLVED
        else:
            assert decision == RoutingDecision(hit[0], "pattern", matched_pattern=hit[1])
        assert fallback(normalize(message)) == _full_scan_fallback(message, table)


def _substrings(table):
    """``(position, text)`` of every scan entry with a text, in scan order."""
    return [(pos, expr.text) for pos, (_, expr) in enumerate(table.scan) if expr.text]


def test_each_length_index_entry_is_the_scan_kept_to_texts_that_fit(hr_bundle):
    tables = [hr_bundle.table, *(load_domain(sgd_domain_dir(domain)).table for domain in SGD_DOMAINS)]
    for table in tables:
        substrings = _substrings(table)
        longest = max(len(text) for _, text in substrings)
        assert len(table.fitting) == longest + 1
        for n, entry in enumerate(table.fitting):
            assert list(entry) == [(pos, text) for pos, text in substrings if len(text) <= n], n
    assert len(hr_bundle.table.fitting) == 39
    assert len(tables) == 9


def test_a_text_longer_than_the_message_is_skipped_and_the_scan_order_kept():
    table = _table(
        {"intent": "long", "patterns": ["ab cd ef gh"]},
        {"intent": "short", "patterns": ["cd"]},
        {"intent": "ranked", "patterns": ["ab"], "priority": 2},
        {"intent": "empty", "patterns": ["..."]},
    )
    assert [text for _, text in table.fitting[-1]] == ["ab", "ab cd ef gh", "cd"]
    assert [list(entry) for entry in table.fitting[:2]] == [[], []]
    assert identify("ab cd ef gh", table).intent == "ranked"  # as long as the longest pattern
    assert identify("cd ef gh ab cd ef gh", table).intent == "ranked"  # longer than it
    assert identify("xx ab cd ef gh", table).intent == "ranked"
    assert identify("cd ef gh", table).intent == "short"  # shorter than the long one: it is skipped
    assert identify("cd", table).intent == "short"  # exactly the short one's length
    assert identify("c", table).intent == UNKNOWN  # shorter than every pattern
    assert identify("", table).intent == UNKNOWN
    assert identify("  CD!", table).intent == "short"  # the length is the normalized message's
    empty = _table()
    assert empty.fitting == ((),)
    assert identify("anything", empty) == _UNRESOLVED


def test_the_fallback_scores_each_position_by_its_own_token_count(hr_bundle):
    table = hr_bundle.table
    assert hr_bundle.fallback.sizes == tuple(len(set(expr.text.split())) for _, expr in table.scan)
    table = _table(
        {"intent": "three", "patterns": ["ab cd ef"]},
        {"intent": "two", "patterns": ["ab cd ab"]},  # two tokens, one of them twice
        {"intent": "one", "patterns": ["gh"]},
    )
    fallback = TokenOverlapFallback(table)
    assert [intent for intent, _ in table.scan] == ["two", "three", "one"]
    assert fallback.sizes == (2, 3, 1)
    assert fallback("cd ef ab zz").intent == "three"  # 3/4 beats the earlier 2/4
    assert fallback("cd gh ab").intent == "two"  # 2/3 beats 2/4 and 1/3
    assert fallback("gh") is fallback.decisions[2]
    assert fallback("zz") == _UNRESOLVED
    assert fallback("") == _UNRESOLVED


def test_the_first_substring_in_scan_order_wins():
    table = _table(
        {"intent": "longest", "patterns": ["ab cd ef"]},
        {"intent": "longer", "patterns": ["cd ab"]},
        {"intent": "short", "patterns": ["ab"]},
        {"intent": "ranked", "patterns": ["zz"], "priority": 1},
    )
    assert [intent for intent, _ in table.scan] == ["ranked", "longest", "longer", "short"]
    assert identify("ab cd ef", table).intent == "longest"
    assert identify("cd ab cd ef", table).intent == "longest"
    assert identify("cd ab ef", table).intent == "longer"
    assert identify("ab ef", table).intent == "short"
    assert identify("ab cd ef zz", table).intent == "ranked"


def test_fallback_tie_goes_to_the_earlier_pattern_whatever_the_token_order():
    # The first token the message's set yields is one the earlier pattern lacks.
    first, second, third = set(["ab", "cd", "ef"])
    table = _table(
        {"intent": "early", "patterns": [f"{second} {third}"], "priority": 1},
        {"intent": "late", "patterns": [f"{first} {second}"]},
    )
    decision = TokenOverlapFallback(table)("ab cd ef")
    assert (decision.intent, decision.matched_pattern) == ("early", f"{second} {third}")


def test_shipped_suites_route_like_the_reference(hr_bundle, hr_suite):
    """Every hiring message and three paraphrases of it, and every SGD message."""
    texts = [m.text for scenario in hr_suite for m in scenario.messages]
    cases = [(hr_bundle, texts + paraphrased(texts, (1, 2, 3)))]
    for domain in SGD_DOMAINS:
        bundle = load_domain(sgd_domain_dir(domain))
        suite = load_suite(sgd_suite_path(domain), bundle)
        cases.append((bundle, [m.text for scenario in suite for m in scenario.messages]))
    modes = set()
    for bundle, messages in cases:
        for message in messages:
            bare = identify(message, bundle.table)
            assert bare == _reference_identify(message, bundle.table, False), message
            routed = identify(message, bundle.table, bundle.fallback)
            assert routed == _reference_identify(message, bundle.table, True), message
            modes.add((routed.mode, routed.intent == UNKNOWN))
    assert len(cases) == 9
    assert modes == {("pattern", False), ("fallback", False), ("fallback", True)}


# -- one decision per scan position, built at load --------------------------------


def _first_position(message, table):
    """The first scan position whose expression matches, or None."""
    norm = normalize(message)
    return next((pos for pos, (_, expr) in enumerate(table.scan) if expr.matches(norm)), None)


def _fallback_position(message, table):
    """The scan position whose Jaccard score the fallback resolves on, or None."""
    tokens = set(normalize(message).split())
    best_score, best = 0.0, None
    for pos, (_, expr) in enumerate(table.scan):
        union = tokens | expr.tokens
        score = len(tokens & expr.tokens) / len(union) if union else 0.0
        if score > best_score:
            best_score, best = score, pos
    return best if best_score >= FALLBACK_THRESHOLD else None


def test_a_pattern_hit_returns_the_decision_built_for_its_scan_position(hr_bundle, hr_suite):
    """Every hiring message and every SGD message: a hit is ``table.decisions[pos]`` itself."""
    cases = [(hr_bundle.table, [m.text for scenario in hr_suite for m in scenario.messages])]
    for domain in SGD_DOMAINS:
        bundle = load_domain(sgd_domain_dir(domain))
        suite = load_suite(sgd_suite_path(domain), bundle)
        cases.append((bundle.table, [m.text for scenario in suite for m in scenario.messages]))
    hits = 0
    for table, messages in cases:
        assert len(table.decisions) == len(table.scan)
        for message in messages:
            pos = _first_position(message, table)
            if pos is None:
                continue
            decision = identify(message, table)
            assert decision is table.decisions[pos], message
            assert identify(message, table) is decision
            intent, expr = table.scan[pos]
            assert (decision.intent, decision.mode, decision.matched_pattern) == (intent, "pattern", expr.text)
            hits += 1
    assert hits > 2000


def test_a_fallback_hit_returns_the_decision_built_for_its_scan_position(hr_bundle, hr_suite):
    texts = [m.text for scenario in hr_suite for m in scenario.messages]
    table, fallback = hr_bundle.table, hr_bundle.fallback
    assert len(fallback.decisions) == len(table.scan)
    resolved = 0
    for message in paraphrased(texts, (1, 2, 3)):
        pos = _fallback_position(message, table)
        if _first_position(message, table) is not None or pos is None:
            continue
        decision = identify(message, table, fallback)
        assert decision is fallback.decisions[pos], message
        assert fallback(normalize(message)) is decision
        assert (decision.intent, decision.mode, decision.matched_pattern) == (
            table.scan[pos][0], "fallback", table.scan[pos][1].text)
        resolved += 1
    assert resolved > 100


def test_shared_decisions_cannot_be_edited(hr_bundle):
    for decision in (hr_bundle.table.decisions[0], hr_bundle.fallback.decisions[0]):
        with pytest.raises(FrozenInstanceError):
            decision.intent = "someone_else"
        with pytest.raises(FrozenInstanceError):
            decision.error = "edited"
