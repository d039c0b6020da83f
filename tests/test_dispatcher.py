from __future__ import annotations

import copy
import errno
import hashlib
import itertools
import json
import os
import random
import sys
import threading
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagegate.context import DispatchContext, canonical, payload_digest
from stagegate.dispatcher import (
    BLOCK_OUTCOMES,
    FULL,
    DispatchDeps,
    DispatchResult,
    DispatchToggles,
    MockExecutor,
    decide,
    dispatch,
)
from stagegate.errors import ConfigError, ConflictFault, LookupFault
from stagegate.memory import (
    FileEventStore,
    GoalManager,
    InMemoryEventStore,
    ProcessEvent,
    load_trace,
    replay_events,
)
from stagegate import registry, router, scenarios
from stagegate.registry import Effect, SkillRegistry
from stagegate.router import UNKNOWN, normalize
from stagegate.runner import StepRecord, run_suite
from stagegate.scenarios import (
    BUNDLE_FILES,
    bundle_from_dicts,
    check_bundle,
    load_domain,
    load_suite,
    read_json,
)
from stagegate.suites import (
    SGD_DOMAINS,
    hr_domain_dir,
    hr_suite_path,
    sgd_domain_dir,
    sgd_suite_path,
)

from reference import random_domain, random_messages, run_reference


def _deps(bundle, executor=None):
    manager = GoalManager()
    manager.add_domain(bundle.name, bundle.automaton, bundle.registry)
    return DispatchDeps(
        automaton=bundle.automaton,
        registry=bundle.registry,
        table=bundle.table,
        manager=manager,
        executor=executor or bundle.build_executor(),
        fallback=None,
    )


def _goal(deps, domain):
    return deps.manager.create_goal(domain).goal_id


def _live_state(manager, goal_id):
    """The goal's live observable state with its own copy of the business state, so a later in-place
    change to the live dict shows against it."""
    live = manager.live(goal_id)
    return live.state() | {"business_state": dict(live.business_state)}


FLOW = [
    "create a hiring demand",
    "pull candidates",
    "screen resumes",
    "schedule interview",
    "evaluate candidate",
    "issue offer",
    "start onboarding",
    "close the process",
]


def test_schedule_interview_at_init_blocks_without_executing(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    result = dispatch("Schedule interview", gid, deps)
    assert result.outcome == "ILLEGAL_TRANSITION"
    assert result.event.sub_reason == "pre_exec_stage_illegal"
    assert result.skill_id is None  # blocked before any skill was selected
    assert result.stage_after == result.stage_before == "init"


@pytest.mark.parametrize(
    "text",
    ["Interview feedback", "Generate test questions", "Invite to interview"],
)
def test_init_stage_gate_blocks_interview_phase_requests(hr_bundle, text):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    result = dispatch(text, gid, deps)
    assert result.outcome == "ILLEGAL_TRANSITION"
    assert result.event.sub_reason == "pre_exec_stage_illegal"


def test_compare_candidates_before_pull_fails_preconditions(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    dispatch("create a hiring demand", gid, deps)
    dispatch("pull candidates", gid, deps)
    dispatch("screen resumes", gid, deps)
    dispatch("schedule interview", gid, deps)
    dispatch("reopen sourcing", gid, deps)  # rolls back and resets the pool
    result = dispatch("Compare candidates", gid, deps)
    assert result.outcome == "PRECONDITION_FAIL"
    assert next(n for n, ok in result.event.precondition_results if not ok) == "candidates_pulled"
    assert result.event.precondition_results == (
        ("position_exists", True),
        ("candidates_pulled", False),
    )


def test_rescreen_after_offer_is_stage_gate_block(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    for text in FLOW[:6]:
        assert dispatch(text, gid, deps).outcome == "SUCCESS"
    assert deps.manager.goal(gid).current_stage == "off"
    result = dispatch("Re-screen resumes", gid, deps)
    assert result.outcome == "ILLEGAL_TRANSITION"
    assert result.event.sub_reason == "pre_exec_stage_illegal"


def test_full_normal_flow_ends_closed(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    outcomes = [dispatch(text, gid, deps).outcome for text in FLOW]
    assert outcomes == ["SUCCESS"] * len(FLOW)
    record = deps.manager.goal(gid)
    assert record.current_stage == "close"
    assert record.status == "closed"
    assert deps.manager.last_seq(gid) == len(FLOW)


def test_unroutable_message_maps_to_skill_not_found(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    result = dispatch("completely unrelated gibberish", gid, deps)
    assert result.outcome == "SKILL_NOT_FOUND"
    assert result.event.sub_reason == "intent_unresolved"


def test_unknown_goal_is_lookup_fault(hr_bundle):
    deps = _deps(hr_bundle)
    with pytest.raises(LookupFault):
        dispatch("schedule interview", "ghost", deps)


def test_blocked_dispatch_never_mutates_state(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    dispatch("create a hiring demand", gid, deps)
    before_stage = deps.manager.goal(gid).current_stage
    before_state = copy.deepcopy(deps.manager.context(gid).business_state)
    for text in ("schedule interview", "compare candidates", "start onboarding"):
        result = dispatch(text, gid, deps)
        assert result.outcome != "SUCCESS"
        assert deps.manager.goal(gid).current_stage == before_stage
        assert deps.manager.context(gid).business_state == before_state


def test_gate_ordering_precondition_only_after_stage_gate(hr_bundle):
    """A stage-illegal intent never reaches precondition evaluation."""
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    result = dispatch("evaluate candidate", gid, deps)  # illegal at init
    assert result.outcome == "ILLEGAL_TRANSITION"
    assert result.event.precondition_results == ()


# -- executor behavior ------------------------------------------------------------


def test_mock_executor_is_deterministic(hr_bundle):
    executor = hr_bundle.build_executor()
    skill = hr_bundle.registry.get("get_job_list")
    ctx = None
    first = executor(skill, ctx)
    second = executor(skill, ctx)
    assert first == second
    assert len(json.loads(first)["positions"]) == 48


def test_bundle_without_a_skill_fixture_is_rejected():
    directory = sgd_domain_dir("Banks_1")
    parts = {key: read_json(directory / name) for key, name in BUNDLE_FILES.items()}
    del parts["fixtures"]["transfer_money"]
    errors, _ = check_bundle("Banks_1", parts)
    assert errors == [("fixtures", "missing fixtures for: transfer_money")]
    with pytest.raises(ConfigError, match="missing fixtures for: transfer_money"):
        bundle_from_dicts("Banks_1", parts)


def test_uncopied_payloads_keep_their_digests_after_a_suite_run():
    """Retained payload bytes match their digests, and a run leaves the bundle's fixtures as loaded."""
    bundle = load_domain(hr_domain_dir())
    fixtures_digest = payload_digest(canonical(bundle.fixtures))
    run = run_suite(bundle, load_suite(hr_suite_path(), bundle))
    committed = [e for e in run.events() if e.outcome == "SUCCESS" and e.sub_reason is None]
    assert len(committed) == 860
    for event in committed:
        payload = run.manager.store.payload_for(event.goal_id, event.seq)
        assert payload_digest(payload) == event.payload_digest
    assert payload_digest(canonical(bundle.fixtures)) == fixtures_digest


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(field=JSON, value=JSON)
def test_a_set_effect_loads_exactly_when_it_writes_a_scalar_to_a_named_field(field, value):
    parts = {
        "automaton": {"stages": ["a", "b"], "initial": "a", "transitions": [["a", "b"]],
                      "intents": ["go"], "binding": {"go": ["a"]}, "stage_map": {"go": "b"}},
        "skills": [{"id": "go", "intent": "go", "level": "L1", "stages": ["a"],
                    "post": [{"op": "set", "field": field, "value": value}]}],
        "patterns": [{"intent": "go", "patterns": ["go"]}],
        "fixtures": {"go": {"done": True}},
    }
    loads = isinstance(field, str) and isinstance(value, (str, int, float, bool, type(None)))
    errors, _ = check_bundle("effect", parts)
    assert (errors == []) == loads
    if not loads:
        assert [part for part, _ in errors] == ["skills"]
        with pytest.raises(ConfigError):
            bundle_from_dicts("effect", parts)
        return
    deps = _deps(bundle_from_dicts("effect", parts))
    gid = _goal(deps, "effect")
    assert dispatch("go", gid, deps).outcome == "SUCCESS"
    live = _live_state(deps.manager, gid)
    assert live["business_state"] == {field: value}
    assert deps.manager.replay(gid).state() == live


def test_injected_failure_keeps_state_and_stage(hr_bundle):
    deps = _deps(hr_bundle, executor=hr_bundle.build_executor(fail_ids=["create_demand"]))
    gid = _goal(deps, "hr")
    result = dispatch("create a hiring demand", gid, deps)
    assert result.outcome == "SUCCESS"  # failed SUCCESS-path dispatch
    assert result.event.sub_reason == "execution_error"
    assert deps.manager.goal(gid).current_stage == "init"
    assert deps.manager.context(gid).business_state == {}
    # the flow is still blocked downstream because postconditions never ran
    assert dispatch("pull candidates", gid, deps).outcome == "PRECONDITION_FAIL"


class _FillingStore(InMemoryEventStore):
    """An in-memory store whose appends fail once it is marked full."""

    full = False

    def append(self, event, payload=None):
        if self.full:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        super().append(event, payload)


def test_a_failed_append_leaves_the_goal_unchanged(hr_bundle):
    deps = _deps(hr_bundle)
    deps.manager.store = store = _FillingStore()
    gid = _goal(deps, "hr")
    for message in FLOW[:2]:
        dispatch(message, gid, deps)
    before = _live_state(deps.manager, gid)
    store.full = True
    for message in ["create a new hiring demand", *FLOW[2:]]:
        with pytest.raises(OSError):
            dispatch(message, gid, deps)
        assert _live_state(deps.manager, gid) == before, message
    assert deps.manager.replay(gid).state() == before


def test_executor_exception_is_contained(hr_bundle):
    def explosive(skill, ctx):
        raise RuntimeError("endpoint down")

    deps = _deps(hr_bundle, executor=explosive)
    gid = _goal(deps, "hr")
    result = dispatch("create a hiring demand", gid, deps)
    assert result.outcome == "SUCCESS"
    assert result.event.sub_reason == "execution_error"


@pytest.mark.parametrize(
    "payload", [{"ok": 1}, '{"ok":1}', bytearray(b'{"ok":1}'), None], ids=["dict", "str", "bytearray", "None"],
)
def test_a_non_bytes_payload_is_contained_like_an_executor_exception(hr_bundle, payload):
    deps = _deps(hr_bundle, executor=lambda skill, ctx: payload)
    gid = _goal(deps, "hr")
    result = dispatch("create a hiring demand", gid, deps)
    assert (result.outcome, result.event.sub_reason) == ("SUCCESS", "execution_error")
    error = f"executor payload is {type(payload).__name__}, not bytes"
    assert result.event.payload_digest == payload_digest(canonical({"error": error}))
    assert _live_state(deps.manager, gid) == {
        "current_stage": "init", "status": "active", "business_state": {}, "last_seq": 1,
    }
    assert deps.manager.store.payload_for(gid, 1) is None


def test_an_injected_failure_raises_and_ends_as_its_error_digest(hr_bundle):
    executor = hr_bundle.build_executor(fail_ids=["create_demand"])
    with pytest.raises(RuntimeError, match="^injected failure for create_demand$"):
        executor(hr_bundle.registry.get("create_demand"), DispatchContext())
    deps = _deps(hr_bundle, executor=executor)
    result = dispatch("create a hiring demand", _goal(deps, "hr"), deps)
    assert (result.outcome, result.event.sub_reason) == ("SUCCESS", "execution_error")
    error = canonical({"error": "injected failure for create_demand"})
    assert result.event.payload_digest == payload_digest(error)


def test_what_the_executor_and_predicates_write_to_their_context_is_never_committed(hr_bundle):
    """Effects start from the goal's own state, so replay still reproduces live state."""
    executor = hr_bundle.build_executor()

    def smuggling(skill, ctx):
        ctx.business_state["smuggled"] = True
        return executor(skill, ctx)

    deps = _deps(hr_bundle, executor=smuggling)
    gid = _goal(deps, "hr")
    assert dispatch("create a hiring demand", gid, deps).outcome == "SUCCESS"
    assert _live_state(deps.manager, gid)["business_state"] == {"position_exists": True}
    assert dispatch("pull candidates", gid, deps).outcome == "SUCCESS"
    live = _live_state(deps.manager, gid)
    assert set(live["business_state"]) == {"position_exists", "candidates_pulled", "candidates_ref"}
    assert deps.manager.replay(gid).state() == live


def test_below_the_executor_business_state_is_a_plain_dict(hr_bundle, monkeypatch):
    """The context names no goal: the manager hands out one copy, the executor gets one clone of it
    and the commit takes the copy; the gate and the effects read and write its dict."""
    assert [f.name for f in fields(DispatchContext)] == ["business_state"]
    assert not hasattr(registry, "DispatchContext") and not hasattr(scenarios, "DispatchContext")
    calls = Counter()

    def counted(name, original):
        return lambda *args: calls.update([name]) or original(*args)

    for name in ("context", "commit_context"):
        monkeypatch.setattr(GoalManager, name, counted(name, getattr(GoalManager, name)))
    monkeypatch.setattr(DispatchContext, "clone", counted("clone", DispatchContext.clone))
    executor, seen = hr_bundle.build_executor(), []
    deps = _deps(hr_bundle, executor=lambda skill, ctx: seen.append(ctx) or executor(skill, ctx))
    gid = _goal(deps, "hr")
    assert dispatch("create a hiring demand", gid, deps).outcome == "SUCCESS"
    assert calls == {"context": 1, "clone": 1, "commit_context": 1}
    assert seen == [DispatchContext({})]
    assert deps.manager.context(gid) == DispatchContext({"position_exists": True})


def _registry_where(bundle, skill_id, **changes):
    """*bundle*'s registry with one skill's fields changed."""
    skills = SkillRegistry()
    for spec in bundle.registry:
        skills.register(replace(spec, **changes) if spec.id == skill_id else spec, bundle.automaton)
    return skills


def _rewirings(bundle):
    """An automaton lacking ``init -> src`` and a ``create_demand`` that unsets ``position_exists``."""
    automaton = replace(bundle.automaton, transitions=bundle.automaton.transitions - {("init", "src")})
    unset = (Effect("set", "position_exists", False),)
    return {
        "automaton-lacks-init-src": (automaton, bundle.registry),
        "create-demand-unsets-position": (
            bundle.automaton, _registry_where(bundle, "create_demand", postconditions=unset)),
    }


@pytest.mark.parametrize("case", ["automaton-lacks-init-src", "create-demand-unsets-position"])
def test_a_goal_wired_to_another_automaton_or_registry_is_refused(hr_bundle, case):
    """Gating with the deps' copy and committing or replaying with the manager's would part live
    state from its replay; the goal is refused before any event is built."""
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    if case == "automaton-lacks-init-src":  # "pull candidates" would log init -> src, then fail to advance
        deps.manager.commit_context(gid, DispatchContext({"position_exists": True}))
        message = "pull candidates"
    else:  # live state would read position_exists true, its replay false
        message = "create a hiring demand"
    automaton, skills = _rewirings(hr_bundle)[case]
    deps = replace(deps, automaton=automaton, registry=skills)
    before = _live_state(deps.manager, gid)
    refusal = rf"^goal '{gid}': its domain 'hr' is wired to another automaton or registry than the dispatch deps$"
    with pytest.raises(ConfigError, match=refusal):
        dispatch(message, gid, deps)
    assert deps.manager.store.events_for(gid) == []
    assert _live_state(deps.manager, gid) == before


@pytest.mark.parametrize("case", ["automaton-lacks-init-src", "create-demand-unsets-position"])
def test_a_domain_with_goals_is_not_rewired_and_its_goals_still_replay(hr_bundle, case):
    """Its goals were logged under the pair it holds: re-wiring it would replay them against other rules."""
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    for message in ("create a hiring demand", "pull candidates"):
        assert dispatch(message, gid, deps).outcome == "SUCCESS"
    assert deps.manager.goal(gid).current_stage == "src"
    refusal = r"^domain 'hr' has goals; it cannot be wired to another automaton or registry$"
    with pytest.raises(ConflictFault, match=refusal):
        deps.manager.add_domain("hr", *_rewirings(hr_bundle)[case])
    automaton, skills = deps.manager.wiring("hr")
    assert automaton is hr_bundle.automaton and skills is hr_bundle.registry
    assert deps.manager.replay(gid).state() == _live_state(deps.manager, gid)
    deps.manager.add_domain("hr", hr_bundle.automaton, hr_bundle.registry)  # the same pair: nothing changes
    assert dispatch("get the job list", gid, deps).event.seq == 3
    assert deps.manager.replay(gid).state() == _live_state(deps.manager, gid)


def test_a_domain_without_goals_may_be_wired_again(hr_bundle):
    manager = GoalManager()
    manager.add_domain("hr", hr_bundle.automaton, hr_bundle.registry)
    manager.add_domain("other", hr_bundle.automaton, hr_bundle.registry)
    manager.create_goal("other")  # another domain's goal does not hold hr's wiring
    for pair in _rewirings(hr_bundle).values():
        manager.add_domain("hr", *pair)
        assert all(a is b for a, b in zip(manager.wiring("hr"), pair))


def test_a_raising_fallback_leaves_the_intent_unresolved_with_its_error(hr_bundle):
    def broken(norm):
        raise RuntimeError("resolver down")

    deps = replace(_deps(hr_bundle), fallback=broken)
    gid = _goal(deps, "hr")
    result = dispatch("zzz qqq", gid, deps)
    assert (result.outcome, result.event.sub_reason) == ("SKILL_NOT_FOUND", "intent_unresolved")
    assert result.event.intent == UNKNOWN
    assert result.detail["routing"] == {"mode": "fallback", "error": "fallback_error: resolver down"}
    assert _live_state(deps.manager, gid) == {
        "current_stage": "init", "status": "active", "business_state": {}, "last_seq": 1,
    }


def test_a_fallback_dispatch_normalizes_its_message_once(hr_bundle, monkeypatch):
    """The resolver gets the text the pattern scan read, not the raw message."""
    normalized, resolved = [], []

    def counting(message):
        normalized.append(message)
        return normalize(message)

    def resolver(norm):
        resolved.append(norm)
        return hr_bundle.fallback(norm)

    monkeypatch.setattr(router, "normalize", counting)
    deps = replace(_deps(hr_bundle), fallback=resolver)
    message = "  Candidates   SCREEN!! "
    result = dispatch(message, _goal(deps, "hr"), deps)
    assert result.detail["routing"] == {"mode": "fallback"}
    assert result.event.intent == "screen_resume"
    assert normalized == [message]
    assert resolved == [normalize(message)]


def test_every_executed_event_digests_its_fixture_as_json_dumps_writes_it():
    """Pins ``payload_digest`` to the shipped fixtures without going through ``canonical``."""
    suites = [(hr_domain_dir(), hr_suite_path())]
    suites += [(sgd_domain_dir(domain), sgd_suite_path(domain)) for domain in SGD_DOMAINS]
    for directory, suite in suites:
        fixtures = json.loads((directory / "fixtures.json").read_text())
        expected = {
            skill_id: hashlib.sha256(
                json.dumps(fixture, sort_keys=True, separators=(",", ":"), default=str).encode()
            ).hexdigest()
            for skill_id, fixture in fixtures.items()
        }
        bundle = load_domain(directory)
        run = run_suite(bundle, load_suite(suite, bundle))
        executed = [
            e for e in run.events()
            if e.outcome == "SUCCESS" or e.sub_reason == "post_exec_transition_rejected"
        ]
        assert executed, directory.name
        for event in executed:
            assert event.payload_digest == expected[event.skill_id], (directory.name, event.seq)


def test_contexts_handed_out_stay_detached_from_goal_state(hr_bundle):
    """The executor gets copies: what it keeps reaches no goal state.

    ``commit_context`` takes ownership of the context it is given, so the
    copy ``GoalManager.context`` makes is all that stands between a context
    kept past ``dispatch`` and the goal's live state.
    """
    kept = []
    executor = hr_bundle.build_executor()

    def keeping_executor(skill, ctx):
        kept.append(ctx)
        return executor(skill, ctx)

    deps = _deps(hr_bundle, executor=keeping_executor)
    gid = _goal(deps, "hr")
    for text in ("create a hiring demand", "pull candidates", "screen resumes",
                 "schedule interview", "reopen sourcing"):
        assert dispatch(text, gid, deps).outcome == "SUCCESS"
    live = _live_state(deps.manager, gid)
    assert deps.manager.replay(gid).state() == live
    assert len(kept) == 5

    for ctx in kept:
        ctx.business_state.clear()
        ctx.business_state["tampered"] = True
    assert _live_state(deps.manager, gid) == live
    assert deps.manager.replay(gid).state() == live


# -- toggles ----------------------------------------------------------------------


def test_all_toggles_on_is_identical_to_default(hr_bundle):
    deps_a = _deps(hr_bundle)
    deps_b = _deps(hr_bundle)
    gid_a = _goal(deps_a, "hr")
    gid_b = _goal(deps_b, "hr")
    for text in FLOW:
        ra = dispatch(text, gid_a, deps_a, FULL)
        rb = dispatch(text, gid_b, deps_b, DispatchToggles(True, True, True))
        assert (ra.outcome, ra.stage_before, ra.stage_after, ra.skill_id) == (
            rb.outcome, rb.stage_before, rb.stage_after, rb.skill_id,
        )


def test_stage_check_off_routes_illegal_intents_into_preconditions(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    toggles = DispatchToggles(stage_check=False)
    result = dispatch("schedule interview", gid, deps, toggles)
    assert result.outcome == "PRECONDITION_FAIL"  # caught by the second layer
    assert result.skill_id == "schedule_interview"


def test_stage_check_off_can_execute_illegal_action(hr_bundle):
    """With the gate off, a stage-illegal pull executes and rolls the stage back."""
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    for text in FLOW[:4]:  # reach the interview loop
        dispatch(text, gid, deps)
    assert deps.manager.goal(gid).current_stage == "int"
    result = dispatch("pull candidates", gid, deps, DispatchToggles(stage_check=False))
    assert result.outcome == "SUCCESS"
    assert deps.manager.goal(gid).current_stage == "src"


def test_post_exec_transition_rejection_commits_nothing(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    for text in FLOW[:6]:
        dispatch(text, gid, deps)
    assert deps.manager.goal(gid).current_stage == "off"
    state_before = copy.deepcopy(deps.manager.context(gid).business_state)
    # with the gate off, reopen_sourcing executes at off; its target (src)
    # is unreachable so the transition check rejects after execution
    result = dispatch("reopen sourcing", gid, deps, DispatchToggles(stage_check=False))
    assert result.outcome == "ILLEGAL_TRANSITION"
    assert result.event.sub_reason == "post_exec_transition_rejected"
    assert deps.manager.goal(gid).current_stage == "off"
    assert deps.manager.context(gid).business_state == state_before


def test_audit_off_suppresses_events_not_mutation(hr_bundle):
    """An unlogged event is the one an audited twin logs, at the seq it would have taken.

    Nothing is logged, so ``last_seq`` stays 0 and every unlogged event carries seq 1.
    """
    deps, twin = _deps(hr_bundle), _deps(hr_bundle)
    gid = deps.manager.create_goal("hr", goal_id="g").goal_id
    twin.manager.create_goal("hr", goal_id="g")
    for seq, text in enumerate(FLOW, start=1):
        unlogged = dispatch(text, gid, deps, DispatchToggles(audit=False)).event
        logged = dispatch(text, gid, twin).event
        assert (unlogged.seq, logged.seq) == (1, seq)
        assert unlogged == logged._replace(seq=1, timestamp=unlogged.timestamp)
    assert deps.manager.goal(gid).current_stage == "close"
    assert deps.manager.context(gid) == twin.manager.context(gid)
    assert deps.manager.store.events_for(gid) == []
    assert deps.manager.last_seq(gid) == 0


def test_every_toggle_set_returns_an_event_and_only_routing_and_timing(hr_bundle):
    for flags in itertools.product((True, False), repeat=3):
        deps = _deps(hr_bundle)
        gid = _goal(deps, "hr")
        for text in ["schedule interview", "zzz qqq", *FLOW]:
            result = dispatch(text, gid, deps, DispatchToggles(*flags))
            assert type(result.event) is ProcessEvent and result.event.goal_id == gid, flags
            assert set(result.detail) == {"routing", "timing_ns"}, flags


def test_precondition_check_off_executes_unready_actions(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    toggles = DispatchToggles(precondition_check=False)
    result = dispatch("pull candidates", gid, deps, toggles)  # no position yet
    assert result.outcome == "SUCCESS"
    assert deps.manager.goal(gid).current_stage == "src"


# -- oracle equivalence --------------------------------------------------------------


def test_dispatch_matches_reference_interpreter_on_random_domains():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(40):
        domain = random_domain(rng)
        bundle = bundle_from_dicts("rnd", domain)
        deps = _deps(bundle)
        gid = deps.manager.create_goal("rnd").goal_id
        messages = random_messages(rng, domain, 25)
        expected = run_reference(domain, messages)
        for message, ref in zip(messages, expected):
            result = dispatch(message, gid, deps)
            assert result.outcome == ref.outcome, (domain["automaton"], message)
            assert result.stage_after == ref.stage_after
            assert deps.manager.goal(gid).current_stage == ref.stage_after
            checked += 1
    assert checked == 40 * 25


def test_dispatch_timing_fields_present(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    result = dispatch("create a hiring demand", gid, deps)
    timing = result.detail["timing_ns"]
    assert {"route_ns", "gate_ns", "executor_ns"} <= set(timing)


# -- the gate kernel ----------------------------------------------------------------


def _decide(bundle, stage, intent, toggles=FULL, state=None):
    flags = dict(state or {})
    decision = decide(bundle.automaton, bundle.registry, stage, flags, intent, toggles)
    assert flags == dict(state or {})  # decide never mutates
    assert decision.stage_before == stage
    return decision


def test_decide_unresolved_intent_is_skill_not_found(hr_bundle):
    decision = _decide(hr_bundle, "init", UNKNOWN)
    assert (decision.outcome, decision.sub_reason) == ("SKILL_NOT_FOUND", "intent_unresolved")
    assert decision.skill is None and not decision.executes


def test_decide_stage_check_off_falls_back_to_intent_only_selection(hr_bundle):
    assert hr_bundle.registry.select_skill("evaluate_candidate", "init") is None
    gated = _decide(hr_bundle, "init", "evaluate_candidate")
    assert (gated.outcome, gated.sub_reason) == ("ILLEGAL_TRANSITION", "pre_exec_stage_illegal")
    assert gated.skill is None and gated.pre_results == ()
    assert gated.stage_after == "init" and not gated.executes

    ungated = _decide(hr_bundle, "init", "evaluate_candidate", DispatchToggles(stage_check=False))
    assert ungated.outcome == "PRECONDITION_FAIL"
    assert ungated.skill.id == "evaluate"
    assert ungated.pre_results == (("interview_scheduled", False),)
    assert ungated.outcome in BLOCK_OUTCOMES and not ungated.executes


def test_decide_precondition_check_off_records_flags_without_enforcing_them(hr_bundle):
    checked = _decide(hr_bundle, "init", "pull_candidates")
    assert checked.outcome == "PRECONDITION_FAIL"
    assert checked.pre_results == (("position_exists", False),)

    unchecked = _decide(
        hr_bundle, "init", "pull_candidates", DispatchToggles(precondition_check=False)
    )
    assert (unchecked.outcome, unchecked.stage_after) == ("SUCCESS", "src")
    assert unchecked.skill.id == "pull_parse"
    assert unchecked.pre_results == checked.pre_results
    assert unchecked.executes


def test_decide_post_exec_transition_rejected_carries_skill_and_target(hr_bundle):
    decision = _decide(hr_bundle, "off", "reopen_sourcing", DispatchToggles(stage_check=False))
    assert decision.outcome == "ILLEGAL_TRANSITION"
    assert decision.sub_reason == "post_exec_transition_rejected"
    assert decision.skill.id == "reopen_sourcing"
    assert decision.stage_after == "off"
    target = hr_bundle.automaton.target_stage("reopen_sourcing")
    assert target == "src" and not hr_bundle.automaton.can_transition("off", target)
    assert decision.executes


def test_decide_stage_preserving_intent_stays(hr_bundle):
    decision = _decide(hr_bundle, "int", "get_job_list")
    assert (decision.outcome, decision.stage_after, decision.sub_reason) == ("SUCCESS", "int", None)


def test_dispatch_results_and_steps_are_tuples_in_field_order(hr_run):
    assert DispatchResult._fields == ("event", "detail")
    assert StepRecord._fields == ("scenario", "message", "result")
    step = hr_run.steps[0]
    assert type(step) is StepRecord and isinstance(step, tuple)
    assert type(step.result) is DispatchResult and isinstance(step.result, tuple)
    result = step.result
    assert tuple(result) == (result.event, result.detail)
    assert set(result.detail) == {"routing", "timing_ns"}
    assert (step.event, step.outcome) == (result.event, result.outcome)
    assert step.goal_id == f"{step.scenario.scenario_id}-t{step.message.track}"


def test_dispatch_result_properties_read_its_event(hr_bundle, hr_suite):
    """Every third skill fails, so executed, failed and blocked steps all occur."""
    fail_ids = [skill.id for skill in hr_bundle.registry][::3]
    run = run_suite(hr_bundle, hr_suite, fail_ids=fail_ids)
    sub_reasons = set()
    for step in run.steps:
        result, event = step.result, step.result.event
        assert (result.outcome, result.stage_before, result.stage_after, result.skill_id) == (
            event.outcome, event.stage_before, event.stage_after, event.skill_id,
        )
        assert result.blocked == (event.outcome in BLOCK_OUTCOMES)
        sub_reasons.add(event.sub_reason)
    assert {"execution_error", "pre_exec_stage_illegal", None} <= sub_reasons


def test_each_dispatch_returns_its_own_detail_dict(hr_bundle):
    deps = _deps(hr_bundle)
    gid = _goal(deps, "hr")
    first = dispatch("Schedule interview", gid, deps)
    first.detail["routing"]["mode"] = "tampered"
    first.detail["timing_ns"]["route_ns"] = -1
    first.detail["extra"] = True
    second = dispatch("Schedule interview", gid, deps)
    assert second.outcome == "ILLEGAL_TRANSITION"
    assert second.detail is not first.detail
    assert "extra" not in second.detail
    assert second.detail["routing"] == {"mode": "pattern"}
    assert second.detail["timing_ns"]["route_ns"] >= 0


@pytest.mark.parametrize("store", ["memory", "file"])
def test_threaded_dispatch_keeps_each_goal_log_linear(hr_bundle, hr_suite, tmp_path, store):
    """6 threads x 150 dispatches over 3 goals, switching threads as often as it can.

    Each goal's log is gapless, its stage chain unbroken, one event per
    dispatch, and it replays to the live state.  The 900 steps hold about
    40 stage moves and every outcome class but a routing miss.
    """
    manager = GoalManager(FileEventStore(tmp_path) if store == "file" else None)
    manager.add_domain("hr", hr_bundle.automaton, hr_bundle.registry)
    deps = DispatchDeps(
        hr_bundle.automaton, hr_bundle.registry, hr_bundle.table, manager,
        hr_bundle.build_executor(), hr_bundle.fallback,
    )
    goals = [manager.create_goal("hr").goal_id for _ in range(3)]
    texts = sorted({  # no closing step: a goal that reached a terminal stage moves no more
        msg.text for scenario in hr_suite for msg in scenario.messages
        if router.identify(msg.text, hr_bundle.table).intent != "close_process"
    })
    rng = random.Random(2207)
    plans = [[(rng.choice(goals), rng.choice(texts)) for _ in range(150)] for _ in range(6)]
    faults = []

    def worker(plan):
        try:
            for gid, text in plan:
                dispatch(text, gid, deps)
        except Exception as exc:  # surfaced by the assert below, not lost with the thread
            faults.append(exc)

    threads = [threading.Thread(target=worker, args=(plan,)) for plan in plans]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert faults == []
    dispatched = Counter(gid for plan in plans for gid, _ in plan)
    for gid in goals:
        events = manager.store.events_for(gid)
        assert [e.seq for e in events] == list(range(1, dispatched[gid] + 1))
        stages = [hr_bundle.automaton.initial] + [e.stage_after for e in events]
        assert [e.stage_before for e in events] == stages[:-1]
        live = manager.live(gid).state()
        assert stages[-1] == live["current_stage"]
        assert manager.replay(gid).state() == live
        if store == "file":
            trace = load_trace(tmp_path / f"{gid}.jsonl")
            replayed = replay_events(gid, "hr", hr_bundle.automaton, hr_bundle.registry, trace)
            assert replayed.state() == live


def test_mock_executor_refuses_a_skill_without_a_fixture(hr_bundle):
    executor = MockExecutor({})
    with pytest.raises(ConfigError, match="^no fixture for skill 'create_demand'$"):
        executor(hr_bundle.registry.get("create_demand"), DispatchContext())
