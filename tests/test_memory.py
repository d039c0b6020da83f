from __future__ import annotations

import codecs
import hashlib
import itertools
import json
import os
import random
import stat
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stagegate import memory
from stagegate.automaton import automaton_from_dict
from stagegate.context import DispatchContext, canonical, payload_digest
from stagegate.dispatcher import DispatchDeps, dispatch
from stagegate.errors import ConfigError, ConflictFault, IntegrityFault, LookupFault
from stagegate.memory import (
    _EVENT_FIELD_TYPES,
    FileEventStore,
    GoalManager,
    GoalRecord,
    GoalState,
    ProcessEvent,
    load_trace,
    replay_events,
)
from stagegate.scenarios import bundle_from_dicts
from stagegate.suites import SGD_DOMAINS, hr_domain_dir, sgd_domain_dir

from reference import random_domain, random_messages, reference_load_trace


def _manager(hr_bundle, store=None):
    manager = GoalManager(store=store)
    manager.add_domain(hr_bundle.name, hr_bundle.automaton, hr_bundle.registry)
    return manager


def _live_state(manager, goal_id):
    """The goal's live observable state with its own copy of the business state, so a later in-place
    change to the live dict shows against it."""
    live = manager.live(goal_id)
    return live.state() | {"business_state": dict(live.business_state)}


def _event(goal_id, seq, intent="get_job_list", before="init", after="init",
           outcome="SUCCESS", skill_id="get_job_list", sub_reason=None):
    return ProcessEvent(
        seq=seq,
        timestamp=time.time(),
        goal_id=goal_id,
        intent=intent,
        stage_before=before,
        stage_after=after,
        skill_id=skill_id,
        outcome=outcome,
        sub_reason=sub_reason,
    )


def _goal(goal_id, business_state=None, last_seq=0, domain="hr", stage="init", closed=False):
    """A goal state as replay builds it: no lock; *closed* makes its stage terminal."""
    record = GoalRecord(goal_id, domain, stage, frozenset({stage} if closed else ()))
    return GoalState(record, business_state or {}, last_seq)


def _snapshot_text(goal):
    """The snapshot ``json`` writes for *goal*: its ids and observable state, keys sorted."""
    snapshot = {"goal_id": goal.record.goal_id, "domain": goal.record.domain} | goal.state()
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"


def test_create_goal_starts_at_initial_stage(hr_bundle):
    manager = _manager(hr_bundle)
    record = manager.create_goal("hr")
    assert record.current_stage == "init"
    assert record.status == "active"
    assert manager.last_seq(record.goal_id) == 0


@pytest.mark.parametrize("goal_id", ["../escaped-t0", "a/b", "a\\b", "a\0b", "lone\ud800id"])
def test_a_goal_id_that_could_name_a_path_is_refused(hr_bundle, tmp_path, goal_id):
    manager = _manager(hr_bundle, store=FileEventStore(tmp_path / "traces"))
    rule = "must encode as UTF-8" if "lone" in goal_id else "must not contain"
    with pytest.raises(ConfigError, match=rf"^goal id .* {rule}"):
        manager.create_goal("hr", goal_id=goal_id)
    assert manager.goal_ids() == []
    assert not any(tmp_path.rglob("*escaped*"))
    assert not any((tmp_path / "traces").iterdir())


def test_a_goal_id_is_created_once(hr_bundle):
    manager = _manager(hr_bundle)
    manager.create_goal("hr", goal_id="g")
    with pytest.raises(ConflictFault, match="^goal id already exists: 'g'$"):
        manager.create_goal("hr", goal_id="g")
    assert manager.goal_ids() == ["g"]


def test_a_goal_holds_its_lock_on_its_one_entry(hr_bundle):
    manager = _manager(hr_bundle)
    gid, other = manager.create_goal("hr").goal_id, manager.create_goal("hr").goal_id
    live = manager.live(gid)
    assert live.lock is manager.live(gid).lock is not None
    assert live.lock is not manager.live(other).lock
    assert not hasattr(manager, "_locks")
    with live.lock:  # reentrant: a write made under the goal's held lock goes through
        manager.log_event(_event(gid, 1))
    replayed = manager.replay(gid)
    assert replayed.lock is None
    assert replayed == live  # the lock is no part of a goal's state
    assert "lock" not in repr(live)
    with pytest.raises(LookupFault):
        manager.live("ghost")


def test_goal_ids_are_distinct(hr_bundle):
    manager = _manager(hr_bundle)
    a = manager.create_goal("hr")
    b = manager.create_goal("hr")
    assert a.goal_id != b.goal_id


def test_unknown_domain_is_config_fault(hr_bundle):
    manager = _manager(hr_bundle)
    with pytest.raises(ConfigError):
        manager.create_goal("nope")


def test_sgd_goal_starts_at_first_stage():
    from stagegate.scenarios import load_domain
    from stagegate.suites import sgd_domain_dir

    bundle = load_domain(sgd_domain_dir("Banks_1"))
    manager = GoalManager()
    manager.add_domain(bundle.name, bundle.automaton, bundle.registry)
    record = manager.create_goal("Banks_1")
    assert record.current_stage == "CheckBalance"


def test_advance_stage_happy_path_and_terminal_close(hr_bundle):
    manager = _manager(hr_bundle)
    record = manager.create_goal("hr")
    manager.advance_stage(record.goal_id, "init", "src")
    assert manager.goal(record.goal_id).current_stage == "src"
    manager.advance_stage(record.goal_id, "src", "close")
    assert manager.goal(record.goal_id).status == "closed"


def test_advance_rejects_undeclared_transition(hr_bundle):
    manager = _manager(hr_bundle)
    record = manager.create_goal("hr")
    with pytest.raises(ConflictFault):
        manager.advance_stage(record.goal_id, "init", "off")
    assert manager.goal(record.goal_id).current_stage == "init"


def test_advance_to_an_unknown_stage_is_a_conflict(hr_bundle):
    manager = _manager(hr_bundle)
    record = manager.create_goal("hr")
    with pytest.raises(ConflictFault, match="'init' -> 'nowhere' is not declared legal"):
        manager.advance_stage(record.goal_id, "init", "nowhere")
    assert manager.goal(record.goal_id).current_stage == "init"


def test_advance_rejects_stale_from_stage(hr_bundle):
    manager = _manager(hr_bundle)
    record = manager.create_goal("hr")
    with pytest.raises(ConflictFault):
        manager.advance_stage(record.goal_id, "src", "int")


def test_first_event_has_seq_one_and_gaps_fault(hr_bundle):
    manager = _manager(hr_bundle)
    record = manager.create_goal("hr")
    manager.log_event(_event(record.goal_id, 1))
    with pytest.raises(IntegrityFault):
        manager.log_event(_event(record.goal_id, 3))
    with pytest.raises(IntegrityFault):
        manager.log_event(_event(record.goal_id, 1))  # duplicate seq
    manager.log_event(_event(record.goal_id, 2))
    assert manager.last_seq(record.goal_id) == 2


def test_replay_empty_log_reconstructs_initial_state(hr_bundle):
    manager = _manager(hr_bundle)
    record = manager.create_goal("hr")
    result = manager.replay(record.goal_id)
    assert result.record.current_stage == "init"
    assert result.business_state == {}
    assert result.last_seq == 0


def test_replay_folds_success_events(hr_bundle):
    manager = _manager(hr_bundle)
    record = manager.create_goal("hr")
    gid = record.goal_id
    manager.log_event(_event(gid, 1, intent="create_demand", skill_id="create_demand"))
    manager.log_event(
        _event(gid, 2, intent="pull_candidates", skill_id="pull_parse", after="src")
    )
    result = manager.replay(gid)
    assert result.record.current_stage == "src"
    assert result.business_state["position_exists"] is True
    assert result.business_state["candidates_pulled"] is True
    assert result.last_seq == 2


def test_goal_on_a_one_stage_automaton_is_closed_from_creation():
    automaton = automaton_from_dict(
        {"stages": ["only"], "initial": "only", "transitions": [], "intents": ["q"],
         "binding": {"q": ["only"]}, "stage_map": {"q": None}},
    )
    manager = GoalManager()
    manager.add_domain("one", automaton, None)
    assert manager.create_goal("one").status == "closed"


def test_replay_folds_one_context_without_copying_it(hr_run, monkeypatch):
    """Replay owns the state dict it folds, so effects apply to it in place and nothing is copied:
    every effect writes the one dict the rebuilt state holds."""
    clones, folded = [], []
    clone, apply = DispatchContext.clone, memory.apply_postconditions
    monkeypatch.setattr(DispatchContext, "clone", lambda ctx: clones.append(ctx) or clone(ctx))
    monkeypatch.setattr(memory, "apply_postconditions",
                        lambda skill, state, digest: folded.append(state) or apply(skill, state, digest))
    manager = hr_run.manager
    applied = 0
    for gid in manager.goal_ids():
        folded.clear()
        rebuilt = manager.replay(gid)
        assert rebuilt.state() == _live_state(manager, gid)
        assert all(state is rebuilt.business_state for state in folded)
        applied += len(folded)
    assert len(manager.goal_ids()) == 215
    assert applied > 215
    assert clones == []


def test_replay_reproduces_live_state_on_random_domains():
    """Every goal replays to its live state, including goals created at a terminal stage."""
    mismatches = []
    for seed in range(300):
        rng = random.Random(seed)
        domain = random_domain(rng)
        bundle = bundle_from_dicts("rnd", domain)
        manager = GoalManager()
        manager.add_domain("rnd", bundle.automaton, bundle.registry)
        deps = DispatchDeps(
            automaton=bundle.automaton, registry=bundle.registry, table=bundle.table,
            manager=manager, executor=bundle.build_executor(), fallback=bundle.fallback,
        )
        gid = manager.create_goal("rnd").goal_id
        for message in random_messages(rng, domain, 30):
            dispatch(message, gid, deps)
        if manager.replay(gid).state() != _live_state(manager, gid):
            mismatches.append(seed)
    assert mismatches == []


def test_replay_prefix_reconstructs_prefix_state(hr_bundle):
    events = [
        _event("g", 1, intent="create_demand", skill_id="create_demand"),
        _event("g", 2, intent="pull_candidates", skill_id="pull_parse", after="src"),
        _event("g", 3, intent="screen_resume", skill_id="screen", before="src", after="src"),
    ]
    for cut in range(len(events) + 1):
        result = replay_events(
            "g", "hr", *_auto_reg(), events=events[:cut]
        )
        assert result.last_seq == cut
        if cut >= 2:
            assert result.record.current_stage == "src"
        else:
            assert result.record.current_stage == "init"


def _auto_reg():
    from stagegate.scenarios import load_domain
    from stagegate.suites import hr_domain_dir

    bundle = load_domain(hr_domain_dir())
    return bundle.automaton, bundle.registry


def test_replay_seq_gap_names_first_bad_seq(hr_bundle):
    events = [
        _event("g", 1),
        _event("g", 3),
    ]
    with pytest.raises(IntegrityFault) as excinfo:
        replay_events("g", "hr", hr_bundle.automaton, hr_bundle.registry, events=events)
    assert excinfo.value.seq == 3


def test_replay_rejects_an_event_of_another_goal(hr_bundle):
    events = [_event("g", 1), _event("someone-else", 2)]
    with pytest.raises(IntegrityFault) as excinfo:
        replay_events("g", "hr", hr_bundle.automaton, hr_bundle.registry, events=events)
    assert excinfo.value.seq == 2


def test_replay_rejects_stage_change_on_blocked_event(hr_bundle):
    events = [
        _event("g", 1, outcome="ILLEGAL_TRANSITION", after="src", skill_id=None),
    ]
    with pytest.raises(IntegrityFault):
        replay_events("g", "hr", hr_bundle.automaton, hr_bundle.registry, events=events)


def test_replay_rejects_stage_change_on_a_failed_execution(hr_bundle):
    """A SUCCESS with a sub-reason commits nothing, so it cannot move the stage either."""
    forged = _event("g", 1, intent="pull_candidates", skill_id="pull_parse", after="src",
                    sub_reason="execution_error")
    with pytest.raises(IntegrityFault, match="seq 1 commits nothing but changes stage") as excinfo:
        replay_events("g", "hr", hr_bundle.automaton, hr_bundle.registry, events=[forged])
    assert excinfo.value.seq == 1


@pytest.mark.parametrize("after", ["onb", "nowhere"])  # hr declares no init -> onb; no stage nowhere
def test_replay_rejects_an_undeclared_transition(hr_bundle, after):
    """Replay holds a committing event to the transition relation advance_stage enforces."""
    forged = _event("g", 1, intent="create_demand", skill_id="create_demand", after=after)
    with pytest.raises(IntegrityFault, match=f"seq 1 moves 'init' -> '{after}'") as excinfo:
        replay_events("g", "hr", hr_bundle.automaton, hr_bundle.registry, events=[forged])
    assert excinfo.value.seq == 1


def test_replay_rejects_a_broken_stage_chain(hr_bundle):
    events = [_event("g", 1), _event("g", 2, before="src", after="src")]
    with pytest.raises(IntegrityFault, match="stage chain broken at seq 2") as excinfo:
        replay_events("g", "hr", hr_bundle.automaton, hr_bundle.registry, events=events)
    assert excinfo.value.seq == 2


def test_replay_rejects_a_success_event_of_an_unknown_skill(hr_bundle):
    events = [_event("g", 1), _event("g", 2, skill_id="ghost")]
    with pytest.raises(IntegrityFault, match="seq 2 references unknown skill 'ghost'") as excinfo:
        replay_events("g", "hr", hr_bundle.automaton, hr_bundle.registry, events=events)
    assert excinfo.value.seq == 2


def test_replay_rejects_a_committing_event_without_a_skill(hr_bundle):
    """A SUCCESS with no sub-reason must name the skill whose effects it commits."""
    forged = _event("g", 1, intent="create_demand", after="onb", skill_id=None)
    with pytest.raises(IntegrityFault, match="seq 1 references unknown skill None") as excinfo:
        replay_events("g", "hr", hr_bundle.automaton, hr_bundle.registry, events=[forged])
    assert excinfo.value.seq == 1


def test_replay_rejects_a_retained_payload_that_does_not_match_its_digest(hr_bundle):
    body = canonical({"positions": []})
    events = [_event("g", seq)._replace(payload_digest=payload_digest(body)) for seq in (1, 2)]
    retained = {1: body, 2: body + b" "}
    with pytest.raises(IntegrityFault, match="payload digest mismatch at seq 2") as excinfo:
        replay_events("g", "hr", hr_bundle.automaton, hr_bundle.registry, events=events,
                      payload_lookup=lambda goal_id, seq: retained[seq])
    assert excinfo.value.seq == 2


def test_events_are_append_only_surface(hr_bundle):
    manager = _manager(hr_bundle)
    assert not hasattr(manager.store, "delete")
    assert not hasattr(manager.store, "update")


def test_events_are_immutable_and_round_trip():
    events = [
        _event("g", 1),
        ProcessEvent(
            seq=2, timestamp=1792300000.25, goal_id="g", intent="screen_resume",
            stage_before="src", stage_after="scr", skill_id="screen_resume", outcome="SUCCESS",
            precondition_results=(("position_exists", True), ("candidates_pulled", False)),
            payload_digest="ab" * 32,
        ),
    ]
    for record in events:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    for event in events:
        assert ProcessEvent.from_dict(json.loads(event.to_line())) == event


def test_file_store_round_trip_and_snapshot(tmp_path, hr_bundle):
    store = FileEventStore(tmp_path)
    manager = _manager(hr_bundle, store=store)
    record = manager.create_goal("hr", goal_id="file-goal")
    manager.log_event(_event("file-goal", 1, intent="create_demand", skill_id="create_demand"))
    manager.commit_context("file-goal", manager.context("file-goal"))
    manager.write_snapshots()

    trace_path = tmp_path / "file-goal.jsonl"
    assert trace_path.exists()
    events = load_trace(trace_path)
    assert len(events) == 1 and events[0].intent == "create_demand"

    snapshot = json.loads((tmp_path / "file-goal.snapshot.json").read_text())
    assert snapshot["current_stage"] == "init"
    assert snapshot["last_seq"] == 1
    state = _live_state(manager, "file-goal")
    assert set(snapshot) == {"goal_id", "domain", *state}
    assert {key: snapshot[key] for key in state} == state


def test_trace_line_key_order_is_stable(hr_bundle):
    event = _event("g", 1)
    keys = list(json.loads(event.to_line()).keys())
    assert keys == [
        "seq", "timestamp", "goal_id", "intent", "stage_before", "stage_after",
        "skill_id", "outcome", "sub_reason", "precondition_results", "payload_digest",
    ]


def test_the_field_table_is_the_event_schema():
    """One table writes, reads and type-checks the line: it names every field, in order."""
    assert tuple(_EVENT_FIELD_TYPES) == ProcessEvent._fields
    assert not hasattr(ProcessEvent, "to_dict")


def test_shared_encoders_write_what_json_dumps_writes():
    bundles = [hr_domain_dir(), *map(sgd_domain_dir, SGD_DOMAINS)]
    payloads = [
        payload
        for directory in bundles
        for payload in json.loads((directory / "fixtures.json").read_text()).values()
    ]
    assert len(bundles) == 9 and payloads
    for payload in [*payloads, {"path": Path("a/b"), "n": [1.5, None, "\u00e9"]}]:
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
        assert payload_digest(canonical(payload)) == hashlib.sha256(canon.encode("utf-8")).hexdigest()
    event = ProcessEvent(
        seq=7, timestamp=1792300000.25, goal_id="g\u00e9", intent="screen_resume",
        stage_before="src", stage_after="src", skill_id="screen_resume", outcome="SUCCESS",
        precondition_results=(("position_exists", True), ("candidates_pulled", False)),
        payload_digest="ab" * 32,
    )
    assert event.to_line() == json.dumps(event._asdict(), separators=(",", ":"))


def test_file_store_writes_the_line_and_the_snapshot_text_exactly(tmp_path, hr_bundle):
    manager = _manager(hr_bundle, store=FileEventStore(tmp_path))
    manager.create_goal("hr", goal_id="g")
    events = [_event("g", 1), _event("g", 2)]
    for event in events:
        manager.log_event(event)
    manager.store.write_snapshot(_goal("g", {"padding": "x" * 1000}))
    manager.write_snapshots()  # replaces the longer text, leaving no tail behind
    lines = "".join(event.to_line() + "\n" for event in events)
    assert (tmp_path / "g.jsonl").read_bytes() == lines.encode()
    snapshot = {"goal_id": "g", "domain": "hr"} | _live_state(manager, "g")
    text = json.dumps(snapshot, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "g.snapshot.json").read_bytes() == text.encode()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_file_store_modes_are_those_open_gives(tmp_path, umask):
    store = FileEventStore(tmp_path / "store")
    previous = os.umask(umask)
    try:
        store.append(_event("g", 1))
        store.write_snapshot(_goal("g", last_seq=1))
        with open(tmp_path / "reference.jsonl", "a"):
            pass
    finally:
        os.umask(previous)
    expected = stat.S_IMODE((tmp_path / "reference.jsonl").stat().st_mode)
    for name in ("g.jsonl", "g.snapshot.json"):
        assert stat.S_IMODE((tmp_path / "store" / name).stat().st_mode) == expected


def test_file_store_finishes_short_writes(tmp_path, monkeypatch):
    store = FileEventStore(tmp_path)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:1])))
    events = [_event("g", seq) for seq in range(1, 4)]
    for event in events:
        store.append(event)
    goal = _goal("g", {"position_exists": True}, last_seq=3)
    store.write_snapshot(goal)
    monkeypatch.undo()
    assert load_trace(tmp_path / "g.jsonl") == events
    assert (tmp_path / "g.snapshot.json").read_text() == _snapshot_text(goal)


def test_trace_reads_finish_one_byte_reads(tmp_path, monkeypatch):
    store = FileEventStore(tmp_path)
    events = [_event("g", seq) for seq in range(1, 4)]
    for event in events:
        store.append(event)
    real_read = os.read
    monkeypatch.setattr(os, "read", lambda fd, size: real_read(fd, 1))
    assert load_trace(tmp_path / "g.jsonl") == events
    assert store.events_for("g") == events


def test_trace_longer_than_one_read_loads_completely(tmp_path):
    store = FileEventStore(tmp_path)
    events = [_event("g", seq) for seq in range(1, 401)]
    for event in events:
        store.append(event)
    assert (tmp_path / "g.jsonl").stat().st_size > 1 << 16
    assert load_trace(tmp_path / "g.jsonl") == events


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
def test_trace_read_faults_leave_no_descriptor_open(tmp_path):
    (tmp_path / "undecodable.jsonl").write_bytes(b"\xff\n")
    (tmp_path / "unparseable.jsonl").write_text("not json\n")
    (tmp_path / "directory.jsonl").mkdir()
    faults = {"undecodable": (IntegrityFault, "undecodable trace"),
              "unparseable": (IntegrityFault, "unparseable trace line 1"),
              "directory": (IsADirectoryError, None)}
    before = len(os.listdir("/proc/self/fd"))
    for name, (fault, message) in faults.items():
        for _ in range(100):
            with pytest.raises(fault, match=message):
                load_trace(tmp_path / f"{name}.jsonl")
    assert len(os.listdir("/proc/self/fd")) <= before


def test_two_stores_on_one_directory_append_whole_lines(tmp_path):
    stores = [FileEventStore(tmp_path), FileEventStore(tmp_path)]
    events = [_event("g", seq) for seq in range(1, 21)]
    for event in events:
        stores[event.seq % 2].append(event)
    assert load_trace(tmp_path / "g.jsonl") == events


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
def test_file_store_leaves_no_descriptor_open(tmp_path):
    store = FileEventStore(tmp_path)
    before = len(os.listdir("/proc/self/fd"))
    for seq in range(1, 101):
        store.append(_event("g", seq))
    store.write_snapshot(_goal("g", last_seq=100))
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
def test_file_store_reads_an_unknown_goal_as_no_events(tmp_path):
    store = FileEventStore(tmp_path)
    event = _event("g", 1)
    store.append(event)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(100):
        assert store.events_for("unknown") == []
        assert store.events_for("g") == [event]
    assert len(os.listdir("/proc/self/fd")) == before


def test_corrupt_trace_line_is_integrity_fault(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq": 1, "timestamp": 0}\nnot json\n', encoding="utf-8")
    with pytest.raises(IntegrityFault):
        load_trace(path)


_TEXT = st.text(max_size=6)
_JSON_BY_TYPE = {
    "null": st.none(), "bool": st.booleans(), "int": st.integers(),
    "float": st.floats(allow_nan=False), "str": _TEXT,
    "list": st.lists(st.integers() | _TEXT, max_size=3),
    "object": st.dictionaries(_TEXT, st.integers() | _TEXT, max_size=3),
}
_ANY_JSON = st.one_of(*_JSON_BY_TYPE.values())
_VALID_FIELDS = {
    "seq": st.integers(0, 10**6), "timestamp": st.integers(0) | st.floats(0, 2e9),
    "goal_id": _TEXT, "intent": _TEXT, "stage_before": _TEXT, "stage_after": _TEXT,
    "skill_id": st.none() | _TEXT, "outcome": _TEXT, "sub_reason": st.none() | _TEXT,
    "precondition_results": st.lists(st.tuples(_TEXT, st.booleans()).map(list), max_size=3),
    "payload_digest": st.none() | _TEXT,
}
_BAD_PRECONDITION = st.one_of(
    st.tuples(_ANY_JSON, _ANY_JSON).map(list), st.lists(_ANY_JSON, max_size=4), _ANY_JSON)
_FAULTS = ("swapped", "missing", "extra", "bad-precondition")
# text around an event's JSON: none, JSON whitespace that ends no line, or data after the value
_DRESSINGS = (("", ""),) * 4 + ((" ", ""), ("", "\t"), ("\t ", " "), ("", "x"), ("", " {}"), ("", "]"))


@st.composite
def _trace_line(draw) -> str:
    """One trace line: an event with up to two faults, maybe padded or followed by junk; a blank
    line or junk."""
    kind = draw(st.sampled_from(("event", "event", "event", "blank", "junk")))
    if kind == "blank":
        return draw(st.sampled_from(("", " ", "\t ")))
    if kind == "junk":
        return draw(st.text(max_size=12))
    raw = {key: draw(values) for key, values in _VALID_FIELDS.items()}
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        if fault == "swapped":
            json_type = draw(st.sampled_from(sorted(_JSON_BY_TYPE)))
            raw[draw(st.sampled_from(sorted(_VALID_FIELDS)))] = draw(_JSON_BY_TYPE[json_type])
        elif fault == "missing":
            raw.pop(draw(st.sampled_from(sorted(_VALID_FIELDS))), None)
        elif fault == "extra":
            extra = st.dictionaries(_TEXT.filter(lambda key: key not in _VALID_FIELDS), _ANY_JSON,
                                    min_size=1, max_size=3)
            raw |= draw(extra)
        else:
            raw["precondition_results"] = draw(st.lists(_BAD_PRECONDITION, min_size=1, max_size=3))
    before, after = draw(st.sampled_from(_DRESSINGS))
    return before + json.dumps(raw, ensure_ascii=draw(st.booleans())) + after


@st.composite
def _trace_file(draw) -> bytes:
    """Lines ended by LF, CRLF, CR or nothing, maybe after a BOM, maybe with bytes that are not UTF-8."""
    lines = draw(st.lists(_trace_line(), max_size=6))
    ends = st.sampled_from(("\n", "\n", "\r\n", "\r", ""))
    data = "".join(line + draw(ends) for line in lines).encode()
    data = draw(st.sampled_from((b"", b"", b"", codecs.BOM_UTF8))) + data
    invalid = draw(st.sampled_from((b"", b"", b"", b"", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80")))
    at = draw(st.integers(0, len(data)))
    return data[:at] + invalid + data[at:]


def _read_outcome(reader, path):
    """The events *reader* loads from *path*, or the text of the IntegrityFault it raises."""
    try:
        return reader(path)
    except IntegrityFault as exc:
        return f"IntegrityFault: {exc}"


# the fields that are always strings, and one value of each JSON type, and precondition entries
# that are not [name, passed]
_STRING_FIELDS = ("goal_id", "intent", "stage_before", "stage_after", "outcome")
_JSON_SAMPLES = (None, True, 1, 1.5, "x", ["x"], {"x": 1})
_BAD_PRECONDITIONS = (["x", 1], [1, True], ["x"], ["x", True, 1], "xy", 1, None, {"x": 1, "y": True})


def test_each_field_at_each_json_type_reads_as_the_reference_reader(tmp_path):
    """Every field missing, at every JSON type, or holding each malformed precondition entry;
    every pair of fields both missing and both at a wrong type, so the first fault of each pair
    is named; a leading BOM, CRLF line ends with a blank line, and a byte that is not UTF-8; an
    event led or trailed by JSON whitespace or followed by data, and a raw U+2028 in a string,
    which ends the line there."""
    event = json.loads(_event("g", 1).to_line()) | {"precondition_results": [["ok", True]]}
    raws = [event, event | {"extra": [1]}]
    for key in event:
        raws.append({k: v for k, v in event.items() if k != key})
        raws.extend(event | {key: sample} for sample in _JSON_SAMPLES)
    for pair in itertools.combinations(event, 2):  # an object is no field's type
        raws.append({k: v for k, v in event.items() if k not in pair})
        raws.append(event | dict.fromkeys(pair, {"x": 1}))
    raws.extend(event | {"precondition_results": [["ok", True], bad]} for bad in _BAD_PRECONDITIONS)
    raws.append({k: v for k, v in event.items() if k != "outcome"} | {"seq": True})  # first fault first
    for end in range(1, 6):  # the first one to five string fields all at one other type
        raws.append(event | dict.fromkeys(_STRING_FIELDS[:end], 1))
    raws.append({k: v for k, v in event.items() if k != "payload_digest"}
                | {"precondition_results": [[1, True]]})  # the pairs are checked last
    path = tmp_path / "g.jsonl"
    outcomes = set()
    for raw in raws:
        path.write_text(json.dumps(raw) + "\n")
        outcome = _read_outcome(load_trace, path)
        assert outcome == _read_outcome(reference_load_trace, path), raw
        outcomes.add(outcome if isinstance(outcome, str) else "events")
    assert len(outcomes) > 40  # each fault names its own field and type
    line = json.dumps(event).encode()
    split = json.dumps(event | {"goal_id": "a\u2028b"}, ensure_ascii=False).encode()
    for data in (codecs.BOM_UTF8 + line, line + b"\r\n\r\n" + line, line + b"\n\xff",
                 b" " + line, line + b"\t", line + b"x", line + line,
                 line + b"\n" + codecs.BOM_UTF8 + line, split):
        path.write_bytes(data)
        assert _read_outcome(load_trace, path) == _read_outcome(reference_load_trace, path), data


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_trace_file())
def test_load_trace_reads_as_the_reference_reader(tmp_path, data):
    """Same events, or the same fault (same line number, same text), as a text-stream reader."""
    path = tmp_path / "g.jsonl"
    path.write_bytes(data)
    assert _read_outcome(load_trace, path) == _read_outcome(reference_load_trace, path)


# any code point, lone surrogates included, with the characters JSON escapes drawn often
_ANY_TEXT = st.text(st.integers(0, sys.maxunicode).map(chr) | st.sampled_from('"\\\0\n\x1f\x7f\u2028\ud800\udfff'),
                    max_size=8)
_WRITER_FIELDS = _VALID_FIELDS | {
    "seq": _VALID_FIELDS["seq"] | st.integers(2**62, 2**66) | st.integers(),
    "timestamp": _VALID_FIELDS["timestamp"] | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from((-0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1e16)),
    **dict.fromkeys(("goal_id", "intent", "stage_before", "stage_after", "outcome"), _ANY_TEXT),
    **dict.fromkeys(("skill_id", "sub_reason", "payload_digest"), st.none() | _ANY_TEXT),
    "precondition_results": st.lists(st.tuples(_ANY_TEXT, st.booleans()), max_size=3).map(tuple),
}


def _joined_by_json(text):
    """Whether JSON reads *text* back as another string: a high surrogate then a low one, each escaped,
    are one character."""
    return text.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass") != text


@settings(max_examples=400, deadline=None)
@given(st.fixed_dictionaries(_WRITER_FIELDS))
def test_the_trace_line_is_what_json_dumps_writes(raw):
    """Any event at its exact field types: the line json writes, read back as the event and written
    again as the same line; an event with a string JSON would read back as another is refused."""
    event = ProcessEvent(**raw)
    texts = [value for value in event if type(value) is str]
    texts += [name for name, _ in event.precondition_results]
    if any(map(_joined_by_json, texts)):
        with pytest.raises(ValueError, match=" holds a high surrogate then a low one, read back as one "):
            event.to_line()
        return
    line = event.to_line()
    assert line == json.dumps(event._asdict(), separators=(",", ":"))
    read = ProcessEvent.from_dict(json.loads(line))
    assert read == event
    assert read.to_line() == line


def test_a_line_the_guard_refuses_and_the_walk_accepts_is_an_error(tmp_path):
    """The guard takes a pair that is a list or a tuple; any other pair the key-by-key walk would
    unpack cleanly is refused loudly, never read as an event nor written as a line."""
    raw = json.loads(_event("g", 1).to_line())
    read = ProcessEvent.from_dict(raw | {"precondition_results": [("ok", True), ["no", False]]})
    assert read.precondition_results == (("ok", True), ("no", False))
    refused = "^the trace line's guard refused values with no fault: "
    with pytest.raises(AssertionError, match=refused):
        ProcessEvent.from_dict(raw | {"precondition_results": [{"ok": 1, True: 2}]})
    with pytest.raises(AssertionError, match=refused):
        FileEventStore(tmp_path).append(_event("g", 1)._replace(precondition_results=({"ok": 1, True: 2},)))
    assert list(tmp_path.iterdir()) == []


def _outcome(call):
    """What *call* returns, or the type and text of what it raises."""
    try:
        return call()
    except (TypeError, ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def test_the_writer_refuses_exactly_what_the_reader_refuses():
    """Every field at every JSON type, and every malformed precondition pair: the event the writer
    is handed and the line the reader is handed are both accepted or both refused with one fault."""
    event = json.loads(_event("g", 1).to_line()) | {"precondition_results": [["ok", True]]}
    raws = [event | {key: sample} for key in event for sample in _JSON_SAMPLES]
    raws += [event | {"precondition_results": [["ok", True], bad]} for bad in _BAD_PRECONDITIONS]
    assert len(raws) == 85
    for raw in raws:
        written = _outcome(lambda: ProcessEvent(**raw).to_line())
        read = _outcome(lambda: ProcessEvent.from_dict(raw))
        if isinstance(written, str) and isinstance(read, ProcessEvent):
            continue
        assert written == read, raw


# a JSON scalar of every kind: any string, ints past 64 bits, the floats json spells oddly
_SCALARS = (
    _ANY_TEXT | st.integers() | st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63)) | st.floats()
    | st.sampled_from((-0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf")))
    | st.booleans() | st.none()
)
# keys whose code-point order is not their case-folded order
_STATE_KEYS = _ANY_TEXT | st.sampled_from(("a", "B", "b", "_", "Z", "\u00e9", "\u00c9", "\u00df", "aB", "Ab"))
# a name a file can have, with the characters JSON escapes drawn often
_FILE_NAME = st.text(
    st.integers(0, sys.maxunicode).map(chr).filter(lambda c: c not in "/\0" and not "\ud800" <= c <= "\udfff")
    | st.sampled_from('"\\\n\x1f\x7f\u2028\u00e9\U0001f600'),
    max_size=8,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(goal_id=_FILE_NAME, domain=_ANY_TEXT, stage=_ANY_TEXT, closed=st.booleans(),
       state=st.dictionaries(_STATE_KEYS, _SCALARS, max_size=6), last_seq=st.integers(0, 2**70))
def test_the_snapshot_is_what_json_dumps_writes(tmp_path, goal_id, domain, stage, closed, state, last_seq):
    """Any goal, active or closed, with a business state of JSON scalars (the empty one among them):
    the snapshot file holds exactly the text json writes."""
    goal = _goal(goal_id, state, last_seq, domain, stage, closed)
    FileEventStore(tmp_path).write_snapshot(goal)
    data = (tmp_path / f"{goal_id}.snapshot.json").read_bytes()
    assert data == _snapshot_text(goal).encode()
    assert json.loads(data)["status"] == ("closed" if closed else "active")


class _Text(str):
    """A ``str`` subclass: json writes it as a string, but from_dict reads no such type."""


@pytest.mark.parametrize(("fields", "fault", "reported"), [
    ({"seq": True}, TypeError, "seq has type bool"),
    ({"timestamp": float("nan")}, ValueError, "timestamp nan is not finite"),
    ({"timestamp": float("inf")}, ValueError, "timestamp inf is not finite"),
    ({"timestamp": float("-inf")}, ValueError, "timestamp -inf is not finite"),
    ({"precondition_results": (("position_exists", 1),)}, TypeError, "precondition result has type int"),
    ({"goal_id": 7}, TypeError, "goal_id has type int"),
    # one row per _EVENT_FIELD_TYPES entry, each field at a type outside its own
    ({"seq": 1.0}, TypeError, "seq has type float"),
    ({"timestamp": "1.5"}, TypeError, "timestamp has type str"),
    ({"goal_id": _Text("g")}, TypeError, "goal_id has type _Text"),
    ({"intent": None}, TypeError, "intent has type NoneType"),
    ({"stage_before": 1}, TypeError, "stage_before has type int"),
    ({"stage_after": b"init"}, TypeError, "stage_after has type bytes"),
    ({"skill_id": 5}, TypeError, "skill_id has type int"),
    ({"outcome": _Text("SUCCESS")}, TypeError, "outcome has type _Text"),
    ({"sub_reason": ["x"]}, TypeError, "sub_reason has type list"),
    ({"precondition_results": "ab"}, TypeError, "precondition_results has type str"),
    ({"payload_digest": 1.0}, TypeError, "payload_digest has type float"),
    (dict.fromkeys(_STRING_FIELDS, _Text("g")), TypeError, "goal_id has type _Text"),
    # a high surrogate then a low one: json writes two escapes and reads back one character
    ({"intent": "a\ud800\udfffb"}, ValueError,
     "intent holds a high surrogate then a low one, read back as one character"),
    ({"precondition_results": (("ok", True), ("\udbff\udc00", False))}, ValueError,
     "precondition name holds a high surrogate then a low one, read back as one character"),
], ids=["bool-seq", "nan-timestamp", "inf-timestamp", "minus-inf-timestamp", "int-flag", "int-goal-id",
        "float-seq", "str-timestamp", "str-subclass-goal-id", "null-intent", "int-stage-before",
        "bytes-stage-after", "int-skill-id", "str-subclass-outcome", "list-sub-reason", "str-pairs",
        "float-payload-digest", "str-subclass-strings", "surrogate-pair-intent", "surrogate-pair-flag"])
def test_the_file_store_refuses_an_event_it_cannot_write_exactly(tmp_path, fields, fault, reported):
    """An event json would write differently, or from_dict would refuse, raises before a byte is written;
    a refused type names its field."""
    store = FileEventStore(tmp_path)
    store.append(_event("g", 1))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    with pytest.raises(fault, match=f"^{reported}$"):
        store.append(_event("g", 2)._replace(**fields))
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_concurrent_multi_goal_logging_stays_gapless(hr_bundle):
    manager = _manager(hr_bundle)
    goals = [manager.create_goal("hr").goal_id for _ in range(4)]

    def writer(gid):
        for _ in range(50):
            with manager.live(gid).lock:
                seq = manager.last_seq(gid) + 1
                manager.log_event(_event(gid, seq))

    threads = [threading.Thread(target=writer, args=(gid,)) for gid in goals for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for gid in goals:
        seqs = [e.seq for e in manager.store.events_for(gid)]
        assert seqs == list(range(1, 101))
