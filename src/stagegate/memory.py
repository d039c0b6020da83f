"""Goal-scoped governance memory: goal records, append-only events, and replay.

The GoalManager owns each goal's record, business state and event log.
Stage changes go through validated advancement, every dispatch step appends
exactly one immutable ProcessEvent, and any goal can be reconstructed by
folding its event log from the beginning.

Two storage backends ship: an in-memory store for tests and a file-backed
append-only event log (JSONL per goal, plus a JSON snapshot) that outlives
the process.  The interface leaves room for a SQL backend.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from .automaton import StageId, IntentId, WorkflowAutomaton
from .context import DispatchContext, payload_digest
from .errors import ConfigError, ConflictFault, IntegrityFault, LookupFault, file_safe_id
from .registry import SkillRegistry, apply_postconditions

_STR, _STR_OR_NULL, _PAIRS = (str,), (str, type(None)), (tuple, list)
# The event's one schema: every ProcessEvent field in order, with the exact types its trace
# line holds; the pairs, and each [name, passed] pair in them, are a sequence of ``_PAIRS``.
_EVENT_FIELD_TYPES = {
    "seq": (int,), "timestamp": (int, float), "goal_id": _STR, "intent": _STR,
    "stage_before": _STR, "stage_after": _STR, "skill_id": _STR_OR_NULL, "outcome": _STR,
    "sub_reason": _STR_OR_NULL, "precondition_results": _PAIRS, "payload_digest": _STR_OR_NULL,
}
_FIELD_VALUES = itemgetter(*_EVENT_FIELD_TYPES)  # a line's eleven values, in field order
# ``json``'s encoder for one business-state scalar: its C path, NaN and Infinity as json writes them
_SCALAR = json.JSONEncoder().encode
# ``json``'s scanner for one value at an index, C where it is built: ``load_trace``'s parse
_SCAN = json.JSONDecoder().scan_once
# a high surrogate then a low one: json writes two escapes and reads them back as one character
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
_APPEND = os.O_WRONLY | os.O_CREAT | os.O_APPEND
_REPLACE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _write(path: str, flags: int, data: bytes) -> None:
    """Write all of *data* to *path*; a new file gets 0o666 less the umask, as with ``open``."""
    fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _read(path: str | Path) -> bytes:
    """All of *path*'s bytes, read through one descriptor until ``os.read`` returns none."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        os.close(fd)


def _typed(value: Any, types: tuple[type, ...], name: str) -> Any:
    """*value* itself when its exact type is one of *types*; nothing is coerced."""
    if type(value) not in types:
        raise TypeError(f"{name} has type {type(value).__name__}")
    return value


def _fits(values: tuple) -> bool:
    """Whether an event's eleven values, in field order, are each at an exact type of
    ``_EVENT_FIELD_TYPES``, every pair a two-item list or tuple of a str then a bool: the
    trace line's one guard, which ``to_line`` and ``from_dict`` share."""
    seq, timestamp, goal_id, intent, before, after, skill_id, outcome, sub_reason, pairs, digest = values
    if not (type(seq) is int and type(timestamp) in (int, float)
            and type(goal_id) is type(intent) is type(before) is type(after) is type(outcome) is str
            and type(skill_id) in _STR_OR_NULL and type(sub_reason) in _STR_OR_NULL
            and type(digest) in _STR_OR_NULL and type(pairs) in _PAIRS):
        return False
    for pair in pairs:
        if not (type(pair) in _PAIRS and len(pair) == 2 and type(pair[0]) is str and type(pair[1]) is bool):
            return False
    return True


class ProcessEvent(NamedTuple):
    """One append-only audit record; the unit of trace grading and replay."""

    seq: int
    timestamp: float
    goal_id: str
    intent: IntentId
    stage_before: StageId
    stage_after: StageId
    skill_id: str | None
    outcome: str
    sub_reason: str | None = None
    precondition_results: tuple[tuple[str, bool], ...] = ()
    payload_digest: str | None = None

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ProcessEvent":
        """The event a trace line's object holds: every field at its exact type, else its first fault.

        The eleven keys are read at once and accepted through ``_fits``; a line it refuses
        is named by ``_line_fault``, in field order with the pairs last.
        """
        try:
            values = _FIELD_VALUES(raw)
        except (KeyError, TypeError):
            pass
        else:
            if _fits(values):
                seq, stamp, goal, intent, before, after, skill, outcome, reason, pairs, digest = values
                return cls._make((seq, stamp, goal, intent, before, after, skill, outcome, reason,
                                  tuple(map(tuple, pairs)) if pairs else (), digest))
        raise _line_fault(raw)

    def to_line(self) -> str:
        """The trace line: a JSON object of the fields in order, pairs written as arrays.

        Its text is ``json.dumps(self._asdict(), separators=(",", ":"))``, formatted here with
        the escaper and number reprs ``json`` uses.  An event ``_fits`` refuses raises the fault
        ``from_dict`` raises for the same values, and a timestamp that is not finite raises
        ValueError: no line is written that is not JSON or that ``from_dict`` refuses.  So does
        a string holding a high surrogate then a low one, which JSON reads back as one
        character; a lone surrogate is written.
        """
        if not _fits(self):
            raise _line_fault(self._asdict())
        seq, timestamp, goal_id, intent, before, after, skill_id, outcome, sub_reason, pairs, digest = self
        if type(timestamp) is int:
            stamp = int.__repr__(timestamp)
        elif math.isfinite(timestamp):
            stamp = float.__repr__(timestamp)
        else:
            raise ValueError(f"timestamp {timestamp!r} is not finite")
        flags = (",".join([f"[{_json_str(name)},{'true' if held else 'false'}]" for name, held in pairs])
                 if pairs else "")
        line = (
            f'{{"seq":{int.__repr__(seq)},"timestamp":{stamp},"goal_id":{_json_str(goal_id)},'
            f'"intent":{_json_str(intent)},"stage_before":{_json_str(before)},'
            f'"stage_after":{_json_str(after)},'
            f'"skill_id":{"null" if skill_id is None else _json_str(skill_id)},'
            f'"outcome":{_json_str(outcome)},'
            f'"sub_reason":{"null" if sub_reason is None else _json_str(sub_reason)},'
            f'"precondition_results":[{flags}],'
            f'"payload_digest":{"null" if digest is None else _json_str(digest)}}}'
        )
        if "\\" in line:  # every surrogate is written escaped, so a line without one holds no pair
            _refuse_surrogate_pairs(self)
        return line


def _refuse_surrogate_pairs(event: ProcessEvent) -> None:
    """Raise ValueError naming *event*'s first string, in field order, that holds a surrogate pair."""
    flags = [("precondition name", name) for name, _ in event.precondition_results]
    for name, value in [*zip(ProcessEvent._fields, event), *flags]:
        if type(value) is str and _SURROGATE_PAIR.search(value):
            raise ValueError(f"{name} holds a high surrogate then a low one, read back as one character")


def _line_fault(raw: Any) -> AssertionError:
    """Raise the first fault of the values ``_fits`` refused, a line's object or an event's fields:
    each field but the pairs in field order, missing or outside its exact types, then the pairs.
    Values with no fault here are returned as an AssertionError to raise: ``_fits`` erred.
    """
    for key, types in _EVENT_FIELD_TYPES.items():
        if types is not _PAIRS:
            _typed(raw[key], types, key)
    for name, held in _typed(raw["precondition_results"], _PAIRS, "precondition_results"):
        _typed(name, _STR, "precondition name")
        _typed(held, (bool,), "precondition result")
    return AssertionError(f"the trace line's guard refused values with no fault: {raw!r}")


@dataclass
class GoalRecord:
    goal_id: str
    domain: str
    current_stage: StageId
    terminals: frozenset[StageId] = field(repr=False, compare=False)  # the automaton's terminal stages

    @property
    def status(self) -> str:
        """A goal is closed exactly when its stage is terminal, from creation on."""
        return "closed" if self.current_stage in self.terminals else "active"


class InMemoryEventStore:
    """Per-goal event lists; committed payloads' canonical bytes kept for digest checks."""

    def __init__(self) -> None:
        self._events: dict[str, list[ProcessEvent]] = {}
        self._payloads: dict[tuple[str, int], bytes] = {}
        self._lock = threading.Lock()

    def append(self, event: ProcessEvent, payload: bytes | None = None) -> None:
        with self._lock:
            self._events.setdefault(event.goal_id, []).append(event)
            if payload is not None:
                self._payloads[(event.goal_id, event.seq)] = payload

    def events_for(self, goal_id: str) -> list[ProcessEvent]:
        with self._lock:
            return list(self._events.get(goal_id, []))

    def payload_for(self, goal_id: str, seq: int) -> bytes | None:
        return self._payloads.get((goal_id, seq))


class FileEventStore:
    """Append-only JSONL trace per goal with a JSON snapshot alongside.

    Each event is one ``write(2)`` of its whole line at the end of the trace
    file (opened ``O_APPEND`` for that write alone), made before the dispatch
    result surfaces to the caller, so other readers of the file see the event
    and it survives a crash of this process.  There is no ``fsync``: a crash
    of the machine may still lose it.  ``events_for`` reads the whole trace
    through ``load_trace``, one descriptor per call; no trace file is no events.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(self.directory, "")
        self._lock = threading.Lock()

    def append(self, event: ProcessEvent, payload: bytes | None = None) -> None:
        data = (event.to_line() + "\n").encode()
        with self._lock:
            _write(f"{self._prefix}{event.goal_id}.jsonl", _APPEND, data)

    def events_for(self, goal_id: str) -> list[ProcessEvent]:
        try:
            return load_trace(f"{self._prefix}{goal_id}.jsonl")
        except FileNotFoundError:
            return []  # a goal with no events has no trace file

    def payload_for(self, goal_id: str, seq: int) -> bytes | None:
        return None

    def write_snapshot(self, goal: GoalState) -> None:
        """Replace *goal*'s snapshot file with its ids and observable state as JSON.

        The text is ``json.dumps(snapshot, sort_keys=True, indent=2) + "\\n"`` of the
        snapshot ``goal_id``, ``domain`` and ``goal.state()`` make, formatted here: each
        string through the escaper ``json`` uses and each business-state value, a JSON
        scalar, through ``json``'s own encoder, so NaN, Infinity and big ints come out
        as ``json`` writes them.
        """
        record, state = goal.record, goal.business_state
        items = ",\n".join([f"    {_json_str(key)}: {_SCALAR(state[key])}" for key in sorted(state)])
        business = f"{{\n{items}\n  }}" if items else "{}"
        text = (
            f'{{\n  "business_state": {business},\n  "current_stage": {_json_str(record.current_stage)},\n'
            f'  "domain": {_json_str(record.domain)},\n  "goal_id": {_json_str(record.goal_id)},\n'
            f'  "last_seq": {int.__repr__(goal.last_seq)},\n  "status": {_json_str(record.status)}\n}}\n'
        )
        _write(f"{self._prefix}{record.goal_id}.snapshot.json", _REPLACE, text.encode())


def load_trace(path: str | Path) -> list[ProcessEvent]:
    """Read a JSONL trace file into events (no integrity checks here).

    Its bytes come through one descriptor and are decoded as UTF-8 once.
    Bytes that are not UTF-8 raise IntegrityFault "undecodable trace"; a
    non-blank line that is not an event, IntegrityFault "unparseable trace
    line N"; a missing file, FileNotFoundError; any other read failure, OSError.

    Each non-blank line is read by ``json``'s scanner from index 0, and through
    ``json.loads`` only when the scanner finds no value there (StopIteration) or
    stops before the line's end: JSON whitespace around the value, more data
    after it, or a BOM.  The object or fault is ``json.loads(line)``'s, since
    ``json.loads`` is that same scan from the end of any leading whitespace, then
    a check that only whitespace follows: a line that starts with no whitespace
    is scanned from 0 by both, so a scan that reaches the end returns the same
    object, and a scan that raises JSONDecodeError partway raises the same one.
    """
    try:
        text = _read(path).decode()
    except UnicodeDecodeError as exc:
        raise IntegrityFault(f"undecodable trace {path}: {exc}") from None
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            try:
                raw, end = _SCAN(line, 0)
            except StopIteration:  # no value at index 0: leading whitespace, a BOM or no JSON
                end = -1
            if end != len(line):
                raw = json.loads(line)  # whitespace or data beside the value: json.loads rules on it
            events.append(ProcessEvent.from_dict(raw))
        except (ValueError, KeyError, TypeError) as exc:
            raise IntegrityFault(f"unparseable trace line {lineno} in {path}: {exc}") from exc
    return events


@dataclass
class GoalState:
    """One goal's state, live in the GoalManager or rebuilt by replay."""

    record: GoalRecord
    business_state: dict[str, Any]
    last_seq: int
    # a live goal's RLock, held by every write to it; a replayed state has none
    lock: AbstractContextManager | None = field(default=None, repr=False, compare=False)

    def state(self) -> dict[str, Any]:
        """The observable state that snapshots store and replay must reproduce."""
        return {
            "current_stage": self.record.current_stage,
            "status": self.record.status,
            "business_state": self.business_state,
            "last_seq": self.last_seq,
        }


class GoalManager:
    """Shared workflow state for all dispatchers, keyed by goal id.

    Reads are safe concurrently; writes for one goal are serialized by the
    lock on its one ``GoalState`` entry.  The manager needs each domain's
    automaton (to validate advancement) and registry (to re-derive business
    state during replay).
    """

    def __init__(self, store: InMemoryEventStore | FileEventStore | None = None) -> None:
        self.store = store or InMemoryEventStore()
        self._domains: dict[str, tuple[WorkflowAutomaton, SkillRegistry]] = {}
        self._states: dict[str, GoalState] = {}
        self._table_lock = threading.Lock()
        self._goal_counter = 0

    # -- domain wiring -----------------------------------------------------

    def add_domain(self, name: str, automaton: WorkflowAutomaton, registry: SkillRegistry) -> None:
        """Wire *name* to *automaton* and *registry*; wiring the same pair again does nothing.

        While a goal of *name* exists, wiring it to another automaton or registry
        (compared with ``is``) raises ConflictFault: those goals were logged under
        the old pair, and replay and advancement would read the new one.
        """
        with self._table_lock:
            wired = self._domains.get(name, (automaton, registry))
            if (wired[0] is not automaton or wired[1] is not registry) and any(
                live.record.domain == name for live in self._states.values()
            ):
                raise ConflictFault(
                    f"domain {name!r} has goals; it cannot be wired to another automaton or registry"
                )
            self._domains[name] = (automaton, registry)

    # -- goal lifecycle ------------------------------------------------------

    def create_goal(self, domain: str, goal_id: str | None = None) -> GoalRecord:
        with self._table_lock:
            if domain not in self._domains:
                raise ConfigError(f"unknown domain: {domain!r}")
            automaton = self._domains[domain][0]
            if goal_id is None:
                self._goal_counter += 1
                goal_id = f"{domain}-{self._goal_counter:04d}"
            file_safe_id(goal_id, "goal id")
            if goal_id in self._states:
                raise ConflictFault(f"goal id already exists: {goal_id!r}")
            record = GoalRecord(goal_id, domain, automaton.initial, automaton.terminal_stages())
            self._states[goal_id] = GoalState(record, {}, 0, threading.RLock())
        return record

    def live(self, goal_id: str) -> GoalState:
        """The goal's one live entry, never replaced: read it under its lock, change it only here."""
        try:
            return self._states[goal_id]
        except KeyError:
            raise LookupFault("goal", goal_id) from None

    def goal(self, goal_id: str) -> GoalRecord:
        return self.live(goal_id).record

    def goal_ids(self) -> list[str]:
        return sorted(self._states)

    def wiring(self, domain: str) -> tuple[WorkflowAutomaton, SkillRegistry]:
        """The automaton and registry ``add_domain`` wired to *domain*."""
        return self._domains[domain]

    def context(self, goal_id: str) -> DispatchContext:
        """Copy of the goal's live business state; commit changes via commit_context."""
        return DispatchContext(dict(self.live(goal_id).business_state))

    def commit_context(self, goal_id: str, ctx: DispatchContext) -> None:
        """Make *ctx*'s business state the goal's live state, taking ownership.

        No copy is made: the caller hands over a context no one else holds
        (the dispatcher commits the step's own copy from ``context``, with the
        effects applied) and must not touch it afterwards.  Readers still get
        copies, through ``context``.
        """
        self.live(goal_id).business_state = ctx.business_state

    def last_seq(self, goal_id: str) -> int:
        return self.live(goal_id).last_seq

    # -- validated mutation --------------------------------------------------

    def advance_stage(self, goal_id: str, from_stage: StageId, to_stage: StageId) -> None:
        """Move the goal from *from_stage* to *to_stage* under full validation.

        Raises ConflictFault for a stale caller (current stage moved
        underneath it) and for a move along no declared transition, an
        unknown *to_stage* among them; this is defense in depth below the
        dispatcher's own gates.
        """
        live = self.live(goal_id)
        record = live.record
        automaton = self._domains[record.domain][0]
        with live.lock:
            if record.current_stage != from_stage:
                raise ConflictFault(
                    f"goal {goal_id!r} is at {record.current_stage!r}, not {from_stage!r}"
                )
            if from_stage != to_stage and (from_stage, to_stage) not in automaton.transitions:
                raise ConflictFault(
                    f"transition {from_stage!r} -> {to_stage!r} is not declared legal"
                )
            record.current_stage = to_stage

    def log_event(self, event: ProcessEvent, payload: bytes | None = None) -> None:
        """Append one event to the store; seq must be exactly previous + 1."""
        live = self.live(event.goal_id)
        with live.lock:
            expected = live.last_seq + 1
            if event.seq != expected:
                raise IntegrityFault(
                    f"event seq {event.seq} for goal {event.goal_id!r}, expected {expected}",
                    seq=event.seq,
                )
            self.store.append(event, payload)
            live.last_seq = event.seq

    # -- replay ----------------------------------------------------------------

    def replay(self, goal_id: str) -> GoalState:
        """Rebuild the goal's state purely from its event log."""
        record = self.goal(goal_id)
        automaton, registry = self._domains[record.domain]
        return replay_events(
            goal_id=goal_id,
            domain=record.domain,
            automaton=automaton,
            registry=registry,
            events=self.store.events_for(goal_id),
            payload_lookup=self.store.payload_for,
        )

    def write_snapshots(self) -> None:
        if not isinstance(self.store, FileEventStore):
            return
        for live in list(self._states.values()):
            self.store.write_snapshot(live)


def replay_events(
    goal_id: str,
    domain: str,
    automaton: WorkflowAutomaton,
    registry: SkillRegistry,
    events: Iterable[ProcessEvent],
    payload_lookup=None,
) -> GoalState:
    """Fold an event log into a reconstructed goal state.

    Only SUCCESS events without a sub-reason move state (an executor
    failure committed nothing live): the stage follows ``stage_after``
    and business flags are re-derived from the skill's declarative
    postcondition effects, so such an event must name a skill of the
    registry.  Integrity violations (seq gap, broken stage chain, an event
    of another goal, a stage change by an event that commits nothing or
    along no declared transition, a committing event with a missing or
    unknown skill, digest mismatch where payloads are retained) name the
    first bad seq.
    """
    stage = automaton.initial
    state: dict[str, Any] = {}
    last_seq = 0
    for event in events:
        seq, after = event.seq, event.stage_after
        if event.goal_id != goal_id:
            raise IntegrityFault(f"seq {seq} is from goal {event.goal_id!r}", seq=seq)
        if seq != last_seq + 1:
            raise IntegrityFault(
                f"seq gap in goal {goal_id!r}: got {seq}, expected {last_seq + 1}", seq=seq
            )
        last_seq = seq
        if event.stage_before != stage:
            raise IntegrityFault(
                f"stage chain broken at seq {seq}: log says {event.stage_before!r}, "
                f"replay says {stage!r}",
                seq=seq,
            )
        if event.outcome != "SUCCESS" or event.sub_reason is not None:  # commits nothing
            if after != stage:
                raise IntegrityFault(f"seq {seq} commits nothing but changes stage", seq=seq)
            continue
        skill = registry.get(event.skill_id)
        if skill is None:
            raise IntegrityFault(f"seq {seq} references unknown skill {event.skill_id!r}", seq=seq)
        if after != stage and (stage, after) not in automaton.transitions:
            raise IntegrityFault(
                f"seq {seq} moves {stage!r} -> {after!r}, which is not a declared transition",
                seq=seq,
            )
        payload = payload_lookup(goal_id, seq) if payload_lookup else None
        if payload is not None and event.payload_digest is not None:
            if payload_digest(payload) != event.payload_digest:
                raise IntegrityFault(f"payload digest mismatch at seq {seq}", seq=seq)
        apply_postconditions(skill, state, event.payload_digest or "")
        stage = after

    record = GoalRecord(goal_id, domain, stage, automaton.terminal_stages())
    return GoalState(record, state, last_seq)
