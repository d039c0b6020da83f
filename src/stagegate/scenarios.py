"""Scenario and domain-bundle ingestion, forward simulation, and adversarial variants.

A domain bundle is a directory of four JSON files (automaton, skills,
patterns, fixtures) that must cross-validate before anything runs.  Suites
are labeled message sequences, loaded against the bundle they name.
Ground-truth legality labels come from a forward simulator that folds the
gate kernel ``decide`` over the declarative configs without executing
anything and returns its own ``Decision`` per message, so labels never
depend on the executor, the router's fallback or the goal store of the
dispatcher under test.  The labels are set offline, by
``scripts/build_data.py``; the runtime reads them from suite files, and
``inject_illegal`` labels its own variants.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from .automaton import StageId, WorkflowAutomaton, automaton_from_dict, validate_definition
from .dispatcher import BLOCK_OUTCOMES, Decision, MockExecutor, decide
from .errors import (
    BOOLEAN, INTEGER, LIST, REQUIRED, STRING, STRING_OR_NULL, ConfigError, GenerationFault, Kind,
    StagegateError, clip, file_safe_id, named, naming, read_rows,
)
from .registry import SkillRegistry, apply_postconditions, build_registry
from .router import (
    PatternTable,
    TokenOverlapFallback,
    identify,
    table_from_list,
    validate_table,
)

if TYPE_CHECKING:
    from .runner import StepRecord

SCENARIO_TYPES = ("normal", "illegal", "rollback", "multi", "abort", "concurrent")

# The suite file's shapes, read and written in this key order.  Exact JSON types throughout,
# nothing coerced: 5 is not "5", "false" is not False, 0.0 is not 0.
_SUITE = {"suite_name": (STRING, ""), "domain": (STRING, ""), "scenarios": (LIST, REQUIRED)}
_FINAL = Kind(frozenset({str, dict}),
              "a stage, or an object from track numbers (non-negative, no leading zeros) to stages")
_SCENARIO = {
    "scenario_id": (STRING, REQUIRED), "type": (STRING, REQUIRED),
    "expected_final_stage": (_FINAL, REQUIRED), "messages": (LIST, REQUIRED),
}
_MESSAGE = {  # each key a LabeledMessage field; suite_to_dict leaves a key out at its default
    "turn_index": (INTEGER, REQUIRED), "text": (STRING, REQUIRED), "expected_legal": (BOOLEAN, REQUIRED),
    "label_intent": (STRING_OR_NULL, None), "track": (INTEGER, 0),
}

BUNDLE_FILES = {
    "automaton": "automaton.json",
    "skills": "skills.json",
    "patterns": "patterns.json",
    "fixtures": "fixtures.json",
}


@dataclass(frozen=True)
class LabeledMessage:
    text: str
    expected_legal: bool
    turn_index: int
    label_intent: str | None = None  # semantic intent for labeling, when it differs from routing
    track: int = 0


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    type: str
    messages: tuple[LabeledMessage, ...]
    expected_final_stage: Mapping[int, StageId] = field(default_factory=dict)  # labeled by scripts/build_data.py

    def tracks(self) -> list[int]:
        return sorted({m.track for m in self.messages})


@dataclass
class DomainBundle:
    name: str
    automaton: WorkflowAutomaton
    registry: SkillRegistry
    table: PatternTable
    fixtures: dict[str, Any]
    fallback: TokenOverlapFallback

    def build_executor(self, fail_ids: Sequence[str] = ()) -> MockExecutor:
        return MockExecutor(self.fixtures, fail_ids=fail_ids)


# -- domain loading ----------------------------------------------------------


def read_json(path: Path) -> Any:
    """Parse a JSON file; a missing, unreadable or undecodable one is a ConfigError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: unreadable: {exc}") from None


Problem = tuple[str, str]  # (bundle part, message)


def _assemble(
    name: str, parts: Mapping[str, Any]
) -> tuple[DomainBundle | None, list[Problem], list[Problem]]:
    """Build a bundle from its four parts, collecting every problem on the way.

    Returns the bundle (None when any error was found), the errors and the
    warnings, each as ``(part, message)`` in check order: automaton, skills,
    patterns, routability, fixtures.
    """
    try:
        automaton = automaton_from_dict(parts["automaton"])
    except ConfigError as exc:
        return None, [("automaton", str(exc))], []
    found, warned = validate_definition(automaton)
    errors: list[Problem] = [("automaton", line) for line in found]
    warnings: list[Problem] = [("automaton", line) for line in warned]

    registry: SkillRegistry | None = None
    try:
        registry = build_registry(parts["skills"], automaton)
        errors += [("skills", line) for line in registry.validate_against(automaton)]
    except StagegateError as exc:
        errors.append(("skills", str(exc)))

    table: PatternTable | None = None
    try:
        table = table_from_list(parts["patterns"])
        errors += [("patterns", line) for line in validate_table(table, automaton)]
    except ConfigError as exc:
        errors.append(("patterns", str(exc)))

    if registry is not None and table is not None:
        routable = {entry.intent for entry in table}
        for spec in registry:
            if spec.intent not in routable:
                errors.append((
                    "patterns",
                    f"skill {spec.id!r} serves intent {spec.intent!r} which no pattern routes to",
                ))

    fixtures = parts["fixtures"]
    if not isinstance(fixtures, dict):
        errors.append(("fixtures", "expected an object keyed by skill id"))
    elif registry is not None:
        missing = sorted(spec.id for spec in registry if spec.id not in fixtures)
        if missing:
            errors.append(("fixtures", f"missing fixtures for: {', '.join(missing)}"))

    if errors:
        return None, errors, warnings
    bundle = DomainBundle(
        name=name,
        automaton=automaton,
        registry=registry,
        table=table,
        fixtures=dict(fixtures),
        fallback=TokenOverlapFallback(table),
    )
    return bundle, errors, warnings


def check_bundle(name: str, parts: Mapping[str, Any]) -> tuple[list[Problem], list[Problem]]:
    """Every cross-validation error and warning of the four bundle parts."""
    _, errors, warnings = _assemble(name, parts)
    return errors, warnings


def bundle_from_dicts(
    name: str, parts: Mapping[str, Any], located: Mapping[str, str] | None = None
) -> DomainBundle:
    """Cross-validate the four bundle parts and assemble a DomainBundle.

    Raises ConfigError on the first error of :func:`check_bundle`.
    ``located`` maps part name to a display path so that error can be pinned
    to a file when the parts came from disk.
    """
    bundle, errors, _ = _assemble(name, parts)
    if bundle is None:
        part, message = errors[0]
        raise ConfigError(f"{(located or {}).get(part, part)}: {message}")
    return bundle


def load_domain(path: str | Path) -> DomainBundle:
    """Load and cross-validate one domain directory.

    Any validation failure aborts with the first error located by file; a
    bundle that loads is safe to dispatch against.
    """
    directory = Path(path)
    parts = {key: read_json(directory / fname) for key, fname in BUNDLE_FILES.items()}
    located = {key: str(directory / fname) for key, fname in BUNDLE_FILES.items()}
    return bundle_from_dicts(directory.name, parts, located)


# -- suite loading -------------------------------------------------------------


def _scenario(row: tuple, messages: Sequence[LabeledMessage], bundle: DomainBundle) -> Scenario:
    """The scenario of a ``_SCENARIO`` row whose messages were read as *messages*, after its own rules."""
    sid, stype, final_raw, _ = row
    if not sid:
        raise ConfigError("scenario '': 'scenario_id' must not be empty")
    file_safe_id(sid, "scenario_id")
    if stype not in SCENARIO_TYPES:
        raise ConfigError(f"{named('scenario', sid)}: unknown type {clip(repr(stype))}")
    if not messages:
        raise ConfigError(f"{named('scenario', sid)}: messages must be non-empty")
    for position, msg in enumerate(messages):
        if msg.turn_index != position:
            raise ConfigError(
                f"{named('scenario', sid)}: turn_index must be gapless from 0 (got {msg.turn_index} at {position})"
            )

    if type(final_raw) is str:
        final = {0: final_raw}
    elif all(  # track keys as suite_to_dict writes them, so "00" is no track number
        type(track) is str and track.isdecimal() and str(int(track)) == track and type(stage) is str
        for track, stage in final_raw.items()
    ):
        final = {int(track): stage for track, stage in final_raw.items()}
    else:
        raise ConfigError(
            f"{named('scenario', sid)}: 'expected_final_stage' must be {_FINAL.name}, not {clip(repr(final_raw))}")

    scenario = Scenario(sid, stype, tuple(messages), final)

    if stype == "illegal" and all(m.expected_legal for m in messages):
        raise ConfigError(f"{named('scenario', sid)}: illegal type requires an expected_legal=false message")
    if sorted(final) != scenario.tracks():  # a stage for every track, and for no other
        raise ConfigError(f"{named('scenario', sid)}: expected_final_stage must name tracks {scenario.tracks()}")

    for stage in final.values():
        if stage not in bundle.automaton.stages:
            raise ConfigError(f"{named('scenario', sid)}: expected stage {clip(repr(stage))} not in domain")
    for msg in messages:
        if msg.label_intent is not None and msg.label_intent not in bundle.automaton.intents:
            raise ConfigError(f"{named('scenario', sid)}: label_intent {clip(repr(msg.label_intent))} not in domain")
    return scenario


def load_suite(path: str | Path, bundle: DomainBundle) -> list[Scenario]:
    """Read a suite file and check it against *bundle*, as :func:`suite_from_dict`."""
    raw = read_json(Path(path))
    return suite_from_dict(raw, bundle)


def suite_from_dict(raw: Mapping[str, Any], bundle: DomainBundle) -> list[Scenario]:
    """Parse a suite; its domain (when given), stages and label intents must be *bundle*'s.

    The scenarios, then all their messages, are read a list at a time; then each scenario's rules apply.
    """
    ((_, domain, items),) = read_rows([raw], _SUITE, lambda _: "suite")
    if domain and domain != bundle.name:
        raise ConfigError(f"suite declares domain {clip(repr(domain))} but bundle is {bundle.name!r}")
    rows = read_rows(items, _SCENARIO, naming(items, "scenario_id", "scenario", "scenario at position {}"))

    def message_what(position: int) -> str:  # the scenario holding the suite's message at *position*
        for sid, _, _, held in rows:
            if position < len(held):
                return f"{named('scenario', sid)}: message {position}"
            position -= len(held)

    raw_messages = list(chain.from_iterable(row[3] for row in rows))
    messages = iter([LabeledMessage(text, legal, turn, intent, track)
                     for turn, text, legal, intent, track in read_rows(raw_messages, _MESSAGE, message_what)])
    scenarios: dict[str, Scenario] = {}
    for row in rows:
        scenario = _scenario(row, list(islice(messages, len(row[3]))), bundle)
        if scenario.scenario_id in scenarios:
            raise ConfigError(f"duplicate {named('scenario_id', scenario.scenario_id)}")
        scenarios[scenario.scenario_id] = scenario
    return list(scenarios.values())


def suite_to_dict(suite_name: str, domain: str, scenarios: Sequence[Scenario]) -> dict[str, Any]:
    """The suite file's object, as :func:`suite_from_dict` reads it back."""
    out_scenarios = []
    for scenario in scenarios:
        final = scenario.expected_final_stage
        messages = [{key: value for key, (_, default) in _MESSAGE.items()
                     if (value := getattr(msg, key)) != default} for msg in scenario.messages]
        out_scenarios.append({
            "scenario_id": scenario.scenario_id,
            "type": scenario.type,
            "expected_final_stage": final[0] if set(final) == {0} else {str(k): v for k, v in final.items()},
            "messages": messages,
        })
    return {"suite_name": suite_name, "domain": domain, "scenarios": out_scenarios}


def save_suite(path: str | Path, suite_name: str, domain: str, scenarios: Sequence[Scenario]) -> None:
    payload = suite_to_dict(suite_name, domain, scenarios)
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


# -- forward simulation (rule-based labeling) -----------------------------------


def simulate_scenario(
    bundle: DomainBundle, scenario: Scenario, routed: dict[str, str] | None = None
) -> list[Decision]:
    """Fold the gate kernel over a scenario, one simulated goal per track.

    Returns the :class:`~stagegate.dispatcher.Decision` of
    :func:`~stagegate.dispatcher.decide` for each message, in
    ``scenario.messages`` order, asked at the stage the message's track has
    reached.  Each message's intent is its ``label_intent``, or else what the
    pattern table alone routes it to (no fallback).  A message is legal iff
    its decision's outcome is not in ``BLOCK_OUTCOMES``; only SUCCESS
    decisions apply the skill's effects and move their track's stage,
    mirroring the no-advance-on-block contract.

    ``routed`` maps a message text to its pattern-only intent; a text is
    routed on its first miss and stored there.  The route depends on the text
    and ``bundle.table`` alone, so one dict may serve every scenario simulated
    against one bundle; the caller owns it and decides how long it lives.
    """
    automaton, registry, table = bundle.automaton, bundle.registry, bundle.table
    if routed is None:
        routed = {}
    tracks = scenario.tracks()
    stages: dict[int, StageId] = dict.fromkeys(tracks, automaton.initial)
    states: dict[int, dict[str, Any]] = {t: {} for t in tracks}
    decisions: list[Decision] = []

    for msg in scenario.messages:
        track = msg.track
        intent = msg.label_intent
        if not intent:
            intent = routed.get(msg.text)
            if intent is None:
                intent = routed[msg.text] = identify(msg.text, table).intent
        decision = decide(automaton, registry, stages[track], states[track], intent)
        if decision.outcome == "SUCCESS":
            apply_postconditions(decision.skill, states[track], "simulated")
            stages[track] = decision.stage_after
        decisions.append(decision)

    return decisions


# -- adversarial variants --------------------------------------------------------


def _message_text_for(bundle: DomainBundle, intent: str) -> str | None:
    """The first authored phrasing of *intent*, or None when no pattern routes to it."""
    return next((e.patterns[0].text for e in bundle.table if e.intent == intent and e.patterns), None)


def inject_illegal(
    scenario: Scenario,
    bundle: DomainBundle,
    strategy: str = "stage_skip",
    seed: int = 0,
) -> Scenario:
    """Insert one stage-order-violating message into a normal scenario.

    ``stage_skip`` picks a position and an intent that is illegal at the
    simulated stage there; ``premature_terminal`` fires a terminal-stage
    action before its prerequisite, at the opening turn.  Deterministic for
    a given seed.
    """
    if scenario.type != "normal":
        raise GenerationFault("inject_illegal requires a normal-type scenario")
    if strategy not in ("stage_skip", "premature_terminal"):
        raise GenerationFault(f"unknown strategy {strategy!r}")

    rng = random.Random(seed)
    automaton = bundle.automaton
    # The first track's stage before each of its turns, and after its last.
    track0 = scenario.tracks()[0]
    stage_at: dict[int, StageId] = {}
    for msg, decision in zip(scenario.messages, simulate_scenario(bundle, scenario)):
        if msg.track == track0:
            stage_at[msg.turn_index] = decision.stage_before
            final = decision.stage_after
    stage_at[len(scenario.messages)] = final

    candidates: list[tuple[int, str]] = []
    if strategy == "premature_terminal":
        terminals = automaton.terminal_stages()
        here = stage_at.get(0, automaton.initial)
        for intent in automaton.intents:
            target = automaton.stage_map.get(intent)
            if target in terminals and here not in automaton.binding[intent]:
                candidates.append((0, intent))
    else:
        for position in sorted(stage_at):
            here = stage_at[position]
            for intent in automaton.intents:
                if here not in automaton.binding[intent]:
                    candidates.append((position, intent))

    candidates = [
        (pos, intent) for pos, intent in candidates if _message_text_for(bundle, intent) is not None
    ]
    if not candidates:
        raise GenerationFault(
            f"scenario {scenario.scenario_id!r}: no injectable position for {strategy}"
        )
    position, intent = candidates[rng.randrange(len(candidates))]

    injected = LabeledMessage(
        text=_message_text_for(bundle, intent),
        expected_legal=False,
        turn_index=position,
        track=track0,
    )
    sid = f"{scenario.scenario_id}-inj"
    spliced = [*scenario.messages[:position], injected, *scenario.messages[position:]]
    messages = tuple(replace(msg, turn_index=i) for i, msg in enumerate(spliced))
    return replace(scenario, scenario_id=sid, type="illegal", messages=messages)


# -- latent violations --------------------------------------------------------------


def detect_latent(steps: Iterable[StepRecord]) -> list[StepRecord]:
    """The run's own blocked steps inside normal-split scenarios, in step order.

    Only scenarios of type ``normal`` contribute, which is exactly the
    stage-order conflicts appearing outside any injected-illegal set.
    """
    return [step for step in steps if step.scenario.type == "normal" and step.outcome in BLOCK_OUTCOMES]
