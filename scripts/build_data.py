#!/usr/bin/env python3
"""Regenerate the shipped suites under src/stagegate/data from its bundles.

Every bundle is hand-authored JSON and is this script's input, never its
output: ``data/hr/*.json`` for the hiring domain and ``data/sgd/<D>/*.json``
for the eight service domains.  Each suite is generated from templates,
labeled by ``label_scenario`` and self-checked against its authored
structure before it is written, so the shipped JSON cannot drift from the
documented shape.  Rerun this script after editing a bundle to relabel its
suite; running it twice produces byte-identical files.

Authored structure of the hiring suite: 185 scenarios / 882 messages
(50 normal, 25 illegal, 25 rollback, 25 multi, 30 abort, 30 concurrent),
with 16 stage-gate blocks, 6 precondition blocks, and 3 permitted-but-
illegal query turns.  The service suites total 960 dialogues / 1,734 turns
with 160 injected one-turn attacks and 41 latent stage-skips (38 in
Hotels_1, 3 in Music_1).
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping, Sequence

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from stagegate.dispatcher import BLOCK_OUTCOMES  # noqa: E402
from stagegate.errors import ConfigError, file_safe_id, json_container  # noqa: E402
from stagegate.scenarios import (  # noqa: E402
    DomainBundle,
    LabeledMessage,
    Scenario,
    load_domain,
    save_suite,
    simulate_scenario,
)
from stagegate.suites import (  # noqa: E402
    HR_DOMAIN,
    SGD_DOMAINS,
    hr_bundle,
    hr_suite_path,
    sgd_domain_dir,
    sgd_suite_path,
)


# -- hiring domain -------------------------------------------------------------


# Canonical phrasing per intent (first pattern), with alternates for variety.
_HR_PHRASES = {
    "create_demand": ["create a hiring demand", "open a new position", "start a hiring process"],
    "pull_candidates": ["pull candidates", "source candidates from the talent pool", "fetch candidates"],
    "screen_resume": ["screen resumes", "screen the resumes", "screen candidates"],
    "compare_candidates": ["compare candidates", "rank the shortlist"],
    "schedule_interview": ["schedule interview", "schedule the interview", "arrange the interview loop"],
    "generate_questions": ["generate test questions", "generate interview questions"],
    "record_feedback": ["interview feedback", "record interview feedback"],
    "evaluate_candidate": ["evaluate candidate", "evaluate the candidates", "aggregate the evaluations"],
    "issue_offer": ["issue offer", "send the offer letter", "make an offer"],
    "onboard_candidate": ["start onboarding", "onboard the new hire", "begin onboarding"],
    "reopen_sourcing": ["reopen sourcing", "go back to sourcing"],
    "reopen_interview": ["reopen the interview round", "redo the interviews"],
    "close_process": ["close the process", "close the workflow", "cancel the process"],
    "get_job_list": ["show the job list", "list open jobs"],
    "get_applicant_list": ["show applicants", "list the applicants"],
    "query_status": ["show process status", "where are we in the process"],
    "ask_missing": ["help", "what information is missing"],
}

_FLOW = (
    "create_demand",
    "pull_candidates",
    "screen_resume",
    "schedule_interview",
    "evaluate_candidate",
    "issue_offer",
    "onboard_candidate",
    "close_process",
)

# Illegal-type templates.  Each entry: (kind, turns) where a turn is either
# an intent name (legal flow step), ("IT", text) for a stage-gate violation,
# ("PF", intent) for a precondition violation, or ("FN", text, label_intent)
# for a permitted-but-illegal query (broad-stage skill, stage-specific intent).
_HR_ILLEGAL_TEMPLATES: list[list[Any]] = [
    # Stage-gate violations fired at init (case-table style one-liners).
    [("IT", "schedule interview"), "create_demand", "close_process"],
    [("IT", "interview feedback"), "create_demand", "close_process"],
    [("IT", "generate test questions"), "create_demand", "close_process"],
    [("IT", "invite to interview"), "create_demand", "close_process"],
    [("IT", "evaluate candidate"), "create_demand", "close_process"],
    [("IT", "issue offer"), "create_demand", "close_process"],
    [("IT", "start onboarding"), "create_demand", "close_process"],
    [("IT", "screen resumes"), "create_demand", "close_process"],
    [("IT", "submit interviewer feedback"), "create_demand", "close_process"],
    [("IT", "compare candidates"), "create_demand", "close_process"],
    # Stage-gate violations mid-flow at src.
    ["create_demand", "pull_candidates", ("IT", "record interview feedback"), "close_process"],
    ["create_demand", "pull_candidates", ("IT", "begin onboarding"), "close_process"],
    # Re-screen attempts after the offer went out.
    ["create_demand", "pull_candidates", "screen_resume", "schedule_interview",
     "evaluate_candidate", "issue_offer", ("IT", "re-screen resumes"), "close_process"],
    ["create_demand", "pull_candidates", "screen_resume", "schedule_interview",
     "evaluate_candidate", "issue_offer", ("IT", "rescreen the pipeline"), "close_process"],
    # Out-of-stage pulls during the interview loop; under ablation these
    # execute and derail the remaining turns.
    ["create_demand", "pull_candidates", "screen_resume", "schedule_interview",
     "evaluate_candidate", ("IT", "pull candidates"), "issue_offer",
     "onboard_candidate", "close_process"],
    ["create_demand", "pull_candidates", "screen_resume", "schedule_interview",
     "evaluate_candidate", ("IT", "fetch candidates"), "issue_offer",
     "onboard_candidate", "close_process"],
    # Precondition violations (stage-legal, data not ready).
    [("PF", "pull_candidates"), "create_demand", "close_process"],
    ["create_demand", "pull_candidates", ("PF", "schedule_interview"),
     "screen_resume", "close_process"],
    ["create_demand", "pull_candidates", "screen_resume", "schedule_interview",
     ("PF", "issue_offer"), "close_process"],
    ["create_demand", "pull_candidates", "screen_resume", "schedule_interview",
     "reopen_sourcing", ("PF", "compare_candidates"), "close_process"],
    ["create_demand", "pull_candidates", "screen_resume", "schedule_interview",
     "evaluate_candidate", "issue_offer", "reopen_interview",
     ("PF", "record_feedback"), "close_process"],
    ["create_demand", "pull_candidates", "screen_resume", "schedule_interview",
     "evaluate_candidate", "issue_offer", "reopen_interview",
     ("PF", "evaluate_candidate"), "close_process"],
    # Broad-stage queries carrying a stage-specific intent: permitted by the
    # skill's stage set, illegal under the annotation.
    [("FN", "pull up the job list so we can start screening", "screen_resume"),
     "create_demand", "pull_candidates", "close_process"],
    [("FN", "show me the job list for the screening round", "screen_resume"),
     "create_demand", "pull_candidates", "close_process"],
    [("FN", "list the applicants we should compare", "compare_candidates"),
     "create_demand", "pull_candidates", "close_process"],
]

_HR_ROLLBACK_SHORT = ["create_demand", "pull_candidates", "screen_resume",
                      "schedule_interview", "reopen_sourcing"]
_HR_ROLLBACK_RESOURCE = ["create_demand", "pull_candidates", "screen_resume",
                         "schedule_interview", "reopen_sourcing", "pull_candidates",
                         "close_process"]
_HR_ROLLBACK_OFFER = ["create_demand", "pull_candidates", "screen_resume",
                      "schedule_interview", "evaluate_candidate", "issue_offer",
                      "reopen_interview"]
_HR_MULTI_SHORT = ["create_demand", "pull_candidates", "compare_candidates"]
_HR_MULTI_FULL = ["create_demand", "pull_candidates", "screen_resume", "compare_candidates"]
_HR_CONCURRENT = [(0, "create_demand"), (1, "create_demand"), (0, "close_process")]


def _phrase(rng: random.Random, intent: str) -> str:
    options = _HR_PHRASES[intent]
    return options[rng.randrange(len(options))]


def _hr_scenario(
    bundle: DomainBundle,
    rng: random.Random,
    scenario_id: str,
    stype: str,
    turns: Sequence[Any],
) -> Scenario:
    """One labeled hiring scenario from a template of turns.

    A turn is an intent (a random phrasing of it), ``("PF", intent)`` (the
    same, marking a precondition failure), ``("IT", text)`` (literal text),
    ``("FN", text, label_intent)`` (literal text labeled by its semantic
    intent) or ``(track, intent)`` (a phrasing sent to a concurrent goal).
    """
    messages = []
    for position, turn in enumerate(turns):
        track, label_intent = 0, None
        if isinstance(turn, str):
            text = _phrase(rng, turn)
        elif isinstance(turn[0], int):
            track, text = turn[0], _phrase(rng, turn[1])
        elif turn[0] == "PF":
            text = _phrase(rng, turn[1])
        else:
            text, label_intent = turn[1], (turn[2] if turn[0] == "FN" else None)
        messages.append(
            LabeledMessage(
                text=text,
                expected_legal=True,  # placeholder, relabeled below
                turn_index=position,
                label_intent=label_intent,
                track=track,
            )
        )
    return label_scenario(bundle, Scenario(scenario_id, stype, tuple(messages)))


def build_hr_suite(bundle: DomainBundle, seed: int = 1207) -> list[Scenario]:
    """The 185-scenario / 882-message hiring suite."""
    rng = random.Random(seed)
    scenarios: list[Scenario] = []

    for i in range(50):
        scenarios.append(_hr_scenario(bundle, rng, f"normal-{i + 1:03d}", "normal", _FLOW))

    for i, template in enumerate(_HR_ILLEGAL_TEMPLATES):
        scenarios.append(_hr_scenario(bundle, rng, f"illegal-{i + 1:03d}", "illegal", template))

    rollback_templates = (
        [_HR_ROLLBACK_SHORT] * 12 + [_HR_ROLLBACK_RESOURCE] * 7 + [_HR_ROLLBACK_OFFER] * 6
    )
    for i, template in enumerate(rollback_templates):
        scenarios.append(_hr_scenario(bundle, rng, f"rollback-{i + 1:03d}", "rollback", template))

    multi_templates = [_HR_MULTI_SHORT] * 12 + [_HR_MULTI_FULL] * 13
    for i, template in enumerate(multi_templates):
        scenarios.append(_hr_scenario(bundle, rng, f"multi-{i + 1:03d}", "multi", template))

    for i in range(30):
        scenarios.append(_hr_scenario(bundle, rng, f"abort-{i + 1:03d}", "abort", ["close_process"]))

    for i in range(30):
        scenarios.append(
            _hr_scenario(bundle, rng, f"concurrent-{i + 1:03d}", "concurrent", _HR_CONCURRENT)
        )

    _check_hr_suite(bundle, scenarios)
    return scenarios


def _check_hr_suite(bundle: DomainBundle, scenarios: Sequence[Scenario]) -> None:
    """Structural self-check; a failed assertion means the authoring drifted."""
    by_type: dict[str, int] = {}
    for s in scenarios:
        by_type[s.type] = by_type.get(s.type, 0) + 1
    expected_counts = {"normal": 50, "illegal": 25, "rollback": 25, "multi": 25,
                       "abort": 30, "concurrent": 30}
    if by_type != expected_counts:
        raise ConfigError(f"hiring suite category counts drifted: {by_type}")

    messages = sum(len(s.messages) for s in scenarios)
    if messages != 882:
        raise ConfigError(f"hiring suite must carry 882 messages, got {messages}")

    outcomes = {"SUCCESS": 0, "ILLEGAL_TRANSITION": 0, "PRECONDITION_FAIL": 0, "SKILL_NOT_FOUND": 0}
    illegal_labels = 0
    for scenario in scenarios:
        for decision in simulate_scenario(bundle, scenario):
            outcomes[decision.outcome] += 1
        illegal_labels += sum(1 for m in scenario.messages if not m.expected_legal)
    # The simulator predicts blocks for the three annotated query turns, so
    # it sees 19 illegal transitions where the dispatcher will block 16 and
    # permit 3 (the annotation uses the semantic intent, the router the text).
    if outcomes["ILLEGAL_TRANSITION"] != 19 or outcomes["PRECONDITION_FAIL"] != 6:
        raise ConfigError(f"hiring suite outcome budget drifted: {outcomes}")
    if illegal_labels != 25:
        raise ConfigError(f"hiring suite must label 25 messages illegal, got {illegal_labels}")


# -- service domains (two-stage search-then-act workflows) ------------------------


# Each domain's 100 normal dialogues by shape, as (shape, count).
_SGD_SHAPES = {
    "Banks_1": [("triple", 100)],
    "Hotels_1": [("latent", 38), ("full", 62)],
    "RentalCars_1": [("full", 80), ("search_only", 20)],
    "Events_1": [("full", 84), ("search_only", 16)],
    "Buses_1": [("full", 53), ("search_only", 47)],
    "Homes_1": [("full", 100)],
    "Media_2": [("full", 98), ("search_only", 2)],
    "Music_1": [("latent", 3), ("full", 97)],
}

SGD_NORMAL_TURNS = {
    "Banks_1": 300, "Hotels_1": 162, "RentalCars_1": 180, "Events_1": 184,
    "Buses_1": 153, "Homes_1": 200, "Media_2": 198, "Music_1": 197,
}


def build_sgd_suite(domain: str, bundle: DomainBundle, seed: int = 1207) -> list[Scenario]:
    """One service domain's 100 normal dialogues plus 20 injected attacks.

    The phrasings are the bundle's own patterns: its first pattern entry is
    the search intent, its second the act intent, in authored order.
    """
    search_texts, act_texts = ([expr.text for expr in entry.patterns] for entry in bundle.table)
    rng = random.Random(f"{seed}:{domain}")  # str seeding is stable across processes

    def pick(texts: Sequence[str]) -> str:
        return texts[rng.randrange(len(texts))]

    shapes: list[str] = []
    for shape, count in _SGD_SHAPES[domain]:
        shapes.extend([shape] * count)
    rng.shuffle(shapes)

    scenarios: list[Scenario] = []
    for i, shape in enumerate(shapes):
        sid = f"{domain}-normal-{i + 1:03d}"
        if shape == "triple":
            texts = [pick(search_texts), pick(act_texts), pick(search_texts)]
        elif shape == "full":
            texts = [pick(search_texts), pick(act_texts)]
        elif shape == "search_only":
            texts = [pick(search_texts)]
        else:  # latent: the user acts without searching first
            texts = [pick(act_texts)]
        messages = tuple(
            LabeledMessage(text=text, expected_legal=True, turn_index=j)
            for j, text in enumerate(texts)
        )
        scenarios.append(label_scenario(bundle, Scenario(sid, "normal", messages)))

    for i in range(20):
        sid = f"{domain}-illegal-{i + 1:03d}"
        message = LabeledMessage(text=pick(act_texts), expected_legal=False, turn_index=0)
        scenarios.append(label_scenario(bundle, Scenario(sid, "illegal", (message,))))

    total_turns = sum(len(s.messages) for s in scenarios)
    if total_turns != SGD_NORMAL_TURNS[domain] + 20:
        raise ConfigError(
            f"{domain}: authored turn total drifted "
            f"({total_turns} vs {SGD_NORMAL_TURNS[domain] + 20})"
        )
    return scenarios


# -- labeling and schema-guided dialogue conversion -----------------------------


def label_scenario(bundle: DomainBundle, scenario: Scenario) -> Scenario:
    """Set expected_legal and expected_final_stage from one forward simulation.

    A track's final stage is where its last decision leaves it.
    """
    final = dict.fromkeys(scenario.tracks(), bundle.automaton.initial)
    messages = []
    for msg, decision in zip(scenario.messages, simulate_scenario(bundle, scenario)):
        final[msg.track] = decision.stage_after
        messages.append(replace(msg, expected_legal=decision.outcome not in BLOCK_OUTCOMES))
    return replace(scenario, messages=tuple(messages), expected_final_stage=final)


def convert_dialogues(
    dialogues: list[Mapping[str, Any]],
    bundle: DomainBundle,
    intent_map: Mapping[str, str] | None = None,
) -> list[Scenario]:
    """Convert schema-guided service dialogues into labeled scenarios.

    Thin converter for holders of the original dataset.  Documented input
    subset, per dialogue::

        {"dialogue_id": str,
         "turns": [{"speaker": "USER" | "SYSTEM",
                    "utterance": str,
                    "frames": [{"state": {"active_intent": str}}, ...]}, ...]}

    Only USER turns are kept.  ``intent_map`` translates the dialogue's
    active-intent names to this domain's intents and becomes the message's
    labeling intent; a value that is not a string naming one of the
    bundle's intents is a ConfigError naming its key.  Unmapped or absent
    intents fall back to routing the utterance text.  Labels and expected
    final stages come from the forward simulation, exactly as for authored
    suites.  Fields are read at their exact JSON types, nothing coerced:
    *dialogues*, ``turns`` and ``frames`` must be lists, and each dialogue,
    turn, frame and ``state`` an object.  A field of the wrong type is a
    ConfigError naming the dialogue and, from its ``turns`` inward, the
    turn's position; a dialogue that is not an object names its position in
    *dialogues*, and a ``dialogue_id``, ``utterance`` or ``active_intent``
    that is not a string is refused too, and so is a ``dialogue_id`` that an
    earlier dialogue already took, since it becomes the scenario id.
    """
    intent_map = dict(intent_map or {})
    for key, intent in intent_map.items():
        if type(intent) is not str or intent not in bundle.automaton.intents:
            raise ConfigError(f"intent_map {key!r}: {intent!r} is not an intent of the domain")
    scenarios: dict[str, Scenario] = {}
    for index, dialogue in enumerate(json_container(dialogues, list, "dialogues")):
        json_container(dialogue, dict, f"dialogue at position {index}")
        did = dialogue.get("dialogue_id", "")
        if type(did) is not str:
            raise ConfigError(f"dialogue {did!r}: dialogue_id must be a string")
        if not did:
            raise ConfigError("dialogue missing dialogue_id")
        file_safe_id(did, "dialogue_id")
        if did in scenarios:
            raise ConfigError(f"duplicate dialogue_id {did!r}")
        messages: list[LabeledMessage] = []
        turns = json_container(dialogue.get("turns", []), list, f"dialogue {did!r}: turns")
        for position, turn in enumerate(turns):
            where = f"dialogue {did!r}: turn {position}"
            if json_container(turn, dict, where).get("speaker") != "USER":
                continue
            if "utterance" not in turn:
                raise ConfigError(f"{where}: USER turn missing utterance")
            text = turn["utterance"]
            if type(text) is not str:
                raise ConfigError(f"{where}: utterance must be a string")
            active = None
            for frame in json_container(turn.get("frames", []), list, f"{where}: frames"):
                json_container(frame, dict, f"{where}: a frame")
                state = json_container(frame.get("state", {}), dict, f"{where}: state")
                active = state.get("active_intent")
                if "active_intent" in state and type(active) is not str:
                    raise ConfigError(f"{where}: active_intent must be a string")
                if active:
                    break
            label_intent = intent_map.get(active) if active else None
            messages.append(
                LabeledMessage(
                    text=text,
                    expected_legal=True,  # placeholder, relabeled below
                    turn_index=len(messages),
                    label_intent=label_intent,
                )
            )
        if not messages:
            raise ConfigError(f"dialogue {did!r} has no USER turns")
        scenarios[did] = label_scenario(bundle, Scenario(did, "normal", tuple(messages)))
    return list(scenarios.values())


def main() -> int:
    suite = build_hr_suite(hr_bundle())
    save_suite(hr_suite_path(), "hr-governance-suite", HR_DOMAIN, suite)
    print(f"hr: {len(suite)} scenarios, {sum(len(s.messages) for s in suite)} messages")

    total_dialogues = 0
    total_turns = 0
    for domain in SGD_DOMAINS:
        scenarios = build_sgd_suite(domain, load_domain(sgd_domain_dir(domain)))
        save_suite(sgd_suite_path(domain), f"{domain}-suite", domain, scenarios)
        total_dialogues += len(scenarios)
        total_turns += sum(len(s.messages) for s in scenarios)
    print(f"sgd: {total_dialogues} dialogues, {total_turns} turns across {len(SGD_DOMAINS)} domains")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
