"""Straight-line reference interpreter, random domain generator, message rewording
and a reference trace reader.

The interpreter re-implements the dispatch contract with naive scans over
plain config dicts: binding membership by list scan, skill selection by
linear filter, preconditions as a flag conjunction, stage advancement by
transition-list membership.  It shares no code with the dispatcher, so
agreement between the two is meaningful evidence.  The trace reader reads
through a text stream and checks each field with its own call, building the
event by keyword; ``load_trace`` must agree with it on any file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from stagegate.errors import IntegrityFault
from stagegate.memory import ProcessEvent


@dataclass
class RefState:
    stage: str
    flags: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RefOutcome:
    outcome: str
    stage_after: str


_LEVEL_ORDER = {"L0": 0, "L1": 1, "L2": 2}


def reference_step(domain: dict[str, Any], state: RefState, message: str) -> RefOutcome:
    """One dispatch step under the literal rules; mutates state on success only."""
    text_to_intent = {}
    for entry in domain["patterns"]:
        for pattern in entry["patterns"]:
            text_to_intent[pattern] = entry["intent"]
    intent = text_to_intent.get(message.strip().lower())
    if intent is None:
        return RefOutcome("SKILL_NOT_FOUND", state.stage)

    automaton = domain["automaton"]
    legal_stages = automaton["binding"][intent]
    if state.stage not in legal_stages:
        return RefOutcome("ILLEGAL_TRANSITION", state.stage)

    chosen = None
    chosen_key = None
    for index, skill in enumerate(domain["skills"]):
        if skill["intent"] != intent:
            continue
        stages = skill.get("stages", "*")
        if stages != "*" and state.stage not in stages:
            continue
        key = (_LEVEL_ORDER[skill["level"]], index)
        if chosen_key is None or key < chosen_key:
            chosen, chosen_key = skill, key
    if chosen is None:
        return RefOutcome("SKILL_NOT_FOUND", state.stage)

    for name in chosen.get("pre", []):
        if not state.flags.get(name, False):
            return RefOutcome("PRECONDITION_FAIL", state.stage)

    # Execution always succeeds (deterministic canned result); effects are
    # staged and committed only if the transition check also passes.
    staged = dict(state.flags)
    for effect in chosen.get("post", []):
        if effect["op"] == "set":
            staged[effect["field"]] = effect["value"]

    target = automaton["stage_map"][intent]
    stage_after = state.stage
    if target is not None and target != state.stage:
        pairs = [tuple(p) for p in automaton["transitions"]]
        if (state.stage, target) in pairs:
            stage_after = target
        else:
            return RefOutcome("ILLEGAL_TRANSITION", state.stage)

    state.flags = staged
    state.stage = stage_after
    return RefOutcome("SUCCESS", stage_after)


def run_reference(domain: dict[str, Any], messages: list[str]) -> list[RefOutcome]:
    state = RefState(stage=domain["automaton"]["initial"])
    return [reference_step(domain, state, message) for message in messages]


# -- random domain generation -----------------------------------------------------


FLAG_VOCAB = ("f0", "f1", "f2", "f3", "f4")


def random_domain(rng: random.Random, max_stages: int = 6, max_intents: int = 20) -> dict[str, Any]:
    """A random but structurally valid domain (skills stay inside the binding)."""
    n_stages = rng.randint(2, max_stages)
    stages = [f"s{i}" for i in range(n_stages)]
    initial = rng.choice(stages)

    transitions = []
    for a in stages:
        for b in stages:
            if a != b and rng.random() < 0.35:
                transitions.append([a, b])

    n_intents = rng.randint(1, max_intents)
    intents = [f"i{i}" for i in range(n_intents)]
    binding = {}
    stage_map: dict[str, str | None] = {}
    for intent in intents:
        bound = [s for s in stages if rng.random() < 0.45]
        if not bound:
            bound = [rng.choice(stages)]
        binding[intent] = bound
        stage_map[intent] = None if rng.random() < 0.2 else rng.choice(stages)

    skills = []
    for intent in intents:
        for k in range(rng.choice((1, 1, 2))):
            bound = binding[intent]
            if set(bound) == set(stages) and rng.random() < 0.3:
                skill_stages: Any = "*"
            else:
                subset = [s for s in bound if rng.random() < 0.7]
                skill_stages = subset or [rng.choice(bound)]
            pre = rng.sample(FLAG_VOCAB, k=rng.randint(0, 2))
            level = rng.choice(("L0", "L1", "L2"))
            if level == "L0" and (skill_stages == "*" or set(skill_stages) == set(stages)):
                pre = []  # universal atomic queries carry no guards
            post = [
                {"op": "set", "field": rng.choice(FLAG_VOCAB), "value": rng.random() < 0.7}
                for _ in range(rng.randint(0, 2))
            ]
            skills.append(
                {
                    "id": f"sk_{intent}_{k}",
                    "intent": intent,
                    "level": level,
                    "stages": skill_stages,
                    "pre": pre,
                    "post": post,
                    "risk": "random",
                    "disclosure": rng.choice(("routing", "bound")),
                }
            )

    patterns = [{"intent": intent, "patterns": [intent], "priority": 0} for intent in intents]
    fixtures = {skill["id"]: {"ok": skill["id"]} for skill in skills}
    return {
        "automaton": {
            "stages": stages,
            "initial": initial,
            "transitions": transitions,
            "intents": intents,
            "binding": binding,
            "stage_map": stage_map,
        },
        "skills": skills,
        "patterns": patterns,
        "fixtures": fixtures,
    }


def random_messages(rng: random.Random, domain: dict[str, Any], count: int) -> list[str]:
    intents = domain["automaton"]["intents"]
    messages = []
    for _ in range(count):
        if rng.random() < 0.05:
            messages.append("xyzzy gibberish request")
        else:
            messages.append(rng.choice(intents))
    return messages


FILLERS = ("please", "now", "kindly", "quickly", "today", "then", "okay", "again", "asap", "maybe")


def paraphrase(text: str, rng: random.Random) -> str:
    """Reword a message: drop a word, swap two neighbours or insert a filler word."""
    words = text.split()
    op = rng.choice(("drop", "swap", "insert"))
    if op == "drop" and len(words) > 1:
        del words[rng.randrange(len(words))]
    elif op == "swap" and len(words) > 1:
        i = rng.randrange(len(words) - 1)
        words[i], words[i + 1] = words[i + 1], words[i]
    else:
        words.insert(rng.randrange(len(words) + 1), rng.choice(FILLERS))
    return " ".join(words)


def paraphrased(texts: list[str], seeds: tuple[int, ...]) -> list[str]:
    """Every text once per seed, each reworded by ``paraphrase`` from that seed's generator."""
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        out.extend(paraphrase(text, rng) for text in texts)
    return out


_STR, _STR_OR_NULL = (str,), (str, type(None))
# event field -> the exact JSON types ``ProcessEvent.to_dict`` writes for it
_EVENT_FIELD_TYPES = {
    "seq": (int,), "timestamp": (int, float), "goal_id": _STR, "intent": _STR,
    "stage_before": _STR, "stage_after": _STR, "skill_id": _STR_OR_NULL, "outcome": _STR,
    "sub_reason": _STR_OR_NULL, "payload_digest": _STR_OR_NULL,
}


def _typed(value: Any, types: tuple[type, ...], name: str) -> Any:
    """*value* itself when its exact type is one of *types*; nothing is coerced."""
    if type(value) not in types:
        raise TypeError(f"{name} has type {type(value).__name__}")
    return value


def reference_event(raw: Mapping[str, Any]) -> ProcessEvent:
    """``ProcessEvent.from_dict`` as one ``_typed`` call per field, built by keyword."""
    fields = {key: _typed(raw[key], types, key) for key, types in _EVENT_FIELD_TYPES.items()}
    pre = _typed(raw["precondition_results"], (list,), "precondition_results")
    fields["precondition_results"] = tuple(
        (_typed(n, _STR, "precondition name"), _typed(p, (bool,), "precondition result"))
        for n, p in pre
    )
    return ProcessEvent(**fields)


def reference_load_trace(path: str | Path) -> list[ProcessEvent]:
    """``load_trace`` through ``Path.read_text`` (a text stream) and ``reference_event``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IntegrityFault(f"undecodable trace {path}: {exc}") from None
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(reference_event(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise IntegrityFault(f"unparseable trace line {lineno} in {path}: {exc}") from exc
    return events
