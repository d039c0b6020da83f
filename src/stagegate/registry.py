"""Skill registry: risk-leveled capabilities with stage and precondition guards.

Skills are declarative records.  Each one serves a single intent, applies at
a declared set of stages, and is guarded by preconditions: names of business
flags that must all be truthy in the goal's business state.  Postconditions
are restricted to declarative writes into that state so that replay stays
deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Mapping

from .automaton import StageId, IntentId, WorkflowAutomaton
from .errors import (
    LIST, REQUIRED, STRING, STRINGS, ConfigError, ConflictFault, Kind, clip, json_container, named, naming,
    read_rows,
)

_SKILL = {  # a skill config object's shape; risk and disclosure are read and ignored
    "id": (STRING, REQUIRED), "intent": (STRING, REQUIRED), "level": (STRING, REQUIRED),
    "stages": (Kind(frozenset({str, list}), 'a list of strings, or "*"', str), "*"),
    "pre": (STRINGS, []), "post": (LIST, []), "risk": (STRING, ""), "disclosure": (STRING, ""),
}
_EFFECT = {  # an effect object's shape; which keys it holds is set by its op, in _EFFECT_KEYS
    "op": (STRING, REQUIRED), "field": (STRING, REQUIRED),
    "value": (Kind(frozenset({str, int, float, bool, type(None)}), "a string, number, boolean or null"), None),
}
_EFFECT_KEYS = {"set": {"op", "field", "value"}, "set_from_result": {"op", "field"}}  # op -> exact keys


class RiskLevel(enum.IntEnum):
    """L0 atomic query, L1 composite operation, L2 policy-level fallback."""

    L0 = 0
    L1 = 1
    L2 = 2


@dataclass(frozen=True)
class Effect:
    """One declarative business-state write applied after successful execution.

    ``set`` writes its ``value``, a literal JSON scalar; ``set_from_result``
    holds no value and stores the digest of the skill result payload, so the
    reference survives replay.
    Business state is therefore a flat dict of scalars, and effects can
    neither fail nor alias one another.
    """

    op: str
    field: str
    value: Any = None

    def __post_init__(self) -> None:
        if type(self.op) is not str or self.op not in _EFFECT_KEYS:
            raise ConfigError(f"unknown postcondition op: {clip(repr(self.op))}")
        if type(self.field) not in _EFFECT["field"][0].types:
            raise ConfigError(f"postcondition field must be a string, not {clip(repr(self.field))}")
        if self.op == "set" and type(self.value) not in _EFFECT["value"][0].types:
            raise ConfigError(
                f"{named('postcondition', self.field)} sets a non-scalar value: {clip(repr(self.value))}")
        if self.op != "set" and self.value is not None:
            raise ConfigError(f"{named('postcondition', self.field)}: a {self.op!r} effect holds no value")


@dataclass(frozen=True)
class SkillSpec:
    id: str
    intent: IntentId
    level: RiskLevel
    applicable_stages: frozenset[StageId]  # empty set means "all stages"
    preconditions: tuple[str, ...] = ()  # business flags that must be truthy
    postconditions: tuple[Effect, ...] = ()

    def applies_at(self, stage: StageId) -> bool:
        return not self.applicable_stages or stage in self.applicable_stages


class SkillRegistry:
    """Holds skills in registration order; immutable once the build phase ends.

    Each intent's skills are also kept in selection order, (risk level,
    registration), as they are registered.
    """

    def __init__(self) -> None:
        self._by_id: dict[str, SkillSpec] = {}  # in registration order
        self._by_intent: dict[IntentId, list[SkillSpec]] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def get(self, skill_id: str) -> SkillSpec | None:
        return self._by_id.get(skill_id)

    def register(self, spec: SkillSpec, automaton: WorkflowAutomaton) -> None:
        """Add a skill after checking its id is new and its stages are the automaton's."""
        if spec.id in self._by_id:
            raise ConflictFault(f"skill id already registered: {clip(repr(spec.id))}")
        foreign = sorted(spec.applicable_stages - set(automaton.stages))
        if foreign:
            raise ConfigError(
                f"{named('skill', spec.id)} declares stages outside the automaton: {clip(', '.join(foreign))}"
            )
        self._by_id[spec.id] = spec
        candidates = self._by_intent.setdefault(spec.intent, [])
        candidates.append(spec)
        candidates.sort(key=lambda s: s.level)  # stable: registration order breaks ties

    def select_skill(self, intent: IntentId, stage: StageId | None = None) -> SkillSpec | None:
        """Unique skill serving *intent* that applies at *stage* (any stage when None).

        When several match, the lowest risk level wins; ties break by
        registration order, so selection stays deterministic and auditable.
        """
        for spec in self._by_intent.get(intent, ()):
            if stage is None or spec.applies_at(stage):
                return spec
        return None

    def check_preconditions(self, skill: SkillSpec, state: Mapping[str, Any]) -> tuple[tuple[str, bool], ...]:
        """The ``(flag, held)`` pair of each guard of *skill*, read from *state* without mutating it.

        Each guard holds when its business flag is truthy; an absent flag is
        false.  Evaluation is total (all guards, declared order) and cannot
        fail; an unguarded skill gives ``()``.
        """
        if not skill.preconditions:
            return ()
        return tuple([(name, bool(state.get(name, False))) for name in skill.preconditions])

    def validate_against(self, automaton: WorkflowAutomaton) -> list[str]:
        """Cross-checks between the registry and the active automaton, as ``"code: message"`` errors.

        A skill must never apply at a stage where its intent is illegal: the
        binding is the governing contract and per-skill stages refine it.
        Effect shapes are checked earlier, when each ``Effect`` is parsed.
        """
        errors: list[str] = []
        for spec in self:
            applies_everywhere = (
                not spec.applicable_stages
                or spec.applicable_stages == frozenset(automaton.stages)
            )
            if spec.level == RiskLevel.L0 and applies_everywhere and spec.preconditions:
                errors.append(
                    f"guarded_universal_query: L0 skill {spec.id!r} is available at every stage "
                    f"and must not declare preconditions"
                )
            if spec.intent not in automaton.binding:
                errors.append(
                    f"skill_unknown_intent: skill {spec.id!r} serves unknown intent {spec.intent!r}"
                )
                continue
            bound = automaton.binding[spec.intent]
            stages = spec.applicable_stages or set(automaton.stages)
            extra = sorted(set(stages) - set(bound))
            if extra:
                errors.append(
                    f"skill_stage_outside_binding: skill {spec.id!r} applies at {extra} where intent "
                    f"{spec.intent!r} is stage-illegal"
                )
        return errors


def apply_postconditions(skill: SkillSpec, state: dict[str, Any], result_digest: str) -> None:
    """Apply the skill's effects to the business *state* dict in place, in declared order.

    The one effect rule, shared by dispatch, the labeler and replay;
    ``set_from_result`` stores *result_digest*.  Total: it cannot fail.  The
    caller owns *state*: dispatch applies the effects to the step's own copy
    of the goal's state and commits it only when the whole dispatch succeeds.
    """
    for effect in skill.postconditions:
        state[effect.field] = effect.value if effect.op == "set" else result_digest


def skill_from_dict(raw: Mapping[str, Any]) -> SkillSpec:
    """Parse one skill config object at ``_SKILL``'s shape (``stages`` may be ``"*"`` for all)."""
    return _skills_from_list([raw])[0]


def _skills_from_list(raws: list) -> list[SkillSpec]:
    """Every skill config object of *raws*, read at once, then every effect of them all at once; then
    each skill's level, stages and effects' keys, in order."""
    rows = read_rows(raws, _SKILL, naming(raws, "id", "skill", "skill config"))

    def effect_what(position: int) -> str:  # the skill holding the file's effect at *position*
        for sid, *_, post, _, _ in rows:
            if position < len(post):
                return f"{named('skill', sid)}: effect {position}"
            position -= len(post)

    raw_effects = list(chain.from_iterable(row[5] for row in rows))
    effect_rows = iter(zip(raw_effects, read_rows(raw_effects, _EFFECT, effect_what)))
    specs = []
    for sid, intent, level, stages, pre, post, _, _ in rows:
        if level not in RiskLevel.__members__:
            raise ConfigError(f"unknown risk level: {clip(repr(level))}")
        if stages == "*":
            stages = ()
        elif type(stages) is str or not stages:  # the empty set is how a spec says every stage
            raise ConfigError(f"{named('skill', sid)}: 'stages' must name a stage, or be \"*\" for every stage, "
                              f"not {clip(repr(stages))}")
        effects = []  # a value under an op but set is refused below, as a key that op may not hold
        for raw, (op, field, value) in islice(effect_rows, len(post)):
            effects.append(Effect(op, field, value if op == "set" else None))
            if raw.keys() != _EFFECT_KEYS[op]:
                keys = ", ".join(sorted(_EFFECT_KEYS[op]))
                raise ConfigError(
                    f"{named('skill', sid)}: a {op!r} effect holds exactly {keys}, not {', '.join(sorted(raw))}")
        specs.append(
            SkillSpec(sid, intent, RiskLevel[level], frozenset(stages), tuple(pre), tuple(effects)))
    return specs


def build_registry(
    skill_dicts: list[Mapping[str, Any]], automaton: WorkflowAutomaton
) -> SkillRegistry:
    """Parse every skill config object, then register them in config order."""
    registry = SkillRegistry()
    for spec in _skills_from_list(json_container(skill_dicts, list, "skills")):
        registry.register(spec, automaton)
    return registry
