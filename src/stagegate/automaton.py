"""Workflow automaton: stages, transitions, and intent-stage legality.

A ``WorkflowAutomaton`` declares which stages a workflow may occupy, which
transitions between stages are legal, and — separately from the transition
relation — at which stages each intent may legally execute (the binding).
The binding is the first gate consulted by the dispatcher; the transition
relation governs stage advancement after a successful execution.

Stage and intent identifiers are case-sensitive exact strings.  Instances
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import LIST, OBJECT, REQUIRED, STRING, STRINGS, ConfigError, LookupFault, clip, read_rows, string_list

StageId = str
IntentId = str

_AUTOMATON = {  # the automaton config's shape
    "stages": (STRINGS, REQUIRED), "initial": (STRING, REQUIRED), "transitions": (LIST, REQUIRED),
    "intents": (STRINGS, REQUIRED), "binding": (OBJECT, REQUIRED), "stage_map": (OBJECT, REQUIRED),
}


@dataclass(frozen=True)
class WorkflowAutomaton:
    """One domain's stage set, transition relation, and intent binding.

    ``stage_map`` gives the stage the workflow should occupy after an intent
    succeeds.  A ``None`` target marks a stage-preserving intent (queries and
    fallbacks legal at every stage): dispatch never attempts a transition
    for it, which is the same as the target always equalling the current
    stage.
    """

    stages: tuple[StageId, ...]
    initial: StageId
    transitions: frozenset[tuple[StageId, StageId]]
    intents: tuple[IntentId, ...]
    binding: Mapping[IntentId, frozenset[StageId]]
    stage_map: Mapping[IntentId, StageId | None]
    _terminal: frozenset[StageId] = field(init=False, repr=False, compare=False)
    _stage_set: frozenset[StageId] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        outgoing = {f for f, t in self.transitions if f != t}
        object.__setattr__(self, "_terminal", frozenset(s for s in self.stages if s not in outgoing))
        object.__setattr__(self, "_stage_set", frozenset(self.stages))

    def is_stage_legal(self, intent: IntentId, stage: StageId) -> bool:
        """True iff *intent* may execute while the workflow sits at *stage*."""
        bound = self.binding.get(intent)
        if bound is None:
            raise LookupFault("intent", intent)
        if stage not in self._stage_set:
            raise LookupFault("stage", stage)
        return stage in bound

    def can_transition(self, from_stage: StageId, to_stage: StageId) -> bool:
        """True iff the stage change is declared legal (self-stay always is)."""
        stages = self._stage_set
        if from_stage not in stages or to_stage not in stages:
            raise LookupFault("stage", to_stage if from_stage in stages else from_stage)
        return from_stage == to_stage or (from_stage, to_stage) in self.transitions

    def target_stage(self, intent: IntentId) -> StageId | None:
        """Post-success stage for *intent*; None for stage-preserving intents."""
        if intent not in self.binding:
            raise LookupFault("intent", intent)
        return self.stage_map[intent]

    def terminal_stages(self) -> frozenset[StageId]:
        """Stages with no outgoing transition (workflow can only stay or stop)."""
        return self._terminal


def validate_definition(definition: WorkflowAutomaton) -> tuple[list[str], list[str]]:
    """Check every structural invariant: the errors and the warnings, each a ``"code: message"`` line."""
    errors: list[str] = []
    warnings: list[str] = []

    stage_set = set(definition.stages)
    if len(stage_set) != len(definition.stages):
        errors.append("duplicate_stage: stages contains duplicates")
    for stage in definition.stages:
        if not stage:
            errors.append("empty_stage: stage identifiers must be non-empty")

    intent_set = set(definition.intents)
    if len(intent_set) != len(definition.intents):
        errors.append("duplicate_intent: intents contains duplicates")
    for intent in definition.intents:
        if not intent:
            errors.append("empty_intent: intent identifiers must be non-empty")

    if definition.initial not in stage_set:
        errors.append(f"initial_not_in_stages: initial stage {definition.initial!r} not in stages")

    for frm, to in sorted(definition.transitions):
        if frm not in stage_set:
            errors.append(f"transition_unknown_stage: transition source {frm!r} not in stages")
        if to not in stage_set:
            errors.append(f"transition_unknown_stage: transition target {to!r} not in stages")

    for intent in sorted(definition.binding):
        if intent not in intent_set:
            errors.append(f"binding_unknown_intent: binding key {intent!r} not in intents")
        for stage in sorted(definition.binding[intent]):
            if stage not in stage_set:
                errors.append(
                    f"binding_unknown_stage: binding for {intent!r} names unknown stage {stage!r}"
                )
        if not definition.binding[intent]:
            # An intent legal nowhere is almost always an authoring mistake,
            # but adversarial configs may express it deliberately.
            warnings.append(f"binding_empty: intent {intent!r} is bound to no stage")

    for intent in sorted(intent_set):
        if intent not in definition.binding:
            errors.append(f"binding_missing_intent: intent {intent!r} missing from binding")
        if intent not in definition.stage_map:
            errors.append(f"stage_map_missing_intent: intent {intent!r} missing from stage_map")

    for intent in sorted(definition.stage_map):
        if intent not in intent_set:
            errors.append(f"stage_map_unknown_intent: stage_map key {intent!r} not in intents")
        target = definition.stage_map[intent]
        if target is not None and target not in stage_set:
            errors.append(
                f"stage_map_unknown_stage: stage_map for {intent!r} names unknown stage {target!r}"
            )

    return errors, warnings


def automaton_from_dict(raw: Mapping[str, Any]) -> WorkflowAutomaton:
    """Build an automaton from its JSON config form: ``_AUTOMATON``'s keys, each transition a list of
    two stages, each ``binding`` value a list of stages and each ``stage_map`` value a stage or null."""
    ((stages, initial, transitions, intents, binding, stage_map),) = read_rows(
        [raw], _AUTOMATON, lambda _: "automaton config")
    for pair in transitions:
        if len(string_list(pair, "a transition")) != 2:
            raise ConfigError(f"a transition must name two stages, not {clip(repr(pair))}")
    for intent, target in stage_map.items():
        if target is not None and type(target) is not str:
            raise ConfigError(f"stage_map of {intent!r} must be a stage or null, not {clip(repr(target))}")
    return WorkflowAutomaton(
        stages=tuple(stages),
        initial=initial,
        transitions=frozenset(map(tuple, transitions)),
        intents=tuple(intents),
        binding={i: frozenset(string_list(ss, f"binding of {i!r}")) for i, ss in binding.items()},
        stage_map=dict(stage_map),
    )
