"""Skill registry: risk-leveled capabilities with stage and predicate guards.

Skills are declarative records.  Each one serves a single intent, applies at
a declared set of stages, and is guarded by named predicates resolved
against a catalog of pure context functions.  Postconditions are restricted
to declarative context mutations so that replay stays deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .automaton import StageId, IntentId, WorkflowAutomaton
from .context import DispatchContext
from .errors import BindingFault, ConfigError, ConflictFault, parsing

_SKILL_KEYS = ("id", "intent", "level", "stages", "pre", "post", "risk", "disclosure")
_EFFECT_OPS = ("set", "set_from_result")
_SCALARS = (str, int, float, bool, type(None))


class RiskLevel(enum.IntEnum):
    """L0 atomic query, L1 composite operation, L2 policy-level fallback."""

    L0 = 0
    L1 = 1
    L2 = 2

    @classmethod
    def parse(cls, text: str) -> "RiskLevel":
        try:
            return cls[text]
        except KeyError:
            raise ConfigError(f"unknown risk level: {text!r}") from None


@dataclass(frozen=True)
class PredicateRef:
    name: str


@dataclass(frozen=True)
class Effect:
    """One declarative context mutation applied after successful execution.

    ``set`` writes a literal JSON scalar and ``set_from_result`` stores the
    digest of the skill result payload, so the reference survives replay.
    Business state is therefore a flat dict of scalars, and effects can
    neither fail nor alias one another.
    """

    op: str
    field: str
    value: Any = None

    def __post_init__(self) -> None:
        if self.op not in _EFFECT_OPS:
            raise ConfigError(f"unknown postcondition op: {self.op!r}")
        if not isinstance(self.field, str):
            raise ConfigError(f"postcondition field must be a string, not {self.field!r}")
        if self.op == "set" and not isinstance(self.value, _SCALARS):
            raise ConfigError(f"postcondition {self.field!r} sets a non-scalar value: {self.value!r}")


@dataclass(frozen=True)
class SkillSpec:
    id: str
    intent: IntentId
    level: RiskLevel
    applicable_stages: frozenset[StageId]  # empty set means "all stages"
    preconditions: tuple[PredicateRef, ...] = ()
    postconditions: tuple[Effect, ...] = ()
    risk_class: str = ""
    disclosure_tier: str = "bound"  # "routing" | "bound"

    def applies_at(self, stage: StageId) -> bool:
        return not self.applicable_stages or stage in self.applicable_stages


class PreconditionReport(NamedTuple):
    satisfied: bool
    results: tuple[tuple[str, bool], ...]
    first_failure: str | None
    evaluation_errors: Mapping[str, str]


Predicate = Callable[[DispatchContext], bool]


class PredicateCatalog:
    """Named table of pure context predicates."""

    def __init__(self) -> None:
        self._table: dict[str, Predicate] = {}

    def register(self, name: str, fn: Predicate) -> None:
        self._table[name] = fn

    def register_flag(self, name: str) -> None:
        """Register a predicate that checks the same-named business flag."""
        self.register(name, lambda ctx, _flag=name: bool(ctx.business_state.get(_flag, False)))

    def resolves(self, name: str) -> bool:
        return name in self._table

    def evaluate(self, name: str, ctx: DispatchContext) -> bool:
        return bool(self._table[name](ctx))


class SkillRegistry:
    """Holds skills in registration order; immutable once the build phase ends.

    Each intent's skills are also kept in selection order, (risk level,
    registration), as they are registered.
    """

    def __init__(self, catalog: PredicateCatalog) -> None:
        self.catalog = catalog
        self._skills: list[SkillSpec] = []
        self._by_id: dict[str, SkillSpec] = {}
        self._by_intent: dict[IntentId, list[SkillSpec]] = {}

    def __len__(self) -> int:
        return len(self._skills)

    def __iter__(self):
        return iter(self._skills)

    def get(self, skill_id: str) -> SkillSpec | None:
        return self._by_id.get(skill_id)

    def register(self, spec: SkillSpec, automaton: WorkflowAutomaton) -> None:
        """Add a skill after checking stage membership and predicate binding."""
        if spec.id in self._by_id:
            raise ConflictFault(f"skill id already registered: {spec.id!r}")
        foreign = sorted(spec.applicable_stages - set(automaton.stages))
        if foreign:
            raise ConfigError(
                f"skill {spec.id!r} declares stages outside the automaton: {', '.join(foreign)}"
            )
        for ref in spec.preconditions:
            if not self.catalog.resolves(ref.name):
                raise BindingFault(ref.name)
        self._skills.append(spec)
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

    def check_preconditions(self, skill: SkillSpec, ctx: DispatchContext) -> PreconditionReport:
        """Evaluate every guard of *skill* against *ctx* without mutating it.

        Evaluation is total (all predicates, declared order) and never
        raises: a predicate that faults is recorded as a false result tagged
        with the error, so the dispatcher returns a clean block instead of
        crashing mid-dispatch.  ``register`` already refused unknown names.
        """
        results: list[tuple[str, bool]] = []
        errors: dict[str, str] = {}
        first_failure: str | None = None
        for ref in skill.preconditions:
            try:
                passed = self.catalog.evaluate(ref.name, ctx)
            except Exception as exc:  # predicate fault degrades to False
                passed = False
                errors[ref.name] = f"evaluation_error: {exc}"
            results.append((ref.name, passed))
            if not passed and first_failure is None:
                first_failure = ref.name
        return PreconditionReport(first_failure is None, tuple(results), first_failure, errors)

    def validate_against(self, automaton: WorkflowAutomaton) -> list[str]:
        """Cross-checks between the registry and the active automaton, as ``"code: message"`` errors.

        A skill must never apply at a stage where its intent is illegal: the
        binding is the governing contract and per-skill stages refine it.
        Effect shapes are checked earlier, when each ``Effect`` is parsed.
        """
        errors: list[str] = []
        for spec in self._skills:
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


def apply_postconditions(skill: SkillSpec, ctx: DispatchContext, result_digest: str) -> DispatchContext:
    """Return a context with the skill's effects applied, in declared order.

    The one effect rule, shared by dispatch, the labeler and replay;
    ``set_from_result`` stores *result_digest*.  Total: it cannot fail.  The
    input context is never mutated; callers commit the returned copy only
    when the whole dispatch succeeds.
    """
    updated = ctx.clone()
    state = updated.business_state
    for effect in skill.postconditions:
        state[effect.field] = effect.value if effect.op == "set" else result_digest
    return updated


def skill_from_dict(raw: Mapping[str, Any]) -> SkillSpec:
    """Parse one skill config object (``stages`` may be ``"*"`` for all)."""
    with parsing("skill config"):
        unknown = sorted(set(raw) - set(_SKILL_KEYS))
        if unknown:
            raise ConfigError(f"unknown skill config keys: {', '.join(unknown)}")
        for key in ("id", "intent", "level"):
            if key not in raw:
                raise ConfigError(f"skill config missing key: {key}")
        stages_raw, pre_raw = raw.get("stages", "*"), raw.get("pre", [])
        if isinstance(pre_raw, str) or (isinstance(stages_raw, str) and stages_raw != "*"):
            key = "pre" if isinstance(pre_raw, str) else "stages"
            raise ConfigError(f"skill {raw['id']!r}: {key!r} must be a list, not a string")
        stages = frozenset() if stages_raw == "*" else frozenset(str(s) for s in stages_raw)
        effects = tuple(
            Effect(op=eff["op"], field=eff["field"], value=eff.get("value"))
            for eff in raw.get("post", [])
        )
        return SkillSpec(
            id=str(raw["id"]),
            intent=str(raw["intent"]),
            level=RiskLevel.parse(str(raw["level"])),
            applicable_stages=stages,
            preconditions=tuple(PredicateRef(str(name)) for name in pre_raw),
            postconditions=effects,
            risk_class=str(raw.get("risk", "")),
            disclosure_tier=str(raw.get("disclosure", "bound")),
        )


def build_registry(
    skill_dicts: Sequence[Mapping[str, Any]],
    automaton: WorkflowAutomaton,
    catalog: PredicateCatalog | None = None,
) -> SkillRegistry:
    """Build a registry from config objects, auto-registering flag predicates.

    Predicate names that were not explicitly registered are bound to
    same-named business flags, which is the convention all shipped configs
    follow.  Explicit registrations always win.
    """
    catalog = catalog or PredicateCatalog()
    specs = [skill_from_dict(raw) for raw in skill_dicts]
    for spec in specs:
        for ref in spec.preconditions:
            if not catalog.resolves(ref.name):
                catalog.register_flag(ref.name)
    registry = SkillRegistry(catalog)
    for spec in specs:
        registry.register(spec, automaton)
    return registry
