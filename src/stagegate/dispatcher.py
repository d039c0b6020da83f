"""State-aware dispatch: route, gate, execute, advance, audit.

Every message passes the same pipeline: intent resolution, then the gate
kernel ``decide`` (stage legality, stage-filtered skill selection, the
skill's precondition flags, the declared transition), then execution,
postcondition application, and a validated stage advance.  Every step
builds one ProcessEvent, its only record; with ``audit`` on it is appended
before any state moves, so a store that fails to append leaves the goal as
it was.  The forward-simulation labeler folds the same ``decide``, so the
gate order is written once.

Two block classes both surface as ILLEGAL_TRANSITION and are told apart by
sub-reason: ``pre_exec_stage_illegal`` (the stage gate fired before any
skill was selected) and ``post_exec_transition_rejected`` (the intent was
stage-legal but its target stage is unreachable from here; the skill ran,
but nothing is committed).  No blocked dispatch mutates business state or
stage.  A SUCCESS step whose executor failed (``execution_error``) commits
nothing either; only a SUCCESS without a sub-reason moves state, live and in
replay.  Effects cannot fault: a bundle that loads sets only JSON scalars.
Each step works on its own copy of the goal's business-state dict: the gates
read it, the effects write it and the commit takes it.  The executor, the one
piece of caller code that sees state, is handed a ``DispatchContext`` holding
a copy of that copy, so nothing it writes is ever committed.  A goal is
dispatched only with the automaton and registry its domain was wired to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .automaton import StageId, WorkflowAutomaton
from .context import DispatchContext, canonical, payload_digest
from .errors import ConfigError
from .memory import GoalManager, ProcessEvent
from .registry import SkillRegistry, SkillSpec, apply_postconditions
from .router import FallbackResolver, PatternTable, identify

Executor = Callable[[SkillSpec, DispatchContext], bytes]
"""Runs one selected skill against a copy of the goal's context.

It returns the result as canonical JSON ``bytes`` (``canonical(obj)``), or
raises on failure.  The dispatcher hashes exactly those bytes into the
event's ``payload_digest`` and retains them; it never takes a digest from
the executor.  A failure, or a return value that is not ``bytes``, ends the
step as ``SUCCESS``/``execution_error`` with nothing committed, and the
digest is that of ``canonical({"error": str(exc)})``.
"""

BLOCK_OUTCOMES = ("ILLEGAL_TRANSITION", "PRECONDITION_FAIL")

_record = tuple.__new__  # _record(cls, values) builds a NamedTuple from all its values, skipping cls.__new__


@dataclass(frozen=True)
class DispatchToggles:
    """Ablation switches; all on reproduces the full pipeline.

    ``stage_check=False`` removes the first-line defense: intents flow
    straight to intent-only skill selection and only preconditions (and the
    post-execution transition check) stand between a stage-illegal request
    and execution.  ``precondition_check=False`` still evaluates and records
    the skill's flags, but never blocks on them.  ``audit=False`` builds the
    same event but does not log it; state moves but ``last_seq`` does not, so
    every event of a goal that logged none carries seq 1.
    """

    stage_check: bool = True
    precondition_check: bool = True
    audit: bool = True


FULL = DispatchToggles()


@dataclass(frozen=True)
class DispatchDeps:
    automaton: WorkflowAutomaton
    registry: SkillRegistry
    table: PatternTable
    manager: GoalManager
    executor: Executor
    fallback: FallbackResolver | None = None


class DispatchResult(NamedTuple):
    """One dispatch: its event, the step's only record, and what the event lacks.

    ``detail`` is ``{"routing": {"mode": ...}, "timing_ns": {...}}``, with
    ``routing["error"]`` when the fallback raised.  No field has a default:
    a default dict would be shared by every instance.
    """

    event: ProcessEvent
    detail: dict[str, Any]

    @property
    def outcome(self) -> str:
        return self.event.outcome

    @property
    def stage_before(self) -> StageId:
        return self.event.stage_before

    @property
    def stage_after(self) -> StageId:
        return self.event.stage_after

    @property
    def skill_id(self) -> str | None:
        return self.event.skill_id

    @property
    def blocked(self) -> bool:
        return self.event.outcome in BLOCK_OUTCOMES


@dataclass(slots=True)
class Decision:
    """What the gates decide for one intent at one stage, before execution.

    ``stage_before`` is the stage ``decide`` was asked at and ``stage_after``
    the one it leaves the goal at: only a SUCCESS into another stage moves it.
    ``executes`` says whether the skill runs: a SUCCESS decision, or a
    post-execution transition rejection (the skill runs, nothing commits).
    ``pre_results`` holds the selected skill's flags, checked or not.
    """

    outcome: str
    stage_before: StageId
    stage_after: StageId
    sub_reason: str | None = None
    skill: SkillSpec | None = None
    pre_results: tuple[tuple[str, bool], ...] = ()

    @property
    def executes(self) -> bool:
        return self.outcome == "SUCCESS" or self.sub_reason == "post_exec_transition_rejected"


def decide(
    automaton: WorkflowAutomaton,
    registry: SkillRegistry,
    stage: StageId,
    state: Mapping[str, Any],
    intent: str,
    toggles: DispatchToggles = FULL,
) -> Decision:
    """The gate kernel: stage legality, skill selection, preconditions, transition.

    Pure: nothing is executed or mutated.  A selected skill's flags are
    always evaluated and returned; ``precondition_check`` decides only
    whether a failed one blocks.  The transition rule is the one applied
    after a successful execution; the dispatcher runs the skill only when
    ``executes`` holds, and the labeler folds this same function.
    """
    if intent not in automaton.binding:
        return Decision("SKILL_NOT_FOUND", stage, stage, "intent_unresolved")
    if toggles.stage_check and not automaton.is_stage_legal(intent, stage):
        return Decision("ILLEGAL_TRANSITION", stage, stage, "pre_exec_stage_illegal")
    skill = registry.select_skill(intent, stage if toggles.stage_check else None)
    if skill is None:
        return Decision("SKILL_NOT_FOUND", stage, stage, "no_matching_skill")

    pre_results = registry.check_preconditions(skill, state)
    # Lists, not generators, here and in check_preconditions: a generator costs more than its few flags.
    if toggles.precondition_check and pre_results and not all([held for _, held in pre_results]):
        return Decision("PRECONDITION_FAIL", stage, stage, None, skill, pre_results)

    target = automaton.target_stage(intent)
    if target is None or target == stage:
        return Decision("SUCCESS", stage, stage, None, skill, pre_results)
    if not automaton.can_transition(stage, target):
        return Decision(
            "ILLEGAL_TRANSITION", stage, stage, "post_exec_transition_rejected", skill, pre_results
        )
    return Decision("SUCCESS", stage, target, None, skill, pre_results)


def dispatch(
    message: str,
    goal_id: str,
    deps: DispatchDeps,
    toggles: DispatchToggles = FULL,
) -> DispatchResult:
    """Run one message through the full pipeline for the given goal.

    A goal whose domain the manager holds wired to another automaton or
    registry than *deps* is refused with ConfigError before anything is built.
    Dispatches for the same goal are serialized; the goal's lock is held for
    the whole step.  Gate time (the ``decide`` kernel) and executor time are
    recorded separately in ``detail["timing_ns"]`` so dispatcher-internal
    overhead stays distinguishable from execution cost.
    """
    manager = deps.manager
    live = manager.live(goal_id)
    automaton, registry = manager.wiring(live.record.domain)
    if automaton is not deps.automaton or registry is not deps.registry:
        raise ConfigError(
            f"goal {goal_id!r}: its domain {live.record.domain!r} is wired to another "
            "automaton or registry than the dispatch deps"
        )
    with live.lock:
        stage = live.record.current_stage
        ctx = manager.context(goal_id)  # the step's own copy, committed on success

        t0 = time.perf_counter_ns()
        route = identify(message, deps.table, deps.fallback)
        t1 = time.perf_counter_ns()
        decision = decide(automaton, registry, stage, ctx.business_state, route.intent, toggles)
        timing = {"route_ns": t1 - t0, "gate_ns": time.perf_counter_ns() - t1}

        outcome, sub_reason, stage_after = decision.outcome, decision.sub_reason, decision.stage_after
        digest = payload = None
        if decision.executes:
            exec_start = time.perf_counter_ns()
            try:
                body = deps.executor(decision.skill, ctx.clone())
                if type(body) is not bytes:
                    raise TypeError(f"executor payload is {type(body).__name__}, not bytes")
            except Exception as exc:
                # Executor faults are not a governance outcome class: the step is
                # a failed SUCCESS-path dispatch with no postconditions and no
                # advance, even when the transition would have been rejected.
                body = canonical({"error": str(exc)})
                outcome, sub_reason, stage_after = "SUCCESS", "execution_error", stage
            timing["executor_ns"] = time.perf_counter_ns() - exec_start
            digest = payload_digest(body)
            if outcome == "SUCCESS" and sub_reason is None:
                payload = body
                apply_postconditions(decision.skill, ctx.business_state, digest)

        skill_id = decision.skill.id if decision.skill else None
        event = _record(ProcessEvent, (
            live.last_seq + 1, time.time(), goal_id, route.intent, stage, stage_after,
            skill_id, outcome, sub_reason, decision.pre_results, digest,
        ))
        if toggles.audit:
            manager.log_event(event, payload)
        # Write-ahead: a committing step, the only one with a payload, moves state
        # only once its event, when audited, is in the store.
        if payload is not None:
            if stage_after != stage:
                manager.advance_stage(goal_id, stage, stage_after)
            manager.commit_context(goal_id, ctx)
    routing = {"mode": route.mode}
    if route.error:
        routing["error"] = route.error
    return _record(DispatchResult, (event, {"routing": routing, "timing_ns": timing}))


class MockExecutor:
    """Deterministic canned responses keyed by skill id.

    Stands in for live endpoints: same skill + same fixtures always yields
    the identical bytes.  Failures can be injected per skill id: such a call
    raises, which exercises the execution-error path.  Each fixture is
    encoded to its canonical bytes once, here, and every call hands out
    those same immutable bytes.
    """

    def __init__(self, fixtures: Mapping[str, Any], fail_ids: Sequence[str] = ()) -> None:
        self.fixtures = {skill_id: canonical(fixture) for skill_id, fixture in fixtures.items()}
        self.fail_ids = set(fail_ids)

    def __call__(self, skill: SkillSpec, ctx: DispatchContext) -> bytes:
        if skill.id in self.fail_ids:
            raise RuntimeError(f"injected failure for {skill.id}")
        if skill.id not in self.fixtures:
            raise ConfigError(f"no fixture for skill {skill.id!r}")
        return self.fixtures[skill.id]
