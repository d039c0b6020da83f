"""Suite execution harness shared by the CLI, the evaluator, and tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .dispatcher import FULL, DispatchDeps, DispatchResult, DispatchToggles, dispatch
from .memory import FileEventStore, GoalManager, InMemoryEventStore, ProcessEvent
from .scenarios import DomainBundle, LabeledMessage, Scenario

_record = tuple.__new__  # _record(cls, values) builds a NamedTuple from all its values, skipping cls.__new__


class StepRecord(NamedTuple):
    """One dispatched message, with the scenario it belongs to and what its dispatch did."""

    scenario: Scenario
    message: LabeledMessage
    result: DispatchResult

    @property
    def goal_id(self) -> str:
        return self.result.event.goal_id

    @property
    def event(self) -> ProcessEvent:
        return self.result.event

    @property
    def outcome(self) -> str:
        return self.result.event.outcome


@dataclass
class RunResult:
    toggles: DispatchToggles
    scenarios: list[Scenario]
    steps: list[StepRecord]
    manager: GoalManager

    def events(self) -> list[ProcessEvent]:
        """The logged events in step order: every step's with ``audit`` on, none with it off."""
        if not self.toggles.audit:
            return []
        return [s.result.event for s in self.steps]


def goal_id_for(scenario: Scenario, track: int) -> str:
    return f"{scenario.scenario_id}-t{track}"


def run_suite(
    bundle: DomainBundle,
    scenarios: Sequence[Scenario],
    toggles: DispatchToggles = FULL,
    store: InMemoryEventStore | FileEventStore | None = None,
    fail_ids: Sequence[str] = (),
) -> RunResult:
    """Dispatch every scenario of a suite against a fresh goal per track.

    Scenarios run in suite order and messages within a scenario in authored
    turn order (that order is the deterministic interleaving schedule for
    concurrent scenarios), so artifacts are reproducible.
    """
    manager = GoalManager(store=store)
    manager.add_domain(bundle.name, bundle.automaton, bundle.registry)
    executor = bundle.build_executor(fail_ids=fail_ids)
    deps = DispatchDeps(
        automaton=bundle.automaton,
        registry=bundle.registry,
        table=bundle.table,
        manager=manager,
        executor=executor,
        fallback=bundle.fallback,
    )

    for scenario in scenarios:
        for track in scenario.tracks():
            manager.create_goal(bundle.name, goal_id=goal_id_for(scenario, track))

    steps: list[StepRecord] = []
    for scenario in scenarios:
        for msg in scenario.messages:
            gid = goal_id_for(scenario, msg.track)
            steps.append(_record(StepRecord, (scenario, msg, dispatch(msg.text, gid, deps, toggles))))

    manager.write_snapshots()
    return RunResult(
        toggles=toggles,
        scenarios=list(scenarios),
        steps=steps,
        manager=manager,
    )
