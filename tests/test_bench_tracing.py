"""Every layer the benchmark's tracer wraps is still reached by a dispatch.

A refactor that moves a call off the dispatch path, or renames what the
tracer wraps, would silently zero that layer's metric; this keeps it loud.
"""

from __future__ import annotations

from stagegate import dispatcher
from stagegate.dispatcher import DispatchDeps
from stagegate.memory import GoalManager
from stagegate.runner import goal_id_for

UNDER_DISPATCH = (
    "router.identify",
    "automaton.is_stage_legal",
    "automaton.can_transition",
    "automaton.target_stage",
    "registry.select",
    "registry.precondition",
    "registry.effects",
    "context.digest",
    "dispatcher.executor",
    "memory.context",
    "memory.commit_context",
    "memory.advance_stage",
    "memory.log_event",
)


def test_each_traced_layer_records_calls_under_a_dispatch_of_the_hr_suite(
    bench_tracing, hr_bundle, hr_suite
):
    manager = GoalManager()
    manager.add_domain(hr_bundle.name, hr_bundle.automaton, hr_bundle.registry)
    deps = DispatchDeps(
        automaton=hr_bundle.automaton,
        registry=hr_bundle.registry,
        table=hr_bundle.table,
        manager=manager,
        executor=hr_bundle.build_executor(),
        fallback=hr_bundle.fallback,
    )
    for scenario in hr_suite:
        for track in scenario.tracks():
            manager.create_goal(hr_bundle.name, goal_id=goal_id_for(scenario, track))

    with bench_tracing.Tracer().install() as tracer:
        for scenario in hr_suite:
            for msg in scenario.messages:
                dispatcher.dispatch(msg.text, goal_id_for(scenario, msg.track), deps)
        records, counts = tracer.take()

    def calls(span: str, parent: str) -> int:
        return sum(1 for record in records.get(span, ()) if record[2] == parent)

    messages = sum(len(scenario.messages) for scenario in hr_suite)
    assert calls("dispatcher.dispatch", None) == messages
    missing = [span for span in UNDER_DISPATCH if calls(span, "dispatcher.dispatch") == 0]
    assert missing == []
    assert calls("memory.append", "memory.log_event") > 0
    assert counts["context.clone"] > 0
