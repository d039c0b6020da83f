"""Outside-in tracing: spans and counters around stagegate's public calls.

Nothing here edits the package.  ``Tracer.install`` replaces module and
class attributes with wrappers for the length of a ``with`` block and puts
the originals back on exit, so an untraced pass in the same process runs the
unwrapped code.

A span records its duration, its self time (duration minus the time its
child spans cover), the name of its parent span and, per child name, the
time its children took.  Hot inner calls (``MatchExpr.matches``,
``DispatchContext.clone``) are only counted: a timer on each of them costs
more than the call and would swamp the spans around them.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from stagegate import automaton, context, dispatcher, evaluation, memory, registry, router, runner, scenarios

# span name -> (owner, attribute) of every public boundary wrapped.  The
# dispatcher and runner import some callables by name, so those are patched
# where they are looked up.
SPANS: dict[str, tuple[tuple[Any, str], ...]] = {
    "scenarios.load_domain": ((scenarios, "load_domain"),),
    "scenarios.load_suite": ((scenarios, "load_suite"),),
    "runner.run_suite": ((runner, "run_suite"),),
    "dispatcher.dispatch": ((dispatcher, "dispatch"), (runner, "dispatch")),
    "dispatcher.executor": ((dispatcher.MockExecutor, "__call__"),),
    "router.identify": ((dispatcher, "identify"),),
    "router.fallback": ((router.TokenOverlapFallback, "__call__"),),
    "automaton.is_stage_legal": ((automaton.WorkflowAutomaton, "is_stage_legal"),),
    "automaton.can_transition": ((automaton.WorkflowAutomaton, "can_transition"),),
    "automaton.target_stage": ((automaton.WorkflowAutomaton, "target_stage"),),
    "registry.select": ((registry.SkillRegistry, "select_skill"),),
    "registry.precondition": ((registry.SkillRegistry, "check_preconditions"),),
    "registry.effects": ((dispatcher, "apply_postconditions"),),
    "context.digest": ((dispatcher, "payload_digest"),),
    "memory.create_goal": ((memory.GoalManager, "create_goal"),),
    "memory.context": ((memory.GoalManager, "context"),),
    "memory.commit_context": ((memory.GoalManager, "commit_context"),),
    "memory.advance_stage": ((memory.GoalManager, "advance_stage"),),
    "memory.log_event": ((memory.GoalManager, "log_event"),),
    "memory.append": (
        (memory.InMemoryEventStore, "append"),
        (memory.FileEventStore, "append"),
    ),
    "memory.write_snapshots": ((memory.GoalManager, "write_snapshots"),),
    "memory.replay": ((memory.GoalManager, "replay"),),
    "evaluation.compute_report": ((evaluation, "compute_report"),),
    "evaluation.simulate": ((evaluation, "simulate_scenario"),),
}

# (duration_ns, self_ns, parent span name, {child span name: ns})
Record = tuple[int, int, "str | None", dict[str, int]]

COUNTERS: dict[str, tuple[Any, str]] = {
    "router.matches": (router.MatchExpr, "matches"),
    "context.clone": (context.DispatchContext, "clone"),
}


class Tracer:
    """Collects span records and in-dispatch call counts in memory."""

    def __init__(self) -> None:
        # One frame per open span: [name, covered_ns, {child name: ns}].
        self._stack: list[list[Any]] = []
        self.records: dict[str, list[Record]] = defaultdict(list)
        self.counts: Counter[str] = Counter()

    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        record = self.records[name].append
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0, {}]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                record((duration, duration - frame[1], parent[0] if parent else None, frame[2]))
                if parent is not None:
                    parent[1] += duration
                    children = parent[2]
                    children[name] = children.get(name, 0) + duration

        return traced

    def _counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            # Only calls inside a dispatch the benchmark makes itself: not
            # from run_suite or compute_report, nor from its own checks.
            if stack and stack[0][0] == "dispatcher.dispatch":
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def take(self) -> tuple[dict[str, list[Record]], Counter[str]]:
        """Return the records and counts gathered since the last call, and reset both."""
        records = {name: list(recs) for name, recs in self.records.items()}
        for recs in self.records.values():
            recs.clear()  # the wrappers hold these lists' append methods
        counts = Counter(self.counts)
        self.counts.clear()
        return records, counts

    @contextmanager
    def install(self) -> Iterator["Tracer"]:
        """Wrap every boundary in SPANS and COUNTERS; restore them on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for name, targets in SPANS.items():
                for owner, attr in targets:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._span(name, original))
            for name, (owner, attr) in COUNTERS.items():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._counter(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
