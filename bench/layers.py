"""Per-layer metrics from the traced passes.

Times are per-call self times (the span minus its child spans), reported as
medians.  Layers on the dispatch path only count calls made directly by a
dispatch, so the same function called from ``compute_report`` does not mix
in.  Two times are sums over one call's children: ``automaton.gate_us``
(``is_stage_legal`` + ``can_transition`` + ``target_stage`` in one dispatch)
and ``memory.context_us`` (``context`` + ``commit_context`` in one dispatch).
Counts and ratios are taken per dispatch.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from harness import PassResult

DISPATCH = "dispatcher.dispatch"
GATE = ("automaton.is_stage_legal", "automaton.can_transition", "automaton.target_stage")
CONTEXT = ("memory.context", "memory.commit_context")

# span name, required parent (None: any) -> metric fed with each call's self time
SELF_TIMES = {
    ("router.identify", DISPATCH): "router.identify_us",
    ("router.fallback", "router.identify"): "router.fallback_us",
    ("registry.select", DISPATCH): "registry.select_us",
    ("registry.precondition", DISPATCH): "registry.precondition_us",
    ("registry.effects", DISPATCH): "registry.effects_us",
    ("dispatcher.executor", DISPATCH): "dispatcher.executor_us",
    ("context.digest", DISPATCH): "context.digest_us",
    ("memory.log_event", DISPATCH): "memory.log_event_us",
    ("memory.append", "memory.log_event"): "memory.append_us",
    ("memory.create_goal", None): "memory.create_goal_us",
    ("memory.write_snapshots", "runner.run_suite"): "memory.snapshot_ms",
    ("runner.run_suite", None): "runner.self_ms",
    ("evaluation.compute_report", None): "evaluation.self_ms",
    ("scenarios.load_domain", None): "scenarios.load_domain_ms",
    ("scenarios.load_suite", None): "scenarios.load_suite_ms",
    (DISPATCH, None): "dispatcher.self_us",
}

# Every metric layers() returns, in print order, with its unit.
METRICS = (
    ("router.identify_us", "us"),
    ("router.exprs_tested_per_msg", "count"),
    ("router.fallback_us", "us"),
    ("router.fallback_ratio", "ratio"),
    ("router.unresolved_ratio", "ratio"),
    ("automaton.gate_us", "us"),
    ("registry.select_us", "us"),
    ("registry.precondition_us", "us"),
    ("registry.effects_us", "us"),
    ("dispatcher.executor_us", "us"),
    ("context.digest_us", "us"),
    ("context.clone_us", "us"),
    ("context.clones_per_dispatch", "count"),
    ("memory.context_us", "us"),
    ("memory.log_event_us", "us"),
    ("memory.append_us", "us"),
    ("memory.trace_bytes_per_event", "bytes"),
    ("memory.create_goal_us", "us"),
    ("memory.snapshot_ms", "ms"),
    ("memory.snapshot_bytes_per_goal", "bytes"),
    ("runner.self_ms", "ms"),
    ("memory.replay_us_per_goal", "us"),
    ("evaluation.simulate_ms", "ms"),
    ("evaluation.replay_ms", "ms"),
    ("evaluation.self_ms", "ms"),
    ("scenarios.load_domain_ms", "ms"),
    ("scenarios.load_suite_ms", "ms"),
    ("dispatcher.self_us", "us"),
    ("dispatcher.executed_ratio", "ratio"),
    ("dispatcher.span_coverage", "ratio"),
    ("tracing.overhead_us", "us"),
)


class LayerStats:
    """Samples and totals gathered over the traced passes of one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[int]] = defaultdict(list)
        self.totals: Counter[str] = Counter()

    def add_trace(self, records: dict, counts: Counter[str]) -> None:
        """Fold in one batch of Tracer records and counts."""
        self.totals["matches"] += counts["router.matches"]
        self.totals["clones"] += counts["context.clone"]
        # Dispatches the benchmark made itself, which is where counts are taken.
        self.totals["direct_dispatches"] += sum(1 for rec in records.get(DISPATCH, ()) if rec[2] is None)
        for (span, parent), metric in SELF_TIMES.items():
            out = self.samples[metric]
            for _, self_ns, span_parent, _ in records.get(span, ()):
                if parent is None or span_parent == parent:
                    out.append(self_ns)
        for duration, self_ns, _, children in records.get(DISPATCH, ()):
            self.totals["dispatches"] += 1
            self.totals["dispatch_ns"] += duration
            self.totals["covered_ns"] += duration - self_ns
            self.totals["identify"] += "router.identify" in children
            self.totals["executed"] += "dispatcher.executor" in children
            gate = sum(children.get(name, 0) for name in GATE)
            if gate:
                self.samples["automaton.gate_us"].append(gate)
            self.samples["memory.context_us"].append(sum(children.get(name, 0) for name in CONTEXT))
        self.totals["fallback"] += sum(
            1 for rec in records.get("router.fallback", ()) if rec[2] == "router.identify"
        )
        for _, _, _, children in records.get("evaluation.compute_report", ()):
            self.samples["evaluation.simulate_ms"].append(children.get("evaluation.simulate", 0))
            self.samples["evaluation.replay_ms"].append(children.get("memory.replay", 0))

    def add_pass(self, result: PassResult) -> None:
        """Fold in what a traced pass measured outside the spans."""
        self.totals["outcomes"] += sum(result.outcomes.values())
        self.totals["unresolved"] += result.unresolved
        self.totals["trace_bytes"] += result.trace_bytes
        self.totals["events"] += result.events
        self.totals["snapshot_bytes"] += result.snapshot_bytes
        self.totals["goals"] += result.goals
        self.samples["context.clone_us"].extend(result.clone_ns)
        self.samples["memory.replay_us_per_goal"].extend(result.replay_ns)

    def metrics(self, overhead_us: float) -> dict[str, float]:
        t = self.totals

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name, unit in METRICS:
            samples = self.samples.get(name)
            if samples is not None:
                scale = 1e3 if unit == "us" else 1e6
                out[name] = statistics.median(samples) / scale if samples else 0.0
        out.update({
            "router.exprs_tested_per_msg": ratio(t["matches"], t["direct_dispatches"]),
            "router.fallback_ratio": ratio(t["fallback"], t["identify"]),
            "router.unresolved_ratio": ratio(t["unresolved"], t["outcomes"]),
            "context.clones_per_dispatch": ratio(t["clones"], t["direct_dispatches"]),
            "memory.trace_bytes_per_event": ratio(t["trace_bytes"], t["events"]),
            "memory.snapshot_bytes_per_goal": ratio(t["snapshot_bytes"], t["goals"]),
            "dispatcher.executed_ratio": ratio(t["executed"], t["dispatches"]),
            "dispatcher.span_coverage": ratio(t["covered_ns"], t["dispatch_ns"]),
            "tracing.overhead_us": overhead_us,
        })
        return {name: out[name] for name, _ in METRICS}
