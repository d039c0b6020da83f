"""Acceptance suite: the nine exit criteria, one test each.

Every test prints a single PASS line with its measured numbers once its
assertions hold, so a verbose run reads as a checklist.  Runtime budgets
are asserted with the stated bounds.
"""

from __future__ import annotations

import copy
import json
import random
import statistics
import time

from stagegate.cli import main
from stagegate.dispatcher import DispatchDeps, dispatch
from stagegate.evaluation import (
    ABLATION_CONFIGS,
    blocking_metrics,
    compare_configs,
    compute_report,
)
from stagegate.memory import GoalManager
from stagegate.router import identify
from stagegate.runner import run_suite
from stagegate.scenarios import bundle_from_dicts, detect_latent, load_domain, load_suite
from stagegate.suites import (
    SGD_DOMAINS,
    hr_domain_dir,
    hr_suite_path,
    sgd_domain_dir,
    sgd_suite_path,
)

from reference import random_domain, random_messages, run_reference


def _announce(number: int, label: str, detail: str) -> None:
    print(f"\n[PASS] criterion {number} ({label}): {detail}")


def test_criterion_1_metric_arithmetic_reproduction():
    start = time.perf_counter()
    metrics = blocking_metrics(tp=22, fp=0, fn=3, tn=857)
    values = {
        "accuracy": 100 * metrics["accuracy"],
        "precision": 100 * metrics["precision"],
        "recall": 100 * metrics["recall"],
        "f1": 100 * metrics["f1"],
    }
    expected = {"accuracy": 99.7, "precision": 100.0, "recall": 88.0, "f1": 93.6}
    for key, target in expected.items():
        assert abs(values[key] - target) <= 0.05, (key, values[key])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, "metric arithmetic", ", ".join(f"{k} {v:.2f}%" for k, v in values.items()))


def test_criterion_2_trace_distribution_reproduction(hr_bundle, hr_suite):
    start = time.perf_counter()
    run = run_suite(hr_bundle, hr_suite)
    report = compute_report(run, hr_bundle)
    counts = dict(report.distribution.counts)
    assert report.n_messages == 882
    assert report.n_scenarios == 185
    assert counts["SUCCESS"] == 860
    assert counts["ILLEGAL_TRANSITION"] == 16
    assert counts["PRECONDITION_FAIL"] == 6
    assert counts["SKILL_NOT_FOUND"] == 0
    assert report.blocked_stage_gate == 16
    assert report.blocked_precondition == 6
    stage_gate_events = [
        e for e in run.events() if e.sub_reason == "pre_exec_stage_illegal"
    ]
    assert len(stage_gate_events) == 16
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(
        2, "trace distribution",
        f"882 steps -> 860/16/6 ({report.distribution.percentage('SUCCESS'):.1f}%/"
        f"{report.distribution.percentage('ILLEGAL_TRANSITION'):.1f}%/"
        f"{report.distribution.percentage('PRECONDITION_FAIL'):.1f}%), "
        f"decomposition 16 stage-gate + 6 precondition, {elapsed:.2f}s",
    )


def test_criterion_3_safety_invariant_randomized():
    start = time.perf_counter()
    rng = random.Random(90125)
    dispatches = 0
    domains = 0
    while dispatches < 10_000:
        domain = random_domain(rng, max_stages=6, max_intents=20)
        domains += 1
        bundle = bundle_from_dicts("rnd", domain)
        manager = GoalManager()
        manager.add_domain("rnd", bundle.automaton, bundle.registry)
        deps = DispatchDeps(
            automaton=bundle.automaton,
            registry=bundle.registry,
            table=bundle.table,
            manager=manager,
            executor=bundle.build_executor(),
        )
        gid = manager.create_goal("rnd").goal_id
        for message in random_messages(rng, domain, 50):
            stage_before = manager.goal(gid).current_stage
            state_before = copy.deepcopy(manager.context(gid).business_state)
            result = dispatch(message, gid, deps)
            dispatches += 1
            if result.outcome != "SUCCESS":
                assert manager.goal(gid).current_stage == stage_before
                assert manager.context(gid).business_state == state_before
        for event in manager.store.events_for(gid):
            if event.outcome == "SUCCESS":
                assert event.stage_before in bundle.automaton.binding[event.intent], (
                    "SUCCESS event outside the intent binding"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(
        3, "safety invariant",
        f"{dispatches} randomized dispatches over {domains} random automata, "
        f"0 binding violations, 0 blocked-path mutations, {elapsed:.1f}s",
    )


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(41)
    agreements = 0
    total = 0
    while total < 1_000:
        domain = random_domain(rng, max_stages=6)
        bundle = bundle_from_dicts("rnd", domain)
        manager = GoalManager()
        manager.add_domain("rnd", bundle.automaton, bundle.registry)
        deps = DispatchDeps(
            automaton=bundle.automaton,
            registry=bundle.registry,
            table=bundle.table,
            manager=manager,
            executor=bundle.build_executor(),
        )
        gid = manager.create_goal("rnd").goal_id
        messages = random_messages(rng, domain, 25)
        expected = run_reference(domain, messages)
        for message, ref in zip(messages, expected):
            result = dispatch(message, gid, deps)
            total += 1
            if (
                result.outcome == ref.outcome
                and result.stage_after == ref.stage_after
                and manager.goal(gid).current_stage == ref.stage_after
            ):
                agreements += 1
    assert agreements == total, f"{agreements}/{total} agreement with the reference interpreter"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(4, "oracle equivalence", f"{agreements}/{total} steps agree, {elapsed:.1f}s")


def test_criterion_5_ablation_directions(hr_bundle, hr_suite):
    start = time.perf_counter()
    comparison = compare_configs(hr_bundle, hr_suite, ABLATION_CONFIGS)
    full = comparison["reports"]["full"]
    no_stage = comparison["reports"]["no_stage_check"]
    no_pre = comparison["reports"]["no_precondition"]
    no_audit = comparison["reports"]["no_audit"]

    assert no_stage["blocked_total"] > full["blocked_total"], "w/o StageCheck must block strictly more"
    assert no_stage["cvr"] > full["cvr"], "w/o StageCheck must raise CVR strictly"
    assert no_pre["blocked_total"] <= full["blocked_total"], "w/o Precondition must not block more"
    assert no_pre["cvr"] > full["cvr"], "w/o Precondition must raise CVR strictly"
    assert no_audit["trc"] == 0.0
    assert no_audit["blocked_total"] == full["blocked_total"]
    assert no_audit["trace_distribution"]["counts"] == full["trace_distribution"]["counts"]
    assert no_audit["tcr"] == full["tcr"] and no_audit["cvr"] == full["cvr"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(
        5, "ablation direction",
        f"blocked full={full['blocked_total']} no-stage={no_stage['blocked_total']} "
        f"no-precondition={no_pre['blocked_total']}; CVR {100 * full['cvr']:.1f}% -> "
        f"{100 * no_stage['cvr']:.1f}%; no-audit TRC 0.0 with identical outcomes, {elapsed:.1f}s",
    )


def test_criterion_6_replay_fidelity(hr_run):
    start = time.perf_counter()
    manager = hr_run.manager
    goals = manager.goal_ids()
    matched = 0
    for gid in goals:
        replayed = manager.replay(gid)
        live = manager.goal(gid)
        assert replayed.record.current_stage == live.current_stage, gid
        assert replayed.record.status == live.status, gid
        assert replayed.business_state == manager.context(gid).business_state, gid
        assert replayed.last_seq == manager.last_seq(gid), gid
        matched += 1
    assert matched == len(goals) == 215  # 155 single-track + 30 two-track scenarios
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(6, "replay fidelity", f"{matched}/{len(goals)} goals reconstruct exactly, {elapsed:.1f}s")


def test_criterion_7_cross_domain_blocking():
    start = time.perf_counter()
    injected_total = injected_blocked = 0
    false_positives = 0
    latent_by_domain: dict[str, int] = {}
    for domain in SGD_DOMAINS:
        bundle = load_domain(sgd_domain_dir(domain))
        suite = load_suite(sgd_suite_path(domain), bundle)
        run = run_suite(bundle, suite)
        report = compute_report(run, bundle)
        false_positives += report.blocking["confusion"]["fp"]
        by_id = {s.scenario_id: s for s in suite}
        for step in run.steps:
            if by_id[step.scenario.scenario_id].type == "illegal":
                injected_total += 1
                if step.result.blocked:
                    injected_blocked += 1
        latent = detect_latent(run.steps)
        if latent:
            latent_by_domain[domain] = len(latent)
    assert injected_total == 160
    assert injected_blocked == 160, f"only {injected_blocked}/160 injected attacks blocked"
    assert false_positives == 0
    assert latent_by_domain == {"Hotels_1": 38, "Music_1": 3}
    assert sum(latent_by_domain.values()) == 41
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(
        7, "cross-domain blocking",
        f"160/160 injected turns blocked, 0 false positives, latent 41 "
        f"(Hotels_1 38, Music_1 3), {elapsed:.1f}s",
    )


def test_criterion_8_legality_check_latency(hr_bundle, hr_run):
    start = time.perf_counter()
    gate_samples = [
        s.result.detail["timing_ns"]["gate_ns"]
        for s in hr_run.steps
        if "gate_ns" in s.result.detail["timing_ns"]
    ]
    assert len(gate_samples) > 800
    gate_median_ms = statistics.median(gate_samples) / 1e6
    assert gate_median_ms < 1.0, f"gate median {gate_median_ms:.3f} ms"

    # Worst-case guard width: stage gate plus a four-predicate evaluation.
    from stagegate.registry import RiskLevel, SkillRegistry, SkillSpec

    bench_registry = SkillRegistry()
    heavy = SkillSpec(
        id="bench-heavy", intent="query_status", level=RiskLevel.L1,
        applicable_stages=frozenset({"init"}),
        preconditions=tuple(f"g{i}" for i in range(4)),
    )
    state = {f"g{i}": True for i in range(4)}
    heavy_samples = []
    for _ in range(500):
        t0 = time.perf_counter_ns()
        hr_bundle.automaton.is_stage_legal("query_status", "init")
        pairs = bench_registry.check_preconditions(heavy, state)
        heavy_samples.append(time.perf_counter_ns() - t0)
        assert all(held for _, held in pairs)
    heavy_median_ms = statistics.median(heavy_samples) / 1e6
    assert heavy_median_ms < 1.0, f"4-predicate gate median {heavy_median_ms:.3f} ms"

    table = list(hr_bundle.table)
    pattern_count = sum(len(e.patterns) for e in table)
    assert pattern_count <= 100
    for _ in range(20):
        identify("schedule interview", hr_bundle.table)
    route_samples = []
    for _ in range(300):
        t0 = time.perf_counter_ns()
        identify("schedule the interview for the shortlisted candidate", hr_bundle.table)
        route_samples.append(time.perf_counter_ns() - t0)
    route_median_ms = statistics.median(route_samples) / 1e6
    assert route_median_ms < 1.0, f"router median {route_median_ms:.3f} ms"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(
        8, "legality-check latency",
        f"gate median {gate_median_ms * 1000:.1f} us over {len(gate_samples)} dispatches, "
        f"{heavy_median_ms * 1000:.1f} us with four predicates, "
        f"router median {route_median_ms * 1000:.1f} us over {pattern_count} patterns",
    )


def test_criterion_9_run_determinism(tmp_path):
    start = time.perf_counter()
    dirs = [tmp_path / "first", tmp_path / "second"]
    for out_dir in dirs:
        code = main([
            "run",
            "--domain", str(hr_domain_dir()),
            "--suite", str(hr_suite_path()),
            "--seed", "1207",
            "--out", str(out_dir),
        ])
        assert code == 0
    report_a = (dirs[0] / "report.json").read_bytes()
    report_b = (dirs[1] / "report.json").read_bytes()
    assert report_a == report_b, "report.json differs between identical runs"

    def normalized_traces(out_dir) -> dict[str, list[str]]:
        normalized = {}
        for trace in sorted((out_dir / "traces").glob("*.jsonl")):
            rows = []
            for line in trace.read_text().splitlines():
                row = json.loads(line)
                row.pop("timestamp")
                rows.append(json.dumps(row, sort_keys=True))
            normalized[trace.name] = rows
        return normalized

    traces_a = normalized_traces(dirs[0])
    traces_b = normalized_traces(dirs[1])
    assert traces_a == traces_b, "trace files differ between identical runs"
    total_lines = sum(len(v) for v in traces_a.values())
    assert total_lines == 882
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(
        9, "determinism",
        f"two seeded runs byte-identical: report.json and {len(traces_a)} trace files "
        f"({total_lines} lines, timestamps excluded), {elapsed:.1f}s",
    )
