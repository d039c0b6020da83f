"""Command-line entry point: validate, run, replay, report, ablate, inject.

Exit codes are stable across commands: 0 success, 1 validation failure or
replay divergence, 2 input fault (missing or unusable artifacts), 3 runtime
fault mid-run (a package fault, or an OS error such as a full disk), 141
stdout closed by its reader (as with ``| head``), with nothing on stderr,
unless ``replay`` has a snapshot's refusal to give.
Commands raise; ``main`` alone prints a refusal or fault as one stderr line
and returns its code.  An OS error a command lets through, from looking at
or creating a path before its first write, is an input fault like a
ConfigError.  Metric values never affect exit codes.

Primary artifacts (report, traces) are byte-reproducible for identical
inputs; wall-clock data is isolated to the manifest, trace
timestamps, and the separate timing file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .dispatcher import DispatchToggles
from .context import canonical
from .errors import ConfigError, IntegrityFault, StagegateError, clip, parsing
from .evaluation import EvalReport, compare_configs, comparison_text, compute_report, render_report
from .memory import FileEventStore, load_trace, replay_events
from .runner import RunResult, goal_id_for, run_suite
from .scenarios import (
    BUNDLE_FILES,
    DomainBundle,
    check_bundle,
    inject_illegal,
    load_domain,
    load_suite,
    read_json,
    save_suite,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool whose reader went away


def _toggles_from_args(args: argparse.Namespace) -> DispatchToggles:
    return DispatchToggles(
        stage_check=not args.no_stage_check,
        precondition_check=not args.no_precondition,
        audit=not args.no_audit,
    )


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _latency_ms(run: RunResult) -> dict[str, float]:
    """Median wall-clock ms of the gate, route and executor over the run's steps."""
    samples: dict[str, list[int]] = {}
    for step in run.steps:
        for key, ns in step.result.detail["timing_ns"].items():
            samples.setdefault(key, []).append(ns)
    return {
        name: round(statistics.median(samples.get(f"{name}_ns", [0])) / 1e6, 6)
        for name in ("gate", "route", "executor")
    }


class CommandError(Exception):
    """A command's refusal or fault: ``main`` prints *line* to stderr and exits with *code*."""

    def __init__(self, line: str, code: int = EXIT_INPUT) -> None:
        super().__init__(line)
        self.code = code


def cmd_validate(args: argparse.Namespace) -> int:
    directory = Path(args.domain)
    if not directory.is_dir():
        raise CommandError(f"error: {directory} is not a directory")
    parts = {key: read_json(directory / name) for key, name in BUNDLE_FILES.items()}
    errors, warnings = check_bundle(directory.name, parts)
    for part, message in warnings:
        print(f"warning: {BUNDLE_FILES[part]}: {message}")
    for part, message in errors:
        print(f"error: {BUNDLE_FILES[part]}: {message}")
    if errors:
        return EXIT_VALIDATION
    print(f"{directory.name}: bundle is valid")
    return EXIT_OK


def _load_inputs(args: argparse.Namespace) -> tuple[DomainBundle, list]:
    bundle = load_domain(args.domain)
    return bundle, load_suite(args.suite, bundle)


def _write_run_artifacts(
    out_dir: Path, run: RunResult, report: EvalReport, latency: dict[str, float], bundle: DomainBundle
) -> None:
    (out_dir / "report.json").write_text(_json_text(report.to_dict()), encoding="utf-8")
    (out_dir / "timing.json").write_text(_json_text({"latency_ms_median": latency}), encoding="utf-8")
    goals = {
        "domain": bundle.name,
        "scenarios": {
            s.scenario_id: {
                "type": s.type,
                "goals": {str(t): goal_id_for(s, t) for t in s.tracks()},
                "expected_final_stage": {str(t): st for t, st in sorted(s.expected_final_stage.items())},
            }
            for s in run.scenarios
        },
    }
    (out_dir / "goals.json").write_text(_json_text(goals), encoding="utf-8")


def cmd_run(args: argparse.Namespace) -> int:
    bundle, scenarios = _load_inputs(args)
    out_dir = Path(args.out)
    traces = out_dir / "traces"
    if traces.is_dir() and any(traces.iterdir()):
        # Appending would corrupt the earlier run's traces; never delete them.
        raise CommandError(f"error: {traces} already holds a run; choose another --out")
    for name in ("manifest.json", "report.json", "timing.json", "goals.json"):
        if (out_dir / name).is_dir():
            raise CommandError(f"error: {out_dir / name} is a directory; run writes its {name} there")
    traces.mkdir(parents=True, exist_ok=True)  # --out or its traces/ is a file: refuse before any write
    toggles = _toggles_from_args(args)
    manifest = {
        "run_id": f"{Path(args.suite).stem}-seed{args.seed}",
        "domain": str(Path(args.domain).resolve()),  # replay may run from elsewhere
        "suite": str(args.suite),
        "toggles": asdict(toggles),
        "seed": args.seed,
        "started_at": time.time(),
        "output_dir": str(out_dir),
    }
    try:
        (out_dir / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")
        run = run_suite(bundle, scenarios, toggles=toggles, store=FileEventStore(traces))
        report = compute_report(run, bundle)
        latency = _latency_ms(run)
        _write_run_artifacts(out_dir, run, report, latency, bundle)
    except (StagegateError, OSError) as exc:  # OSError: the disk fills or a write fails mid-run
        line = f"runtime fault: {exc} (partial traces kept in {traces})"
        raise CommandError(line, EXIT_RUNTIME) from None
    print(report.to_text())
    us = {name: ms * 1000 for name, ms in latency.items()}
    print(
        f"latency: gate {us['gate']:.1f} us  route {us['route']:.1f} us"
        f"  executor {us['executor']:.1f} us (medians)"
    )
    print(f"\nartifacts written to {out_dir}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    trace_path = Path(args.trace)
    goal_id = trace_path.stem
    domain_path = args.domain
    if not trace_path.exists():
        raise CommandError(f"error: {trace_path} not found")
    snapshot_path = trace_path.parent / f"{goal_id}.snapshot.json"  # "." and "/" have no name to replace
    manifest_path = trace_path.resolve().parent.parent / "manifest.json"
    if domain_path is None and manifest_path.exists():
        manifest = read_json(manifest_path)
        if not isinstance(manifest, dict) or type(manifest.get("domain")) is not str:
            raise ConfigError(f"{manifest_path}: no 'domain' entry")
        domain_path = manifest["domain"]
    if domain_path is None:
        raise ConfigError("--domain required (no manifest.json next to traces)")
    bundle = load_domain(domain_path)
    snapshot = read_json(snapshot_path) if snapshot_path.exists() else None

    try:
        result = replay_events(
            goal_id=goal_id,
            domain=bundle.name,
            automaton=bundle.automaton,
            registry=bundle.registry,
            events=load_trace(trace_path),
        )
    except IntegrityFault as exc:
        seq = f" (seq {exc.seq})" if exc.seq is not None else ""
        raise CommandError(f"corrupted trace{seq}: {exc}") from None
    except OSError as exc:
        raise CommandError(f"error: {trace_path}: unreadable: {exc.strerror or exc}") from None

    state = result.state()
    expected = {"goal_id": result.record.goal_id, "domain": result.record.domain, **state}
    verdict = None if snapshot is None else _snapshot_verdict(snapshot, snapshot_path, expected)
    try:  # the verdict is settled before the state is printed, so a closed stdout cannot lose it
        print(json.dumps({"goal_id": goal_id, **state}, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        if verdict is None:
            raise
        _drop_stdout()
    if verdict is not None:
        raise verdict
    if snapshot is not None:
        print("replay matches snapshot")
    return EXIT_OK


def _snapshot_verdict(snapshot: object, snapshot_path: Path, expected: dict) -> CommandError | None:
    """The refusal a snapshot earns against the replayed goal's *expected* one: keys it lacks, then keys
    it should not hold, else keys whose values differ, each compared at its exact JSON type."""
    held = snapshot if isinstance(snapshot, dict) else {}
    missing = [key for key in expected if key not in held]
    if missing:
        return CommandError(f"error: {snapshot_path}: snapshot lacks {', '.join(missing)}")
    if held.keys() != expected.keys():
        return CommandError(f"error: {snapshot_path}: snapshot holds unknown keys: "
                            f"{clip(', '.join(sorted(held.keys() - expected.keys())))}")
    mismatches = [key for key, value in expected.items() if canonical(snapshot[key]) != canonical(value)]
    if mismatches:
        return CommandError(f"divergence from snapshot after seq {expected['last_seq']}: "
                            f"{', '.join(mismatches)}", EXIT_VALIDATION)
    return None


def cmd_report(args: argparse.Namespace) -> int:
    report_path = Path(args.run_dir) / "report.json"
    payload = read_json(report_path)
    with parsing(str(report_path)):
        if args.format == "json":
            text = json.dumps(payload, indent=2, sort_keys=True)
        else:
            text = render_report(payload)
    print(text)
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    bundle, scenarios = _load_inputs(args)
    out_dir = Path(args.out)
    table_path = out_dir / "ablation.json"
    if table_path.is_dir():  # refuse before four configurations run for nothing
        raise CommandError(f"error: {table_path} is a directory; ablate writes its table there")
    try:
        comparison = compare_configs(bundle, scenarios)
    except StagegateError as exc:
        raise CommandError(f"runtime fault: {exc}", EXIT_RUNTIME) from None
    out_dir.mkdir(parents=True, exist_ok=True)  # only once there is a table to write
    try:
        table_path.write_text(_json_text(comparison), encoding="utf-8")
    except OSError as exc:  # the disk fills or the table cannot be written
        raise CommandError(f"runtime fault: {exc}", EXIT_RUNTIME) from None
    print(comparison_text(comparison))
    print(f"\nablation table written to {table_path}")
    return EXIT_OK


def cmd_inject(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise CommandError(f"error: --count must be at least 1, got {args.count}")
    bundle, scenarios = _load_inputs(args)
    out_path = Path(args.out)
    if out_path.is_dir():
        raise CommandError(f"error: {out_path} is a directory; --out names the suite file")
    normals = [
        s for s in scenarios
        if s.type == "normal" and all(m.expected_legal for m in s.messages)
    ]
    if not normals:
        raise CommandError("error: suite contains no fully-legal normal scenarios")
    try:
        variants = [
            inject_illegal(scenario, bundle, args.strategy, seed=args.seed + index)
            for index, scenario in enumerate(normals[: args.count])
        ]
    except StagegateError as exc:
        raise CommandError(f"error: {exc}", EXIT_VALIDATION) from None
    out_path.parent.mkdir(parents=True, exist_ok=True)  # only once there is something to write
    try:
        save_suite(out_path, f"{Path(args.suite).stem}-injected", bundle.name, variants)
    except OSError as exc:  # the disk fills or --out cannot be written
        raise CommandError(f"runtime fault: {exc}", EXIT_RUNTIME) from None
    print(f"wrote {len(variants)} adversarial variants to {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagegate",
        description="Stage-constrained workflow dispatch: validate configs, run suites, "
        "replay traces, report metrics, run ablations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a domain bundle directory")
    p_validate.add_argument("domain", help="domain bundle directory")
    p_validate.set_defaults(func=cmd_validate)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--domain", required=True, help="domain bundle directory")
        p.add_argument("--suite", required=True, help="suite JSON file")
        p.add_argument("--out", required=True, help="output directory for run artifacts")

    p_run = sub.add_parser("run", help="run a suite and write trace/report artifacts")
    add_run_flags(p_run)
    p_run.add_argument("--seed", type=int, default=0, help="names the run in manifest.json")
    p_run.add_argument("--no-stage-check", action="store_true")
    p_run.add_argument("--no-precondition", action="store_true")
    p_run.add_argument("--no-audit", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="reconstruct final state from a trace file")
    p_replay.add_argument("trace", help="goal trace file (.jsonl)")
    p_replay.add_argument("--domain", help="domain bundle directory (defaults to run manifest)")
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser("report", help="render the metrics report of a run directory")
    p_report.add_argument("run_dir", help="directory written by `stagegate run`")
    p_report.add_argument("--format", choices=("json", "text"), default="text")
    p_report.set_defaults(func=cmd_report)

    p_ablate = sub.add_parser("ablate", help="run the four toggle configurations and compare")
    add_run_flags(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_inject = sub.add_parser(
        "inject", help="derive adversarial stage-skipping variants from normal scenarios"
    )
    p_inject.add_argument("--domain", required=True, help="domain bundle directory")
    p_inject.add_argument("--suite", required=True, help="source suite JSON file")
    p_inject.add_argument("--seed", type=int, default=0)
    p_inject.add_argument("--out", required=True, help="output suite file for the variants")
    p_inject.add_argument("--strategy", choices=("stage_skip", "premature_terminal"),
                          default="stage_skip")
    p_inject.add_argument("--count", type=int, default=20, help="variants to generate")
    p_inject.set_defaults(func=cmd_inject)

    return parser


def _drop_stdout() -> None:
    """Point fd 1 at ``os.devnull``: the flush at exit writes what is left in stdout there, quietly."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:  # stdout's reader went away: nothing to report, and nowhere to report it
        _drop_stdout()
        return EXIT_PIPE
    except (ConfigError, OSError) as exc:  # unusable input, or a path the OS refuses, from any command
        line, code = f"error: {exc}", EXIT_INPUT
    except CommandError as exc:
        line, code = str(exc), exc.code
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
