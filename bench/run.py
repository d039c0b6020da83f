"""stagegate benchmark: one workload, closed loop, one caller.

    python3 bench/run.py --workload hr-mem --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seconds 5

One caller drives the program and waits for every reply, as an orchestrator
calling ``dispatch()`` does.  The command loads the workload, then runs passes
(see ``harness.py``) until ``--seconds`` have gone by, loading the workload
again before each pass to time set-up, and checks every output.  It prints
each metric with its unit, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics, with the traced minus untraced
dispatch median as ``tracing.overhead_us``.

The program is imported from ``src/`` next to this directory, never from an
installed copy.  Scratch files go to ``.bench_work/`` in the same checkout
and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# p99 needs at least ten samples beyond it.
MIN_SAMPLES = 1000
# Other tenants of a shared host slow this process by up to 1.7x, in bursts
# of seconds and in phases that can outlast a run.  On a 2-vCPU VM, a plain
# median over all of a run's dispatches put hr-mem's p50 anywhere in 94-148 us
# over five 30 s runs.  Every pass repeats the same messages, suites and
# goals, so each is timed once per pass and the figures use its fastest time
# over the run's passes, which took that p50 to 86-116 us over ten 35 s runs.
# A message gives one sample per interleaved group of passes, with as many
# groups as it takes for the samples to reach MIN_SAMPLES.  Set-up, repeated
# before every pass, is the median of its fastest quarter of repeats.

E2E_UNITS = {
    "setup_s": "s",
    "dispatch_p50_us": "us",
    "dispatch_p99_us": "us",
    "suite_msgs_per_s": "1/s",
    "report_ms": "ms",
    "replay_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; exit 2 if it is missing."""
    if not (SRC / "stagegate" / "__init__.py").is_file():
        print(f"error: no stagegate sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import stagegate

    if Path(stagegate.__file__).resolve().parent != SRC / "stagegate":
        print(f"error: imported stagegate from {stagegate.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fs_type(path: Path) -> str:
    try:
        out = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _src_lines() -> int:
    return sum(
        1
        for path in (SRC / "stagegate").rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def _timed_load(workload) -> tuple[float, list]:
    from workloads import load

    start = time.perf_counter()
    loaded = load(workload)
    return time.perf_counter() - start, loaded


def _p99(samples) -> float:
    return statistics.quantiles(samples, n=100)[98]


def _fastest(per_pass: list, groups: int = 1) -> list[int]:
    """Each unit's fastest time within each of *groups* interleaved groups of passes."""
    samples: list[int] = []
    for group in range(groups):
        samples.extend(min(column) for column in zip(*per_pass[group::groups]))
    return samples


def _dispatch_samples(passes: list) -> list[int]:
    messages = len(passes[0].dispatch_ns)
    return _fastest([p.dispatch_ns for p in passes], groups=-(-MIN_SAMPLES // messages))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from harness import Checks, run_pass
    from layers import METRICS, LayerStats
    from tracing import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, rewrite

    workload = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    fs_type = _fs_type(workdir)

    setup_time, loaded = _timed_load(workload)
    setup_times = [setup_time]
    messages = sum(item.messages for item in loaded)
    if workload.paraphrase:
        loaded = rewrite(loaded, seed)
    layers = LayerStats()
    tracer = Tracer()

    expected = workload.pinned_digest if seed == DEFAULT_SEED or not workload.paraphrase else None
    checks = Checks()
    untraced: list = []
    traced: list = []
    started = time.perf_counter()
    try:
        while True:
            gc.collect()
            setup_times.append(_timed_load(workload)[0])
            result = run_pass(loaded, workload, workdir / "pass", checks, expected)
            untraced.append(result)
            expected = expected or result.digest
            if trace:
                gc.collect()
                with tracer.install():
                    _timed_load(workload)
                    traced.append(run_pass(loaded, workload, workdir / "pass", checks, expected, traced=True))
                layers.add_trace(*tracer.take())
                layers.add_pass(traced[-1])
            if time.perf_counter() - started >= seconds and len(untraced) * messages >= MIN_SAMPLES:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    dispatch_ns = _dispatch_samples(untraced)
    outcomes = untraced[0].outcomes
    dispatched = sum(outcomes.values())
    print(f"workload {name}  seed {seed}  store {workload.store}  passes {len(untraced)}"
          f"  dispatch samples {len(dispatch_ns)} (each message's fastest in a group of passes)")
    print(f"routing mix: fallback {untraced[0].fallback / dispatched:.4f}"
          f"  unresolved {untraced[0].unresolved / dispatched:.4f}"
          f"  outcomes {dict(sorted(outcomes.items()))}  digest {untraced[0].digest}")
    if trace:
        traced_ns = _dispatch_samples(traced)
        overhead_us = (statistics.median(traced_ns) - statistics.median(dispatch_ns)) / 1e3
        values = layers.metrics(overhead_us)
        units = dict(METRICS)
    else:
        values = {
            "setup_s": statistics.median(sorted(setup_times)[: max(1, len(setup_times) // 4)]),
            "dispatch_p50_us": statistics.median(dispatch_ns) / 1e3,
            "dispatch_p99_us": _p99(dispatch_ns) / 1e3,
            "suite_msgs_per_s": messages / sum(_fastest([r.suite_ns for r in untraced])) * 1e9,
            "report_ms": sum(_fastest([r.report_ns for r in untraced])) / 1e6,
            "replay_ms": sum(_fastest([r.replay_ns for r in untraced])) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    for metric, value in values.items():
        print(f"  {metric:<32} {value:>14.4f} {units[metric]}")
    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"  {'error_rate':<32} {error_rate:>14.4f} ratio  ({checks.failed} of {checks.attempted} operations)")
    for problem in checks.problems:
        print(f"  check failed: {problem}")
    meta = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "trace_dir_fs": fs_type,
        "src_nonblank_lines": _src_lines(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Run each workload in its own process, so each peak_rss_mb is its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    _import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
