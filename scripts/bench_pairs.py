#!/usr/bin/env python3
"""Run alternating parent/change pairs of ``bench/run.py`` and write ``BENCH_<n>.json``.

    python3 scripts/bench_pairs.py --parent ../parent --change . --n 9 \\
        --workload sgd-file --pairs 10 --first-seed 41 --seconds 35 \\
        --claim sgd-file:replay_ms --what "one line on the change"
    python3 scripts/bench_pairs.py --parent ../parent --change . --n 9 \\
        --workload sgd-file --pairs 1 --first-seed 61 --seconds 20 --trace 1

Each pair runs ``bench/run.py`` once from each checkout, one at a time, with
the same seed (pair i gets ``--first-seed + i``).  The side that runs first
alternates: the parent in even pairs, the change in odd ones.  Runs already in
the output file are kept and the new ones appended, so workloads can be run in
separate calls, and the file is rewritten after every run, so an interrupted
series keeps what finished.

``summary`` covers the untraced runs of each workload: for every end-to-end
metric in ``BENCHMARK.json``, each side's q1/median/q3, the pairs the change
won, ``worse_by`` (the change's median against the parent's, as a fraction,
positive when worse), the metric's bound, and whether the medians differ by
more than the parent's interquartile range.  Each metric also records the
median and IQR of the per-pair log ratio ln(change/parent), signed so that
below 0 is better: host drift that widens the parent's IQR cancels within a
pair.  ``traced`` holds each side's median of every per-layer metric from
``--trace 1`` runs.  ``claim`` checks one workload and metric: met when the
change wins at least nine pairs in ten and the medians differ, in its
favour, by more than the parent's IQR.
``nonblank_lines`` counts each side's nonblank Python lines under
``src/stagegate`` and ``scripts``, so a deletion shows next to its timings.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``bench/run.py`` run in *checkout*: its result object and its meta line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=seconds * 4 + 300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"bench/run.py failed in {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), {})
    return json.loads(lines[-1]), meta


def nonblank_lines(checkout: Path) -> dict[str, int]:
    """Nonblank lines of the Python files under ``src/stagegate`` and ``scripts`` of *checkout*."""
    return {part: sum(1 for path in (checkout / part).rglob("*.py")
                      for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
            for part in ("src/stagegate", "scripts")}


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def compare(pairs: list[dict], metric: str, better: str, bound: float | None) -> dict:
    """One metric over paired runs: quartiles per side, wins, relative change, gap and per-pair ratio."""
    values = {side: [pair[side]["result"]["metrics"][metric]["value"] for pair in pairs] for side in SIDES}
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
    parent_q, change_q = quartiles(values["parent"]), quartiles(values["change"])
    ratio_median = ratio_iqr = None
    if all(v > 0 for side in SIDES for v in values[side]):  # a log ratio needs both sides positive
        q1, ratio_median, q3 = quartiles(
            [sign * math.log(c / p) for p, c in zip(values["parent"], values["change"])]
        )
        ratio_iqr = round(q3 - q1, 4)
    parent_med, change_med = statistics.median(values["parent"]), statistics.median(values["change"])
    return {
        "parent_q1_median_q3": parent_q,
        "change_q1_median_q3": change_q,
        "change_wins": f"{wins}/{len(pairs)}",
        "worse_by": round(sign * (change_med - parent_med) / parent_med, 4) if parent_med else None,
        "bound": bound,
        "median_gap_exceeds_parent_iqr": abs(change_med - parent_med) > parent_q[2] - parent_q[0],
        "pair_log_ratio_median": ratio_median,
        "pair_log_ratio_iqr": ratio_iqr,
    }


def paired(runs: list[dict], workload: str, trace: int) -> list[dict]:
    """Runs of one workload as {side: run} per pair, complete pairs only, in pair order."""
    by_pair: dict[int, dict] = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
    return [by_pair[key] for key in sorted(by_pair) if len(by_pair[key]) == 2]


def summarize(doc: dict, benchmark: dict, claim: str | None) -> None:
    """Recompute ``summary``, ``traced`` and ``claim`` of *doc* from its runs."""
    parent_meta = next((run["meta"] for run in doc["runs"] if run["side"] == "parent"), {})
    doc["parent_commit"] = parent_meta.get("commit", "unknown")
    doc["host"] = (f"{parent_meta.get('nproc')} CPUs, CPython {parent_meta.get('python')}, "
                   f"trace dir on {parent_meta.get('trace_dir_fs')}; one run at a time")
    workloads = sorted({run["workload"] for run in doc["runs"]})
    doc["summary"], doc["traced"] = {}, {}
    for workload in workloads:
        pairs = paired(doc["runs"], workload, 0)
        if pairs:
            results = [pair[side]["result"] for pair in pairs for side in SIDES]
            entry = {"pairs": len(pairs), "failed": sum(r["failed"] for r in results),
                     "all_correct": all(r["correct"] for r in results)}
            for spec in benchmark["end_to_end"]:
                entry[spec["name"]] = compare(pairs, spec["name"], spec["better"], spec["bound"])
            doc["summary"][workload] = entry
        traced = paired(doc["runs"], workload, 1)
        if traced:
            doc["traced"][workload] = {
                spec["name"]: {
                    side: statistics.median(p[side]["result"]["metrics"][spec["name"]]["value"] for p in traced)
                    for side in SIDES
                }
                for spec in benchmark["per_layer"]
                if spec["name"] in traced[0]["parent"]["result"]["metrics"]
            }
    claim = claim or (doc.get("claim") or {}).get("id")
    if claim and claim.split(":")[0] in doc["summary"]:
        workload, metric = claim.split(":")
        row = doc["summary"][workload][metric]
        wins, pairs = map(int, row["change_wins"].split("/"))
        doc["claim"] = {
            "id": claim, "workload": workload, "metric": metric, "pairs": pairs,
            "change_wins": row["change_wins"],
            "parent_q1_median_q3": row["parent_q1_median_q3"],
            "change_q1_median_q3": row["change_q1_median_q3"],
            "met": pairs >= 10 and wins >= 0.9 * pairs and row["worse_by"] < 0
            and row["median_gap_exceeds_parent_iqr"],
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--n", type=int, required=True, help="writes BENCH_<n>.json in this repo")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--what", help="one line on what the change does")
    args = parser.parse_args(argv)

    out = ROOT / f"BENCH_{args.n}.json"
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads(out.read_text()) if out.exists() else {"what": "", "runs": []}
    if args.what:
        doc["what"] = args.what
    doc["command"] = "python3 bench/run.py --workload W --seed S --seconds T --trace 0|1"
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc["nonblank_lines"] = {side: nonblank_lines(checkout) for side, checkout in checkouts.items()}
    start = max((run["pair"] for run in doc["runs"]), default=-1) + 1
    for i in range(args.pairs):
        pair, seed = start + i, args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result, meta = run_bench(checkouts[side], args.workload, seed, args.seconds, args.trace)
            doc["runs"].append({
                "pair": pair, "workload": args.workload, "seed": seed, "seconds": args.seconds,
                "trace": args.trace, "side": side, "first": order[0], "meta": meta, "result": result,
            })
            print(f"pair {pair} {args.workload} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}", flush=True)
            summarize(doc, benchmark, args.claim)
            out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
