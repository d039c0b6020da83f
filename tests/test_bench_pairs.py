"""``scripts/bench_pairs.py``'s arithmetic on synthetic paired runs."""

from __future__ import annotations

import math

import pytest

BENCHMARK = {
    "end_to_end": [{"name": "report_ms", "better": "lower", "bound": 0.25}],
    "per_layer": [],
}
PARENT = [12.0, 12.2, 12.4, 12.6, 12.8, 13.0, 13.2, 13.4, 13.6, 13.8]  # IQR 1.1, median 12.9


def _run(pair, side, value, metric="report_ms", workload="hr-mem", trace=0):
    return {
        "pair": pair, "workload": workload, "trace": trace, "side": side, "meta": {},
        "result": {"failed": 0, "correct": True, "metrics": {metric: {"value": value}}},
    }


def _runs(parent, change, **kwargs):
    return [
        run
        for pair, (p, c) in enumerate(zip(parent, change))
        for run in (_run(pair, "parent", p, **kwargs), _run(pair, "change", c, **kwargs))
    ]


def _pairs(parent, change, metric):
    return [
        {"parent": _run(i, "parent", p, metric), "change": _run(i, "change", c, metric)}
        for i, (p, c) in enumerate(zip(parent, change))
    ]


@pytest.mark.parametrize(
    ("better", "parent", "change", "wins", "worse_by"),
    [
        ("lower", [10.0, 10.0, 10.0], [8.0, 8.0, 11.0], "2/3", -0.2),
        ("lower", [10.0, 10.0, 10.0], [12.0, 12.0, 9.0], "1/3", 0.2),
        ("higher", [100.0, 100.0, 100.0], [120.0, 120.0, 90.0], "2/3", -0.2),
        ("higher", [100.0, 100.0, 100.0], [80.0, 80.0, 110.0], "1/3", 0.2),
    ],
    ids=["lower-better", "lower-worse", "higher-better", "higher-worse"],
)
def test_compare_counts_wins_and_signs_worse_by(bench_pairs, better, parent, change, wins, worse_by):
    """``worse_by`` is positive exactly when the change's median is on the metric's worse side."""
    row = bench_pairs.compare(_pairs(parent, change, "m"), "m", better, 0.25)
    assert row["change_wins"] == wins
    assert row["worse_by"] == worse_by
    assert row["bound"] == 0.25
    assert row["median_gap_exceeds_parent_iqr"]  # the parent's runs do not spread at all
    assert (row["pair_log_ratio_median"] > 0) == (worse_by > 0)  # below 0 is better either way


def test_compare_ties_are_no_wins(bench_pairs):
    row = bench_pairs.compare(_pairs([5.0, 6.0], [5.0, 6.0], "m"), "m", "lower", None)
    assert row["change_wins"] == "0/2"
    assert row["worse_by"] == 0.0
    assert not row["median_gap_exceeds_parent_iqr"]


def test_per_pair_log_ratio_cancels_a_drifting_parent(bench_pairs):
    """A parent that drifts 10 -> 19 ms spreads wide; each pair's ratio stays 0.8."""
    parent = [10.0 + i for i in range(10)]
    row = bench_pairs.compare(_pairs(parent, [0.8 * p for p in parent], "m"), "m", "lower", 0.25)
    q1, median, q3 = row["parent_q1_median_q3"]
    assert (q3 - q1) / median > 0.3
    assert row["pair_log_ratio_iqr"] < 1e-3
    assert row["pair_log_ratio_median"] == pytest.approx(math.log(0.8), abs=1e-4)


def test_paired_drops_incomplete_pairs(bench_pairs):
    runs = [
        _run(0, "parent", 1.0), _run(0, "change", 2.0),
        _run(1, "parent", 3.0),  # its change run never finished
        _run(2, "change", 4.0), _run(2, "parent", 5.0),
        _run(3, "parent", 6.0, workload="sgd-file"), _run(3, "change", 7.0, trace=1),
    ]
    pairs = bench_pairs.paired(runs, "hr-mem", 0)
    assert [(p["parent"]["pair"], p["change"]["pair"]) for p in pairs] == [(0, 0), (2, 2)]
    doc = {"runs": runs}
    bench_pairs.summarize(doc, BENCHMARK, None)
    assert doc["summary"]["hr-mem"]["pairs"] == 2
    assert doc["summary"]["hr-mem"]["report_ms"]["change_wins"] == "1/2"  # pair 0 lost, pair 2 won


@pytest.mark.parametrize(
    ("change", "met"),
    [
        ([9.5] * 9 + [14.0], True),  # 9 of 10 wins, median gap 3.4 > IQR 1.1
        ([9.5] * 8 + [14.0, 14.0], False),  # 8 of 10 wins
        ([p - 0.5 for p in PARENT], False),  # 10 of 10 wins, but the gap is inside the IQR
        ([p + 3.0 for p in PARENT], False),  # worse everywhere
    ],
    ids=["nine-wins", "eight-wins", "gap-inside-iqr", "worse"],
)
def test_claim_needs_nine_wins_and_a_gap_beyond_the_parent_iqr(bench_pairs, change, met):
    doc = {"runs": _runs(PARENT, change)}
    bench_pairs.summarize(doc, BENCHMARK, "hr-mem:report_ms")
    claim = doc["claim"]
    assert (claim["id"], claim["pairs"]) == ("hr-mem:report_ms", 10)
    assert claim["met"] is met


def test_claim_needs_ten_pairs(bench_pairs):
    doc = {"runs": _runs(PARENT[:9], [9.5] * 9)}
    bench_pairs.summarize(doc, BENCHMARK, "hr-mem:report_ms")
    assert doc["claim"]["change_wins"] == "9/9"
    assert doc["claim"]["met"] is False
