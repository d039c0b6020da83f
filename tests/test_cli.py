from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stagegate
from stagegate.cli import main
from stagegate.suites import hr_domain_dir, hr_suite_path, sgd_domain_dir, sgd_suite_path


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    """A 12-scenario slice of the shipped hiring suite (keeps CLI tests fast)."""
    full = json.loads(hr_suite_path().read_text())
    wanted = [
        s for s in full["scenarios"]
        if s["scenario_id"] in {
            "normal-001", "normal-002", "illegal-001", "illegal-017", "illegal-023",
            "rollback-001", "multi-001", "abort-001", "concurrent-001",
            "illegal-015", "illegal-013", "normal-003",
        }
    ]
    payload = {"suite_name": "slice", "domain": "hr", "scenarios": wanted}
    path = tmp_path_factory.mktemp("suite") / "slice.json"
    path.write_text(json.dumps(payload))
    return path


def test_validate_clean_bundle_exits_zero(capsys):
    assert main(["validate", str(hr_domain_dir())]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_broken_bundle_prints_entries(tmp_path, capsys):
    for name in ("automaton.json", "skills.json", "patterns.json", "fixtures.json"):
        shutil.copy(hr_domain_dir() / name, tmp_path / name)
    automaton = json.loads((tmp_path / "automaton.json").read_text())
    del automaton["binding"]["screen_resume"]
    automaton["initial"] = "nowhere"
    (tmp_path / "automaton.json").write_text(json.dumps(automaton))
    code = main(["validate", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "initial_not_in_stages" in out
    assert "screen_resume" in out


def test_validate_nonexistent_path_exits_two():
    assert main(["validate", "/nonexistent/bundle"]) == 2


def test_run_writes_artifacts_and_exits_zero(tmp_path, small_suite, capsys):
    out_dir = tmp_path / "run"
    code = main([
        "run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
        "--seed", "7", "--out", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "report.json").exists()
    assert (out_dir / "goals.json").exists()
    traces = list((out_dir / "traces").glob("*.jsonl"))
    assert traces
    report = json.loads((out_dir / "report.json").read_text())
    assert report["n_scenarios"] == 12
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["toggles"]["stage_check"] is True
    # wall-clock data goes to timing.json and stdout, never into report.json
    assert "latency_ms" not in report
    timing = json.loads((out_dir / "timing.json").read_text())
    assert set(timing["latency_ms_median"]) == {"gate", "route", "executor"}
    assert timing["latency_ms_median"]["route"] > 0
    (latency,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("latency: ")]
    # "latency: gate 9.1 us  route 30.2 us  executor 2.4 us (medians)"
    words = latency.split()
    assert words[3:10:3] == ["us"] * 3
    printed = dict(zip(words[1:10:3], map(float, words[2:10:3])))
    assert printed.keys() == timing["latency_ms_median"].keys()
    for name, ms in timing["latency_ms_median"].items():
        assert printed[name] == round(ms * 1000, 1)
    assert printed["executor"] > 0  # three-decimal ms printed it as 0.000


def test_run_is_deterministic_modulo_timestamps(tmp_path, small_suite):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in dirs:
        assert main([
            "run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
            "--seed", "7", "--out", str(out_dir),
        ]) == 0
    report_a = (dirs[0] / "report.json").read_bytes()
    report_b = (dirs[1] / "report.json").read_bytes()
    assert report_a == report_b

    def stripped_traces(out_dir: Path) -> dict[str, list[dict]]:
        lines = {}
        for trace in sorted((out_dir / "traces").glob("*.jsonl")):
            rows = []
            for line in trace.read_text().splitlines():
                row = json.loads(line)
                row.pop("timestamp")
                rows.append(row)
            lines[trace.name] = rows
        return lines

    assert stripped_traces(dirs[0]) == stripped_traces(dirs[1])


def _python_with_hash_seed(hash_seed: int, *args: str) -> str:
    """Run a fresh interpreter on the package and these tests' helpers; return its stdout."""
    path = [str(Path(stagegate.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(path + [env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


_ROUTE_PARAPHRASES = """
import json
from dataclasses import asdict
from reference import paraphrased
from stagegate.router import identify
from stagegate.scenarios import load_domain, load_suite
from stagegate.suites import hr_domain_dir, hr_suite_path
bundle = load_domain(hr_domain_dir())
texts = [m.text for s in load_suite(hr_suite_path(), bundle) for m in s.messages]
decisions = [identify(t, bundle.table, bundle.fallback) for t in paraphrased(texts, (1, 2, 3))]
print(json.dumps([asdict(d) for d in decisions]))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Set and dict order differ between interpreters; no output may follow them."""
    runs = []
    for hash_seed in (0, 1):
        out_dir = tmp_path / f"hash{hash_seed}"
        _python_with_hash_seed(
            hash_seed, "-m", "stagegate.cli", "run", "--domain", str(hr_domain_dir()),
            "--suite", str(hr_suite_path()), "--seed", "1207", "--out", str(out_dir),
        )
        traces = {}
        for trace in sorted((out_dir / "traces").glob("*.jsonl")):
            rows = [json.loads(line) for line in trace.read_text().splitlines()]
            for row in rows:
                row.pop("timestamp")
            traces[trace.name] = rows
        snapshots = {
            path.name: path.read_bytes()
            for path in sorted((out_dir / "traces").glob("*.snapshot.json"))
        }
        runs.append(((out_dir / "report.json").read_bytes(), traces, snapshots))
    assert len(runs[0][1]) == 215
    assert runs[0] == runs[1]

    decisions = [json.loads(_python_with_hash_seed(s, "-c", _ROUTE_PARAPHRASES)) for s in (0, 1)]
    assert len(decisions[0]) == 3 * 882
    assert any(d["mode"] == "fallback" and d["matched_pattern"] for d in decisions[0])
    assert decisions[0] == decisions[1]


def test_no_stage_check_flag_increases_blocks(tmp_path, small_suite):
    full_dir, ablated_dir = tmp_path / "full", tmp_path / "ablated"
    main(["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
          "--out", str(full_dir)])
    main(["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
          "--out", str(ablated_dir), "--no-stage-check"])
    full = json.loads((full_dir / "report.json").read_text())
    ablated = json.loads((ablated_dir / "report.json").read_text())
    assert ablated["blocked_total"] > full["blocked_total"]


def test_replay_of_completed_run_matches_snapshot(tmp_path, small_suite, capsys):
    out_dir = tmp_path / "run"
    main(["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
          "--out", str(out_dir)])
    traces = sorted((out_dir / "traces").glob("*.jsonl"))
    for trace in traces:
        assert main(["replay", str(trace)]) == 0, trace.name
    out = capsys.readouterr().out
    assert "replay matches snapshot" in out


def test_replay_with_deleted_line_exits_two(tmp_path, small_suite, capsys):
    out_dir = tmp_path / "run"
    main(["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
          "--out", str(out_dir)])
    trace = next(
        t for t in sorted((out_dir / "traces").glob("*.jsonl"))
        if len(t.read_text().splitlines()) >= 3
    )
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join([lines[0]] + lines[2:]) + "\n")
    code = main(["replay", str(trace)])
    err = capsys.readouterr().err
    assert code == 2
    assert "seq" in err


def test_replay_divergent_snapshot_exits_one(tmp_path, small_suite, capsys):
    out_dir = tmp_path / "run"
    main(["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
          "--out", str(out_dir)])
    snapshot_path = sorted((out_dir / "traces").glob("*.snapshot.json"))[0]
    snapshot = json.loads(snapshot_path.read_text())
    snapshot["current_stage"] = "onb"
    snapshot_path.write_text(json.dumps(snapshot))
    trace = snapshot_path.with_name(snapshot_path.name.replace(".snapshot.json", ".jsonl"))
    assert main(["replay", str(trace)]) == 1


def test_report_formats(tmp_path, small_suite, capsys):
    out_dir = tmp_path / "run"
    main(["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
          "--out", str(out_dir)])
    capsys.readouterr()
    assert main(["report", str(out_dir), "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["n_scenarios"] == 12
    assert main(["report", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "TCR" in text and "Blk" in text
    distribution = parsed["trace_distribution"]["counts"]
    line = next(row for row in text.splitlines() if row.startswith("trace distribution: "))
    assert f"SUCCESS={distribution['SUCCESS']} (" in line
    assert "latency" not in text  # report.json carries no wall-clock data


def test_report_missing_artifacts_exits_two(tmp_path):
    assert main(["report", str(tmp_path)]) == 2


def test_ablate_writes_comparison(tmp_path, small_suite, capsys):
    out_dir = tmp_path / "ablate"
    code = main(["ablate", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
                 "--out", str(out_dir)])
    assert code == 0
    payload = json.loads((out_dir / "ablation.json").read_text())
    assert set(payload["reports"]) == {"full", "no_stage_check", "no_precondition", "no_audit"}
    assert payload["reports"]["no_audit"]["trc"] == 0.0
    assert payload["deltas"]["no_stage_check"]["blocked_total"] > 0
    assert not any("latency_ms" in report for report in payload["reports"].values())
    text = capsys.readouterr().out
    assert "no_stage_check" in text


def test_inject_writes_reproducible_adversarial_suite(tmp_path, capsys):
    out_a = tmp_path / "variants_a.json"
    out_b = tmp_path / "variants_b.json"
    for out in (out_a, out_b):
        code = main([
            "inject", "--domain", str(sgd_domain_dir("Banks_1")),
            "--suite", str(sgd_suite_path("Banks_1")),
            "--seed", "11", "--count", "5", "--out", str(out),
        ])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert len(payload["scenarios"]) == 5
    assert all(s["type"] == "illegal" for s in payload["scenarios"])
    run_dir = tmp_path / "run"
    assert main(["run", "--domain", str(sgd_domain_dir("Banks_1")),
                 "--suite", str(out_a), "--out", str(run_dir)]) == 0
    report = json.loads((run_dir / "report.json").read_text())
    assert report["blocked_total"] >= 5  # every injected turn is caught


# sha256 of `stagegate inject --seed 11 --count 20` output, as first recorded
INJECT_DIGESTS = {
    ("hr", "stage_skip"): "d5953addf22ff97a028ba18da41d36bfa1b24343ec95687a56453e46dccfcdb0",
    ("Banks_1", "stage_skip"): "650b2b955d96427a4e694b7c8c6c1a6bbf7c30df63cf448bff5b27a1143f6b76",
    ("Banks_1", "premature_terminal"):
        "650b2b955d96427a4e694b7c8c6c1a6bbf7c30df63cf448bff5b27a1143f6b76",
}


@pytest.mark.parametrize(("domain", "strategy"), sorted(INJECT_DIGESTS))
def test_inject_output_is_pinned(tmp_path, domain, strategy):
    if domain == "hr":
        domain_dir, suite = hr_domain_dir(), hr_suite_path()
    else:
        domain_dir, suite = sgd_domain_dir(domain), sgd_suite_path(domain)
    out = tmp_path / "variants.json"
    assert main([
        "inject", "--domain", str(domain_dir), "--suite", str(suite), "--seed", "11",
        "--count", "20", "--strategy", strategy, "--out", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INJECT_DIGESTS[domain, strategy]


OUTPUT_DIGESTS = {
    ("ablate", "hr"): ("ablation.json", "8b2b9b62ce5b05930151a7b0adabc3558747f56ed97bd1b77abbe4bd92c67ae2"),
    ("run", "Hotels_1"): ("report.json", "7c33cb7da0935a21c548f2601f72de65f713915b518e813233e3c6a32e9c910b"),
    ("run", "hr"): ("report.json", "f160d2d543cb526a58aa7a7bfc31f712a4fdb4527155c78be44e6149dc957bb8"),
}


@pytest.mark.parametrize(("command", "domain"), sorted(OUTPUT_DIGESTS))
def test_run_and_ablate_outputs_are_pinned(tmp_path, command, domain):
    if domain == "hr":
        domain_dir, suite = hr_domain_dir(), hr_suite_path()
    else:
        domain_dir, suite = sgd_domain_dir(domain), sgd_suite_path(domain)
    out_dir = tmp_path / "out"
    assert main([command, "--domain", str(domain_dir), "--suite", str(suite),
                 "--out", str(out_dir)]) == 0
    name, digest = OUTPUT_DIGESTS[command, domain]
    assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest


# sha256 over each file of `run --seed 1207`'s traces/ (every trace line and snapshot), by name,
# with each "timestamp":<number> blanked, as first recorded
TRACE_DIGESTS = {
    "Hotels_1": "1aa0343722e9e7ac78f97968ec76e2414f47d303f57120753490b95c7542a352",
    "hr": "d12aaf6e16d56c1cf4132d23a35a69e86f2151e3c6026f848a740f95d864055f",
}


@pytest.mark.parametrize("domain", sorted(TRACE_DIGESTS))
def test_trace_and_snapshot_bytes_are_pinned(tmp_path, domain):
    if domain == "hr":
        domain_dir, suite = hr_domain_dir(), hr_suite_path()
    else:
        domain_dir, suite = sgd_domain_dir(domain), sgd_suite_path(domain)
    out_dir = tmp_path / "out"
    assert main(["run", "--domain", str(domain_dir), "--suite", str(suite), "--seed", "1207",
                 "--out", str(out_dir)]) == 0
    digest = hashlib.sha256()
    for path in sorted((out_dir / "traces").iterdir()):
        digest.update(path.name.encode() + b"\n")
        digest.update(re.sub(rb'"timestamp":[-+.0-9eE]+', b'"timestamp":0', path.read_bytes()))
    assert digest.hexdigest() == TRACE_DIGESTS[domain]


# sha256 of the hiring suite's text forms, as first recorded: `report`'s stdout for a `run --seed 1207`
# directory, and `ablate`'s stdout up to its "ablation table written to" line
TEXT_DIGESTS = {
    "ablate": "89fc77fef4b15aa61c3014192b44c56e83937eb3052c479ccb7448c6525a25ef",
    "report": "8f85db7cf4227959d14bbaab6e316194dfea97dd52d3cc9a721ab7429ae8e905",
}


def test_report_text_is_the_block_run_printed_and_is_pinned(tmp_path, capsys):
    out_dir = tmp_path / "hr"
    assert main(["run", "--domain", str(hr_domain_dir()), "--suite", str(hr_suite_path()),
                 "--seed", "1207", "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert main(["report", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert text == printed[: printed.index("latency:")]
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_DIGESTS["report"]


def test_ablate_table_text_is_pinned(tmp_path, capsys):
    assert main(["ablate", "--domain", str(hr_domain_dir()), "--suite", str(hr_suite_path()),
                 "--out", str(tmp_path / "ablate")]) == 0
    printed = capsys.readouterr().out
    table = printed[: printed.index("ablation table written to")]
    assert hashlib.sha256(table.encode()).hexdigest() == TEXT_DIGESTS["ablate"]


def _files(root: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_run_into_a_finished_run_refuses_and_changes_nothing(tmp_path, small_suite, capsys):
    out_dir = tmp_path / "run"
    argv = ["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
            "--out", str(out_dir)]
    assert main(argv) == 0
    first = _files(out_dir)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert _files(out_dir) == first
    trace = sorted((out_dir / "traces").glob("*.jsonl"))[0]
    assert main(["replay", str(trace)]) == 0


def test_run_refuses_a_suite_with_a_misspelt_key_and_writes_nothing(tmp_path, capsys):
    """Read as no scenarios, it would report 100% precision and recall and exit 0."""
    raw = json.loads(hr_suite_path().read_text())
    raw["scenarois"] = raw.pop("scenarios")
    suite = tmp_path / "misspelt.json"
    suite.write_text(json.dumps(raw))
    out_dir = tmp_path / "run"
    code = main(["run", "--domain", str(hr_domain_dir()), "--suite", str(suite), "--out", str(out_dir)])
    assert code == 2
    assert "unknown keys: scenarois" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_against_sgd_domain(tmp_path):
    out_dir = tmp_path / "banks"
    code = main([
        "run", "--domain", str(sgd_domain_dir("Banks_1")),
        "--suite", str(sgd_suite_path("Banks_1")), "--out", str(out_dir),
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["n_scenarios"] == 120
    assert report["blocked_total"] == 20


def test_replay_from_another_directory_after_a_relative_domain(tmp_path, monkeypatch, capsys):
    """The manifest keeps the resolved domain path, not the one typed."""
    work = tmp_path / "a"
    shutil.copytree(sgd_domain_dir("Buses_1"), work / "Buses_1")
    monkeypatch.chdir(work)
    assert main(["run", "--domain", "Buses_1", "--suite", str(sgd_suite_path("Buses_1")),
                 "--out", "t/rr"]) == 0
    monkeypatch.chdir(tmp_path)
    traces = sorted(Path("a/t/rr/traces").glob("*.jsonl"))
    assert traces
    capsys.readouterr()
    assert main(["replay", str(traces[0])]) == 0
    assert "replay matches snapshot" in capsys.readouterr().out


def test_replay_of_a_bare_trace_name_inside_traces_finds_the_manifest(
    tmp_path, small_suite, monkeypatch, capsys
):
    out_dir = tmp_path / "run"
    assert main(["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
                 "--out", str(out_dir)]) == 0
    monkeypatch.chdir(out_dir / "traces")
    capsys.readouterr()
    assert main(["replay", "abort-001-t0.jsonl"]) == 0
    assert "replay matches snapshot" in capsys.readouterr().out


# -- malformed artifacts ------------------------------------------------------------


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory, small_suite):
    out_dir = tmp_path_factory.mktemp("finished") / "run"
    assert main(["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
                 "--out", str(out_dir)]) == 0
    return out_dir


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _trace(run: Path) -> Path:
    return run / "traces" / "normal-001-t0.jsonl"


def _replay_with_first_line(run: Path, first_line) -> list[str]:
    lines = _trace(run).read_text().splitlines()
    _trace(run).write_text("\n".join([first_line(lines[0])] + lines[1:]) + "\n")
    return ["replay", str(_trace(run))]


def _replay_with_snapshot(run: Path, text: str | None = None, edit=None) -> list[str]:
    snapshot = _trace(run).with_name("normal-001-t0.snapshot.json")
    if text is not None:
        snapshot.write_text(text)
    else:
        _edit_json(snapshot, edit)
    return ["replay", str(_trace(run))]


def _replay_without_manifest_domain(run: Path) -> list[str]:
    _edit_json(run / "manifest.json", lambda data: data.pop("domain"))
    return ["replay", str(_trace(run))]


def _replay_without_manifest(run: Path) -> list[str]:
    (run / "manifest.json").unlink()
    return ["replay", str(_trace(run))]


def _replay_integer_manifest_domain(run: Path) -> list[str]:
    _edit_json(run / "manifest.json", lambda data: data.update(domain=5))
    return ["replay", str(_trace(run))]


def _replay_invalid_utf8(run: Path) -> list[str]:
    _trace(run).write_bytes(b"\xff\xfe" + _trace(run).read_bytes())
    return ["replay", str(_trace(run))]


def _replay_trace_is_directory(run: Path) -> list[str]:
    (run / "traces" / "ghost.jsonl").mkdir()
    return ["replay", str(run / "traces" / "ghost.jsonl")]


def _report_unparseable(run: Path) -> list[str]:
    (run / "report.json").write_text("{")
    return ["report", str(run)]


def _report_is_directory(run: Path) -> list[str]:
    (run / "report.json").unlink()
    (run / "report.json").mkdir()
    return ["report", str(run)]


def _run_suite_text(run: Path, text: str) -> list[str]:
    (run / "suite.json").write_text(text)
    return ["run", "--domain", str(hr_domain_dir()), "--suite", str(run / "suite.json"),
            "--out", str(run / "rerun")]


def _run_suite_invalid_utf8(run: Path) -> list[str]:
    (run / "suite.json").write_bytes(b"\xff" + hr_suite_path().read_bytes())
    return ["run", "--domain", str(hr_domain_dir()), "--suite", str(run / "suite.json"),
            "--out", str(run / "rerun")]


def _run_into(out: Path) -> list[str]:
    return ["run", "--domain", str(hr_domain_dir()), "--suite", str(hr_suite_path()), "--out", str(out)]


def _run_out_is_file(run: Path) -> list[str]:
    (run / "afile").write_text("")
    return _run_into(run / "afile")


def _run_traces_is_file(run: Path) -> list[str]:
    (run / "rerun").mkdir()
    (run / "rerun" / "traces").write_text("")
    return _run_into(run / "rerun")


def _run_file_is_directory(run: Path, name: str) -> list[str]:
    (run / "rerun" / name).mkdir(parents=True)
    return _run_into(run / "rerun")


def _run_message_without_text(run: Path) -> list[str]:
    suite = json.loads(hr_suite_path().read_text())
    del suite["scenarios"][0]["messages"][0]["text"]
    return _run_suite_text(run, json.dumps(suite))


def _run_string_expected_legal(run: Path) -> list[str]:
    suite = json.loads(hr_suite_path().read_text())
    suite["scenarios"][0]["messages"][0]["expected_legal"] = "false"
    return _run_suite_text(run, json.dumps(suite))


def _run_integer_scenario_id(run: Path) -> list[str]:
    suite = json.loads(hr_suite_path().read_text())
    suite["scenarios"][0]["scenario_id"] = 5
    return _run_suite_text(run, json.dumps(suite))


def _run_scenario_id(run: Path, sid: str) -> list[str]:
    suite = json.loads(hr_suite_path().read_text())
    suite["scenarios"][0]["scenario_id"] = sid
    return _run_suite_text(run, json.dumps(suite))


def _ablate_into(out: Path) -> list[str]:
    return ["ablate", "--domain", str(hr_domain_dir()), "--suite", str(hr_suite_path()),
            "--out", str(out)]


def _ablate_out_is_file(run: Path) -> list[str]:
    (run / "afile").write_text("")
    return _ablate_into(run / "afile")


def _ablate_report_is_directory(run: Path) -> list[str]:
    (run / "ablate" / "ablation.json").mkdir(parents=True)
    return _ablate_into(run / "ablate")


def _inject_count(run: Path, count: int, out: Path | None = None) -> list[str]:
    return ["inject", "--domain", str(hr_domain_dir()), "--suite", str(hr_suite_path()),
            "--count", str(count), "--out", str(out or run / "variants.json")]


def _inject_without_legal_normals(run: Path) -> list[str]:
    suite = json.loads(hr_suite_path().read_text())
    suite["scenarios"] = [s for s in suite["scenarios"] if s["type"] != "normal"]
    (run / "suite.json").write_text(json.dumps(suite))
    return ["inject", "--domain", str(hr_domain_dir()), "--suite", str(run / "suite.json"),
            "--out", str(run / "variants.json")]


def _inject_out_under_file(run: Path) -> list[str]:
    (run / "afile").write_text("")
    return _inject_count(run, 1, run / "afile" / "x.json")


def _inject_out_is_directory(run: Path) -> list[str]:
    (run / "variants").mkdir()
    return _inject_count(run, 1, run / "variants")


def _edited_domain(run: Path, name: str, edit) -> Path:
    domain = run / "edited" / "hr"  # the suite names its domain "hr"
    shutil.copytree(hr_domain_dir(), domain)
    _edit_json(domain / name, edit)
    return domain


def _validate_edited(run: Path, name: str, edit) -> list[str]:
    return ["validate", str(_edited_domain(run, name, edit))]


def _run_edited(run: Path, name: str, edit) -> list[str]:
    return ["run", "--domain", str(_edited_domain(run, name, edit)), "--suite", str(hr_suite_path()),
            "--out", str(run / "rerun")]


def _run_phantom_track(run: Path) -> list[str]:
    suite = json.loads(hr_suite_path().read_text())
    suite["scenarios"][0]["expected_final_stage"] = {"0": "close", "7": "close"}
    return _run_suite_text(run, json.dumps(suite))


def _validate_fixtures_array(run: Path) -> list[str]:
    domain = _edited_domain(run, "fixtures.json", lambda fixtures: None)
    (domain / "fixtures.json").write_text("[]")
    return ["validate", str(domain)]


def _drop_effect_op(skills) -> None:
    del next(skill for skill in skills if skill["post"])["post"][0]["op"]


def _one_element_transition(automaton) -> None:
    automaton["transitions"][0] = ["init"]


def _first_effect(skills) -> dict:
    return next(skill for skill in skills if skill["post"])["post"][0]


def _skill_edit(skill_id: str, **fields):
    def edit(skills) -> None:
        next(skill for skill in skills if skill["id"] == skill_id).update(fields)
    return edit


def _validate_skill_edit(run: Path, skill_id: str, **fields) -> list[str]:
    return _validate_edited(run, "skills.json", _skill_edit(skill_id, **fields))


def _with_field(line: str, key: str, value) -> str:
    return json.dumps(json.loads(line) | {key: value})


def _without_field(line: str, key: str) -> str:
    raw = json.loads(line)
    del raw[key]
    return json.dumps(raw)


# case -> (break a copy of a finished run and return the command line,
#          exit code, start of the line that must report it)
MALFORMED = {
    "replay-unparseable-snapshot": (
        lambda run: _replay_with_snapshot(run, text="{not json"), 2, "error: "),
    "replay-snapshot-without-status": (
        lambda run: _replay_with_snapshot(run, edit=lambda data: data.pop("status")), 2, "error: "),
    # a snapshot is the replayed goal's only if it holds its six keys, each at its exact JSON type
    "replay-snapshot-of-another-goal": (
        lambda run: _replay_with_snapshot(run, edit=lambda data: data.update(goal_id="normal-002-t0")),
        1, "divergence from snapshot after seq 8: goal_id"),
    "replay-snapshot-of-another-domain": (
        lambda run: _replay_with_snapshot(run, edit=lambda data: data.update(domain="Banks_1")),
        1, "divergence from snapshot after seq 8: domain"),
    "replay-snapshot-integer-flag": (
        lambda run: _replay_with_snapshot(
            run, edit=lambda data: data["business_state"].update(candidates_pulled=1)),
        1, "divergence from snapshot after seq 8: business_state"),
    "replay-snapshot-float-last-seq": (
        lambda run: _replay_with_snapshot(run, edit=lambda data: data.update(last_seq=8.0)),
        1, "divergence from snapshot after seq 8: last_seq"),
    "replay-snapshot-with-an-unknown-key": (
        lambda run: _replay_with_snapshot(run, edit=lambda data: data.update(note="checked")),
        2, "error: "),
    "replay-manifest-without-domain": (_replay_without_manifest_domain, 2, "error: "),
    "replay-without-manifest-or-domain": (
        _replay_without_manifest, 2, "error: --domain required (no manifest.json next to traces)"),
    "replay-missing-trace": (
        lambda run: ["replay", str(run / "traces" / "absent.jsonl")], 2, "error: "),
    "replay-integer-manifest-domain": (_replay_integer_manifest_domain, 2, "error: "),
    "replay-string-seq": (
        lambda run: _replay_with_first_line(run, lambda line: line.replace('"seq":1,', '"seq":"x",')),
        2, "corrupted trace"),
    "replay-list-skill-id": (
        lambda run: _replay_with_first_line(run, lambda line: _with_field(line, "skill_id", ["x"])),
        2, "corrupted trace"),
    "replay-list-payload-digest": (
        lambda run: _replay_with_first_line(run, lambda line: _with_field(line, "payload_digest", ["x"])),
        2, "corrupted trace"),
    "replay-commit-without-skill": (  # a committing SUCCESS must name the skill it applies
        lambda run: _replay_with_first_line(run, lambda line: _with_field(line, "skill_id", None)),
        2, "corrupted trace (seq 1): "),
    "replay-undeclared-transition": (  # hr declares no init -> onb
        lambda run: _replay_with_first_line(run, lambda line: _with_field(line, "stage_after", "onb")),
        2, "corrupted trace (seq 1): "),
    "replay-failed-execution-changes-stage": (  # an executor failure commits nothing
        lambda run: _replay_with_first_line(run, lambda line: _with_field(
            _with_field(line, "stage_after", "src"), "sub_reason", "execution_error")),
        2, "corrupted trace (seq 1): "),
    "replay-foreign-goal-id": (
        lambda run: _replay_with_first_line(run, lambda line: _with_field(line, "goal_id", "someone-else")),
        2, "corrupted trace"),
    "replay-bool-seq": (
        lambda run: _replay_with_first_line(run, lambda line: line.replace('"seq":1,', '"seq":true,')),
        2, "corrupted trace"),
    "replay-missing-outcome": (
        lambda run: _replay_with_first_line(run, lambda line: _without_field(line, "outcome")),
        2, "corrupted trace"),
    "replay-array-line": (
        lambda run: _replay_with_first_line(run, lambda line: "[1, 2]"), 2, "corrupted trace"),
    "replay-invalid-utf8": (_replay_invalid_utf8, 2, "corrupted trace"),
    "replay-trace-is-directory": (_replay_trace_is_directory, 2, "error: "),
    "report-unparseable": (_report_unparseable, 2, "error: "),
    "report-is-directory": (_report_is_directory, 2, "error: "),
    "run-suite-invalid-utf8": (_run_suite_invalid_utf8, 2, "error: "),
    "run-message-without-text": (_run_message_without_text, 2, "error: "),
    "run-suite-is-array": (lambda run: _run_suite_text(run, "[]"), 2, "error: "),
    "run-out-is-file": (_run_out_is_file, 2, "error: "),
    "run-traces-is-file": (_run_traces_is_file, 2, "error: "),
    "run-manifest-is-directory": (lambda run: _run_file_is_directory(run, "manifest.json"), 2, "error: "),
    "run-report-is-directory": (lambda run: _run_file_is_directory(run, "report.json"), 2, "error: "),
    "run-string-expected-legal": (_run_string_expected_legal, 2, "error: "),
    "run-integer-scenario-id": (_run_integer_scenario_id, 2, "error: "),
    "run-phantom-track": (_run_phantom_track, 2, "error: "),
    "run-scenario-id-with-slash": (lambda run: _run_scenario_id(run, "../../escaped"), 2, "error: "),
    "run-scenario-id-with-nul": (lambda run: _run_scenario_id(run, "a\0b"), 2, "error: "),
    "run-scenario-id-with-lone-surrogate": (  # json.dumps writes it as the escape "\ud800"
        lambda run: _run_scenario_id(run, "lone\ud800id"), 2, "error: scenario_id 'lone\\ud800id' must"),
    "run-non-string-pre": (
        lambda run: _run_edited(run, "skills.json", _skill_edit("pull_parse", pre=[True, 5])),
        2, "error: "),
    "run-empty-stages": (
        lambda run: _run_edited(run, "skills.json", _skill_edit("get_job_list", stages=[])),
        2, "error: "),
    "run-boolean-priority": (
        lambda run: _run_edited(run, "patterns.json", lambda p: p[0].update(priority=True)),
        2, "error: "),
    "ablate-out-is-file": (_ablate_out_is_file, 2, "error: "),
    "ablate-report-is-directory": (_ablate_report_is_directory, 2, "error: "),
    "inject-count-zero": (lambda run: _inject_count(run, 0), 2, "error: "),
    "inject-count-negative": (lambda run: _inject_count(run, -95), 2, "error: "),
    "inject-out-under-file": (_inject_out_under_file, 2, "error: "),
    "inject-out-is-directory": (_inject_out_is_directory, 2, "error: "),
    "inject-without-legal-normals": (
        _inject_without_legal_normals, 2, "error: suite contains no fully-legal normal scenarios"),
    "inject-premature-terminal-on-hr": (  # every hr normal scenario ends at a terminal stage
        lambda run: _inject_count(run, 1) + ["--strategy", "premature_terminal"],
        1, "error: scenario 'normal-001': no injectable position for premature_terminal"),
    "validate-effect-without-op": (
        lambda run: _validate_edited(run, "skills.json", _drop_effect_op), 1, "error: skills.json: "),
    "validate-list-effect-field": (
        lambda run: _validate_edited(run, "skills.json", lambda s: _first_effect(s).update(field=["x"])),
        1, "error: skills.json: "),
    "validate-list-set-value": (
        lambda run: _validate_edited(run, "skills.json", lambda s: _first_effect(s).update(value=[1])),
        1, "error: skills.json: "),
    "validate-string-pre": (
        lambda run: _validate_skill_edit(run, "pull_parse", pre="position_exists"),
        1, "error: skills.json: skill 'pull_parse': 'pre'"),
    "validate-string-stages": (
        lambda run: _validate_skill_edit(run, "create_demand", stages="init"),
        1, "error: skills.json: skill 'create_demand': 'stages'"),
    "validate-empty-stages": (
        lambda run: _validate_skill_edit(run, "get_job_list", stages=[]),
        1, "error: skills.json: skill 'get_job_list': 'stages'"),
    "validate-string-patterns": (
        lambda run: _validate_edited(run, "patterns.json", lambda p: p[0].update(patterns="create")),
        1, "error: patterns.json: intent 'create_demand': 'patterns'"),
    "validate-non-string-pre": (
        lambda run: _validate_skill_edit(run, "pull_parse", pre=[True, 5]),
        1, "error: skills.json: skill 'pull_parse': 'pre'"),
    "validate-integer-skill-id": (
        lambda run: _validate_skill_edit(run, "create_demand", id=7),
        1, "error: skills.json: skill config: 'id' must be a string, not 7"),
    "validate-boolean-priority": (
        lambda run: _validate_edited(run, "patterns.json", lambda p: p[0].update(priority=True)),
        1, "error: patterns.json: intent 'create_demand': 'priority'"),
    "validate-string-priority": (
        lambda run: _validate_edited(run, "patterns.json", lambda p: p[0].update(priority="7")),
        1, "error: patterns.json: intent 'create_demand': 'priority'"),
    "validate-integer-stage": (
        lambda run: _validate_edited(run, "automaton.json", lambda a: a["stages"].append(3)),
        1, "error: automaton.json: automaton config: 'stages' must be a list of strings, "
           "not ['init', 'src', 'int', 'off', 'onb', 'close', 3]"),
    "validate-one-element-transition": (
        lambda run: _validate_edited(run, "automaton.json", _one_element_transition),
        1, "error: automaton.json: "),
    "validate-fixtures-array": (
        _validate_fixtures_array, 1, "error: fixtures.json: expected an object keyed by skill id"),
    # each routes nothing through create_demand's entry: no pattern, or one that normalizes to ""
    "validate-no-pattern": (
        lambda run: _validate_edited(run, "patterns.json", lambda p: p[0].update(patterns=[])),
        1, "error: patterns.json: empty_pattern: intent 'create_demand' lists no pattern"),
    "validate-patterns-normalizing-to-nothing": (
        lambda run: _validate_edited(run, "patterns.json", lambda p: p[0].update(patterns=["=", "..."])),
        1, "error: patterns.json: empty_pattern: a pattern of intent 'create_demand' normalizes to nothing"),
    "validate-empty-first-pattern": (  # inject would write the first pattern's "" as an attack
        lambda run: _validate_edited(
            run, "patterns.json", lambda p: p[0].update(patterns=["...", "transfer money", "make a transfer"])),
        1, "error: patterns.json: empty_pattern: a pattern of intent 'create_demand' normalizes to nothing"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifacts_exit_without_traceback(case, tmp_path, finished_run, capsys):
    """Input faults exit 2; a malformed bundle fails validate (exit 1) naming its file.

    Either way no file is written or changed.
    """
    breaker, code, reported = MALFORMED[case]
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    argv = breaker(run)
    before = sorted(run.rglob("*")), _files(run)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert any(row.startswith(reported) for row in (captured.out + captured.err).splitlines())
    assert (sorted(run.rglob("*")), _files(run)) == before


@pytest.mark.parametrize("case", ["inject-without-legal-normals", "inject-premature-terminal-on-hr"])
def test_a_refused_inject_makes_no_directory(case, tmp_path, capsys):
    """``--out``'s parents are made only once there are variants to write."""
    breaker, code, reported = MALFORMED[case]
    argv = breaker(tmp_path)
    argv[argv.index("--out") + 1] = str(tmp_path / "injout" / "a" / "b" / "v.json")
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(reported)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "command", ["validate", "run", "ablate", "inject", "replay", "replay-snapshot", "report"])
def test_a_path_name_too_long_is_an_input_fault(tmp_path, capsys, command):
    """A 300-character bundle, --out, trace or run directory name, or a 245-character trace whose
    snapshot name is too long, makes looking at the path fail (ENAMETOOLONG): one error line, exit 2,
    nothing written."""
    name = str(tmp_path / ("x" * 300))
    trace = tmp_path / ("x" * 245 + ".jsonl")
    trace.write_text("")
    inputs = ["--domain", str(hr_domain_dir()), "--suite", str(hr_suite_path())]
    argv = {"validate": ["validate", name],
            "run": ["run", *inputs, "--out", name], "ablate": ["ablate", *inputs, "--out", name],
            "inject": ["inject", *inputs, "--count", "1", "--out", name],
            "replay": ["replay", f"{name}.jsonl"],
            "replay-snapshot": ["replay", str(trace), "--domain", str(hr_domain_dir())],
            "report": ["report", name]}[command]
    # report reads its one file through read_json, which names the file it could not read
    prefix = f"{name}/report.json: unreadable: " if command == "report" else ""
    before = _files(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {prefix}[Errno {errno.ENAMETOOLONG}] ")
    assert captured.err.count("\n") == 1
    assert _files(tmp_path) == before


@pytest.mark.parametrize("command", ["report", "replay", "run"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path, finished_run, small_suite, command):
    """The reader of stdout went away before the command wrote (as ``| head`` does when done): the
    command still does its work, says nothing on stderr and exits 141, as a shell reports SIGPIPE."""
    out_dir = tmp_path / "run"
    argv = {"report": ["report", str(finished_run)], "replay": ["replay", str(_trace(finished_run))],
            "run": ["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
                    "--out", str(out_dir)]}[command]
    assert _into_a_closed_stdout(argv) == (141, b"")
    assert (out_dir / "report.json").exists() == (command == "run")


@pytest.mark.parametrize("edit, code", [
    (lambda snapshot: snapshot.update(last_seq=snapshot["last_seq"] + 1), 1),
    (lambda snapshot: snapshot.pop("status"), 2),
], ids=["diverging", "lacking-a-key"])
def test_a_closed_stdout_keeps_the_snapshot_verdict(tmp_path, finished_run, capsys, edit, code):
    """A replay whose snapshot diverges or lacks a key exits with the code and the one stderr line
    it gives on a live stdout, though its reader went away before the state was printed."""
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    _edit_json(_trace(run).with_name("normal-001-t0.snapshot.json"), edit)
    argv = ["replay", str(_trace(run))]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert _into_a_closed_stdout(argv) == (code, err.encode())


def _into_a_closed_stdout(argv: list[str]) -> tuple[int, bytes]:
    """The exit code and stderr of ``stagegate`` *argv*, warnings as errors, with stdout a pipe
    whose reader closed before it started."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(stagegate.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "stagegate.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write)
    return done.returncode, done.stderr


@pytest.mark.parametrize("trace", [".", "/"])
def test_replay_of_a_directory_without_a_name_is_an_input_fault(trace, capsys):
    assert main(["replay", trace, "--domain", str(hr_domain_dir())]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {trace}: unreadable: ")


def test_validate_prints_a_warning_line_and_still_exits_zero(tmp_path, capsys):
    domain = tmp_path / "hr"
    shutil.copytree(hr_domain_dir(), domain)

    def idle_intent(automaton):
        automaton["intents"].append("idle")
        automaton["binding"]["idle"] = []
        automaton["stage_map"]["idle"] = None

    _edit_json(domain / "automaton.json", idle_intent)
    assert main(["validate", str(domain)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "warning: automaton.json: binding_empty: intent 'idle' is bound to no stage",
        "hr: bundle is valid",
    ]


@pytest.mark.parametrize("unknown, named", [
    (["note"], "note"),
    ([f"k{n:05}" for n in range(10_000)], ", ".join(f"k{n:05}" for n in range(12)) + ", k000..."),
], ids=["one", "ten-thousand"])
def test_replay_names_a_snapshot_s_unknown_keys_in_one_short_line(tmp_path, finished_run, capsys, unknown, named):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    snapshot = _trace(run).with_name("normal-001-t0.snapshot.json")
    _edit_json(snapshot, lambda data: data.update(dict.fromkeys(unknown, 0)))
    capsys.readouterr()
    assert main(["replay", str(_trace(run))]) == 2
    assert capsys.readouterr().err == f"error: {snapshot}: snapshot holds unknown keys: {named}\n"


def _huge_scenarios(suite: dict) -> None:
    suite["scenarios"] = {f"s{n}": {} for n in range(10_000)}


def _huge_final_stage(suite: dict) -> None:  # 5,000 tracks, one of them no track number
    suite["scenarios"][0]["expected_final_stage"] = {str(n): "close" for n in range(4_999)} | {"-1": "close"}


@pytest.mark.parametrize("edit, start", [
    (_huge_scenarios, "error: suite: 'scenarios' must be a list, not {'s0': {}, "),
    (_huge_final_stage, "error: scenario 'normal-001': 'expected_final_stage' must be "),
], ids=["scenarios-object", "final-stage-tracks"])
def test_a_refused_value_shows_in_one_short_line(tmp_path, capsys, edit, start):
    suite = json.loads(hr_suite_path().read_text())
    edit(suite)
    (tmp_path / "suite.json").write_text(json.dumps(suite))
    argv = ["run", "--domain", str(hr_domain_dir()), "--suite", str(tmp_path / "suite.json"),
            "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 300, err[:400]
    assert err.startswith(start) and err.endswith("...\n"), err
    assert not (tmp_path / "run").exists()


_LONG = "x" * 50_000


def _first_scenario(**fields):
    return lambda suite, skills: suite["scenarios"][0].update(fields)


def _first_skill(**fields):
    return lambda suite, skills: skills[0].update(fields)


def _long_message_text(suite, skills):  # a message of a scenario with a long id holds no string
    suite["scenarios"][0]["scenario_id"] = _LONG
    suite["scenarios"][0]["messages"][1]["text"] = 7


def _two_long_scenario_ids(suite, skills):
    for scenario in suite["scenarios"][:2]:
        scenario["scenario_id"] = _LONG


@pytest.mark.parametrize("edit, shows", [
    (_first_scenario(scenario_id=_LONG, messages=[]), "error: scenario 'xxx"),
    (_first_scenario(type=_LONG), "error: scenario 'normal-001': unknown type 'xxx"),
    (_first_scenario(expected_final_stage=_LONG), "error: scenario 'normal-001': expected stage 'xxx"),
    (lambda suite, skills: suite["scenarios"][0]["messages"][0].update(label_intent=_LONG),
     "error: scenario 'normal-001': label_intent 'xxx"),
    (_first_skill(level=_LONG), "skills.json: unknown risk level: 'xxx"),
    (_first_scenario(scenario_id=_LONG + "/"), "error: scenario_id 'xxx"),
    (_first_scenario(scenario_id=_LONG, type=7), "error: scenario 'xxx"),
    (_first_skill(id=_LONG, pre=7), "skills.json: skill 'xxx"),
    (_long_message_text, "error: scenario 'xxx"),
    (_two_long_scenario_ids, "error: duplicate scenario_id 'xxx"),
    (lambda suite, skills: suite.update(domain=_LONG), "error: suite declares domain 'xxx"),
    (_first_skill(id=_LONG, stages=[]), "skills.json: skill 'xxx"),
    (_first_skill(id=_LONG, post=[{"op": "set", "field": "f"}]), "skills.json: skill 'xxx"),
    (_first_skill(post=[{"op": _LONG, "field": "f"}]), "skills.json: unknown postcondition op: 'xxx"),
    (_first_skill(stages=[_LONG]), "declares stages outside the automaton: xxx"),
], ids=["scenario-prefix", "unknown-type", "expected-stage", "label-intent", "risk-level", "file-safe-id",
        "naming", "skill-naming", "message-prefix", "duplicate-scenario", "suite-domain", "skill-stages",
        "effect-prefix", "effect-op", "foreign-stages"])
def test_a_refusal_clips_every_name_it_prints(tmp_path, capsys, edit, shows):
    """Each refusal that names an id or a value shows at most ``errors.CLIP`` characters of it."""
    domain = tmp_path / "hr"
    shutil.copytree(hr_domain_dir(), domain)
    suite = json.loads(hr_suite_path().read_text())
    skills = json.loads((domain / "skills.json").read_text())
    edit(suite, skills)
    (domain / "skills.json").write_text(json.dumps(skills))
    (tmp_path / "suite.json").write_text(json.dumps(suite))
    argv = ["run", "--domain", str(domain), "--suite", str(tmp_path / "suite.json"),
            "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) <= 301, err[:400]  # one line of at most 300 characters
    assert err.startswith("error: ") and shows in err and "xxx..." in err, err
    assert not (tmp_path / "run").exists()


def test_replay_without_a_snapshot_prints_the_state_and_exits_zero(tmp_path, finished_run, capsys):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    expected = json.loads(_trace(run).with_name("normal-001-t0.snapshot.json").read_text())
    _trace(run).with_name("normal-001-t0.snapshot.json").unlink()
    capsys.readouterr()
    assert main(["replay", str(_trace(run))]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {key: value for key, value in expected.items() if key != "domain"}
    assert captured.err == ""


def _enospc_on_call(monkeypatch, n: int) -> list[str]:
    """Make the *n*-th write of a trace or snapshot file fail as a full disk does; the paths written."""
    from stagegate import memory

    write, calls = memory._write, []

    def failing(path, flags, data):
        calls.append(path)
        if len(calls) == n:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        write(path, flags, data)

    monkeypatch.setattr(memory, "_write", failing)
    return calls


def test_a_full_disk_mid_run_is_a_runtime_fault(tmp_path, small_suite, monkeypatch, capsys):
    written = _enospc_on_call(monkeypatch, 50)
    out_dir = tmp_path / "run"
    code = main(["run", "--domain", str(hr_domain_dir()), "--suite", str(small_suite), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(written) == 50
    assert captured.err == (
        f"runtime fault: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {written[-1]!r}"
        f" (partial traces kept in {out_dir / 'traces'})\n"
    )
    assert not (out_dir / "report.json").exists()


def test_inject_runtime_faults_exit_three(tmp_path, monkeypatch, capsys):
    out = tmp_path / "variants.json"
    write_text = Path.write_text

    def full_disk(path, *args, **kwargs):
        if path == out:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", full_disk)
    argv = ["inject", "--domain", str(hr_domain_dir()), "--suite", str(hr_suite_path()),
            "--count", "1", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"runtime fault: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert list(tmp_path.iterdir()) == []


def test_ablate_runtime_faults_exit_three(tmp_path, small_suite, monkeypatch, capsys):
    from stagegate import cli
    from stagegate.errors import IntegrityFault

    argv = ["ablate", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
            "--out", str(tmp_path / "ablate")]
    write_text = Path.write_text

    def full_disk(path, *args, **kwargs):
        if path.name == "ablation.json":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", full_disk)
    assert main(argv) == 3
    assert capsys.readouterr().err == f"runtime fault: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    def broken(*args, **kwargs):
        raise IntegrityFault("seq gap", seq=4)

    monkeypatch.setattr(cli, "compare_configs", broken)
    assert main(argv) == 3
    assert capsys.readouterr().err == "runtime fault: seq gap\n"
    assert not (tmp_path / "ablate" / "ablation.json").exists()


def test_a_faulted_ablation_makes_no_directory(tmp_path, small_suite, monkeypatch, capsys):
    """``--out`` and its parents are made only once there is a table to write."""
    from stagegate import cli
    from stagegate.errors import IntegrityFault

    def broken(*args, **kwargs):
        raise IntegrityFault("seq gap", seq=4)

    monkeypatch.setattr(cli, "compare_configs", broken)
    assert main(["ablate", "--domain", str(hr_domain_dir()), "--suite", str(small_suite),
                 "--out", str(tmp_path / "abl" / "x" / "y")]) == 3
    assert capsys.readouterr().err == "runtime fault: seq gap\n"
    assert list(tmp_path.iterdir()) == []
