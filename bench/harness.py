"""One closed-loop pass over a workload, with the output checks that feed error_rate.

A pass has four phases, each timed on its own:

1. dispatch: every suite message, in suite order, through ``dispatch()``
   against fresh goals, one call timed at a time;
2. suite: ``run_suite`` on every suite, as ``stagegate run`` does it;
3. report: ``compute_report`` on every ``run_suite`` result;
4. replay: every goal of the suite phase rebuilt from its store and compared
   with live state (from disk through ``load_trace`` + ``replay_events`` on
   the file store, as ``stagegate replay`` does).

An operation is one dispatch, report or goal replay.  It fails when it raises
or when an output check on it fails.  A check on the pass as a whole (outcome
digest, pinned counts) fails every dispatch of the pass.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from stagegate import dispatcher, evaluation, memory, runner
from stagegate.dispatcher import DispatchDeps
from stagegate.memory import FileEventStore, GoalManager, InMemoryEventStore

from workloads import Loaded, Workload

BLOCKS = ("ILLEGAL_TRANSITION", "PRECONDITION_FAIL")


@dataclass
class Checks:
    """Attempted and failed operations, with the first few failures described."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _pass_ops: int = 0
    _pass_failed: int = 0

    def _note(self, what: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(what)

    def begin_pass(self) -> None:
        self._pass_ops = self._pass_failed = 0

    def op(self, ok: bool, what: str, dispatch: bool = False) -> None:
        self.attempted += 1
        self._pass_ops += dispatch
        if not ok:
            self.failed += 1
            self._pass_failed += dispatch
            self._note(what)

    def pass_check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += self._pass_ops - self._pass_failed
            self._pass_failed = self._pass_ops
            self._note(what)


@dataclass
class PassResult:
    # Times in ns, one per message, suite or goal, in the same order on every
    # pass.  Arrays, since lists of ints would grow peak RSS with the pass count.
    dispatch_ns: array
    suite_ns: array
    report_ns: array
    replay_ns: array
    messages: int
    digest: str
    outcomes: Counter[str]
    fallback: int  # dispatches the router answered in fallback mode
    unresolved: int  # dispatches whose intent stayed unresolved
    # Filled on traced passes only.
    clone_ns: list[int] = field(default_factory=list)
    trace_bytes: int = 0
    events: int = 0
    snapshot_bytes: int = 0
    goals: int = 0


def _line(gid: str, outcome: str, sub_reason: str | None, before: str, after: str, skill: str | None) -> bytes:
    return f"{gid}|{outcome}|{sub_reason}|{before}|{after}|{skill}\n".encode()


def _store(workload: Workload, directory: Path) -> InMemoryEventStore | FileEventStore:
    return FileEventStore(directory) if workload.store == "file" else InMemoryEventStore()


def reset_files(loaded: list[Loaded], workdir: Path) -> None:
    """Leave an empty trace (and, for run_suite, snapshot) file for every goal of a pass.

    Creating a file took 0.5-0.8 ms on a shared 2-vCPU VM's ext4 disk (five
    dispatches' worth) and swung with other tenants' I/O, while appending to
    an existing file took 20-30 us.  Passes therefore reuse one set of files,
    emptied here outside the timed regions, so the timings cover the store's
    own work (serialize, open, append, close, snapshot writes, reads) and
    not inode creation on whatever disk the checkout sits on.
    """
    for phase, suffixes in (("dispatch", (".jsonl",)), ("suite", (".jsonl", ".snapshot.json"))):
        for item in loaded:
            directory = workdir / phase / item.bundle.name
            directory.mkdir(parents=True, exist_ok=True)
            for scenario in item.scenarios:
                for track in scenario.tracks():
                    for suffix in suffixes:
                        with open(directory / f"{runner.goal_id_for(scenario, track)}{suffix}", "w"):
                            pass


def _dispatch_phase(
    item: Loaded, store, checks: Checks, samples: array, digest, outcomes: Counter[str]
) -> tuple[int, int]:
    """Dispatch every message of one suite; returns (fallback, unresolved) counts."""
    bundle = item.bundle
    manager = GoalManager(store=store)
    manager.add_domain(bundle.name, bundle.automaton, bundle.registry)
    deps = DispatchDeps(
        automaton=bundle.automaton,
        registry=bundle.registry,
        table=bundle.table,
        manager=manager,
        executor=bundle.build_executor(),
        fallback=bundle.fallback,
    )
    for scenario in item.scenarios:
        for track in scenario.tracks():
            manager.create_goal(bundle.name, goal_id=runner.goal_id_for(scenario, track))

    clock = time.perf_counter_ns
    fallback = unresolved = 0
    for scenario in item.scenarios:
        for msg in scenario.messages:
            gid = runner.goal_id_for(scenario, msg.track)
            stage = manager.goal(gid).current_stage
            state = manager.context(gid).business_state
            seq = manager.last_seq(gid)
            start = clock()
            try:
                result = dispatcher.dispatch(msg.text, gid, deps)
            except Exception as exc:  # counted as a failed operation, the run goes on
                checks.op(False, f"{gid}: dispatch raised {exc!r}", dispatch=True)
                continue
            finally:
                samples.append(clock() - start)  # one per message, so passes line up

            ok = (
                result.event is not None
                and result.event.seq == seq + 1
                and manager.last_seq(gid) == seq + 1
            )
            if ok and result.blocked:
                ok = (
                    result.stage_after == stage
                    and manager.goal(gid).current_stage == stage
                    and manager.context(gid).business_state == state
                )
            checks.op(ok, f"{gid} turn {msg.turn_index}: event or blocked-state check failed", dispatch=True)
            routing = result.detail.get("routing", {})
            fallback += routing.get("mode") == "fallback"
            sub_reason = result.event.sub_reason if result.event else None
            unresolved += sub_reason == "intent_unresolved"
            outcomes[result.outcome] += 1
            digest.update(
                _line(gid, result.outcome, sub_reason, result.stage_before, result.stage_after, result.skill_id)
            )

    for gid in manager.goal_ids():
        stored = len(store.events_for(gid))
        checks.pass_check(
            stored == manager.last_seq(gid),
            f"{gid}: store holds {stored} events for {manager.last_seq(gid)} dispatches",
        )
    return fallback, unresolved


def _replay_goal(run: runner.RunResult, gid: str, item: Loaded) -> bool:
    """Rebuild one goal from its store and compare it with live state."""
    manager = run.manager
    if isinstance(manager.store, FileEventStore):
        events = memory.load_trace(manager.store.directory / f"{gid}.jsonl")
        rebuilt = memory.replay_events(
            goal_id=gid,
            domain=item.bundle.name,
            automaton=item.bundle.automaton,
            registry=item.bundle.registry,
            events=events,
        )
    else:
        rebuilt = manager.replay(gid)
    live = manager.goal(gid)
    return (
        rebuilt.record.current_stage == live.current_stage
        and rebuilt.record.status == live.status
        and rebuilt.business_state == manager.context(gid).business_state
        and rebuilt.last_seq == manager.last_seq(gid)
    )


def _report_ok(report: evaluation.EvalReport, run: runner.RunResult) -> bool:
    outcomes = Counter(step.outcome for step in run.steps)
    return (
        report.n_messages == len(run.steps)
        and report.trc == 1.0
        and report.blocked_total == sum(outcomes[o] for o in BLOCKS)
        and {k: v for k, v in report.distribution.counts.items() if v} == dict(outcomes)
    )


def _store_bytes(run: runner.RunResult) -> tuple[int, int, int, int]:
    """(trace bytes, events, snapshot bytes, goals) the suite phase left in its store."""
    events = run.events()
    goals = len(run.manager.goal_ids())
    store = run.manager.store
    if isinstance(store, FileEventStore):
        trace = sum(p.stat().st_size for p in store.directory.glob("*.jsonl"))
        snapshots = sum(p.stat().st_size for p in store.directory.glob("*.snapshot.json"))
        return trace, len(events), snapshots, goals
    return sum(len(e.to_line()) + 1 for e in events), len(events), 0, goals


def run_pass(
    loaded: list[Loaded],
    workload: Workload,
    workdir: Path,
    checks: Checks,
    expected_digest: str | None,
    traced: bool = False,
) -> PassResult:
    """Run the four phases once; *traced* also fills the fields the layer metrics need."""
    if workload.store == "file":
        reset_files(loaded, workdir)
    checks.begin_pass()
    clock = time.perf_counter_ns

    samples = array("q")
    digest = hashlib.sha256()
    outcomes: Counter[str] = Counter()
    fallback = unresolved = 0
    for item in loaded:
        f, u = _dispatch_phase(
            item, _store(workload, workdir / "dispatch" / item.bundle.name),
            checks, samples, digest, outcomes,
        )
        fallback += f
        unresolved += u
    dispatch_digest = digest.hexdigest()

    suite_ns = array("q")
    runs: list[tuple[Loaded, runner.RunResult]] = []
    suite_digest = hashlib.sha256()
    for item in loaded:
        store = _store(workload, workdir / "suite" / item.bundle.name)
        start = clock()
        try:
            run = runner.run_suite(item.bundle, item.scenarios, store=store)
        except Exception as exc:
            for _ in range(item.messages):
                checks.op(False, f"{item.bundle.name}: run_suite raised {exc!r}", dispatch=True)
            continue
        finally:
            suite_ns.append(clock() - start)
        runs.append((item, run))
        for step in run.steps:
            checks.op(step.event is not None, f"{step.goal_id}: suite step left no event", dispatch=True)
            suite_digest.update(
                _line(step.goal_id, step.outcome, step.event.sub_reason if step.event else None,
                      step.result.stage_before, step.result.stage_after, step.result.skill_id)
            )

    report_ns = array("q")
    for item, run in runs:
        start = clock()
        try:
            report = evaluation.compute_report(run, item.bundle)
        except Exception as exc:
            checks.op(False, f"{item.bundle.name}: compute_report raised {exc!r}")
            continue
        finally:
            report_ns.append(clock() - start)
        checks.op(_report_ok(report, run), f"{item.bundle.name}: report disagrees with the run")

    replay_ns = array("q")
    for item, run in runs:
        for gid in run.manager.goal_ids():
            start = clock()
            try:
                ok, what = _replay_goal(run, gid, item), "replay differs from live state"
            except Exception as exc:
                ok, what = False, f"replay raised {exc!r}"
            replay_ns.append(clock() - start)
            checks.op(ok, f"{gid}: {what}")

    checks.pass_check(
        suite_digest.hexdigest() == dispatch_digest,
        "run_suite outcomes differ from the dispatch loop's",
    )
    if expected_digest is not None:
        checks.pass_check(
            dispatch_digest == expected_digest,
            f"outcome digest {dispatch_digest[:12]} differs from expected {expected_digest[:12]}",
        )
    if workload.pinned_counts is not None:
        checks.pass_check(
            dict(outcomes) == workload.pinned_counts,
            f"outcome counts {dict(outcomes)} differ from pinned {workload.pinned_counts}",
        )

    result = PassResult(
        dispatch_ns=samples,
        suite_ns=suite_ns,
        report_ns=report_ns,
        replay_ns=replay_ns,
        messages=sum(item.messages for item in loaded),
        digest=dispatch_digest,
        outcomes=outcomes,
        fallback=fallback,
        unresolved=unresolved,
    )
    if traced:
        for item, run in runs:
            for gid in run.manager.goal_ids():
                ctx = run.manager.context(gid)
                start = time.perf_counter_ns()
                ctx.clone()
                result.clone_ns.append(time.perf_counter_ns() - start)
            trace, events, snapshots, goals = _store_bytes(run)
            result.trace_bytes += trace
            result.events += events
            result.snapshot_bytes += snapshots
            result.goals += goals
    return result
