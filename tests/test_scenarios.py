from __future__ import annotations

import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from stagegate import scenarios, suites
from stagegate.context import DispatchContext
from stagegate.dispatcher import BLOCK_OUTCOMES, DispatchToggles
from stagegate.errors import ConfigError, GenerationFault
from stagegate.runner import run_suite
from stagegate.scenarios import (
    BUNDLE_FILES,
    LabeledMessage,
    Scenario,
    check_bundle,
    detect_latent,
    inject_illegal,
    load_domain,
    load_suite,
    read_json,
    simulate_scenario,
    suite_from_dict,
    suite_to_dict,
)
from stagegate.suites import (
    SGD_DOMAINS,
    hr_domain_dir,
    hr_suite_path,
    sgd_domain_dir,
    sgd_suite_path,
)

from reference import paraphrased


def test_all_shipped_bundles_load_clean():
    bundles = [load_domain(hr_domain_dir())]
    for domain in SGD_DOMAINS:
        bundles.append(load_domain(sgd_domain_dir(domain)))
    assert len(bundles) == 9
    names = {b.name for b in bundles}
    assert "hr" in names and "Hotels_1" in names


def test_every_precondition_flag_of_a_shipped_bundle_is_set_by_some_skill():
    """A guard that no effect sets truthy would keep its skill from ever running."""
    guarded = 0
    for directory in [hr_domain_dir(), *map(sgd_domain_dir, SGD_DOMAINS)]:
        registry = load_domain(directory).registry
        written = {
            effect.field for spec in registry for effect in spec.postconditions
            if effect.op == "set_from_result" or effect.value
        }
        guards = {name for spec in registry for name in spec.preconditions}
        assert guards <= written, (directory.name, sorted(guards - written))
        guarded += len(guards)
    assert guarded == 6  # the hiring bundle's; the service bundles declare no guards


@pytest.mark.parametrize("part, edit, reported", [
    ("skills", lambda s: s[3].update(id=7), "skill config: 'id' must be a string, not 7"),
    ("skills", lambda s: s[3].update(intent=["x"]), "skill 'create_demand': 'intent' must be"),
    ("skills", lambda s: s[3].update(level=1), "skill 'create_demand': 'level' must be"),
    ("skills", lambda s: s[3].update(stages=[0]), "skill 'create_demand': 'stages' must be a list"),
    ("skills", lambda s: s[4].update(pre=[True, 5]), "skill 'pull_parse': 'pre' must be a list"),
    ("skills", lambda s: s[3].update(risk=None), "skill 'create_demand': 'risk' must be"),
    ("skills", lambda s: s[3].update(disclosure=2), "skill 'create_demand': 'disclosure' must be"),
    ("patterns", lambda p: p[0].update(intent=7), "pattern entry: 'intent' must be a string, not 7"),
    ("patterns", lambda p: p[0]["patterns"].append(5), "intent 'create_demand': 'patterns' must be a list"),
    ("patterns", lambda p: p[0].update(priority=True), "intent 'create_demand': 'priority' must be"),
    ("patterns", lambda p: p[0].update(priority="7"), "intent 'create_demand': 'priority' must be"),
    ("automaton", lambda a: a["stages"].append(3), "automaton config: 'stages' must be a list of strings, not ['init'"),
    ("automaton", lambda a: a["intents"].append(7), "automaton config: 'intents' must be a list of strings, not ['create_demand'"),
    ("automaton", lambda a: a["transitions"].append(["init", 3]), "a transition must be a list"),
    ("automaton", lambda a: a["binding"]["create_demand"].append(3), "binding of 'create_demand'"),
    ("automaton", lambda a: a["stage_map"].update(create_demand=3), "stage_map of 'create_demand'"),
    ("automaton", lambda a: a.update(initial=0), "automaton config: 'initial' must be a string, not 0"),
    ("skills", lambda s: s.append(["x"]), "skill config must be an object, not list"),
    ("skills", lambda s: s[3].update(post={"op": "set"}), "skill 'create_demand': 'post' must be a list, not {'op': 'set'}"),
    ("skills", lambda s: s[3]["post"].append(["set", "f"]),
     "skill 'create_demand': effect 1 must be an object, not list"),
    ("patterns", lambda p: p.append(["x"]), "pattern entry must be an object, not list"),
    ("automaton", lambda a: a.update(transitions="ab"), "automaton config: 'transitions' must be a list, not 'ab'"),
    ("automaton", lambda a: a["transitions"].append(["init", "src", "int"]),
     "a transition must name two stages, not ['init', 'src', 'int']"),
    ("automaton", lambda a: a.update(binding=[]), "automaton config: 'binding' must be an object, not []"),
    ("automaton", lambda a: a.update(stage_map=[["q", None]]), "automaton config: 'stage_map' must be an object, not [['q', None]]"),
])
def test_bundle_fields_load_only_at_their_exact_json_type(part, edit, reported):
    parts = {key: read_json(hr_domain_dir() / name) for key, name in BUNDLE_FILES.items()}
    edit(parts[part])
    errors, _ = check_bundle("hr", parts)
    assert [where for where, _ in errors] == [part]
    assert errors[0][1].startswith(reported)


@pytest.mark.parametrize("part, value, reported", [
    ("automaton", [], "automaton config must be an object, not list"),
    ("skills", {"id": "create_demand"}, "skills must be a list, not dict"),
    ("skills", "create_demand", "skills must be a list, not str"),
    ("patterns", {"intent": "create_demand"}, "pattern table must be a list, not dict"),
    ("patterns", "create_demand", "pattern table must be a list, not str"),
])
def test_a_bundle_part_of_the_wrong_json_type_is_refused_by_its_type(part, value, reported):
    parts = {key: read_json(hr_domain_dir() / name) for key, name in BUNDLE_FILES.items()}
    errors, _ = check_bundle("hr", parts | {part: value})
    assert errors == [(part, reported)]


def test_hotels_bundle_is_two_stage_search_then_reserve():
    bundle = load_domain(sgd_domain_dir("Hotels_1"))
    assert bundle.automaton.stages == ("SearchHotel", "ReserveHotel")
    assert bundle.automaton.initial == "SearchHotel"
    assert bundle.automaton.can_transition("SearchHotel", "ReserveHotel")


def test_bundle_with_unrouted_intent_fails_cross_validation(tmp_path):
    source = sgd_domain_dir("Banks_1")
    for name in ("automaton.json", "skills.json", "patterns.json", "fixtures.json"):
        (tmp_path / name).write_text((source / name).read_text())
    patterns = json.loads((tmp_path / "patterns.json").read_text())
    patterns = [p for p in patterns if p["intent"] != "transfer_money"]
    (tmp_path / "patterns.json").write_text(json.dumps(patterns))
    with pytest.raises(ConfigError, match="transfer_money"):
        load_domain(tmp_path)


def test_shipped_hr_suite_shape(hr_suite):
    assert len(hr_suite) == 185
    assert sum(len(s.messages) for s in hr_suite) == 882
    by_type = {}
    for s in hr_suite:
        by_type[s.type] = by_type.get(s.type, 0) + 1
    assert by_type == {
        "normal": 50, "illegal": 25, "rollback": 25, "multi": 25, "abort": 30, "concurrent": 30,
    }


def test_shipped_sgd_suites_shape(build_data):
    dialogues = 0
    turns = 0
    for domain in SGD_DOMAINS:
        bundle = load_domain(sgd_domain_dir(domain))
        suite = load_suite(sgd_suite_path(domain), bundle)
        assert sum(1 for s in suite if s.type == "normal") == 100
        assert sum(1 for s in suite if s.type == "illegal") == 20
        domain_turns = sum(len(s.messages) for s in suite)
        assert domain_turns == build_data.SGD_NORMAL_TURNS[domain] + 20
        dialogues += len(suite)
        turns += domain_turns
    assert dialogues == 960
    assert turns == 1734  # 1,574 normal-split turns plus 160 injected attacks


def test_turn_index_gap_is_schema_fault(hr_bundle):
    raw = {
        "domain": "hr",
        "scenarios": [
            {
                "scenario_id": "bad",
                "type": "normal",
                "expected_final_stage": "init",
                "messages": [
                    {"turn_index": 0, "text": "help", "expected_legal": True},
                    {"turn_index": 2, "text": "help", "expected_legal": True},
                ],
            }
        ],
    }
    with pytest.raises(ConfigError, match="turn_index"):
        suite_from_dict(raw, hr_bundle)


@pytest.mark.parametrize("field, value", [
    ("text", 5), ("expected_legal", "false"), ("expected_legal", 1), ("turn_index", 0.0),
    ("turn_index", False), ("track", "0"), ("track", True), ("label_intent", ["help"]),
])
def test_message_fields_load_only_at_their_exact_json_type(hr_bundle, field, value):
    message = {"turn_index": 0, "text": "help", "expected_legal": True, field: value}
    raw = {
        "domain": "hr",
        "scenarios": [
            {"scenario_id": "bad", "type": "normal", "expected_final_stage": "init",
             "messages": [message]},
        ],
    }
    with pytest.raises(ConfigError, match="scenario 'bad': message 0: "):
        suite_from_dict(raw, hr_bundle)


_FINAL_STAGE = ("scenario 'bad': 'expected_final_stage' must be a stage, or an object from track numbers "
                "(non-negative, no leading zeros) to stages, not ")


@pytest.mark.parametrize("field, value, reported", [
    ("scenario_id", 5, "scenario at position 0: 'scenario_id' must be a string, not 5"),
    ("type", 1, "scenario 'bad': 'type' must be a string, not 1"),
    ("expected_final_stage", 0, _FINAL_STAGE + "0"),
    ("expected_final_stage", ["init"], _FINAL_STAGE + "['init']"),
    ("expected_final_stage", {"0": 1}, _FINAL_STAGE + "{'0': 1}"),
    ("expected_final_stage", {"0": "close", "00": "init"}, _FINAL_STAGE + "{'0': 'close', '00': 'init'}"),
    ("expected_final_stage", {"-1": "init"}, _FINAL_STAGE + "{'-1': 'init'}"),
    ("expected_final_stage", {" 0": "init"}, _FINAL_STAGE + "{' 0': 'init'}"),
])
def test_scenario_fields_load_only_at_their_exact_json_type(hr_bundle, field, value, reported):
    scenario = {"scenario_id": "bad", "type": "normal", "expected_final_stage": "init",
                "messages": [{"turn_index": 0, "text": "help", "expected_legal": True}]}
    with pytest.raises(ConfigError) as caught:
        suite_from_dict({"domain": "hr", "scenarios": [scenario | {field: value}]}, hr_bundle)
    assert str(caught.value) == reported


# each id that cannot name a trace file in its directory, with the rule it breaks
UNSAFE_IDS = {
    "../../escaped": "must not contain '/', '\\' or NUL",
    "a/b": "must not contain '/', '\\' or NUL",
    "a\\b": "must not contain '/', '\\' or NUL",
    "a\0b": "must not contain '/', '\\' or NUL",
    "lone\ud800id": "must encode as UTF-8",  # a lone surrogate, as the JSON escape "\ud800" reads
}


@pytest.mark.parametrize("sid", UNSAFE_IDS)
def test_a_scenario_id_that_could_name_a_path_is_refused(hr_bundle, sid):
    scenario = {"scenario_id": sid, "type": "normal", "expected_final_stage": "init",
                "messages": [{"turn_index": 0, "text": "help", "expected_legal": True}]}
    with pytest.raises(ConfigError, match=rf"^scenario_id .* {re.escape(UNSAFE_IDS[sid])}$"):
        suite_from_dict({"domain": "hr", "scenarios": [scenario]}, hr_bundle)


@pytest.mark.parametrize("did", UNSAFE_IDS)
def test_a_dialogue_id_that_could_name_a_path_is_refused(build_data, did):
    bundle = load_domain(sgd_domain_dir("Banks_1"))
    dialogue = {"dialogue_id": did, "turns": [_user_turn("check my balance")]}
    with pytest.raises(ConfigError, match=rf"^dialogue_id .* {re.escape(UNSAFE_IDS[did])}$"):
        build_data.convert_dialogues([dialogue], bundle)


def test_a_suite_domain_must_be_a_string(hr_bundle, hr_suite):
    raw = suite_to_dict("hr-governance-suite", "hr", hr_suite)
    with pytest.raises(ConfigError) as caught:
        suite_from_dict(raw | {"domain": ["hr"]}, hr_bundle)
    assert str(caught.value) == "suite: 'domain' must be a string, not ['hr']"


def _bad_suite():
    return {"domain": "hr", "scenarios": [
        {"scenario_id": "bad", "type": "normal", "expected_final_stage": "init",
         "messages": [{"turn_index": 0, "text": "help", "expected_legal": True}]},
    ]}


@pytest.mark.parametrize("edit, reported", [
    (lambda raw: raw["scenarios"][0].pop("scenario_id"), "scenario at position 0: missing key 'scenario_id'"),
    (lambda raw: raw["scenarios"][0].update(messages=[]), "scenario 'bad': messages must be non-empty"),
    (lambda raw: raw["scenarios"][0].update(expected_final_stage="nowhere"),
     "scenario 'bad': expected stage 'nowhere' not in domain"),
    (lambda raw: raw["scenarios"][0]["messages"][0].update(label_intent="ghost"),
     "scenario 'bad': label_intent 'ghost' not in domain"),
    (lambda raw: raw.update(domain="Banks_1"), "suite declares domain 'Banks_1' but bundle is 'hr'"),
    (lambda raw: raw["scenarios"].append(raw["scenarios"][0]), "duplicate scenario_id 'bad'"),
    (lambda raw: raw.update(scenarois=raw.pop("scenarios")), "suite: unknown keys: scenarois"),
    (lambda raw: raw.pop("scenarios"), "suite: missing key 'scenarios'"),
    (lambda raw: raw["scenarios"][0].update(expected_stage="init", note=""),
     "scenario 'bad': unknown keys: expected_stage, note"),
    (lambda raw: raw["scenarios"][0]["messages"][0].update(trak=1),
     "scenario 'bad': message 0: unknown keys: trak"),
    (lambda raw: raw["scenarios"][0]["messages"][0].update(label_intnet="help"),
     "scenario 'bad': message 0: unknown keys: label_intnet"),
    (lambda raw: raw["scenarios"].append(["x"]), "scenario at position 1 must be an object, not list"),
    (lambda raw: raw["scenarios"].insert(0, "bad"), "scenario at position 0 must be an object, not str"),
    (lambda raw: raw["scenarios"][0]["messages"].append(["help"]),
     "scenario 'bad': message 1 must be an object, not list"),
    (lambda raw: raw["scenarios"][0]["messages"].insert(0, None),
     "scenario 'bad': message 0 must be an object, not NoneType"),
    (lambda raw: raw["scenarios"].append(raw["scenarios"][0] | {"scenario_id": "two", "messages": [
        {"turn_index": 0, "text": "help", "expected_legal": True},
        {"turn_index": 1, "text": 5, "expected_legal": True}]}),
     "scenario 'two': message 1: 'text' must be a string, not 5"),  # a suite's messages are read at once
    (lambda raw: raw.update(scenarios="ab"), "suite: 'scenarios' must be a list, not 'ab'"),
    (lambda raw: raw.update(scenarios={"x": 1}), "suite: 'scenarios' must be a list, not {'x': 1}"),
    (lambda raw: raw["scenarios"][0].update(messages="hi"), "scenario 'bad': 'messages' must be a list, not 'hi'"),
    (lambda raw: raw["scenarios"][0].update(messages={"x": 1}),
     "scenario 'bad': 'messages' must be a list, not {'x': 1}"),
])
def test_suite_refusals(hr_bundle, edit, reported):
    raw = _bad_suite()
    suite_from_dict(raw, hr_bundle)  # loads before the edit
    edit(raw)
    with pytest.raises(ConfigError) as caught:
        suite_from_dict(raw, hr_bundle)
    assert str(caught.value) == reported


@pytest.mark.parametrize("raw", [[_bad_suite()], "suite", None])
def test_a_suite_that_is_not_an_object_is_refused_by_its_type(hr_bundle, raw):
    with pytest.raises(ConfigError) as caught:
        suite_from_dict(raw, hr_bundle)
    assert str(caught.value) == f"suite must be an object, not {type(raw).__name__}"


def test_a_suite_may_hold_no_scenarios(hr_bundle):
    assert suite_from_dict({"suite_name": "empty", "domain": "hr", "scenarios": []}, hr_bundle) == []


def test_injection_refuses_an_unknown_strategy(hr_bundle, hr_suite):
    with pytest.raises(GenerationFault, match="^unknown strategy 'shuffle'$"):
        inject_illegal(hr_suite[0], hr_bundle, strategy="shuffle")


def test_track_keys_load_as_their_integers(hr_bundle):
    messages = [{"turn_index": 0, "text": "help", "expected_legal": True},
                {"turn_index": 1, "text": "help", "expected_legal": True, "track": 10}]
    scenario = {"scenario_id": "two", "type": "concurrent",
                "expected_final_stage": {"0": "init", "10": "init"}, "messages": messages}
    (loaded,) = suite_from_dict({"domain": "hr", "scenarios": [scenario]}, hr_bundle)
    assert loaded.expected_final_stage == {0: "init", 10: "init"}


@pytest.mark.parametrize("final", [{"0": "init", "7": "close"}, {"7": "close"}])
def test_expected_final_stage_names_exactly_the_tracks_its_messages_use(hr_bundle, final):
    """A stage for a track no message uses would be a goal that never exists."""
    scenario = {"scenario_id": "bad", "type": "normal", "expected_final_stage": final,
                "messages": [{"turn_index": 0, "text": "help", "expected_legal": True}]}
    with pytest.raises(ConfigError, match=r"^scenario 'bad': expected_final_stage must name tracks \["):
        suite_from_dict({"domain": "hr", "scenarios": [scenario]}, hr_bundle)


def test_illegal_type_requires_a_false_label(hr_bundle):
    raw = {
        "domain": "hr",
        "scenarios": [
            {
                "scenario_id": "bad",
                "type": "illegal",
                "expected_final_stage": "init",
                "messages": [{"turn_index": 0, "text": "help", "expected_legal": True}],
            }
        ],
    }
    with pytest.raises(ConfigError, match="illegal"):
        suite_from_dict(raw, hr_bundle)


def test_missing_expected_final_stage_is_fault(hr_bundle):
    raw = {
        "domain": "hr",
        "scenarios": [
            {
                "scenario_id": "bad",
                "type": "normal",
                "messages": [{"turn_index": 0, "text": "help", "expected_legal": True}],
            }
        ],
    }
    with pytest.raises(ConfigError, match="expected_final_stage"):
        suite_from_dict(raw, hr_bundle)


def test_suite_round_trip_is_semantically_identical(hr_bundle, hr_suite):
    as_dict = suite_to_dict("hr-governance-suite", "hr", hr_suite)
    again = suite_from_dict(as_dict, hr_bundle)
    assert again == hr_suite


def test_suite_builders_are_deterministic(hr_bundle, build_data):
    first = build_data.build_hr_suite(hr_bundle, seed=1207)
    second = build_data.build_hr_suite(hr_bundle, seed=1207)
    assert first == second
    shipped = load_suite(hr_suite_path(), hr_bundle)
    assert shipped == first


def test_sgd_builders_are_deterministic(build_data):
    bundle = load_domain(sgd_domain_dir("Hotels_1"))
    build = build_data.build_sgd_suite
    assert build("Hotels_1", bundle) == build("Hotels_1", bundle)


def test_shipped_sgd_suites_match_builders(build_data):
    for domain in SGD_DOMAINS:
        bundle = load_domain(sgd_domain_dir(domain))
        shipped = load_suite(sgd_suite_path(domain), bundle)
        assert shipped == build_data.build_sgd_suite(domain, bundle), domain


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_builder_reproduces_the_shipped_data(tmp_path, monkeypatch, build_data):
    """Every bundle is hand-written JSON; every suite rebuilds from them byte for byte."""
    copy = tmp_path / "data"
    shutil.copytree(suites.DATA_DIR, copy)
    (copy / "hr_suite.json").unlink()
    for suite in copy.glob("sgd/*/suite.json"):
        suite.unlink()
    monkeypatch.setattr(suites, "DATA_DIR", copy)
    assert build_data.main() == 0
    assert _tree(copy) == _tree(Path(suites.__file__).parent / "data")


# -- forward simulation / labeling ------------------------------------------------


def test_labels_match_simulation_legality(hr_bundle, hr_suite):
    for scenario in hr_suite:
        decisions = simulate_scenario(hr_bundle, scenario)
        assert len(decisions) == len(scenario.messages)
        for message, decision in zip(scenario.messages, decisions):
            assert message.expected_legal == (decision.outcome not in BLOCK_OUTCOMES)


def test_simulation_applies_effects_to_its_own_contexts_in_place(hr_bundle, hr_suite, monkeypatch):
    """Each track's state dict is the simulation's own, so nothing is copied: a scenario's effects
    write at most one dict per track."""
    clones, folded = [], []
    clone, apply = DispatchContext.clone, scenarios.apply_postconditions
    monkeypatch.setattr(DispatchContext, "clone", lambda ctx: clones.append(ctx) or clone(ctx))
    monkeypatch.setattr(scenarios, "apply_postconditions",
                        lambda skill, state, digest: folded.append(state) or apply(skill, state, digest))
    decisions = []
    for scenario in hr_suite:
        folded.clear()  # the dicts stay referenced until here, so no two share an id
        decisions += simulate_scenario(hr_bundle, scenario)
        assert len({id(state) for state in folded}) <= len(scenario.tracks())
    assert any(d.outcome == "SUCCESS" and d.skill.postconditions for d in decisions)
    assert clones == []


def test_simulation_tracks_are_independent(hr_bundle, hr_suite):
    concurrent = next(s for s in hr_suite if s.type == "concurrent")
    decisions = simulate_scenario(hr_bundle, concurrent)
    final = {}
    stage = {}  # each track's decision is asked at that track's own stage
    for message, decision in zip(concurrent.messages, decisions):
        assert decision.stage_before == stage.get(message.track, hr_bundle.automaton.initial)
        final[message.track] = stage[message.track] = decision.stage_after
    assert final == dict(concurrent.expected_final_stage)


# -- injection ---------------------------------------------------------------------


def test_injection_is_deterministic_and_labeled_illegal(build_data):
    bundle = load_domain(sgd_domain_dir("Banks_1"))
    suite = build_data.build_sgd_suite("Banks_1", bundle)
    normal = next(s for s in suite if s.type == "normal")
    a = inject_illegal(normal, bundle, "stage_skip", seed=5)
    b = inject_illegal(normal, bundle, "stage_skip", seed=5)
    assert a == b
    assert a.type == "illegal"
    assert len(a.messages) == len(normal.messages) + 1
    assert sum(1 for m in a.messages if not m.expected_legal) >= 1
    assert [m.turn_index for m in a.messages] == list(range(len(a.messages)))


def test_premature_terminal_opens_with_the_blocked_action(build_data):
    bundle = load_domain(sgd_domain_dir("Banks_1"))
    suite = build_data.build_sgd_suite("Banks_1", bundle)
    normal = next(s for s in suite if s.type == "normal")
    variant = inject_illegal(normal, bundle, "premature_terminal", seed=9)
    first = variant.messages[0]
    assert not first.expected_legal
    steps = simulate_scenario(bundle, variant)
    assert steps[0].outcome == "ILLEGAL_TRANSITION"


def test_injected_messages_are_blocked_when_run(build_data):
    bundle = load_domain(sgd_domain_dir("Events_1"))
    suite = build_data.build_sgd_suite("Events_1", bundle)
    normals = [s for s in suite if s.type == "normal"][:10]
    variants = [inject_illegal(s, bundle, "stage_skip", seed=i) for i, s in enumerate(normals)]
    run = run_suite(bundle, variants)
    blocked_turns = {
        (s.scenario.scenario_id, s.message.turn_index)
        for s in run.steps if s.outcome == "ILLEGAL_TRANSITION"
    }
    for variant in variants:
        injected = [m for m in variant.messages if not m.expected_legal]
        for message in injected:
            assert (variant.scenario_id, message.turn_index) in blocked_turns


def test_generated_injections_blocked_on_all_domains(build_data):
    """20 generated variants per domain, every injected turn blocked: 160/160."""
    injected_total = injected_blocked = 0
    for domain in SGD_DOMAINS:
        bundle = load_domain(sgd_domain_dir(domain))
        normals = [
            s for s in build_data.build_sgd_suite(domain, bundle)
            if s.type == "normal" and all(m.expected_legal for m in s.messages)
        ]
        variants = [
            inject_illegal(s, bundle, "stage_skip", seed=i) for i, s in enumerate(normals[:20])
        ]
        run = run_suite(bundle, variants)
        outcomes = {(s.scenario.scenario_id, s.message.turn_index): s.outcome for s in run.steps}
        for variant in variants:
            for message in variant.messages:
                if not message.expected_legal:
                    injected_total += 1
                    if outcomes[(variant.scenario_id, message.turn_index)] in (
                        "ILLEGAL_TRANSITION", "PRECONDITION_FAIL",
                    ):
                        injected_blocked += 1
    assert injected_total == 160
    assert injected_blocked == 160


def test_injection_requires_normal_scenario(hr_bundle, hr_suite):
    illegal = next(s for s in hr_suite if s.type == "illegal")
    with pytest.raises(GenerationFault):
        inject_illegal(illegal, hr_bundle, "stage_skip", seed=0)


def test_injection_fails_on_single_stage_domain():
    from stagegate.scenarios import bundle_from_dicts

    bundle = bundle_from_dicts(
        "flat",
        {
            "automaton": {
                "stages": ["only"],
                "initial": "only",
                "transitions": [],
                "intents": ["ping"],
                "binding": {"ping": ["only"]},
                "stage_map": {"ping": None},
            },
            "skills": [{"id": "ping", "intent": "ping", "level": "L0", "stages": "*",
                        "pre": [], "post": []}],
            "patterns": [{"intent": "ping", "patterns": ["ping"], "priority": 0}],
            "fixtures": {"ping": {"ok": True}},
        },
    )
    scenario = Scenario(
        scenario_id="s",
        type="normal",
        messages=(LabeledMessage("ping", True, 0),),
        expected_final_stage={0: "only"},
    )
    with pytest.raises(GenerationFault):
        inject_illegal(scenario, bundle, "stage_skip", seed=0)


def test_dispatch_and_simulation_agree_without_label_intent(hr_bundle, hr_suite):
    """run_suite and simulate_scenario fold the same gate kernel.

    Where a message carries no label_intent both route the text the same
    way, so each step must give the same (outcome, stage_after).
    """
    suites = [(hr_bundle, hr_suite)]
    for domain in SGD_DOMAINS:
        bundle = load_domain(sgd_domain_dir(domain))
        suites.append((bundle, load_suite(sgd_suite_path(domain), bundle)))
    compared = 0
    for bundle, suite in suites:
        run = run_suite(bundle, suite)
        simulated = {
            (scenario.scenario_id, message.turn_index): (decision.outcome, decision.stage_after)
            for scenario in suite
            for message, decision in zip(scenario.messages, simulate_scenario(bundle, scenario))
        }
        for step in run.steps:
            if step.message.label_intent is not None:
                continue
            live = (step.outcome, step.result.stage_after)
            assert live == simulated[(step.scenario.scenario_id, step.message.turn_index)], step
            compared += 1
    assert compared == 2613


SIMULATED_SUITES = ("hr", *SGD_DOMAINS, "hr-paraphrased-1", "hr-paraphrased-2", "hr-paraphrased-3")


def _simulated_suite(name, hr_bundle, hr_suite):
    """The bundle and scenarios of one entry of SIMULATED_SUITES."""
    if name == "hr":
        return hr_bundle, hr_suite
    if name.startswith("hr-paraphrased-"):
        texts = iter(paraphrased([m.text for s in hr_suite for m in s.messages], (int(name[-1]),)))
        return hr_bundle, [
            replace(s, messages=tuple(replace(m, text=next(texts)) for m in s.messages))
            for s in hr_suite
        ]
    bundle = load_domain(sgd_domain_dir(name))
    return bundle, load_suite(sgd_suite_path(name), bundle)


@pytest.mark.parametrize("name", SIMULATED_SUITES)
def test_shared_routing_dict_leaves_simulation_unchanged(name, hr_bundle, hr_suite):
    """One ``routed`` dict across a suite's scenarios gives each the steps it gets alone."""
    bundle, suite = _simulated_suite(name, hr_bundle, hr_suite)
    routed: dict[str, str] = {}
    for scenario in suite:
        assert simulate_scenario(bundle, scenario, routed) == simulate_scenario(bundle, scenario), (
            scenario.scenario_id
        )
    unlabeled = {m.text for s in suite for m in s.messages if not m.label_intent}
    assert set(routed) == unlabeled


# -- latent detection -----------------------------------------------------------------


def test_convert_dialogues_from_schema_guided_form(build_data):
    bundle = load_domain(sgd_domain_dir("Hotels_1"))
    dialogues = [
        {
            "dialogue_id": "conv-001",
            "turns": [
                {"speaker": "USER", "utterance": "search hotels",
                 "frames": [{"state": {"active_intent": "FindHotel"}}]},
                {"speaker": "SYSTEM", "utterance": "found three options", "frames": []},
                {"speaker": "USER", "utterance": "reserve the hotel",
                 "frames": [{"state": {"active_intent": "ReserveHotel"}}]},
            ],
        },
        {
            "dialogue_id": "conv-002",
            "turns": [
                {"speaker": "USER", "utterance": "book the hotel room",
                 "frames": [{"state": {"active_intent": "ReserveHotel"}}]},
            ],
        },
    ]
    intent_map = {"FindHotel": "search_hotel", "ReserveHotel": "reserve_hotel"}
    scenarios = build_data.convert_dialogues(dialogues, bundle, intent_map)
    assert [s.scenario_id for s in scenarios] == ["conv-001", "conv-002"]
    first, second = scenarios
    assert len(first.messages) == 2  # SYSTEM turn dropped
    assert all(m.expected_legal for m in first.messages)
    assert first.expected_final_stage == {0: "ReserveHotel"}
    # the second dialogue reserves without searching: a latent stage-skip
    assert not second.messages[0].expected_legal
    assert second.expected_final_stage == {0: "SearchHotel"}
    run = run_suite(bundle, scenarios)
    assert detect_latent(run.steps)[0].scenario.scenario_id == "conv-002"


def test_convert_dialogues_rejects_empty_user_turns(build_data):
    bundle = load_domain(sgd_domain_dir("Hotels_1"))
    with pytest.raises(ConfigError, match="no USER turns"):
        build_data.convert_dialogues(
            [{"dialogue_id": "x", "turns": [{"speaker": "SYSTEM", "utterance": "hi"}]}],
            bundle,
        )


def _user_turn(utterance, active_intent=None):
    turn = {"speaker": "USER", "utterance": utterance}
    if active_intent is not None:
        turn["frames"] = [{"state": {"active_intent": active_intent}}]
    return turn


BANKS_MAP = {"CheckBalance": "check_balance"}
BALANCE = {"dialogue_id": "d", "turns": [_user_turn("check my balance", "CheckBalance")]}


@pytest.mark.parametrize(
    ("dialogue", "intent_map", "reported"),
    [
        ({"dialogue_id": 7, "turns": [{"speaker": "USER", "utterance": 5}]}, BANKS_MAP,
         r"^dialogue 7: dialogue_id must be a string$"),
        ({"dialogue_id": "", "turns": [_user_turn("check my balance")]}, BANKS_MAP,
         r"^dialogue missing dialogue_id$"),
        ({"dialogue_id": "d", "turns": [{"speaker": "SYSTEM", "utterance": "hi"}, _user_turn(5)]},
         BANKS_MAP, r"^dialogue 'd': turn 1: utterance must be a string$"),
        ({"dialogue_id": "d", "turns": [_user_turn("check my balance", ["CheckBalance"])]}, BANKS_MAP,
         r"^dialogue 'd': turn 0: active_intent must be a string$"),
        ({"dialogue_id": "d", "turns": [{"speaker": "USER", "utterance": "check my balance",
                                         "frames": [{"state": {"active_intent": None}}]}]},
         BANKS_MAP, r"^dialogue 'd': turn 0: active_intent must be a string$"),
        ({"dialogue_id": "d", "turns": ["check my balance"]}, BANKS_MAP,
         r"^dialogue 'd': turn 0 must be an object, not str$"),
        ({"dialogue_id": "d", "turns": [{"speaker": "USER", "utterance": "check my balance",
                                         "frames": [{"state": "CheckBalance"}]}]},
         BANKS_MAP, r"^dialogue 'd': turn 0: state must be an object, not str$"),
        ({"dialogue_id": "d", "turns": [_user_turn("check my balance") | {"frames": ["CheckBalance"]}]},
         BANKS_MAP, r"^dialogue 'd': turn 0: a frame must be an object, not str$"),
        ({"dialogue_id": "x", "turns": "ab"}, BANKS_MAP, r"^dialogue 'x': turns must be a list, not str$"),
        ({"dialogue_id": "x", "turns": {"0": _user_turn("check my balance")}}, BANKS_MAP,
         r"^dialogue 'x': turns must be a list, not dict$"),
        ({"dialogue_id": "x", "turns": [_user_turn("hi"), _user_turn("check my balance") | {"frames": "ab"}]},
         BANKS_MAP, r"^dialogue 'x': turn 1: frames must be a list, not str$"),
        (["d", []], BANKS_MAP, r"^dialogue at position 0 must be an object, not list$"),
        ("d", BANKS_MAP, r"^dialogue at position 0 must be an object, not str$"),
        (7, BANKS_MAP, r"^dialogue at position 0 must be an object, not int$"),
        (BALANCE, {"CheckBalance": 5}, r"^intent_map 'CheckBalance': 5 is not an intent of the domain$"),
        (BALANCE, {"CheckBalance": "nope"},
         r"^intent_map 'CheckBalance': 'nope' is not an intent of the domain$"),
        (BALANCE, {"CheckBalance": None},
         r"^intent_map 'CheckBalance': None is not an intent of the domain$"),
        (BALANCE, BANKS_MAP | {"Unused": ["transfer_money"]},
         r"^intent_map 'Unused': \['transfer_money'\] is not an intent of the domain$"),
    ],
    ids=["integer-id", "empty-id", "integer-utterance", "list-active-intent", "null-active-intent",
         "string-turn", "string-state", "string-frame", "string-turns", "object-turns", "string-frames",
         "list-dialogue", "string-dialogue", "integer-dialogue", "integer-intent", "unknown-intent",
         "null-intent", "unused-list-intent"],
)
def test_convert_dialogues_reads_exact_types(build_data, dialogue, intent_map, reported):
    """Nothing is coerced: a field of the wrong type names its dialogue and turn, an intent_map
    value that is no intent of the domain its key."""
    bundle = load_domain(sgd_domain_dir("Banks_1"))
    with pytest.raises(ConfigError, match=reported):
        build_data.convert_dialogues([dialogue], bundle, intent_map)


@pytest.mark.parametrize("dialogues", [{"x": {"dialogue_id": "x", "turns": []}}, "ab", ({"dialogue_id": "x"},)],
                         ids=["object", "string", "tuple"])
def test_convert_dialogues_takes_a_list(build_data, dialogues):
    bundle = load_domain(sgd_domain_dir("Banks_1"))
    with pytest.raises(ConfigError, match=rf"^dialogues must be a list, not {type(dialogues).__name__}$"):
        build_data.convert_dialogues(dialogues, bundle)


def test_convert_dialogues_refuses_a_repeated_dialogue_id(build_data):
    """The dialogue id becomes the scenario id, which a suite and a run both need unique."""
    bundle = load_domain(sgd_domain_dir("Banks_1"))
    other = BALANCE | {"dialogue_id": "e"}
    with pytest.raises(ConfigError, match=r"^duplicate dialogue_id 'd'$"):
        build_data.convert_dialogues([BALANCE, other, BALANCE], bundle, BANKS_MAP)


def test_latent_detection_counts_equal_blocked_normal_events():
    bundle = load_domain(sgd_domain_dir("Hotels_1"))
    suite = load_suite(sgd_suite_path("Hotels_1"), bundle)
    run = run_suite(bundle, suite)
    latent = detect_latent(run.steps)
    by_id = {s.scenario_id: s for s in suite}
    expected = [
        s for s in run.steps
        if by_id[s.scenario.scenario_id].type == "normal"
        and s.outcome in ("ILLEGAL_TRANSITION", "PRECONDITION_FAIL")
    ]
    assert latent == expected
    assert len(latent) == 38


def test_latent_detection_reads_unlogged_events():
    """With audit off nothing is logged, yet every step's event still names its conflict."""
    bundle = load_domain(sgd_domain_dir("Hotels_1"))
    suite = load_suite(sgd_suite_path("Hotels_1"), bundle)
    full = _latent_keys(detect_latent(run_suite(bundle, suite).steps))
    unaudited = run_suite(bundle, suite, toggles=DispatchToggles(audit=False))
    assert unaudited.events() == []
    assert _latent_keys(detect_latent(unaudited.steps)) == full
    assert len(full) == 38


def _latent_keys(steps):
    """What names a conflict; the steps themselves differ by timestamp and timing."""
    return [
        (s.scenario.scenario_id, s.message.turn_index, s.event.intent, s.event.stage_before,
         s.event.outcome)
        for s in steps
    ]


def test_latent_detection_does_not_depend_on_the_suite_naming_its_domain():
    """A suite file without a top-level domain loads the same scenarios and conflicts."""
    bundle = load_domain(sgd_domain_dir("Hotels_1"))
    raw = json.loads(sgd_suite_path("Hotels_1").read_text())
    named = suite_from_dict(raw, bundle)
    unnamed = suite_from_dict({k: v for k, v in raw.items() if k != "domain"}, bundle)
    assert unnamed == named
    assert _latent_keys(detect_latent(run_suite(bundle, unnamed).steps)) == _latent_keys(
        detect_latent(run_suite(bundle, named).steps)
    )


def test_latent_detection_empty_when_no_stage_skips():
    bundle = load_domain(sgd_domain_dir("Homes_1"))
    suite = load_suite(sgd_suite_path("Homes_1"), bundle)
    run = run_suite(bundle, suite)
    assert detect_latent(run.steps) == []
