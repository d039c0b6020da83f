from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagegate.automaton import automaton_from_dict
from stagegate.context import canonical, payload_digest
from stagegate.errors import ConfigError, ConflictFault
from stagegate.registry import (
    Effect,
    RiskLevel,
    SkillRegistry,
    SkillSpec,
    apply_postconditions,
    build_registry,
    skill_from_dict,
)

from reference import random_domain


@pytest.fixture
def tiny_automaton():
    return automaton_from_dict(
        {
            "stages": ["init", "src", "close"],
            "initial": "init",
            "transitions": [["init", "src"], ["src", "close"]],
            "intents": ["q", "pull", "screen"],
            "binding": {"q": ["init", "src", "close"], "pull": ["init", "src"], "screen": ["src"]},
            "stage_map": {"q": None, "pull": "src", "screen": "src"},
        },
    )


def _spec(skill_id, intent, level, stages, pre=(), post=()):
    return SkillSpec(
        id=skill_id,
        intent=intent,
        level=level,
        applicable_stages=frozenset(stages),
        preconditions=tuple(pre),
        postconditions=tuple(post),
    )


# -- registration ------------------------------------------------------------


def test_registering_four_then_six_more_yields_ten(tiny_automaton):
    """The production-style composition: 4 atomic + 4 composite + 2 policy."""
    registry = SkillRegistry()
    table2 = [
        _spec("get_job_list", "q", RiskLevel.L0, ()),
        _spec("pull_parse", "pull", RiskLevel.L1, ("src",), pre=("position_exists",)),
        _spec("screen", "screen", RiskLevel.L1, ("src",),
              pre=("position_exists", "candidates_pulled")),
        _spec("ask_missing", "q", RiskLevel.L2, ()),
    ]
    six_more = [
        _spec("q2", "q", RiskLevel.L0, ()),
        _spec("q3", "q", RiskLevel.L0, ()),
        _spec("q4", "q", RiskLevel.L0, ()),
        _spec("c2", "pull", RiskLevel.L1, ("init",)),
        _spec("c3", "screen", RiskLevel.L1, ("src",)),
        _spec("p2", "q", RiskLevel.L2, ()),
    ]
    for spec in table2 + six_more:
        registry.register(spec, tiny_automaton)
    assert len(registry) == 10
    by_level = {level: sum(1 for s in registry if s.level == level) for level in RiskLevel}
    assert by_level == {RiskLevel.L0: 4, RiskLevel.L1: 4, RiskLevel.L2: 2}


def test_duplicate_id_is_conflict(tiny_automaton):
    registry = SkillRegistry()
    registry.register(_spec("x", "q", RiskLevel.L0, ()), tiny_automaton)
    with pytest.raises(ConflictFault):
        registry.register(_spec("x", "q", RiskLevel.L0, ()), tiny_automaton)


def test_foreign_stage_is_config_fault(tiny_automaton):
    registry = SkillRegistry()
    with pytest.raises(ConfigError, match="interview_typo"):
        registry.register(_spec("s", "screen", RiskLevel.L1, ("interview_typo",)), tiny_automaton)


# -- selection ----------------------------------------------------------------


def test_selection_matches_table_rows(hr_bundle):
    registry = hr_bundle.registry
    chosen = registry.select_skill("screen_resume", "src")
    assert chosen is not None and chosen.id == "screen"
    assert chosen.level == RiskLevel.L1
    assert chosen.applicable_stages == frozenset({"src"})
    assert registry.select_skill("screen_resume", "off") is None


def test_selection_matches_linear_scan_oracle():
    rng = random.Random(11)
    level_order = {"L0": 0, "L1": 1, "L2": 2}
    for _ in range(30):
        domain = random_domain(rng)
        automaton = automaton_from_dict(domain["automaton"])
        registry = build_registry(domain["skills"], automaton)
        for intent in automaton.intents:
            for stage in automaton.stages:
                best = None
                best_key = None
                for index, raw in enumerate(domain["skills"]):
                    if raw["intent"] != intent:
                        continue
                    if raw["stages"] != "*" and stage not in raw["stages"]:
                        continue
                    key = (level_order[raw["level"]], index)
                    if best_key is None or key < best_key:
                        best, best_key = raw, key
                chosen = registry.select_skill(intent, stage)
                assert (chosen.id if chosen else None) == (best["id"] if best else None)


def test_selection_only_returns_applicable_skills(hr_bundle):
    registry = hr_bundle.registry
    automaton = hr_bundle.automaton
    for intent in automaton.intents:
        for stage in automaton.stages:
            chosen = registry.select_skill(intent, stage)
            if chosen is not None:
                assert chosen.intent == intent
                assert chosen.applies_at(stage)


# -- preconditions ----------------------------------------------------------------


def test_precondition_first_failure_points_at_missing_data(hr_bundle):
    registry = hr_bundle.registry
    screen = registry.get("screen")
    pairs = registry.check_preconditions(screen, {"position_exists": True})
    assert not all(held for _, held in pairs)
    assert pairs == (("position_exists", True), ("candidates_pulled", False))


def test_empty_preconditions_vacuously_satisfied(hr_bundle):
    skill = hr_bundle.registry.get("get_job_list")
    assert hr_bundle.registry.check_preconditions(skill, {}) == ()


def test_every_unguarded_skill_is_satisfied_with_no_results_whatever_the_state(hr_bundle):
    unguarded = [skill for skill in hr_bundle.registry if not skill.preconditions]
    assert unguarded
    state = {"position_exists": False, "candidates_pulled": True}
    for skill in unguarded:
        for flags in ({}, state):
            assert hr_bundle.registry.check_preconditions(skill, flags) == ()


def test_precondition_check_is_pure(hr_bundle):
    registry = hr_bundle.registry
    screen = registry.get("screen")
    state = {"position_exists": True}
    before = dict(state)
    first = registry.check_preconditions(screen, state)
    second = registry.check_preconditions(screen, state)
    assert first == second
    assert state == before


@settings(max_examples=120, deadline=None)
@given(st.dictionaries(st.sampled_from(("f0", "f1", "f2", "f3")), st.booleans(), max_size=4),
       st.lists(st.sampled_from(("f0", "f1", "f2", "f3")), max_size=4, unique=True))
def test_report_satisfied_equals_fold_and(state, pre_names):
    registry = SkillRegistry()
    spec = _spec("s", "q", RiskLevel.L1, (), pre=tuple(pre_names))
    pairs = registry.check_preconditions(spec, dict(state))
    assert pairs == tuple((n, bool(state.get(n, False))) for n in pre_names)
    assert all(held for _, held in pairs) == all(state.get(n, False) for n in pre_names)


# -- postconditions ---------------------------------------------------------------


def test_postconditions_apply_in_order_in_place():
    spec = _spec(
        "s", "q", RiskLevel.L1, (),
        post=(Effect("set", "a", 1), Effect("set", "a", 2), Effect("set", "b", True)),
    )
    state = {}
    apply_postconditions(spec, state, payload_digest(canonical({})))
    assert state == {"a": 2, "b": True}


def test_empty_postconditions_leave_context_structurally_equal():
    spec = _spec("s", "q", RiskLevel.L1, ())
    state = {"x": [1, 2]}
    apply_postconditions(spec, state, payload_digest(canonical(None)))
    assert state == {"x": [1, 2]}


def test_flag_set_effects_are_idempotent():
    spec = _spec("s", "q", RiskLevel.L1, (), post=(Effect("set", "flag", True),))
    state = {}
    apply_postconditions(spec, state, payload_digest(canonical(None)))
    once = dict(state)
    apply_postconditions(spec, state, payload_digest(canonical(None)))
    assert state == once


def test_set_from_result_stores_payload_digest():
    spec = _spec("s", "q", RiskLevel.L1, (), post=(Effect("set_from_result", "ref"),))
    a, b, c = {}, {}, {}
    apply_postconditions(spec, a, payload_digest(canonical({"x": 1})))
    apply_postconditions(spec, b, payload_digest(canonical({"x": 1})))
    apply_postconditions(spec, c, payload_digest(canonical({"x": 2})))
    assert a["ref"] == b["ref"]
    assert a["ref"] != c["ref"]


# -- config parsing / cross validation --------------------------------------------------


def test_skill_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="surprise"):
        skill_from_dict({"id": "a", "intent": "b", "level": "L0", "surprise": 1})


_BASE_SKILL = {"id": "a", "intent": "b", "level": "L0"}


@pytest.mark.parametrize("edit, reported", [
    ({"level": "L9"}, "unknown risk level: 'L9'"),
    ({"post": [{"op": "append", "field": "f", "value": 1}]}, "unknown postcondition op: 'append'"),
    ({"post": [{"op": ["set"], "field": "f", "value": 1}]}, "skill 'a': effect 0: 'op' must be a string, not ['set']"),
    ({"post": [{"op": "set", "field": "f", "valeu": True}]}, "skill 'a': effect 0: unknown keys: valeu"),
    ({"post": [{"op": "set", "field": "f"}]},
     "skill 'a': a 'set' effect holds exactly field, op, value, not field, op"),
    ({"post": [{"op": "set_from_result", "field": "f", "value": "x"}]},
     "skill 'a': a 'set_from_result' effect holds exactly field, op, not field, op, value"),
    ({"post": [{"op": "set", "value": 1}]}, "skill 'a': effect 0: missing key 'field'"),
])
def test_skill_from_dict_refusals(edit, reported):
    with pytest.raises(ConfigError) as caught:
        skill_from_dict(_BASE_SKILL | edit)
    assert str(caught.value) == reported


@pytest.mark.parametrize("key, reported", [
    ("id", "skill config: missing key 'id'"),
    ("intent", "skill 'a': missing key 'intent'"),
    ("level", "skill 'a': missing key 'level'"),
])
def test_skill_from_dict_names_a_missing_key(key, reported):
    raw = {k: v for k, v in _BASE_SKILL.items() if k != key}
    with pytest.raises(ConfigError) as caught:
        skill_from_dict(raw)
    assert str(caught.value) == reported


def _three_skills():
    return [
        {"id": "a", "intent": "q", "level": "L1", "post": [{"op": "set", "field": "f", "value": 1}]},
        {"id": "b", "intent": "q", "level": "L1"},
        {"id": "c", "intent": "pull", "level": "L1", "stages": ["init"],
         "post": [{"op": "set_from_result", "field": "g"}, {"op": "set", "field": "h", "value": "x"}]},
    ]


def test_a_skills_file_s_effects_stay_with_their_skills(tiny_automaton):
    registry = build_registry(_three_skills(), tiny_automaton)
    assert [spec.postconditions for spec in registry] == [
        (Effect("set", "f", 1),), (), (Effect("set_from_result", "g"), Effect("set", "h", "x"))]


@pytest.mark.parametrize("skill, effect, reported", [
    (0, 0, "skill 'a': effect 0: 'field' must be a string, not 3"),
    (2, 0, "skill 'c': effect 0: 'field' must be a string, not 3"),
    (2, 1, "skill 'c': effect 1: 'field' must be a string, not 3"),
])
def test_an_effect_fault_names_its_skill_and_its_place_there(tiny_automaton, skill, effect, reported):
    skills = _three_skills()
    skills[skill]["post"][effect]["field"] = 3
    with pytest.raises(ConfigError) as caught:
        build_registry(skills, tiny_automaton)
    assert str(caught.value) == reported


def test_effects_load_with_exactly_their_keys():
    post = [{"op": "set", "field": "f", "value": None}, {"op": "set_from_result", "field": "g"}]
    spec = skill_from_dict(_BASE_SKILL | {"post": post})
    assert spec.postconditions == (Effect("set", "f", None), Effect("set_from_result", "g"))


def test_only_a_set_effect_holds_a_value():
    with pytest.raises(ConfigError, match="^postcondition 'f': a 'set_from_result' effect holds no value$"):
        Effect("set_from_result", "f", 1)
    assert Effect("set_from_result", "f").value is None
    assert Effect("set", "f", 1).value == 1


@pytest.mark.parametrize("field, value, reported", [
    (3, 1, "postcondition field must be a string, not 3"),
    ("f", [1], "postcondition 'f' sets a non-scalar value: [1]"),
    ("f", {"a": 1}, "postcondition 'f' sets a non-scalar value: {'a': 1}"),
    ("f", RiskLevel.L1, "postcondition 'f' sets a non-scalar value: <RiskLevel.L1: 1>"),  # JSON types, exactly
])
def test_an_effect_built_in_code_holds_the_types_the_loader_reads(field, value, reported):
    with pytest.raises(ConfigError) as caught:
        Effect("set", field, value)
    assert str(caught.value) == reported


def test_skill_from_dict_star_means_all_stages():
    spec = skill_from_dict({"id": "a", "intent": "b", "level": "L0", "stages": "*"})
    assert spec.applicable_stages == frozenset()
    assert spec.applies_at("anything")


def test_skill_from_dict_rejects_empty_stages():
    """An empty list names no stage; it must not be read as "*"."""
    with pytest.raises(ConfigError, match=r"^skill 'a': 'stages' must name a stage"):
        skill_from_dict({"id": "a", "intent": "b", "level": "L1", "stages": []})


def test_hr_registry_stays_inside_binding(hr_bundle):
    assert hr_bundle.registry.validate_against(hr_bundle.automaton) == []


def test_skill_outside_binding_is_flagged(tiny_automaton):
    registry = build_registry(
        [{"id": "s", "intent": "screen", "level": "L1", "stages": ["init"], "pre": [], "post": []}],
        tiny_automaton,
    )
    errors = registry.validate_against(tiny_automaton)
    assert any(line.startswith("skill_stage_outside_binding: ") for line in errors)


def test_universal_l0_skill_must_be_unguarded(tiny_automaton):
    registry = build_registry(
        [{"id": "s", "intent": "q", "level": "L0", "stages": "*", "pre": ["f0"], "post": []}],
        tiny_automaton,
    )
    errors = registry.validate_against(tiny_automaton)
    assert any(line.startswith("guarded_universal_query: ") for line in errors)
