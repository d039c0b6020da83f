from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagegate.automaton import (
    WorkflowAutomaton,
    automaton_from_dict,
    validate_definition,
)
from stagegate.errors import ConfigError, LookupFault

from reference import random_domain


def _tiny_dict() -> dict:
    return {
        "stages": ["a", "b", "c"],
        "initial": "a",
        "transitions": [["a", "b"], ["b", "c"], ["b", "a"]],
        "intents": ["go", "stay", "query"],
        "binding": {"go": ["a", "b"], "stay": ["b"], "query": ["a", "b", "c"]},
        "stage_map": {"go": "b", "stay": "b", "query": None},
    }


def _tiny() -> WorkflowAutomaton:
    return automaton_from_dict(_tiny_dict())


def test_hr_definition_validates_clean(hr_bundle):
    assert validate_definition(hr_bundle.automaton) == ([], [])


def test_initial_missing_is_reported():
    auto = _tiny()
    broken = WorkflowAutomaton(
        stages=auto.stages,
        initial="zz",
        transitions=auto.transitions,
        intents=auto.intents,
        binding=auto.binding,
        stage_map=auto.stage_map,
    )
    errors, _ = validate_definition(broken)
    assert any(line.startswith("initial_not_in_stages: ") for line in errors)


def test_intent_missing_from_binding_is_reported():
    auto = _tiny()
    binding = dict(auto.binding)
    del binding["stay"]
    broken = WorkflowAutomaton(
        stages=auto.stages,
        initial=auto.initial,
        transitions=auto.transitions,
        intents=auto.intents,
        binding=binding,
        stage_map=auto.stage_map,
    )
    errors, _ = validate_definition(broken)
    assert any(line.startswith("binding_missing_intent: ") and "stay" in line for line in errors)


def _with_empty_intent(raw):
    raw["intents"].append("")
    raw["binding"][""] = ["a"]
    raw["stage_map"][""] = None


@pytest.mark.parametrize("edit, reported", [
    (lambda raw: raw["stages"].append("a"), "duplicate_stage: stages contains duplicates"),
    (lambda raw: raw["stages"].append(""), "empty_stage: stage identifiers must be non-empty"),
    (lambda raw: raw["intents"].append("go"), "duplicate_intent: intents contains duplicates"),
    (_with_empty_intent, "empty_intent: intent identifiers must be non-empty"),
    (lambda raw: raw["transitions"].append(["zz", "a"]),
     "transition_unknown_stage: transition source 'zz' not in stages"),
    (lambda raw: raw["transitions"].append(["a", "zz"]),
     "transition_unknown_stage: transition target 'zz' not in stages"),
    (lambda raw: raw["binding"].update(ghost=["a"]),
     "binding_unknown_intent: binding key 'ghost' not in intents"),
    (lambda raw: raw["binding"]["go"].append("zz"),
     "binding_unknown_stage: binding for 'go' names unknown stage 'zz'"),
    (lambda raw: raw["stage_map"].pop("stay"),
     "stage_map_missing_intent: intent 'stay' missing from stage_map"),
    (lambda raw: raw["stage_map"].update(ghost=None),
     "stage_map_unknown_intent: stage_map key 'ghost' not in intents"),
    (lambda raw: raw["stage_map"].update(go="zz"),
     "stage_map_unknown_stage: stage_map for 'go' names unknown stage 'zz'"),
])
def test_each_structural_fault_is_reported_by_its_code(edit, reported):
    raw = _tiny_dict()
    edit(raw)
    assert validate_definition(automaton_from_dict(raw)) == ([reported], [])


def test_empty_binding_is_warning_not_error():
    auto = _tiny()
    binding = dict(auto.binding)
    binding["stay"] = frozenset()
    errors, warnings = validate_definition(
        WorkflowAutomaton(
            stages=auto.stages,
            initial=auto.initial,
            transitions=auto.transitions,
            intents=auto.intents,
            binding=binding,
            stage_map=auto.stage_map,
        )
    )
    assert errors == []
    assert any(line.startswith("binding_empty: ") for line in warnings)


def test_stage_legality_matches_binding():
    auto = _tiny()
    assert auto.is_stage_legal("go", "a")
    assert not auto.is_stage_legal("stay", "a")
    assert auto.is_stage_legal("query", "c")


def test_unknown_lookups_raise():
    auto = _tiny()
    with pytest.raises(LookupFault):
        auto.is_stage_legal("nope", "a")
    with pytest.raises(LookupFault):
        auto.is_stage_legal("go", "zz")
    with pytest.raises(LookupFault):
        auto.target_stage("nope")


@pytest.mark.parametrize(
    ("call", "kind", "value"),
    [
        (lambda auto: auto.is_stage_legal("nope", "a"), "intent", "nope"),
        (lambda auto: auto.is_stage_legal("nope", "zz"), "intent", "nope"),  # intent first
        (lambda auto: auto.is_stage_legal("go", "zz"), "stage", "zz"),
        (lambda auto: auto.can_transition("zz", "a"), "stage", "zz"),
        (lambda auto: auto.can_transition("a", "yy"), "stage", "yy"),
        (lambda auto: auto.can_transition("zz", "yy"), "stage", "zz"),  # from_stage first
        (lambda auto: auto.can_transition("zz", "zz"), "stage", "zz"),
        (lambda auto: auto.target_stage("nope"), "intent", "nope"),
    ],
)
def test_each_unknown_lookup_names_its_kind_and_value(call, kind, value):
    with pytest.raises(LookupFault) as caught:
        call(_tiny())
    assert (caught.value.kind, caught.value.value) == (kind, value)


def test_transition_reflexivity_and_membership():
    auto = _tiny()
    for stage in auto.stages:
        assert auto.can_transition(stage, stage)
    assert auto.can_transition("a", "b")
    assert auto.can_transition("b", "a")
    assert not auto.can_transition("a", "c")


def test_legality_grid_matches_bruteforce():
    """Full (intent x stage) enumeration against independent set membership."""
    rng = random.Random(7)
    for _ in range(25):
        domain = random_domain(rng)
        auto = automaton_from_dict(domain["automaton"])
        for intent in auto.intents:
            for stage in auto.stages:
                expected = stage in domain["automaton"]["binding"][intent]
                assert auto.is_stage_legal(intent, stage) == expected


def test_transition_grid_matches_bruteforce():
    rng = random.Random(8)
    for _ in range(25):
        domain = random_domain(rng)
        auto = automaton_from_dict(domain["automaton"])
        declared = {tuple(p) for p in domain["automaton"]["transitions"]}
        for a in auto.stages:
            for b in auto.stages:
                expected = a == b or (a, b) in declared
                assert auto.can_transition(a, b) == expected


def test_target_stage_lookup():
    auto = _tiny()
    assert auto.target_stage("go") == "b"
    assert auto.target_stage("query") is None


def test_hr_target_stages(hr_bundle):
    auto = hr_bundle.automaton
    assert auto.target_stage("create_demand") == "init"
    assert auto.target_stage("screen_resume") == "src"


def test_hr_universal_query_is_legal_everywhere(hr_bundle):
    auto = hr_bundle.automaton
    for stage in auto.stages:
        assert auto.is_stage_legal("get_job_list", stage)
    assert not auto.is_stage_legal("schedule_interview", "init")


def test_hr_rollback_edges_are_directional(hr_bundle):
    auto = hr_bundle.automaton
    assert auto.can_transition("int", "src")  # declared rollback
    assert auto.can_transition("off", "int")  # declared rollback
    assert not auto.can_transition("off", "src")  # no such edge
    assert not auto.can_transition("close", "init")  # terminal stays terminal


def test_config_rejects_unknown_keys():
    raw = _tiny_dict()
    raw["extra_key"] = 1
    with pytest.raises(ConfigError, match="extra_key"):
        automaton_from_dict(raw)


def test_config_rejects_missing_keys():
    raw = _tiny_dict()
    del raw["binding"]
    with pytest.raises(ConfigError, match="binding"):
        automaton_from_dict(raw)


def test_terminal_stages_have_no_outgoing_edges(hr_bundle):
    assert hr_bundle.automaton.terminal_stages() == {"close"}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_definitions_validate_clean(seed):
    domain = random_domain(random.Random(seed))
    auto = automaton_from_dict(domain["automaton"])
    assert validate_definition(auto)[0] == []
