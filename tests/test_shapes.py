"""The seven object kinds of the bundle and suite files, read through ``errors.read_rows``."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagegate import automaton, registry, router, scenarios
from stagegate.errors import REQUIRED, ConfigError, read_rows

# one value of each JSON type, as json.loads gives it
SAMPLES = {"null": None, "boolean": True, "integer": 0, "number": 0.5, "string": "s", "array": [], "object": {}}
SCALARS = {"null", "boolean", "integer", "number", "string"}
_MESSAGE = {"turn_index": 0, "text": "help", "expected_legal": True, "label_intent": "query_status", "track": 0}
_SCENARIO = {"scenario_id": "x", "type": "normal", "expected_final_stage": "init", "messages": [_MESSAGE]}

# Each kind as the README's "Configuration formats" gives it, written apart from the code: a
# whole object that loads; each key's (required, JSON types it loads at); and, for a sample of
# the right type that breaks some other rule of the kind, the value tried in its place.
KINDS = {
    "automaton": (
        {"stages": ["s"], "initial": "s", "transitions": [], "intents": ["i"],
         "binding": {"i": ["s"]}, "stage_map": {"i": None}},
        {"stages": (True, {"array"}), "initial": (True, {"string"}), "transitions": (True, {"array"}),
         "intents": (True, {"array"}), "binding": (True, {"object"}), "stage_map": (True, {"object"})},
        {},
    ),
    "skill": (
        {"id": "a", "intent": "b", "level": "L1", "stages": ["init"], "pre": ["f"], "post": [],
         "risk": "low", "disclosure": "none"},
        {"id": (True, {"string"}), "intent": (True, {"string"}), "level": (True, {"string"}),
         "stages": (False, {"string", "array"}), "pre": (False, {"array"}), "post": (False, {"array"}),
         "risk": (False, {"string"}), "disclosure": (False, {"string"})},
        {("level", "string"): "L0", ("stages", "string"): "*", ("stages", "array"): ["init"]},
    ),
    "effect": (  # a set effect must hold its value, a JSON scalar
        {"op": "set", "field": "f", "value": 1},
        {"op": (True, {"string"}), "field": (True, {"string"}), "value": (True, SCALARS)},
        {("op", "string"): "set"},
    ),
    "pattern entry": (
        {"intent": "a", "patterns": ["x"], "priority": 1},
        {"intent": (True, {"string"}), "patterns": (True, {"array"}), "priority": (False, {"integer"})},
        {},
    ),
    "suite": (
        {"suite_name": "n", "domain": "hr", "scenarios": []},
        {"suite_name": (False, {"string"}), "domain": (False, {"string"}), "scenarios": (True, {"array"})},
        {("domain", "string"): "hr"},
    ),
    "scenario": (
        _SCENARIO,
        {"scenario_id": (True, {"string"}), "type": (True, {"string"}),
         "expected_final_stage": (True, {"string", "object"}), "messages": (True, {"array"})},
        {("type", "string"): "normal", ("expected_final_stage", "string"): "init",
         ("expected_final_stage", "object"): {"0": "init"}, ("messages", "array"): [_MESSAGE]},
    ),
    "message": (
        _MESSAGE,
        {"turn_index": (True, {"integer"}), "text": (True, {"string"}), "expected_legal": (True, {"boolean"}),
         "label_intent": (False, {"null", "string"}), "track": (False, {"integer"})},
        {("label_intent", "string"): "query_status"},
    ),
}

# how each kind loads through the public readers, and the shape it is declared at
LOADERS = {
    "automaton": lambda bundle, raw: automaton.automaton_from_dict(raw),
    "skill": lambda bundle, raw: registry.skill_from_dict(raw),
    "effect": lambda bundle, raw: registry.skill_from_dict(
        {"id": "a", "intent": "b", "level": "L1", "post": [raw]}),
    "pattern entry": lambda bundle, raw: router.table_from_list([raw]),
    "suite": lambda bundle, raw: scenarios.suite_from_dict(raw, bundle),
    "scenario": lambda bundle, raw: scenarios.suite_from_dict({"scenarios": [raw]}, bundle),
    "message": lambda bundle, raw: scenarios.suite_from_dict(
        {"scenarios": [_SCENARIO | {"messages": [raw]}]}, bundle),
}
SHAPES = {
    "automaton": automaton._AUTOMATON, "skill": registry._SKILL, "effect": registry._EFFECT,
    "pattern entry": router._ENTRY, "suite": scenarios._SUITE, "scenario": scenarios._SCENARIO,
    "message": scenarios._MESSAGE,
}


@pytest.mark.parametrize("kind", KINDS)
def test_each_declared_key_at_each_json_type(hr_bundle, kind):
    """Every key deleted, then at each JSON type in turn: the object loads exactly when the table
    above allows it, and a refusal names the key."""
    base, keys, instead = KINDS[kind]
    load = LOADERS[kind]
    assert sorted(keys) == sorted(SHAPES[kind])
    load(hr_bundle, base)
    for key, (required, allowed) in keys.items():
        cases = [("absent", {k: v for k, v in base.items() if k != key}, not required)]
        cases += [(name, base | {key: instead.get((key, name), sample)}, name in allowed)
                  for name, sample in SAMPLES.items()]
        for name, raw, loads in cases:
            try:
                load(hr_bundle, raw)
            except ConfigError as exc:
                assert not loads, (kind, key, name, str(exc))
                assert re.search(rf"\b{key}\b", str(exc)), (kind, key, name, str(exc))
            else:
                assert loads, (kind, key, name)


# JSON values a key may be drawn at: each type, and lists whose items are or are not all strings
_VALUES = (None, True, False, 0, 7, 0.5, "s", "*", "", [], ["s"], ["s", "t"], [0], ["s", None], [[]],
           {}, {"0": "s"})


def _faulty(raw, shape) -> bool:
    """Whether *raw* breaks *shape*: not an object, a key outside it, a required key missing, or a
    value outside its key's types, or a list with an item outside its key's item type."""
    if type(raw) is not dict or not set(raw) <= set(shape):
        return True
    for key, (kind, default) in shape.items():
        if key not in raw:
            if default is REQUIRED:
                return True
        elif type(raw[key]) not in kind.types:
            return True
        elif kind.items is not None and type(raw[key]) is list and any(
                type(item) is not kind.items for item in raw[key]):
            return True
    return False


@st.composite
def _objects(draw, shape):
    raw = {}
    for key, (kind, _) in shape.items():
        fitting = [v for v in _VALUES if type(v) in kind.types]
        how = draw(st.sampled_from(("fits", "fits", "fits", "fits", "absent", "any")))
        if how == "fits":
            raw[key] = draw(st.sampled_from(fitting))
        elif how == "any":
            raw[key] = draw(st.sampled_from(_VALUES))
    if draw(st.integers(0, 11)) == 0:
        raw["stray"] = 1
    return raw if draw(st.integers(0, 15)) else draw(st.sampled_from((None, "x", [raw])))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(SHAPES)))
def test_read_rows_refuses_exactly_a_list_holding_a_faulty_object(data, kind):
    """Random lists of objects of each kind: the reader returns each object's values in declared
    order with defaults filled in, or names the first faulty object; it never errs."""
    shape = SHAPES[kind]
    items = data.draw(st.lists(_objects(shape), max_size=4))
    faults = [position for position, raw in enumerate(items) if _faulty(raw, shape)]
    try:
        rows = read_rows(items, shape, lambda position: f"#{position}")
    except ConfigError as exc:
        assert faults, str(exc)
        assert str(exc).startswith(f"#{faults[0]}"), (faults, str(exc))
    else:
        assert not faults
        assert rows == [tuple(raw.get(key, default) for key, (_, default) in shape.items()) for raw in items]
