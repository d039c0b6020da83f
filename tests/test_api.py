from __future__ import annotations

import inspect
import typing

import stagegate


def _exported_classes():
    return [obj for name, obj in vars(stagegate).items() if inspect.isclass(obj) and not name.startswith("_")]


def test_exported_annotations_resolve():
    """Every annotation of an exported class and of its methods names something importable."""
    checked = 0
    for cls in _exported_classes():
        typing.get_type_hints(cls)
        for attr in vars(cls).values():
            if isinstance(attr, (staticmethod, classmethod)):
                attr = attr.__func__
            elif isinstance(attr, property):
                attr = attr.fget
            if inspect.isfunction(attr):
                typing.get_type_hints(attr)
                checked += 1
    assert checked > 50
