"""Exception hierarchy shared across the package.

Validation problems are reported as ``"code: message"`` lines, not
exceptions; these classes cover faults that callers cannot reasonably
continue past (bad lookups, broken configs, corrupted logs).
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain, repeat
from typing import Any, Callable, Iterator, Mapping, NamedTuple


class StagegateError(Exception):
    """Base class for all package faults."""


class ConfigError(StagegateError):
    """A config file or declarative definition is unusable."""


@contextmanager
def parsing(what: str) -> Iterator[None]:
    """Turn a wrong-shape fault while parsing *what* into a ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"malformed {what}: {reason}") from None


CLIP = 100  # the most characters of a refused value that a refusal line shows


def clip(text: str) -> str:
    """*text*, or its first ``CLIP`` characters then ``...``: a refusal names a value, not all of it."""
    return text if len(text) <= CLIP else f"{text[:CLIP]}..."


def named(label: str, value: str) -> str:
    """``<label> '<value>'``, the ``repr`` clipped: how a refusal names an object by its id."""
    return f"{label} {clip(repr(value))}"


def string_list(value: Any, what: str) -> tuple[str, ...]:
    """*value*, a JSON list of strings, as a tuple; any other shape is a ConfigError."""
    if type(value) is not list or not all(type(item) is str for item in value):
        raise ConfigError(f"{what} must be a list of strings, not {clip(repr(value))}")
    return tuple(value)


def json_container(value: Any, kind: type[list] | type[dict], what: str) -> Any:
    """*value* if it is the JSON container *kind* (list or dict); else a ConfigError naming its type."""
    if type(value) is not kind:
        article = "a list" if kind is list else "an object"
        raise ConfigError(f"{what} must be {article}, not {type(value).__name__}")
    return value


class Kind(NamedTuple):
    """What a key of an input object may hold: its exact JSON types, as Python types, its name in a
    refusal, and the exact type of each item of a list it holds, when the reader checks them."""

    types: frozenset[type]
    name: str
    items: type | None = None


STRING = Kind(frozenset({str}), "a string")
STRING_OR_NULL = Kind(frozenset({str, type(None)}), "a string or null")
INTEGER = Kind(frozenset({int}), "an integer")  # exact types: true is no integer, 0.0 none either
BOOLEAN = Kind(frozenset({bool}), "a boolean")
LIST = Kind(frozenset({list}), "a list")
OBJECT = Kind(frozenset({dict}), "an object")
STRINGS = Kind(frozenset({list}), "a list of strings", str)
REQUIRED: Any = object()  # the default of a key every object must hold
Shape = Mapping[str, tuple[Kind, Any]]  # each key in order: its kind, then a default of that kind or REQUIRED


def read_rows(items: list, shape: Shape, what: Callable[[int], str]) -> list[tuple]:
    """Each object of *items* as the tuple of its values in *shape*'s key order, defaults filled in.

    The list is checked one key at a time, and *what* runs only on a refusal: the ConfigError of
    :func:`_row_fault`.  A string held where the items must be strings passes, character by character.
    """
    if set(map(type, items)) <= {dict} and set().union(*items) <= shape.keys():
        columns = []
        for key, (kind, default) in shape.items():
            column = list(map(dict.get, items, repeat(key), repeat(default)))
            if not set(map(type, column)) <= kind.types or (
                kind.items is not None and not set(map(type, chain.from_iterable(column))) <= {kind.items}
            ):
                break
            columns.append(column)
        else:
            return list(zip(*columns))
    raise _row_fault(items, shape, what)


def _row_fault(items: list, shape: Shape, what: Callable[[int], str]) -> Exception:
    """The refusal of the first object with a fault, named ``what(position)``: not an object, then
    unknown keys, then each key in order missing or outside its kind.  With none found it is an
    AssertionError: :func:`read_rows` erred."""
    for position, item in enumerate(items):
        if type(item) is not dict:
            return ConfigError(f"{what(position)} must be an object, not {type(item).__name__}")
        unknown = item.keys() - shape.keys()
        if unknown:
            return ConfigError(f"{what(position)}: unknown keys: {clip(', '.join(sorted(map(str, unknown))))}")
        for key, (kind, default) in shape.items():
            value = item.get(key, default)
            if value is REQUIRED:
                return ConfigError(f"{what(position)}: missing key {key!r}")
            if type(value) not in kind.types or (
                kind.items is not None and any(type(each) is not kind.items for each in value)
            ):
                return ConfigError(f"{what(position)}: {key!r} must be {kind.name}, not {clip(repr(value))}")
    return AssertionError(f"read_rows refused {len(items)} objects that hold no fault")


def naming(items: list, key: str, label: str, anonymous: str) -> Callable[[int], str]:
    """A ``what`` for :func:`read_rows`: ``<label> '<id>'`` for an object whose *key* holds a string,
    else *anonymous* formatted with the object's position."""
    def what(position: int) -> str:
        name = items[position].get(key) if type(items[position]) is dict else None
        return named(label, name) if type(name) is str else anonymous.format(position)
    return what


def file_safe_id(value: str, what: str) -> None:
    """Refuse an id that cannot name a trace file in its directory.

    Such an id holds ``/``, ``\\`` or NUL, or does not encode as UTF-8 (a
    lone surrogate), which ``os.open`` would refuse mid-run.
    """
    if "/" in value or "\\" in value or "\0" in value:
        raise ConfigError(f"{named(what, value)} must not contain '/', '\\' or NUL")
    try:
        value.encode()
    except UnicodeEncodeError:
        raise ConfigError(f"{named(what, value)} must encode as UTF-8") from None


class LookupFault(StagegateError):
    """A stage, intent, or goal id does not exist where one was required."""

    def __init__(self, kind: str, value: str):
        self.kind = kind
        self.value = value
        super().__init__(f"unknown {kind}: {value!r}")


class ConflictFault(StagegateError):
    """A write collided with existing state (duplicate id, stale stage)."""


class IntegrityFault(StagegateError):
    """An audit log violated its append-only/gapless guarantees."""

    def __init__(self, message: str, seq: int | None = None):
        self.seq = seq
        super().__init__(message)


class GenerationFault(StagegateError):
    """An adversarial variant could not be generated from the scenario."""
