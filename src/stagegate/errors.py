"""Exception hierarchy shared across the package.

Validation problems are reported as ``"code: message"`` lines, not
exceptions; these classes cover faults that callers cannot reasonably
continue past (bad lookups, broken configs, corrupted logs).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import AbstractSet, Any, Iterator, Mapping


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


def string_list(value: Any, what: str) -> tuple[str, ...]:
    """*value*, a JSON list of strings, as a tuple; any other shape is a ConfigError."""
    if type(value) is not list or not all(type(item) is str for item in value):
        raise ConfigError(f"{what} must be a list of strings, not {value!r}")
    return tuple(value)


def json_container(value: Any, kind: type[list] | type[dict], what: str) -> Any:
    """*value* if it is the JSON container *kind* (list or dict); else a ConfigError naming its type."""
    if type(value) is not kind:
        article = "a list" if kind is list else "an object"
        raise ConfigError(f"{what} must be {article}, not {type(value).__name__}")
    return value


def unknown_keys(what: str, raw: Mapping[str, Any], allowed: AbstractSet[str]) -> ConfigError:
    """The refusal of *raw*, a JSON object holding keys outside *allowed*; it names each one."""
    return ConfigError(f"{what}: unknown keys: {', '.join(sorted(raw.keys() - allowed))}")


def file_safe_id(value: str, what: str) -> None:
    """Refuse an id that cannot name a trace file in its directory.

    Such an id holds ``/``, ``\\`` or NUL, or does not encode as UTF-8 (a
    lone surrogate), which ``os.open`` would refuse mid-run.
    """
    if "/" in value or "\\" in value or "\0" in value:
        raise ConfigError(f"{what} {value!r} must not contain '/', '\\' or NUL")
    try:
        value.encode()
    except UnicodeEncodeError:
        raise ConfigError(f"{what} {value!r} must encode as UTF-8") from None


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
