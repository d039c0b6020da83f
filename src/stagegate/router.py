"""Dual-mode intent recognition: deterministic patterns plus a fallback hook.

The primary mode is normalized pattern matching (exact phrase, substring,
or token set) scanned by priority then specificity, so identical inputs
always produce identical decisions.  Ambiguous messages can be handed to a
pluggable resolver; the shipped fallback is a table-driven token-overlap
matcher so suites run fully offline.

A table is compiled once, by :func:`table_from_list`: the scan order and
each pattern's token set are built at load, and routing only walks them.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from .automaton import ValidationEntry, ValidationReport, WorkflowAutomaton
from .context import DispatchContext
from .errors import ConfigError, parsing

UNKNOWN = "<unknown>"

_TERMINAL_PUNCT = ".!?;:,"

FALLBACK_THRESHOLD = 0.6  # least Jaccard overlap the shipped fallback resolves on


def normalize(message: str) -> str:
    """NFC, lowercase, whitespace collapse, terminal punctuation strip."""
    text = unicodedata.normalize("NFC", message).lower()
    text = " ".join(text.split())
    return text.rstrip(_TERMINAL_PUNCT).strip()


@dataclass(frozen=True)
class MatchExpr:
    """One match expression.

    Config strings map to kinds by prefix: ``=`` exact phrase, ``&`` token
    set (all tokens present, any order), anything else normalized substring.
    """

    kind: str  # "exact" | "substring" | "tokens"
    text: str
    tokens: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", frozenset(self.text.split()))

    @classmethod
    def parse(cls, raw: str) -> "MatchExpr":
        if raw.startswith("="):
            return cls("exact", normalize(raw[1:]))
        if raw.startswith("&"):
            return cls("tokens", normalize(raw[1:]))
        return cls("substring", normalize(raw))

    def matches(self, normalized_message: str) -> bool:
        if not self.text:
            return False
        if self.kind == "exact":
            return normalized_message == self.text
        if self.kind == "substring":
            return self.text in normalized_message
        return self.tokens <= set(normalized_message.split())


@dataclass(frozen=True)
class IntentPattern:
    intent: str
    patterns: tuple[MatchExpr, ...]
    priority: int = 0


@dataclass(frozen=True)
class RoutingDecision:
    intent: str  # UNKNOWN when unresolved
    mode: str  # "pattern" | "fallback"
    confidence: float
    matched_pattern: str | None = None
    error: str | None = None


FallbackResolver = Callable[[str, DispatchContext], RoutingDecision]


@dataclass(frozen=True)
class PatternTable:
    """One bundle's pattern table, compiled once and immutable after.

    Iterating yields the authored entries in authored order.  ``scan`` holds
    every (intent, expression) pair in the one deterministic scan order:
    higher priority first, then longer (more specific) patterns; remaining
    ties break by text, then intent, so decisions are stable across table
    serializations.
    """

    entries: tuple[IntentPattern, ...]
    scan: tuple[tuple[str, MatchExpr], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        flat = [
            (-entry.priority, -len(expr.text), expr.text, entry.intent, expr)
            for entry in self.entries
            for expr in entry.patterns
        ]
        flat.sort(key=lambda item: item[:4])
        object.__setattr__(self, "scan", tuple((intent, expr) for *_, intent, expr in flat))

    def __iter__(self) -> Iterator[IntentPattern]:
        return iter(self.entries)


def identify(
    message: str,
    ctx: DispatchContext,
    table: PatternTable,
    fallback: FallbackResolver | None = None,
) -> RoutingDecision:
    """Resolve a message to an intent, or UNKNOWN.

    A pattern hit always returns confidence 1.0.  The fallback resolver is
    consulted only on a miss and must never abort dispatch: a resolver fault
    degrades to UNKNOWN with the error annotated on the decision.
    """
    norm = normalize(message)
    if norm:
        for intent, expr in table.scan:
            if expr.matches(norm):
                return RoutingDecision(
                    intent=intent, mode="pattern", confidence=1.0, matched_pattern=expr.text
                )
    if fallback is not None:
        try:
            return fallback(message, ctx)
        except Exception as exc:
            return RoutingDecision(
                intent=UNKNOWN, mode="fallback", confidence=0.0, error=f"fallback_error: {exc}"
            )
    return RoutingDecision(intent=UNKNOWN, mode="fallback", confidence=0.0)


class TokenOverlapFallback:
    """Shipped fallback stub: fuzzy match by token overlap.

    Scores each pattern by Jaccard overlap with the message tokens and
    resolves when the best score reaches ``FALLBACK_THRESHOLD``.
    Deterministic, so suite runs stay reproducible offline.
    """

    def __init__(self, table: PatternTable) -> None:
        self.table = table

    def __call__(self, message: str, ctx: DispatchContext) -> RoutingDecision:
        tokens = set(normalize(message).split())
        if not tokens:
            return RoutingDecision(intent=UNKNOWN, mode="fallback", confidence=0.0)
        best_score = 0.0
        best_intent: str | None = None
        best_pattern: str | None = None
        for intent, expr in self.table.scan:
            shared = len(tokens & expr.tokens)
            if not shared:
                continue  # scores 0, which never beats best_score; so do empty patterns
            score = shared / (len(tokens) + len(expr.tokens) - shared)
            if score > best_score:
                best_score, best_intent, best_pattern = score, intent, expr.text
        if best_intent is not None and best_score >= FALLBACK_THRESHOLD:
            return RoutingDecision(
                intent=best_intent, mode="fallback",
                confidence=round(best_score, 4), matched_pattern=best_pattern,
            )
        return RoutingDecision(intent=UNKNOWN, mode="fallback", confidence=0.0)


def validate_table(
    table: Iterable[IntentPattern], automaton: WorkflowAutomaton | None = None
) -> ValidationReport:
    """Report ambiguous pattern pairs and intents absent from the automaton."""
    entries: list[ValidationEntry] = []
    seen: dict[tuple[str, int], str] = {}
    for entry in table:
        for expr in entry.patterns:
            key = (expr.text, entry.priority)
            if key in seen and seen[key] != entry.intent:
                entries.append(
                    ValidationEntry(
                        "error", "ambiguous_pattern",
                        f"pattern {expr.text!r} at priority {entry.priority} maps to both "
                        f"{seen[key]!r} and {entry.intent!r}",
                    )
                )
            seen.setdefault(key, entry.intent)
    if automaton is not None:
        known = set(automaton.intents)
        for entry in table:
            if entry.intent not in known:
                entries.append(
                    ValidationEntry(
                        "error", "unknown_intent",
                        f"pattern table references intent {entry.intent!r} not in the automaton",
                    )
                )
    return ValidationReport(tuple(entries))


def table_from_list(raw: Iterable[Mapping[str, Any]]) -> PatternTable:
    """Parse and compile the pattern table file form: [{intent, patterns, priority}]."""
    table = []
    with parsing("pattern table"):
        for item in raw:
            if "intent" not in item or "patterns" not in item:
                raise ConfigError("pattern entry needs 'intent' and 'patterns'")
            table.append(
                IntentPattern(
                    intent=str(item["intent"]),
                    patterns=tuple(MatchExpr.parse(str(p)) for p in item["patterns"]),
                    priority=int(item.get("priority", 0)),
                )
            )
    return PatternTable(tuple(table))

