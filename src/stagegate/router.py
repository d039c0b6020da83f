"""Dual-mode intent recognition: deterministic patterns plus a fallback hook.

The primary mode is normalized pattern matching (exact phrase, substring,
or token set) scanned by priority then specificity, so identical inputs
always produce identical decisions.  Ambiguous messages can be handed to a
pluggable resolver; the shipped fallback is a table-driven token-overlap
matcher so suites run fully offline.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

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
        tokens = set(self.text.split())
        return tokens <= set(normalized_message.split())


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


def _scan_order(table: Sequence[IntentPattern]) -> list[tuple[int, int, str, str, MatchExpr]]:
    """Flatten the table into deterministic scan order.

    Higher priority first, then longer (more specific) patterns; remaining
    ties break lexicographically so decisions are stable across table
    serializations.
    """
    flat = []
    for entry in table:
        for expr in entry.patterns:
            flat.append((-entry.priority, -len(expr.text), expr.text, entry.intent, expr))
    flat.sort(key=lambda item: item[:4])
    return flat


def identify(
    message: str,
    ctx: DispatchContext,
    table: Sequence[IntentPattern],
    fallback: FallbackResolver | None = None,
) -> RoutingDecision:
    """Resolve a message to an intent, or UNKNOWN.

    A pattern hit always returns confidence 1.0.  The fallback resolver is
    consulted only on a miss and must never abort dispatch: a resolver fault
    degrades to UNKNOWN with the error annotated on the decision.
    """
    norm = normalize(message)
    if norm:
        for _, _, _, intent, expr in _scan_order(table):
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

    def __init__(self, table: Sequence[IntentPattern]) -> None:
        self.table = tuple(table)

    def __call__(self, message: str, ctx: DispatchContext) -> RoutingDecision:
        tokens = set(normalize(message).split())
        if not tokens:
            return RoutingDecision(intent=UNKNOWN, mode="fallback", confidence=0.0)
        best_score = 0.0
        best_intent: str | None = None
        best_pattern: str | None = None
        for _, _, _, intent, expr in _scan_order(self.table):
            expr_tokens = set(expr.text.split())
            if not expr_tokens:
                continue
            score = len(tokens & expr_tokens) / len(tokens | expr_tokens)
            if score > best_score:
                best_score, best_intent, best_pattern = score, intent, expr.text
        if best_intent is not None and best_score >= FALLBACK_THRESHOLD:
            return RoutingDecision(
                intent=best_intent, mode="fallback",
                confidence=round(best_score, 4), matched_pattern=best_pattern,
            )
        return RoutingDecision(intent=UNKNOWN, mode="fallback", confidence=0.0)


def validate_table(
    table: Sequence[IntentPattern], automaton: WorkflowAutomaton | None = None
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


def table_from_list(raw: Iterable[Mapping[str, Any]]) -> tuple[IntentPattern, ...]:
    """Parse the pattern table file form: [{intent, patterns, priority}]."""
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
    return tuple(table)

