"""Dual-mode intent recognition: deterministic patterns plus a fallback hook.

The primary mode is normalized substring matching, scanned by priority then
specificity, so identical inputs always produce identical decisions.
Ambiguous messages can be handed to a pluggable resolver; the shipped
fallback is a table-driven token-overlap matcher so suites run fully offline.

A table is compiled once, by :func:`table_from_list`, into indexes over its
one scan order (the substring texts by the longest message they fit, token
postings) and ``decisions``, one routing decision per position.
:func:`identify` scans only the substrings no longer than the normalized
message and returns the decision of the first one it holds.  The fallback
sorts the postings of the message's tokens into one run and scores each
position the run names, so only patterns sharing a token are scored.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from .automaton import WorkflowAutomaton
from .errors import INTEGER, REQUIRED, STRING, STRINGS, json_container, naming, read_rows

UNKNOWN = "<unknown>"

_TERMINAL_PUNCT = ".!?;:,"

FALLBACK_THRESHOLD = 0.6  # least Jaccard overlap the shipped fallback resolves on

_ENTRY = {"intent": (STRING, REQUIRED), "patterns": (STRINGS, REQUIRED), "priority": (INTEGER, 0)}


def normalize(message: str) -> str:
    """NFC, lowercase, whitespace collapse, terminal punctuation strip."""
    text = unicodedata.normalize("NFC", message).lower()
    text = " ".join(text.split())
    return text.rstrip(_TERMINAL_PUNCT).strip()


@dataclass(frozen=True)
class MatchExpr:
    """One pattern: its normalized text, matched as a substring (``=`` and ``&`` are text too)."""

    text: str
    tokens: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", frozenset(self.text.split()))

    @classmethod
    def parse(cls, raw: str) -> "MatchExpr":
        return cls(normalize(raw))

    def matches(self, normalized_message: str) -> bool:
        return bool(self.text) and self.text in normalized_message


@dataclass(frozen=True)
class IntentPattern:
    intent: str
    patterns: tuple[MatchExpr, ...]
    priority: int = 0


@dataclass(frozen=True)
class RoutingDecision:
    intent: str  # UNKNOWN when unresolved
    mode: str  # "pattern" | "fallback"
    matched_pattern: str | None = None
    error: str | None = None


FallbackResolver = Callable[[str], RoutingDecision]  # takes the normalized message


@dataclass(frozen=True)
class PatternTable:
    """One bundle's pattern table, compiled once and immutable after.

    Iterating yields the authored entries in authored order.  ``scan`` holds
    every (intent, expression) pair in the one deterministic scan order:
    higher priority first, then longer (more specific) patterns; remaining
    ties break by text, then intent, so decisions are stable across table
    serializations.

    The rest indexes ``scan`` by position.  ``fitting[n]`` lists, in scan
    order, the ``(position, text)`` of every text at most ``n`` characters
    long, for ``n`` up to the longest text: a longer text is never a
    substring of an ``n``-character message.  ``postings`` maps each token to
    the ascending positions of the patterns that hold it.  Empty expressions
    never match, so no index holds them.  ``decisions`` holds the one frozen
    ``RoutingDecision`` every hit at a position returns.
    """

    entries: tuple[IntentPattern, ...]
    scan: tuple[tuple[str, MatchExpr], ...] = field(init=False, repr=False, compare=False)
    fitting: tuple[tuple[tuple[int, str], ...], ...] = field(init=False, repr=False, compare=False)
    postings: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    decisions: tuple[RoutingDecision, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        flat = [
            (-entry.priority, -len(expr.text), expr.text, entry.intent, expr)
            for entry in self.entries
            for expr in entry.patterns
        ]
        flat.sort(key=lambda item: item[:4])
        scan = tuple((intent, expr) for *_, intent, expr in flat)
        postings: dict[str, list[int]] = {}
        for pos, (_, expr) in enumerate(scan):
            for token in expr.tokens:
                postings.setdefault(token, []).append(pos)
        object.__setattr__(self, "scan", scan)
        substrings = tuple((pos, e.text) for pos, (_, e) in enumerate(scan) if e.text)
        object.__setattr__(self, "fitting", _fitting(substrings))
        object.__setattr__(self, "postings", {t: tuple(p) for t, p in postings.items()})
        object.__setattr__(self, "decisions", tuple(RoutingDecision(i, "pattern", e.text) for i, e in scan))

    def __iter__(self) -> Iterator[IntentPattern]:
        return iter(self.entries)


def _fitting(substrings: tuple[tuple[int, str], ...]) -> tuple[tuple[tuple[int, str], ...], ...]:
    """Entry ``n`` is *substrings* kept to texts of at most ``n`` characters, for ``n`` up to the longest:
    built longest first, each entry filtered from the one above, or that one itself when no text has
    ``n + 1`` characters."""
    lengths = {len(text) for _, text in substrings}
    index = [substrings]
    for n in range(max(lengths, default=0) - 1, -1, -1):
        above = index[-1]
        index.append(tuple([item for item in above if len(item[1]) <= n]) if n + 1 in lengths else above)
    return tuple(reversed(index))


_UNRESOLVED = RoutingDecision(intent=UNKNOWN, mode="fallback")


def identify(
    message: str, table: PatternTable, fallback: FallbackResolver | None = None
) -> RoutingDecision:
    """Resolve a message to an intent, or UNKNOWN.

    The decision is ``table.decisions`` at the first position, in scan order, whose
    text the normalized message holds.  Only the texts that fit in the message are
    tried, which filters the scan order and never reorders it.  The message is
    normalized once; on a miss the fallback resolver gets that normalized text.
    It must never abort dispatch: a resolver fault degrades to UNKNOWN with the
    error annotated on the decision.
    """
    norm = normalize(message)
    fitting, n = table.fitting, len(norm)
    for pos, text in fitting[n] if n < len(fitting) else fitting[-1]:  # a conditional costs less than min()
        if text in norm:
            return table.decisions[pos]
    if fallback is not None:
        try:
            return fallback(norm)
        except Exception as exc:
            return RoutingDecision(intent=UNKNOWN, mode="fallback", error=f"fallback_error: {exc}")
    return _UNRESOLVED


class TokenOverlapFallback:
    """Shipped fallback stub: fuzzy match by token overlap.

    Called with the normalized message.  Scores patterns by Jaccard overlap
    with the message tokens and resolves when the best score reaches
    ``FALLBACK_THRESHOLD``.  The postings of the message's tokens are
    concatenated and sorted once: each run of one position in that list is
    the count of tokens the pattern there shares, so only patterns sharing a
    token are scored.  The runs come in scan order and a later position wins
    only on a strictly higher score.  Each scan position's token count
    (``sizes``) and fallback-mode decision are built once, here.
    Deterministic, so suite runs stay reproducible offline.
    """

    def __init__(self, table: PatternTable) -> None:
        self.table = table
        self.sizes = tuple(len(e.tokens) for _, e in table.scan)
        self.decisions = tuple(RoutingDecision(i, "fallback", e.text) for i, e in table.scan)

    def __call__(self, norm: str) -> RoutingDecision:
        tokens = set(norm.split())
        postings = self.table.postings
        run: list[int] = []
        for token in tokens:
            run += postings.get(token, ())
        run.sort()
        run.append(-1)  # no position: it ends the last run
        sizes = self.sizes
        size = len(tokens)
        best_score = 0.0
        best_pos = -1
        prev, shared = run[0], 0
        for pos in run:
            if pos == prev:
                shared += 1
                continue
            score = shared / (size + sizes[prev] - shared)
            if score > best_score:
                best_score, best_pos = score, prev
            prev, shared = pos, 1
        return self.decisions[best_pos] if best_score >= FALLBACK_THRESHOLD else _UNRESOLVED


def validate_table(
    table: Iterable[IntentPattern], automaton: WorkflowAutomaton | None = None
) -> list[str]:
    """Patterns that can never match, ambiguous pattern pairs and intents absent from the automaton,
    as ``"code: message"`` errors.  A pattern that normalizes to nothing (``""``, ``"..."``) never
    matches, and ``inject`` would write it as an attack of no text; ``"="`` is the text ``=``."""
    errors: list[str] = []
    seen: dict[tuple[str, int], str] = {}
    for entry in table:
        if not entry.patterns:
            errors.append(f"empty_pattern: intent {entry.intent!r} lists no pattern")
        for expr in entry.patterns:
            if not expr.text:
                errors.append(f"empty_pattern: a pattern of intent {entry.intent!r} normalizes to nothing")
            key = (expr.text, entry.priority)
            if key in seen and seen[key] != entry.intent:
                errors.append(
                    f"ambiguous_pattern: pattern {expr.text!r} at priority {entry.priority} maps to "
                    f"both {seen[key]!r} and {entry.intent!r}"
                )
            seen.setdefault(key, entry.intent)
    if automaton is not None:
        known = set(automaton.intents)
        for entry in table:
            if entry.intent not in known:
                errors.append(
                    f"unknown_intent: pattern table references intent {entry.intent!r} "
                    "not in the automaton"
                )
    return errors


def table_from_list(raw: list[Mapping[str, Any]]) -> PatternTable:
    """Parse and compile the pattern table file form: a list of ``_ENTRY`` objects."""
    entries = json_container(raw, list, "pattern table")
    rows = read_rows(entries, _ENTRY, naming(entries, "intent", "intent", "pattern entry"))
    return PatternTable(tuple(IntentPattern(intent, tuple(map(MatchExpr.parse, patterns)), priority)
                              for intent, patterns, priority in rows))
