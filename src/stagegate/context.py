"""Goal-scoped dispatch context and skill execution results."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, NamedTuple


@dataclass
class DispatchContext:
    """Business state consulted by precondition predicates.

    ``business_state`` is a flat dict of JSON scalars that evolves only
    through postcondition effects (or goal-manager mediated writes), so a
    shallow copy is a full copy.
    """

    goal_id: str
    business_state: dict[str, Any] = field(default_factory=dict)

    def clone(self) -> "DispatchContext":
        return DispatchContext(goal_id=self.goal_id, business_state=dict(self.business_state))


class SkillResult(NamedTuple):
    """Outcome of one executor call; postconditions apply only on ``ok``.

    ``payload`` is the result's canonical JSON bytes (see ``canonical``):
    the dispatcher digests and retains exactly the bytes it receives.
    """

    status: str  # "ok" | "failed"
    payload: bytes = b"null"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


_CANON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str).encode


def canonical(obj: Any) -> bytes:
    """The canonical JSON bytes of *obj*: sorted keys, no spaces, ASCII, ``str`` for the rest."""
    return _CANON(obj).encode("utf-8")


def payload_digest(body: bytes) -> str:
    """Stable content hash of a skill result's canonical bytes."""
    return hashlib.sha256(body).hexdigest()
