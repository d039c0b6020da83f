"""Goal-scoped dispatch context and the canonical bytes of skill results."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any


@dataclass(slots=True)
class DispatchContext:
    """Business state whose flags the preconditions consult.

    ``business_state`` is a flat dict of JSON scalars that evolves only
    through postcondition effects (or goal-manager mediated writes), so a
    shallow copy is a full copy.
    """

    goal_id: str
    business_state: dict[str, Any] = field(default_factory=dict)

    def clone(self) -> "DispatchContext":
        return DispatchContext(self.goal_id, dict(self.business_state))


_CANON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str).encode


def canonical(obj: Any) -> bytes:
    """The canonical JSON bytes of *obj*: sorted keys, no spaces, ASCII, ``str`` for the rest."""
    return _CANON(obj).encode("utf-8")


def payload_digest(body: bytes) -> str:
    """Stable content hash of a skill result's canonical bytes."""
    return hashlib.sha256(body).hexdigest()
