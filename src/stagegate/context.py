"""Goal-scoped dispatch context and skill execution results."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any


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


@dataclass(frozen=True)
class SkillResult:
    """Outcome of one executor call; postconditions apply only on ``ok``."""

    status: str  # "ok" | "failed"
    payload: Any = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


_CANON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str).encode


def payload_digest(payload: Any) -> str:
    """Stable content hash of a canonicalized skill-result payload."""
    return hashlib.sha256(_CANON(payload).encode("utf-8")).hexdigest()
