"""The executor's copy of a goal's business state, and the canonical bytes of skill results."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any


@dataclass(slots=True)
class DispatchContext:
    """A goal's business state as the executor sees it; every layer below takes the dict itself.

    ``business_state`` is a flat dict of JSON scalars that evolves only
    through postcondition effects, so a shallow copy is a full copy.
    """

    business_state: dict[str, Any] = field(default_factory=dict)

    def clone(self) -> "DispatchContext":
        return DispatchContext(dict(self.business_state))


_CANON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str).encode


def canonical(obj: Any) -> bytes:
    """The canonical JSON bytes of *obj*: sorted keys, no spaces, ASCII, ``str`` for the rest."""
    return _CANON(obj).encode("utf-8")


def payload_digest(body: bytes) -> str:
    """Stable content hash of a skill result's canonical bytes."""
    return hashlib.sha256(body).hexdigest()
