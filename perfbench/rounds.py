"""What one round of either plane reports."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Round:
    """One round's outcome: operations, host time, observables."""

    host_s: float
    attempted: int
    failed: int
    fingerprint: str
    problems: list[str]
    samples: dict[str, Any] = field(default_factory=dict)


def digest(*parts: object) -> str:
    """SHA-256 of the parts' reprs: a round's simulated observables as one value."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()
