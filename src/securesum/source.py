"""Doubly symmetric binary source: pairs of uniform bits that disagree with rate p."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolation

__all__ = ["DsbsParams", "binary_entropy"]


@dataclass(frozen=True, slots=True)
class DsbsParams:
    """Flip rate p in [0, 1/2] and block length n >= 1."""

    p: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ContractViolation(f"p must lie in [0, 1/2], got {self.p}")
        if self.n < 1:
            raise ContractViolation(f"block length must be positive, got {self.n}")


def binary_entropy(q: float) -> float:
    """H2(q) in bits; defined as 0 at the endpoints."""
    if not 0.0 <= q <= 1.0:
        raise ContractViolation(f"entropy argument must lie in [0, 1], got {q}")
    if q in (0.0, 1.0):
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)
