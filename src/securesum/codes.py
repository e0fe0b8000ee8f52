"""Random binary linear codes with exact coset-leader syndrome decoding."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Any

import numpy as np

from .errors import CapacityError, ContractViolation
from .gf2 import Gf2Matrix, Gf2Vector, random_matrix, span_table

__all__ = [
    "LinearCode",
    "build_code",
    "code_from_matrix",
    "syndrome",
    "decode_syndrome",
    "exact_error_probability",
    "m_for_rate",
    "to_json_dict",
    "from_json_dict",
    "TABLE_GUARD_BITS",
    "ENUMERATION_GUARD_BITS",
]

# Leader tables hold 2**m entries; refuse anything beyond this.
TABLE_GUARD_BITS = 24

# Exhaustive error enumeration and exact leakage walk 2**n noise patterns;
# refuse beyond this.
ENUMERATION_GUARD_BITS = 24

# Full-table construction enumerates all 2**n words vectorised; above this,
# fall back to weight-ordered search that stops once every coset is filled.
_FULL_TABLE_BITS = 20


def _bit_reverse(words: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros_like(words)
    for i in range(n):
        out |= ((words >> i) & 1) << (n - 1 - i)
    return out


def _syndrome_table(matrix: Gf2Matrix) -> np.ndarray:
    """Packed syndrome of every n-bit word, indexed by the word itself."""
    return span_table(matrix.rows, matrix.cols)


def _weight_masks(n: int, w: int):
    # Gosper's hack: all n-bit words of weight w in ascending numeric order.
    if w == 0:
        yield 0
        return
    u = (1 << w) - 1
    limit = 1 << n
    while u < limit:
        yield u
        c = u & -u
        r = u + c
        u = (((r ^ u) >> 2) // c) | r


def _leader_order_key(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Leaders are chosen by minimum weight, then by the smallest bit pattern
    # when the pattern is read with symbol 0 as the most significant position.
    return _bit_reverse(words, n), np.bitwise_count(words).astype(np.int64)


def _leader_table_full(matrix: Gf2Matrix) -> np.ndarray:
    n, m = matrix.cols, matrix.m
    synd = _syndrome_table(matrix)
    words = np.arange(1 << n, dtype=np.int64)
    rev, wt = _leader_order_key(words, n)
    order = np.lexsort((rev, wt))
    uniq, first = np.unique(synd[order], return_index=True)
    if len(uniq) != 1 << m:
        raise ContractViolation("matrix is not full rank: some syndromes unreachable")
    leaders = np.zeros(1 << m, dtype=np.int64)
    leaders[uniq] = words[order][first]
    return leaders


def _leader_table_search(matrix: Gf2Matrix) -> np.ndarray:
    n, m = matrix.cols, matrix.m
    leaders = np.full(1 << m, -1, dtype=np.int64)
    remaining = 1 << m
    for w in range(n + 1):
        for u in _weight_masks(n, w):
            word = 0
            for i in range(n):  # reverse so ascending u scans ascending patterns
                word |= ((u >> i) & 1) << (n - 1 - i)
            s = 0
            for i, row in enumerate(matrix.rows):
                s |= ((row & word).bit_count() & 1) << i
            if leaders[s] < 0:
                leaders[s] = word
                remaining -= 1
                if remaining == 0:
                    return leaders
    raise ContractViolation("matrix is not full rank: some syndromes unreachable")


def _leader_table(matrix: Gf2Matrix) -> np.ndarray:
    if matrix.cols <= _FULL_TABLE_BITS:
        return _leader_table_full(matrix)
    return _leader_table_search(matrix)


@dataclass(eq=False)
class LinearCode:
    """A full-rank m-by-n parity matrix with its complete coset-leader table.

    `leaders[s]` is the minimum-weight word whose syndrome is the packed
    value s; ties go to the smallest pattern with symbol 0 read as the most
    significant bit. Decoding via this table is exact maximum-likelihood for
    any memoryless flip rate below 1/2.
    """

    n: int
    m: int
    matrix: Gf2Matrix
    seed: int | None
    leaders: np.ndarray
    _syndrome_table: np.ndarray | None = field(default=None, repr=False)

    def syndrome(self, word: Gf2Vector) -> Gf2Vector:
        if word.n != self.n:
            raise ContractViolation(f"code expects length {self.n}, got {word.n}")
        return self.matrix.matvec(word)

    def decode(self, synd: Gf2Vector) -> Gf2Vector:
        if synd.n != self.m:
            raise ContractViolation(f"syndrome must have length {self.m}, got {synd.n}")
        return Gf2Vector(int(self.leaders[synd.bits]), self.n)

    def syndrome_table(self) -> np.ndarray:
        """Cached packed syndrome of every word; 2**n entries."""
        if self._syndrome_table is None:
            if self.n > ENUMERATION_GUARD_BITS:
                raise CapacityError(
                    f"syndrome table needs 2^{self.n} entries, guard is 2^{ENUMERATION_GUARD_BITS}"
                )
            self._syndrome_table = _syndrome_table(self.matrix)
        return self._syndrome_table

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, m={self.m}, seed={self.seed})"


def code_from_matrix(matrix: Gf2Matrix, seed: int | None = None) -> LinearCode:
    """Wrap an explicit full-rank parity matrix as a decodable code."""
    m, n = matrix.m, matrix.cols
    if m > n:
        raise ContractViolation(f"need m <= n, got m={m} > n={n}")
    if m > TABLE_GUARD_BITS:
        raise CapacityError(f"leader table needs 2^{m} entries, guard is 2^{TABLE_GUARD_BITS}")
    if matrix.rank() != m:
        raise ContractViolation(f"parity matrix rank {matrix.rank()} < m={m}")
    return LinearCode(n=n, m=m, matrix=matrix, seed=seed, leaders=_leader_table(matrix))


def build_code(n: int, m: int, seed: int) -> LinearCode:
    """Sample uniform parity matrices under `seed` until one has full rank."""
    if not 0 <= m <= n:
        raise ContractViolation(f"need 0 <= m <= n, got m={m}, n={n}")
    if m > TABLE_GUARD_BITS:
        raise CapacityError(f"leader table needs 2^{m} entries, guard is 2^{TABLE_GUARD_BITS}")
    rng = Random(seed)
    while True:
        matrix = random_matrix(m, n, rng)
        if matrix.rank() == m:
            return LinearCode(n=n, m=m, matrix=matrix, seed=seed, leaders=_leader_table(matrix))


def syndrome(code: LinearCode, word: Gf2Vector) -> Gf2Vector:
    return code.syndrome(word)


def decode_syndrome(code: LinearCode, synd: Gf2Vector) -> Gf2Vector:
    return code.decode(synd)


def exact_error_probability(code: LinearCode, p: float, *, guard_bits: int = ENUMERATION_GUARD_BITS) -> float:
    """Exact probability that the decoded noise pattern differs from the truth.

    Sums the Bernoulli(p) block probability of every noise pattern z whose
    coset leader is not z itself.
    """
    if not 0.0 <= p <= 0.5:
        raise ContractViolation(f"p must lie in [0, 1/2], got {p}")
    if code.n > guard_bits:
        raise CapacityError(f"exact enumeration needs 2^{code.n} patterns, guard is 2^{guard_bits}")
    words = np.arange(1 << code.n, dtype=np.int64)
    decoded = code.leaders[code.syndrome_table()]
    wrong = words[decoded != words]
    w = np.bitwise_count(wrong).astype(np.int64)
    return float(np.sum(np.power(p, w) * np.power(1.0 - p, code.n - w)))


def m_for_rate(n: int, rate: float) -> int:
    """Syndrome length for a requested rate: ceil(n * rate), clamped to [0, n]."""
    if rate < 0.0 or rate > 1.0:
        raise ContractViolation(f"rate must lie in [0, 1], got {rate}")
    return min(n, math.ceil(n * rate))


def to_json_dict(code: LinearCode) -> dict[str, Any]:
    """JSON-compatible form: {n, m, seed, H}; the leader table is rebuilt on load."""
    return {
        "n": code.n,
        "m": code.m,
        "seed": code.seed,
        "H": [code.matrix.row(i).to_string() for i in range(code.m)],
    }


def from_json_dict(doc: dict[str, Any]) -> LinearCode:
    rows = [Gf2Vector.from_string(r) for r in doc["H"]]
    matrix = Gf2Matrix(tuple(v.bits for v in rows), int(doc["n"]))
    if matrix.m != int(doc["m"]):
        raise ContractViolation(f"document says m={doc['m']} but H has {matrix.m} rows")
    return code_from_matrix(matrix, seed=doc.get("seed"))
