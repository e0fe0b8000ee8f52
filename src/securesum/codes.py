"""Random binary linear codes with exact coset-leader syndrome decoding."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Callable

import numpy as np

from .errors import CapacityError, ContractViolation
from .gf2 import Gf2Batch, Gf2Matrix, Gf2Vector, linear_map, pivot_start, random_matrix

__all__ = [
    "LinearCode",
    "build_code",
    "code_from_matrix",
    "exact_error_probability",
    "m_for_rate",
    "TABLE_GUARD_BITS",
    "WORD_GUARD_BITS",
]

# Leader tables hold 2**m entries; refuse anything beyond this.
TABLE_GUARD_BITS = 24

# Leader words are packed in int64, so codes stop at this length.
WORD_GUARD_BITS = 63


# The weight count and the leader recovery each read the key table in blocks
# of this many syndromes, so their temporaries stay small beside the table.
_RECOVERY_BLOCK = 1 << 16


def _leader_keys(matrix: Gf2Matrix) -> tuple[tuple[int, ...], Callable[[], np.ndarray]]:
    """Coset leaders by min-plus column passes on the `(2,)*m` cube of syndromes.

    `pivot_start` splits the columns into pivots and f free columns; the coset
    of s is the pivot word of s plus every codeword, and a codeword is fixed by
    its free part u. Two words of one coset first differ at a free symbol (at
    a pivot, that column would depend on the columns after it), so the key
    (weight, reversed u) orders a coset as the tie-break (weight, reversed
    word) does, where reversed puts symbol 0 in the most significant bit. Keys
    pack the weight above f bits of reversed u. Each starts at the weight of
    its pivot word, and free column j, at reversed bit b, takes one pass
    key[s] <- min(key[s], key[s xor h_j] + (1 << f | 1 << b)) on the flipped
    view of the cube. A weight is at most m + 1, so a key takes
    bitlen(m + 1) + f <= 64 bits at any n <= 63.

    Returns the leaders' weight counts, read from the keys' weight fields, and
    a function that rewrites the keys in place into the leader table: the least
    key of s holds the leader's u, and the leader is the pivot word of s xor
    the codeword of u. Exact error needs only the counts.
    """
    n, m = matrix.cols, matrix.m
    if n > WORD_GUARD_BITS:
        raise CapacityError(f"leader words are packed in int64, so n <= {WORD_GUARD_BITS}; got n={n}")
    weights, units, free = pivot_start(matrix.rows, n)
    f = len(free)
    keys = weights.astype(np.uint64)
    del weights
    keys <<= np.uint64(f)
    cube = keys.reshape((2,) * m)
    moved = np.empty_like(cube)
    for b, (flip, _) in enumerate(reversed(free)):
        np.add(cube[flip], np.uint64(1 << f | 1 << b), out=moved)
        np.minimum(cube, moved, out=cube)
    del moved
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, len(keys), _RECOVERY_BLOCK):
        block_weights = (keys[lo:lo + _RECOVERY_BLOCK] >> np.uint64(f)).astype(np.intp)
        counts += np.bincount(block_weights, minlength=n + 1)

    def recover() -> np.ndarray:
        pivot_word = linear_map(units)
        codeword = linear_map([word for _, word in reversed(free)])
        leaders = keys.view(np.int64)
        for lo in range(0, len(leaders), _RECOVERY_BLOCK):
            block = leaders[lo:lo + _RECOVERY_BLOCK]
            block[:] = pivot_word(np.arange(lo, lo + len(block))) ^ codeword(block & ((1 << f) - 1))
        return leaders

    return tuple(counts.tolist()), recover


@dataclass(eq=False)
class LinearCode:
    """A full-rank m-by-n parity matrix with its coset leaders' weight counts.

    `leaders_by_weight[w]` counts the coset leaders of weight w, w = 0..n.
    `leaders[s]` is the minimum-weight word whose syndrome is the packed
    value s; ties go to the smallest pattern with symbol 0 read as the most
    significant bit. Decoding via this table is exact maximum-likelihood for
    any memoryless flip rate below 1/2. `leaders` calls `recover_leaders` once,
    on first use, so a code that only gives its exact error never builds it.
    """

    n: int
    m: int
    matrix: Gf2Matrix
    seed: int | None
    leaders_by_weight: tuple[int, ...]
    recover_leaders: Callable[[], np.ndarray]

    @cached_property
    def leaders(self) -> np.ndarray:
        return self.recover_leaders()

    def syndrome(self, word: Gf2Vector | Gf2Batch) -> Gf2Vector | Gf2Batch:
        return self.matrix.matvec(word)

    def decode(self, synd: Gf2Vector | Gf2Batch) -> Gf2Vector | Gf2Batch:
        if synd.n != self.m:
            raise ContractViolation(f"syndrome must have length {self.m}, got {synd.n}")
        if isinstance(synd, Gf2Batch):
            return Gf2Batch(self.leaders[synd.bits], self.n)
        return Gf2Vector(self.leaders.item(synd.bits), self.n)

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, m={self.m}, seed={self.seed})"


def code_from_matrix(matrix: Gf2Matrix) -> LinearCode:
    """Wrap an explicit full-rank parity matrix as a decodable code."""
    m, n = matrix.m, matrix.cols
    if m > n:
        raise ContractViolation(f"need m <= n, got m={m} > n={n}")
    if m > TABLE_GUARD_BITS:
        raise CapacityError(f"leader table needs 2^{m} entries, guard is 2^{TABLE_GUARD_BITS}")
    if matrix.rank() != m:
        raise ContractViolation(f"parity matrix rank {matrix.rank()} < m={m}")
    return LinearCode(n, m, matrix, None, *_leader_keys(matrix))


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
            return LinearCode(n, m, matrix, seed, *_leader_keys(matrix))


def exact_error_probability(code: LinearCode, p: float) -> float:
    """Exact probability that the decoded noise pattern differs from the truth.

    A noise word decodes correctly exactly when it is the leader of its coset,
    so P_err = sum_w (C(n, w) - L_w) p^w (1-p)^(n-w), where L_w counts the
    leaders of weight w: `code.leaders_by_weight`, so no leader is read.
    """
    if not 0.0 <= p <= 0.5:
        raise ContractViolation(f"p must lie in [0, 1/2], got {p}")
    n = code.n
    return float(sum((math.comb(n, w) - count) * (p**w * (1.0 - p) ** (n - w))
                     for w, count in enumerate(code.leaders_by_weight)))


def m_for_rate(n: int, rate: float) -> int:
    """Syndrome length for a requested rate: ceil(n * rate), clamped to [0, n].

    The product is taken exactly on the rate as written, its shortest decimal
    form, so 25 * 0.28 is 7 and not the binary 7.000000000000001.
    """
    if not 0.0 <= rate <= 1.0:
        raise ContractViolation(f"rate must lie in [0, 1], got {rate}")
    return min(n, math.ceil(n * Fraction(repr(rate))))

