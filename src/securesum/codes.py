"""Random binary linear codes with exact coset-leader syndrome decoding."""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from .errors import CapacityError, ContractViolation
from .gf2 import Gf2Matrix, Gf2Vector, column, random_matrix

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


# The leader search reads the table in blocks of `_BLOCK` syndromes and
# extends their leaders in passes of at most about `_PASS` candidates; the bit
# reversal takes `_PASS` words a pass. So temporaries stay small beside the table.
_BLOCK = 1 << 16
_PASS = 1 << 12

# Bit-reversed value of every byte.
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _bit_reverse(words: np.ndarray, n: int) -> np.ndarray:
    """Reverse the low n bits of each non-negative int64 word, in place.

    Reversing a block's bytes in memory order and the bits of each byte
    reverses all 64 bits of every word, and the order of the words, on either
    byte order. The shift down to n bits runs on unsigned words, since bit 63
    may now be set and an int64 shift would copy it down.
    """
    for lo in range(0, len(words), _PASS):
        block = words[lo:lo + _PASS]
        swapped = _REVERSED_BYTES.take(block.view(np.uint8)[::-1]).view(np.uint64)
        block[:] = (swapped[::-1] >> np.uint64(64 - n)).view(np.int64)
    return words


def _extensions(words: np.ndarray, n: int):
    """(word index, bit) pairs, in runs of whole words of about `_PASS` pairs.

    A word pairs with each bit below its lowest set bit; the zero word with all n.
    """
    counts = np.minimum(np.bitwise_count(((words & -words) - 1).view(np.uint64)), n)
    ends = np.cumsum(counts, dtype=np.int64)
    lo = 0
    while lo < len(words):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + _PASS, "right")), lo + 1)
        run = counts[lo:hi]
        yield (np.repeat(np.arange(lo, hi), run),
               np.arange(base, ends[hi - 1]) - np.repeat(ends[lo:hi] - run, run))
        lo = hi


def _leader_table(matrix: Gf2Matrix) -> np.ndarray:
    """Coset leaders by a breadth-first search over syndromes, one weight per layer.

    The search runs on bit-reversed words, where symbol 0 is the most
    significant bit and the tie-break is plain integer order. If w is the
    leader of s and bit j is its lowest set bit, then w ^ (1 << j) is the
    leader of s ^ h_j, where h_j is the column of that bit. So layer w extends
    each leader of weight w - 1 by every bit below its lowest set bit, and each
    syndrome still unfilled before the layer keeps its least candidate. A
    layer is one vectorised pass over its candidates, split into bounded runs
    (`_BLOCK`, `_PASS`) that leave the minimum over the same candidates.
    """
    n, m = matrix.cols, matrix.m
    if n > WORD_GUARD_BITS:
        raise CapacityError(f"leader words are packed in int64, so n <= {WORD_GUARD_BITS}; got n={n}")
    cols = np.array([column(matrix.rows, n - 1 - j) for j in range(n)], dtype=np.int64)
    empty = np.iinfo(np.int64).max  # above every leader, whose weight is <= m < 63
    rev = np.full(1 << m, empty, dtype=np.int64)
    rev[0] = 0
    layer = rev == 0  # the syndromes whose leaders the last layer found
    while layer.any():
        still_open = rev == empty
        for lo in range(0, len(rev), _BLOCK):
            synd = np.flatnonzero(layer[lo:lo + _BLOCK]) + lo
            words = rev[synd]
            for leader, bit in _extensions(words, n):
                s = synd[leader] ^ cols[bit]
                keep = still_open[s]
                np.minimum.at(rev, s[keep], words[leader[keep]] | 1 << bit[keep])
        layer = still_open & (rev != empty)
    if (rev == empty).any():
        raise ContractViolation("matrix is not full rank: some syndromes unreachable")
    return _bit_reverse(rev, n)


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

    def syndrome(self, word: Gf2Vector) -> Gf2Vector:
        if word.n != self.n:
            raise ContractViolation(f"code expects length {self.n}, got {word.n}")
        return self.matrix.matvec(word)

    def decode(self, synd: Gf2Vector) -> Gf2Vector:
        if synd.n != self.m:
            raise ContractViolation(f"syndrome must have length {self.m}, got {synd.n}")
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
    return LinearCode(n=n, m=m, matrix=matrix, seed=None, leaders=_leader_table(matrix))


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


def exact_error_probability(code: LinearCode, p: float) -> float:
    """Exact probability that the decoded noise pattern differs from the truth.

    A noise word decodes correctly exactly when it is the leader of its coset,
    so P_err = sum_w (C(n, w) - L_w) p^w (1-p)^(n-w), where L_w counts the
    leaders of weight w.
    """
    if not 0.0 <= p <= 0.5:
        raise ContractViolation(f"p must lie in [0, 1/2], got {p}")
    n = code.n
    leaders_by_weight = np.bincount(np.bitwise_count(code.leaders), minlength=n + 1)
    return float(sum((math.comb(n, w) - int(count)) * (p**w * (1.0 - p) ** (n - w))
                     for w, count in enumerate(leaders_by_weight)))


def m_for_rate(n: int, rate: float) -> int:
    """Syndrome length for a requested rate: ceil(n * rate), clamped to [0, n].

    The product is taken exactly on the rate as written, its shortest decimal
    form, so 25 * 0.28 is 7 and not the binary 7.000000000000001.
    """
    if rate < 0.0 or rate > 1.0:
        raise ContractViolation(f"rate must lie in [0, 1], got {rate}")
    digits, _, exponent = repr(rate).partition("e")
    whole, _, fraction = digits.partition(".")
    # rate == int(whole + fraction) / 10**scale, and scale >= 0 since rate <= 1.
    scale = len(fraction) - int(exponent or 0)
    return min(n, -(-n * int(whole + fraction) // 10**scale))

