"""Bit-exact linear algebra over GF(2) on packed integer words."""
from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractViolation

__all__ = [
    "Gf2Vector",
    "Gf2Batch",
    "Gf2Matrix",
    "random_matrix",
]


@dataclass(frozen=True, slots=True, init=False)
class Gf2Vector:
    """Immutable bit vector; bit i of `bits` is symbol i."""

    bits: int
    n: int

    def __init__(self, bits: int, n: int):
        if n < 0 or bits < 0 or bits >> n:
            raise ContractViolation(f"vector length must be non-negative, got {n}" if n < 0
                                    else f"value {bits:#x} does not fit in {n} bits")
        _set_bits(self, bits)
        _set_n(self, n)

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "Gf2Vector":
        word = 0
        n = 0
        for v in values:
            if v not in (0, 1) or not isinstance(v, (int, np.integer)):
                raise ContractViolation(f"entries must be the integers 0 or 1, got {v!r}")
            word |= int(v) << n
            n += 1
        return cls(word, n)

    @classmethod
    def from_string(cls, text: str) -> "Gf2Vector":
        """Parse a '0'/'1' string; character 0 is symbol 0."""
        if not set(text) <= {"0", "1"}:
            raise ContractViolation(f"not a bit string: {text!r}")
        return cls.from_bits(int(c) for c in text)

    @classmethod
    def zeros(cls, n: int) -> "Gf2Vector":
        return cls(0, n)

    def to_string(self) -> str:
        return "".join(str(self[i]) for i in range(self.n))

    def weight(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.n))

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.n != other.n:
            raise ContractViolation(f"length mismatch: {self.n} vs {other.n}")
        return Gf2Vector(self.bits ^ other.bits, self.n)

    def __repr__(self) -> str:
        return f"Gf2Vector('{self.to_string()}')"


_set_bits, _set_n = Gf2Vector.bits.__set__, Gf2Vector.n.__set__  # write-once, past the frozen __setattr__


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Gf2Batch:
    """Vectors of one length n as a 1-D array of `Gf2Vector.bits` words, int64 when
    n <= 63 and Python ints beyond; `^` works word by word, `==` gives one bool each."""

    bits: np.ndarray
    n: int

    def __init__(self, bits, n: int):
        if n < 0:
            raise ContractViolation(f"vector length must be non-negative, got {n}")
        try:
            words = np.asarray(bits, dtype=np.int64 if n < 64 else object)
        except OverflowError:  # a word past 64 bits, refused below
            words = np.asarray(bits, dtype=object)
        wide = (words >> n) != 0
        if wide.any():
            raise ContractViolation(f"value {int(words[wide][0]):#x} does not fit in {n} bits")
        object.__setattr__(self, "bits", words)
        object.__setattr__(self, "n", n)

    def __xor__(self, other: "Gf2Batch") -> "Gf2Batch":
        if self.n != other.n:
            raise ContractViolation(f"length mismatch: {self.n} vs {other.n}")
        return Gf2Batch(self.bits ^ other.bits, self.n)

    def __eq__(self, other: "Gf2Batch") -> np.ndarray:
        return (self.bits == other.bits) & (self.n == other.n)


@dataclass(frozen=True, slots=True)
class Gf2Matrix:
    """Immutable matrix; rows are packed words, bit j of a row is column j."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.cols < 0:
            raise ContractViolation(f"column count must be non-negative, got {self.cols}")
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise ContractViolation(f"row {r:#x} does not fit in {self.cols} columns")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Gf2Matrix":
        packed = [Gf2Vector.from_bits(r) for r in rows]
        if not packed:
            raise ContractViolation("a matrix needs an explicit column count; got no rows")
        width = packed[0].n
        if any(v.n != width for v in packed):
            raise ContractViolation("rows have unequal lengths")
        return cls(tuple(v.bits for v in packed), width)

    @classmethod
    def from_string(cls, text: str) -> "Gf2Matrix":
        """Parse ';'-separated '0'/'1' row strings."""
        return cls.from_rows([int(c) for c in part] for part in text.split(";"))

    @property
    def m(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> Gf2Vector:
        return Gf2Vector(self.rows[i], self.cols)

    def to_string(self) -> str:
        return ";".join(self.row(i).to_string() for i in range(self.m))

    def matvec(self, vec: Gf2Vector | Gf2Batch) -> Gf2Vector | Gf2Batch:
        """H·vec; on a batch of int64 words, bit i of each image is the parity of row i and the word."""
        if vec.n != self.cols:
            raise ContractViolation(f"matrix has {self.cols} columns, vector has {vec.n}")
        if isinstance(vec, Gf2Batch):
            parities = np.bitwise_count(vec.bits[:, None] & np.array(self.rows, dtype=np.int64)) & 1
            return Gf2Batch(parities @ (1 << np.arange(self.m, dtype=np.int64)), self.m)
        word = 0
        for i, row in enumerate(self.rows):
            word |= ((row & vec.bits).bit_count() & 1) << i
        return Gf2Vector(word, len(self.rows))

    def rank(self) -> int:
        return len(echelon(self.rows))

    def __repr__(self) -> str:
        return f"Gf2Matrix('{self.to_string()}')"


def echelon(rows: Iterable[int]) -> list[int]:
    """A basis of the span of packed rows, with distinct leading bits."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return list(basis.values())


def xor_span(words: Sequence[int]) -> np.ndarray:
    """Entry s is the xor of words[i] over the set bits i of s, for every s below 2^len(words)."""
    table = np.zeros(1 << len(words), dtype=np.int64)
    for j, word in enumerate(words):
        np.bitwise_xor(table[: 1 << j], word, out=table[1 << j : 2 << j])
    return table


def linear_map(images: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
    """The linear map sending bit i of a word to images[i], on 1-D arrays of 64-bit words.

    It reads every word one byte at a time, through one 256-entry table per
    byte, and xors the lookups, so its temporaries are a few arrays of the
    input's length. Words must have no bit past the last image.
    """
    tables = [xor_span(images[lo:lo + 8]) for lo in range(0, len(images), 8)]

    def apply(words: np.ndarray) -> np.ndarray:
        octets = words.astype(words.dtype.newbyteorder("<"), copy=False).view(np.uint8).reshape(-1, 8)
        out = np.zeros(len(words), dtype=np.int64)
        for j, table in enumerate(tables):
            out ^= table[octets[:, j]]
        return out

    return apply


_WHOLE, _REVERSED = slice(None), slice(None, None, -1)


def pivot_start(rows: Sequence[int], n: int):
    """The pivot start of a full-rank parity matrix H, given by its packed rows.

    Gauss-Jordan elimination pivots each row on its highest bit, so the pivots
    are the lexicographically last information set: column j is one exactly
    when it is independent of the columns after it. The pivot word of a
    syndrome s is the one word zero off the pivots with H·word = s. Returns:

    - `weights[s]`, the weight of the pivot word of s, for all 2^m syndromes;
    - `units[c]`, the pivot word of unit syndrome c;
    - `free`, per non-pivot column j in increasing order, the slices that
      reverse the `(2,)*m` cube of syndromes (axis a is bit m - 1 - a of s)
      along the axes where adding column j flips s, so the view `cube[flip]`
      holds at s the cell of s xor column j; and the codeword that is 1 at j
      and 0 at every other non-pivot column.
    """
    m = len(rows)
    original, rows, tags, pivots = rows, list(rows), [1 << i for i in range(m)], []
    for i in range(m):
        pivot = 1 << (rows[i].bit_length() - 1)  # the earlier pivots are cleared from row i
        pivots.append(pivot)
        for k in range(m):
            if k != i and rows[k] & pivot:
                rows[k] ^= rows[i]
                tags[k] ^= tags[i]
    # Row i of T·H = R holds pivot i alone among the pivots, so T·s is the
    # pivot word of s on the pivots, and a codeword c at free column j has
    # c[pivot i] = R[i][j].
    units = [sum(pivot for pivot, tag in zip(pivots, tags) if tag >> c & 1) for c in range(m)]
    free, taken = [], sum(pivots)
    for j in range(n):
        if not taken >> j & 1:
            free.append((tuple(_REVERSED if row >> j & 1 else _WHOLE for row in reversed(original)),
                         1 << j | sum(pivot for pivot, row in zip(pivots, rows) if row >> j & 1)))
    return np.bitwise_count(xor_span(units)), units, free


def column(rows: Iterable[int], j: int) -> int:
    """Column j of the matrix with these packed rows, packed: bit i is bit j of row i."""
    return sum(((row >> j) & 1) << i for i, row in enumerate(rows))


def random_matrix(m: int, n: int, rng: Random) -> Gf2Matrix:
    """m-by-n matrix with i.i.d. uniform entries drawn from rng; requires m <= n."""
    if m < 0 or n < 0:
        raise ContractViolation(f"dimensions must be non-negative, got {m}x{n}")
    if m > n:
        raise ContractViolation(f"need m <= n, got m={m} > n={n}")
    return Gf2Matrix(tuple(rng.getrandbits(n) for _ in range(m)), n)
