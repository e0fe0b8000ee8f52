"""Reference code the tests hold the program to; the program itself never calls it.

`enumerate_joint` is the independent oracle of the exact leakage engine
`securesum.analysis.affine_joint`: it walks every (x, y, k) combination, runs
the protocol algebra on all of them at once through its own syndrome and
leader lookups, and returns the exact joint pmf of inputs, messages and output.
`check_lemma1` states the zero-error structure conditions on either engine,
`span_table` evaluates a packed-row map at every word,
`pair_probability` is the source law one pair at a time, `sampled_run`
drives a protocol on inputs drawn from a `random.Random`, `random_pmf`
draws a small pmf to test the information identities on, and `rref_rows`
lists one parity matrix per row space.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, field
from itertools import combinations, product
from random import Random

import numpy as np

from securesum.analysis import (
    _VARIABLES,
    _check_replays,
    _expand,
    _identity,
    _plogp,
    _split,
    _spread,
    conditional_entropy,
    conditional_mutual_information,
)
from securesum.codes import LinearCode
from securesum.errors import CapacityError, ContractViolation
from securesum.gf2 import Gf2Vector, column, xor_span
from securesum.protocol import RunOutcome, check_instance, run
from securesum.source import DsbsParams

# The enumeration walks 2**(2n + klen) atoms; refuse beyond this.
ENUMERATION_GUARD_BITS = 24

_BINCOUNT_MAX_BITS = 22

# Atoms the enumeration computes per block, which bounds its temporaries.
_ATOM_BLOCK = 1 << 20

# Tolerance of the exact zero-error checks of Lemma 1.
_LEMMA1_TOL = 1e-10


@dataclass(eq=False)
class JointPmf:
    """Exact joint pmf over (x, y, k, per-link payloads, zhat), one atom each.

    Columns hold the packed integer value of each variable per atom; `widths`
    gives the bit width of every variable. The variable name "transcript"
    may be used anywhere a variable set is accepted and expands to the
    payloads of all three links. Same entropy interface as
    `securesum.analysis.AffineJoint`.
    """

    protocol: str
    n: int
    m: int
    p: float
    widths: dict[str, int]
    columns: dict[str, np.ndarray]
    probs: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return len(self.probs)

    def total(self) -> float:
        return float(self.probs.sum())

    def entropy(self, variables) -> float:
        """Exact joint entropy (bits) of a set of atom variables."""
        key = _expand(self.widths, variables)
        if key in self._cache:
            return self._cache[key]
        bits = sum(self.widths[name] for name in key)
        if bits > 64:
            raise CapacityError(f"joint key of {', '.join(key)} needs {bits} bits, limit is 64")
        comp = None
        shift = 0
        for name in key:
            w = self.widths[name]
            if w == 0:
                continue
            col = self.columns[name].astype(np.int64) << shift
            comp = col if comp is None else comp | col
            shift += w
        h = 0.0 if comp is None else _grouped_entropy(comp, shift, self.probs)
        self._cache[key] = h
        return h


def _grouped_entropy(keys: np.ndarray, bits: int, probs: np.ndarray) -> float:
    """Entropy (bits) of the `bits`-bit label `keys`, where entry i has mass probs[i]."""
    if bits <= _BINCOUNT_MAX_BITS:
        grouped = np.bincount(keys, weights=probs, minlength=1 << bits)
    else:
        _, inverse = np.unique(keys, return_inverse=True)
        grouped = np.bincount(inverse, weights=probs)
    return _plogp(grouped)


def span_table(rows, cols: int) -> np.ndarray:
    """The map with these packed rows, evaluated at every `cols`-bit word.

    Entry w is the packed image of w: bit i is the parity of row i and w.
    """
    rows = list(rows)
    return xor_span([column(rows, j) for j in range(cols)])


def random_pmf(rng: Random, max_size: int) -> JointPmf:
    """A pmf of random masses on 4 to `max_size` atoms over three variables a, b
    and c of random widths; p is a placeholder, since no entropy reads it."""
    widths = {"a": rng.randint(1, 3), "b": rng.randint(1, 3), "c": rng.randint(1, 2)}
    size = rng.randint(4, max_size)
    columns = {
        name: np.array([rng.randrange(1 << w) for _ in range(size)], dtype=np.int32)
        for name, w in widths.items()
    }
    raw = np.array([rng.random() for _ in range(size)])
    return JointPmf(
        protocol="plain-km", n=1, m=1, p=0.25,
        widths=widths, columns=columns, probs=raw / raw.sum(),
    )


def enumerate_joint(protocol_id: str, code: LinearCode | None, params: DsbsParams) -> JointPmf:
    """Exhaustive pmf over every (x, y, k); one atom per combination.

    A spread sample of atoms is replayed through the message-passing engine
    on every call, so the vectorised algebra cannot drift from the protocols
    it claims to summarise.
    """
    n = params.n
    spec, mlen, klen = check_instance(protocol_id, code, n)
    total_bits = 2 * n + klen
    if total_bits > ENUMERATION_GUARD_BITS:
        raise CapacityError(
            f"joint pmf needs 2^{total_bits} = {1 << total_bits} atoms, guard is 2^{ENUMERATION_GUARD_BITS}"
        )
    # The syndrome of every word, then the leader of every syndrome; both the
    # identity for an uncoded protocol.
    if spec.coded:
        syndrome, decode = span_table(code.matrix.rows, n).take, code.leaders.take
    else:
        syndrome = decode = _identity
    size = 1 << total_bits
    widths = dict(zip(_VARIABLES, (n, n, n, klen, klen, mlen, mlen, n)))
    columns = {name: np.empty(size, dtype=np.int32) for name in _VARIABLES}
    probs = np.empty(size, dtype=np.float64)
    differ, agree = params.p / 2.0, (1.0 - params.p) / 2.0
    ptable = np.array([differ**d * agree ** (n - d) for d in range(n + 1)]) * 0.5**klen
    for lo in range(0, size, _ATOM_BLOCK):
        hi = min(lo + _ATOM_BLOCK, size)
        x, y, k = _split(np.arange(lo, hi, dtype=np.int64), n, klen)
        # k is 0 for an unmasked protocol.
        m13, m23 = k ^ syndrome(x), k ^ syndrome(y)
        # In `_VARIABLES` order: z = x xor y, and m12 carries k.
        for col, values in zip(columns.values(), (x, y, x ^ y, k, k, m13, m23, decode(m13 ^ m23))):
            col[lo:hi] = values
        probs[lo:hi] = ptable[np.bitwise_count(x ^ y)]
    _check_replays(spec, code, n, klen, "enumerated atom", (
        (i, _split(i, n, klen), {name: int(col[i]) for name, col in columns.items()})
        for i in _spread(size)))
    return JointPmf(protocol=protocol_id, n=n, m=mlen, p=params.p,
                    widths=widths, columns=columns, probs=probs)


@dataclass(frozen=True)
class Lemma1Report:
    """Zero-error structure checks for the uncoded one-time-pad scheme."""

    h_x_given_alice_links: float
    h_y_given_bob_links: float
    i_link12_inputs: float
    i_link13_inputs: float
    i_link23_inputs: float

    @property
    def x_recoverable(self) -> bool:
        return abs(self.h_x_given_alice_links) <= _LEMMA1_TOL

    @property
    def y_recoverable(self) -> bool:
        return abs(self.h_y_given_bob_links) <= _LEMMA1_TOL

    @property
    def link12_independent(self) -> bool:
        return abs(self.i_link12_inputs) <= _LEMMA1_TOL

    @property
    def link13_independent(self) -> bool:
        return abs(self.i_link13_inputs) <= _LEMMA1_TOL

    @property
    def link23_independent(self) -> bool:
        return abs(self.i_link23_inputs) <= _LEMMA1_TOL

    @property
    def all_hold(self) -> bool:
        return all(abs(v) <= _LEMMA1_TOL for v in astuple(self))


def check_lemma1(pmf) -> Lemma1Report:
    """Five exact conditions: x and y recoverable from their owners' links,
    and every single link statistically independent of the input pair."""
    return Lemma1Report(
        h_x_given_alice_links=conditional_entropy(pmf, "x", ("m12", "m13")),
        h_y_given_bob_links=conditional_entropy(pmf, "y", ("m12", "m23")),
        i_link12_inputs=conditional_mutual_information(pmf, "m12", ("x", "y")),
        i_link13_inputs=conditional_mutual_information(pmf, "m13", ("x", "y")),
        i_link23_inputs=conditional_mutual_information(pmf, "m23", ("x", "y")),
    )


def pair_probability(params: DsbsParams, x: Gf2Vector, y: Gf2Vector) -> float:
    """Exact joint probability of observing the pair (x, y)."""
    if x.n != params.n or y.n != params.n:
        raise ContractViolation(f"vectors must have length {params.n}, got {x.n} and {y.n}")
    agree = (1.0 - params.p) / 2.0
    differ = params.p / 2.0
    diff = x.bits ^ y.bits
    prob = 1.0
    for i in range(params.n):
        prob *= differ if (diff >> i) & 1 else agree
    return prob


def sampled_run(protocol_id: str, params: DsbsParams, code: LinearCode | None,
                rng: Random) -> tuple[Gf2Vector, Gf2Vector, RunOutcome]:
    """(x, y, run) of the named protocol on inputs drawn from rng, in this order:
    x = getrandbits(n); noise bit i, for i = 0, 1, ..., set when random() < p;
    then, for a masked scheme, the key getrandbits(klen). y = x xor noise."""
    spec, _, klen = check_instance(protocol_id, code, params.n)
    n = params.n
    x = rng.getrandbits(n)
    noise = sum(1 << i for i in range(n) if rng.random() < params.p)
    xv, yv = Gf2Vector(x, n), Gf2Vector(x ^ noise, n)
    k = Gf2Vector(rng.getrandbits(klen), klen) if spec.masked else None
    return xv, yv, run(protocol_id, code, xv, yv, k)


def rref_rows(n: int):
    """The rows of every full-rank n-column parity matrix in reduced row echelon
    form, one per row space: each row leads with its own pivot bit, and every
    other bit below it that no row pivots on is free."""
    for m in range(n + 1):
        for pivots in combinations(range(n), m):
            free = [[j for j in range(pivot) if j not in pivots] for pivot in pivots]
            for fill in product(*(range(1 << len(bits)) for bits in free)):
                yield tuple(1 << pivot | sum(1 << j for b, j in enumerate(bits) if value >> b & 1)
                            for pivot, bits, value in zip(pivots, free, fill))
