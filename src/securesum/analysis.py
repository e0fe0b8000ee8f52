"""Exact joint-distribution accounting for protocol runs.

`affine_joint` uses the affine structure of the protocols: every variable is a
linear function of the uniform (x, k) plus a function of the noise word
z = x xor y alone, so a joint entropy is a rank plus the entropy of a function
of z, which is 0, H(z), or a function of the syndrome of z grouped over its
2^m values. Privacy and conditional-entropy quantities are only ever computed
exactly; sampling is used for error rates alone.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import Sequence

import numpy as np

from .codes import TABLE_GUARD_BITS, WORD_GUARD_BITS, LinearCode
from .errors import CapacityError, ConfigurationError, ContractViolation
from .gf2 import Gf2Batch, column, echelon, linear_map, pivot_start
from .protocol import ALICE, BOB, CHARLIE, ProtocolSpec, check_instance, run
from .source import DsbsParams, binary_entropy

__all__ = [
    "AffineJoint",
    "LeakageReport",
    "RateReport",
    "MonteCarloError",
    "affine_joint",
    "conditional_entropy",
    "conditional_mutual_information",
    "leakage_report",
    "rate_report",
    "check_rate_region",
    "monte_carlo_error",
    "REGION_SLACK",
]

# Tolerance used when deciding membership of a rate quadruple.
REGION_SLACK = 1e-9

# The variables of one run, in column order.
_VARIABLES = ("x", "y", "z", "k", "m12", "m13", "m23", "zhat")
# Atoms or trials every batch engine replays through the message-passing code per call.
_REPLAYS = 64
# 2^64 / golden ratio: a stride that spreads samples over every bit of an index.
_GOLDEN_64 = 0x9E3779B97F4A7C15

# Generator bytes drawn per Monte Carlo batch, which bounds the batch's memory
# whatever the trial count or block length.
_MC_BATCH_BYTES = 1 << 16


def _expand(widths: dict[str, int], variables) -> tuple[str, ...]:
    """Sorted variable names of a set; "transcript" stands for all three links, empty or not."""
    names: list[str] = []
    for name in _names(variables):
        if name == "transcript":
            names.extend(("m12", "m13", "m23"))
        elif name in widths:
            names.append(name)
        else:
            raise ConfigurationError(f"unknown variable {name!r}; have {sorted(widths)}")
    return tuple(sorted(set(names)))


@dataclass(eq=False)
class AffineJoint:
    """Exact joint law of (x, y, z, k, per-link payloads, zhat) from its affine form.

    Every variable is A·(x, k) xor C·(z, zhat): x and the key k are uniform and
    independent of the noise word z = x xor y, and zhat depends on z alone.
    Given z, a variable set V is uniform on a coset of the image of A_V, so
    H(V) = rank(A_V) + H(B_V·(z, zhat)), where the rows of B_V span the
    combinations of V's bits that cancel (x, k).

    `rows[name]` holds one packed row per bit of the variable over the word
    z | zhat << n | x << 2n | k << 3n, so the (x, k) part sits in the high bits
    and elimination by leading bit clears it first. zhat is the coset leader
    of the syndrome s = H·z: `parity` holds the m rows of H and `leaders[s]` the
    leader of each syndrome. An uncoded protocol sends z itself, so its H is
    the identity and `leaders` is None, the identity map.
    """

    protocol: str
    n: int
    m: int
    p: float
    widths: dict[str, int]
    rows: dict[str, tuple[int, ...]]
    parity: tuple[int, ...]
    leaders: np.ndarray | None
    _cache: dict = field(default_factory=dict, repr=False)

    def entropy(self, variables) -> float:
        """Exact joint entropy (bits) of a set of variables."""
        key = _expand(self.widths, variables)
        if key in self._cache:
            return self._cache[key]
        basis = echelon(row for name in key for row in self.rows[name])
        noise = [row for row in basis if row >> (2 * self.n) == 0]
        h = len(basis) - len(noise) + self._noise_entropy(noise)
        self._cache[key] = h
        return h

    def _noise_entropy(self, noise: list[int]) -> float:
        """H(B·(z, zhat)) for the echelon rows B, none of which reads x or k.

        No rows: 0. Rows that read z back: zhat is a function of z, so H(z).
        Otherwise each z-part g must lie in the row space of H; then
        g·z = g·zhat, since H·zhat = H·z, and B·(z, zhat) = G·zhat with the
        z-part of each row folded onto its zhat part. That is a function of
        the syndrome s, and every named variable set gives s back through it,
        so it carries H(s); a G that loses s is refused.
        """
        n = self.n
        if not noise:
            return 0.0
        if sum(row >> n == 0 for row in noise) == n:
            return n * binary_entropy(self.p)
        zmask = (1 << n) - 1
        if len(echelon([*self.parity, *(row & zmask for row in noise)])) > self.m:
            raise CapacityError("a noise combination reads z outside the row space of H")
        folded = echelon((row ^ row >> n) & zmask for row in noise)
        if not folded:
            return 0.0
        if len(echelon([*folded, *self.parity])) > len(folded):
            raise CapacityError("a noise combination is a function of the syndrome that loses it")
        return self.syndrome_entropy

    @cached_property
    def syndrome_entropy(self) -> float:
        """H(s) of the syndrome s = H·z; an uncoded protocol's syndrome is z."""
        if self.leaders is None:
            return self.n * binary_entropy(self.p)
        return _plogp(_syndrome_law(self.parity, self.n, self.p))


def _syndrome_law(parity: tuple[int, ...], n: int, p: float) -> np.ndarray:
    """P(s) of s = H·z for z with independent Bernoulli(p) bits, H given by its rows.

    The law starts where the leader table does, from `pivot_start`: if z is
    zero off the pivots, z is the pivot word of s, so P(s) = p^w (1 - p)^(m - w)
    with w the weight of that word. Each free column h of H then takes one flip
    pass: P <- (1 - p)·P + p·P[s xor h]. Each cell is a sum of non-negative
    products, so none cancels below zero. A pass works on the (2,)*m view of P,
    whose axis a is bit m - 1 - a of s, so P[s xor h] is P flipped along the
    axes of h's set bits: a view, with no index array.
    """
    m = len(parity)
    weights, _, free = pivot_start(parity, n)
    law = np.array([p**w * (1.0 - p) ** (m - w) for w in range(m + 1)])[weights]
    cube = law.reshape((2,) * m)
    moved = np.empty_like(cube)
    for flip, _ in free:
        np.multiply(cube[flip], p, out=moved)
        cube *= 1.0 - p
        cube += moved
    return law


def _plogp(probs: np.ndarray) -> float:
    """-sum(q log2 q) over the cells of probs with q > 0."""
    terms = np.log2(probs, out=np.zeros_like(probs), where=probs > 0.0)
    terms *= probs
    return float(-terms.sum())


def _names(variables) -> tuple[str, ...]:
    """A variable set as a tuple of names: one name, or an iterable of them."""
    return (variables,) if isinstance(variables, str) else tuple(variables)


def conditional_entropy(pmf: AffineJoint, target, given=()) -> float:
    """H(target | given) = H(target, given) - H(given)."""
    given = _names(given)
    return pmf.entropy(_names(target) + given) - pmf.entropy(given)


def conditional_mutual_information(pmf: AffineJoint, a, b, given=()) -> float:
    """I(a; b | given), exact up to floating-point cancellation."""
    a, b, c = _names(a), _names(b), _names(given)
    return pmf.entropy(a + c) + pmf.entropy(b + c) - pmf.entropy(a + b + c) - pmf.entropy(c)


def _split(index, n: int, klen: int):
    """(x, y, k) of an atom index (x << n | y) << klen | k, or of an array of them."""
    return index >> (klen + n), (index >> klen) & ((1 << n) - 1), index & ((1 << klen) - 1)


def _identity(words):
    return words


def _spread(size: int) -> list[int]:
    """Up to `_REPLAYS` distinct indices below `size`, at the first stride from
    size/phi, made odd, that is coprime to `size`.

    An atom index (x << n | y) << klen | k taken this way varies x, y and k alike.
    """
    stride = (size * _GOLDEN_64 >> 64) | 1
    while math.gcd(stride, size) != 1:
        stride += 2
    return [i * stride % size for i in range(min(_REPLAYS, size))]


def _check_replays(spec: ProtocolSpec, code: LinearCode | None, n: int, klen: int,
                   what: str, atoms) -> None:
    """Raise unless each (label, (x, y, k), values) atom of a batch engine agrees
    with the message-passing code on that x, y and k: one `protocol.run` on
    `Gf2Batch`es runs all atoms, its syndromes row parities apart from the
    engines' byte tables. `values` maps the names the engine computed, any of
    the replay's, to their values; each is compared with the replay's over all
    atoms, and the error names the first atom that disagrees. The inputs come
    apart from the values, so an engine that misreads x, y or k alike in every
    variable is still caught."""
    labels, inputs, values = zip(*atoms)
    x, y, k = (Gf2Batch(words, width) for words, width in zip(zip(*inputs), (n, n, klen)))
    out = run(spec.name, code, x, y, k)
    link = out.transcript.link_payload
    replay = {"x": x.bits, "y": y.bits, "z": (x ^ y).bits, "k": k.bits, "m12": link(ALICE, BOB).bits,
              "m13": link(ALICE, CHARLIE).bits, "m23": link(BOB, CHARLIE).bits,
              "zhat": out.z_hat.bits, "wrong": ~out.correct}
    agree = np.ones(len(labels), dtype=bool)
    for name in {name for named in values for name in named}:
        agree &= replay[name] == np.array([named[name] for named in values], dtype=object)
    if not agree.all():
        raise RuntimeError(f"{what} {labels[np.argmin(agree)]} disagrees with protocol replay")


def affine_joint(protocol_id: str, code: LinearCode | None, params: DsbsParams) -> AffineJoint:
    """Exact joint law of one instance from its affine description.

    Words are packed in int64, so n <= 63. A code needs the leader of every
    syndrome, so m <= 24 as for its leader table; an uncoded protocol's
    syndrome is z, whose entropy has a closed form. Every call evaluates the
    description at a spread sample of 64 distinct (x, y, k) atoms and compares
    it with one batched replay of them through the message-passing engine, so
    the algebra cannot drift from the protocols it claims to summarise.
    """
    n = params.n
    spec, mlen, klen = check_instance(protocol_id, code, n)
    if n > WORD_GUARD_BITS:
        raise CapacityError(f"exact leakage packs words in int64, so n <= {WORD_GUARD_BITS}; got n={n}")
    if spec.coded and mlen > TABLE_GUARD_BITS:
        raise CapacityError(f"exact leakage groups 2^{mlen} syndromes, guard is 2^{TABLE_GUARD_BITS}")
    rows = _affine_rows(spec, code, n, mlen, klen)
    joint = AffineJoint(
        protocol=protocol_id, n=n, m=mlen, p=params.p,
        widths={name: len(r) for name, r in rows.items()}, rows=rows,
        parity=_parity(spec, code, n), leaders=code.leaders if spec.coded else None,
    )
    # Atom indices have 2n + klen bits, up to 150, so they are split as Python ints.
    atoms = [(i, _split(i, n, klen)) for i in _spread(1 << (2 * n + klen))]
    x, y, k = (np.array(col, dtype=np.int64) for col in zip(*(xyk for _, xyk in atoms)))
    values = zip(*(col.tolist() for col in _evaluate(joint, x, y, k)))
    _check_replays(spec, code, n, klen, "affine atom",
                   ((i, xyk, dict(zip(_VARIABLES, v))) for (i, xyk), v in zip(atoms, values)))
    return joint


def _parity(spec: ProtocolSpec, code: LinearCode | None, n: int) -> tuple[int, ...]:
    """The map each party applies to its own input before masking: H, or the identity."""
    return code.matrix.rows if spec.coded else tuple(1 << i for i in range(n))


def _affine_rows(spec: ProtocolSpec, code: LinearCode | None, n: int,
                 mlen: int, klen: int) -> dict[str, tuple[int, ...]]:
    """One packed row per variable bit over the word z | zhat << n | x << 2n | k << 3n."""
    Z, ZH, X, K = 0, n, 2 * n, 3 * n
    eye = [1 << i for i in range(n)]
    parity = _parity(spec, code, n)
    key = _shift(K, [1 << i for i in range(klen)])
    mask = key if spec.masked else (0,) * mlen
    m13 = _xor(mask, _shift(X, parity))
    return {
        "x": _shift(X, eye),
        "y": _xor(_shift(X, eye), _shift(Z, eye)),
        "z": _shift(Z, eye),
        "k": key,
        "m12": key,
        "m13": m13,
        "m23": _xor(m13, _shift(Z, parity)),  # mask xor parity(y), y = x xor z
        "zhat": _shift(ZH, eye),
    }


def _shift(offset: int, words) -> tuple[int, ...]:
    return tuple(w << offset for w in words)


def _xor(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(u ^ v for u, v in zip(a, b, strict=True))


def _evaluate(joint: AffineJoint, x: np.ndarray, y: np.ndarray,
              k: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every variable, in `_VARIABLES` order, at arrays of (x, y, k) atoms, read
    off the affine description; zhat is z through the shared batch decoder.

    A variable bit is the parity of its packed row ANDed with the atom's word
    z | zhat << n | x << 2n | k << 3n: one product of the rows' bits with the
    words' bits. A second product weighs each bit by its place in its variable.
    """
    n = joint.n
    z = x ^ y
    zhat = _batch_decoder(joint.parity, joint.leaders, n)(z.astype("<i8")[:, None])[:, 0]
    rows = [row for rows in joint.rows.values() for row in rows]
    size = -(-4 * n // 8)
    packed = np.frombuffer(b"".join(row.to_bytes(size, "little") for row in rows), dtype=np.uint8)
    row_bits = np.unpackbits(packed.reshape(len(rows), size), axis=1, count=4 * n, bitorder="little")
    fields = np.stack([z, zhat, x, k]).astype("<u8").view(np.uint8).reshape(4, len(x), 8)
    word_bits = np.unpackbits(fields, axis=2, count=n, bitorder="little").transpose(0, 2, 1)
    # Each count is at most 4n, so the float product is exact.
    bits = (row_bits @ word_bits.reshape(4 * n, len(x)).astype(np.float64)).astype(np.int64) & 1
    places = np.zeros((len(joint.rows), len(rows)), dtype=np.int64)
    lo = 0
    for index, width in enumerate(map(len, joint.rows.values())):
        places[index, lo:lo + width] = 1 << np.arange(width)
        lo += width
    return tuple(places @ bits)


@dataclass(frozen=True)
class LeakageReport:
    """Per-symbol leakage: eps1/eps2 are the Alice/Bob-facing conditional
    mutual informations, eps3 the Charlie-facing one, eps4 the residual
    equivocation of the true sum given the decoded sum."""

    eps1: float
    eps2: float
    eps3: float
    eps4: float


def leakage_report(pmf: AffineJoint) -> LeakageReport:
    n = pmf.n
    return LeakageReport(
        eps1=conditional_mutual_information(pmf, ("m13", "m12"), "y", "x") / n,
        eps2=conditional_mutual_information(pmf, ("m23", "m12"), "x", "y") / n,
        eps3=conditional_mutual_information(pmf, ("m13", "m23"), ("x", "y"), "z") / n,
        eps4=conditional_entropy(pmf, "z", "zhat") / n,
    )


@dataclass(frozen=True)
class RateReport:
    """Per-symbol link rates, randomness rate rho, and the code rate m/n."""

    r13: float
    r23: float
    r12: float
    rho: float
    realized_R: float

    def quadruple(self) -> tuple[float, float, float, float]:
        return (self.r13, self.r23, self.r12, self.rho)


def rate_report(pmf: AffineJoint) -> RateReport:
    n = pmf.n
    return RateReport(
        r13=pmf.widths["m13"] / n,
        r23=pmf.widths["m23"] / n,
        r12=pmf.widths["m12"] / n,
        rho=conditional_entropy(pmf, ("m12", "m13", "m23"), ("x", "y")) / n,
        realized_R=pmf.m / n,
    )


def check_rate_region(quad: Sequence[float], p: float) -> bool:
    """True when min(r13, r23, r12, rho) clears the binary entropy of p."""
    values = tuple(float(v) for v in quad)
    if len(values) != 4:
        raise ContractViolation(f"need a quadruple, got {len(values)} values")
    if not all(map(math.isfinite, values)):
        raise ContractViolation(f"rates must be finite, got {values}")
    return min(values) >= binary_entropy(p) - REGION_SLACK


@dataclass(frozen=True)
class MonteCarloError:
    trials: int
    errors: int
    p_err: float
    half_width_3sigma: float


def monte_carlo_error(
    protocol_id: str,
    code: LinearCode | None,
    params: DsbsParams,
    trials: int,
    rng: Random,
) -> MonteCarloError:
    """Fraction of incorrect runs over fresh samples, with a 3-sigma Wilson half-width.

    Trial t reads row t of the bytes drawn by `rng.randbytes`: x in 4·ceil(n/32)
    bytes, one little-endian 64-bit word per noise bit, set when the word is
    below ceil(p·2^64), then the key in 4·ceil(klen/32) bytes; x and the key
    keep their low n and klen bits. A row is whole 32-bit words, so the batch
    size never changes what a trial reads. Charlie decodes m13 xor m23 = H·z,
    so a run is wrong exactly when the batch decoder maps the noise word z to
    another word, and a batch computes nothing but z, its decoded sum and that
    verdict. A batch holds at most 64 KiB of row bytes, or one wider row.
    Every call replays a spread sample of 64 distinct trials in one batched run
    of the message-passing code on the (x, y, k) read from their row bytes
    alone, and compares those three by name, so the batch can drift neither
    from the protocols nor from the trial bytes.
    """
    if trials < 1:
        raise ContractViolation(f"need at least one trial, got {trials}")
    n = params.n
    spec, _, klen = check_instance(protocol_id, code, n)
    if rng is None:
        raise ContractViolation("an explicit rng is required")
    width = 4 * -(-n // 32) + 8 * n + 4 * -(-klen // 32)
    batch = max(1, _MC_BATCH_BYTES // width)
    decode = _batch_decoder(_parity(spec, code, n), code.leaders if spec.coded else None, n)
    limit = math.ceil(params.p * 2.0**64)
    replayed = _spread(trials)

    errors = 0
    seen: dict[int, tuple] = {}
    for lo in range(0, trials, batch):
        count = min(batch, trials - lo)
        raw = rng.randbytes(width * count)
        z = _batch_noise(np.frombuffer(raw, dtype=np.uint8).reshape(count, width), n, limit)
        zhat = decode(z)
        wrong = (zhat != z).any(axis=1)
        errors += int(np.count_nonzero(wrong))
        for i in [i for i in replayed if lo <= i < lo + count]:
            j = i - lo
            seen[i] = (_trial_inputs(raw[j * width : (j + 1) * width], n, klen, limit),
                       {"z": _word(z, j), "zhat": _word(zhat, j), "wrong": bool(wrong[j])})

    _check_replays(spec, code, n, klen, "Monte Carlo trial", ((i, *seen[i]) for i in replayed))
    # The larger distance from p_hat to an end of its z = 3 Wilson score interval.
    p_hat = errors / trials
    half_width = (3.0 * math.sqrt(errors * (trials - errors) / trials + 2.25)
                  + 4.5 * abs(1.0 - 2.0 * p_hat)) / (trials + 9.0)
    return MonteCarloError(trials=trials, errors=errors, p_err=p_hat, half_width_3sigma=half_width)


def _batch_noise(rows: np.ndarray, n: int, limit: int) -> np.ndarray:
    """Noise words of the trials whose bytes are the rows of `rows`, as
    little-endian 64-bit word rows."""
    xbytes = 4 * -(-n // 32)
    flips = rows[:, xbytes : xbytes + 8 * n].view("<u8") < np.uint64(limit)
    noise = np.zeros((len(rows), 8 * -(-n // 64)), dtype=np.uint8)
    noise[:, : -(-n // 8)] = np.packbits(flips, axis=1, bitorder="little")
    return noise.view("<u8")


def _trial_inputs(row: bytes, n: int, klen: int, limit: int) -> tuple[int, int, int]:
    """(x, y, k) of one trial from its row of generator bytes, apart from the batch decode."""
    xbytes = 4 * -(-n // 32)
    x = int.from_bytes(row[:xbytes], "little") & ((1 << n) - 1)
    z = sum(1 << i for i, word in enumerate(struct.unpack_from(f"<{n}Q", row, xbytes)) if word < limit)
    return x, x ^ z, int.from_bytes(row[xbytes + 8 * n :], "little") & ((1 << klen) - 1)


def _batch_decoder(parity: tuple[int, ...], leaders: np.ndarray | None, n: int):
    """The map from noise words z, little-endian 64-bit word rows, to their
    decoded sums in the same layout: the leader of the syndrome H·z, where
    `parity` holds the rows of H, or z itself when uncoded (`leaders` None).
    A coded z is one word, since the leader table needs n <= 63."""
    if leaders is None:
        return _identity
    syndrome = linear_map([column(parity, j) for j in range(n)])
    return lambda z: leaders[syndrome(z[:, 0])].astype(z.dtype)[:, None]


def _word(words: np.ndarray, j: int) -> int:
    """Row j of little-endian word rows, as one int."""
    return int.from_bytes(words[j].tobytes(), "little")

