"""Exact joint-distribution accounting for protocol runs.

Two exact engines answer the same entropy queries. `affine_joint` uses the
affine structure of the protocols: every variable is a linear function of the
uniform (x, k) plus a function of the noise word z = x xor y alone, so a joint
entropy is a rank plus a sum over the 2^n noise words. `enumerate_joint` is the
oracle: it walks every (x, y, k) combination, replays the protocol algebra on
all of them at once, and returns the exact joint pmf of inputs, messages, and
output. Privacy and conditional-entropy quantities are only ever computed
exactly; sampling is used for error rates alone.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import partial
from random import Random
from typing import Sequence

import numpy as np

from .codes import ENUMERATION_GUARD_BITS, LinearCode
from .errors import CapacityError, ConfigurationError, ContractViolation
from .gf2 import Gf2Vector, echelon, span_table
from .protocol import (
    PROTOCOLS,
    PartyId,
    ProtocolSpec,
    RunOutcome,
    check_instance,
    run_plain_km,
    run_secure_km,
    run_with_sampling,  # noqa: F401 - perfbench/tracing.py wraps the name in this module
    run_zero_error_otp,
)
from .source import DsbsParams, binary_entropy

__all__ = [
    "AffineJoint",
    "JointPmf",
    "LeakageReport",
    "RateReport",
    "Lemma1Report",
    "MonteCarloError",
    "affine_joint",
    "enumerate_joint",
    "entropy",
    "conditional_entropy",
    "conditional_mutual_information",
    "leakage_report",
    "rate_report",
    "check_rate_region",
    "check_lemma1",
    "monte_carlo_error",
    "REGION_SLACK",
]

# Tolerance used when deciding membership of a rate quadruple.
REGION_SLACK = 1e-9

_CHUNK = 1 << 20
_BINCOUNT_MAX_BITS = 22

# Tolerance of the exact zero-error checks of Lemma 1.
_LEMMA1_TOL = 1e-10

# The variables of one run, in column order.
_VARIABLES = ("x", "y", "z", "k", "m12", "m13", "m23", "zhat")
# Atoms or trials every batch engine replays through the message-passing code per call.
_REPLAYS = 64
# 2^64 / golden ratio: a stride that spreads samples over every bit of an index.
_GOLDEN_64 = 0x9E3779B97F4A7C15

# Generator bytes drawn per Monte Carlo batch, which bounds the batch's memory
# whatever the trial count or block length.
_MC_BATCH_BYTES = 1 << 15


@dataclass(eq=False)
class JointPmf:
    """Exact joint pmf over (x, y, k, per-link payloads, zhat), one atom each.

    Columns hold the packed integer value of each variable per atom; `widths`
    gives the bit width of every variable. The variable name "transcript"
    may be used anywhere a variable set is accepted and expands to the
    schedule-ordered link payloads.
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
        key = _expand(self.protocol, self.widths, variables)
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


def _expand(protocol: str, widths: dict[str, int], variables) -> tuple[str, ...]:
    """Sorted variable names of a set; "transcript" stands for the link payloads."""
    names: list[str] = []
    for name in _names(variables):
        if name == "transcript":
            names.extend(PROTOCOLS[protocol].schedule)
        elif name in widths:
            names.append(name)
        else:
            raise ConfigurationError(f"unknown variable {name!r}; have {sorted(widths)}")
    return tuple(sorted(set(names)))


def _grouped_entropy(keys: np.ndarray, bits: int, probs: np.ndarray) -> float:
    """Entropy (bits) of the `bits`-bit label `keys`, where entry i has mass probs[i]."""
    if bits <= _BINCOUNT_MAX_BITS:
        grouped = np.bincount(keys, weights=probs, minlength=1 << bits)
    else:
        _, inverse = np.unique(keys, return_inverse=True)
        grouped = np.bincount(inverse, weights=probs)
    nz = grouped[grouped > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


@dataclass(eq=False)
class AffineJoint:
    """Exact joint law of (x, y, z, k, per-link payloads, zhat) from its affine form.

    Every variable is A·(x, k) xor C·(z, zhat): x and the key k are uniform and
    independent of the noise word z = x xor y, and zhat depends on z alone.
    Given z, a variable set V is uniform on a coset of the image of A_V, so
    H(V) = rank(A_V) + H(B_V·(z, zhat)), where the rows of B_V span the
    combinations of V's bits that cancel (x, k). The second term is a sum over
    the 2^n noise words. Same entropy interface as `JointPmf`.

    `rows[name]` holds one packed row per bit of the variable over the word
    z | zhat << n | x << 2n | k << 3n, so the (x, k) part sits in the high bits
    and elimination by leading bit clears it first. `zhat[z]` and `probs[z]`
    are the decoded sum and the probability of every noise word.
    """

    protocol: str
    n: int
    m: int
    p: float
    widths: dict[str, int]
    rows: dict[str, tuple[int, ...]]
    zhat: np.ndarray
    probs: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def entropy(self, variables) -> float:
        """Exact joint entropy (bits) of a set of variables."""
        key = _expand(self.protocol, self.widths, variables)
        if key in self._cache:
            return self._cache[key]
        basis = echelon(row for name in key for row in self.rows[name])
        noise = [row for row in basis if row >> (2 * self.n) == 0]
        h = len(basis) - len(noise) + self._noise_entropy(noise)
        self._cache[key] = h
        return h

    def _noise_entropy(self, noise: list[int]) -> float:
        """H(B·(z, zhat)) for the rows B, summed over every noise word z."""
        if not noise:
            return 0.0
        nmask = (1 << self.n) - 1
        keys = span_table((row & nmask for row in noise), self.n)
        if any(row >> self.n for row in noise):
            keys ^= span_table((row >> self.n for row in noise), self.n)[self.zhat]
        return _grouped_entropy(keys, len(noise), self.probs)


def entropy(pmf: JointPmf | AffineJoint, variables) -> float:
    return pmf.entropy(variables)


def _names(variables) -> tuple[str, ...]:
    """A variable set as a tuple of names: one name, or an iterable of them."""
    return (variables,) if isinstance(variables, str) else tuple(variables)


def conditional_entropy(pmf: JointPmf | AffineJoint, target, given=()) -> float:
    """H(target | given) = H(target, given) - H(given)."""
    given = _names(given)
    return pmf.entropy(_names(target) + given) - pmf.entropy(given)


def conditional_mutual_information(pmf: JointPmf | AffineJoint, a, b, given=()) -> float:
    """I(a; b | given), exact up to floating-point cancellation."""
    a, b, c = _names(a), _names(b), _names(given)
    return pmf.entropy(a + c) + pmf.entropy(b + c) - pmf.entropy(a + b + c) - pmf.entropy(c)


def enumerate_joint(protocol_id: str, code: LinearCode | None, params: DsbsParams) -> JointPmf:
    """Exhaustive pmf over every (x, y, k); one atom per combination.

    A spread sample of atoms is replayed through the message-passing engine
    on every call, so the vectorised algebra cannot drift from the protocols
    it claims to summarise.
    """
    n = params.n
    spec, mlen, klen = check_instance(protocol_id, code, n)
    if spec.coded:
        syndrome, decode = code.syndrome_table().take, code.leaders.take
    else:
        syndrome = decode = _identity
    total_bits = 2 * n + klen
    if total_bits > ENUMERATION_GUARD_BITS:
        raise CapacityError(
            f"joint pmf needs 2^{total_bits} = {1 << total_bits} atoms, guard is 2^{ENUMERATION_GUARD_BITS}"
        )
    size = 1 << total_bits
    widths = dict(zip(_VARIABLES, (n, n, n, klen, klen, mlen, mlen, n)))
    columns = {name: np.empty(size, dtype=np.int32) for name in _VARIABLES}
    probs = np.empty(size, dtype=np.float64)
    differ, agree = params.p / 2.0, (1.0 - params.p) / 2.0
    ptable = np.array([differ**d * agree ** (n - d) for d in range(n + 1)]) * 0.5**klen
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        x, y, k = _split(np.arange(lo, hi, dtype=np.int64), n, klen)
        run = _variables(x, y, k, *_batch_run(syndrome, decode, x, y, k))
        for name, col in run.items():
            columns[name][lo:hi] = col
        probs[lo:hi] = ptable[np.bitwise_count(run["z"])]
    _check_replays(spec, code, n, klen, "enumerated atom", (
        (i, _split(i, n, klen), {name: int(col[i]) for name, col in columns.items()})
        for i in _spread(size)))
    return JointPmf(protocol=protocol_id, n=n, m=mlen, p=params.p,
                    widths=widths, columns=columns, probs=probs)


def _split(index, n: int, klen: int):
    """(x, y, k) of an atom index (x << n | y) << klen | k, or of an array of them."""
    return index >> (klen + n), (index >> klen) & ((1 << n) - 1), index & ((1 << klen) - 1)


def _variables(x, y, k, m13, m23, zhat) -> dict:
    """Every variable of a run, or of a batch of runs: z = x xor y, and m12 carries k."""
    return dict(zip(_VARIABLES, (x, y, x ^ y, k, k, m13, m23, zhat)))


def _batch_run(syndrome, decode, x, y, k):
    """(m13, m23, zhat) of a batch of runs: the protocol algebra of both batch engines.

    S is the syndrome map of a coded protocol and decode its leader lookup, both
    the identity for an uncoded one; k is 0 for an unmasked one.
    """
    m13, m23 = k ^ syndrome(x), k ^ syndrome(y)
    return m13, m23, decode(m13 ^ m23)


def _identity(words):
    return words


def _replay(spec: ProtocolSpec, code: LinearCode | None, n: int,
            x: int, y: int, k: int, klen: int) -> dict[str, int]:
    """Every variable of one (x, y, k) atom, from a run of the message-passing code."""
    xv, yv, kv = Gf2Vector(x, n), Gf2Vector(y, n), Gf2Vector(k, klen)
    if not spec.coded:
        out = run_zero_error_otp(xv, yv, kv)
    elif spec.masked:
        out = run_secure_km(code, xv, yv, kv)
    else:
        out = run_plain_km(code, xv, yv)
    return {"x": x, "y": y, "z": x ^ y, "k": k, **_outputs(out)}


def _outputs(out: RunOutcome) -> dict[str, int]:
    """The three link payloads, the decoded sum and the verdict of one run."""
    t = out.transcript
    return {
        "m12": t.link_payload(PartyId.ALICE, PartyId.BOB).bits,
        "m13": t.link_payload(PartyId.ALICE, PartyId.CHARLIE).bits,
        "m23": t.link_payload(PartyId.BOB, PartyId.CHARLIE).bits,
        "zhat": out.z_hat.bits,
        "wrong": not out.correct,
    }


def _spread(size: int) -> list[int]:
    """Up to `_REPLAYS` indices below `size`, at an odd stride near size/phi.

    An atom index (x << n | y) << klen | k taken this way varies x, y and k alike.
    """
    stride = (size * _GOLDEN_64 >> 64) | 1
    return [i * stride % size for i in range(min(_REPLAYS, size))]


def _check_replays(spec: ProtocolSpec, code: LinearCode | None, n: int, klen: int,
                   what: str, atoms) -> None:
    """Raise unless each (label, (x, y, k), variables) atom of a batch engine agrees,
    in every variable it has, with a run of the message-passing code on that x, y and k.
    The inputs come apart from the variables, so an engine that misreads x, y or k
    alike in every variable is still caught."""
    for label, inputs, atom in atoms:
        run = _replay(spec, code, n, *inputs, klen)
        if atom != {name: run[name] for name in atom}:
            raise RuntimeError(f"{what} {label} disagrees with protocol replay")


def affine_joint(protocol_id: str, code: LinearCode | None, params: DsbsParams) -> AffineJoint:
    """Exact joint law of one instance from its affine description; 2^n noise words.

    Every call evaluates the description at a spread sample of (x, y, k) atoms
    and compares it with a replay through the message-passing engine, so the
    algebra cannot drift from the protocols it claims to summarise.
    """
    n = params.n
    spec, mlen, klen = check_instance(protocol_id, code, n)
    if n > ENUMERATION_GUARD_BITS:
        raise CapacityError(
            f"exact leakage sums 2^{n} noise words, guard is 2^{ENUMERATION_GUARD_BITS}"
        )
    words = np.arange(1 << n, dtype=np.int64)
    zhat = code.leaders[code.syndrome_table()] if spec.coded else words
    rows = _affine_rows(spec, code, n, mlen, klen)
    ptable = np.array([params.p**d * (1.0 - params.p) ** (n - d) for d in range(n + 1)])
    joint = AffineJoint(
        protocol=protocol_id, n=n, m=mlen, p=params.p,
        widths={name: len(r) for name, r in rows.items()}, rows=rows, zhat=zhat,
        probs=ptable[np.bitwise_count(words)],
    )
    # Atom indices have 2n + klen bits, up to 72, so they are split as Python ints.
    atoms = [(i, _split(i, n, klen)) for i in _spread(1 << (2 * n + klen))]
    x, y, k = (np.array(column, dtype=np.int64) for column in zip(*(xyk for _, xyk in atoms)))
    evaluated = _evaluate(joint, x, y, k)
    values = zip(*(column.tolist() for column in evaluated.values()))
    _check_replays(spec, code, n, klen, "affine atom",
                   ((i, xyk, dict(zip(evaluated, v))) for (i, xyk), v in zip(atoms, values)))
    return joint


def _affine_rows(spec: ProtocolSpec, code: LinearCode | None, n: int,
                 mlen: int, klen: int) -> dict[str, tuple[int, ...]]:
    """One packed row per variable bit over the word z | zhat << n | x << 2n | k << 3n."""
    Z, ZH, X, K = 0, n, 2 * n, 3 * n
    eye = [1 << i for i in range(n)]
    # The map each party applies to its own input before masking.
    parity = list(code.matrix.rows) if spec.coded else eye
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


def _shift(offset: int, words: list[int]) -> tuple[int, ...]:
    return tuple(w << offset for w in words)


def _xor(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(u ^ v for u, v in zip(a, b, strict=True))


def _evaluate(joint: AffineJoint, x: np.ndarray, y: np.ndarray, k: np.ndarray) -> dict[str, np.ndarray]:
    """Every variable at arrays of (x, y, k) atoms, read off the affine description.

    A packed row has 4n bits, up to 96, so each row is split into its z, zhat,
    x and k fields and ANDed with the atoms' fields; a variable bit is the
    parity of what is left.
    """
    n, mask = joint.n, (1 << joint.n) - 1
    z = x ^ y
    word = np.stack([z, joint.zhat[z], x, k])
    fields = np.array([[row >> shift & mask for shift in range(0, 4 * n, n)]
                       for rows in joint.rows.values() for row in rows], dtype=np.int64)
    bits = np.bitwise_count(np.bitwise_xor.reduce(fields[:, :, None] & word, axis=1)) & 1
    out, lo = {}, 0
    for name, rows in joint.rows.items():
        shifts = np.arange(len(rows))[:, None]
        out[name] = (bits[lo:lo + len(rows)].astype(np.int64) << shifts).sum(axis=0)
        lo += len(rows)
    return out


@dataclass(frozen=True)
class LeakageReport:
    """Per-symbol leakage: eps1/eps2 are the Alice/Bob-facing conditional
    mutual informations, eps3 the Charlie-facing one, eps4 the residual
    equivocation of the true sum given the decoded sum."""

    eps1: float
    eps2: float
    eps3: float
    eps4: float


def leakage_report(pmf: JointPmf | AffineJoint) -> LeakageReport:
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


def rate_report(pmf: JointPmf | AffineJoint) -> RateReport:
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
    return min(values) >= binary_entropy(p) - REGION_SLACK


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


def check_lemma1(pmf: JointPmf | AffineJoint) -> Lemma1Report:
    """Five exact conditions: x and y recoverable from their owners' links,
    and every single link statistically independent of the input pair."""
    return Lemma1Report(
        h_x_given_alice_links=conditional_entropy(pmf, "x", ("m12", "m13")),
        h_y_given_bob_links=conditional_entropy(pmf, "y", ("m12", "m23")),
        i_link12_inputs=conditional_mutual_information(pmf, "m12", ("x", "y")),
        i_link13_inputs=conditional_mutual_information(pmf, "m13", ("x", "y")),
        i_link23_inputs=conditional_mutual_information(pmf, "m23", ("x", "y")),
    )


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
    size never changes what a trial reads. Every call replays a spread sample of
    trials through the message-passing code on inputs read from their row bytes
    alone, so neither the batch algebra nor the batch decode can drift from the
    protocols.
    """
    if trials < 1:
        raise ContractViolation(f"need at least one trial, got {trials}")
    n = params.n
    spec, _, klen = check_instance(protocol_id, code, n)
    if rng is None:
        raise ContractViolation("an explicit rng is required")
    xwords = -(-n // 32)
    width = 4 * xwords + 8 * n + 4 * -(-klen // 32)
    batch = max(1, _MC_BATCH_BYTES // width)
    if spec.coded:
        syndrome = partial(_batch_syndromes, _syndrome_tables(code.matrix.rows, n))

        def decode(synd):
            # Leaders are int64 words of n <= 63 bits; split them into word rows like z.
            return code.leaders[synd].astype("<u8").view("<u4").reshape(len(synd), 2)[:, :xwords]
    else:
        syndrome = decode = _identity
    limit = math.ceil(params.p * 2.0**64)
    replayed = _spread(trials)

    errors = 0
    seen: dict[int, tuple] = {}
    for lo in range(0, trials, batch):
        count = min(batch, trials - lo)
        raw = rng.randbytes(width * count)
        x, z, k = _batch_inputs(np.frombuffer(raw, dtype=np.uint8).reshape(count, width),
                                n, klen, limit)
        y = x ^ z
        # A coded protocol's syndromes, and so its key, are packed ints of m <= 24 bits.
        key = (k[:, 0].astype(np.int64) if spec.coded else k) if klen else 0
        m13, m23, zhat = _batch_run(syndrome, decode, x, y, key)
        wrong = (zhat != z).any(axis=1)
        errors += int(np.count_nonzero(wrong))
        for i in [i for i in replayed if lo <= i < lo + count]:
            j = i - lo
            atom = _variables(*(_word(col, j) for col in (x, y, k, m13, m23, zhat)))
            atom["wrong"] = bool(wrong[j])
            seen[i] = (_trial_inputs(raw[j * width : (j + 1) * width], n, klen, limit), atom)

    _check_replays(spec, code, n, klen, "Monte Carlo trial", ((i, *seen[i]) for i in replayed))
    # The larger distance from p_hat to an end of its z = 3 Wilson score interval.
    p_hat = errors / trials
    half_width = (3.0 * math.sqrt(errors * (trials - errors) / trials + 2.25)
                  + 4.5 * abs(1.0 - 2.0 * p_hat)) / (trials + 9.0)
    return MonteCarloError(trials=trials, errors=errors, p_err=p_hat, half_width_3sigma=half_width)


def _batch_inputs(rows: np.ndarray, n: int, klen: int, limit: int):
    """(x, z, k) of the trials whose bytes are the rows of `rows`, as little-endian
    word rows of 32-bit words."""
    xbytes = 4 * -(-n // 32)
    flips = rows[:, xbytes : xbytes + 8 * n].view("<u8") < np.uint64(limit)
    noise = np.zeros((len(rows), xbytes), dtype=np.uint8)
    noise[:, : -(-n // 8)] = np.packbits(flips, axis=1, bitorder="little")
    return _low_bits(rows[:, :xbytes], n), noise.view("<u4"), _low_bits(rows[:, xbytes + 8 * n :], klen)


def _low_bits(octets: np.ndarray, nbits: int) -> np.ndarray:
    """Byte rows as little-endian 32-bit word rows that keep their low `nbits` bits."""
    words = octets.copy().view("<u4")
    words[:, nbits // 32 :] &= np.uint32((1 << nbits % 32) - 1)
    return words


def _trial_inputs(row: bytes, n: int, klen: int, limit: int) -> tuple[int, int, int]:
    """(x, y, k) of one trial from its row of generator bytes, apart from the batch decode."""
    xbytes = 4 * -(-n // 32)
    x = int.from_bytes(row[:xbytes], "little") & ((1 << n) - 1)
    z = sum(1 << i for i in range(n)
            if int.from_bytes(row[xbytes + 8 * i : xbytes + 8 * i + 8], "little") < limit)
    return x, x ^ z, int.from_bytes(row[xbytes + 8 * n :], "little") & ((1 << klen) - 1)


def _syndrome_tables(rows: tuple[int, ...], n: int) -> np.ndarray:
    """Row j holds the syndrome of every byte value placed at byte j of an n-bit word."""
    return np.stack([span_table(((row >> 8 * j) & 0xFF for row in rows), 8)
                     for j in range(-(-n // 8))])


def _batch_syndromes(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Packed syndromes of little-endian word rows: the xor of one lookup per byte."""
    octets = words.view(np.uint8)[:, : len(tables)]
    return np.bitwise_xor.reduce(tables[np.arange(len(tables)), octets], axis=1)


def _word(column: np.ndarray, j: int) -> int:
    """Entry j of a column of packed values or of little-endian word rows."""
    if column.ndim == 1:
        return int(column[j])
    return int.from_bytes(column[j].tobytes(), "little")

