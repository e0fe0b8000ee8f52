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
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

import numpy as np

from .codes import ENUMERATION_GUARD_BITS, LinearCode
from .errors import CapacityError, ConfigurationError, ContractViolation
from .gf2 import Gf2Vector, echelon, span_table
from .protocol import (
    PROTOCOL_IDS,
    PartyId,
    run_plain_km,
    run_secure_km,
    run_with_sampling,
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
    "ReportRow",
    "CSV_COLUMNS",
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
    "csv_header",
    "REGION_SLACK",
]

# Tolerance used when deciding membership of a rate quadruple.
REGION_SLACK = 1e-9

# Link payloads concatenated in this order form the transcript digest.
_SCHEDULE = {
    "secure-km": ("m12", "m13", "m23"),
    "zero-error-otp": ("m12", "m13", "m23"),
    "plain-km": ("m13", "m23"),
}

_CHUNK = 1 << 20
_BINCOUNT_MAX_BITS = 22

# Atoms the affine engine replays through the message-passing code per instance.
_AFFINE_REPLAYS = 64
# 2^64 / golden ratio: a stride that spreads samples over every bit of an index.
_GOLDEN_64 = 0x9E3779B97F4A7C15


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

    def variables(self) -> tuple[str, ...]:
        return tuple(self.widths)

    def entropy(self, variables) -> float:
        """Exact joint entropy (bits) of a set of atom variables."""
        key = _expand(self.protocol, self.widths, variables)
        if key in self._cache:
            return self._cache[key]
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
    if isinstance(variables, str):
        variables = (variables,)
    names: list[str] = []
    for name in variables:
        if name == "transcript":
            names.extend(_SCHEDULE[protocol])
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


def conditional_entropy(pmf: JointPmf | AffineJoint, target, given=()) -> float:
    """H(target | given) = H(target, given) - H(given)."""
    t = target if not isinstance(target, str) else (target,)
    g = given if not isinstance(given, str) else (given,)
    return pmf.entropy(tuple(t) + tuple(g)) - pmf.entropy(g)


def conditional_mutual_information(pmf: JointPmf | AffineJoint, a, b, given=()) -> float:
    """I(a; b | given), exact up to floating-point cancellation."""
    a = (a,) if isinstance(a, str) else tuple(a)
    b = (b,) if isinstance(b, str) else tuple(b)
    c = (given,) if isinstance(given, str) else tuple(given)
    return pmf.entropy(a + c) + pmf.entropy(b + c) - pmf.entropy(a + b + c) - pmf.entropy(c)


def enumerate_joint(
    protocol_id: str,
    code: LinearCode | None,
    params: DsbsParams,
    *,
    guard_bits: int = ENUMERATION_GUARD_BITS,
    replay_samples: int = 64,
) -> JointPmf:
    """Exhaustive pmf over every (x, y, k); one atom per combination.

    A spread sample of atoms is replayed through the message-passing engine
    on every call, so the vectorised algebra cannot drift from the protocols
    it claims to summarise.
    """
    n = params.n
    m, mlen, klen = _dimensions(protocol_id, code, n)
    if protocol_id != "zero-error-otp":
        synd, leaders = code.syndrome_table(), code.leaders
    total_bits = 2 * n + klen
    if total_bits > guard_bits:
        raise CapacityError(
            f"joint pmf needs 2^{total_bits} = {1 << total_bits} atoms, guard is 2^{guard_bits}"
        )
    size = 1 << total_bits
    names = ("x", "y", "z", "k", "m12", "m13", "m23", "zhat")
    widths = {
        "x": n, "y": n, "z": n,
        "k": klen, "m12": klen,
        "m13": mlen, "m23": mlen,
        "zhat": n,
    }
    columns = {name: np.empty(size, dtype=np.int32) for name in names}
    probs = np.empty(size, dtype=np.float64)
    nmask = (1 << n) - 1
    kmask = (1 << klen) - 1
    differ, agree = params.p / 2.0, (1.0 - params.p) / 2.0
    ptable = np.array([differ**d * agree ** (n - d) for d in range(n + 1)]) * 0.5**klen
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        idx = np.arange(lo, hi, dtype=np.int64)
        k = idx & kmask
        y = (idx >> klen) & nmask
        x = idx >> (klen + n)
        z = x ^ y
        if protocol_id == "secure-km":
            m13, m23 = k ^ synd[x], k ^ synd[y]
            zhat = leaders[m13 ^ m23]
        elif protocol_id == "plain-km":
            m13, m23 = synd[x], synd[y]
            zhat = leaders[m13 ^ m23]
        else:
            m13, m23 = k ^ x, k ^ y
            zhat = m13 ^ m23
        for name, col in (("x", x), ("y", y), ("z", z), ("k", k),
                          ("m12", k), ("m13", m13), ("m23", m23), ("zhat", zhat)):
            columns[name][lo:hi] = col
        probs[lo:hi] = ptable[np.bitwise_count(z)]
    pmf = JointPmf(protocol=protocol_id, n=n, m=m, p=params.p,
                   widths=widths, columns=columns, probs=probs)
    _replay_check(pmf, code, replay_samples)
    return pmf


def _dimensions(protocol_id: str, code: LinearCode | None, n: int) -> tuple[int, int, int]:
    """(m, syndrome length, key length) of one instance, after checking the code."""
    if protocol_id not in PROTOCOL_IDS:
        raise ConfigurationError(f"unknown protocol id: {protocol_id!r}")
    if protocol_id == "zero-error-otp":
        if code is not None and code.n != n:
            raise ContractViolation(f"code length {code.n} != source length {n}")
        return n, n, n
    if code is None:
        raise ConfigurationError(f"{protocol_id} needs a code")
    if code.n != n:
        raise ContractViolation(f"code length {code.n} != source length {n}")
    return code.m, code.m, code.m if protocol_id == "secure-km" else 0


def _replay(protocol_id: str, code: LinearCode | None, n: int,
            x: int, y: int, k: int, klen: int) -> dict[str, int]:
    """Every variable of one (x, y, k) atom, from a run of the message-passing code."""
    xv, yv, kv = Gf2Vector(x, n), Gf2Vector(y, n), Gf2Vector(k, klen)
    if protocol_id == "secure-km":
        out = run_secure_km(code, xv, yv, kv)
    elif protocol_id == "plain-km":
        out = run_plain_km(code, xv, yv)
    else:
        out = run_zero_error_otp(xv, yv, kv)
    t = out.transcript
    return {
        "x": x, "y": y, "z": x ^ y, "k": k,
        "m12": t.link_payload(PartyId.ALICE, PartyId.BOB).bits,
        "m13": t.link_payload(PartyId.ALICE, PartyId.CHARLIE).bits,
        "m23": t.link_payload(PartyId.BOB, PartyId.CHARLIE).bits,
        "zhat": out.z_hat.bits,
    }


def _spread_atoms(n: int, klen: int, samples: int):
    """(index, x, y, k) of up to `samples` atoms, index = (x << n | y) << klen | k.

    The stride is odd and near size/phi, so the sampled x, y and k all vary.
    """
    size = 1 << (2 * n + klen)
    stride = (size * _GOLDEN_64 >> 64) | 1
    for i in range(min(samples, size)):
        idx = i * stride % size
        yield idx, idx >> (klen + n), (idx >> klen) & ((1 << n) - 1), idx & ((1 << klen) - 1)


def _replay_check(pmf: JointPmf, code: LinearCode | None, samples: int) -> None:
    klen = pmf.widths["k"]
    for i, x, y, k in _spread_atoms(pmf.n, klen, samples):
        atom = {name: int(col[i]) for name, col in pmf.columns.items()}
        if atom != _replay(pmf.protocol, code, pmf.n, x, y, k, klen):
            raise RuntimeError(f"enumerated atom {i} disagrees with protocol replay")


def affine_joint(protocol_id: str, code: LinearCode | None, params: DsbsParams) -> AffineJoint:
    """Exact joint law of one instance from its affine description; 2^n noise words.

    Every call evaluates the description at a spread sample of (x, y, k) atoms
    and compares it with a replay through the message-passing engine, so the
    algebra cannot drift from the protocols it claims to summarise.
    """
    n = params.n
    m, mlen, klen = _dimensions(protocol_id, code, n)
    if n > ENUMERATION_GUARD_BITS:
        raise CapacityError(
            f"exact leakage sums 2^{n} noise words, guard is 2^{ENUMERATION_GUARD_BITS}"
        )
    if protocol_id == "zero-error-otp":
        zhat = np.arange(1 << n, dtype=np.int64)
    else:
        zhat = code.leaders[code.syndrome_table()]
    rows = _affine_rows(protocol_id, code, n, mlen, klen)
    ptable = np.array([params.p**d * (1.0 - params.p) ** (n - d) for d in range(n + 1)])
    joint = AffineJoint(
        protocol=protocol_id, n=n, m=m, p=params.p,
        widths={name: len(r) for name, r in rows.items()}, rows=rows, zhat=zhat,
        probs=ptable[np.bitwise_count(np.arange(1 << n, dtype=np.int64))],
    )
    _replay_affine(joint, code)
    return joint


def _affine_rows(protocol_id: str, code: LinearCode | None, n: int,
                 mlen: int, klen: int) -> dict[str, tuple[int, ...]]:
    """One packed row per variable bit over the word z | zhat << n | x << 2n | k << 3n."""
    Z, ZH, X, K = 0, n, 2 * n, 3 * n
    eye = [1 << i for i in range(n)]
    # The map each party applies to its own input before masking.
    parity = eye if protocol_id == "zero-error-otp" else list(code.matrix.rows)
    key = _shift(K, [1 << i for i in range(klen)])
    mask = key if klen else (0,) * mlen
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


def _replay_affine(joint: AffineJoint, code: LinearCode | None) -> None:
    n, klen = joint.n, joint.widths["k"]
    for _, x, y, k in _spread_atoms(n, klen, _AFFINE_REPLAYS):
        word = (x ^ y) | int(joint.zhat[x ^ y]) << n | x << 2 * n | k << 3 * n
        got = {
            name: sum(((row & word).bit_count() & 1) << j for j, row in enumerate(rows))
            for name, rows in joint.rows.items()
        }
        if got != _replay(joint.protocol, code, n, x, y, k, klen):
            raise RuntimeError(
                f"affine description disagrees with protocol replay at x={x:#x}, y={y:#x}, k={k:#x}"
            )


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


def check_rate_region(quad: Sequence[float], p: float, *, slack: float = REGION_SLACK) -> bool:
    """True when min(r13, r23, r12, rho) clears the binary entropy of p."""
    values = tuple(float(v) for v in quad)
    if len(values) != 4:
        raise ContractViolation(f"need a quadruple, got {len(values)} values")
    return min(values) >= binary_entropy(p) - slack


@dataclass(frozen=True)
class Lemma1Report:
    """Zero-error structure checks for the uncoded one-time-pad scheme."""

    h_x_given_alice_links: float
    h_y_given_bob_links: float
    i_link12_inputs: float
    i_link13_inputs: float
    i_link23_inputs: float
    tol: float = 1e-10

    @property
    def x_recoverable(self) -> bool:
        return abs(self.h_x_given_alice_links) <= self.tol

    @property
    def y_recoverable(self) -> bool:
        return abs(self.h_y_given_bob_links) <= self.tol

    @property
    def link12_independent(self) -> bool:
        return abs(self.i_link12_inputs) <= self.tol

    @property
    def link13_independent(self) -> bool:
        return abs(self.i_link13_inputs) <= self.tol

    @property
    def link23_independent(self) -> bool:
        return abs(self.i_link23_inputs) <= self.tol

    @property
    def all_hold(self) -> bool:
        return (
            self.x_recoverable
            and self.y_recoverable
            and self.link12_independent
            and self.link13_independent
            and self.link23_independent
        )


def check_lemma1(pmf: JointPmf | AffineJoint, *, tol: float = 1e-10) -> Lemma1Report:
    """Five exact conditions: x and y recoverable from their owners' links,
    and every single link statistically independent of the input pair."""
    return Lemma1Report(
        h_x_given_alice_links=conditional_entropy(pmf, "x", ("m12", "m13")),
        h_y_given_bob_links=conditional_entropy(pmf, "y", ("m12", "m23")),
        i_link12_inputs=conditional_mutual_information(pmf, "m12", ("x", "y")),
        i_link13_inputs=conditional_mutual_information(pmf, "m13", ("x", "y")),
        i_link23_inputs=conditional_mutual_information(pmf, "m23", ("x", "y")),
        tol=tol,
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
    """Fraction of incorrect runs over fresh samples, with a 3-sigma half-width."""
    if trials < 1:
        raise ContractViolation(f"need at least one trial, got {trials}")
    errors = 0
    for _ in range(trials):
        if not run_with_sampling(protocol_id, params, code, rng).correct:
            errors += 1
    p_hat = errors / trials
    half_width = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return MonteCarloError(trials=trials, errors=errors, p_err=p_hat, half_width_3sigma=half_width)


CSV_COLUMNS = (
    "protocol", "n", "m", "p", "seed",
    "r12", "r13", "r23", "rho",
    "eps1", "eps2", "eps3", "eps4",
    "p_err_exact", "p_err_mc", "mc_ci", "in_region",
)


@dataclass
class ReportRow:
    """One CSV row of the reporting schema; unset fields serialize empty."""

    protocol: str
    n: int
    m: int
    p: float
    seed: int
    r12: float | None = None
    r13: float | None = None
    r23: float | None = None
    rho: float | None = None
    eps1: float | None = None
    eps2: float | None = None
    eps3: float | None = None
    eps4: float | None = None
    p_err_exact: float | None = None
    p_err_mc: float | None = None
    mc_ci: float | None = None
    in_region: bool | None = None

    def csv_line(self) -> str:
        def fmt(value) -> str:
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return repr(value)
            return str(value)

        return ",".join(fmt(getattr(self, col)) for col in CSV_COLUMNS)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)
