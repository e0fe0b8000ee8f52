from __future__ import annotations

import itertools
import math
import struct
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import oracles
import securesum.analysis as analysis
from oracles import JointPmf, check_lemma1, enumerate_joint, pair_probability, rref_rows, span_table
from securesum.analysis import (
    affine_joint,
    check_rate_region,
    conditional_entropy,
    conditional_mutual_information,
    leakage_report,
    monte_carlo_error,
    rate_report,
)
from securesum.cli import ReportRow
from securesum.codes import LinearCode, build_code, code_from_matrix, exact_error_probability
from securesum.errors import CapacityError, ConfigurationError, ContractViolation
from securesum.gf2 import Gf2Matrix, Gf2Vector, echelon
from securesum.protocol import check_instance, run
from securesum.source import DsbsParams, binary_entropy

FIXTURE = code_from_matrix(Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]]))

H2_QUARTER = 0.8112781244591328
I_XY_QUARTER = 0.18872187554086717  # 1 - H2(0.25), per symbol


def _pmf(protocol, n, m, p, seed=0):
    code = None if protocol == "zero-error-otp" else build_code(n, m, seed=seed)
    return enumerate_joint(protocol, code, DsbsParams(p=p, n=n))


def test_atom_counts():
    assert _pmf("zero-error-otp", 1, 1, 0.25).size == 8
    assert _pmf("secure-km", 2, 1, 0.25).size == 32
    assert _pmf("plain-km", 2, 1, 0.25).size == 16


def test_normalization():
    for protocol, n, m in (("secure-km", 3, 2), ("plain-km", 4, 2), ("zero-error-otp", 3, 3)):
        for p in (0.0, 0.1, 0.25, 0.5):
            pmf = _pmf(protocol, n, m, p)
            assert abs(pmf.total() - 1.0) <= 1e-12


def test_input_marginal_matches_source():
    n = 3
    params = DsbsParams(p=0.25, n=n)
    pmf = _pmf("secure-km", n, 2, 0.25)
    key = (pmf.columns["x"].astype(np.int64) << n) | pmf.columns["y"]
    marginal = np.bincount(key, weights=pmf.probs, minlength=1 << (2 * n))
    for xb in range(1 << n):
        for yb in range(1 << n):
            expect = pair_probability(params, Gf2Vector(xb, n), Gf2Vector(yb, n))
            assert marginal[(xb << n) | yb] == pytest.approx(expect, abs=1e-14)


def test_entropy_identities():
    pmf = _pmf("secure-km", 2, 1, 0.25)
    assert pmf.entropy("x") == pytest.approx(2.0, abs=1e-12)
    assert pmf.entropy("y") == pytest.approx(2.0, abs=1e-12)
    assert pmf.entropy("z") == pytest.approx(2 * H2_QUARTER, abs=1e-12)
    # (x, y) <-> (x, z) is a bijection and z is independent of x
    assert pmf.entropy(("x", "y")) == pytest.approx(2.0 + 2 * H2_QUARTER, abs=1e-12)
    assert pmf.entropy(()) == 0.0
    assert pmf.entropy("k") == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_of_the_source():
    for n in (1, 2, 3):
        pmf = _pmf("zero-error-otp", n, n, 0.25)
        got = conditional_mutual_information(pmf, "x", "y")
        assert got == pytest.approx(n * I_XY_QUARTER, abs=1e-9)


def test_conditional_entropy_chain():
    pmf = _pmf("plain-km", 3, 2, 0.3)
    hxy = pmf.entropy(("x", "y"))
    assert conditional_entropy(pmf, "x", "y") == pytest.approx(hxy - pmf.entropy("y"), abs=1e-12)
    assert conditional_entropy(pmf, "x") == pytest.approx(pmf.entropy("x"), abs=1e-12)


def test_information_inequalities_on_random_pmfs():
    rng = Random(2718)
    for _ in range(100):
        pmf = oracles.random_pmf(rng, 40)
        h_ab = pmf.entropy(("a", "b"))
        h_a, h_b = pmf.entropy("a"), pmf.entropy("b")
        assert h_ab <= h_a + h_b + 1e-10
        assert h_ab >= max(h_a, h_b) - 1e-10
        assert conditional_mutual_information(pmf, "a", "b", "c") >= -1e-10
        assert conditional_entropy(pmf, "a", ("b", "c")) <= conditional_entropy(pmf, "a", "b") + 1e-10
        # chain rule
        lhs = pmf.entropy(("a", "b", "c"))
        rhs = pmf.entropy("c") + conditional_entropy(pmf, "b", "c") + conditional_entropy(pmf, "a", ("b", "c"))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_secure_km_leaks_nothing():
    pmf = enumerate_joint("secure-km", FIXTURE, DsbsParams(p=0.25, n=3))
    rep = leakage_report(pmf)
    assert abs(rep.eps1) <= 1e-12
    assert abs(rep.eps2) <= 1e-12
    assert abs(rep.eps3) <= 1e-12
    assert rep.eps4 > 0.0  # the fixture code has positive block error rate


def test_plain_km_invertible_code_leaks_everything_to_charlie():
    # m = n: the syndrome map is a bijection, so Charlie's view determines
    # both inputs while the per-party views stay deterministic functions of
    # each party's own input
    for seed in range(3):
        code = build_code(2, 2, seed=seed)
        pmf = enumerate_joint("plain-km", code, DsbsParams(p=0.25, n=2))
        rep = leakage_report(pmf)
        assert rep.eps1 == pytest.approx(0.0, abs=1e-12)
        assert rep.eps2 == pytest.approx(0.0, abs=1e-12)
        assert rep.eps3 == pytest.approx(1.0, abs=1e-12)
        assert rep.eps4 == pytest.approx(0.0, abs=1e-12)


def test_eps4_matches_standalone_oracle():
    code = build_code(3, 2, seed=2)
    p = 0.3
    pmf = enumerate_joint("plain-km", code, DsbsParams(p=p, n=3))
    joint: dict[tuple[int, int], float] = {}
    params = DsbsParams(p=p, n=3)
    for xb in range(8):
        for yb in range(8):
            x, y = Gf2Vector(xb, 3), Gf2Vector(yb, 3)
            out = run("plain-km", code, x, y)
            key = (xb ^ yb, out.z_hat.bits)
            joint[key] = joint.get(key, 0.0) + pair_probability(params, x, y)
    h_joint = -sum(q * math.log2(q) for q in joint.values() if q > 0)
    zhat_marg: dict[int, float] = {}
    for (_, zh), q in joint.items():
        zhat_marg[zh] = zhat_marg.get(zh, 0.0) + q
    h_zhat = -sum(q * math.log2(q) for q in zhat_marg.values() if q > 0)
    assert leakage_report(pmf).eps4 == pytest.approx((h_joint - h_zhat) / 3, abs=1e-10)


def test_rate_reports():
    rep = rate_report(_pmf("secure-km", 3, 2, 0.25))
    assert rep.quadruple() == (2 / 3, 2 / 3, 2 / 3, pytest.approx(2 / 3, abs=1e-10))
    assert rep.realized_R == 2 / 3
    rep = rate_report(_pmf("plain-km", 3, 2, 0.25))
    assert rep.r12 == 0.0
    assert rep.rho == pytest.approx(0.0, abs=1e-10)
    rep = rate_report(_pmf("zero-error-otp", 2, 2, 0.1))
    assert rep.quadruple() == (1.0, 1.0, 1.0, pytest.approx(1.0, abs=1e-10))


def test_rate_region_membership():
    h = binary_entropy(0.25)
    assert check_rate_region((0.9, 0.9, 0.9, 0.9), 0.25)
    assert not check_rate_region((0.9, 0.9, 0.5, 0.9), 0.25)
    assert check_rate_region((h, h, h, h), 0.25)  # boundary counts as inside
    assert check_rate_region((0.0, 0.0, 0.0, 0.0), 0.0)
    with pytest.raises(ContractViolation):
        check_rate_region((0.9, 0.9, 0.9), 0.25)
    # min() skips a NaN that is not first, so a non-finite rate is refused
    # wherever it sits.
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(4):
            quad = [1.0] * 4
            quad[i] = bad
            with pytest.raises(ContractViolation, match="finite"):
                check_rate_region(quad, 0.1)


def test_lemma1_holds_for_otp():
    for n in (1, 2, 3):
        pmf = _pmf("zero-error-otp", n, n, 0.25)
        rep = check_lemma1(pmf)
        assert rep.all_hold
        for value in (
            rep.h_x_given_alice_links,
            rep.h_y_given_bob_links,
            rep.i_link12_inputs,
            rep.i_link13_inputs,
            rep.i_link23_inputs,
        ):
            assert abs(value) <= 1e-12


def test_lemma1_fails_for_unmasked_syndromes():
    pmf = _pmf("plain-km", 2, 2, 0.25)
    rep = check_lemma1(pmf)
    assert rep.x_recoverable and rep.y_recoverable and rep.link12_independent
    assert not rep.link13_independent
    assert not rep.link23_independent
    assert not rep.all_hold
    assert rep.i_link13_inputs == pytest.approx(2.0, abs=1e-10)


def test_secure_km_links_are_individually_independent():
    # masked syndromes keep every link independent of the inputs, but x is
    # not recoverable from Alice's links: her outgoing traffic only carries
    # m of its n bits
    pmf = enumerate_joint("secure-km", FIXTURE, DsbsParams(p=0.25, n=3))
    rep = check_lemma1(pmf)
    assert rep.link12_independent and rep.link13_independent and rep.link23_independent
    assert rep.h_x_given_alice_links == pytest.approx(1.0, abs=1e-10)
    assert rep.h_y_given_bob_links == pytest.approx(1.0, abs=1e-10)
    assert not rep.all_hold


def test_transcript_digest_expands_by_schedule():
    pmf = _pmf("secure-km", 2, 1, 0.2)
    assert pmf.entropy("transcript") == pmf.entropy(("m12", "m13", "m23"))
    pmf = _pmf("plain-km", 2, 1, 0.2)
    assert pmf.entropy("transcript") == pmf.entropy(("m13", "m23"))
    with pytest.raises(ConfigurationError):
        pmf.entropy("nonsense")


def test_entropy_is_cached():
    pmf = _pmf("secure-km", 2, 1, 0.2)
    first = pmf.entropy(("x", "y"))
    assert pmf.entropy(("y", "x")) is not None
    assert pmf.entropy(("x", "y")) == first
    assert ("x", "y") in pmf._cache


def test_entropy_refuses_a_key_wider_than_64_bits():
    # Packed into one int64, b's set bit would land at bit 70 and be lost.
    pmf = JointPmf(
        protocol="plain-km", n=1, m=1, p=0.1, widths={"a": 40, "b": 40},
        columns={"a": np.array([0, 0]), "b": np.array([0, 1 << 30])},
        probs=np.array([0.5, 0.5]),
    )
    assert pmf.entropy("b") == 1.0
    with pytest.raises(CapacityError, match="80 bits"):
        pmf.entropy(("a", "b"))
    # A 64-bit key only fills the sign bit, so it stays exact.
    pmf.widths["a"] = 24
    assert pmf.entropy(("a", "b")) == 1.0


def test_monte_carlo_against_exact():
    p = 0.25
    exact = exact_error_probability(FIXTURE, p)
    assert exact == 0.15625
    mc = monte_carlo_error("secure-km", FIXTURE, DsbsParams(p=p, n=3), 20000, Random(7))
    assert abs(mc.p_err - exact) <= max(mc.half_width_3sigma, 3 * math.sqrt(exact * (1 - exact) / 20000))
    assert mc.trials == 20000
    assert mc.errors == round(mc.p_err * 20000)
    mc0 = monte_carlo_error("zero-error-otp", None, DsbsParams(p=0.3, n=4), 500, Random(1))
    # No error seen: the z = 3 Wilson interval is [0, 9/(trials + 9)].
    assert mc0.p_err == 0.0 and mc0.half_width_3sigma == 9 / 509
    with pytest.raises(ContractViolation):
        monte_carlo_error("secure-km", FIXTURE, DsbsParams(p=p, n=3), 0, Random(0))
    with pytest.raises(ContractViolation, match="explicit rng"):
        monte_carlo_error("secure-km", FIXTURE, DsbsParams(p=p, n=3), 10, None)
    with pytest.raises(ContractViolation, match="code length"):
        monte_carlo_error("plain-km", FIXTURE, DsbsParams(p=0.1, n=4), 10, Random(0))
    with pytest.raises(ContractViolation, match="code length"):
        monte_carlo_error("zero-error-otp", FIXTURE, DsbsParams(p=0.1, n=4), 10, Random(0))
    # An uncoded scheme ignores a code of the right length.
    assert monte_carlo_error("zero-error-otp", FIXTURE, DsbsParams(p=0.3, n=3), 100, Random(0)).errors == 0
    with pytest.raises(ConfigurationError, match="unknown protocol"):
        monte_carlo_error("bogus", FIXTURE, DsbsParams(p=p, n=3), 10, Random(0))
    with pytest.raises(ConfigurationError, match="needs a code"):
        monte_carlo_error("secure-km", None, DsbsParams(p=p, n=3), 10, Random(0))


def _row_bytes(n, klen):
    """Bytes of one trial: x in whole 32-bit words, a 64-bit word per noise bit, the key."""
    return 4 * -(-n // 32) + 8 * n + 4 * -(-klen // 32)


def _reference_monte_carlo(protocol_id, code, params, trials, rng):
    """Errors of a per-trial loop over the documented layout: one randbytes row per
    trial, read as x, the noise words and the key, then run by `protocol.run`."""
    n = params.n
    _, _, klen = check_instance(protocol_id, code, n)
    xbytes = 4 * -(-n // 32)
    limit = math.ceil(Fraction(params.p) * 2**64)
    errors = 0
    for _ in range(trials):
        row = rng.randbytes(_row_bytes(n, klen))
        x = int.from_bytes(row[:xbytes], "little") % 2**n
        noise = struct.unpack_from(f"<{n}Q", row, xbytes)
        z = sum(2**i for i, word in enumerate(noise) if word < limit)
        k = int.from_bytes(row[xbytes + 8 * n :], "little") % 2**klen
        xv, yv, kv = Gf2Vector(x, n), Gf2Vector(x ^ z, n), Gf2Vector(k, klen)
        errors += not run(protocol_id, code, xv, yv, kv).correct
    return errors


def _wilson_half_width(errors, trials, z=3.0):
    """The larger distance from errors/trials to an end of its Wilson score interval."""
    p_hat, zz = errors / trials, z * z
    center = (p_hat + zz / (2 * trials)) / (1 + zz / trials)
    half = z / (1 + zz / trials) * math.sqrt(p_hat * (1 - p_hat) / trials + zz / (4 * trials**2))
    return max(p_hat - (center - half), center + half - p_hat)


def test_batched_monte_carlo_matches_per_trial_reference(monkeypatch):
    cases = [(proto, n, m) for proto in ("secure-km", "plain-km")
             for n, m in ((1, 1), (5, 0), (8, 5), (16, 12), (32, 16), (33, 0), (40, 20))]
    cases += [("zero-error-otp", n, n) for n in (1, 5, 8, 16, 32, 33, 40, 70)]
    assert len(cases) == 22
    for i, (proto, n, m) in enumerate(cases):
        code = None if proto == "zero-error-otp" else build_code(n, m, seed=i)
        batch = analysis._MC_BATCH_BYTES // _row_bytes(n, 0 if proto == "plain-km" else m)
        for p in (0.0, 0.5, 0.07):
            for trials in (1, batch - 1, batch + 1, 1000):
                if trials < 1:
                    continue
                params, case = DsbsParams(p=p, n=n), (proto, n, m, p, trials)
                ref = Random(1000 * i + trials)
                errors = _reference_monte_carlo(proto, code, params, trials, ref)
                for bound in (analysis._MC_BATCH_BYTES, 1):
                    rng = Random(1000 * i + trials)
                    with monkeypatch.context() as patch:
                        patch.setattr(analysis, "_MC_BATCH_BYTES", bound)
                        mc = monte_carlo_error(proto, code, params, trials, rng)
                    assert mc.trials == trials, case
                    assert mc.errors == errors, case
                    assert mc.p_err == errors / trials, case
                    assert mc.half_width_3sigma == pytest.approx(
                        _wilson_half_width(errors, trials), rel=1e-12, abs=1e-15), case
                    assert rng.getstate() == ref.getstate(), (case, bound)


def test_monte_carlo_self_checks_catch_faults(monkeypatch):
    code = build_code(12, 8, seed=3)
    params = DsbsParams(p=0.1, n=12)
    honest = analysis.linear_map
    with monkeypatch.context() as patch:
        # Syndromes lose their top bit; the replays recompute them in full.
        patch.setattr(analysis, "linear_map", lambda images: honest([h & 0x7F for h in images]))
        with pytest.raises(RuntimeError, match="disagrees with protocol replay"):
            monte_carlo_error("plain-km", code, params, 500, Random(1))
    noise = analysis._batch_noise

    def short_noise(rows, n, limit):
        z = noise(rows, n, limit)
        z[:, (n - 1) // 64] &= np.uint64((1 << (n - 1) % 64) - 1)  # clears bit n - 1
        return z

    with monkeypatch.context() as patch:
        # Noise packed one bit short: the batch stays self-consistent, so only the
        # replays' own reading of the row bytes catches it.
        patch.setattr(analysis, "_batch_noise", short_noise)
        with pytest.raises(RuntimeError, match="disagrees with protocol replay"):
            monte_carlo_error("secure-km", code, params, 500, Random(1))


def test_oracle_kernel_is_checked_by_replay(monkeypatch):
    # A kernel whose syndromes lose their top bit, or whose uncoded lookup
    # flips bit 0 of every word, is caught by the oracle's replays.
    tables = oracles.span_table
    monkeypatch.setattr(oracles, "span_table", lambda rows, n: tables(rows[:-1], n))
    monkeypatch.setattr(oracles, "_identity", lambda words: words ^ 1)
    code = build_code(6, 4, seed=1)
    for protocol, arg in (("secure-km", code), ("zero-error-otp", None)):
        with pytest.raises(RuntimeError, match="disagrees with protocol replay"):
            enumerate_joint(protocol, arg, DsbsParams(p=0.2, n=6))


def test_both_engines_catch_a_fault_in_the_shared_decoder(monkeypatch):
    # The affine engine and Monte Carlo decode through one batch decoder; a
    # decoder that flips bit 0 of every leader it returns is caught by both.
    honest = analysis._batch_decoder

    def flipped(parity, leaders, n):
        decode = honest(parity, leaders, n)
        return lambda z: decode(z) ^ 1

    monkeypatch.setattr(analysis, "_batch_decoder", flipped)
    code = build_code(6, 4, seed=1)
    for protocol in ("secure-km", "plain-km"):
        with pytest.raises(RuntimeError, match="disagrees with protocol replay"):
            affine_joint(protocol, code, DsbsParams(p=0.2, n=6))
        with pytest.raises(RuntimeError, match="disagrees with protocol replay"):
            monte_carlo_error(protocol, code, DsbsParams(p=0.2, n=6), 300, Random(2))


def test_monte_carlo_replay_compares_by_name(monkeypatch):
    # A Monte Carlo trial hands over z, zhat and whether it is wrong by name;
    # with z and zhat swapped, a replayed trial that errs is caught.
    code = build_code(8, 2, seed=5)
    params = DsbsParams(p=0.4, n=8)
    assert monte_carlo_error("plain-km", code, params, 1000, Random(6)).errors > 0
    honest = analysis._check_replays

    def swapped(spec, code, n, klen, what, atoms):
        return honest(spec, code, n, klen, what, ((label, inputs, {**v, "z": v["zhat"], "zhat": v["z"]})
                                                  for label, inputs, v in atoms))

    monkeypatch.setattr(analysis, "_check_replays", swapped)
    with pytest.raises(RuntimeError, match="Monte Carlo trial .* disagrees with protocol replay"):
        monte_carlo_error("plain-km", code, params, 1000, Random(6))


def test_enumeration_guard():
    code = build_code(11, 3, seed=0)
    with pytest.raises(CapacityError, match="2\\^25"):
        enumerate_joint("secure-km", code, DsbsParams(p=0.1, n=11))
    # plain-km consumes no key bits, so the same size passes the guard
    pmf = enumerate_joint("plain-km", code, DsbsParams(p=0.1, n=11))
    assert pmf.size == 1 << 22


def test_enumeration_replay_check_varies_every_input(monkeypatch):
    # Every batch engine's self-check replays 64 atoms or trials of every
    # protocol in one batched run of that protocol, spread over x, y and k alike.
    seen = []

    def recording(protocol_id, code, x, y, k):
        seen.append((protocol_id, x.bits.tolist(), y.bits.tolist(), k.n, k.bits.tolist()))
        return run(protocol_id, code, x, y, k)

    monkeypatch.setattr(analysis, "run", recording)
    code = build_code(8, 6, seed=2)
    for protocol, n, klen in (("secure-km", 8, 6), ("plain-km", 8, 0), ("zero-error-otp", 6, 6)):
        arg, params = None if protocol == "zero-error-otp" else code, DsbsParams(p=0.2, n=n)
        for engine in (lambda: enumerate_joint(protocol, arg, params),
                       lambda: affine_joint(protocol, arg, params),
                       lambda: monte_carlo_error(protocol, arg, params, 1000, Random(4))):
            seen.clear()
            engine()
            [(protocol_id, x, y, key_length, k)] = seen
            assert protocol_id == protocol and key_length == klen
            assert len(x) == len(y) == len(k) == 64
            for words in (x, y, k) if klen else (x, y):
                assert len(set(words)) > 1


def test_spread_indices_are_distinct_at_every_size():
    # The stride is coprime to every size, so no index repeats: a trial count
    # of 777 once replayed 21 distinct trials. Powers of two keep their stride.
    for size in range(1, 20001):
        assert len(set(analysis._spread(size))) == min(64, size), size
    assert analysis._spread(1 << 150)[1] == (1 << 150) * analysis._GOLDEN_64 >> 64 | 1


def test_enumerate_joint_validation():
    with pytest.raises(ConfigurationError):
        enumerate_joint("bogus", FIXTURE, DsbsParams(p=0.1, n=3))
    with pytest.raises(ConfigurationError):
        enumerate_joint("plain-km", None, DsbsParams(p=0.1, n=3))
    with pytest.raises(ContractViolation):
        enumerate_joint("secure-km", FIXTURE, DsbsParams(p=0.1, n=4))


def _small_instances():
    """Every (protocol, n, m) whose enumeration has at most 2^16 atoms."""
    for n in range(1, 9):
        for m in range(n + 1):
            for protocol, key_bits in (("secure-km", m), ("plain-km", 0)):
                if 2 * n + key_bits <= 16:
                    yield protocol, n, m
        if 3 * n <= 16:
            yield "zero-error-otp", n, n


def test_affine_engine_matches_enumeration_oracle():
    instances = 0
    for protocol, n, m in _small_instances():
        code = None if protocol == "zero-error-otp" else build_code(n, m, seed=97 * n + m)
        for p in (0.0, 0.05, 0.25, 0.5):
            pmf = enumerate_joint(protocol, code, DsbsParams(p=p, n=n))
            joint = affine_joint(protocol, code, DsbsParams(p=p, n=n))
            assert (joint.protocol, joint.n, joint.m, joint.p) == (pmf.protocol, pmf.n, pmf.m, pmf.p)
            assert joint.widths == pmf.widths
            # The cache afterwards holds exactly the sets the three reports ask for.
            leakage_report(pmf), rate_report(pmf), check_lemma1(pmf)
            sets = set(pmf._cache) | {tuple(sorted(pmf.widths))}
            for key in sets:
                assert joint.entropy(key) == pytest.approx(pmf.entropy(key), abs=1e-10), \
                    (protocol, n, m, p, key)
            instances += 1
    assert instances == 4 * (29 + 44 + 5)  # secure-km, plain-km, zero-error-otp


def test_affine_engine_joint_entropy_of_everything():
    # Every variable is a function of (x, k, z), which are independent and all
    # in the set, so H(all) = n + klen + n h2(p); a packed key would need
    # 8n + 2 klen bits.
    # The pad groups nothing, since its syndrome is z, so it runs up to n = 63.
    for protocol, n, m, p in (("zero-error-otp", 16, 16, 0.1), ("zero-error-otp", 40, 40, 0.1),
                              ("zero-error-otp", 63, 63, 0.3), ("secure-km", 12, 8, 0.25)):
        code = None if protocol == "zero-error-otp" else build_code(n, m, seed=5)
        joint = affine_joint(protocol, code, DsbsParams(p=p, n=n))
        klen = joint.widths["k"]
        assert sum(joint.widths.values()) > 63
        expect = n + klen + n * binary_entropy(p)
        assert joint.entropy(tuple(joint.widths)) == pytest.approx(expect, abs=1e-10)
        if code is None:
            # The pad leaks nothing, decodes z exactly and spends a key bit per symbol.
            assert all(abs(eps) <= 1e-10 for eps in vars(leakage_report(joint)).values()), n
            assert rate_report(joint).rho == pytest.approx(1.0, abs=1e-10)


def test_leakage_closed_forms_hold_for_every_full_rank_code():
    # For every full-rank H, secure-km leaks nothing and spends m key bits, and
    # plain-km spends none and shows Charlie the m syndrome bits of each input
    # beyond z. The pad leaks nothing, decodes z exactly and spends n key bits.
    # Every row space at n <= 5 (m = 0 included) and random codes up to n = 63.
    codes = [code_from_matrix(Gf2Matrix(rows, n)) for n in range(1, 6) for rows in rref_rows(n)]
    assert len(codes) == 464
    codes += [build_code(n, m, seed=seed) for n, m in ((40, 16), (63, 10), (63, 16)) for seed in (1, 2)]
    instances = [(protocol, code, code.n) for code in codes for protocol in ("secure-km", "plain-km")]
    instances += [("zero-error-otp", None, n) for n in (*range(1, 9), 63)]
    for (protocol, code, n), p in itertools.product(instances, (0.05, 0.25)):
        joint = affine_joint(protocol, code, DsbsParams(p=p, n=n))
        leak, rho = leakage_report(joint), rate_report(joint).rho
        rate = 1.0 if code is None else code.m / n
        expect = {"eps1": 0.0, "eps2": 0.0, "eps3": rate if protocol == "plain-km" else 0.0,
                  "rho": 0.0 if protocol == "plain-km" else rate}
        if code is None:
            expect["eps4"] = 0.0
        got = {**vars(leak), "rho": rho}
        for name, value in expect.items():
            assert abs(got[name] - value) <= 1e-10, (protocol, code and code.matrix.to_string(), p, name)


def test_affine_engine_replay_catches_a_corrupted_description(monkeypatch):
    # At (8, 6) a power-of-two stride through the 2^22 atoms would replay only
    # y = 0, k = 0, and miss the second corruption.
    n = 8
    code = build_code(n, 6, seed=2)
    params = DsbsParams(p=0.2, n=n)
    affine_joint("secure-km", code, params)
    honest = analysis._affine_rows
    corruptions = (
        # bit 0 of m23 also reads bit 1 of x (rows hold x at bits 2n..3n)
        lambda m23: (m23[0] ^ 1 << (2 * n + 1),) + m23[1:],
        # m23 drops its noise part, as if Bob sent the syndrome of x: wrong only when y != x
        lambda m23: tuple(row & ~((1 << n) - 1) for row in m23),
    )
    for corrupt in corruptions:
        def corrupted(*args, corrupt=corrupt):
            rows = honest(*args)
            rows["m23"] = corrupt(rows["m23"])
            return rows

        monkeypatch.setattr(analysis, "_affine_rows", corrupted)
        with pytest.raises(RuntimeError, match="disagrees with protocol replay"):
            affine_joint("secure-km", code, params)


def test_affine_engine_replay_catches_a_remapped_key(monkeypatch):
    # Key bit 1 reads key bit 0 in every row that holds the key, so the
    # description is self-consistent with k' = (k0, k0, k2, ...); only a
    # replay on the atom index's own k can see that k' is not the key.
    n = 8
    code = build_code(n, 6, seed=2)
    params = DsbsParams(p=0.2, n=n)
    honest = analysis._affine_rows
    bit0, bit1 = 1 << 3 * n, 1 << (3 * n + 1)  # rows hold k at bits 3n..

    def remapped(*args):
        rows = honest(*args)
        for name in ("k", "m12", "m13", "m23"):
            rows[name] = tuple(row & ~bit1 | (bit0 if row & bit1 else 0) for row in rows[name])
        return rows

    monkeypatch.setattr(analysis, "_affine_rows", remapped)
    with pytest.raises(RuntimeError, match="disagrees with protocol replay"):
        affine_joint("secure-km", code, params)


def test_affine_engine_replay_catches_a_corrupted_zhat_row(monkeypatch):
    # The corruptions above touch only the x, z and k fields of a row.
    n = 8
    code = build_code(n, 6, seed=2)
    honest = analysis._affine_rows

    def corrupted(*args):
        rows = honest(*args)
        # bit 0 of zhat also reads zhat bit 1 (rows hold zhat at bits n..2n)
        rows["zhat"] = (rows["zhat"][0] ^ 1 << (n + 1),) + rows["zhat"][1:]
        return rows

    monkeypatch.setattr(analysis, "_affine_rows", corrupted)
    with pytest.raises(RuntimeError, match="disagrees with protocol replay"):
        affine_joint("secure-km", code, DsbsParams(p=0.2, n=n))


def _scalar_evaluate(joint, x, y, k):
    """Every variable of one (x, y, k) atom, one packed row at a time: the
    reference for the batched `analysis._evaluate` past the oracle's guard.
    zhat is the leader of the syndrome of z, which is z itself when there is
    no leader table."""
    n = joint.n
    synd = sum(((row & (x ^ y)).bit_count() & 1) << i for i, row in enumerate(joint.parity))
    zhat = synd if joint.leaders is None else int(joint.leaders[synd])
    word = (x ^ y) | zhat << n | x << 2 * n | k << 3 * n
    return {
        name: sum(((row & word).bit_count() & 1) << j for j, row in enumerate(rows))
        for name, rows in joint.rows.items()
    }


def _assert_evaluation_matches_scalar(joint, x, y, k):
    evaluated = analysis._evaluate(joint, x, y, k)
    assert tuple(joint.rows) == analysis._VARIABLES and len(evaluated) == len(joint.rows)
    batched = {name: col.tolist() for name, col in zip(joint.rows, evaluated)}
    scalar = [_scalar_evaluate(joint, *xyk) for xyk in zip(x.tolist(), y.tolist(), k.tolist())]
    for name, column in batched.items():
        assert column == [atom[name] for atom in scalar], (joint.protocol, joint.n, joint.m, name)


def test_batched_evaluation_matches_the_oracle_at_every_small_atom():
    # The oracle lists its atoms in the same (x, y, k) index order and holds
    # every variable as a column, computed on its own syndrome and leader path.
    instances = 0
    for protocol, n, m in _small_instances():
        code = None if protocol == "zero-error-otp" else build_code(n, m, seed=97 * n + m)
        params = DsbsParams(p=0.25, n=n)
        joint = affine_joint(protocol, code, params)
        pmf = enumerate_joint(protocol, code, params)
        index = np.arange(pmf.size, dtype=np.int64)
        evaluated = analysis._evaluate(joint, *analysis._split(index, n, joint.widths["k"]))
        assert tuple(joint.rows) == analysis._VARIABLES == tuple(pmf.columns)
        for name, column in zip(analysis._VARIABLES, evaluated):
            assert np.array_equal(column, pmf.columns[name]), (protocol, n, m, name)
        instances += 1
    assert instances == 29 + 44 + 5  # secure-km, plain-km, zero-error-otp


def test_batched_evaluation_splits_rows_wider_than_64_bits():
    # 4n > 64 at these sizes, so a packed row spans more than one int64.
    for protocol, n, m in (("secure-km", 17, 9), ("plain-km", 20, 12), ("zero-error-otp", 20, 20)):
        code = None if protocol == "zero-error-otp" else build_code(n, m, seed=3)
        joint = affine_joint(protocol, code, DsbsParams(p=0.1, n=n))
        klen = joint.widths["k"]
        atoms = [analysis._split(i, n, klen) for i in analysis._spread(1 << (2 * n + klen))]
        assert len(atoms) == 64
        _assert_evaluation_matches_scalar(
            joint, *(np.array(column, dtype=np.int64) for column in zip(*atoms)))


def test_affine_engine_guard_and_validation():
    with pytest.raises(CapacityError, match="n <= 63"):
        affine_joint("zero-error-otp", None, DsbsParams(p=0.1, n=64))
    # The engine needs no 2^n words, only the leader table's limits: m <= 24 and n <= 63.
    # These codes are built by hand, past the checks of build_code; both are
    # refused before their leaders are asked for.
    def unread():
        raise AssertionError("the leader table was read")
    wide = LinearCode(n=64, m=1, matrix=Gf2Matrix((1,), 64), seed=None,
                      leaders_by_weight=(1, 1) + (0,) * 63, recover_leaders=unread)
    with pytest.raises(CapacityError, match="n <= 63"):
        affine_joint("plain-km", wide, DsbsParams(p=0.1, n=64))
    tall = LinearCode(n=30, m=25, matrix=Gf2Matrix(tuple(1 << i for i in range(25)), 30), seed=None,
                      leaders_by_weight=(0,) * 31, recover_leaders=unread)
    with pytest.raises(CapacityError, match="2\\^25"):
        affine_joint("secure-km", tall, DsbsParams(p=0.1, n=30))
    with pytest.raises(ConfigurationError):
        affine_joint("bogus", FIXTURE, DsbsParams(p=0.1, n=3))
    with pytest.raises(ConfigurationError):
        affine_joint("plain-km", None, DsbsParams(p=0.1, n=3))
    with pytest.raises(ContractViolation):
        affine_joint("secure-km", FIXTURE, DsbsParams(p=0.1, n=4))
    joint = affine_joint("secure-km", FIXTURE, DsbsParams(p=0.25, n=3))
    assert joint.entropy("transcript") == joint.entropy(("m12", "m13", "m23"))
    assert ("m12", "m13", "m23") in joint._cache
    with pytest.raises(ConfigurationError):
        joint.entropy("nonsense")


def _noise_word_sum(joint):
    """H(B·(z, zhat)) of echelon noise rows B, summed over all 2^n noise words,
    each decoded through the syndrome table: the algorithm the engine replaced,
    kept as its reference."""
    n = joint.n
    words = np.arange(1 << n, dtype=np.int64)
    zhat = words if joint.leaders is None else joint.leaders[span_table(joint.parity, n)]
    ptable = np.array([joint.p**d * (1.0 - joint.p) ** (n - d) for d in range(n + 1)])
    probs = ptable[np.bitwise_count(words)]
    zmask = (1 << n) - 1

    def noise_entropy(noise):
        keys = span_table((row & zmask for row in noise), n)
        keys ^= span_table((row >> n for row in noise), n)[zhat]
        return oracles._grouped_entropy(keys, len(noise), probs)

    return noise_entropy


def _reference_entropy(joint, noise_entropy, variables):
    """H(variables) as the rank of the (x, k) part plus the noise-word sum."""
    key = analysis._expand(joint.widths, variables)
    basis = echelon(row for name in key for row in joint.rows[name])
    noise = [row for row in basis if row >> 2 * joint.n == 0]
    return len(basis) - len(noise) + noise_entropy(noise)


def _report_instances():
    """(protocol, code, n): all three protocols at n <= 20; codes with m = 0, a
    middle m and m = n, and only the middle m at n = 20, where a sum takes longest."""
    for n in (1, 3, 6, 11, 16, 20):
        for m in sorted({(n + 1) // 3} if n == 20 else {0, (n + 1) // 3, n}):
            for protocol in ("secure-km", "plain-km"):
                yield protocol, build_code(n, m, seed=31 * n + m), n
        yield "zero-error-otp", None, n


def test_affine_engine_matches_the_noise_word_sum():
    # Every set the three reports ask, against the sum over 2^n noise words.
    for protocol, code, n in _report_instances():
        for p in (0.0, 0.05, 0.25, 0.5):
            joint = affine_joint(protocol, code, DsbsParams(p=p, n=n))
            leakage_report(joint), rate_report(joint), check_lemma1(joint)
            noise_entropy = _noise_word_sum(joint)
            for key in list(joint._cache):
                assert joint.entropy(key) == pytest.approx(
                    _reference_entropy(joint, noise_entropy, key), abs=1e-10), (protocol, n, joint.m, p, key)


def test_every_variable_set_lands_in_a_case_the_engine_has():
    # Each noise part is empty, reads z back, or is a function of the syndrome:
    # no set of named variables raises, and each agrees with the noise-word sum.
    names = analysis._VARIABLES
    subsets = [[name for bit, name in enumerate(names) if mask >> bit & 1]
               for mask in range(1, 1 << len(names))]
    assert len(subsets) == 255
    n = 6
    instances = [("zero-error-otp", None)] + [(protocol, build_code(n, m, seed=m))
                                              for m in (0, 2, n) for protocol in ("secure-km", "plain-km")]
    for protocol, code in instances:
        for p in (0.1, 0.5):
            joint = affine_joint(protocol, code, DsbsParams(p=p, n=n))
            noise_entropy = _noise_word_sum(joint)
            for subset in subsets:
                assert joint.entropy(subset) == pytest.approx(
                    _reference_entropy(joint, noise_entropy, subset), abs=1e-10), (protocol, joint.m, p, subset)


def test_noise_entropy_refuses_a_function_that_loses_the_syndrome():
    # No named set is a function of the syndrome s that loses s (the test above
    # covers every set), so the engine refuses one. Noise rows made up over
    # z | zhat << n check both sides: rows that lose s raise, rows that give s
    # back match the noise-word sum.
    n = 9
    code = build_code(n, 5, seed=4)
    h0, h1 = code.matrix.rows[:2]
    joint = affine_joint("plain-km", code, DsbsParams(p=0.15, n=n))
    for noise in ([1 << n], [h0], [h0 | 1 << (n + 2)], [h0, h1 ^ 0b101 << n],
                  [1 << (n + j) for j in range(n - 1)]):
        with pytest.raises(CapacityError, match="loses it"):
            joint._noise_entropy(echelon(noise))
    noise_entropy = _noise_word_sum(joint)
    for noise in (code.matrix.rows, [h0, *(row << n for row in code.matrix.rows[1:])],
                  [1 << (n + j) for j in range(n)]):
        noise = echelon(noise)
        assert joint._noise_entropy(noise) == pytest.approx(noise_entropy(noise), abs=1e-10), noise
    # A z-part outside the row space of H is not a function of the syndrome.
    outside = next(1 << i for i in range(n) if len(echelon([*code.matrix.rows, 1 << i])) > code.m)
    with pytest.raises(CapacityError, match="row space"):
        joint._noise_entropy([outside])


def test_syndrome_law_matches_the_syndrome_table():
    # P(s) from the flip passes, and H(s) from it, against the noise-word masses
    # summed per syndrome: every row space at n <= 5, and random codes up to m = 21.
    codes = [code_from_matrix(Gf2Matrix(rows, n)) for n in range(1, 6) for rows in rref_rows(n)]
    assert len(codes) == 464  # the subspaces of GF(2)^n, n = 1..5: 2 + 5 + 16 + 67 + 374
    codes += [build_code(n, m, seed=n + m)
              for n, m in ((1, 0), (1, 1), (6, 3), (9, 9), (13, 7), (21, 20), (22, 21))]
    for code in codes:
        n, m, rows = code.n, code.m, code.matrix.rows
        syndromes = span_table(rows, n)
        weights = np.bitwise_count(np.arange(1 << n))
        for p in (0.0, 0.05, 0.25, 0.5):
            law = analysis._syndrome_law(rows, n, p)
            probs = np.array([p**d * (1.0 - p) ** (n - d) for d in range(n + 1)])[weights]
            expect = np.bincount(syndromes, weights=probs, minlength=1 << m)
            assert law.shape == (1 << m,)
            assert not np.isnan(law).any() and (law >= 0.0).all()
            np.testing.assert_allclose(law, expect, rtol=1e-10, atol=0.0)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)
            joint = analysis.AffineJoint(protocol="plain-km", n=n, m=m, p=p, widths={}, rows={},
                                         parity=rows, leaders=code.leaders)
            assert joint.syndrome_entropy == pytest.approx(
                oracles._grouped_entropy(syndromes, m, probs), abs=1e-12), (n, rows, p)


def test_affine_engine_replay_catches_an_atom_out_of_order(monkeypatch):
    # An engine hands over its values by name, so a value under the wrong
    # name is caught even when every value is right.
    honest = analysis._evaluate

    def swapped(*args):
        x, y, z, k, m12, m13, m23, zhat = honest(*args)
        return x, y, z, k, m12, m23, m13, zhat

    monkeypatch.setattr(analysis, "_evaluate", swapped)
    code = build_code(6, 4, seed=1)
    for protocol, arg in (("secure-km", code), ("plain-km", code), ("zero-error-otp", None)):
        with pytest.raises(RuntimeError, match="disagrees with protocol replay"):
            affine_joint(protocol, arg, DsbsParams(p=0.2, n=6))


def test_report_row_csv_line():
    row = ReportRow(
        protocol="secure-km", n=3, m=2, p=0.25, seed=9,
        r12=2 / 3, r13=2 / 3, r23=2 / 3, rho=2 / 3,
        eps1=0.0, eps2=0.0, eps3=0.0, eps4=0.07,
        p_err_exact=0.15625, p_err_mc=None, mc_ci=None, in_region=False,
    )
    line = row.csv_line()
    assert line.split(",")[0] == "secure-km"
    assert line == (
        "secure-km,3,2,0.25,9,"
        "0.6666666666666666,0.6666666666666666,0.6666666666666666,0.6666666666666666,"
        "0.0,0.0,0.0,0.07,0.15625,,,false"
    )
    sparse = ReportRow(protocol="plain-km", n=2, m=1, p=0.1, seed=0, in_region=True)
    assert sparse.csv_line() == "plain-km,2,1,0.1,0,,,,,,,,,,,,true"
