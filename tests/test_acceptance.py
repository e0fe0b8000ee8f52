"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
The whole module is exact-arithmetic heavy and takes a few minutes.
"""
from __future__ import annotations

import math
from itertools import product
from random import Random

import pytest

from oracles import check_lemma1, enumerate_joint, random_pmf
from securesum.analysis import (
    affine_joint,
    check_rate_region,
    conditional_entropy,
    conditional_mutual_information,
    leakage_report,
    monte_carlo_error,
    rate_report,
)
from securesum.cli import derive_run_seed, main
from securesum.codes import build_code, exact_error_probability, m_for_rate
from securesum.gf2 import Gf2Vector
from securesum.protocol import ALICE, BOB, CHARLIE, run
from securesum.source import DsbsParams, binary_entropy

MASTER_SEED = 20240818

GRID = [(n, m) for n in range(2, 9) for m in range(1, min(n, 6) + 1)]
GRID_PS = (0.05, 0.1, 0.25, 0.49)
GRID_SEEDS = 5


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def secure_grid():
    """Exact reports for every masked-scheme grid instance; shared by 1 and 3.

    Each row holds the enumerated oracle's reports and the affine engine's.
    """
    rows = []
    for (n, m), p in product(GRID, GRID_PS):
        params = DsbsParams(p=p, n=n)
        for idx in range(GRID_SEEDS):
            seed = derive_run_seed(MASTER_SEED, "secure-km", n, m, p, idx)
            code = build_code(n, m, seed=seed)
            pmf = enumerate_joint("secure-km", code, params)
            joint = affine_joint("secure-km", code, params)
            rows.append((n, m, p, leakage_report(pmf), rate_report(pmf),
                         leakage_report(joint), rate_report(joint)))
    return rows


def test_criterion_1_masked_scheme_is_perfectly_private(secure_grid):
    worst = 0.0
    for n, m, p, leak, rates, engine_leak, engine_rates in secure_grid:
        for eps in (leak.eps1, leak.eps2, leak.eps3):
            worst = max(worst, abs(eps))
            assert abs(eps) <= 1e-10, (n, m, p, leak)
        for name in ("eps1", "eps2", "eps3", "eps4"):
            assert abs(getattr(engine_leak, name) - getattr(leak, name)) <= 1e-10, (n, m, p, name)
        assert abs(engine_rates.rho - rates.rho) <= 1e-10, (n, m, p)
    _report(
        1, True,
        f"eps1, eps2, eps3 all <= 1e-10 across {len(secure_grid)} exact "
        f"enumerations (worst |eps| = {worst:.3g}); the affine engine agrees "
        "on eps1..eps4 and rho to 1e-10",
    )


def test_criterion_2_uncoded_pad_scheme_is_exact(tmp_path):
    runs = 0
    for n in (1, 2, 3, 4):
        for xb, yb, kb in product(range(1 << n), repeat=3):
            out = run("zero-error-otp", None, Gf2Vector(xb, n), Gf2Vector(yb, n), Gf2Vector(kb, n))
            assert out.correct and out.z_hat.bits == xb ^ yb
            link = out.transcript.link_payload
            assert link(ALICE, BOB).n == link(ALICE, CHARLIE).n == link(BOB, CHARLIE).n == n
            runs += 1
    for n, p in product((1, 2, 3), (0.0, 0.25, 0.5)):
        pmf = enumerate_joint("zero-error-otp", None, DsbsParams(p=p, n=n))
        rates = rate_report(pmf)
        assert rates.r12 == rates.r13 == rates.r23 == 1.0
        assert abs(rates.rho - 1.0) <= 1e-12
        rep = check_lemma1(pmf)
        for value in (
            rep.h_x_given_alice_links,
            rep.h_y_given_bob_links,
            rep.i_link12_inputs,
            rep.i_link13_inputs,
            rep.i_link23_inputs,
        ):
            assert abs(value) <= 1e-10
        assert rep.all_hold
    _report(
        2, True,
        f"all {runs} exhaustive triples decode exactly; every rate is 1 and "
        "the five structure conditions hold to 1e-10",
    )


def test_criterion_3_masked_scheme_rate_accounting(secure_grid):
    checked = 0
    for n, m, p, _, rates, _, _ in secure_grid:
        assert rates.r13 == rates.r23 == rates.r12 == m / n
        assert abs(rates.rho - m / n) <= 1e-10
        if m / n >= binary_entropy(p):
            assert check_rate_region(rates.quadruple(), p), (n, m, p)
            checked += 1
    _report(
        3, True,
        f"r13 = r23 = r12 = m/n exactly and rho matches to 1e-10 on all "
        f"{len(secure_grid)} instances; {checked} quadruples at m/n >= h2(p) "
        "all sit inside the region",
    )


MC_INSTANCES = [
    ("secure-km", 4, 2, 0.05), ("secure-km", 6, 3, 0.1), ("secure-km", 8, 4, 0.25),
    ("secure-km", 10, 5, 0.1), ("secure-km", 12, 8, 0.1), ("secure-km", 12, 6, 0.25),
    ("secure-km", 14, 9, 0.05), ("secure-km", 16, 10, 0.1), ("secure-km", 16, 12, 0.25),
    ("secure-km", 16, 16, 0.49), ("plain-km", 4, 3, 0.49), ("plain-km", 6, 4, 0.25),
    ("plain-km", 8, 5, 0.1), ("plain-km", 10, 6, 0.05), ("plain-km", 12, 7, 0.1),
    ("plain-km", 12, 12, 0.25), ("plain-km", 14, 10, 0.25), ("plain-km", 16, 11, 0.05),
    ("plain-km", 16, 13, 0.1), ("plain-km", 16, 8, 0.49),
]


def test_criterion_4_sampling_matches_exact_error():
    trials = 100000
    worst = 0.0
    for protocol, n, m, p in MC_INSTANCES:
        seed = derive_run_seed(MASTER_SEED, protocol, n, m, p, 0)
        rng = Random(seed)
        code = build_code(n, m, seed=rng.getrandbits(63))
        exact = exact_error_probability(code, p)
        mc = monte_carlo_error(protocol, code, DsbsParams(p=p, n=n), trials, rng)
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(mc.p_err - exact) <= 3.0 * sigma, (protocol, n, m, p, exact, mc)
        if sigma > 0.0:
            worst = max(worst, abs(mc.p_err - exact) / sigma)
    _report(
        4, True,
        f"{len(MC_INSTANCES)} instances at 1e5 trials each stay within "
        f"3 binomial sigma of the exact enumeration (worst deviation "
        f"{worst:.2f} sigma)",
    )


def test_criterion_5_error_falls_with_block_length(tmp_path):
    rate = binary_entropy(0.1) + 0.15
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--protocol", "secure-km", "--n", "6,18", "--rate", repr(rate),
        "--p", "0.1", "--seeds", "10", "--mode", "exact", "--aggregate",
        "--seed", str(MASTER_SEED), "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()[2:]
    means = {}
    for line in lines:
        parts = line.split(",")
        means[int(parts[1])] = float(parts[13])
    assert set(means) == {6, 18}
    assert m_for_rate(6, rate) == 4 and m_for_rate(18, rate) == 12
    assert means[18] < means[6]
    for n, p, seed in product((4, 6, 18), (0.05, 0.1, 0.25, 0.49), range(3)):
        code = build_code(n, n, seed=derive_run_seed(MASTER_SEED, "secure-km", n, n, p, seed))
        assert exact_error_probability(code, p) == 0.0
    _report(
        5, True,
        f"mean exact error over 10 codes at rate h2(0.1)+0.15 drops from "
        f"{means[6]:.4f} (n=6) to {means[18]:.4f} (n=18); full-length codes "
        "decode with exactly zero error",
    )


_UNMASKED_NOTE = (
    "stated regression 'eps1 > 0.01' for the unmasked scheme at n = m = 2, "
    "p = 0.25 is unattainable: the Alice-facing leakage eps1 = "
    "I(M13,M12;Y|X)/n is identically zero because her outgoing traffic is a "
    "deterministic function of her own input; the quantity the missing mask "
    "actually exposes is the Charlie-facing eps3 = 1.0, pinned by the "
    "companion regression test"
)


@pytest.mark.xfail(strict=True, reason=_UNMASKED_NOTE)
def test_criterion_6_unmasked_scheme_alice_facing_leakage():
    code = build_code(2, 2, seed=derive_run_seed(MASTER_SEED, "plain-km", 2, 2, 0.25, 0))
    pmf = enumerate_joint("plain-km", code, DsbsParams(p=0.25, n=2))
    _report(6, False, _UNMASKED_NOTE)
    assert leakage_report(pmf).eps1 > 0.01


def test_criterion_6_unmasked_scheme_regression_values():
    # pinned by a standalone exact-fraction oracle before this package was
    # built: dropping the mask moves the leakage to Charlie's view, not to
    # the per-party views
    for seed_idx in range(3):
        code = build_code(2, 2, seed=derive_run_seed(MASTER_SEED, "plain-km", 2, 2, 0.25, seed_idx))
        rep = leakage_report(enumerate_joint("plain-km", code, DsbsParams(p=0.25, n=2)))
        assert abs(rep.eps1 - 0.0) <= 1e-10
        assert abs(rep.eps2 - 0.0) <= 1e-10
        assert abs(rep.eps3 - 1.0) <= 1e-10
        assert rep.eps3 > 0.01
        assert abs(rep.eps4 - 0.0) <= 1e-10


def test_criterion_7_information_engine_self_tests():
    rng = Random(MASTER_SEED)
    for _ in range(100):
        pmf = random_pmf(rng, 32)
        assert abs(pmf.total() - 1.0) <= 1e-10
        chain = (
            pmf.entropy("c")
            + conditional_entropy(pmf, "b", "c")
            + conditional_entropy(pmf, "a", ("b", "c"))
        )
        assert abs(pmf.entropy(("a", "b", "c")) - chain) <= 1e-10
        assert conditional_mutual_information(pmf, "a", "b", "c") >= -1e-10
        assert conditional_mutual_information(pmf, "a", "b") >= -1e-10
        assert conditional_entropy(pmf, "a", "b") >= -1e-10
    pmf = enumerate_joint("zero-error-otp", None, DsbsParams(p=0.25, n=1))
    i_xy = conditional_mutual_information(pmf, "x", "y")
    expect = 1.0 - binary_entropy(0.25)
    assert abs(i_xy - expect) <= 1e-9
    _report(
        7, True,
        f"chain rule, nonnegativity, and normalization hold to 1e-10 on 100 "
        f"random pmfs; source mutual information {i_xy:.12f} matches "
        f"1 - h2(0.25) to 1e-9",
    )
