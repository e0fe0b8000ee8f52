from __future__ import annotations

from itertools import combinations
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from securesum import codes
from securesum.codes import (
    build_code,
    code_from_matrix,
    exact_error_probability,
    m_for_rate,
)
from securesum.errors import CapacityError, ContractViolation
from securesum.gf2 import Gf2Matrix, Gf2Vector

FIXTURE = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])


def _syndrome_oracle(matrix: Gf2Matrix, word: int) -> int:
    s = 0
    for i in range(matrix.m):
        acc = 0
        for j in range(matrix.cols):
            acc ^= matrix.row(i)[j] & ((word >> j) & 1)
        s |= acc << i
    return s


def _pattern_key(word: int, n: int) -> str:
    # smallest '0'/'1' string with symbol 0 written first
    return "".join(str((word >> i) & 1) for i in range(n))


def _leader_oracle(matrix: Gf2Matrix) -> dict[int, int]:
    n = matrix.cols
    best: dict[int, int] = {}
    for word in range(1 << n):
        s = _syndrome_oracle(matrix, word)
        if s not in best:
            best[s] = word
            continue
        cur = best[s]
        cand = (bin(word).count("1"), _pattern_key(word, n))
        incumbent = (bin(cur).count("1"), _pattern_key(cur, n))
        if cand < incumbent:
            best[s] = word
    return best


def _bit_reverse_per_bit(words: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros_like(words)
    for i in range(n):
        out |= ((words >> i) & 1) << (n - 1 - i)
    return out


def _least_word_per_syndrome(matrix: Gf2Matrix, words: np.ndarray) -> np.ndarray:
    # Sort the words by (weight, pattern with symbol 0 most significant)
    # and keep the first word of each syndrome; every syndrome must occur.
    synd = np.zeros_like(words)
    for i, row in enumerate(matrix.rows):
        synd |= (np.bitwise_count(words & row).astype(np.int64) & 1) << i
    order = np.lexsort((_bit_reverse_per_bit(words, matrix.cols), np.bitwise_count(words)))
    uniq, first = np.unique(synd[order], return_index=True)
    assert len(uniq) == 1 << matrix.m
    return words[order][first]


def _sorted_leader_reference(matrix: Gf2Matrix) -> np.ndarray:
    return _least_word_per_syndrome(matrix, np.arange(1 << matrix.cols, dtype=np.int64))


def _weight_limited_leader_reference(matrix: Gf2Matrix, weight: int) -> np.ndarray:
    # Only the words of weight <= `weight`, so n may go past the full table.
    words = [sum(1 << j for j in support) for w in range(weight + 1)
             for support in combinations(range(matrix.cols), w)]
    return _least_word_per_syndrome(matrix, np.array(words, dtype=np.int64))


def test_fixture_leader_table_matches_worked_example():
    code = code_from_matrix(FIXTURE)
    table = {s: Gf2Vector(int(code.leaders[s]), 3).to_string() for s in range(4)}
    # syndrome packed with component 0 in bit 0
    assert table == {0b00: "000", 0b01: "100", 0b10: "001", 0b11: "010"}


def test_fixture_syndrome():
    code = code_from_matrix(FIXTURE)
    assert code.syndrome(Gf2Vector.from_string("010")) == Gf2Vector.from_bits([1, 1])


def test_fixture_decode():
    code = code_from_matrix(FIXTURE)
    assert code.decode(Gf2Vector.from_bits([1, 1])) == Gf2Vector.from_string("010")
    assert code.decode(Gf2Vector.from_bits([1, 0])) == Gf2Vector.from_string("100")


def test_fixture_exact_error_probability():
    code = code_from_matrix(FIXTURE)
    p = 0.25
    # every coset leader decodes to itself, everything else errs
    by_hand = 1.0 - (0.75**3 + 3 * 0.25 * 0.75**2)
    assert by_hand == 0.15625
    assert exact_error_probability(code, p) == pytest.approx(0.15625, abs=1e-15)


def test_exact_error_probability_matches_enumeration_oracle():
    rng = Random(9)
    for n, m in ((4, 2), (6, 3), (7, 5), (10, 4), (12, 7)):
        code = build_code(n, m, seed=rng.randrange(10**6))
        wrong = [bin(z).count("1") for z in range(1 << n)
                 if int(code.leaders[_syndrome_oracle(code.matrix, z)]) != z]
        for p in (0.0, 0.1, 0.25, 0.5):
            expect = 0.0
            for w in wrong:
                expect += p**w * (1 - p) ** (n - w)
            assert exact_error_probability(code, p) == pytest.approx(expect, abs=1e-13)


def test_leaders_match_brute_force_oracle():
    rng = Random(31)
    cases = [FIXTURE, Gf2Matrix.from_rows([[1, 1]])]
    for n, m in ((4, 2), (6, 4), (8, 3), (10, 5), (12, 6)):
        cases.append(build_code(n, m, seed=rng.randrange(10**6)).matrix)
    for matrix in cases:
        code = code_from_matrix(matrix)
        oracle = _leader_oracle(matrix)
        for s, leader in oracle.items():
            assert int(code.leaders[s]) == leader, (matrix.to_string(), s)


def test_tie_break_prefers_late_support():
    # both weight-1 words of the coset share the syndrome; '01' < '10' as a
    # pattern with symbol 0 most significant, so the leader sits on symbol 1
    code = code_from_matrix(Gf2Matrix.from_rows([[1, 1]]))
    assert code.decode(Gf2Vector.from_bits([1])) == Gf2Vector.from_string("01")


def test_leaders_are_minimum_weight_exhaustively():
    rng = Random(1234)
    for n, m in ((5, 2), (9, 4), (12, 6), (12, 3)):
        code = build_code(n, m, seed=rng.randrange(10**6))
        for word in range(1 << n):
            s = _syndrome_oracle(code.matrix, word)
            leader = int(code.leaders[s])
            assert bin(leader).count("1") <= bin(word).count("1")
        # and every leader lies in the coset it labels
        for s in range(1 << m):
            assert _syndrome_oracle(code.matrix, int(code.leaders[s])) == s


def test_leaders_match_sorted_full_table_reference():
    rng = Random(77)
    for n, m in ((6, 3), (8, 4), (10, 6), (11, 2), (21, 6), (22, 8)):
        code = build_code(n, m, seed=rng.randrange(10**6))
        assert np.array_equal(code.leaders, _sorted_leader_reference(code.matrix)), (n, m)


def test_leaders_match_weight_limited_reference_beyond_full_table():
    rng = Random(63)
    for n in (32, 33, 48, 63):
        for m in (1, 5, 8):
            code = build_code(n, m, seed=rng.randrange(10**6))
            weight = int(np.bitwise_count(code.leaders).max())
            reference = _weight_limited_leader_reference(code.matrix, weight)
            assert np.array_equal(code.leaders, reference), (n, m)


def test_bit_reverse_matches_per_bit_loop(monkeypatch):
    rng = np.random.default_rng(8)
    for n in (0, 1, 7, 8, 31, 32, 33, 63):
        top = (1 << n) - 1
        words = np.concatenate([
            np.array([0, top, (top + 1) >> 1], dtype=np.int64),
            rng.integers(0, top, size=3 * codes._PASS + 5, dtype=np.int64, endpoint=True),
        ])
        expect = _bit_reverse_per_bit(words, n)
        assert np.array_equal(codes._bit_reverse(words.copy(), n), expect), n
        monkeypatch.setattr(codes, "_PASS", 7)
        assert np.array_equal(codes._bit_reverse(words.copy(), n), expect), n
        monkeypatch.undo()


def test_leader_search_chunks_leave_tables_unchanged(monkeypatch):
    # Passes of a few candidates and blocks of a few syndromes cross every
    # chunk boundary, including runs that split a layer mid-way.
    rng = Random(77)
    sizes = ((6, 3), (8, 4), (10, 6), (11, 2), (21, 6), (22, 8))
    matrices = [build_code(n, m, seed=rng.randrange(10**6)).matrix for n, m in sizes]
    monkeypatch.setattr(codes, "_PASS", 3)
    monkeypatch.setattr(codes, "_BLOCK", 4)
    for matrix in matrices:
        code = code_from_matrix(matrix)
        assert np.array_equal(code.leaders, _sorted_leader_reference(matrix)), matrix.cols


def test_build_code_deterministic_and_full_rank():
    a = build_code(8, 4, seed=5)
    b = build_code(8, 4, seed=5)
    assert a.matrix == b.matrix
    assert a.matrix.rank() == 4
    seen = {build_code(8, 4, seed=s).matrix for s in range(20)}
    assert len(seen) > 1
    for s in range(50):
        assert build_code(6, 6, seed=s).matrix.rank() == 6


def test_zero_syndrome_code():
    code = build_code(4, 0, seed=0)
    assert code.decode(Gf2Vector.zeros(0)) == Gf2Vector.zeros(4)
    p = 0.2
    assert exact_error_probability(code, p) == pytest.approx(1 - 0.8**4, abs=1e-15)


def test_full_length_code_is_exact():
    for seed in range(5):
        code = build_code(6, 6, seed=seed)
        for p in (0.05, 0.25, 0.5):
            assert exact_error_probability(code, p) == 0.0


def test_rank_deficient_matrix_rejected():
    with pytest.raises(ContractViolation):
        code_from_matrix(Gf2Matrix.from_rows([[1, 1, 0], [1, 1, 0]]))


def test_code_from_matrix_checks_shape_before_rank():
    with pytest.raises(ContractViolation, match="m <= n"):
        code_from_matrix(Gf2Matrix.from_rows([[1, 0], [0, 1], [1, 1]]))
    # Full rank, but its leader table would exceed the 2^24 guard: refused before any search.
    identity = Gf2Matrix.from_rows([[int(i == j) for j in range(25)] for i in range(25)])
    with pytest.raises(CapacityError, match="2\\^25"):
        code_from_matrix(identity)


def test_capacity_guards():
    with pytest.raises(CapacityError, match="2\\^26"):
        build_code(30, 26, seed=0)
    wide = build_code(26, 2, seed=0)  # 2^26 words, but only four cosets
    assert wide.matrix.rank() == 2
    # Exact error has no guard on n: one minus the mass of the four leaders.
    p = 0.1
    weights = [bin(int(leader)).count("1") for leader in wide.leaders]
    correct = sum(p**w * (1 - p) ** (26 - w) for w in weights)
    assert exact_error_probability(wide, p) == pytest.approx(1 - correct, abs=1e-15)
    # Leader words are packed in int64: n = 63 is the widest code.
    assert 0.0 < exact_error_probability(build_code(63, 2, seed=0), p) < 1.0
    with pytest.raises(CapacityError, match="n <= 63"):
        build_code(64, 2, seed=0)


@given(st.integers(0, 7), st.integers(0, 7))
def test_syndrome_linearity(a, b):
    code = code_from_matrix(FIXTURE)
    va, vb = Gf2Vector(a, 3), Gf2Vector(b, 3)
    assert code.syndrome(va ^ vb) == code.syndrome(va) ^ code.syndrome(vb)


def test_m_for_rate_rounds_up():
    rate = 0.6189955935892813  # entropy of 0.1 plus a 0.15 margin
    assert m_for_rate(6, rate) == 4
    assert m_for_rate(18, rate) == 12
    assert m_for_rate(4, 0.5) == 2
    assert m_for_rate(3, 1.0) == 3
    assert m_for_rate(5, 0.0) == 0
    with pytest.raises(ContractViolation):
        m_for_rate(5, 1.2)


def test_dimension_validation():
    code = code_from_matrix(FIXTURE)
    with pytest.raises(ContractViolation):
        code.syndrome(Gf2Vector.zeros(4))
    with pytest.raises(ContractViolation):
        code.decode(Gf2Vector.zeros(3))
    with pytest.raises(ContractViolation):
        build_code(3, 4, seed=0)
    with pytest.raises(ContractViolation):
        exact_error_probability(code, 0.75)
