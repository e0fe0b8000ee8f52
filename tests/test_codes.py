from __future__ import annotations

import math
from decimal import Decimal
from itertools import combinations
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import securesum.codes as codes_module
from oracles import leader_table, rref_rows, span_table
from securesum.cli import main as cli_main
from securesum.codes import (
    build_code,
    code_from_matrix,
    exact_error_probability,
    m_for_rate,
)
from securesum.errors import CapacityError, ContractViolation
from securesum.gf2 import Gf2Batch, Gf2Matrix, Gf2Vector

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
    table = {s: Gf2Vector(int(leader), 3).to_string() for s, leader in enumerate(leader_table(code))}
    # syndrome packed with component 0 in bit 0
    assert table == {0b00: "000", 0b01: "100", 0b10: "001", 0b11: "010"}


def test_fixture_syndrome():
    code = code_from_matrix(FIXTURE)
    assert code.syndrome(Gf2Vector.from_string("010")) == Gf2Vector.from_bits([1, 1])


def test_fixture_decode():
    code = code_from_matrix(FIXTURE)
    assert code.decode(Gf2Vector.from_bits([1, 1])) == Gf2Vector.from_string("010")
    assert code.decode(Gf2Vector.from_bits([1, 0])) == Gf2Vector.from_string("100")
    # A batch of syndromes decodes word by word, through the same table.
    decoded = code.decode(Gf2Batch([0b11, 0b01, 0b00, 0b10], 2))
    assert decoded.n == 3 and decoded.bits.tolist() == [0b010, 0b001, 0b000, 0b100]


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
        leaders = leader_table(code)
        wrong = [bin(z).count("1") for z in range(1 << n)
                 if int(leaders[_syndrome_oracle(code.matrix, z)]) != z]
        for p in (0.0, 0.1, 0.25, 0.5):
            expect = 0.0
            for w in wrong:
                expect += p**w * (1 - p) ** (n - w)
            assert exact_error_probability(code, p) == pytest.approx(expect, abs=1e-13)


def test_exact_error_is_the_maximum_likelihood_error_of_every_row_space():
    # The ML error 1 - sum_s max_{z: Hz = s} P(z) depends on the row space
    # alone and not on how ties are broken, so it checks the exact error
    # without the leader table's tie-break. One reduced-row-echelon H per row
    # space at n <= 6, m = 0 included.
    ps = (0.01, 0.1, 0.3, 0.5)
    codes = 0
    for n in range(1, 7):
        weights = np.bitwise_count(np.arange(1 << n))
        probs = [p**weights * (1 - p) ** (n - weights) for p in ps]
        for rows in rref_rows(n):
            code = code_from_matrix(Gf2Matrix(rows, n))
            syndromes = span_table(rows, n)
            for p, prob in zip(ps, probs):
                best = np.zeros(1 << len(rows))
                np.maximum.at(best, syndromes, prob)
                assert abs(exact_error_probability(code, p) - (1 - best.sum())) <= 1e-13, (rows, p)
            codes += 1
    assert codes == 3289


def _hamming(r: int) -> Gf2Matrix:
    """The (2^r - 1, m = r) Hamming code: column j of H is the binary form of j + 1."""
    n = (1 << r) - 1
    return Gf2Matrix(tuple(sum(((j + 1) >> i & 1) << j for j in range(n)) for i in range(r)), n)


def _golay() -> Gf2Matrix:
    """The binary Golay (23, m = 11) code: row i of H is the reversed check
    polynomial (x^23 + 1)/g(x) shifted by i, with g = x^11+x^10+x^6+x^5+x^4+x^2+1."""
    g = 0b110001110101
    quotient, rest = 0, 1 << 23 | 1
    while rest.bit_length() >= g.bit_length():
        shift = rest.bit_length() - g.bit_length()
        quotient |= 1 << shift
        rest ^= g << shift
    assert rest == 0 and quotient.bit_length() == 13
    reversed_h = int(f"{quotient:013b}"[::-1], 2)
    return Gf2Matrix(tuple(reversed_h << i for i in range(11)), 23)


@pytest.mark.parametrize("matrix, t", [*((_hamming(r), 1) for r in range(3, 7)), (_golay(), 3)],
                         ids=[*(f"hamming-{(1 << r) - 1}" for r in range(3, 7)), "golay-23"])
def test_perfect_codes_decode_exactly_the_patterns_within_their_radius(matrix, t):
    # A perfect code's cosets are the balls of radius t, so its leaders are
    # every word of weight <= t and its error is the tail of the binomial.
    code = code_from_matrix(matrix)
    n = code.n
    counts = np.bincount(np.bitwise_count(leader_table(code)), minlength=n + 1)
    assert counts.tolist() == [math.comb(n, w) if w <= t else 0 for w in range(n + 1)]
    for p in (0.01, 0.05, 0.2):
        closed = 1.0 - sum(math.comb(n, w) * p**w * (1 - p) ** (n - w) for w in range(t + 1))
        assert abs(exact_error_probability(code, p) - closed) <= 1e-13, p


def test_leaders_match_brute_force_oracle():
    rng = Random(31)
    cases = [FIXTURE, Gf2Matrix.from_rows([[1, 1]])]
    for n, m in ((4, 2), (6, 4), (8, 3), (10, 5), (12, 6)):
        cases.append(build_code(n, m, seed=rng.randrange(10**6)).matrix)
    # One reduced-row-echelon H per row space at n <= 5, m = 0 included: every
    # split of the columns into pivots and free columns at those sizes.
    row_spaces = [Gf2Matrix(rows, n) for n in range(1, 6) for rows in rref_rows(n)]
    assert len(row_spaces) == 464
    # Column 1 of the first is zero, a pass with no flip axes. In the second,
    # columns 0 and 1 are equal free columns, so they take the same pass twice,
    # and columns 3 and 4 are equal with one a pivot; the third has both kinds.
    cases += row_spaces + [
        Gf2Matrix.from_rows([[1, 0, 1, 1, 0, 0], [0, 0, 1, 0, 1, 1], [1, 0, 0, 1, 1, 0]]),
        Gf2Matrix.from_rows([[1, 1, 0, 1, 1, 0, 1], [0, 0, 1, 1, 1, 1, 0], [1, 1, 1, 0, 0, 1, 0]]),
        Gf2Matrix.from_rows([[1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1]]),
    ]
    for matrix in cases:
        leaders = leader_table(code_from_matrix(matrix))
        oracle = _leader_oracle(matrix)
        assert len(leaders) == len(oracle) == 1 << matrix.m
        for s, leader in oracle.items():
            assert int(leaders[s]) == leader, (matrix.to_string(), s)


def test_tie_break_prefers_late_support():
    # both weight-1 words of the coset share the syndrome; '01' < '10' as a
    # pattern with symbol 0 most significant, so the leader sits on symbol 1
    code = code_from_matrix(Gf2Matrix.from_rows([[1, 1]]))
    assert code.decode(Gf2Vector.from_bits([1])) == Gf2Vector.from_string("01")


def test_leaders_are_minimum_weight_exhaustively():
    rng = Random(1234)
    for n, m in ((5, 2), (9, 4), (12, 6), (12, 3)):
        code = build_code(n, m, seed=rng.randrange(10**6))
        leaders = leader_table(code)
        for word in range(1 << n):
            s = _syndrome_oracle(code.matrix, word)
            leader = int(leaders[s])
            assert bin(leader).count("1") <= bin(word).count("1")
        # and every leader lies in the coset it labels
        for s in range(1 << m):
            assert _syndrome_oracle(code.matrix, int(leaders[s])) == s


def test_leaders_match_sorted_full_table_reference():
    rng = Random(77)
    # (18, 17) has 2^17 syndromes, so its weights are counted in two blocks.
    for n, m in ((6, 3), (8, 4), (10, 6), (11, 2), (21, 6), (22, 8), (18, 17)):
        code = build_code(n, m, seed=rng.randrange(10**6))
        assert np.array_equal(leader_table(code), _sorted_leader_reference(code.matrix)), (n, m)


def test_leaders_match_weight_limited_reference_beyond_full_table():
    rng = Random(63)
    shapes = [(n, m) for n in (32, 33, 48, 63) for m in (1, 5, 8)]
    # At the widest codes a key's free field takes n - m of its 64 bits.
    shapes += [(n, m) for n in range(59, 64) for m in (1, 5, 8, 12)]
    for n, m in shapes:
        code = build_code(n, m, seed=rng.randrange(10**6))
        leaders = leader_table(code)
        weight = int(np.bitwise_count(leaders).max())
        reference = _weight_limited_leader_reference(code.matrix, weight)
        assert np.array_equal(leaders, reference), (n, m)


def test_weight_counts_are_the_recovered_leaders_weights():
    rng = Random(83)
    codes = [code_from_matrix(Gf2Matrix(rows, n)) for n in range(1, 7) for rows in rref_rows(n)]
    codes += [build_code(n, m, seed=rng.randrange(10**6))
              for n, m in ((17, 16), (18, 12), (24, 9), (40, 14), (63, 16), (63, 3))]
    codes.append(build_code(26, 2, seed=0))
    ps = (0.01, 0.1, 0.3, 0.5)
    for code in codes:
        # The counts come from the min-plus keys' weight fields, with no leader read.
        errors = [exact_error_probability(code, p) for p in ps]
        n = code.n
        counts = np.bincount(np.bitwise_count(leader_table(code)), minlength=n + 1)
        assert code.leaders_by_weight == tuple(counts.tolist()), code.matrix
        # Bit for bit the error summed from the weights of the leaders the map reads off.
        assert errors == [float(sum((math.comb(n, w) - int(count)) * (p**w * (1.0 - p) ** (n - w))
                                    for w, count in enumerate(counts))) for p in ps], code.matrix


def test_a_code_holds_its_leaders_as_read_only_keys_alone(monkeypatch):
    rng = Random(89)
    for n, m in ((12, 8), (20, 12), (22, 14), (18, 17)):
        code = build_code(n, m, seed=rng.randrange(10**6))
        # The keys are the one 2^m array a code holds, and nothing writes into them.
        assert [name for name, value in vars(code).items()
                if hasattr(value, "__len__") and len(value) == 1 << m] == ["keys"], (n, m)
        with pytest.raises(ValueError, match="read-only"):
            code.keys[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            code.keys >>= np.uint64(1)
        assert np.array_equal(leader_table(code), _sorted_leader_reference(code.matrix)), (n, m)
    # Building a code, its exact error and a scalar decode build no byte table:
    # only a batch decode builds the leader map.
    def unbuilt(images):
        raise AssertionError("a leader map was built")
    monkeypatch.setattr(codes_module, "linear_map", unbuilt)
    code = build_code(20, 12, seed=5)
    assert 0.0 < exact_error_probability(code, 0.05) < 1.0
    argv = "sweep --protocol secure-km,plain-km --n 12,20 --rate 0.6 --p 0.05 --mode exact --seeds 2"
    assert cli_main(argv.split()) == 0
    assert code.decode(Gf2Vector.zeros(12)) == Gf2Vector.zeros(20)
    with pytest.raises(AssertionError, match="leader map was built"):  # the patch does reach decoding
        code.decode(Gf2Batch(np.zeros(1, dtype=np.int64), 12))


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
    # Full rank, but its leader keys would exceed the 2^24 guard: refused before they are built.
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
    weights = [bin(int(leader)).count("1") for leader in leader_table(wide)]
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
    for bad in (1.2, -0.1, math.inf, math.nan):
        with pytest.raises(ContractViolation):
            m_for_rate(5, bad)


def test_m_for_rate_takes_the_rate_as_written():
    # 25 * 0.28 is 7.000000000000001 in binary floating point; the rate as
    # written gives exactly 7, so its ceiling is 7.
    assert (m_for_rate(25, 0.28), m_for_rate(50, 0.28)) == (7, 14)
    # The benchmark's job lists take min(n, ceil(n * rate)) on floats; at their rates the two agree.
    for rate, ns in ((0.6, range(12, 23)), (0.75, (8, 12, 16))):
        for n in ns:
            assert m_for_rate(n, rate) == min(n, math.ceil(n * rate)), (n, rate)


@given(st.integers(min_value=0, max_value=200), st.floats(min_value=0.0, max_value=1.0))
def test_m_for_rate_is_the_ceiling_of_the_decimal_product(n, rate):
    assert m_for_rate(n, rate) == min(n, math.ceil(n * Decimal(repr(rate))))


def test_dimension_validation():
    code = code_from_matrix(FIXTURE)
    with pytest.raises(ContractViolation, match="matrix has 3 columns, vector has 4"):
        code.syndrome(Gf2Vector.zeros(4))
    with pytest.raises(ContractViolation):
        code.decode(Gf2Vector.zeros(3))
    with pytest.raises(ContractViolation, match="syndrome must have length 2, got 3"):
        code.decode(Gf2Batch([0, 1], 3))
    with pytest.raises(ContractViolation, match="matrix has 3 columns, vector has 4"):
        code.syndrome(Gf2Batch([0, 1], 4))
    with pytest.raises(ContractViolation):
        build_code(3, 4, seed=0)
    with pytest.raises(ContractViolation):
        exact_error_probability(code, 0.75)
