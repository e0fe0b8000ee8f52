from __future__ import annotations

from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import span_table
from securesum.errors import ContractViolation
from securesum.gf2 import (
    Gf2Matrix,
    Gf2Vector,
    echelon,
    linear_map,
    pivot_start,
    random_matrix,
)


def vectors(max_n=16):
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(Gf2Vector, st.integers(0, (1 << n) - 1), st.just(n))
    )


def matrices(max_m=6, max_n=8):
    def build(dims):
        m, n = dims
        return st.builds(
            Gf2Matrix,
            st.tuples(*[st.integers(0, (1 << n) - 1) for _ in range(m)]),
            st.just(n),
        )

    return st.tuples(st.integers(0, max_m), st.integers(1, max_n)).flatmap(build)


def _matvec_oracle(mat: Gf2Matrix, vec: Gf2Vector) -> list[int]:
    # independent double loop over explicit entries
    out = []
    for i in range(mat.m):
        acc = 0
        for j in range(mat.cols):
            acc ^= mat.row(i)[j] & vec[j]
        out.append(acc)
    return out


def _rank_oracle(mat: Gf2Matrix) -> int:
    # size of the row span is 2**rank
    span = {0}
    for row in mat.rows:
        span |= {row ^ s for s in span}
    return len(span).bit_length() - 1


def test_matvec_worked_examples():
    mat = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    assert list(mat.matvec(Gf2Vector.from_bits([1, 0, 1]))) == [1, 1]
    assert list(mat.matvec(Gf2Vector.from_bits([1, 1, 1]))) == [0, 0]


def test_matvec_matches_entrywise_oracle():
    rng = Random(11)
    for _ in range(200):
        m, n = rng.randint(0, 5), rng.randint(1, 8)
        mat = random_matrix(min(m, n), n, rng)
        vec = Gf2Vector(rng.getrandbits(n), n)
        assert list(mat.matvec(vec)) == _matvec_oracle(mat, vec)


def test_rank_worked_example():
    assert Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]]).rank() == 2


def test_rank_matches_span_oracle():
    rng = Random(5)
    for _ in range(300):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        mat = Gf2Matrix(tuple(rng.getrandbits(n) for _ in range(m)), n)
        assert mat.rank() == _rank_oracle(mat)


def test_rank_invariant_under_row_operations():
    rng = Random(17)
    for _ in range(100):
        n = rng.randint(2, 7)
        m = rng.randint(2, 5)
        rows = [rng.getrandbits(n) for _ in range(m)]
        base = Gf2Matrix(tuple(rows), n).rank()
        for _ in range(10):
            i, j = rng.randrange(m), rng.randrange(m)
            if i == j:
                continue
            if rng.random() < 0.5:
                rows[i], rows[j] = rows[j], rows[i]
            else:
                rows[i] ^= rows[j]
            assert Gf2Matrix(tuple(rows), n).rank() == base


def test_echelon_spans_the_rows_with_distinct_leading_bits():
    rng = Random(23)
    for _ in range(200):
        m, n = rng.randint(0, 7), rng.randint(1, 7)
        rows = tuple(rng.getrandbits(n) for _ in range(m))
        basis = echelon(rows)
        leads = [row.bit_length() - 1 for row in basis]
        assert 0 not in basis and len(set(leads)) == len(leads)
        assert _rank_oracle(Gf2Matrix(tuple(basis), n)) == len(basis) == Gf2Matrix(rows, n).rank()
        span = {0}
        for row in basis:
            span |= {row ^ s for s in span}
        assert all(row in span for row in rows)


def test_span_table_is_matvec_at_every_word():
    rng = Random(29)
    for _ in range(50):
        n = rng.randint(0, 7)
        mat = Gf2Matrix(tuple(rng.getrandbits(n) if n else 0 for _ in range(rng.randint(0, 6))), n)
        table = span_table(mat.rows, n)
        assert table.dtype == np.int64 and len(table) == 1 << n
        assert [int(v) for v in table] == [mat.matvec(Gf2Vector(w, n)).bits for w in range(1 << n)]


def test_pivot_start_is_the_last_information_set():
    rng = Random(41)
    for _ in range(200):
        n = rng.randint(1, 9)
        m = rng.randint(0, n)
        mat = random_matrix(m, n, rng)
        if mat.rank() < m:
            continue
        cols = [sum(((row >> j) & 1) << i for i, row in enumerate(mat.rows)) for j in range(n)]
        pivots: list[int] = []
        for j in reversed(range(n)):  # kept when independent of the kept columns after it
            if _rank_oracle(Gf2Matrix(tuple(cols[k] for k in [*pivots, j]), m)) > len(pivots):
                pivots.append(j)
        on_pivots = sum(1 << j for j in pivots)
        weights, units, free = pivot_start(mat.rows, n)
        assert len(units) == m and len(weights) == 1 << m
        for c, unit in enumerate(units):
            assert unit & ~on_pivots == 0 and mat.matvec(Gf2Vector(unit, n)).bits == 1 << c
        for word in range(1 << n):
            if word & ~on_pivots == 0:
                assert weights[mat.matvec(Gf2Vector(word, n)).bits] == word.bit_count()
        assert len(free) == n - m
        cube = np.arange(1 << m).reshape((2,) * m)
        for j, (flip, word) in zip((j for j in range(n) if j not in pivots), free):
            # Axis a is bit m - 1 - a of s: reversed exactly where column j is 1.
            axes = tuple(m - 1 - i for i in range(m) if cols[j] >> i & 1)
            assert flip == tuple(slice(None, None, -1) if a in axes else slice(None) for a in range(m))
            assert np.array_equal(cube[flip], np.flip(cube, axes))
            assert m == 0 or np.shares_memory(cube[flip], cube)
            assert np.array_equal(np.ravel(cube[flip]), np.arange(1 << m) ^ cols[j])
            assert word & ~on_pivots == 1 << j and mat.matvec(Gf2Vector(word, n)).bits == 0


def test_linear_map_xors_the_images_of_set_bits():
    rng = Random(43)
    for count in (0, 1, 7, 8, 9, 24, 63):
        images = [rng.getrandbits(63) for _ in range(count)]
        words = [0, (1 << count) - 1] + [rng.getrandbits(count) for _ in range(50)]
        expect = [0] * len(words)
        for i, word in enumerate(words):
            for b, image in enumerate(images):
                if word >> b & 1:
                    expect[i] ^= image
        for dtype in (np.int64, np.uint64, "<u8", ">i8"):
            out = linear_map(images)(np.array(words, dtype=dtype))
            assert out.dtype == np.int64 and out.tolist() == expect, (count, dtype)


@given(matrices(), st.data())
def test_matvec_linearity(mat, data):
    bits = st.integers(0, (1 << mat.cols) - 1)
    a = Gf2Vector(data.draw(bits), mat.cols)
    b = Gf2Vector(data.draw(bits), mat.cols)
    assert mat.matvec(a ^ b) == mat.matvec(a) ^ mat.matvec(b)


@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    *(st.integers(0, (1 << n) - 1) for _ in range(3)), st.just(n))))
def test_xor_algebra(words):
    a, b, c, n = words
    va, vb, vc = (Gf2Vector(w, n) for w in (a, b, c))
    assert va ^ vb == vb ^ va
    assert (va ^ vb) ^ vc == va ^ (vb ^ vc)
    assert va ^ va == Gf2Vector.zeros(n)
    assert (va ^ vb) ^ vb == va


def test_random_matrix_deterministic_per_seed():
    a = random_matrix(3, 7, Random(123))
    b = random_matrix(3, 7, Random(123))
    c = random_matrix(3, 7, Random(124))
    assert a == b
    assert a != c


def test_random_matrix_full_rank_frequency():
    # exact count of full-rank 2x3 matrices by brute force
    full = sum(
        1
        for r0 in range(8)
        for r1 in range(8)
        if Gf2Matrix((r0, r1), 3).rank() == 2
    )
    assert full == 42
    hits = sum(1 for seed in range(1000) if random_matrix(2, 3, Random(seed)).rank() == 2)
    frac = hits / 1000
    assert frac >= 0.5
    assert abs(frac - full / 64) < 0.05  # ~3 sigma for 1000 draws


def test_random_matrix_rejects_wide():
    with pytest.raises(ContractViolation):
        random_matrix(4, 3, Random(0))


def test_vector_string_round_trip():
    v = Gf2Vector.from_string("10110")
    assert v.to_string() == "10110"
    assert v[0] == 1 and v[1] == 0 and v[4] == 0
    assert list(v) == [1, 0, 1, 1, 0]
    assert Gf2Vector.from_string(v.to_string()) == v
    with pytest.raises(ContractViolation):
        Gf2Vector.from_string("10x")


def test_matrix_string_round_trip():
    mat = Gf2Matrix.from_string("110;011")
    assert mat.to_string() == "110;011"
    assert mat.m == 2 and mat.cols == 3
    assert Gf2Matrix.from_string(mat.to_string()) == mat
    with pytest.raises(ContractViolation):
        Gf2Matrix.from_string("110;01")


def test_vectors_are_immutable_values():
    v = Gf2Vector.from_string("101")
    with pytest.raises(AttributeError):
        v.bits = 0  # type: ignore[misc]
    w = v ^ Gf2Vector.from_string("011")
    assert v.to_string() == "101"  # unchanged
    assert w.to_string() == "110"
    assert hash(Gf2Vector.from_string("101")) == hash(v)


def test_dimension_mismatches_rejected():
    mat = Gf2Matrix.from_string("110;011")
    with pytest.raises(ContractViolation):
        mat.matvec(Gf2Vector.from_string("10"))
    with pytest.raises(ContractViolation):
        Gf2Vector.from_string("10") ^ Gf2Vector.from_string("101")
    with pytest.raises(ContractViolation):
        Gf2Vector(4, 2)  # value outside two bits
    with pytest.raises(ContractViolation, match="does not fit in 3 bits"):
        Gf2Vector(-1, 3)
    with pytest.raises(ContractViolation, match="length must be non-negative"):
        Gf2Vector(0, -1)
    with pytest.raises(ContractViolation):
        Gf2Vector.from_bits([0, 2, 1])
    # 1.0 == 1, but a float is not a bit.
    for bad in (1.0, 0.0, "1"):
        with pytest.raises(ContractViolation, match="integers 0 or 1"):
            Gf2Vector.from_bits([1, bad])
    assert Gf2Vector.from_bits([np.uint8(1), True, 0, np.int64(1)]) == Gf2Vector.from_string("1101")


def test_empty_cases():
    empty = Gf2Matrix((), 3)
    assert empty.rank() == 0
    assert empty.matvec(Gf2Vector.from_string("101")) == Gf2Vector.zeros(0)
    assert random_matrix(0, 3, Random(1)).m == 0
