from __future__ import annotations

from itertools import product

import pytest

from oracles import pair_probability
from securesum.errors import ContractViolation
from securesum.gf2 import Gf2Vector
from securesum.source import DsbsParams, binary_entropy

H2_QUARTER = 0.8112781244591328  # -0.25*log2(0.25) - 0.75*log2(0.75)


def _all_pairs(n):
    return product(range(1 << n), repeat=2)


def test_pair_probability_single_symbol_values():
    params = DsbsParams(0.25, 1)
    zero, one = Gf2Vector(0, 1), Gf2Vector(1, 1)
    assert pair_probability(params, zero, zero) == pytest.approx(0.375, abs=1e-15)
    assert pair_probability(params, one, one) == pytest.approx(0.375, abs=1e-15)
    assert pair_probability(params, zero, one) == pytest.approx(0.125, abs=1e-15)
    assert pair_probability(params, one, zero) == pytest.approx(0.125, abs=1e-15)


def test_pair_probability_two_symbols_sums_exactly_to_one():
    params = DsbsParams(0.25, 2)
    total = sum(
        pair_probability(params, Gf2Vector(x, 2), Gf2Vector(y, 2)) for x, y in _all_pairs(2)
    )
    assert total == 1.0


def test_normalization_small_blocks():
    for p in (0.0, 0.05, 0.1, 0.25, 1 / 3, 0.49, 0.5):
        for n in (1, 2, 3, 4):
            params = DsbsParams(p, n)
            total = sum(
                pair_probability(params, Gf2Vector(x, n), Gf2Vector(y, n))
                for x, y in _all_pairs(n)
            )
            assert abs(total - 1.0) <= 1e-12


def test_sum_independent_of_each_input():
    # P(x, y) must equal P(x) * P(x xor y) with x uniform: the disagreement
    # pattern carries no information about either endpoint.
    for p in (0.05, 0.25, 0.5):
        for n in (1, 2, 3, 4):
            params = DsbsParams(p, n)
            for x, z in _all_pairs(n):
                xv = Gf2Vector(x, n)
                zv = Gf2Vector(z, n)
                yv = xv ^ zv
                p_joint = pair_probability(params, xv, yv)
                p_z = (p ** zv.weight()) * ((1 - p) ** (n - zv.weight()))
                assert abs(p_joint - p_z / (1 << n)) <= 1e-12
                # same factorization seen from y's side
                assert abs(pair_probability(params, yv, xv) - p_joint) <= 1e-15


def test_binary_entropy_values():
    assert binary_entropy(0.25) == pytest.approx(H2_QUARTER, abs=1e-9)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    for bad in (-0.1, 1.1, 2.0):
        with pytest.raises(ContractViolation):
            binary_entropy(bad)


def test_binary_entropy_symmetric_and_concave():
    grid = [i / 50 for i in range(51)]
    for q in grid:
        assert abs(binary_entropy(q) - binary_entropy(1 - q)) <= 1e-12
    for a in grid:
        for b in grid:
            mid = binary_entropy((a + b) / 2)
            assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2 - 1e-12


def test_params_validation():
    with pytest.raises(ContractViolation):
        DsbsParams(-0.01, 4)
    with pytest.raises(ContractViolation):
        DsbsParams(0.51, 4)
    with pytest.raises(ContractViolation):
        DsbsParams(0.25, 0)
    params = DsbsParams(0.25, 3)
    with pytest.raises(ContractViolation):
        pair_probability(params, Gf2Vector(0, 2), Gf2Vector(0, 3))
