import cmath
import itertools
import math

import numpy as np
import pytest

from qgsym import (
    Irrep,
    crt_index,
    irrep_sum,
    irrep_value,
)
from qgsym.errors import LabelOutOfRange, NotCoprime


def test_irrep_value_is_root_of_unity():
    for n in (1, 2, 3, 7):
        for s in range(n):
            for kappa in range(n):
                v = irrep_value(n, s, kappa)
                assert abs(abs(v) - 1.0) < 1e-15
                want = cmath.exp(2j * math.pi * s * kappa / n)
                assert abs(v - want) < 1e-12


def test_irrep_value_identity_and_homomorphism():
    n, s = 5, 3
    assert irrep_value(n, s, 0) == 1
    for a in range(n):
        for b in range(n):
            lhs = irrep_value(n, s, (a + b) % n)
            rhs = irrep_value(n, s, a) * irrep_value(n, s, b)
            assert abs(lhs - rhs) < 1e-14


def test_irrep_reduces_exponents_mod_n():
    # large exponents must not lose precision to angle accumulation
    assert abs(irrep_value(7, 3, 7 * 10**12 + 2) - irrep_value(7, 3, 2)) < 1e-15


def test_label_validation():
    with pytest.raises(LabelOutOfRange):
        irrep_value(3, 3, 0)
    with pytest.raises(LabelOutOfRange):
        irrep_value(3, -1, 0)


def test_cyclic_group_and_irrep_objects():
    rho = Irrep((4,), (1,))
    assert rho.value((1,)) == pytest.approx(1j)
    assert rho.value((5,)) == pytest.approx(1j)
    with pytest.raises(LabelOutOfRange):
        Irrep((4,), (4,))
    with pytest.raises(LabelOutOfRange):
        Irrep((4, 3), (1,))  # one label per factor


def test_product_irrep_value_splits():
    n1, n2 = 3, 4
    for s in range(n1):
        for t in range(n2):
            rho = Irrep((n1, n2), (s, t))
            for ka in range(n1):
                for io in range(n2):
                    want = irrep_value(n1, s, ka) * irrep_value(n2, t, io)
                    assert abs(rho.value((ka, io)) - want) < 1e-14
    with pytest.raises(LabelOutOfRange):
        Irrep((n1, n2), (0, n2))


@pytest.mark.parametrize("orders", [(7,), (3, 4), (16, 16), (12, 8), (2, 3, 5)])
def test_irrep_values_are_the_values_bit_for_bit(orders):
    # the table of `project`, from each factor's roots of unity, holds at
    # every element, in the order of the group's elements, the bits of the
    # scalar `value`, signed zeros included
    for labels in itertools.islice(itertools.product(*(range(n) for n in orders)), 0, None, 3):
        rho = Irrep(orders, labels)
        want = np.array([rho.value(element) for element in itertools.product(*(range(n) for n in orders))])
        assert rho.values().tobytes() == want.tobytes()


def test_irrep_sum_orthogonality_small():
    n1, n2 = 2, 3
    assert abs(irrep_sum(n1, n2, 0, 0) - n1 * n2) < 1e-12
    for ka in range(n1):
        for io in range(n2):
            if (ka, io) == (0, 0):
                continue
            assert abs(irrep_sum(n1, n2, ka, io)) < 1e-12


def test_crt_index_is_bijection():
    n1, n2 = 3, 4
    seen = set()
    for ka in range(n1):
        for io in range(n2):
            eps = crt_index(n1, n2, ka, io)
            assert 0 <= eps < n1 * n2
            assert eps == (ka * n2 + io * n1) % (n1 * n2)
            seen.add(eps)
    assert len(seen) == n1 * n2
    # stepping one factor steps the combined index by the other's order
    e0 = crt_index(n1, n2, 0, 0)
    assert crt_index(n1, n2, 1, 0) == (e0 + n2) % (n1 * n2)
    assert crt_index(n1, n2, 0, 1) == (e0 + n1) % (n1 * n2)


def test_crt_requires_coprime_orders():
    with pytest.raises(NotCoprime):
        crt_index(2, 4, 1, 1)
