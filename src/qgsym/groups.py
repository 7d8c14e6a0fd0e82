"""Cyclic groups, their 1-D complex irreps, and the coprime index maps.

Group elements are residues; 0 is the identity.  All exponents are reduced
mod the order before evaluating roots of unity, which keeps orthogonality
sums near machine precision even for large inputs.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import LabelOutOfRange, NotCoprime

TWO_PI = 2.0 * math.pi


def _root_of_unity(num: int, den: int) -> complex:
    """exp(2*pi*i*num/den) with num reduced mod den first."""
    return cmath.exp(1j * TWO_PI * (num % den) / den)


def irrep_value(n: int, s: int, kappa: int) -> complex:
    """Value of the s-th irrep of the order-n cyclic group at residue kappa."""
    if not 0 <= s < n:
        raise LabelOutOfRange(f"irrep label {s} not in [0, {n})")
    return _root_of_unity(s * (kappa % n), n)


def irrep_sum(n1: int, n2: int, kappa: int, iota: int) -> complex:
    """Sum of all n1*n2 product irreps at (kappa, iota).

    Equals n1*n2 at the identity and vanishes elsewhere.
    """
    total = 0.0 + 0.0j
    for s in range(n1):
        for t in range(n2):
            total += irrep_value(n1, s, kappa) * irrep_value(n2, t, iota)
    return total


def crt_index(n1: int, n2: int, kappa: int, iota: int) -> int:
    """Coprime-order relabeling (kappa, iota) -> kappa*n2 + iota*n1 mod n1*n2.

    Bijective on residue pairs when gcd(n1, n2) = 1; the same formula maps
    irrep label pairs (s, t) to the single-cycle label.
    """
    if math.gcd(n1, n2) != 1:
        raise NotCoprime(f"gcd({n1}, {n2}) != 1")
    return (kappa * n2 + iota * n1) % (n1 * n2)


@dataclass(frozen=True)
class Irrep:
    """Irrep (kappa, iota, ...) -> prod omega_n^(s*kappa) of a product of cyclic groups.

    One order and one label per cyclic factor; a single cycle has one of each.
    """

    orders: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.orders) or not all(
            0 <= s < n for n, s in zip(self.orders, self.labels)
        ):
            raise LabelOutOfRange(f"labels {self.labels} out of range for orders {self.orders}")

    def value(self, element: tuple[int, ...]) -> complex:
        values = (irrep_value(n, s, k) for n, s, k in zip(self.orders, self.labels, element))
        return functools.reduce(operator.mul, values)

    def values(self) -> np.ndarray:
        """`value` at every element of the group, in the order of
        `itertools.product` over the orders, bit for bit: each factor's n
        roots of unity, multiplied in `value`'s order (`_times`)."""
        roots = (np.array([irrep_value(n, s, k) for k in range(n)]) for n, s in zip(self.orders, self.labels))
        return functools.reduce(_times, roots)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every product a[i] * b[j], i first, as Python multiplies two complex
    numbers: numpy's complex multiply may round otherwise."""
    out = np.empty((len(a), len(b)), dtype=complex)
    out.real = a.real[:, None] * b.real - a.imag[:, None] * b.imag
    out.imag = a.real[:, None] * b.imag + a.imag[:, None] * b.real
    return out.ravel()
