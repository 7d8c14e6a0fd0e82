"""Quotient graphs of the two-cycle torus under each 1-D irrep.

Each irrep label pair (s, t) yields a 3-vertex, 4-edge quotient: a central
degree-4 vertex with the standard condition, and two degree-2 vertices with
quasi-periodic gluing phases.  The phase on the L1 pair is omega2^t and the
phase on the L3 pair is omega1^s; this assignment is forced — attaching the
phases the other way round produces the factors of the transposed torus,
which is a different metric graph.

Every factor of one torus has this graph and differs only in its two
gluing phases, so `quotient_systems` builds the graph once and assembles
the 8x8 systems of many factors in one `build_secular_systems` call;
`quotient_system` is its one-factor case.

The closed form and the real dispersion form take a scalar or an array of
k and return what numpy returns: a numpy scalar or an array.  The two differ
by the factor -2i exp(2ik(L1+L3)), which has no zero, so the dispersion form
is its own analytic continuation with the closed form's zeros and orders.
`QuotientFamily` evaluates it for many factors in one array call, and gives
what decides each factor's real roots: the sine zeros that every factor of
the torus shares, which of them are poles of its two-loop form G and the
order of its root at each, and a stable evaluator of G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .builders import torus_action
from .errors import GridTooLarge, NonPositiveLength, require_positive
from .graphs import TAG_DUMMY, TAG_ORIGINAL, MetricGraph, make_graph
from .groups import irrep_value
from .scattering import (
    QuasiPeriodic,
    SecularSystem,
    Standard,
    build_secular_system,
    build_secular_systems,
    standard_conditions,
)
from .spectra import MAX_GRID_POINTS


@dataclass(frozen=True)
class QuotientSpec:
    n1: int
    n2: int
    l1: float
    l3: float
    s: int
    t: int

    def __post_init__(self) -> None:
        for name in ("l1", "l3"):
            length = getattr(self, name)
            if not (math.isfinite(length) and length > 0):
                raise NonPositiveLength(f"{name} = {length!r} must be finite and positive")

    @property
    def phase_l1(self) -> complex:
        """Gluing phase on the two L1 edges."""
        return irrep_value(self.n2, self.t, 1)

    @property
    def phase_l3(self) -> complex:
        """Gluing phase on the two L3 edges."""
        return irrep_value(self.n1, self.s, 1)

    @cached_property
    def coefficients(self) -> tuple[float, float]:
        """(alpha, beta) = Re((tau + 1/tau) / 2) of the L1 and the L3 phase."""
        return _coefficient(self.n2, self.t), _coefficient(self.n1, self.s)


def _coefficient(n: int, label: int) -> float:
    """Re((tau + 1/tau) / 2) of the gluing phase tau = irrep_value(n, label, 1):
    alpha of the label t of n2, and beta of the label s of n1."""
    tau = irrep_value(n, label, 1)
    return float((0.5 * (tau + 1.0 / tau)).real)


def _torus(specs: Sequence[QuotientSpec]) -> tuple[int, int, float, float]:
    """(n1, n2, L1, L3) of factors of one torus; `ValueError` if they differ."""
    torus = specs[0].n1, specs[0].n2, specs[0].l1, specs[0].l3
    if any((spec.n1, spec.n2, spec.l1, spec.l3) != torus for spec in specs):
        raise ValueError("the factors of a family share n1, n2, L1 and L3")
    return torus


def _template(l1: float, l3: float) -> MetricGraph:
    """The quotient graph that every factor of the torus shares."""
    return make_graph(
        3,
        [
            (0, 1, l1),
            (0, 1, l1),
            (0, 2, l3),
            (0, 2, l3),
        ],
        tags=[TAG_ORIGINAL, TAG_DUMMY, TAG_DUMMY],
    )


def _conditions(spec: QuotientSpec) -> list:
    return [
        Standard(0),
        QuasiPeriodic(1, spec.phase_l1, (0, 1)),
        QuasiPeriodic(2, spec.phase_l3, (2, 3)),
    ]


def quotient_graph(spec: QuotientSpec) -> tuple[MetricGraph, list]:
    """The 3-vertex quotient graph and its vertex conditions.

    Vertex 0 is the original degree-4 vertex; vertex 1 glues the two L1
    edges (edges 0, 1) with the omega2^t phase, vertex 2 the two L3
    edges (edges 2, 3) with the omega1^s phase.
    """
    return _template(spec.l1, spec.l3), _conditions(spec)


def quotient_systems(specs: Sequence[QuotientSpec]) -> list[SecularSystem]:
    """The 8x8 secular systems of factors of one torus, one per spec: their
    quotient graph is built once and `build_secular_systems` assembles every
    factor's gluing phases together."""
    specs = list(specs)
    if not specs:
        return []
    graph = _template(*_torus(specs)[2:])
    return build_secular_systems(graph, [_conditions(spec) for spec in specs])


def quotient_system(spec: QuotientSpec) -> SecularSystem:
    """`quotient_systems` of one factor."""
    return quotient_systems([spec])[0]


def _closed(alpha, beta, l1, l3, k):
    e = lambda x: np.exp(1j * k * x)
    return (
        1.0
        - alpha * e(2 * l1)
        - beta * e(2 * l3)
        + alpha * e(2 * l1 + 4 * l3)
        + beta * e(4 * l1 + 2 * l3)
        - e(4 * (l1 + l3))
    )


def _dispersion(alpha, beta, l1, l3, k):
    return np.sin(2 * k * (l1 + l3)) - alpha * np.sin(2 * k * l3) - beta * np.sin(2 * k * l1)


def quotient_secular_closed(spec: QuotientSpec, k):
    """Closed-form secular function of the (s, t) quotient factor."""
    return _closed(*spec.coefficients, spec.l1, spec.l3, k)


def quotient_dispersion_real(spec: QuotientSpec, k):
    """Real dispersion form F(k) with the same zero set as the closed form.

    Satisfies Sigma(k) = -2i * exp(2ik(L1+L3)) * F(k); accepts complex k, as
    the probes of `spectra.isospectral_classes` take it.
    """
    return _dispersion(*spec.coefficients, spec.l1, spec.l3, k)


def _coefficients(n: int, labels: np.ndarray) -> np.ndarray:
    """`_coefficient` of each of `labels` of n, computed once per distinct label."""
    distinct, inverse = np.unique(labels, return_inverse=True)
    return np.array([_coefficient(n, label) for label in distinct.tolist()])[inverse]


class QuotientFamily:
    """The dispersion forms of quotient factors of one torus, as a family
    evaluator of `spectra.isospectral_classes`, and what decides their roots
    for `locators.find_roots_real`.

    `which` indexes `specs` and broadcasts against `k`, so one array call
    evaluates any mix of factors; each value equals the one-factor
    function's bit for bit.

    With the loop lengths (l1, l2) = (2 L1, 2 L3) and (c1, c2) = (alpha,
    beta), F(k) = (cos kl1 - c1) sin kl2 + (cos kl2 - c2) sin kl1 is the
    secular function of two loops at one standard vertex, so
    G = F / (sin kl1 sin kl2) = g1 + g2, g_i = (cos kl_i - c_i) / sin kl_i.
    Each g_i strictly decreases between its poles (Berkolaiko and Kuchment
    2013), so G has one simple root between consecutive poles, and every
    other root of F lies on a zero of a sine.  c1 comes from t and n2, c2
    from s and n1; c_i = 1 exactly where the label is 0, and c_i = -1
    exactly where twice the label is the order.
    """

    def __init__(self, specs: Sequence[QuotientSpec]):
        specs = tuple(specs)
        n1, n2, self.l1, self.l3 = _torus(specs)
        self.lengths, self.orders = (2.0 * self.l1, 2.0 * self.l3), (n2, n1)
        labels = np.array([(spec.t, spec.s) for spec in specs]).reshape(-1, 2)
        # alpha depends on t alone and beta on s alone: one of each per distinct label
        self.alpha, self.beta = (_coefficients(n, labels[:, i]) for i, n in enumerate(self.orders))
        self.labels, self.one, self.minus = labels, labels == 0, 2 * labels == self.orders

    def dispersion_real(self, which, k):
        """`quotient_dispersion_real` of the factors `which` at `k`."""
        return _dispersion(self.alpha[which], self.beta[which], self.l1, self.l3, k)

    def pole_form(self, which, k):
        """G of the factors `which` at real `k` and its derivative G', stacked
        on a last axis of two.  Each term is in its half-angle form
        g_i = ((1 - c_i) - (1 + c_i) t^2) / 2t, t = tan(k l_i / 2): that is
        -t where c_i = 1 and 1/t where c_i = -1, so no term is 0/0 at a sine
        zero where it is regular; its derivative is
        g_i' = -(l_i / 2) (1 + t^2) ((1 - c_i) / 2t^2 + (1 + c_i) / 2) < 0."""
        g = slope = 0.0
        for length, c in zip(self.lengths, (self.alpha, self.beta)):
            t, c = np.tan(0.5 * length * k), c[which]
            tt = t * t
            g = g + ((1.0 - c) - (1.0 + c) * tt) / (2.0 * t)
            slope = slope - 0.5 * length * (1.0 + tt) * ((1.0 - c) / (2.0 * tt) + 0.5 * (1.0 + c))
        return np.stack([g, slope], axis=-1)

    @property
    def residue_at_zero(self) -> np.ndarray:
        """The residue of G at k = 0 of each factor, sum (1 - c_i) / l_i: 0
        for the trivial factor alone, where every c_i = 1."""
        return (1.0 - self.alpha) / self.lengths[0] + (1.0 - self.beta) / self.lengths[1]

    def sine_zeros(self, k_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The zeros k0 = p pi / l_i <= k_max of the two sines, ascending,
        which every factor shares, and for each factor and zero: the residue
        of G there, 0 exactly where G has no pole, the order of F's root
        there, and whether G is 0 there, each decided exactly.

        Both sines vanish at the zeros (p1, p2) = (a j, b j), l1 / l2 = a / b
        in lowest terms on the floats.  Term i has a pole where its sine
        vanishes unless c_i = (-1)^p_i; the residue of G is the sum of
        (1 - c_i (-1)^p_i) / l_i over the terms with a pole, and positive, as
        the float c_i of any other label lies strictly inside (-1, 1).  F's
        order at k0 is the number of sines that vanish there, less 1 if
        either has a pole, plus 1 where G is 0: where both vanish with no
        pole, or where one term vanishes with no pole and the other is 0,
        cos(k0 l_j) = c_j, which holds for
        cos(p pi r / d) = cos(2 pi u / n) with l_j / l_i = r / d exactly when
        d divides p n and (r p n / d -+ 2u) is a multiple of 2n.  More than
        MAX_GRID_POINTS zeros raise `GridTooLarge` before any is allocated.
        """
        l1, l2 = self.lengths
        if k_max * (l1 + l2) / math.pi > MAX_GRID_POINTS:
            raise GridTooLarge(f"k_max = {k_max!r} leaves over {MAX_GRID_POINTS} zeros of sin 2kL1 and sin 2kL3")
        (n1, d1), (n2, d2) = l1.as_integer_ratio(), l2.as_integer_ratio()
        g = math.gcd(n1 * d2, d1 * n2)
        a, b = n1 * d2 // g, d1 * n2 // g  # l1 / l2 = a / b in lowest terms
        p1, p2 = (np.arange(1, int(k_max * length / math.pi) + 2) for length in self.lengths)
        k1, k2 = p1 * math.pi / l1, p2 * math.pi / l2
        shared = a <= len(p1) and b <= len(p2)  # some (a j, b j) lie in range
        q = np.zeros_like(p1)  # the zero of sin kl2 at each zero of sin kl1, or 0
        if shared:
            q[a - 1 :: a] = np.arange(1, len(p1) // a + 1) * b
        in1, in2 = k1 <= k_max, (k2 <= k_max) & ((p2 % b != 0) if shared else True)
        k = np.concatenate([k1[in1], k2[in2]])
        order = np.argsort(k, kind="stable")
        k, p = k[order], np.concatenate([np.stack([p1, q], axis=-1)[in1], np.stack([0 * p2, p2], axis=-1)[in2]])[order]

        vanish = p > 0
        regular = np.where(p % 2 == 0, self.one[:, None], self.minus[:, None])  # c_i = (-1)^p_i
        pole = vanish & ~regular
        poles = pole.any(axis=-1)
        c = np.stack([self.alpha, self.beta], axis=-1)[:, None]
        residues = np.where(pole, (1.0 - c * (1 - 2 * (p % 2))) / np.array(self.lengths), 0.0).sum(axis=-1)
        alone = np.zeros(poles.shape, dtype=bool)  # one term vanishes, and the other is 0
        for i, (r, d) in enumerate(((b, a), (a, b))):
            n, u = self.orders[1 - i], self.labels[:, 1 - i, None]
            if d <= int(p[:, i].max(initial=0)) * n:
                pn = p[:, i] * n
                mod = (r % (2 * n)) * (pn // d) % (2 * n)
                hits = ((mod - 2 * u) % (2 * n) == 0) | ((mod + 2 * u) % (2 * n) == 0)
                alone |= hits & (pn % d == 0) & vanish[:, i] & ~vanish[:, 1 - i]
        zero = ~poles & (vanish.all(axis=-1) | alone)
        return k, residues, vanish.sum(axis=-1) - poles + zero, zero


def all_quotient_specs(n1, n2, l1, l3):
    require_positive(n1=n1, n2=n2)
    return [QuotientSpec(n1, n2, l1, l3, s, t) for s in range(n1) for t in range(n2)]


def secular_product(n1: int, n2: int, l1: float, l3: float, k: complex) -> complex:
    """Product of the closed-form factors over all n1*n2 irrep labels."""
    out = 1.0 + 0.0j
    for spec in all_quotient_specs(n1, n2, l1, l3):
        out *= quotient_secular_closed(spec, k)
    return out


def torus_secular_system(n1: int, n2: int, l1: float, l3: float) -> SecularSystem:
    """Full secular system of the midpoint-subdivided two-cycle torus.

    All 8*n1*n2 bonds carry standard conditions (dummy vertices are
    transparent) and the determinant factorizes exactly (constant 1) over
    the n1*n2 quotient factors.  The L1 pair of a quotient is glued by a
    second-generator shift, so the L1 half-edges lie along the second-factor
    direction: the first factor gets full length 2*l3, the second 2*l1.
    """
    g, _ = torus_action(n1, n2, l3, l1)
    return build_secular_system(g, standard_conditions(g))
