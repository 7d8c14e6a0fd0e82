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
`QuotientFamily` evaluates it for many factors in one array call, and
keeps its three sines of the last array of k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .builders import torus_action
from .errors import NonPositiveLength, require_positive
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
        return tuple(float((0.5 * (tau + 1.0 / tau)).real) for tau in (self.phase_l1, self.phase_l3))


def _shared_lengths(specs: Sequence[QuotientSpec]) -> tuple[float, float]:
    """(L1, L3) of factors of one torus; `ValueError` if they differ."""
    l1, l3 = specs[0].l1, specs[0].l3
    if any((spec.l1, spec.l3) != (l1, l3) for spec in specs):
        raise ValueError("the factors of a family share L1 and L3")
    return l1, l3


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
    graph = _template(*_shared_lengths(specs))
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


def _sines(l1, l3, k):
    """sin 2k(L1+L3), sin 2kL3 and sin 2kL1: the part of the dispersion form
    that every factor of one torus shares."""
    return np.sin(2 * k * (l1 + l3)), np.sin(2 * k * l3), np.sin(2 * k * l1)


def _dispersion(alpha, beta, l1, l3, k):
    return _combine(alpha, beta, *_sines(l1, l3, k))


def _combine(alpha, beta, s13, s3, s1):
    return s13 - alpha * s3 - beta * s1


def quotient_secular_closed(spec: QuotientSpec, k):
    """Closed-form secular function of the (s, t) quotient factor."""
    return _closed(*spec.coefficients, spec.l1, spec.l3, k)


def quotient_dispersion_real(spec: QuotientSpec, k):
    """Real dispersion form F(k) with the same zero set as the closed form.

    Satisfies Sigma(k) = -2i * exp(2ik(L1+L3)) * F(k); accepts complex k, as
    the probes of `spectra.isospectral_classes` take it.
    """
    return _dispersion(*spec.coefficients, spec.l1, spec.l3, k)


class QuotientFamily:
    """The dispersion forms of quotient factors of one torus, as a family
    evaluator of `spectra.isospectral_classes` and
    `locators.find_roots_real_family`.

    `which` indexes `specs` and broadcasts against `k`, so one array call
    evaluates any mix of factors.  The factors share L1 and L3, and so the
    three sines of the dispersion form: those of the last 1-D array of k
    are kept, keyed by its bytes, so calls on one array for chunk after
    chunk of factors compute them once.  Each value equals the one-factor
    function's bit for bit.
    """

    def __init__(self, specs: Sequence[QuotientSpec]):
        specs = tuple(specs)
        self.l1, self.l3 = _shared_lengths(specs)
        self.alpha, self.beta = np.array([spec.coefficients for spec in specs]).T
        self._last = None, None  # the key and the sines of the last 1-D k

    def dispersion_real(self, which, k):
        """`quotient_dispersion_real` of the factors `which` at `k`; the
        sines of a 1-D `k` are those of the last call when its bytes match."""
        if np.ndim(k) == 1:
            k = np.asarray(k)
            key = (k.dtype.str, k.tobytes())
            if key != self._last[0]:
                self._last = key, _sines(self.l1, self.l3, k)
            sines = self._last[1]
        else:
            sines = _sines(self.l1, self.l3, k)
        return _combine(self.alpha[which], self.beta[which], *sines)


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
