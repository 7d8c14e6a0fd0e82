import math

import numpy as np
import pytest

from qgsym import (
    SecularSystem,
    Spectrum,
    all_quotient_specs,
    build_secular_system,
    compare_spectra,
    cycle_graph,
    find_roots_real,
    find_roots_unitary,
    merge_spectra,
    quotient_dispersion_real,
    quotient_secular_closed,
    quotient_system,
    standard_conditions,
    winding_number,
)
from qgsym.errors import GridTooCoarse, NonUnitaryScattering, QgsymError
from qgsym.spectra import SpectralRoot


def test_find_roots_real_simple_sine():
    s = find_roots_real(np.sin, 10.0, 0.1, complex_fn=np.sin)
    want = [math.pi, 2 * math.pi, 3 * math.pi]
    assert len(s.roots) == 3
    for r, w in zip(s.roots, want):
        assert r.k == pytest.approx(w, abs=1e-9)
        assert r.order == 1


def test_find_roots_real_touching_root():
    f = lambda k: 1.0 - np.cos(k)  # double zeros at 2*pi*m, no sign change
    cf = lambda z: 1.0 - np.cos(z)
    s = find_roots_real(f, 14.0, 0.1, complex_fn=cf)
    assert [r.order for r in s.roots] == [2, 2]
    assert s.roots[0].k == pytest.approx(2 * math.pi, abs=1e-8)
    assert s.roots[1].k == pytest.approx(4 * math.pi, abs=1e-8)


@pytest.mark.parametrize(
    "f, want",
    [
        (lambda k: (k - 5.05) ** 2 + 1e-6, []),
        (lambda k: (k - 5.05) ** 2 + 1e-10, [(5.05, 2)]),
        (lambda k: (k - 2.345) ** 4, [(2.345, 4)]),
        (lambda k: (k - 3.0) * (k - 3.31) ** 2, [(3.0, 1), (3.31, 2)]),
    ],
    ids=["near-real-pair", "order-2", "order-4", "touch-next-to-sign-root"],
)
def test_touching_roots_are_placed_on_the_zero_sum(f, want):
    # the polynomials are their own continuations; a pair of zeros 1e-3 off
    # the real axis leaves |f| above TOL_TOUCH at their mean, so it is no root
    s = find_roots_real(f, 10.0, 0.1, complex_fn=f)
    assert [r.order for r in s.roots] == [o for _, o in want]
    for r, (k, _) in zip(s.roots, want):
        assert r.k == pytest.approx(k, abs=1e-10)


def test_grid_too_coarse_on_hidden_double_crossing():
    # two near-coincident simple roots dipping just below zero inside one cell
    f = lambda k: (k - 5.05) ** 2 - 1e-6
    with pytest.raises(GridTooCoarse):
        find_roots_real(f, 10.0, 0.1, complex_fn=f)


def test_multiple_roots_are_recentred_to_tol():
    # the 3x4 torus at L1 = 0.5, L3 = 1 has triple roots at m*pi in the
    # factors (0,0) and (0,2), at the CLI's grid and with the closed form
    specs = {(sp.s, sp.t): sp for sp in all_quotient_specs(3, 4, 0.5, 1.0)}
    triples = []
    for key in [(0, 0), (0, 2)]:
        spec = specs[key]
        s = find_roots_real(
            lambda k: quotient_dispersion_real(spec, k), 10.0, 0.005,
            complex_fn=lambda z: quotient_secular_closed(spec, z),
        )
        triples += [r.k for r in s.roots if r.order == 3]
    assert len(triples) == 3
    for k in triples:
        assert abs(k - round(k / math.pi) * math.pi) < 1e-11


def test_winding_number_counts_order():
    assert winding_number(lambda z: (z - 2.0) ** 3, 2.0, 0.1) == 3
    assert winding_number(lambda z: z - 5.0, 2.0, 0.1) == 0


def test_find_roots_unitary_cycle():
    g, _ = cycle_graph(3, 1.0)
    sys = build_secular_system(g, standard_conditions(g))
    s = find_roots_unitary(sys, 15.0)
    want = [2 * math.pi * m / 3 for m in range(1, 8)]
    assert len(s.roots) == 7
    for r, w in zip(s.roots, want):
        assert r.k == pytest.approx(w, abs=1e-9)
        assert r.order == 2


def test_find_roots_unitary_rejects_non_unitary_system():
    sys = SecularSystem(0.5 * np.eye(6), np.ones(6))
    with pytest.raises(NonUnitaryScattering) as info:
        find_roots_unitary(sys, 5.0)
    assert isinstance(info.value, QgsymError)
    assert "find_roots_modulus" not in str(info.value)


def test_spectrum_bookkeeping():
    s = Spectrum((SpectralRoot(1.0, 2, "a"), SpectralRoot(2.0, 1, "b")), 5.0)
    assert s.count() == 3
    assert s.expanded() == [1.0, 1.0, 2.0]
    assert s.ks() == [1.0, 2.0]


def test_merge_spectra_coalesces_nearby_roots():
    a = Spectrum((SpectralRoot(1.0, 1, "a"), SpectralRoot(3.0, 1, "a")), 5.0)
    b = Spectrum((SpectralRoot(1.0 + 4e-8, 1, "b"), SpectralRoot(4.0, 2, "b")), 5.0)
    m = merge_spectra([a, b], tol=1e-7)
    assert [r.order for r in m.roots] == [2, 1, 2]
    assert m.roots[0].k == pytest.approx(1.0 + 2e-8, abs=1e-9)
    assert "a" in m.roots[0].source and "b" in m.roots[0].source


def test_compare_spectra_matching_and_mismatch():
    a = Spectrum((SpectralRoot(1.0, 2, ""), SpectralRoot(2.0, 1, "")), 5.0)
    b = Spectrum(
        (SpectralRoot(1.0 + 1e-9, 1, ""), SpectralRoot(1.0 - 1e-9, 1, ""), SpectralRoot(2.0, 1, "")),
        5.0,
    )
    res = compare_spectra(a, b, tol=1e-6)
    assert res.isospectral
    assert res.max_distance < 1e-8
    bad = Spectrum((SpectralRoot(1.0, 2, ""), SpectralRoot(2.5, 1, "")), 5.0)
    res2 = compare_spectra(a, bad, tol=1e-6)
    assert not res2.isospectral
    assert 2.0 in res2.unmatched_a and 2.5 in res2.unmatched_b


def test_weyl_count_sanity():
    g, _ = cycle_graph(3, 1.0)
    sys = build_secular_system(g, standard_conditions(g))
    s = find_roots_unitary(sys, 15.0)
    assert s.count(15.0) == 14  # 7 roots of order 2


def test_roots_exclude_zero_and_respect_kmax():
    s = find_roots_real(np.sin, 2 * math.pi, 0.1, complex_fn=np.sin)
    assert all(r.k > 0 for r in s.roots)
    assert all(r.k <= 2 * math.pi + 1e-9 for r in s.roots)
    assert len(s.roots) == 2


@pytest.mark.parametrize(
    "f, cf, order",
    [
        (lambda k: k - 0.5, lambda z: z - 0.5, 1),
        (lambda k: 0.5 - k, lambda z: 0.5 - z, 1),
        (lambda k: (k - 0.5) ** 2, lambda z: (z - 0.5) ** 2, 2),
        (lambda k: -((k - 0.5) ** 2), lambda z: -((z - 0.5) ** 2), 2),
        (lambda k: (k - 0.5) ** 3, lambda z: (z - 0.5) ** 3, 3),
    ],
    ids=["winding-rising", "winding-falling", "winding-touch-above", "winding-touch-below", "winding-triple"],
)
def test_root_on_an_exact_grid_point(f, cf, order):
    # a grid value of exactly 0.0 takes the sign of the point before it, so a
    # crossing is bisected once and a touch is left to the touching-root scan
    assert 0.5 in np.arange(0.1, 1.0 + 0.05, 0.1)
    s = find_roots_real(f, 1.0, 0.1, complex_fn=cf)
    assert len(s.roots) == 1
    assert s.roots[0].k == pytest.approx(0.5, abs=1e-10)
    assert s.roots[0].order == order


def test_real_and_unitary_locators_agree_on_quotient_factors():
    # non-coprime orders and incommensurate lengths: every quotient factor's
    # dispersion roots equal the eigenphase roots of its 8x8 secular system
    for n1, n2, l3 in [(3, 4, 1 / math.sqrt(2)), (4, 6, 0.61)]:
        for spec in all_quotient_specs(n1, n2, 0.5, l3):
            real = find_roots_real(
                lambda k: quotient_dispersion_real(spec, k), 6.0, 0.005,
                complex_fn=lambda z: quotient_secular_closed(spec, z),
            )
            unitary = find_roots_unitary(quotient_system(spec), 6.0)
            res = compare_spectra(real, unitary, tol=1e-8)
            assert res.isospectral, ((spec.s, spec.t), res)
            assert res.count_a > 0


@pytest.mark.parametrize("root", [0.1, 1.0], ids=["first-point", "last-point"])
def test_root_on_an_end_of_the_grid(root):
    for f in (lambda k: k - root, lambda k: root - k):
        s = find_roots_real(f, 1.0, 0.1, complex_fn=f)
        assert [r.order for r in s.roots] == [1]
        assert s.roots[0].k == pytest.approx(root, abs=1e-10)
