import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    quotient_system,
    standard_conditions,
    winding_number,
)
from qgsym.errors import NonUnitaryScattering, QgsymError
from qgsym.locators import _sign_roots
from qgsym.spectra import SpectralRoot


def _dirichlet_interval():
    """A bond of length 1 with Dirichlet ends: det(I - S D(k)) = 1 - exp(2ik)
    has a simple zero at every multiple of pi, as sin k has."""
    return SecularSystem(np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex), np.ones(2))


def _scan(f, count, k_max, grid_step, tol=1e-10):
    """The sign changes of one function of arrays (`locators._sign_roots`),
    certified by `count`."""
    return _sign_roots(lambda which, k: f(k), [count], k_max, grid_step, tol, "")[0]


def test_find_roots_real_simple_sine():
    # the sign changes of sin are its zeros, three of them, and as many as
    # the eigenphase count of the interval: they stand
    want = [math.pi, 2 * math.pi, 3 * math.pi]
    scan = _scan(np.sin, 3, 10.0, 0.1)
    s = find_roots_real(np.sin, _dirichlet_interval(), 10.0, 0.1)
    assert (s.meta["eigenphase_count"], s.meta["fallback"]) == (3, False)
    assert s.roots == scan.roots and s.meta["evaluations"] == scan.meta["evaluations"]
    assert len(s.roots) == 3
    for r, w in zip(s.roots, want):
        assert r.k == pytest.approx(w, abs=1e-9)
        assert r.order == 1


def test_find_roots_real_touching_root():
    # 1 - cos k has double zeros at 2 pi m and no sign change: they are the
    # roots of a cycle of length 1, whose eigenphase count (4 on (0, 14])
    # sees them, so the member is solved again by the unitary locator
    g, _ = cycle_graph(3, 1.0 / 3.0)
    s = find_roots_real(lambda k: 1.0 - np.cos(k), build_secular_system(g, standard_conditions(g)), 14.0, 0.1)
    assert (s.meta["eigenphase_count"], s.meta["fallback"]) == (4, True)
    assert [r.order for r in s.roots] == [2, 2]
    assert s.roots[0].k == pytest.approx(2 * math.pi, abs=1e-8)
    assert s.roots[1].k == pytest.approx(4 * math.pi, abs=1e-8)


@pytest.mark.parametrize(
    "f",
    [lambda k: (k - 5.05) ** 2 + 1e-6, lambda k: (k - 5.05) ** 2 - 1e-6],
    ids=["near-real-pair", "hidden-double-crossing"],
)
def test_a_scan_sees_no_pair_of_zeros_inside_one_cell(f):
    # neither a pair of zeros 1e-3 off the real axis nor two crossings 2e-3
    # apart inside one cell of the 0.1 grid changes the sign between grid
    # points; for a secular function the eigenphase count sees what the
    # scan misses (test_find_roots_real_touching_root)
    s = _scan(f, 0, 10.0, 0.1)
    assert s.roots == () and not s.meta["fallback"]


@pytest.mark.parametrize("l1", [0.25, 0.5])
def test_multiple_roots_of_quotient_factors_are_certified(l1):
    # the 3x4 torus at L3 = 1 has roots of order 2 (at L1 = 0.25) and 3 at
    # multiples of pi, where the sign changes fall short of the eigenphase
    # count; those factors, and only those, are solved again, and every
    # factor equals the unitary locator on its own system
    orders = set()
    for spec in all_quotient_specs(3, 4, l1, 1.0):
        system = quotient_system(spec)
        s = find_roots_real(lambda k: quotient_dispersion_real(spec, k), system, 10.0, 0.005)
        want = find_roots_unitary(system, 10.0, source="")
        assert [r.order for r in s.roots] == [r.order for r in want.roots]
        assert max((abs(a.k - b.k) for a, b in zip(s.roots, want.roots)), default=0.0) <= 1e-9
        multiple = [r.k for r in s.roots if r.order >= 2]
        assert s.meta["fallback"] == bool(multiple) and s.count() == s.meta["eigenphase_count"]
        for k in multiple:
            assert abs(k - round(k / math.pi) * math.pi) < 1e-11
        orders.update(r.order for r in s.roots)
    assert orders == ({1, 2, 3} if l1 == 0.25 else {1, 3})


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


def test_merge_spectra_coalesces_nearby_roots():
    a = Spectrum((SpectralRoot(1.0, 1, "a"), SpectralRoot(3.0, 1, "a")), 5.0)
    b = Spectrum((SpectralRoot(1.0 + 4e-8, 1, "b"), SpectralRoot(4.0, 2, "b")), 5.0)
    m = merge_spectra([a, b], tol=1e-7)
    assert [r.order for r in m.roots] == [2, 1, 2]
    assert m.roots[0].k == pytest.approx(1.0 + 2e-8, abs=1e-9)
    assert "a" in m.roots[0].source and "b" in m.roots[0].source


_ROOTS = st.lists(
    st.tuples(
        st.integers(1, 30),  # the root's place on a lattice of 0.01
        st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 3e-8, -4e-8]),  # exact ties and near-ties within tol
        st.integers(1, 3),
        st.sampled_from(["", "a", "b"]),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    parts=st.lists(_ROOTS, min_size=1, max_size=4),
    copies=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([None, "", "x", "y", "z"])), max_size=8),
)
def test_merging_copies_equals_merging_each_copy_built(parts, copies):
    # every copy built as a spectrum of its own and merged once each is the
    # reference: the same rows, orders and sources, and k within 4 ulp
    spectra = [
        Spectrum(tuple(SpectralRoot(0.01 * j + d, order, src) for j, d, order, src in sorted(roots)), 1.0)
        for roots in parts
    ]
    copies = [(i % len(spectra), src) for i, src in copies]
    built = [
        Spectrum(tuple(SpectralRoot(r.k, r.order, r.source if src is None else src) for r in spectra[i].roots), 1.0)
        for i, src in copies
    ]
    got, want = merge_spectra(spectra, tol=1e-7, copies=copies), merge_spectra(built, tol=1e-7)
    assert [(r.order, r.source) for r in got.roots] == [(r.order, r.source) for r in want.roots]
    assert all(abs(g.k - w.k) <= 4 * math.ulp(w.k) for g, w in zip(got.roots, want.roots))


def test_spectral_root_is_an_immutable_tuple_of_float_int_and_source():
    r = SpectralRoot(np.float64(1.5), np.int64(2), "a")
    assert type(r.k) is float and type(r.order) is int
    assert r == SpectralRoot(k=1.5, order=2.0, source="a")
    assert hash(r) == hash(SpectralRoot(1.5, 2, "a"))
    assert r != SpectralRoot(1.5, 2, "b") and r != SpectralRoot(1.5, 3, "a")
    assert repr(r) == "SpectralRoot(k=1.5, order=2, source='a')"
    assert SpectralRoot(1, 1).source == "" and type(SpectralRoot(1, 1).k) is float
    with pytest.raises(AttributeError):
        r.k = 2.0


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


@pytest.mark.parametrize("k_max", [6.2, 2 * math.pi - 1e-11], ids=["past-kmax", "within-tol-of-kmax"])
def test_a_sign_change_past_kmax_is_off_the_grid(k_max, calls_of):
    # the 4.0 grid is [4.0, k_max]: the sign change of sin at 2 pi lies past
    # its end, so the grid has none against N(k_max) = 1 (the root pi); the
    # member falls back with no refinement round and one call of f, and the
    # unitary locator finds pi
    scan = _scan(np.sin, 1, k_max, 4.0)
    assert scan.roots == () and scan.meta["fallback"]
    assert (scan.meta["evaluations"], scan.meta["rounds"]) == (2, 0)
    counted, calls = calls_of(np.sin)
    s = find_roots_real(counted, _dirichlet_interval(), k_max, 4.0)
    assert [c.tolist() for c in calls] == [[4.0, k_max]]
    assert (s.meta["eigenphase_count"], s.meta["fallback"]) == (1, True)
    assert [r.order for r in s.roots] == [1]
    assert s.roots[0].k == pytest.approx(math.pi, abs=1e-10)


def test_roots_exclude_zero_and_respect_kmax():
    # the grid ends at k_max: at the float 2 pi, 2.4e-16 below 2 pi, sin's
    # second zero lies past it, and 0.05 further the last cell holds it
    for k_max, want in [(2 * math.pi, [math.pi]), (2 * math.pi + 0.05, [math.pi, 2 * math.pi])]:
        s = _scan(np.sin, len(want), k_max, 0.1)
        assert not s.meta["fallback"]
        assert all(r.k > 0 for r in s.roots)
        assert all(r.k <= k_max for r in s.roots)
        assert [r.k for r in s.roots] == pytest.approx(want, rel=0, abs=1e-9)


def test_a_root_in_the_last_cell_before_an_off_grid_kmax_is_kept(calls_of, dirichlet_neumann):
    # the 0.005 grid ends 7.300, 7.3037: the root 7.3035 lies in that last
    # cell, and the member is certified and refined
    counted, calls = calls_of(lambda k: k - 7.3035)
    s = find_roots_real(counted, dirichlet_neumann(math.pi / (2 * 7.3035)), 7.3037, 0.005)
    assert calls[0][-2:].tolist() == pytest.approx([7.3, 7.3037], rel=0, abs=1e-12)
    assert (s.meta["eigenphase_count"], s.meta["fallback"]) == (1, False)
    assert len(calls) > 1 and [r.order for r in s.roots] == [1]
    assert s.roots[0].k == pytest.approx(7.3035, rel=0, abs=1e-10)


def _two_part_grid():
    """The 0.005 grid at k_max 30: 6000 points, in the parts ks[:4096] and
    ks[4095:], which share the point ks[4095] = 20.48."""
    ks = np.append(np.arange(0.005, 30.0 - 0.0025, 0.005), 30.0)
    assert len(ks) == 6000 and ks[4095] == pytest.approx(20.48, abs=1e-12)
    return ks


def test_sign_changes_beside_the_point_two_parts_share_are_found_once(calls_of):
    # one zero in the last cell of the first part and one in the first cell
    # of the second: each is found once
    ks = _two_part_grid()
    want = [0.5 * (ks[4094] + ks[4095]), 0.5 * (ks[4095] + ks[4096])]
    counted, calls = calls_of(lambda k: (k - want[0]) * (k - want[1]))
    s = _scan(counted, 2, 30.0, 0.005)
    assert [c.shape for c in calls[:2]] == [(4096,), (1905,)]
    assert calls[0][-1] == calls[1][0] == ks[4095]
    assert not s.meta["fallback"] and s.meta["evaluations"] == 6000 + sum(map(len, calls[2:]))
    assert [r.k for r in s.roots] == pytest.approx(want, rel=0, abs=1e-10)


@pytest.mark.parametrize("at", [1000, 4095, 5000], ids=["first-part", "shared-point", "second-part"])
def test_an_exact_zero_in_either_part_sends_the_member_to_the_fallback(at):
    # one sign change, as many as the count, but an exact 0.0 on the grid:
    # wherever it lies, the member is not certified
    ks = _two_part_grid()
    s = _scan(lambda k: k - ks[at], 1, 30.0, 0.005)
    assert s.roots == () and s.meta["fallback"]
    assert (s.meta["evaluations"], s.meta["rounds"]) == (6000, 0)


@pytest.mark.parametrize("f", [lambda k: k - 0.5, lambda k: 0.5 - k], ids=["rising", "falling"])
def test_root_on_an_exact_grid_point(f, calls_of, dirichlet_neumann):
    # a grid value of exactly 0.0 certifies nothing: the member is solved by
    # the unitary locator on its system, whose one root on (0, 1] is 0.5,
    # and f is called on the grid only
    assert 0.5 in np.arange(0.1, 1.0 + 0.05, 0.1)
    counted, calls = calls_of(f)
    s = find_roots_real(counted, dirichlet_neumann(math.pi), 1.0, 0.1)
    assert (s.meta["eigenphase_count"], s.meta["fallback"]) == (1, True)
    assert len(calls) == 1 and len(s.roots) == 1
    assert s.roots[0].k == pytest.approx(0.5, abs=1e-10)
    assert s.roots[0].order == 1


def test_real_and_unitary_locators_agree_on_quotient_factors():
    # non-coprime orders and incommensurate lengths: every quotient factor's
    # dispersion roots equal the eigenphase roots of its 8x8 secular system
    for n1, n2, l3 in [(3, 4, 1 / math.sqrt(2)), (4, 6, 0.61)]:
        for spec in all_quotient_specs(n1, n2, 0.5, l3):
            unitary = find_roots_unitary(quotient_system(spec), 6.0)
            real = find_roots_real(lambda k: quotient_dispersion_real(spec, k), quotient_system(spec), 6.0, 0.005)
            assert not real.meta["fallback"], (spec.s, spec.t)
            res = compare_spectra(real, unitary, tol=1e-8)
            assert res.isospectral, ((spec.s, spec.t), res)
            assert res.count_a > 0


@pytest.mark.parametrize(
    "root, k_max, refined",
    [
        (0.1, 0.2, False),
        (1.0, 1.0 + 1e-12, True),
        pytest.param(
            1.0, 1.0, False,
            marks=pytest.mark.xfail(
                strict=True, reason="the unitary locator counts no root at exactly k_max (FOUND in CHANGES.md)"
            ),
        ),
    ],
    ids=["first-point", "last-point", "last-point-at-kmax"],
)
def test_root_on_an_end_of_the_grid(root, k_max, refined, calls_of, dirichlet_neumann):
    # the 0.1 grid runs from 0.1 to k_max, through 0.9.  An exact 0.0 at its
    # first point, or at its last with k_max = 1.0, sends the member to the
    # unitary locator on a system whose one root on (0, k_max] is `root`,
    # with no refinement call of f; in `last-point` the last grid point is
    # k_max = 1 + 1e-12, so the root lies inside the last cell and is refined
    system = dirichlet_neumann(math.pi / (2 * root))
    for f in (lambda k: k - root, lambda k: root - k):
        counted, calls = calls_of(f)
        s = find_roots_real(counted, system, k_max, 0.1)
        assert calls[0][-1] == k_max
        assert (s.meta["eigenphase_count"], s.meta["fallback"]) == (1, not refined)
        assert len(calls) > 1 if refined else len(calls) == 1
        assert [r.order for r in s.roots] == [1]
        assert s.roots[0].k == pytest.approx(root, abs=1e-10)
