import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgsym import (
    QuotientFamily,
    SecularSystem,
    Spectrum,
    UnitaryFamily,
    all_quotient_specs,
    build_secular_system,
    compare_spectra,
    cycle_graph,
    find_roots_real,
    find_roots_unitary,
    merge_spectra,
    quotient_system,
    quotient_systems,
    standard_conditions,
    winding_number,
)
from qgsym.errors import NonUnitaryScattering, QgsymError
from qgsym.quotient import QuotientSpec


def _real(specs, k_max, tol=1e-10):
    """`find_roots_real` of the quotient factors `specs` as one family."""
    return find_roots_real(QuotientFamily(specs), UnitaryFamily(quotient_systems(specs)), k_max, tol)


def _sine():
    """The factor (0,1) of the 1x2 torus at L1 = L3 = 1/4, whose dispersion
    form is F(k) = (cos k/2 + 1) sin k/2 + (cos k/2 - 1) sin k/2 = sin k."""
    return QuotientSpec(1, 2, 0.25, 0.25, 0, 1)


def test_find_roots_real_simple_sine():
    # G = cot(k/4) - tan(k/4) has its poles at 2 pi m, where both sines
    # vanish and one term has a pole: pi and 3 pi are the roots of G
    # between them, 2 pi is a sine-zero root of order 2 - 1
    want = [math.pi, 2 * math.pi, 3 * math.pi]
    (s,) = _real([_sine()], 10.0)
    ks = np.linspace(0.0, 10.0, 101)
    assert np.allclose(QuotientFamily([_sine()]).dispersion_real(0, ks), np.sin(ks), rtol=0, atol=1e-15)
    assert (s.meta["eigenphase_count"], s.meta["fallback"]) == (3, False)
    assert len(s.k) == 3
    assert s.k.tolist() == pytest.approx(want, abs=1e-9)
    assert s.order.tolist() == [1, 1, 1]


def test_find_roots_real_touching_root():
    # the factor (1,0) of the 3x1 torus at L1 = 3/2, L3 = 1/2: sin 3k has a
    # zero at 2 pi/3 where its term is regular, and there the other term,
    # cos k + 1/2, is 0 too, so F = (cos 3k - 1) sin k + (cos k + 1/2) sin 3k
    # touches 0 with no sign change; so at 4 pi/3.  The order rule gives
    # both double roots, and the unitary locator agrees on every root
    spec = QuotientSpec(3, 1, 1.5, 0.5, 1, 0)
    (s,) = _real([spec], 5.0)
    exact = find_roots_unitary(quotient_system(spec), 5.0)
    assert (s.meta["eigenphase_count"], s.meta["fallback"]) == (6, False)
    assert s.order.tolist() == exact.order.tolist()
    assert s.k[s.order == 2].tolist() == pytest.approx([2 * math.pi / 3, 4 * math.pi / 3], abs=1e-12)
    assert np.abs(s.k - exact.k).max() <= 1e-9


@pytest.mark.parametrize("l1", [0.25, 0.5])
def test_multiple_roots_of_quotient_factors_are_certified(l1):
    # the 3x4 torus at L3 = 1 has roots of order 2 (at L1 = 0.25) and 3 at
    # multiples of pi, on the zeros of its sines; the order rule finds them
    # with no fallback, and every factor equals the unitary locator on its
    # own system
    orders = set()
    specs = all_quotient_specs(3, 4, l1, 1.0)
    for spec, s in zip(specs, _real(specs, 10.0)):
        want = find_roots_unitary(quotient_system(spec), 10.0, source="")
        assert s.order.tolist() == want.order.tolist()
        assert np.abs(s.k - want.k).max(initial=0.0) <= 1e-9
        multiple = s.k[s.order >= 2].tolist()
        assert not s.meta["fallback"] and s.count() == s.meta["eigenphase_count"]
        for k in multiple:
            assert abs(k - round(k / math.pi) * math.pi) < 1e-11
        orders.update(s.order.tolist())
    assert orders == ({1, 2, 3} if l1 == 0.25 else {1, 3})


def test_winding_number_counts_order():
    assert winding_number(lambda z: (z - 2.0) ** 3, 2.0, 0.1) == 3
    assert winding_number(lambda z: z - 5.0, 2.0, 0.1) == 0


def test_find_roots_unitary_cycle():
    g, _ = cycle_graph(3, 1.0)
    sys = build_secular_system(g, standard_conditions(g))
    s = find_roots_unitary(sys, 15.0)
    want = [2 * math.pi * m / 3 for m in range(1, 8)]
    assert len(s.k) == 7
    assert s.k.tolist() == pytest.approx(want, abs=1e-9)
    assert s.order.tolist() == [2] * 7


def test_find_roots_unitary_rejects_non_unitary_system():
    sys = SecularSystem(0.5 * np.eye(6), np.ones(6))
    with pytest.raises(NonUnitaryScattering) as info:
        find_roots_unitary(sys, 5.0)
    assert isinstance(info.value, QgsymError)
    assert "find_roots_modulus" not in str(info.value)


def test_spectrum_bookkeeping():
    s = Spectrum([1.0, 2.0], [2, 1], ["a", "b"], 5.0)
    assert s.count() == 3
    assert s.expanded().tolist() == [1.0, 1.0, 2.0]


def test_merge_spectra_coalesces_nearby_roots():
    a = Spectrum([1.0, 3.0], [1, 1], ["a", "a"], 5.0)
    b = Spectrum([1.0 + 4e-8, 4.0], [1, 2], ["b", "b"], 5.0)
    m = merge_spectra([a, b], tol=1e-7)
    assert m.order.tolist() == [2, 1, 2]
    assert m.k[0] == pytest.approx(1.0 + 2e-8, abs=1e-9)
    assert "a" in m.source[0] and "b" in m.source[0]


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
        Spectrum([0.01 * j + d for j, d, _, _ in rows], [n for *_, n, _ in rows], [src for *_, src in rows], 1.0)
        for rows in map(sorted, parts)
    ]
    copies = [(i % len(spectra), src) for i, src in copies]
    built = [
        Spectrum(spectra[i].k, spectra[i].order, spectra[i].source if src is None else [src] * len(spectra[i].k), 1.0)
        for i, src in copies
    ]
    got, want = merge_spectra(spectra, tol=1e-7, copies=copies), merge_spectra(built, tol=1e-7)
    assert got.order.tolist() == want.order.tolist() and got.source == want.source
    assert all(abs(g - w) <= 4 * math.ulp(w) for g, w in zip(got.k.tolist(), want.k.tolist()))


def _merge_by_entry(spectra, tol, copies=None):
    """`merge_spectra` one entry at a time in Python, as it was before it
    sorted arrays: the reference for its rows, as (k, order, source), and
    its k_max."""
    copies = [(i, None) for i in range(len(spectra))] if copies is None else copies
    held = {}
    for rank, (i, src) in enumerate(copies):
        held.setdefault(i, []).append((rank, src))
    entries = sorted(
        (k, ranks[0][0], j, i, (k, n, src))
        for i, ranks in held.items()
        for j, (k, n, src) in enumerate(zip(spectra[i].k.tolist(), spectra[i].order.tolist(), spectra[i].source))
    )
    merged = []
    for k, _, _, i, root in entries:
        order = root[1] * len(held[i])
        if merged and k - merged[-1][0] <= tol:
            last = merged[-1]
            w = last[1] + order
            last[0], last[1] = (last[0] * last[1] + k * order) / w, w
            last[2].append((i, root))
        else:
            merged.append([k, order, [(i, root)]])

    def joined(pairs):
        return ",".join(dict.fromkeys(src for _, src in pairs if src))

    named = {i: joined(ranks) for i, ranks in held.items() if all(src is not None for _, src in ranks)}

    def sources(parts):
        if len(parts) == 1 and parts[0][0] in named:
            return named[parts[0][0]]
        pairs = [(rank, root[2] if src is None else src) for i, root in parts for rank, src in held[i]]
        return joined(sorted(pairs, key=lambda pair: pair[0]))

    return [(k, order, sources(parts)) for k, order, parts in merged], max((s.k_max for s in spectra), default=0.0)


def _assert_merge_is_the_reference(spectra, tol, copies=None):
    got = merge_spectra(spectra, tol=tol, copies=copies)
    rows, k_max = _merge_by_entry(spectra, tol, copies)
    assert got.k.tobytes() == np.array([k for k, _, _ in rows], dtype=float).tobytes()  # the same bits
    assert (got.order.tolist(), got.source, got.k_max) == ([n for _, n, _ in rows], tuple(s for *_, s in rows), k_max)


# steps between consecutive roots of a spectrum, in units of tol: ties, chains
# of steps under tol that are longer than tol in all, and steps just past tol
_STEPS = st.sampled_from([0.0, 0.0, 0.3, 0.45, 0.7, 0.99, 1.0, 1.01, 2.5, 40.0])
_SPECTRUM = st.lists(
    st.tuples(_STEPS, st.integers(-2, 2), st.integers(1, 3), st.sampled_from(["", "a", "b", "c"])), max_size=7
)


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(_SPECTRUM, min_size=1, max_size=4),
    starts=st.lists(st.sampled_from([0.1, 0.1, 1.0, 3.7]), min_size=4, max_size=4),
    copies=st.one_of(
        st.none(),
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from([None, None, "", "x", "y"])), max_size=8),
    ),
)
def test_merge_equals_the_entry_by_entry_merge_bit_for_bit(parts, starts, copies):
    # each root is the last one plus a step of the spectrum's start, nudged
    # by a few ulps, so that roots of different spectra tie, chain and fall
    # just either side of tol; some spectra are empty, and a copy's source
    # may be None or empty, or repeat a spectrum
    tol, spectra = 1e-7, []
    for rows, start in zip(parts, starts):
        k, ks = start, []
        for step, ulps, _, _ in rows:
            k += step * tol
            for _ in range(abs(ulps)):
                k = math.nextafter(k, math.copysign(math.inf, ulps))
            ks.append(k)
        ks.sort()
        spectra.append(Spectrum(ks, [n for *_, n, _ in rows], [src for *_, src in rows], 1.0 + len(rows)))
    copies = None if copies is None else [(i % len(spectra), src) for i, src in copies]
    _assert_merge_is_the_reference(spectra, tol, copies)


def test_merge_follows_a_mean_rounded_above_the_rows_last_k():
    # (0.1 * 1 + 0.1 * 2) / 3 rounds to 0.10000000000000002, so a root more
    # than tol above 0.1, but within tol of that mean, joins its row
    tol, a = 1e-7, 0.1
    c = a + tol
    while c - a <= tol:
        c = math.nextafter(c, math.inf)
    spectra = [Spectrum([a], [1], ["a"], 1.0), Spectrum([a], [2], ["b"], 1.0), Spectrum([c], [1], ["c"], 1.0)]
    assert len(merge_spectra(spectra, tol=tol).k) == 1
    _assert_merge_is_the_reference(spectra, tol)
    _assert_merge_is_the_reference(spectra, tol, [(2, "z"), (0, None), (1, "y"), (0, "")])


def test_merge_of_no_roots():
    empty = Spectrum([], [], [], 2.0)
    for spectra, copies in (([], None), ([empty], None), ([empty, empty], [(1, "x"), (1, None)]), ([empty], [])):
        _assert_merge_is_the_reference(spectra, 1e-7, copies)
    assert merge_spectra([empty, Spectrum([1.0], [1], ["a"], 3.0)], copies=[(0, "x")]).k_max == 3.0


def test_spectrum_roots_are_read_only_arrays_of_float_int_and_source():
    k, order = np.array([1.5]), np.array([2])
    s = Spectrum(k, order, ["a"], 5.0, {"tol": 1e-7})
    assert s.k.dtype == np.float64 and s.order.dtype == np.int64 and s.source == ("a",)
    assert s == Spectrum(k=[1.5], order=[2.0], source=("a",), k_max=5.0)  # meta is not compared
    assert s != Spectrum([1.5], [2], ["b"], 5.0) and s != Spectrum([1.5], [3], ["a"], 5.0)
    assert s != Spectrum([1.5], [2], ["a"], 6.0)
    assert Spectrum([1], [1], [""], 1.0).k.dtype == np.float64
    k[0], order[0] = 2.0, 3  # the spectrum holds copies
    assert (s.k.tolist(), s.order.tolist()) == ([1.5], [2])
    with pytest.raises(ValueError):
        s.k[0] = 2.0
    with pytest.raises(AttributeError):
        s.k = np.array([2.0])
    with pytest.raises(ValueError):
        Spectrum([1.0, 2.0], [1], ["a", "b"], 5.0)


def test_compare_spectra_matching_and_mismatch():
    a = Spectrum([1.0, 2.0], [2, 1], ["", ""], 5.0)
    b = Spectrum([1.0 + 1e-9, 1.0 - 1e-9, 2.0], [1, 1, 1], ["", "", ""], 5.0)
    res = compare_spectra(a, b, tol=1e-6)
    assert res.isospectral
    assert res.max_distance < 1e-8
    bad = Spectrum([1.0, 2.5], [2, 1], ["", ""], 5.0)
    res2 = compare_spectra(a, bad, tol=1e-6)
    assert not res2.isospectral
    assert 2.0 in res2.unmatched_a and 2.5 in res2.unmatched_b


def test_weyl_count_sanity():
    g, _ = cycle_graph(3, 1.0)
    sys = build_secular_system(g, standard_conditions(g))
    s = find_roots_unitary(sys, 15.0)
    assert s.count(15.0) == 14  # 7 roots of order 2


@pytest.mark.parametrize("k_max", [6.2, 2 * math.pi - 1e-11], ids=["past-kmax", "within-tol-of-kmax"])
def test_a_sign_change_past_kmax_is_off_the_grid(k_max):
    # F = sin k changes sign at the sine zero 2 pi, past k_max, so 2 pi is
    # not among the sine zeros: the bracket of G from 0 ends at k_max, where
    # G < 0, and holds the one root pi; G is evaluated at k_max first, and
    # the count is certified by N(k_max) = 1
    family, calls = QuotientFamily([_sine()]), []
    form = family.pole_form
    family.pole_form = lambda which, k: calls.append(np.array(k)) or form(which, k)
    assert family.sine_zeros(k_max)[0].size == 0
    (s,) = find_roots_real(family, UnitaryFamily([quotient_system(_sine())]), k_max)
    assert calls[0].tolist() == [k_max] and s.meta["evaluations"] == sum(map(len, calls))
    assert (s.meta["eigenphase_count"], s.meta["fallback"]) == (1, False)
    assert s.order.tolist() == [1]
    assert s.k[0] == pytest.approx(math.pi, abs=1e-10)


def test_roots_exclude_zero_and_respect_kmax():
    # F = sin k.  At the float 2 pi the sine zero is k_max itself, which the
    # eigenphase count does not hold (FOUND in CHANGES.md), so the factor
    # falls back to the unitary locator; 0.05 further the sine zero is a
    # root.  The root 3 pi of G is held where G(k_max) <= 0, 1e-11 past it,
    # and not 1e-11 before it
    for k_max, want, fallback in [
        (2 * math.pi, [math.pi], True),
        (2 * math.pi + 0.05, [math.pi, 2 * math.pi], False),
        (3 * math.pi - 1e-11, [math.pi, 2 * math.pi], False),
        (3 * math.pi + 1e-11, [math.pi, 2 * math.pi, 3 * math.pi], False),
    ]:
        (s,) = _real([_sine()], k_max)
        assert s.meta["fallback"] == fallback
        assert all(s.k > 0)
        assert all(s.k <= k_max)
        assert s.k.tolist() == pytest.approx(want, rel=0, abs=1e-9)


def test_real_and_unitary_locators_agree_on_quotient_factors():
    # non-coprime orders and incommensurate lengths: every quotient factor's
    # dispersion roots equal the eigenphase roots of its 8x8 secular system
    for n1, n2, l3 in [(3, 4, 1 / math.sqrt(2)), (4, 6, 0.61)]:
        specs = all_quotient_specs(n1, n2, 0.5, l3)
        for spec, real in zip(specs, _real(specs, 6.0)):
            unitary = find_roots_unitary(quotient_system(spec), 6.0)
            assert not real.meta["fallback"], (spec.s, spec.t)
            res = compare_spectra(real, unitary, tol=1e-8)
            assert res.isospectral, ((spec.s, spec.t), res)
            assert res.count_a > 0


@pytest.mark.parametrize(
    "root, k_max",
    [
        (1.0, 1.0 + 1e-12),
        pytest.param(
            1.0, 1.0,
            marks=pytest.mark.xfail(
                strict=True, reason="the unitary locator counts no root at exactly k_max (FOUND in CHANGES.md)"
            ),
        ),
    ],
    ids=["last-point", "last-point-at-kmax"],
)
def test_root_on_an_end_of_the_grid(root, k_max, dirichlet_neumann):
    # the unitary locator's grid ends at k_max, and its one root on
    # (0, k_max] is `root`: in `last-point` 1e-12 inside the last cell, and
    # in `last-point-at-kmax` on k_max itself, where no eigenphase has
    # crossed by more than PHASE_EPS, so neither the count nor the roots
    # hold it
    system = dirichlet_neumann(math.pi / (2 * root))
    s = find_roots_unitary(system, k_max)
    assert UnitaryFamily([system]).counts(k_max) == [1]
    assert s.order.tolist() == [1]
    assert s.k[0] == pytest.approx(root, abs=1e-10)
