import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgsym import (
    QuotientFamily,
    Roots,
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
    quotient_dispersion_real,
    quotient_system,
    quotient_systems,
    standard_conditions,
    winding_number,
)
from qgsym.errors import NonUnitaryScattering, QgsymError
from qgsym.quotient import QuotientSpec


def _real(specs, k_max, tol=1e-10):
    """`find_roots_real` of the quotient factors `specs` of one torus as one
    family, each member's roots as its spectrum."""
    torus = specs[0].n1, specs[0].n2, specs[0].l1, specs[0].l3
    family = QuotientFamily(*torus, [(spec.s, spec.t) for spec in specs])
    found = find_roots_real(family, UnitaryFamily(quotient_systems(specs)), k_max, tol)
    return [found.spectrum(m) for m in range(found.members)]


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
    assert np.allclose(quotient_dispersion_real(_sine(), ks), np.sin(ks), rtol=0, atol=1e-15)
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


def _roots(parts, k_max):
    """The `Roots` of a family whose member m has the (k, order) rows `parts[m]`."""
    rows = [row for part in parts for row in part]
    member = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    k, order = np.array([k for k, _ in rows], dtype=float), np.array([n for _, n in rows], dtype=np.int64)
    return Roots(member, k, order, len(parts), k_max)


def test_merge_spectra_coalesces_nearby_roots():
    roots = _roots([[(1.0, 1), (3.0, 1)], [(1.0 + 4e-8, 1), (4.0, 2)]], 5.0)
    m = merge_spectra(roots, [0, 1], ["a", "b"], tol=1e-7)
    assert m.order.tolist() == [2, 1, 2]
    assert m.k[0] == pytest.approx(1.0 + 2e-8, abs=1e-9)
    assert m.source == ("a,b", "a", "b") and m.k_max == 5.0


_ROOTS = st.lists(
    st.tuples(
        st.integers(1, 30),  # the root's place on a lattice of 0.01
        st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 3e-8, -4e-8]),  # exact ties and near-ties within tol
        st.integers(1, 3),
    ),
    max_size=6,
)
# copies of members under distinct, nonempty labels, in any order
_COPIES = st.lists(st.tuples(st.integers(0, 3), st.sampled_from("xyzwvuts")), max_size=8, unique_by=lambda c: c[1])


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(_ROOTS, min_size=1, max_size=4), copies=_COPIES)
def test_merging_copies_equals_merging_each_copy_built(parts, copies):
    # every copy built as a member of its own and merged once each is the
    # reference: the same rows, orders and sources, and k within 4 ulp
    parts = [sorted((0.01 * j + d, n) for j, d, n in rows) for rows in parts]
    runs, labels = [i % len(parts) for i, _ in copies], [src for _, src in copies]
    got = merge_spectra(_roots(parts, 1.0), runs, labels, tol=1e-7)
    want = merge_spectra(_roots([parts[i] for i in runs], 1.0), np.arange(len(runs)), labels, tol=1e-7)
    assert got.order.tolist() == want.order.tolist() and got.source == want.source
    assert all(abs(g - w) <= 4 * math.ulp(w) for g, w in zip(got.k.tolist(), want.k.tolist()))


def _merge_by_entry(roots, runs, labels, tol):
    """`merge_spectra` one entry at a time in Python, as it was before it
    sorted arrays: the reference for its rows, as (k, order, source)."""
    held = {}
    for rank, (i, src) in enumerate(zip(runs, labels)):
        held.setdefault(i, []).append((rank, src))
    bounds = roots.bounds.tolist()
    entries = sorted(
        (k, ranks[0][0], j, i, n)
        for i, ranks in held.items()
        for j, (k, n) in enumerate(zip(*(v[bounds[i] : bounds[i + 1]].tolist() for v in (roots.k, roots.order))))
    )
    merged = []
    for k, _, _, i, n in entries:
        order = n * len(held[i])
        if merged and k - merged[-1][0] <= tol:
            last = merged[-1]
            w = last[1] + order
            last[0], last[1] = (last[0] * last[1] + k * order) / w, w
            last[2].append(i)
        else:
            merged.append([k, order, [i]])

    def sources(members):
        pairs = sorted(pair for i in dict.fromkeys(members) for pair in held[i])
        return ",".join(src for _, src in pairs)

    return [(k, order, sources(members)) for k, order, members in merged]


def _assert_merge_is_the_reference(roots, tol, runs, labels):
    rows = _merge_by_entry(roots, runs, labels, tol)
    got = merge_spectra(roots, np.array(runs, dtype=np.intp), labels, tol=tol)
    assert got.k.tobytes() == np.array([k for k, _, _ in rows], dtype=float).tobytes()  # the same bits
    assert (got.order.tolist(), got.source, got.k_max) == ([n for _, n, _ in rows], tuple(s for *_, s in rows), roots.k_max)


# steps between consecutive roots of a member, in units of tol: ties, chains
# of steps under tol that are longer than tol in all, and steps just past tol
_STEPS = st.sampled_from([0.0, 0.0, 0.3, 0.45, 0.7, 0.99, 1.0, 1.01, 2.5, 40.0])
_MEMBER = st.lists(st.tuples(_STEPS, st.integers(-2, 2), st.integers(1, 3)), max_size=7)


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(_MEMBER, min_size=1, max_size=4),
    starts=st.lists(st.sampled_from([0.1, 0.1, 1.0, 3.7]), min_size=4, max_size=4),
    copies=st.one_of(st.none(), _COPIES),
)
def test_merge_equals_the_entry_by_entry_merge_bit_for_bit(parts, starts, copies):
    # each root is the last one plus a step of the member's start, nudged
    # by a few ulps, so that roots of different members tie, chain and fall
    # just either side of tol; some members have no roots, and a member may
    # be copied more than once or not at all (None: each member once, in order)
    tol, rows = 1e-7, []
    for part, start in zip(parts, starts):
        k, ks = start, []
        for step, ulps, _ in part:
            k += step * tol
            for _ in range(abs(ulps)):
                k = math.nextafter(k, math.copysign(math.inf, ulps))
            ks.append(k)
        rows.append(list(zip(sorted(ks), [n for *_, n in part])))
    if copies is None:
        copies = [(i, f"m{i}") for i in range(len(parts))]
    runs, labels = [i % len(parts) for i, _ in copies], [src for _, src in copies]
    _assert_merge_is_the_reference(_roots(rows, 1.0 + max(map(len, parts))), tol, runs, labels)


def test_merge_follows_a_mean_rounded_above_the_rows_last_k():
    # (0.1 * 1 + 0.1 * 2) / 3 rounds to 0.10000000000000002, so a root more
    # than tol above 0.1, but within tol of that mean, joins its row
    tol, a = 1e-7, 0.1
    c = a + tol
    while c - a <= tol:
        c = math.nextafter(c, math.inf)
    roots = _roots([[(a, 1)], [(a, 2)], [(c, 1)]], 1.0)
    assert len(merge_spectra(roots, [0, 1, 2], ["a", "b", "c"], tol=tol).k) == 1
    _assert_merge_is_the_reference(roots, tol, [0, 1, 2], ["a", "b", "c"])
    _assert_merge_is_the_reference(roots, tol, [2, 0, 1, 0], ["z", "w", "y", "x"])


def test_merge_of_no_roots():
    for parts, runs, labels in (([], [], []), ([[]], [0], ["x"]), ([[], []], [1, 1], ["x", "y"]), ([[]], [], [])):
        _assert_merge_is_the_reference(_roots(parts, 2.0), 1e-7, runs, labels)
    merged = merge_spectra(_roots([[], [(1.0, 1)]], 3.0), [0], ["x"])
    assert (len(merged.k), merged.k_max) == (0, 3.0)


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
    assert (2.0, 1) in res2.unmatched_a and (2.5, 1) in res2.unmatched_b


def _compare_expanded(a, b, tol):
    """The greedy sorted pairing of the order-expanded root lists, one root
    at a time: (max distance, unmatched of a, unmatched of b)."""
    xs, ys = np.sort(a.expanded()).tolist(), np.sort(b.expanded()).tolist()
    i = j = 0
    max_dist, un_a, un_b = 0.0, [], []
    while i < len(xs) and j < len(ys):
        d = xs[i] - ys[j]
        if abs(d) <= tol:
            max_dist, i, j = max(max_dist, abs(d)), i + 1, j + 1
        elif d < 0:
            un_a, i = un_a + [xs[i]], i + 1
        else:
            un_b, j = un_b + [ys[j]], j + 1
    return max_dist, un_a + xs[i:], un_b + ys[j:]


_ROWS = st.lists(st.tuples(st.integers(0, 12).map(lambda q: q * 0.25), st.integers(1, 4)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(rows_a=_ROWS, rows_b=_ROWS, shift=st.sampled_from([0.0, 1e-9, -1e-9, 0.2]), tol=st.sampled_from([1e-6, 0.3]))
def test_compare_by_runs_equals_the_expanded_pairing(rows_a, rows_b, shift, tol):
    # roots on a 0.25 grid, some shared, with orders up to 4 and equal k in
    # several rows, shifted by less or more than tol: pairing runs of copies
    # matches the expanded pairing root for root
    a = Spectrum([k for k, _ in rows_a], [n for _, n in rows_a], [""] * len(rows_a), 5.0)
    b = Spectrum([k + shift for k, _ in rows_b], [n for _, n in rows_b], [""] * len(rows_b), 5.0)
    res = compare_spectra(a, b, tol)
    max_dist, un_a, un_b = _compare_expanded(a, b, tol)
    assert res.max_distance == max_dist
    assert [k for k, n in res.unmatched_a for _ in range(n)] == un_a
    assert [k for k, n in res.unmatched_b for _ in range(n)] == un_b
    assert (res.count_a, res.count_b) == (len(a.expanded()), len(b.expanded()))
    assert res.isospectral == (len(a.expanded()) == len(b.expanded()) and not un_a and not un_b)


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
    family, calls = QuotientFamily(1, 2, 0.25, 0.25, [(0, 1)]), []
    form = family.pole_form
    family.pole_form = lambda which, k: calls.append(np.array(k)) or form(which, k)
    assert family.sine_zeros(k_max)[0].size == 0
    s = find_roots_real(family, UnitaryFamily([quotient_system(_sine())]), k_max).spectrum(0)
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
