"""The closed forms on arrays and as one family evaluator, `factors` run once
per distinct closed form, and the array calls of its grid, refinement
rounds, contour passes and stacked certificate."""

import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgsym import (
    QuotientFamily,
    SecularSystem,
    all_quotient_specs,
    character_blocks,
    find_roots_real,
    find_roots_real_family,
    merge_spectra,
    quotient,
    quotient_dispersion_real,
    quotient_secular_closed,
    quotient_system,
    standard_conditions,
    torus_action,
)
from qgsym.cli import main
from qgsym.errors import GridTooCoarse, NonUnitaryScattering
from qgsym.io import load_spectrum
from qgsym.locators import K_MIN, PHASE_EPS, UnitaryFamily
from qgsym.spectra import MAX_BATCH_BYTES, _contour, isospectral_classes, winding_number

L1 = 0.5
L3_BAND = 0.713616028647381  # an incommensurate L3 near 1/sqrt(2), as the 16x16 benchmark draws


def _group_key(spec):
    return (min(spec.s, spec.n1 - spec.s), min(spec.t, spec.n2 - spec.t))


def _run_factors(tmp_path, n1, n2, l3):
    out = str(tmp_path / f"factors-{n1}x{n2}.csv")
    flags = ["--n1", str(n1), "--n2", str(n2), "--l1", repr(L1), "--l3", repr(l3)]
    res = CliRunner().invoke(main, ["factors", *flags, "-o", out])
    assert res.exit_code == 0, res.output
    return load_spectrum(out)


@pytest.mark.parametrize("fn", [quotient_dispersion_real, quotient_secular_closed], ids=["dispersion", "closed"])
def test_closed_forms_on_arrays_equal_scalar_calls_bit_for_bit(fn):
    # one factor on scalars and arrays; and, for the dispersion form, the
    # family evaluator that `factors` builds, as the locator calls it: a
    # (members, 1) column against a grid or circles, 1-D arrays of mixed
    # members, and scalars
    ks = np.linspace(0.005, 10.0, 401)
    zs = 3.1 + 0.0025 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 65))
    for specs in (all_quotient_specs(3, 4, L1, 1.0), all_quotient_specs(16, 16, L1, L3_BAND)[::37]):
        for spec in specs:
            real = fn(spec, ks)
            assert isinstance(real, np.ndarray) and real.shape == ks.shape
            assert np.array_equal(real, [fn(spec, float(k)) for k in ks])
            assert np.array_equal(fn(spec, zs), [fn(spec, complex(z)) for z in zs])
        if fn is quotient_dispersion_real:
            family = QuotientFamily(specs).dispersion_real
            rows = np.arange(len(specs))[:, None]
            assert np.array_equal(family(rows, ks), [fn(spec, ks) for spec in specs])
            assert np.array_equal(family(rows, zs), [fn(spec, zs) for spec in specs])
            which = np.arange(len(ks)) % len(specs)
            assert np.array_equal(family(which, ks), [fn(specs[w], float(k)) for w, k in zip(which, ks)])
            assert all(family(w, 1.3 + 0.1j) == fn(spec, 1.3 + 0.1j) for w, spec in enumerate(specs))
    assert isinstance(fn(spec, 1.3), float if fn is quotient_dispersion_real else complex)
    assert isinstance(fn(spec, 1.3 + 0.1j), complex)
    with pytest.raises(ValueError):  # a family is the factors of one torus
        QuotientFamily(all_quotient_specs(3, 4, L1, 1.0) + all_quotient_specs(3, 4, L1, 0.9))


def test_family_keeps_the_sines_of_its_last_grid_bit_for_bit(monkeypatch):
    # the family keeps the sines of the last 1-D array of k; grids A, B and
    # A again, with calls of other shapes in between, each equal a fresh
    # evaluation of every factor
    specs = all_quotient_specs(16, 16, L1, L3_BAND)[::7]
    family = QuotientFamily(specs)
    rows = np.arange(len(specs))[:, None]
    a, b = np.linspace(0.005, 10.0, 2000), np.linspace(0.01, 7.0, 700)
    mixed = np.arange(9) % len(specs)
    refine = np.linspace(2.0, 3.0, 9)

    def fresh(which, k):
        return quotient._dispersion(family.alpha[which], family.beta[which], L1, L3_BAND, k)

    for which, k in [
        (rows, a), (rows, b), (rows, a), (mixed, refine), (rows, a), (rows[:3], a),
        (3, 4.2), (rows, list(b)), (rows, b + 0j), (rows, b),
    ]:
        got = family.dispersion_real(which, k)
        assert got.tobytes() == fresh(which, np.asarray(k)).tobytes()

    # the two parts of one ascending grid, as a grid longer than one array
    # call goes, are kept together and computed once each; an array that
    # does not continue them replaces them, and so does a part past the cap
    low, high = a[:1500], a[1500:]
    expected = {id(k): fresh(rows, k).tobytes() for k in (low, high, refine)}
    sines, count = quotient._sines, []
    monkeypatch.setattr(quotient, "_sines", lambda *args: count.append(1) or sines(*args))
    for cap, calls in [(10**7, [1, 2, 2, 2, 3, 4]), (1800, [1, 2, 3, 4, 5, 6])]:
        monkeypatch.setattr(quotient, "MAX_GRID_POINTS", cap)
        family, count[:] = QuotientFamily(specs), []
        for k, n in zip((low, high, low, high, refine, low), calls):
            assert family.dispersion_real(rows, k).tobytes() == expected[id(k)]
            assert len(count) == n


@pytest.mark.parametrize("n1, n2, l3", [(3, 4, 1.0), (4, 6, 0.61), (16, 16, L3_BAND)])
def test_labels_of_one_group_share_their_closed_form(n1, n2, l3):
    # alpha and beta depend on s and t only through cos(2 pi s/n1) and
    # cos(2 pi t/n2), so s and n1-s (and t and n2-t) give one factor; the
    # computed coefficients of two members differ by a few ulps, and each
    # term of a form (modulus <= 1 here) by at most 1e-15
    ks = np.linspace(0.005, 10.0, 2000)
    zs = ks + 0.0025j
    first = {}
    for spec in all_quotient_specs(n1, n2, L1, l3):
        ref = first.setdefault(_group_key(spec), spec)
        assert np.max(np.abs(np.subtract(spec.coefficients, ref.coefficients))) <= 1e-15
        for fn, pts, terms in [(quotient_dispersion_real, ks, 3), (quotient_secular_closed, zs, 6)]:
            diff = np.max(np.abs(fn(spec, pts) - fn(ref, pts)))
            assert diff <= terms * 1e-15, ((spec.s, spec.t), fn.__name__, diff)
    want = len({(min(s, n1 - s), min(t, n2 - t)) for s in range(n1) for t in range(n2)})
    assert len(first) == want == (n1 // 2 + 1) * (n2 // 2 + 1)


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(1, 16),
    n2=st.integers(1, 16),
    l3=st.one_of(st.sampled_from([L1, 1.0, 0.61, 0.99999, 1 / math.sqrt(2)]), st.floats(0.69, 0.72)),
)
@example(n1=1, n2=1, l3=0.99999)
@example(n1=1, n2=7, l3=0.7017)
@example(n1=4, n2=6, l3=0.61)  # orders not coprime
@example(n1=12, n2=16, l3=1.0)
@example(n1=4, n2=4, l3=L1)  # L1 = L3: (s, t) and (t, s) share a class
@example(n1=16, n2=16, l3=L3_BAND)
def test_dispersion_and_closed_forms_give_the_same_classes(n1, n2, l3):
    # `factors` groups its labels by the dispersion form F; the closed form
    # is F times -2i exp(2ik(L1+L3)), the same factor for every label, so the
    # classes of the probe values are the same
    specs = all_quotient_specs(n1, n2, L1, l3)
    closed = lambda which, z: np.array([quotient_secular_closed(specs[w], x) for w, x in zip(which.tolist(), z.tolist())])
    by_closed = isospectral_classes(closed, len(specs), (L1, l3), 16)
    by_dispersion = isospectral_classes(QuotientFamily(specs).dispersion_real, len(specs), (L1, l3), 16)
    assert by_dispersion.tolist() == by_closed.tolist()
    if n1 == n2 >= 2 and l3 == L1:
        assert len(set(by_closed.tolist())) < len({_group_key(spec) for spec in specs})


@pytest.mark.parametrize("n1, n2, l3", [(3, 4, 1.0), (4, 6, 0.61), (4, 4, L1)])
def test_grouped_factors_equal_a_per_label_run(tmp_path, n1, n2, l3):
    # at L1 = L3 the 4x4 torus is symmetric under swapping its cycles, and
    # (s, t) shares its closed form with (t, s) too
    grouped = _run_factors(tmp_path, n1, n2, l3)
    per_label = merge_spectra(
        [
            find_roots_real(lambda k: quotient_dispersion_real(spec, k), 10.0, 0.005, source=f"({spec.s},{spec.t})")
            for spec in all_quotient_specs(n1, n2, L1, l3)
        ],
        tol=1e-7,
    )
    assert len(grouped.roots) == len(per_label.roots)
    for g, p in zip(grouped.roots, per_label.roots):
        assert abs(g.k - p.k) <= 1e-12
        assert (g.order, g.source) == (p.order, p.source)


@pytest.mark.parametrize("n1, n2, l3, distinct", [(3, 4, 1.0, 6), (16, 16, L3_BAND, 81), (4, 4, L1, 5)])
def test_factors_header_certifies_the_root_count(tmp_path, n1, n2, l3, distinct):
    # 3x4 at L3 = 1 has triple roots; the certificate counts them with order
    s = _run_factors(tmp_path, n1, n2, l3)
    assert int(s.meta["factors"]) == distinct
    assert int(s.meta["eigenphase_count"]) == int(s.meta["root_count"]) == s.count()
    assert float(s.meta["grid_step"]) == 0.005 and float(s.meta["tol"]) == 1e-10
    if l3 == 1.0:
        assert max(r.order for r in s.roots) >= 3


def test_find_roots_real_evaluates_grid_and_circles_in_one_call_each():
    shapes = []

    def f(which, k):
        shapes.append((np.shape(which), np.shape(k)))
        return np.sin(k + 0.5 * which)

    spectra = find_roots_real_family(f, 2, 10.0, 0.1)
    assert [[r.order for r in s.roots] for s in spectra] == [[1, 1, 1], [1, 1, 1]]
    assert shapes[0] == ((2, 1), (100,))  # the grid of both members in one call
    rounds = shapes[1:-1]
    assert rounds[0] == ((6,), (6,))  # the first refinement round moves all six brackets
    assert all(len(w) == 1 and w == k for w, k in rounds)  # every round on 1-D arrays, no scalar call
    assert shapes[-1] == ((6, 1), (6, 65))  # one order pass over both members' roots
    for member, s in enumerate(spectra):
        alone = find_roots_real(lambda k: np.sin(k + 0.5 * member), 10.0, 0.1)
        assert [(r.k, r.order) for r in s.roots] == [(r.k, r.order) for r in alone.roots]
        assert s.meta == alone.meta


def _one_circle(fn, center, radius, samples):
    """Zero count and zero sum inside one circle, from one 1-D call of `fn`:
    the argument principle as it was computed before circles were batched."""
    zs = center + radius * np.exp(1j * np.linspace(0.0, 2 * math.pi, samples + 1))
    vals = fn(zs)
    dlog = np.diff(np.log(np.abs(vals)) + 1j * np.angle(vals))
    dlog = dlog.real + 1j * ((dlog.imag + math.pi) % (2 * math.pi) - math.pi)
    return round(dlog.imag.sum() / (2 * math.pi)), np.sum(0.5 * (zs[:-1] + zs[1:]) * dlog) / (2j * math.pi)


def test_batched_contour_equals_one_circle_at_a_time():
    triple = all_quotient_specs(3, 4, L1, 1.0)[0]  # the (0,0) factor: a root of order 3 at 2 pi
    fns = [
        lambda z: quotient_secular_closed(triple, z),
        lambda z: np.sin(z) * (z - 2.0) ** 2,
    ]
    centers = [math.pi, 0.3, 2.0, 2.05, 2 * math.pi, 3 * math.pi, 7.8]
    radii = [0.0025, 0.1, 0.5, 0.01, 0.05, 0.3, 1.2]
    seen = set()
    for samples in (64, 128):
        for fn in fns:
            counts, zsums, through = _contour(lambda which, z: fn(z), 0, centers, radii, samples)
            want = [_one_circle(fn, c, r, samples) for c, r in zip(centers, radii)]
            assert counts.tolist() == [n for n, _ in want] and not through.any()
            assert max(abs(z - w) for z, (_, w) in zip(zsums, want)) <= 1e-13
            seen.update(counts.tolist())
        # both functions in one pass, `which` picking the function of each circle
        which = np.arange(2 * len(centers)) % 2
        both = lambda which, z: np.where(which == 0, fns[0](z), fns[1](z))
        counts, zsums, _ = _contour(both, which, np.repeat(centers, 2), np.repeat(radii, 2), samples)
        for w, fn in enumerate(fns):
            alone = _contour(lambda which, z: fn(z), 0, centers, radii, samples)
            assert counts[w::2].tolist() == alone[0].tolist() and np.array_equal(zsums[w::2], alone[1])
    assert {0, 1, 2, 3} <= seen

    calls = []
    counts, zsums, through = _contour(lambda which, z: calls.append(z.shape) or np.sin(z), 0, [], [], 64)
    assert calls == [] and counts.shape == zsums.shape == through.shape == (0,)

    # the first point of a circle is centre + radius: 0.5 + 0.5 is the zero 1
    counts, _, through = _contour(lambda which, z: z - 1.0, 0, [3.0, 0.5, 7.0], [0.1, 0.5, 0.1], 64)
    assert through.tolist() == [False, True, False] and counts[[0, 2]].tolist() == [0, 0]
    with pytest.raises(GridTooCoarse, match=r"winding circle at 0\.5 passes through a zero"):
        winding_number(lambda z: z - 1.0, 0.5, 0.5)


def _one_system_count(sys_, k):
    """N(k) of one system from its own eigvals calls at K_MIN and at k, as the
    certificate counted each system before the systems were stacked."""

    def phase_total(x):
        phases = np.angle(np.linalg.eigvals(sys_.S * np.exp(1j * x * sys_.lengths))) - PHASE_EPS
        return phases.sum() + 2 * math.pi * (phases < 0.0).sum()

    l_total = sys_.lengths.sum()
    return round((phase_total(K_MIN) - K_MIN * l_total + k * l_total - phase_total(k)) / (2 * math.pi))


def _distinct_factor_systems(n1, n2, l3):
    first = {}
    for spec in all_quotient_specs(n1, n2, L1, l3):
        first.setdefault(_group_key(spec), spec)
    return [quotient_system(spec) for spec in first.values()]


def test_stacked_certificate_equals_one_system_at_a_time():
    g, action = torus_action(3, 4, 1.0, L1)
    blocks = list(character_blocks(g, standard_conditions(g), action).values())
    groups = [
        _distinct_factor_systems(3, 4, 1.0),
        _distinct_factor_systems(4, 6, 0.61),  # not coprime
        blocks,
    ]
    assert [len(systems) for systems in groups] == [6, 12, 12]
    mixed = [sys_ for systems in groups for sys_ in systems]
    for k in (0.5, 2.0, 4.0, 7.3, 10.0):
        want = [_one_system_count(sys_, k) for sys_ in mixed]
        assert UnitaryFamily(mixed).counts(k) == want
        for systems in groups:
            assert UnitaryFamily(systems).counts(k) == [_one_system_count(sys_, k) for sys_ in systems]
    assert sum(UnitaryFamily(mixed).counts(10.0)) > 0
    lossy = SecularSystem(1.1 * blocks[0].S, blocks[0].lengths)
    with pytest.raises(NonUnitaryScattering):
        UnitaryFamily(blocks[:3] + [lossy]).counts(5.0)


def test_a_grid_in_parts_computes_its_sines_once_per_part(tmp_path, monkeypatch):
    # a grid of more than MAX_BATCH_BYTES // 8 = 4096 points goes one member
    # at a time in parts; the family keeps every part's sines, so each part
    # computes them once, not once per member
    sines, shapes = quotient._sines, []
    monkeypatch.setattr(quotient, "_sines", lambda l1, l3, k: shapes.append(np.shape(k)) or sines(l1, l3, k))
    out = str(tmp_path / "factors.csv")
    res = CliRunner().invoke(main, [
        "factors", "--n1", "3", "--n2", "4", "--l1", repr(L1), "--l3", "1.0", "--kmax", "30", "-o", out,
    ])
    assert res.exit_code == 0, res.output
    assert int(load_spectrum(out).meta["factors"]) > 1
    assert shapes.count((4096,)) == shapes.count((1904,)) == 1


def test_factors_call_budget(tmp_path, monkeypatch):
    # one call of the dispersion forms of all 256 labels at the three probe
    # points groups them; the 81 distinct factors are one family: the grid
    # goes in chunks of members, each refinement round is one call, and each
    # contour pass one call per chunk of circles; the certificate counts
    # each distinct factor at K_MIN and at k_max, in stacks of at most
    # MAX_BATCH_BYTES, from one stacked assembly of their systems; the
    # grid's three sines are computed once, not once per chunk of members
    real, eigvals = QuotientFamily.dispersion_real, np.linalg.eigvals
    sines = quotient._sines
    real_shapes, eigvals_shapes, sines_shapes = [], [], []
    monkeypatch.setattr(quotient, "_sines", lambda l1, l3, k: sines_shapes.append(np.shape(k)) or sines(l1, l3, k))

    def one_at_a_time(*args, **kwargs):
        raise AssertionError("factors assembles its systems in one stack")

    monkeypatch.setattr(quotient, "quotient_system", one_at_a_time)
    monkeypatch.setattr(
        QuotientFamily, "dispersion_real",
        lambda self, which, k: real_shapes.append(np.broadcast_shapes(np.shape(which), np.shape(k))) or real(self, which, k),
    )
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals_shapes.append(np.shape(a)) or eigvals(a))
    s = _run_factors(tmp_path, 16, 16, 0.7101)
    distinct = int(s.meta["factors"])
    assert distinct == 81
    circles = [shape for shape in real_shapes if len(shape) == 2 and shape[1] in (65, 129)]
    assert 0 < len(real_shapes) - 1 - len(circles) <= 100  # the grid chunks, refinement rounds and dips
    assert all(len(shape) >= 1 for shape in real_shapes)  # no call on a scalar float
    assert real_shapes[0] == (3 * 256,)  # the probes
    grid = [shape for shape in real_shapes if len(shape) == 2 and shape[1] not in (65, 129)]
    assert 0 < len(circles) <= 39
    assert sum(math.prod(shape) for shape in grid) == distinct * 2000  # the grid of 0.005 to 10, each member once
    assert len(grid) > 1 and sines_shapes.count((2000,)) == 1
    assert all(math.prod(shape) * 16 <= MAX_BATCH_BYTES for shape in eigvals_shapes)
    assert sum(math.prod(shape[:-2]) for shape in eigvals_shapes) == 2 * distinct
    assert int(s.meta["eigenphase_count"]) == int(s.meta["root_count"])
