"""The closed forms on arrays and as one family evaluator, `factors` run once
per distinct closed form, and the array calls of its real locator, its
refinement rounds and stacked certificate; `winding_number` on one circle."""

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
    cli,
    merge_spectra,
    quotient,
    quotient_dispersion_real,
    quotient_secular_closed,
    quotient_system,
    scattering,
    standard_conditions,
    torus_action,
)
from qgsym.cli import main
from qgsym.errors import GridTooCoarse, NonPositiveLength, NonUnitaryScattering
from qgsym.io import load_spectrum
from qgsym.locators import K_MIN, PHASE_EPS, UnitaryFamily, _eigenphase_steps
from qgsym.quotient import QuotientSpec
from qgsym.spectra import MAX_BATCH_BYTES, Spectrum, isospectral_classes, winding_number

L1 = 0.5
L3_BAND = 0.713616028647381  # an incommensurate L3 near 1/sqrt(2), as the 16x16 benchmark draws


def _group_key(spec):
    return (min(spec.s, spec.n1 - spec.s), min(spec.t, spec.n2 - spec.t))


def _labels(n1, n2):
    """Every label (s, t) of the n1 x n2 torus, in the order of `all_quotient_specs`."""
    return np.indices((n1, n2)).reshape(2, -1).T


def _run_factors(tmp_path, n1, n2, l3):
    out = str(tmp_path / f"factors-{n1}x{n2}.csv")
    flags = ["--n1", str(n1), "--n2", str(n2), "--l1", repr(L1), "--l3", repr(l3)]
    res = CliRunner().invoke(main, ["factors", *flags, "-o", out])
    assert res.exit_code == 0, res.output
    return load_spectrum(out)


@pytest.mark.parametrize("fn", [quotient_dispersion_real, quotient_secular_closed], ids=["dispersion", "closed"])
def test_closed_forms_on_arrays_equal_scalar_calls_bit_for_bit(fn):
    # one factor on scalars and arrays, real points or circles
    ks = np.linspace(0.005, 10.0, 401)
    zs = 3.1 + 0.0025 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 65))
    for specs in (all_quotient_specs(3, 4, L1, 1.0), all_quotient_specs(16, 16, L1, L3_BAND)[::37]):
        for spec in specs:
            real = fn(spec, ks)
            assert isinstance(real, np.ndarray) and real.shape == ks.shape
            assert np.array_equal(real, [fn(spec, float(k)) for k in ks])
            assert np.array_equal(fn(spec, zs), [fn(spec, complex(z)) for z in zs])
    assert isinstance(fn(spec, 1.3), float if fn is quotient_dispersion_real else complex)
    assert isinstance(fn(spec, 1.3 + 0.1j), complex)
    with pytest.raises(NonPositiveLength, match="l3 = -1.0"):  # a family checks its lengths once
        QuotientFamily(3, 4, L1, -1.0, _labels(3, 4))


def test_family_coefficients_are_computed_once_per_label(monkeypatch):
    # alpha and tau1 depend on t alone, and beta and tau3 on s alone, so the
    # 256 factors of 16x16 take 16 phases of each order, not two per factor,
    # and every coefficient and phase equals its factor's own bit for bit
    specs = all_quotient_specs(16, 16, L1, L3_BAND)
    want = np.array([spec.coefficients for spec in specs]).T
    phases = np.array([(sp.phase_l1, 1.0 / sp.phase_l1, sp.phase_l3, 1.0 / sp.phase_l3) for sp in specs])
    value, calls = quotient.irrep_value, []
    monkeypatch.setattr(quotient, "irrep_value", lambda *args: calls.append(args) or value(*args))
    family = QuotientFamily(16, 16, L1, L3_BAND, _labels(16, 16))
    assert len(calls) == 16 + 16
    assert family.alpha.tobytes() == want[0].tobytes() and family.beta.tobytes() == want[1].tobytes()
    assert family.phases.tobytes() == phases.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    n1=st.integers(1, 8),
    n2=st.integers(1, 8),
    lengths=st.one_of(
        st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda qp: (qp[0] / 8, qp[1] / 8)),
        st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0)),
    ),
)
@example(n1=3, n2=4, lengths=(0.5, 1.0))  # both sines vanish at multiples of pi
def test_pole_form_slope_and_residues(n1, n2, lengths):
    # G' equals the central difference of G away from the poles, and at 0
    # and each zero of a sine the residue of `residue_at_zero` and
    # `sine_zeros` is the limit of (k - k0) G(k): 0 where G has no pole
    family, rows = QuotientFamily(n1, n2, *lengths, _labels(n1, n2)), np.arange(n1 * n2)[:, None]
    l1, l2 = family.lengths
    ks = np.linspace(0.05, 6.0, 400)
    ks = ks[(np.abs(np.sin(ks * l1)) > 0.2) & (np.abs(np.sin(ks * l2)) > 0.2)]
    g, slope = np.moveaxis(family.pole_form(rows, ks), -1, 0)
    h = 1e-6
    diff = (family.pole_form(rows, ks + h)[..., 0] - family.pole_form(rows, ks - h)[..., 0]) / (2 * h)
    assert np.all(slope < 0.0)
    assert np.allclose(slope, diff, rtol=1e-6, atol=1e-6)
    zeros, residues, _, _ = family.sine_zeros(6.0)
    assert np.all(residues >= 0.0)
    assert np.allclose(1e-8 * family.pole_form(rows[:, 0], 1e-8)[..., 0], family.residue_at_zero, rtol=0, atol=1e-5)
    apart = np.diff(zeros, prepend=0.0, append=np.inf)
    alone = np.minimum(apart[:-1], apart[1:]) > 1e-2  # the other poles add h r' / (their distance)
    for h in (1e-8, -1e-8):
        near = h * family.pole_form(rows, zeros[alone] + h)[..., 0]
        assert np.allclose(near, residues[:, alone], rtol=0, atol=1e-5)


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
    by_closed = isospectral_classes(_one_at_a_time(quotient_secular_closed, specs), len(specs), (L1, l3), 16)
    by_dispersion = _probe_classes(specs)
    assert by_dispersion.tolist() == by_closed.tolist()
    if n1 == n2 >= 2 and l3 == L1:
        assert len(set(by_closed.tolist())) < len({_group_key(spec) for spec in specs})


def _one_at_a_time(fn, specs):
    """`fn` of `specs` as a family evaluator, one scalar call per point."""
    return lambda which, z: np.array([fn(specs[w], x) for w, x in zip(which.tolist(), z.tolist())])


def _probe_classes(specs):
    """The classes of `isospectral_classes` over the dispersion forms of the factors `specs` of one torus."""
    lengths = specs[0].l1, specs[0].l3
    return isospectral_classes(_one_at_a_time(quotient_dispersion_real, specs), len(specs), lengths, 16)


@settings(max_examples=60, deadline=None)
@given(
    n1=st.integers(1, 16),
    n2=st.integers(1, 16),
    lengths=st.one_of(
        st.floats(0.2, 1.5).map(lambda x: (x, x)),  # L1 = L3
        st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda qp: (qp[0] / 8, qp[1] / 8)),
        st.tuples(st.floats(0.2, 1.5), st.floats(0.2, 1.5)).filter(lambda ls: abs(ls[0] - ls[1]) > 1e-3),
    ),
)
@example(n1=30, n2=20, lengths=(0.5, 0.5))  # keys rounded to 12 digits split two sums 1.1e-15 apart here
@example(n1=4, n2=8, lengths=(0.5, 0.5))  # 11 classes: more merge than the reflections and the swap
@example(n1=16, n2=16, lengths=(L1, L3_BAND))
def test_coefficient_classes_equal_the_probe_classes(n1, n2, lengths):
    # two labels share F exactly when they share (alpha, beta), or
    # alpha + beta at L1 = L3: the gaps of the sorted keys give the same
    # first member of every class as the probes of the dispersion forms
    family = QuotientFamily(n1, n2, *lengths, _labels(n1, n2))
    assert family.classes().tolist() == _probe_classes(all_quotient_specs(n1, n2, *lengths)).tolist()
    if (n1, n2, lengths) == (4, 8, (0.5, 0.5)):
        assert len(set(family.classes().tolist())) == 11


@pytest.mark.parametrize(
    "n1, n2, l1, l3, kmax",
    [(6, 6, L1, L1, 10.0), (4, 8, L1, L1, 10.0), (1, 2, L1, 0.61, 3.1415926535898033)],
    ids=["6x6-equal-lengths", "4x8-equal-lengths", "1x2-one-fallback"],
)
def test_factors_rows_equal_the_probe_and_template_path(tmp_path, n1, n2, l1, l3, kmax):
    # `factors` takes its classes from the coefficients; the path it
    # replaced, rebuilt here (probe classes, then the real locator, whose
    # closed-form certificate systems are the template graph's 8x8 systems
    # contracted bit for bit), writes the same rows, orders, sources and
    # headers
    specs = all_quotient_specs(n1, n2, l1, l3)
    labels = [(spec.s, spec.t) for spec in specs]
    first = _probe_classes(specs)
    distinct, runs = np.unique(first, return_inverse=True)
    family = QuotientFamily(n1, n2, l1, l3, [labels[i] for i in distinct])
    found = find_roots_real(family, kmax)
    want = merge_spectra(found, runs, [f"({s},{t})" for s, t in labels], tol=1e-7)
    out = str(tmp_path / "factors.csv")
    flags = ["--n1", str(n1), "--n2", str(n2), "--l1", repr(l1), "--l3", repr(l3), "--kmax", repr(kmax)]
    res = CliRunner().invoke(main, ["factors", *flags, "-o", out])
    assert res.exit_code == 0, res.output
    got = load_spectrum(out)
    assert got.k.tobytes() == want.k.tobytes()
    assert (got.order.tolist(), got.source) == (want.order.tolist(), want.source)
    assert int(got.meta["factors"]) == found.members
    assert int(got.meta["fallbacks"]) == found.meta["fallback"].sum() == (n1 == 1)
    assert int(got.meta["eigenphase_count"]) == found.meta["eigenphase_count"][runs].sum()


@pytest.mark.parametrize("n1, n2, l3", [(3, 4, 1.0), (4, 6, 0.61), (4, 4, L1)])
def test_grouped_factors_equal_a_per_label_run(tmp_path, n1, n2, l3):
    # at L1 = L3 the 4x4 torus is symmetric under swapping its cycles, and
    # (s, t) shares its closed form with (t, s) too
    grouped = _run_factors(tmp_path, n1, n2, l3)
    specs = all_quotient_specs(n1, n2, L1, l3)
    labels = [(spec.s, spec.t) for spec in specs]
    found = find_roots_real(QuotientFamily(n1, n2, L1, l3, labels), 10.0)
    per_label = merge_spectra(found, np.arange(len(specs)), [f"({s},{t})" for s, t in labels], tol=1e-7)
    assert len(grouped.k) == len(per_label.k)
    assert np.abs(grouped.k - per_label.k).max(initial=0.0) <= 1e-12
    assert (grouped.order.tolist(), grouped.source) == (per_label.order.tolist(), per_label.source)


@pytest.mark.parametrize("n1, n2, l3, distinct", [(3, 4, 1.0, 6), (16, 16, L3_BAND, 81), (4, 4, L1, 5)])
def test_factors_header_certifies_the_root_count(tmp_path, n1, n2, l3, distinct):
    # 3x4 at L3 = 1 has triple roots; the certificate counts them with order,
    # and the order rule at the sine zeros finds them, so no factor falls
    # back, nor at L1 = L3 or at generic lengths
    s = _run_factors(tmp_path, n1, n2, l3)
    assert int(s.meta["factors"]) == distinct
    assert int(s.meta["fallbacks"]) == 0
    assert int(s.meta["eigenphase_count"]) == int(s.meta["root_count"]) == s.count()
    assert float(s.meta["tol"]) == 1e-10 and "grid_step" not in s.meta
    if l3 == 1.0:
        assert s.order.max() >= 3


def test_factors_header_reports_the_refinement_rounds(tmp_path):
    # the 518 brackets of the 81 distinct 16x16 factors, each from one pole
    # of G to the next, start at the root of their poles' terms and take
    # Newton steps on G under the ITP bound: they close in at most 10
    # rounds and 2700 evaluations (8 and 2644 measured; 10 and 2665 with
    # the Newton proposals in the count core, 15 and 4217 from the midpoints)
    s = _run_factors(tmp_path, 16, 16, 0.7017025651372872)
    assert int(s.meta["fallbacks"]) == 0
    assert 1 <= int(s.meta["rounds"]) <= 10
    assert int(s.meta["evaluations"]) <= 2700


@settings(max_examples=30, deadline=None)
@given(
    n1=st.integers(1, 4),
    n2=st.integers(1, 6),
    lengths=st.one_of(
        st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda qp: (qp[0] / 8, qp[1] / 8)),
        st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0)),
    ),
)
@example(n1=3, n2=4, lengths=(0.5, 1.0))  # triple roots at multiples of pi
@example(n1=3, n2=4, lengths=(0.25, 1.0))  # double roots too
@example(n1=4, n2=6, lengths=(0.375, 0.625))
@example(n1=4, n2=4, lengths=(0.5, 0.5))
@example(n1=4, n2=6, lengths=(0.5, 0.61))
@example(n1=1, n2=1, lengths=(1.0, 1 / 3))  # 3 to 1 in reals, not in floats: each sine gives the zeros at 3 pi
@example(n1=3, n2=1, lengths=(1.0, 1 / 3))
def test_pole_rule_equals_the_unitary_locator_factor_by_factor(n1, n2, lengths):
    # L3 / L1 = p / q with p, q <= 5 on dyadic lengths, where the sines share
    # zeros and orders above 1 occur, and generic lengths: every distinct
    # factor's roots from its poles and sine zeros, with no fallback, equal
    # the eigenphase roots of its quotient system, orders included
    l1, l3 = lengths
    first = {}
    for spec in all_quotient_specs(n1, n2, l1, l3):
        first.setdefault(_group_key(spec), spec)
    specs = list(first.values())
    family = QuotientFamily(n1, n2, l1, l3, [(spec.s, spec.t) for spec in specs])
    systems = UnitaryFamily([quotient_system(spec) for spec in specs])
    found, exact = find_roots_real(family, 10.0), systems.roots(10.0)
    for m, spec in enumerate(specs):
        got, want = found.spectrum(m), exact.spectrum(m)
        assert not got.meta["fallback"], (spec.s, spec.t)
        assert got.order.tolist() == want.order.tolist(), (spec.s, spec.t)
        assert np.abs(got.k - want.k).max(initial=0.0) <= 1e-9
    if (n1, n2, l1, l3) == (3, 4, 0.25, 1.0):
        assert set(exact.order.tolist()) == {1, 2, 3}


def test_a_factor_that_falls_back_reports_the_rounds_of_both_locators():
    # the (0,1) factor of 1x2 at L1 = 0.5 has a root at the float pi, a zero
    # of sin 2kL1, which the eigenphase count at k_max = pi + 1e-14 does
    # not hold (FOUND in CHANGES.md), so it is solved on its system straight
    # after its count: the real locator adds its one evaluation of G at
    # k_max and no refinement round
    spec, k_max = QuotientSpec(1, 2, L1, 0.61, 0, 1), 3.1415926535898033
    family, calls = QuotientFamily(1, 2, L1, 0.61, [(0, 1)]), []
    form = family.pole_form
    family.pole_form = lambda which, k: calls.append(np.shape(k)) or form(which, k)
    systems = UnitaryFamily([quotient_system(spec)])
    got, exact = find_roots_real(family, k_max).spectrum(0), systems.roots(k_max).spectrum(0)
    assert calls == [(1,)]
    assert got.meta["fallback"] and got == exact
    assert got.meta["rounds"] == exact.meta["rounds"]
    assert got.meta["evaluations"] == 1 + exact.meta["evaluations"]


def test_factors_that_fall_back_take_no_real_refinement_rounds(tmp_path):
    # the two 3x4 factors with triple roots at L3 = 1 take their orders from
    # the sine zeros, so none is solved by the unitary locator, and the
    # header's rounds are those of the brackets of G; the rows equal
    # `spectrum` of the product document
    flags = ["--n1", "3", "--n2", "4", "--l1", repr(L1), "--l3", "1.0", "--kmax", "15"]
    doc, full, parts = (str(tmp_path / name) for name in ("torus.json", "full.csv", "factors.csv"))
    runner = CliRunner()
    assert runner.invoke(main, ["build", "product", *flags[:-2], "-o", doc]).exit_code == 0
    for args in (["spectrum", doc, *flags[-2:], "-o", full], ["factors", *flags, "-o", parts]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    want, got = load_spectrum(full), load_spectrum(parts)
    assert (int(got.meta["fallbacks"]), int(got.meta["factors"])) == (0, 6)
    assert 1 <= int(got.meta["rounds"]) <= 8  # 7 measured
    assert int(got.meta["root_count"]) == int(got.meta["eigenphase_count"]) == want.count()
    assert got.order.tolist() == want.order.tolist()
    assert np.abs(got.k - want.k).max() <= 1e-9


def _one_circle(fn, center, radius, samples):
    """Zero count inside one circle, from one 1-D call of `fn`: the change
    of log f along `samples` chords, over 2 pi i."""
    zs = center + radius * np.exp(1j * np.linspace(0.0, 2 * math.pi, samples + 1))
    vals = fn(zs)
    dlog = np.diff(np.log(np.abs(vals)) + 1j * np.angle(vals))
    dlog = dlog.real + 1j * ((dlog.imag + math.pi) % (2 * math.pi) - math.pi)
    return round(dlog.imag.sum() / (2 * math.pi))


def test_winding_number_equals_one_circle_at_a_time():
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
            counts = [winding_number(fn, c, r, samples) for c, r in zip(centers, radii)]
            assert counts == [_one_circle(fn, c, r, samples) for c, r in zip(centers, radii)]
            seen.update(counts)
    assert {0, 1, 2, 3} <= seen

    # the first point of a circle is centre + radius: 0.5 + 0.5 is the zero 1
    assert [winding_number(lambda z: z - 1.0, c, r) for c, r in ((3.0, 0.1), (7.0, 0.1))] == [0, 0]
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


@pytest.mark.parametrize(
    "n1, n2, l1, l3",
    [
        (16, 16, L1, 0.7017025651372872), (3, 4, L1, 1.0), (5, 7, L1, 0.7017025651372872), (1, 1, 1.5, 0.5),
        (1, 2, L1, 0.61), (6, 6, L1, L1), (4, 8, L1, L1), (12, 8, L1, L1),
    ],
    ids=["16x16", "3x4", "5x7", "1x1-ratio-3", "1x2", "6x6-equal", "4x8-equal", "12x8-equal"],
)
def test_certificate_equals_one_system_at_a_time_around_every_sine_zero(n1, n2, l1, l3):
    # the certificate's eigenphases come from eigh, one system's here from
    # eigvals: their counts agree at K_MIN and where an eigenvalue sits at
    # or next to 1, with its multiplicity: on every sine zero to k_max 10,
    # 1 ulp and 1e-9 to either side of it
    labels = _labels(n1, n2)
    family = QuotientFamily(n1, n2, l1, l3, labels[np.unique(QuotientFamily(n1, n2, l1, l3, labels).classes())])
    stack = family.bouquets()
    systems = [SecularSystem(S, lengths) for S, lengths in zip(*stack[1:])]
    certificate = UnitaryFamily(stacks=[stack])
    zeros = family.sine_zeros(10.0)[0].tolist()
    ks = [K_MIN] + [x for z in zeros for x in (z, math.nextafter(z, 0), math.nextafter(z, math.inf), z - 1e-9, z + 1e-9)]
    for k in ks:
        assert certificate.counts(k) == [_one_system_count(sys_, k) for sys_ in systems], k
    assert len(zeros) >= 3


@pytest.mark.parametrize("systems", ["16x16-bouquets", "3x4-blocks"])
def test_certificate_counts_are_the_levels_of_the_step_evaluator(systems):
    # `counts` places the levels of `_eigenphase_steps` on the grid K_MIN, k
    # of each stack among the stack's members, in the members' order: the
    # closed-form systems of the 81 distinct 16x16 factors, and the
    # contracted blocks of the 3x4 document
    if systems == "16x16-bouquets":
        labels = _labels(16, 16)
        distinct = np.unique(QuotientFamily(16, 16, L1, L3_BAND, labels).classes())
        family = UnitaryFamily(stacks=[QuotientFamily(16, 16, L1, L3_BAND, labels[distinct]).bouquets()])
    else:
        g, action = torus_action(3, 4, 1.0, L1)
        family = UnitaryFamily(list(character_blocks(g, standard_conditions(g), action).values()))
    for k in (0.5, 4.0, 10.0):
        got = family.counts(k)
        for members, S, lengths in family.stacks:
            grid, at = np.tile([K_MIN, k], len(S)), np.repeat(np.arange(len(S)), 2)
            levels = _eigenphase_steps(S, lengths, at, grid)[1][1::2]
            assert [got[m] for m in members.tolist()] == levels.astype(int).tolist()
    assert sum(got) > 0


def _with_slope(values, k):
    """`values` of `QuotientFamily.pole_form` at `k`, checked to hold G and G' per point."""
    assert np.shape(values) == (*np.shape(k), 2)
    return values


def test_factors_call_budget(tmp_path, monkeypatch):
    # the coefficients of all 256 labels group them, with no call of the
    # dispersion forms; the 81 distinct factors are one family: G and G'
    # at k_max of every factor is one call, each refinement round is one
    # call on 1-D arrays, and no call is made on circles; the certificate counts
    # each distinct factor at K_MIN and at k_max, in stacks of at most
    # MAX_BATCH_BYTES, from their closed-form systems, with no graph
    # assembled (no quotient system, no scattering rows), and no factor
    # falls back; a constant number of spectra is built, whatever the
    # number of factors
    form, eigh = QuotientFamily.pole_form, np.linalg.eigh
    form_shapes, eigh_shapes = [], []

    def refused(*args, **kwargs):
        raise AssertionError("factors takes its classes from the coefficients and its systems in closed form")

    monkeypatch.setattr(quotient, "quotient_system", refused)
    monkeypatch.setattr(scattering, "_scattering_rows", refused)
    monkeypatch.setattr(cli, "isospectral_classes", refused)
    monkeypatch.setattr(
        QuotientFamily, "pole_form",
        lambda self, which, k: form_shapes.append((np.shape(which), np.shape(k), np.asarray(k).dtype.kind))
        or _with_slope(form(self, which, k), k),
    )
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_shapes.append(np.shape(a)) or eigh(a))
    spectra, post_init = [], Spectrum.__post_init__
    monkeypatch.setattr(Spectrum, "__post_init__", lambda self: spectra.append(len(self.k)) or post_init(self))
    s = _run_factors(tmp_path, 16, 16, 0.7101)
    distinct = int(s.meta["factors"])
    assert distinct == 81 and int(s.meta["fallbacks"]) == 0
    assert form_shapes[0] == ((distinct,), (distinct,), "f")  # G at k_max
    rounds = form_shapes[1:]
    assert len(rounds) == int(s.meta["rounds"]) <= 10  # 8 measured
    assert all(len(w) == 1 and w == k and kind == "f" for w, k, kind in rounds)  # 1-D and real, no circle
    assert int(s.meta["evaluations"]) == sum(math.prod(k) for _, k, _ in form_shapes) <= 2700  # 2651 measured
    assert all(math.prod(shape) * 16 <= MAX_BATCH_BYTES for shape in eigh_shapes)
    assert sum(math.prod(shape[:-2]) for shape in eigh_shapes) == 2 * distinct
    assert int(s.meta["eigenphase_count"]) == int(s.meta["root_count"])
    # the factors' roots stay arrays from the locator to the file: one merged
    # spectrum, the one written and the one read back, at 81 factors as at
    # 289, with no object per factor or label
    at_16x16 = len(spectra)
    spectra.clear()
    assert int(_run_factors(tmp_path, 32, 32, 0.7101).meta["factors"]) == 289
    assert len(spectra) == at_16x16 == 3
