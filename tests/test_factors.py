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
    merge_spectra,
    quotient,
    quotient_dispersion_real,
    quotient_secular_closed,
    quotient_system,
    quotient_systems,
    standard_conditions,
    torus_action,
)
from qgsym.cli import main
from qgsym.errors import GridTooCoarse, NonUnitaryScattering
from qgsym.io import load_spectrum
from qgsym.locators import K_MIN, PHASE_EPS, UnitaryFamily
from qgsym.quotient import QuotientSpec
from qgsym.spectra import MAX_BATCH_BYTES, isospectral_classes, winding_number

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
    # family evaluator that `factors` builds: a (members, 1) column against
    # real points or circles, 1-D arrays of mixed members, and scalars
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
            find_roots_real(
                QuotientFamily([spec]), UnitaryFamily([quotient_system(spec)]), 10.0, source=f"({spec.s},{spec.t})"
            )[0]
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
    # 3x4 at L3 = 1 has triple roots; the certificate counts them with order,
    # and the order rule at the sine zeros finds them, so no factor falls
    # back, nor at L1 = L3 or at generic lengths
    s = _run_factors(tmp_path, n1, n2, l3)
    assert int(s.meta["factors"]) == distinct
    assert int(s.meta["fallbacks"]) == 0
    assert int(s.meta["eigenphase_count"]) == int(s.meta["root_count"]) == s.count()
    assert float(s.meta["tol"]) == 1e-10 and "grid_step" not in s.meta
    if l3 == 1.0:
        assert max(r.order for r in s.roots) >= 3


def test_factors_header_reports_the_refinement_rounds(tmp_path):
    # the 518 brackets of the 81 distinct 16x16 factors, each from one pole
    # of G to the next, close in at most 16 rounds (15 measured)
    s = _run_factors(tmp_path, 16, 16, 0.7017025651372872)
    assert int(s.meta["fallbacks"]) == 0
    assert 1 <= int(s.meta["rounds"]) <= 16


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
    systems = UnitaryFamily(quotient_systems(specs))
    for spec, got, want in zip(specs, find_roots_real(QuotientFamily(specs), systems, 10.0), systems.roots(10.0)):
        assert not got.meta["fallback"], (spec.s, spec.t)
        assert [r.order for r in got.roots] == [r.order for r in want.roots], (spec.s, spec.t)
        assert max((abs(a.k - b.k) for a, b in zip(got.roots, want.roots)), default=0.0) <= 1e-9
    if (n1, n2, l1, l3) == (3, 4, 0.25, 1.0):
        assert {r.order for s in systems.roots(10.0) for r in s.roots} == {1, 2, 3}


def test_a_factor_that_falls_back_reports_the_rounds_of_both_locators():
    # the (0,1) factor of 1x2 at L1 = 0.5 has a root at the float pi, a zero
    # of sin 2kL1, which the eigenphase count at k_max = pi + 1e-14 does
    # not hold (FOUND in CHANGES.md), so it is solved on its system straight
    # after its count: the real locator adds its one evaluation of G at
    # k_max and no refinement round
    spec, k_max = QuotientSpec(1, 2, L1, 0.61, 0, 1), 3.1415926535898033
    family, calls = QuotientFamily([spec]), []
    form = family.pole_form
    family.pole_form = lambda which, k: calls.append(np.shape(k)) or form(which, k)
    systems = UnitaryFamily([quotient_system(spec)])
    (got,), (exact,) = find_roots_real(family, systems, k_max), systems.roots(k_max, source="")
    assert calls == [(1,)]
    assert got.meta["fallback"] and got.roots == exact.roots
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
    assert 1 <= int(got.meta["rounds"]) <= 12
    assert int(got.meta["root_count"]) == int(got.meta["eigenphase_count"]) == want.count()
    assert [r.order for r in got.roots] == [r.order for r in want.roots]
    assert max(abs(a.k - b.k) for a, b in zip(got.roots, want.roots)) <= 1e-9


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


def test_factors_call_budget(tmp_path, monkeypatch):
    # one call of the dispersion forms of all 256 labels at the three probe
    # points groups them; the 81 distinct factors are one family: G at
    # k_max of every factor is one call, each refinement round is one call
    # on 1-D arrays, and no call is made on circles; the certificate counts
    # each distinct factor at K_MIN and at k_max, in stacks of at most
    # MAX_BATCH_BYTES, from one stacked assembly of their systems, and no
    # factor falls back
    real, form, eigvals = QuotientFamily.dispersion_real, QuotientFamily.pole_form, np.linalg.eigvals
    real_shapes, form_shapes, eigvals_shapes = [], [], []

    def one_at_a_time(*args, **kwargs):
        raise AssertionError("factors assembles its systems in one stack")

    monkeypatch.setattr(quotient, "quotient_system", one_at_a_time)
    monkeypatch.setattr(
        QuotientFamily, "dispersion_real",
        lambda self, which, k: real_shapes.append(np.broadcast_shapes(np.shape(which), np.shape(k))) or real(self, which, k),
    )
    monkeypatch.setattr(
        QuotientFamily, "pole_form",
        lambda self, which, k: form_shapes.append((np.shape(which), np.shape(k), np.asarray(k).dtype.kind))
        or form(self, which, k),
    )
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals_shapes.append(np.shape(a)) or eigvals(a))
    s = _run_factors(tmp_path, 16, 16, 0.7101)
    distinct = int(s.meta["factors"])
    assert distinct == 81 and int(s.meta["fallbacks"]) == 0
    assert real_shapes == [(3 * 256,)]  # the probes
    assert form_shapes[0] == ((distinct,), (distinct,), "f")  # G at k_max
    rounds = form_shapes[1:]
    assert len(rounds) == int(s.meta["rounds"]) <= 16
    assert all(len(w) == 1 and w == k and kind == "f" for w, k, kind in rounds)  # 1-D and real, no circle
    assert int(s.meta["evaluations"]) == sum(math.prod(k) for _, k, _ in form_shapes) < 10_000
    assert all(math.prod(shape) * 16 <= MAX_BATCH_BYTES for shape in eigvals_shapes)
    assert sum(math.prod(shape[:-2]) for shape in eigvals_shapes) == 2 * distinct
    assert int(s.meta["eigenphase_count"]) == int(s.meta["root_count"])
