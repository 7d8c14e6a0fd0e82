"""The closed forms on arrays, and `factors` run once per distinct closed form."""

import numpy as np
import pytest
from click.testing import CliRunner

from qgsym import (
    all_quotient_specs,
    find_roots_real,
    merge_spectra,
    quotient_dispersion_real,
    quotient_secular_closed,
)
from qgsym.cli import main
from qgsym.io import load_spectrum

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
    ks = np.linspace(0.005, 10.0, 401)
    zs = 3.1 + 0.0025 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 65))
    for spec in all_quotient_specs(3, 4, L1, 1.0) + all_quotient_specs(16, 16, L1, L3_BAND)[::37]:
        real = fn(spec, ks)
        assert isinstance(real, np.ndarray) and real.shape == ks.shape
        assert np.array_equal(real, [fn(spec, float(k)) for k in ks])
        assert np.array_equal(fn(spec, zs), [fn(spec, complex(z)) for z in zs])
    assert isinstance(fn(spec, 1.3), float if fn is quotient_dispersion_real else complex)
    assert isinstance(fn(spec, 1.3 + 0.1j), complex)


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


@pytest.mark.parametrize("n1, n2, l3", [(3, 4, 1.0), (4, 6, 0.61)])
def test_grouped_factors_equal_a_per_label_run(tmp_path, n1, n2, l3):
    grouped = _run_factors(tmp_path, n1, n2, l3)
    per_label = merge_spectra(
        [
            find_roots_real(
                lambda k: quotient_dispersion_real(spec, k), 10.0, 0.005,
                complex_fn=lambda z: quotient_secular_closed(spec, z), source=f"({spec.s},{spec.t})",
            )
            for spec in all_quotient_specs(n1, n2, L1, l3)
        ],
        tol=1e-7,
    )
    assert len(grouped.roots) == len(per_label.roots)
    for g, p in zip(grouped.roots, per_label.roots):
        assert abs(g.k - p.k) <= 1e-12
        assert (g.order, g.source) == (p.order, p.source)


@pytest.mark.parametrize("n1, n2, l3, distinct", [(3, 4, 1.0, 6), (16, 16, L3_BAND, 81)])
def test_factors_header_certifies_the_root_count(tmp_path, n1, n2, l3, distinct):
    # 3x4 at L3 = 1 has triple roots; the certificate counts them with order
    s = _run_factors(tmp_path, n1, n2, l3)
    assert int(s.meta["factors"]) == distinct
    assert int(s.meta["eigenphase_count"]) == int(s.meta["root_count"]) == s.count()
    assert float(s.meta["grid_step"]) == 0.005 and float(s.meta["tol"]) == 1e-10
    if l3 == 1.0:
        assert max(r.order for r in s.roots) >= 3


def test_find_roots_real_evaluates_grid_and_circles_in_one_call_each():
    shapes = {"f": [], "complex_fn": []}

    def f(k):
        shapes["f"].append(np.shape(k))
        return np.sin(k)

    def cf(z):
        shapes["complex_fn"].append(np.shape(z))
        return np.sin(z)

    s = find_roots_real(f, 10.0, 0.1, complex_fn=cf)
    assert [r.order for r in s.roots] == [1, 1, 1]
    assert shapes["f"][0] == (100,)
    assert all(shape == () for shape in shapes["f"][1:])  # bisection steps
    assert shapes["complex_fn"] == [(65,)] * 3  # one winding circle per root
