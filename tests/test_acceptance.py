"""End-to-end acceptance checks for the whole pipeline.

Each test prints a single PASS/FAIL line with the measured figure of merit,
then asserts.  Tolerances are fixed here and are not tuned per run.
"""

import math
import time

import numpy as np
from scipy.stats import qmc

from qgsym import (
    Irrep,
    QuotientFamily,
    QuotientSpec,
    UnitaryFamily,
    all_quotient_specs,
    build_secular_system,
    compare_spectra,
    cycle_graph,
    find_roots_real,
    find_roots_unitary,
    make_graph,
    merge_spectra,
    product_circulant_isomorphism,
    project,
    quasi_periodicity_residual,
    quotient_graph,
    quotient_secular_closed,
    quotient_system,
    random_function,
    secular_det,
    secular_product,
    standard_conditions,
    subdivide_midpoints,
    torus_action,
    torus_secular_system,
)
from qgsym.decompose import l2_inner, l2_norm_sq
from qgsym.groups import irrep_sum

L1, L3 = 0.5, 1.0


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _factor_spectrum(spec, k_max):
    systems = UnitaryFamily([quotient_system(spec)])
    return find_roots_real(QuotientFamily([spec]), systems, k_max, source=f"({spec.s},{spec.t})")[0]


def test_trivial_factor_roots_match_closed_form():
    t0 = time.time()
    spec = QuotientSpec(2, 2, L1, L3, 0, 0)
    got = sorted(_factor_spectrum(spec, 15.0).expanded())
    want = sorted(
        m * base
        for base in (math.pi / L1, math.pi / L3, math.pi / (L1 + L3))
        for m in range(1, 100)
        if m * base <= 15.0
    )
    elapsed = time.time() - t0
    ok = len(got) == len(want)
    worst = max(abs(a - b) for a, b in zip(got, want)) if ok else float("inf")
    ok = ok and worst < 1e-9 and elapsed < 1.0
    _report(
        "trivial factor roots = {m*pi/L1} u {m*pi/L3} u {m*pi/(L1+L3)}",
        ok,
        f"max |dk| = {worst:.2e} over {len(want)} roots, {elapsed:.2f}s",
    )


def test_full_torus_spectrum_equals_union_of_factor_spectra():
    t0 = time.time()
    sys_full = torus_secular_system(3, 4, L1, L3)
    assert sys_full.size == 96
    full = merge_spectra([find_roots_unitary(sys_full, 15.0, source="full")], tol=1e-7)
    parts = [_factor_spectrum(sp, 15.0) for sp in all_quotient_specs(3, 4, L1, L3)]
    merged = merge_spectra(parts, tol=1e-7)
    res = compare_spectra(full, merged, tol=1e-6)
    elapsed = time.time() - t0
    ok = res.isospectral and elapsed < 300.0
    _report(
        "full 96-bond torus spectrum = union of 12 factor spectra",
        ok,
        f"{res.count_a} vs {res.count_b} roots, max pair distance = "
        f"{res.max_distance:.2e}, {elapsed:.1f}s",
    )


def test_determinant_factorizes_with_unit_constant():
    sys_full = torus_secular_system(3, 4, L1, L3)
    k0 = 0.731
    c = secular_det(sys_full, k0) / secular_product(3, 4, L1, L3, k0)
    ks = qmc.Halton(d=1, seed=0).random(220).ravel() * 10.0
    ks = [k for k in ks if k > 1e-6][:200]
    assert len(ks) == 200
    worst = 0.0
    for k in ks:
        full = secular_det(sys_full, k)
        resid = abs(full - c * secular_product(3, 4, L1, L3, k))
        worst = max(worst, resid / max(1.0, abs(full)))
    ok = worst < 1e-8
    c_is_one = abs(c - 1.0) < 1e-10
    _report(
        "det(I - S D(k)) = c * product of factor functions",
        ok,
        f"c = {c:.15g} (|c-1| < 1e-10: {c_is_one}), worst relative residual = "
        f"{worst:.2e} over 200 low-discrepancy k in (0, 10]",
    )
    assert c_is_one


def test_closed_form_equals_matrix_determinant_everywhere():
    ks = np.linspace(20.0 / 1000, 20.0, 1000)
    worst = 0.0
    for spec in all_quotient_specs(3, 4, L1, L3):
        sys = quotient_system(spec)
        for k in ks:
            worst = max(worst, abs(secular_det(sys, k) - quotient_secular_closed(spec, k)))
    ok = worst < 1e-10
    _report(
        "closed-form factor = 8x8 matrix determinant, 12 labels x 1000 k",
        ok,
        f"max |difference| = {worst:.2e}",
    )


def test_bond_orientation_does_not_change_secular_function():
    rng = np.random.default_rng(1)
    ks = rng.uniform(0.05, 20.0, 100)
    worst = 0.0
    for spec in (QuotientSpec(3, 4, L1, L3, 1, 2), QuotientSpec(3, 4, L1, L3, 2, 3)):
        a = quotient_system(spec)
        # the quotient graph with edges 1 and 2 stored the other way round
        reversed_graph = make_graph(3, [(0, 1, L1), (1, 0, L1), (2, 0, L3), (0, 2, L3)])
        b = build_secular_system(reversed_graph, quotient_graph(spec)[1])
        for k in ks:
            worst = max(worst, abs(secular_det(a, k) - secular_det(b, k)))
    ok = worst < 1e-12
    _report(
        "flipping two bond orientations leaves the secular function unchanged",
        ok,
        f"max |difference| = {worst:.2e} at 100 sampled k",
    )


def test_product_graph_isomorphic_and_isospectral_to_circulant():
    mapping, gp, gc = product_circulant_isomorphism(3, 4, 1.0, 1.0)
    remaining = [
        (min(u, v), max(u, v), round(length, 12)) for (u, v), length in zip(gc.ends.tolist(), gc.lengths.tolist())
    ]
    adjacency_ok = True
    for (u, v), length in zip(gp.ends.tolist(), gp.lengths.tolist()):
        key = (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]), round(length, 12))
        if key in remaining:
            remaining.remove(key)
        else:
            adjacency_ok = False
    adjacency_ok = adjacency_ok and not remaining

    sp = find_roots_unitary(
        build_secular_system(gp, standard_conditions(gp)), 10.0, source="product"
    )
    sc = find_roots_unitary(
        build_secular_system(gc, standard_conditions(gc)), 10.0, source="circulant"
    )
    res = compare_spectra(merge_spectra([sp]), merge_spectra([sc]), tol=1e-8)
    ok = adjacency_ok and res.isospectral
    _report(
        "vertex relabeling maps the 3x4 product graph onto the 12-vertex circulant",
        ok,
        f"all 24 edges matched: {adjacency_ok}; isospectral to 1e-8 with max "
        f"pair distance = {res.max_distance:.2e} ({res.count_a} roots)",
    )


def test_decomposition_reconstruction_parseval_equivariance():
    t0 = time.time()
    g, a = torus_action(3, 4, L1, L3)
    labels = [(s, t) for s in range(3) for t in range(4)]
    rng = np.random.default_rng(42)
    worst_rec = worst_par = worst_eq = worst_orth = 0.0
    for _ in range(20):
        f = random_function(g, 200, rng)
        comps = {lab: project(f, a, Irrep((3, 4), lab)) for lab in labels}
        total = sum(c.values for c in comps.values())
        nf = math.sqrt(l2_norm_sq(f))
        worst_rec = max(worst_rec, float(np.max(np.abs(total - f.values))) / nf)
        par = abs(sum(l2_norm_sq(c) for c in comps.values()) - l2_norm_sq(f))
        worst_par = max(worst_par, par / l2_norm_sq(f))
        for lab, c in comps.items():
            worst_eq = max(worst_eq, quasi_periodicity_residual(c, a, Irrep((3, 4), lab)))
        for i, la in enumerate(labels):
            for lb in labels[i + 1:]:
                ip = abs(l2_inner(comps[la], comps[lb]))
                na = math.sqrt(l2_norm_sq(comps[la]))
                nb = math.sqrt(l2_norm_sq(comps[lb]))
                worst_orth = max(worst_orth, ip / max(na * nb, 1e-30))
    elapsed = time.time() - t0
    ok = (
        worst_rec < 1e-12
        and worst_par < 1e-10
        and worst_eq < 1e-12
        and worst_orth < 1e-10
        and elapsed < 30.0
    )
    _report(
        "irrep decomposition: reconstruction, Parseval, equivariance, orthogonality",
        ok,
        f"reconstruction {worst_rec:.2e}, Parseval {worst_par:.2e}, "
        f"equivariance {worst_eq:.2e}, orthogonality {worst_orth:.2e}, {elapsed:.1f}s",
    )


def test_midpoint_subdivision_preserves_cycle_spectrum():
    g, _ = cycle_graph(3, 1.0)
    sg = subdivide_midpoints(g)
    s_plain = find_roots_unitary(build_secular_system(g, standard_conditions(g)), 30.0)
    s_sub = find_roots_unitary(build_secular_system(sg, standard_conditions(sg)), 30.0)
    res = compare_spectra(s_plain, s_sub, tol=1e-8)
    want = [2 * math.pi * m / 3 for m in range(1, 15)]
    shape_ok = (
        len(s_plain.k) == len(want)
        and all(s_plain.order == 2)
        and np.abs(s_plain.k - want).max() < 1e-8
    )
    ok = res.isospectral and shape_ok
    _report(
        "inserting midpoint vertices leaves the cycle spectrum unchanged",
        ok,
        f"spectra agree to {res.max_distance:.2e}; roots are 2*pi*m/3 with order 2: "
        f"{shape_ok}",
    )


def test_irrep_orthogonality_sums_exhaustive():
    worst = 0.0
    identity_ok = True
    for n1, n2 in ((2, 3), (3, 4), (5, 6)):
        for ka in range(n1):
            for io in range(n2):
                v = irrep_sum(n1, n2, ka, io)
                if (ka, io) == (0, 0):
                    identity_ok = identity_ok and abs(v - n1 * n2) < 1e-12
                else:
                    worst = max(worst, abs(v))
    ok = identity_ok and worst < 1e-12
    _report(
        "character sums: n1*n2 at the identity, 0 elsewhere",
        ok,
        f"identity exact: {identity_ok}; max off-identity |sum| = {worst:.2e}",
    )

