import cmath
import math

import numpy as np
import pytest

from qgsym import (
    QuasiPeriodic,
    QuotientFamily,
    QuotientSpec,
    SecularSystem,
    Standard,
    all_quotient_specs,
    build_secular_system,
    make_graph,
    quotient_dispersion_real,
    quotient_graph,
    quotient_secular_closed,
    quotient_system,
    secular_det,
    secular_product,
    torus_secular_system,
)
from qgsym.scattering import contracted_stacks, secular_dets
from qgsym.spectra import PROBES

L3_BAND = 0.7017025651372872  # the incommensurate L3 of the 16x16 measurements


def test_quotient_graph_template():
    spec = QuotientSpec(3, 4, 0.5, 1.0, 1, 2)
    g, conds = quotient_graph(spec)
    assert g.n_vertices == 3
    assert g.n_edges == 4
    lengths = sorted(g.lengths.tolist())
    assert lengths == [0.5, 0.5, 1.0, 1.0]
    kinds = {type(c) for c in conds}
    assert kinds == {Standard, QuasiPeriodic}
    assert g.degree(0) == 4 and g.degree(1) == 2 and g.degree(2) == 2


def test_quotient_phases_are_roots_of_unity():
    spec = QuotientSpec(3, 4, 0.5, 1.0, 1, 2)
    assert abs(spec.phase_l1 - cmath.exp(2j * math.pi * 2 / 4)) < 1e-14
    assert abs(spec.phase_l3 - cmath.exp(2j * math.pi * 1 / 3)) < 1e-14


def test_closed_form_matches_matrix_determinant():
    ks = np.linspace(0.07, 20.0, 400)
    for spec in all_quotient_specs(3, 4, 0.5, 1.0):
        sys = quotient_system(spec)
        for k in ks[::9]:
            assert abs(secular_det(sys, k) - quotient_secular_closed(spec, k)) < 1e-10


def test_conjugate_label_pairs_agree():
    n1, n2 = 3, 4
    ks = np.linspace(0.3, 19.7, 60)
    for s in range(n1):
        for t in range(n2):
            a = QuotientSpec(n1, n2, 0.5, 1.0, s, t)
            b = QuotientSpec(n1, n2, 0.5, 1.0, (n1 - s) % n1, (n2 - t) % n2)
            for k in ks:
                va = quotient_secular_closed(a, k)
                vb = quotient_secular_closed(b, k)
                assert abs(va - vb) < 1e-12


def test_dispersion_identity():
    # Sigma(k) = -2i * exp(2ik(L1+L3)) * F(k) with F real for real k
    spec = QuotientSpec(3, 4, 0.5, 1.0, 2, 3)
    l1, l3 = spec.l1, spec.l3
    for k in np.linspace(0.11, 19.9, 200):
        F = quotient_dispersion_real(spec, k)
        assert abs(F.imag if isinstance(F, complex) else 0.0) < 1e-14
        sigma = quotient_secular_closed(spec, k)
        assert abs(sigma - (-2j) * cmath.exp(2j * k * (l1 + l3)) * F) < 1e-12


def test_trivial_factor_zero_set():
    spec = QuotientSpec(2, 2, 0.5, 1.0, 0, 0)
    for m in (1, 2, 3):
        assert abs(quotient_secular_closed(spec, m * math.pi / 0.5)) < 1e-10
        assert abs(quotient_secular_closed(spec, m * math.pi / 1.0)) < 1e-10
        assert abs(quotient_secular_closed(spec, m * math.pi / 1.5)) < 1e-10
    assert abs(quotient_secular_closed(spec, 1.0)) > 1e-3


def test_all_quotient_specs_enumerates_labels():
    specs = all_quotient_specs(3, 4, 0.5, 1.0)
    assert len(specs) == 12
    assert sorted((sp.s, sp.t) for sp in specs) == [
        (s, t) for s in range(3) for t in range(4)
    ]


def test_secular_product_matches_explicit_loop():
    k = 1.37
    prod = 1.0 + 0.0j
    for sp in all_quotient_specs(3, 4, 0.5, 1.0):
        prod *= quotient_secular_closed(sp, k)
    assert abs(secular_product(3, 4, 0.5, 1.0, k) - prod) < 1e-12 * max(1.0, abs(prod))


def test_full_torus_determinant_factorizes():
    sys = torus_secular_system(3, 4, 0.5, 1.0)
    assert sys.size == 96
    for k in (0.37, 1.0, math.pi, 2.6, 5.111):
        full = secular_det(sys, k)
        prod = secular_product(3, 4, 0.5, 1.0, k)
        assert abs(full - prod) < 1e-8 * max(1.0, abs(full))


def test_quotient_flipped_edges_invariance():
    spec = QuotientSpec(3, 4, 0.5, 1.0, 2, 1)
    sys0 = quotient_system(spec)
    # the quotient graph with edges 0 and 3, or 1 and 2, stored the other way round
    for reversed_graph in (
        make_graph(3, [(1, 0, 0.5), (0, 1, 0.5), (0, 2, 1.0), (2, 0, 1.0)]),
        make_graph(3, [(0, 1, 0.5), (1, 0, 0.5), (2, 0, 1.0), (0, 2, 1.0)]),
    ):
        sys1 = build_secular_system(reversed_graph, quotient_graph(spec)[1])
        assert sys1.unitarity_defect() < 1e-12
        for k in np.linspace(0.2, 12.0, 40):
            assert abs(secular_det(sys0, k) - secular_det(sys1, k)) < 1e-12


@pytest.mark.parametrize("n1, n2, l3", [(1, 1, 0.99999), (3, 4, 1.0), (4, 6, 0.61), (16, 16, 0.71676)])
def test_stacked_quotient_systems_equal_one_spec_at_a_time(n1, n2, l3):
    # the quotient systems of a torus, stacked in `secular_dets` and
    # `contracted_stacks`, give each spec what it gets alone
    specs = all_quotient_specs(n1, n2, 0.5, l3)
    systems = [quotient_system(spec) for spec in specs]
    for spec, sys_ in zip(specs, systems):
        one = build_secular_system(*quotient_graph(spec))
        assert sys_.S.tobytes() == one.S.tobytes() and sys_.lengths.tobytes() == one.lengths.tobytes()
    z = np.concatenate([PROBES, PROBES.conj()]) / (2 * l3)
    which, points = np.repeat(np.arange(len(specs)), len(z)), np.tile(z, len(specs))
    stacked = secular_dets(systems)(which, points).reshape(len(specs), len(z))
    contracted = {i: (S, lengths) for members, Ss, ls in contracted_stacks(systems) for i, S, lengths in zip(members, Ss, ls)}
    assert sorted(contracted) == list(range(len(specs)))
    for i, sys_ in enumerate(systems):
        alone = secular_dets([sys_])(np.zeros(len(z), dtype=np.int64), z)
        assert np.allclose(stacked[i], alone, rtol=1e-12, atol=0)
        ((members, S, lengths),) = contracted_stacks([sys_])
        assert members.tolist() == [0]
        assert S[0].tobytes() == contracted[i][0].tobytes() and lengths[0].tobytes() == contracted[i][1].tobytes()


def _family(specs):
    spec = specs[0]
    return QuotientFamily(spec.n1, spec.n2, spec.l1, spec.l3, [(sp.s, sp.t) for sp in specs])


@pytest.mark.parametrize(
    "n1, n2, l1, l3",
    [
        (16, 16, 0.5, L3_BAND),
        (64, 64, 0.5, L3_BAND),
        (3, 4, 0.5, 1.0),
        (5, 7, 0.5, 0.7017),
        (1, 2, 0.5, 0.61),
        (6, 6, 0.5, 0.5),  # L1 = L3
        (4, 8, 0.5, 0.5),
        (12, 8, 0.5, 0.5),
    ],
)
def test_bouquets_are_the_contracted_quotient_systems_bit_for_bit(n1, n2, l1, l3):
    # the closed-form 4x4 stack is the 8x8 systems of the template graph with
    # their pass-through bonds contracted: one stack, S and lengths equal to
    # the bit, the reciprocal phases included
    specs = all_quotient_specs(n1, n2, l1, l3)
    members, S, lengths = _family(specs).bouquets()
    ((want_members, want_S, want_lengths),) = contracted_stacks([quotient_system(spec) for spec in specs])
    assert members.tolist() == want_members.tolist() == list(range(n1 * n2))
    assert S.shape == (n1 * n2, 4, 4) and S.tobytes() == want_S.tobytes()
    assert lengths.tobytes() == want_lengths.tobytes()
    assert np.allclose(np.abs(S), 0.5, rtol=0, atol=1e-15)  # nothing to contract


@pytest.mark.parametrize("n1, n2, l1, l3", [(3, 4, 0.5, 1.0), (5, 7, 0.5, 0.7017), (4, 8, 0.5, 0.5)])
def test_bouquet_determinants_equal_the_quotient_systems(n1, n2, l1, l3):
    # det(I - S D(z)) of the 4x4 bouquet equals that of the 8x8 quotient
    # system at complex probes, with the unit constant
    specs = all_quotient_specs(n1, n2, l1, l3)
    _, S, lengths = _family(specs).bouquets()
    z = np.concatenate([PROBES, PROBES.conj(), [7.3 + 0.05j]]) / (2 * max(l1, l3))
    which, points = np.repeat(np.arange(len(specs)), len(z)), np.tile(z, len(specs))
    small = secular_dets([SecularSystem(s, l) for s, l in zip(S, lengths)])(which, points)
    big = secular_dets([quotient_system(spec) for spec in specs])(which, points)
    assert np.allclose(small, big, rtol=1e-12, atol=0)
