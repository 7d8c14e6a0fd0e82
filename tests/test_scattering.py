import cmath
import math
import tracemalloc
import types

import numpy as np
import pytest

from qgsym import (
    QuasiPeriodic,
    QuotientFamily,
    Standard,
    all_quotient_specs,
    build_secular_system,
    cycle_graph,
    make_graph,
    quotient_graph,
    secular_det,
    standard_conditions,
    vertex_scattering_quasiperiodic,
    vertex_scattering_standard,
)
from qgsym.errors import MissingCondition, NonUnitPhase, UnsupportedCondition, ZeroDegree
from qgsym.scattering import SecularSystem, contracted_stacks, secular_dets
from qgsym.spectra import PROBES


def _unitary(M):
    return np.linalg.norm(M.conj().T @ M - np.eye(M.shape[0])) < 1e-12


def test_vertex_scattering_standard_values():
    for d in range(1, 6):
        sig = vertex_scattering_standard(d)
        assert sig.shape == (d, d)
        assert _unitary(sig)
        off = 2.0 / d
        assert np.allclose(sig, np.full((d, d), off) - np.eye(d))
    # degree 1 is total reflection, degree 2 pure transmission
    assert vertex_scattering_standard(1)[0, 0] == pytest.approx(1.0)
    assert np.allclose(vertex_scattering_standard(2), [[0, 1], [1, 0]])
    with pytest.raises(ZeroDegree):
        vertex_scattering_standard(0)


def test_vertex_scattering_quasiperiodic():
    tau = cmath.exp(2j * math.pi / 5)
    sig = vertex_scattering_quasiperiodic(tau)
    assert _unitary(sig)
    assert sig[0, 0] == 0 and sig[1, 1] == 0
    assert sig[1, 0] * sig[0, 1] == pytest.approx(1.0)  # transmissions are tau, 1/tau
    with pytest.raises(NonUnitPhase):
        vertex_scattering_quasiperiodic(0.5)


def test_system_unitarity_and_connectivity():
    g = make_graph(2, [(0, 1, 1.0), (0, 1, 2.0), (0, 0, 0.5)])
    sys = build_secular_system(g, standard_conditions(g))
    assert sys.size == 6
    assert sys.unitarity_defect() < 1e-12
    # bond 2e runs u -> v along edge e, bond 2e+1 runs v -> u
    origin = g.ends.ravel().tolist()
    terminus = g.ends[:, ::-1].ravel().tolist()
    # S[b, b'] = 2/d - [b = reversal of b'] when b' feeds into b's origin, else 0
    for b in range(6):
        d = g.degree(origin[b])
        for bp in range(6):
            want = 2.0 / d - (b == bp ^ 1) if terminus[bp] == origin[b] else 0.0
            assert sys.S[b, bp] == want
    # each vertex block, rows leaving and columns arriving, is the vertex matrix
    for v in range(g.n_vertices):
        out = [b for b in range(6) if origin[b] == v]
        block = sys.S[np.ix_(out, [b ^ 1 for b in out])]
        assert np.array_equal(block, vertex_scattering_standard(g.degree(v)))


def test_cycle_secular_det_vanishes_at_spectrum():
    # a cycle of total length 3 resonates exactly at multiples of 2*pi/3
    g, _ = cycle_graph(3, 1.0)
    sys = build_secular_system(g, standard_conditions(g))
    for m in (1, 2, 3):
        assert abs(secular_det(sys, 2 * math.pi * m / 3)) < 1e-10
    assert abs(secular_det(sys, 1.0)) > 1e-3


def test_quasiperiodic_condition_on_degree2_vertex():
    # path 0-1-2 with a phase jump at vertex 1 shifts the resonance condition
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    tau = cmath.exp(1j * math.pi / 3)
    conds = [Standard(0), QuasiPeriodic(1, tau, (0, 1)), Standard(2)]
    sys = build_secular_system(g, conds)
    assert sys.unitarity_defect() < 1e-12
    # leaving vertex 1 along edge 0 (p-side) is bond 1, along edge 1 (q-side) bond 2
    assert np.array_equal(sys.S[np.ix_([1, 2], [0, 3])], vertex_scattering_quasiperiodic(tau))
    # the phase cancels against its inverse on the return trip: the interval
    # of length 2 with reflecting ends keeps spectrum {m*pi/2}
    for m in (1, 2, 3):
        assert abs(secular_det(sys, m * math.pi / 2)) < 1e-10


def test_condition_validation_errors():
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(MissingCondition):
        build_secular_system(g, [Standard(0), Standard(1)])
    with pytest.raises(NonUnitPhase):
        build_secular_system(
            g, [Standard(0), QuasiPeriodic(1, 2.0, (0, 1)), Standard(2)]
        )
    with pytest.raises(UnsupportedCondition):
        # quasi-periodic needs degree exactly 2
        build_secular_system(
            g, [QuasiPeriodic(0, 1.0, (0, 0)), Standard(1), Standard(2)]
        )
    path = make_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(UnsupportedCondition):
        # edge 2 does not touch vertex 1
        build_secular_system(
            path, [Standard(0), QuasiPeriodic(1, 1.0, (0, 2)), Standard(2), Standard(3)]
        )
    with pytest.raises(UnsupportedCondition):
        # vertex 3 is not in the graph
        build_secular_system(g, [Standard(0), Standard(1), Standard(2), Standard(3)])
    with pytest.raises(UnsupportedCondition):
        # neither Standard nor QuasiPeriodic
        build_secular_system(g, [Standard(0), types.SimpleNamespace(vertex=1), Standard(2)])


def test_flipped_edges_leave_determinant_invariant():
    g = make_graph(2, [(0, 1, 1.0), (0, 1, 2.0)])
    sys0 = build_secular_system(g, standard_conditions(g))
    sys1 = build_secular_system(make_graph(2, [(0, 1, 1.0), (1, 0, 2.0)]), standard_conditions(g))
    for k in np.linspace(0.3, 9.7, 25):
        assert abs(secular_det(sys0, k) - secular_det(sys1, k)) < 1e-12


@pytest.mark.parametrize("flipped", [(), (0, 3)], ids=["stored", "flipped"])
@pytest.mark.parametrize("n1, n2", [(1, 1), (2, 1), (3, 4), (4, 6), (16, 16)])
def test_stacked_assembly_equals_one_set_at_a_time(n1, n2, flipped):
    # the quotient graph of a torus under the gluing phases of every label,
    # with the edges in `flipped` stored the other way round: each set
    # assembled on its own is unitary and has the determinant of its member
    # of the stacked 4x4 bouquets, and on the stored graph contracts to it
    # bit for bit
    specs = all_quotient_specs(n1, n2, 0.5, 0.71676)
    stored = quotient_graph(specs[0])[0]
    ends = stored.ends.tolist()
    g = make_graph(3, [(v, u, length) if e in flipped else (u, v, length)
                       for e, ((u, v), length) in enumerate(zip(ends, stored.lengths.tolist()))])
    systems = [build_secular_system(g, quotient_graph(spec)[1]) for spec in specs]
    members, S, lengths = QuotientFamily(n1, n2, 0.5, 0.71676, [(sp.s, sp.t) for sp in specs]).bouquets()
    assert members.tolist() == list(range(len(specs)))
    for i, sys_ in enumerate(systems):
        assert sys_.size == 8 and sys_.unitarity_defect() < 1e-12
        if not flipped:
            ((_, small, small_lengths),) = contracted_stacks([sys_])
            assert small[0].tobytes() == S[i].tobytes() and small_lengths[0].tobytes() == lengths[i].tobytes()
    z = np.concatenate([PROBES, PROBES.conj()]) / (2 * 0.71676)
    which, points = np.repeat(members, len(z)), np.tile(z, len(specs))
    big = secular_dets(systems)(which, points)
    small = secular_dets([SecularSystem(s, l) for s, l in zip(S, lengths)])(which, points)
    assert np.allclose(big, small, rtol=1e-12, atol=0)


def test_assembly_mixes_kinds_and_orientations_at_a_vertex():
    # vertex 1 of a path is standard in one set and quasi-periodic, with
    # either edge first, in two others; each set gets its own block
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 0.5)])
    tau = cmath.exp(1j * math.pi / 3)
    sets = [
        standard_conditions(g),
        [Standard(0), QuasiPeriodic(1, tau, (0, 1)), Standard(2)],
        [Standard(0), QuasiPeriodic(1, tau, (1, 0)), Standard(2)],
    ]
    # leaving vertex 1 along edge 0 is bond 1, along edge 1 bond 2
    blocks = [build_secular_system(g, conds).S[np.ix_([1, 2], [0, 3])] for conds in sets]
    assert np.array_equal(blocks[0], vertex_scattering_standard(2))
    assert np.array_equal(blocks[1], vertex_scattering_quasiperiodic(tau))
    assert np.array_equal(blocks[2], vertex_scattering_quasiperiodic(tau)[::-1, ::-1])


def test_assembly_refuses_a_bad_set():
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    good = standard_conditions(g)
    with pytest.raises(MissingCondition, match="vertex 2"):
        build_secular_system(g, [Standard(0), Standard(1)])
    with pytest.raises(UnsupportedCondition, match="outside the graph"):
        build_secular_system(g, [*good, Standard(3)])
    with pytest.raises(UnsupportedCondition, match="quasi-periodic vertex 0"):
        build_secular_system(g, [QuasiPeriodic(0, 1.0, (0, 0)), Standard(1), Standard(2)])


@pytest.mark.parametrize("members", [1, 3])
def test_secular_dets_form_the_matrices_in_the_one_stack_they_copy(members):
    # the determinants are those of I - S[which] * D(z) bit for bit, no
    # system's S changes (one system is used as it is, not copied), and a
    # call holds one stack of matrices at its peak, not two
    rng = np.random.default_rng(11)
    n, points = 128, 32
    systems = [
        SecularSystem(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), rng.uniform(0.5, 1.5, n))
        for _ in range(members)
    ]
    kept = [sys_.S.copy() for sys_ in systems]
    which, z = rng.integers(0, members, points), rng.uniform(0.0, 10.0, points) + 0.1j
    S, lengths = np.stack([sys_.S for sys_ in systems]), np.stack([sys_.lengths for sys_ in systems])
    want = np.linalg.det(np.eye(n) - S[which] * np.exp(1j * z[:, None] * lengths[which])[:, None, :])
    dets = secular_dets(systems)
    assert dets(which, z).tobytes() == want.tobytes()
    assert all(np.array_equal(sys_.S, S0) for sys_, S0 in zip(systems, kept))
    tracemalloc.start()
    try:
        dets(which, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * points * n * n * 16
