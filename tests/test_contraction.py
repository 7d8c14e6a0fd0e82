"""Contracting pure-transmission bonds leaves the secular determinant as it is.

A bond that passes its whole wave on to one other bond is a transparent
degree-2 vertex; dropping it is one Schur step with pivot 1.  The unitary
locator contracts every family first, so every system here is checked
against the same system solved at its full size, through the uncontracted
core `_unitary_stack` and `_eigenphase_steps`.
"""

import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qgsym import (
    QuasiPeriodic,
    QuotientSpec,
    SecularSystem,
    build_secular_system,
    character_blocks,
    circulant_graph,
    cycle_graph,
    cycle_product,
    find_roots_unitary,
    io,
    quotient_system,
    secular_det,
    standard_conditions,
    torus_action,
)
from qgsym.cli import main
from qgsym.locators import K_MIN, UnitaryFamily, _eigenphase_steps, _unitary_stack
from qgsym.scattering import contracted_stacks
from qgsym.spectra import PROBES

TOL, K_MAX = 1e-10, 6.0


def _blocks(g, action, pick):
    blocks = character_blocks(g, standard_conditions(g), action)
    return blocks[sorted(blocks)[pick % len(blocks)]]


def _system(kind, n1, n2, l1, l3, pick):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n = 1, 2 cycles are multigraphs
        if kind == "torus block":
            return _blocks(*torus_action(n1, n2, l3, l1), pick)
        if kind == "quotient":
            return quotient_system(QuotientSpec(n1, n2, l1, l3, pick % n1, pick % n2))
        if kind == "cycle":
            # a flux tau at vertex 0, between the edges n - 1 and 0: both
            # closed chains pick up a phase
            g, _ = cycle_graph(n1 + 1, l1)
            tau = complex(np.exp(2j * np.pi * pick / 7))
            return build_secular_system(g, [QuasiPeriodic(0, tau, (n1, 0)), *standard_conditions(g)[1:]])
        if kind == "circulant":
            n = 2 * n1 + 2
            jumps = [1, n // 2][: 1 + pick % 2]
            g, action = circulant_graph(n, jumps, [l1, l3][: len(jumps)])
            return build_secular_system(g, standard_conditions(g)) if pick % 3 else _blocks(g, action, pick)
        return _blocks(*cycle_product(n1, n2, 2 * l3, 2 * l1), pick)


def _full_size_count(sys_, k):
    """N(k) of `sys_` at its full size."""
    return int(_eigenphase_steps(sys_.S[None], sys_.lengths[None], np.zeros(2, dtype=int), np.array([K_MIN, k]))[1][1])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["torus block", "quotient", "cycle", "circulant", "product"]),
    n1=st.integers(1, 5),
    n2=st.integers(1, 5),
    l1=st.floats(0.3, 1.0),
    l3=st.floats(0.3, 1.0),
    pick=st.integers(0, 35),
)
@example(kind="torus block", n1=3, n2=4, l1=0.5, l3=1.0, pick=0)  # roots of order 3
@example(kind="cycle", n1=4, n2=1, l1=1.0, l3=1.0, pick=2)  # ten bonds, two closed chains
@example(kind="circulant", n1=3, n2=1, l1=0.5, l3=0.7, pick=1)  # degree 3, nothing to contract
def test_contraction_keeps_the_determinant_counts_and_spectrum(kind, n1, n2, l1, l3, pick):
    sys_ = _system(kind, n1, n2, l1, l3, pick)
    ((_, S, lengths),) = contracted_stacks([sys_])
    small = SecularSystem(S[0], lengths[0])
    assert small.size <= sys_.size
    assert small.lengths.sum() == pytest.approx(sys_.lengths.sum(), rel=1e-14)
    assert small.unitarity_defect() <= 1e-12
    ((_, again, _),) = contracted_stacks([small])
    assert again.shape[-1] == small.size
    for z in (*(PROBES / sys_.lengths.max()), 2.7 + 0.4j, 7.1 + 0.05j):
        assert abs(secular_det(small, z) - secular_det(sys_, z)) <= 1e-12 * abs(secular_det(sys_, z))
    for k in (1.3, K_MAX):
        assert UnitaryFamily([sys_]).counts(k) == [_full_size_count(sys_, k)]
    got = find_roots_unitary(sys_, K_MAX, tol=TOL)
    (want,) = _unitary_stack(sys_.S[None], sys_.lengths[None], K_MAX, TOL, "full")
    assert got.order.tolist() == want.order.tolist()
    assert np.abs(got.k - want.k).max(initial=0.0) <= 1e-9
    assert got.meta["bonds"] == small.size and want.meta["bonds"] == sys_.size
    if kind in ("torus block", "quotient"):
        assert small.size == 4  # every midpoint is transparent


def test_a_unit_entry_beside_a_small_one_stays():
    # row 1 holds one unit entry, in column 0, but column 0 also holds 1e-6
    # in row 0, so bond 1 is not dropped; bond 2 only passes bond 1 on
    S = np.array([[1e-6, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    sys_ = SecularSystem(S, np.array([0.5, 0.7, 1.1]))
    ((_, S_small, lengths),) = contracted_stacks([sys_])
    small = SecularSystem(S_small[0], lengths[0])
    assert small.size == 2 and small.lengths.tolist() == [0.5, 1.8]
    for z in (0.3 + 0.2j, 2.9 + 0.7j):
        assert abs(secular_det(small, z) - secular_det(sys_, z)) <= 1e-12 * abs(secular_det(sys_, z))


def test_a_mixed_pattern_family_equals_its_members_run_alone():
    # a 3x4 torus block contracts from 8x8 to 4x4; a block of the four-jump
    # circulant C_9(1,2,3,4) has degree-8 vertices and stays 8x8
    g, action = circulant_graph(9, [1, 2, 3, 4], [0.5, 0.7, 0.9, 1.1])
    torus = [_system("torus block", 3, 4, 0.5, 1.0, pick) for pick in (5, 0)]
    systems = [torus[0], _blocks(g, action, 2), torus[1]]
    assert [s.size for s in systems] == [8, 8, 8]
    stacks = contracted_stacks(systems)
    assert [(members.tolist(), S.shape[-1]) for members, S, _ in stacks] == [([0, 2], 4), ([1], 8)]
    family = UnitaryFamily(systems).roots(K_MAX, tol=TOL)
    for got, sys_ in zip(family, systems):
        want = find_roots_unitary(sys_, K_MAX, tol=TOL)
        assert (got.k.tolist(), got.order.tolist()) == (want.k.tolist(), want.order.tolist())
        assert got.meta == want.meta
    assert [s.meta["bonds"] for s in family] == [4, 8, 4]
    assert UnitaryFamily(systems).counts(K_MAX) == [_full_size_count(s, K_MAX) for s in systems]


def test_spectrum_header_records_the_contracted_size(tmp_path):
    # the 3x4 document's blocks are solved at 4 bonds, lengths [2, 2, 1, 1]
    g, action = torus_action(3, 4, 1.0, 0.5)
    doc, out = str(tmp_path / "torus.json"), str(tmp_path / "full.csv")
    io.save_graph(doc, g, standard_conditions(g), action)
    res = CliRunner().invoke(main, ["spectrum", doc, "--kmax", "10", "-o", out])
    assert res.exit_code == 0, res.output
    s = io.load_spectrum(out)
    assert s.meta["bonds"] == 4
    assert s.meta["grid_step"] == 0.9 * math.pi / 2.0


def test_spectrum_contracts_its_blocks_once(tmp_path, monkeypatch):
    # the locator solves the distinct blocks and the certificate counts
    # every label's block from one contraction of all 12 blocks
    import qgsym.locators

    stacks, calls = qgsym.locators.contracted_stacks, []
    counted = lambda systems: calls.append(len(systems)) or stacks(systems)
    monkeypatch.setattr(qgsym.locators, "contracted_stacks", counted)
    g, action = torus_action(3, 4, 1.0, 0.5)
    doc, out = str(tmp_path / "torus.json"), str(tmp_path / "full.csv")
    io.save_graph(doc, g, standard_conditions(g), action)
    res = CliRunner().invoke(main, ["spectrum", doc, "--kmax", "10", "-o", out])
    assert res.exit_code == 0, res.output
    assert calls == [12]
    s = io.load_spectrum(out)
    assert s.meta["distinct_blocks"] == 6
    assert s.count() == s.meta["root_count"] == s.meta["eigenphase_count"] == 108
