"""Character blocks of the bond scattering matrix, checked label by label."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from qgsym import (
    GraphAction,
    Irrep,
    QuasiPeriodic,
    QuotientSpec,
    Standard,
    build_secular_system,
    character_blocks,
    circulant_graph,
    crt_index,
    cycle_graph,
    cycle_product,
    make_graph,
    quotient_secular_closed,
    secular_det,
    secular_product,
    standard_conditions,
    torus_action,
)
from qgsym import io, scattering
from qgsym.actions import GeneratorMaps
from qgsym.cli import main
from qgsym.errors import ActionNotFree, UnsupportedCondition
from qgsym.io import graph_to_doc

K = 2.3 + 0.1j  # off the real axis, where no factor vanishes


def _secular(sys_, k):
    """det(I - M D(k)) of a block, computed here rather than by the package."""
    return complex(np.linalg.det(np.eye(sys_.size) - sys_.S * np.exp(1j * k * sys_.lengths)[None, :]))


def _blocks(n1, n2, l1, l3):
    g, action = torus_action(n1, n2, l3, l1)  # the construction of torus_secular_system
    return g, character_blocks(g, standard_conditions(g), action)


@pytest.mark.parametrize("n1, n2, l3", [(3, 4, 1.0), (16, 16, 0.7136160)])
def test_each_block_is_one_quotient_factor(n1, n2, l3):
    l1 = 0.5
    g, blocks = _blocks(n1, n2, l1, l3)
    assert sorted(blocks) == [(s, t) for s in range(n1) for t in range(n2)]
    product = 1.0 + 0.0j
    for (s, t), block in blocks.items():
        assert block.size == 2 * g.n_edges // (n1 * n2) == 8
        assert block.unitarity_defect() < 1e-12
        det = _secular(block, K)
        closed = quotient_secular_closed(QuotientSpec(n1, n2, l1, l3, s, t), K)
        assert abs(det - closed) <= 1e-12 * abs(closed), (s, t)
        product *= det
    if n1 * n2 <= 12:
        full = secular_det(build_secular_system(g, standard_conditions(g)), K)
    else:
        full = secular_product(n1, n2, l1, l3, K)
    assert abs(product - full) <= 1e-10 * abs(full)


def test_blocks_are_S_on_isotypic_vectors():
    # S maps w_j = sum_m conj(chi(m)) e_{m.r_j} to sum_i M_chi[i, j] w_i, with
    # chi = Irrep(orders, labels) and r_i the lowest bond of each orbit
    g, action = torus_action(3, 4, 1.0, 0.5)
    S = build_secular_system(g, standard_conditions(g)).S
    bonds = np.arange(S.shape[0])
    images = {}
    for m in action.elements():
        maps = action.maps(m)
        images[m] = [2 * maps.edge_perm[b // 2] + (b % 2 ^ maps.edge_flip[b // 2]) for b in bonds]
    reps = [b for b in bonds if all(images[m][b] >= b for m in images)]
    for labels, block in character_blocks(g, standard_conditions(g), action).items():
        chi = Irrep(action.orders, labels)
        w = np.zeros((S.shape[0], len(reps)), dtype=complex)
        for m, image in images.items():
            for j, r in enumerate(reps):
                w[image[r], j] += np.conj(chi.value(m))
        assert np.abs(S @ w - w @ block.S).max() < 1e-13, labels


def test_16x16_blocks_assemble_no_dense_matrix():
    g, action = torus_action(16, 16, 0.7136160, 0.5)
    conds = standard_conditions(g)
    action.orbits  # built once with the action, before the blocks
    tracemalloc.start()
    try:
        character_blocks(g, conds, action)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (2 * g.n_edges) ** 2 * 16 > 64e6  # the dense S of the 2048 bonds
    assert peak < 32e6


def test_coprime_product_blocks_equal_circulant_blocks():
    # the paper's gcd = 1 equivalence one factor at a time: product block
    # (s, t) is circulant block crt(s, t), with the circulant's jump-3 class
    # carrying the second-factor length
    len1, len2 = 1.0, 1.4272320
    prod = character_blocks(*_with_conditions(cycle_product(3, 4, len1, len2)))
    circ = character_blocks(*_with_conditions(circulant_graph(12, [3, 4], [len2, len1])))
    for (s, t), block in prod.items():
        want = _secular(circ[(crt_index(3, 4, s, t),)], K)
        assert abs(_secular(block, K) - want) <= 1e-13 * max(1.0, abs(want)), (s, t)


def _with_conditions(graph_and_action):
    g, action = graph_and_action
    return g, standard_conditions(g), action


def _cli_error(tmp_path, doc, command):
    path = str(tmp_path / "g.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    res = CliRunner().invoke(main, [command, path, "--kmax", "2", "-o", str(tmp_path / "out.csv")])
    assert res.exit_code == 2, res.output
    return res.output


@pytest.mark.parametrize("command", ["spectrum", "scan"])
def test_action_fixing_a_bond_is_refused(tmp_path, command):
    # theta graph: three parallel edges; the generator swaps edges 0 and 1
    # and fixes edge 2 with both its bonds
    g = make_graph(2, [(0, 1, 1.0), (0, 1, 1.0), (0, 1, 0.7)])
    action = GraphAction((2,), (GeneratorMaps((0, 1), (1, 0, 2), (False, False, False)),))
    with pytest.raises(ActionNotFree, match=r"element \(1,\) fixes bond 4"):
        character_blocks(g, standard_conditions(g), action)
    out = _cli_error(tmp_path, graph_to_doc(g, standard_conditions(g), action), command)
    assert "error: ActionNotFree: element (1,) fixes bond 4" in out


@pytest.mark.parametrize("command", ["spectrum", "scan"])
def test_stored_action_with_non_standard_condition_is_refused(tmp_path, command):
    g, action = cycle_graph(3, 1.0)
    conds = standard_conditions(g)
    conds[0] = QuasiPeriodic(0, 1.0, (0, 2))  # edges 0 and 2 meet at vertex 0
    with pytest.raises(UnsupportedCondition, match="vertex 0"):
        character_blocks(g, conds, action)
    out = _cli_error(tmp_path, graph_to_doc(g, conds, action), command)
    assert "error: UnsupportedCondition" in out


def test_blocks_build_the_matrices_of_the_representatives_origins_only(tmp_path, monkeypatch):
    # the R = 8 orbit representatives of the 2048 bonds of the 16x16 torus
    # document leave 5 of its 768 vertices: only those build a 2/d - delta
    g, action = torus_action(16, 16, 1 / math.sqrt(2), 0.5)
    path = str(tmp_path / "torus.json")
    io.save_graph(path, g, standard_conditions(g), action)
    g, conds, action = io.load_graph(path)
    degrees, standard = [], scattering.vertex_scattering_standard
    monkeypatch.setattr(scattering, "vertex_scattering_standard", lambda d: degrees.append(d) or standard(d))
    blocks = character_blocks(g, conds, action)
    assert len(blocks) == 256 and all(block.size == 8 for block in blocks.values())
    assert len(degrees) == 5


def test_condition_of_a_vertex_no_row_leaves_is_still_checked(tmp_path):
    # no bond leaves the isolated vertex 2, so no row of S needs its matrix;
    # its quasi-periodic condition is refused all the same
    g = make_graph(3, [(0, 1, 1.0), (0, 1, 0.7)])
    conds = [Standard(0), Standard(1), QuasiPeriodic(2, 1.0, (0, 1))]
    with pytest.raises(UnsupportedCondition, match="quasi-periodic vertex 2"):
        build_secular_system(g, conds)
    out = _cli_error(tmp_path, graph_to_doc(g, conds), "spectrum")
    assert "error: UnsupportedCondition: quasi-periodic vertex 2" in out
