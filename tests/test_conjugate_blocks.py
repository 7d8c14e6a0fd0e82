"""Conjugate character blocks share one secular determinant.

With standard conditions S = J S^T J, J the bond reversal, and the transpose
pairs the chi- and conj(chi)-isotypic subspaces, so the blocks of a label and
of its negative have one determinant.  `spectrum` and `scan` solve each pair
once; here they are checked against a run over every label.
"""

import math
import warnings

import numpy as np
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qgsym import (
    build_secular_system,
    character_blocks,
    circulant_graph,
    find_roots_unitary,
    io,
    merge_spectra,
    secular_det,
    secular_product,
    standard_conditions,
    torus_action,
)
from qgsym.cli import main

L1, L3 = 0.5, 1.0  # the 3x4 document of the benchmark's full-3x4 workload


def _conjugate(labels, orders):
    return tuple((-l) % n for l, n in zip(labels, orders))


def _assert_pairs_and_product(g, action, k):
    conds = standard_conditions(g)
    dets = {labels: secular_det(block, k) for labels, block in character_blocks(g, conds, action).items()}
    for labels, det in dets.items():
        pair = dets[_conjugate(labels, action.orders)]
        assert abs(det - pair) <= 1e-12 * abs(det), labels
    product = math.prod(dets.values())
    full = secular_det(build_secular_system(g, conds), k)
    assert abs(product - full) <= 1e-10 * abs(full)
    return product


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    l1=st.floats(0.3, 1.0),
    l3=st.floats(0.3, 1.0),
    re_k=st.floats(0.5, 10.0),
)
@example(n1=3, n2=4, l1=L1, l3=L3, re_k=2.3)
@example(n1=4, n2=6, l1=0.5, l3=1 / math.sqrt(2), re_k=math.pi)
@example(n1=2, n2=1, l1=0.5, l3=0.5, re_k=1.0)
def test_torus_conjugate_blocks_share_their_determinant(n1, n2, l1, l3, re_k):
    k = complex(re_k, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n = 1, 2 cycles are multigraphs
        g, action = torus_action(n1, n2, l3, l1)
    product = _assert_pairs_and_product(g, action, k)
    closed = secular_product(n1, n2, l1, l3, k)  # factorization with unit constant
    assert abs(product - closed) <= 1e-10 * abs(closed)


@st.composite
def circulants(draw):
    """(n, jumps, lengths) of a circulant graph, the antipodal jump included."""
    n = draw(st.integers(3, 12))
    jumps = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=3, unique=True))
    lengths = draw(st.lists(st.floats(0.3, 1.5), min_size=len(jumps), max_size=len(jumps)))
    return n, jumps, lengths


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circulant=circulants(), re_k=st.floats(0.5, 10.0))
@example(circulant=(12, [3, 4], [1.0, 1.4272320]), re_k=2.3)
def test_circulant_conjugate_blocks_share_their_determinant(circulant, re_k):
    g, action = circulant_graph(*circulant)
    _assert_pairs_and_product(g, action, complex(re_k, 0.5))


def _torus_document(tmp_path):
    g, action = torus_action(3, 4, L3, L1)
    path = str(tmp_path / "torus.json")
    io.save_graph(path, g, standard_conditions(g), action)
    return path, character_blocks(g, standard_conditions(g), action)


def _name(labels):
    return f"({','.join(map(str, labels))})"


def test_spectrum_equals_the_run_over_every_label(tmp_path):
    path, blocks = _torus_document(tmp_path)
    out = str(tmp_path / "full.csv")
    res = CliRunner().invoke(main, ["spectrum", path, "--kmax", "10", "--grid", "0.05", "-o", out])
    assert res.exit_code == 0, res.output
    got = io.load_spectrum(out)
    assert int(got.meta["blocks"]) == 12 and int(got.meta["distinct_blocks"]) == 7

    parts = [find_roots_unitary(block, 10.0, source=_name(labels)) for labels, block in blocks.items()]
    want = merge_spectra(parts, tol=1e-7)
    assert [(r.order, r.source) for r in got.roots] == [(r.order, r.source) for r in want.roots]
    assert max(abs(r.k - w.k) for r, w in zip(got.roots, want.roots)) <= 1e-12
    # one run per conjugate pair: the runs of the pairs' first labels
    keys = {min(labels, _conjugate(labels, (3, 4))) for labels in blocks}
    assert int(got.meta["evaluations"]) == sum(p.meta["evaluations"] for p, labels in zip(parts, blocks) if labels in keys)


def test_scan_equals_the_product_over_every_label(tmp_path):
    path, blocks = _torus_document(tmp_path)
    out = str(tmp_path / "scan.csv")
    res = CliRunner().invoke(main, ["scan", path, "--kmax", "10", "--grid", "0.01", "-o", out])
    assert res.exit_code == 0, res.output
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert len(rows) == 1000
    for k, value in rows:
        want = abs(math.prod(secular_det(block, k) for block in blocks.values()))
        assert abs(value - want) <= 1e-12 * want, k
