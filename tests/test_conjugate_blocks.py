"""Conjugate character blocks share one secular determinant, and the classes
of labels that `spectrum`, `scan` and `factors` solve once.

With standard conditions S = J S^T J, J the bond reversal, and the transpose
pairs the chi- and conj(chi)-isotypic subspaces, so the blocks of a label and
of its negative have one determinant.  `isospectral_classes` groups labels by
their determinants at generic points, so a class holds every conjugate pair
and, on a torus, every reflection pair; the commands solve each class once,
and are checked here against a run over every label.
"""

import math
import tempfile
import warnings
from pathlib import Path

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
from qgsym.cli import _systems_from_doc, main

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


def _document(tmp_path, g, action):
    path = str(tmp_path / "doc.json")
    io.save_graph(path, g, standard_conditions(g), action)
    return path, character_blocks(g, standard_conditions(g), action)


def _torus_document(tmp_path):
    return _document(tmp_path, *torus_action(3, 4, L3, L1))


def _name(labels):
    return f"({','.join(map(str, labels))})"


def _assert_spectrum_equals_the_run_over_every_label(tmp_path, path, blocks):
    """The `spectrum` CSV of the document `path` and its labels' classes, after
    checking the CSV against the merged runs of every label's own block."""
    out = str(tmp_path / "full.csv")
    res = CliRunner().invoke(main, ["spectrum", path, "--kmax", "10", "--grid", "0.05", "-o", out])
    assert res.exit_code == 0, res.output
    got = io.load_spectrum(out)
    assert int(got.meta["root_count"]) == int(got.meta["eigenphase_count"]) == got.count()

    parts = [find_roots_unitary(block, 10.0, source=_name(labels)) for labels, block in blocks.items()]
    want = merge_spectra(parts, tol=1e-7)
    assert [(r.order, r.source) for r in got.roots] == [(r.order, r.source) for r in want.roots]
    assert max(abs(r.k - w.k) for r, w in zip(got.roots, want.roots)) <= 1e-12
    # one run per class: the runs of the classes' first labels
    first = _systems_from_doc(path)[1]
    assert int(got.meta["evaluations"]) == sum(p.meta["evaluations"] for i, p in enumerate(parts) if first[i] == i)
    return got, {label: _name(list(blocks)[f]) for label, f in zip(blocks, first.tolist())}


def test_spectrum_equals_the_run_over_every_label(tmp_path):
    got, _ = _assert_spectrum_equals_the_run_over_every_label(tmp_path, *_torus_document(tmp_path))
    assert int(got.meta["blocks"]) == 12 and int(got.meta["distinct_blocks"]) == 6


def test_circulant_classes_join_labels_that_are_not_conjugate(tmp_path):
    # multiplying the labels of C_12(3, 4) by 5 maps its jumps {3, 4} to
    # {3, -4}: an automorphism that no conjugate or reflection key sees
    path, blocks = _document(tmp_path, *circulant_graph(12, [3, 4], [1.0, 1.4272320]))
    got, classes = _assert_spectrum_equals_the_run_over_every_label(tmp_path, path, blocks)
    assert int(got.meta["blocks"]) == 12 and int(got.meta["distinct_blocks"]) == 6
    assert {label for label, first in classes.items() if first == "(1)"} == {(1,), (5,), (7,), (11,)}


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


def _conjugate_key(labels, orders):
    """The key by which `spectrum` and `scan` once grouped their labels."""
    return min(labels, _conjugate(labels, orders))


def _reflection_key(labels, orders):
    """The key by which `factors` once grouped its labels (s, t)."""
    return tuple(min(l, n - l) for l, n in zip(labels, orders))


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n1=st.integers(1, 6), n2=st.integers(1, 6), l1=st.floats(0.3, 1.0), l3=st.floats(0.3, 1.0))
@example(n1=4, n2=4, l1=0.5, l3=0.5)  # the cycles' transposition joins more labels
@example(n1=4, n2=6, l1=0.3, l3=0.77)  # not coprime
@example(n1=2, n2=1, l1=0.5, l3=1 / math.sqrt(2))
@example(n1=1, n2=1, l1=1.0, l3=0.998046875)  # factors misses two of three roots in 0.006
@example(n1=1, n2=1, l1=1.0, l3=0.99999)  # factors merges three roots in 3e-5 into one
def test_certificates_of_random_tori(n1, n2, l1, l3):
    # every class holds the conjugate and the reflection pairs of its
    # labels, and `spectrum` certifies its root count.  `factors` agrees
    # with it and certifies its count, or refuses two roots in one cell
    # (GridTooCoarse), or spectrum has two roots closer than the real
    # locator's grid step 0.005, which `factors` may merge or miss: the
    # known limits of its real locator
    flags = ["--n1", str(n1), "--n2", str(n2), "--l1", repr(l1), "--l3", repr(l3)]
    with tempfile.TemporaryDirectory() as tmp:
        doc, full, parts = (str(Path(tmp) / name) for name in ("torus.json", "full.csv", "factors.csv"))
        runner = CliRunner()
        assert runner.invoke(main, ["build", "product", *flags, "-o", doc]).exit_code == 0
        res = runner.invoke(main, ["spectrum", doc, "--kmax", "5", "-o", full])
        assert res.exit_code == 0, res.output
        spectrum = io.load_spectrum(full)
        assert int(spectrum.meta["root_count"]) == int(spectrum.meta["eigenphase_count"]) == spectrum.count()

        systems, first = _systems_from_doc(doc)
        labels = [tuple(map(int, name.strip("()").split(","))) for name in systems]
        class_of = dict(zip(labels, first.tolist()))
        for label in labels:
            for key in (_conjugate_key, _reflection_key):
                partners = {other for other in labels if key(other, (n1, n2)) == key(label, (n1, n2))}
                assert {class_of[other] for other in partners} == {class_of[label]}, (label, key.__name__)

        res = runner.invoke(main, ["factors", *flags, "--kmax", "5", "-o", parts])
        if res.exit_code == 2:
            assert "error: GridTooCoarse" in res.output
            return
        assert res.exit_code == 0, res.output
        meta = io.load_spectrum(parts).meta
        compared = runner.invoke(main, ["compare", full, parts, "--tol", "1e-6"])
        if compared.exit_code != 0 or int(meta["root_count"]) != int(meta["eigenphase_count"]):
            assert np.min(np.diff(spectrum.ks()), initial=np.inf) < 0.005, (compared.output, meta)
