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
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qgsym import (
    UnitaryFamily,
    build_secular_system,
    character_blocks,
    circulant_graph,
    io,
    merge_spectra,
    secular_det,
    secular_product,
    standard_conditions,
    torus_action,
)
from qgsym import cli
from qgsym.cli import _systems_from_doc, main
from qgsym.scattering import secular_dets
from qgsym.spectra import isospectral_classes

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

    parts = UnitaryFamily(list(blocks.values())).roots(10.0)
    want = merge_spectra(parts, np.arange(parts.members), [_name(labels) for labels in blocks], tol=1e-7)
    assert (got.order.tolist(), got.source) == (want.order.tolist(), want.source)
    assert np.abs(got.k - want.k).max() <= 1e-12
    # one run per class: the runs of the classes' first labels
    first = _systems_from_doc(path)[1]
    assert int(got.meta["evaluations"]) == parts.meta["evaluations"][first == np.arange(len(first))].sum()
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


@pytest.mark.parametrize("build, pairs", [
    (lambda: torus_action(4, 6, 0.77, 0.5), 14),  # even orders: 4 self-conjugate labels
    (lambda: torus_action(2, 2, 1.0, 0.5), 4),  # every label self-conjugate
    (lambda: torus_action(1, 5, 1.0, 0.61), 3),
    (lambda: torus_action(1, 1, 1.0, 0.61), 1),
    (lambda: circulant_graph(12, [3, 4], [1.0, 1.4272320]), 7),
    (lambda: circulant_graph(8, [1, 3, 4], [1.0, 0.77, 1.3]), 5),  # the antipodal jump
    (lambda: torus_action(3, 4, L3, L1), 7),  # the 3x4 document
    (lambda: torus_action(16, 16, 1.0, 0.5 * 0.7317), 130),  # the 16x16 document
], ids=["4x6", "2x2", "1x5", "1x1", "C12(3,4)", "C8(1,3,4)", "3x4", "16x16"])
def test_probing_one_label_per_conjugate_pair_gives_the_classes_of_every_label(tmp_path, monkeypatch, build, pairs):
    # `_systems_from_doc` probes the lower label of each pair {l, -l} alone,
    # and its classes are those of probing every label
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n = 1, 2 cycles are multigraphs
        g, action = build()
    path, blocks = _document(tmp_path, g, action)
    labels, systems = list(blocks), list(blocks.values())
    want = isospectral_classes(secular_dets(systems), len(systems), systems[0].lengths, systems[0].S.nbytes)
    lower = [i for i, l in enumerate(labels) if i <= labels.index(_conjugate(l, action.orders))]
    probed = []
    monkeypatch.setattr(cli, "secular_dets", lambda family: probed.append(family) or secular_dets(family))
    got = _systems_from_doc(path)[1]
    assert got.tolist() == want.tolist()
    (family,) = probed
    assert len(family) == len(lower) == pairs
    assert all(np.array_equal(block.S, systems[i].S) for block, i in zip(family, lower))


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
@example(n1=1, n2=1, l1=1.0, l3=0.998046875)  # three roots within 0.006 of pi
@example(n1=1, n2=1, l1=1.0, l3=0.99999)  # three roots within 3e-5 of pi
def test_certificates_of_random_tori(n1, n2, l1, l3):
    # every class holds the conjugate and the reflection pairs of its
    # labels, `spectrum` certifies its root count, and so does `factors`,
    # which agrees with it
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
        assert res.exit_code == 0, res.output
        meta = io.load_spectrum(parts).meta
        assert int(meta["root_count"]) == int(meta["eigenphase_count"])
        compared = runner.invoke(main, ["compare", full, parts, "--tol", "1e-6"])
        assert compared.exit_code == 0, (compared.output, meta)


def _factors_equal_spectrum(flags, kmax):
    """`factors` at `kmax` equals `spectrum` of the product document in rows
    and orders, with k within 1e-9, and its root count is certified."""
    with tempfile.TemporaryDirectory() as tmp:
        doc, full, parts = (str(Path(tmp) / name) for name in ("torus.json", "full.csv", "factors.csv"))
        runner = CliRunner()
        assert runner.invoke(main, ["build", "product", *flags, "-o", doc]).exit_code == 0
        for command, out in ((["spectrum", doc], full), (["factors", *flags], parts)):
            res = runner.invoke(main, [*command, "--kmax", repr(kmax), "-o", out])
            assert res.exit_code == 0, res.output
        want, got = io.load_spectrum(full), io.load_spectrum(parts)
    assert int(got.meta["root_count"]) == int(got.meta["eigenphase_count"]) == want.count()
    assert got.order.tolist() == want.order.tolist()
    assert np.abs(got.k - want.k).max(initial=0.0) <= 1e-9


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(torus=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 4), (4, 4)]), j=st.integers(1, 28))
@example(torus=(2, 2), j=10)
@example(torus=(4, 4), j=13)
@example(torus=(3, 4), j=22)
@example(torus=(2, 2), j=25)
def test_factors_at_near_commensurate_lengths(torus, j):
    # at L1 = 1 and L3 = 1 - 2^-j, clusters of roots closer than the grid
    # step gather at multiples of pi
    flags = ["--n1", str(torus[0]), "--n2", str(torus[1]), "--l1", "1.0", "--l3", repr(1.0 - 2.0**-j)]
    _factors_equal_spectrum(flags, 5.0)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    torus=st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 4)]),
    l3=st.floats(0.55, 0.95),
    kmax=st.floats(0.006, 12.0),
)
@example(torus=(2, 3), l3=0.61, kmax=6.968957447774937)  # 1e-11 above a root of the (0,1) factor
@example(torus=(2, 3), l3=0.61, kmax=6.968957447754937)  # 1e-11 below it
@example(torus=(2, 3), l3=0.61, kmax=0.007)  # below every pole
@example(torus=(1, 2), l3=0.61, kmax=math.pi)  # a sine zero on k_max
@example(torus=(1, 2), l3=0.61, kmax=math.pi + 1e-14)  # one 1e-14 below k_max
@example(torus=(2, 2), l3=0.5, kmax=2 * math.pi)  # zeros of both sines on k_max
def test_factors_at_kmax_off_the_grid(torus, l3, kmax):
    # the bracket of G that k_max cuts holds a root exactly when G(k_max) <=
    # 0, and a sine zero at or just below k_max is a root of the order rule
    # that the eigenphase count may not hold; a root on either side of
    # k_max is kept or left out as the unitary locator of `spectrum` does
    flags = ["--n1", str(torus[0]), "--n2", str(torus[1]), "--l1", "0.5", "--l3", repr(l3)]
    _factors_equal_spectrum(flags, kmax)
