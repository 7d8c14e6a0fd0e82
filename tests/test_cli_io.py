import contextlib
import csv
import gc
import io as _io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qgsym
from qgsym import (
    QuotientSpec, circulant_graph, cycle_graph, cycle_product, quotient_graph, standard_conditions, torus_action,
    validate_action,
)
from qgsym import cli, io, scattering
from qgsym.cli import main
from qgsym.decompose import SampledFunction, l2_norm_sq, project
from qgsym.errors import DanglingEndpoint, InvalidAction, UnsupportedCondition, UnsupportedFormat
from qgsym.locators import UnitaryFamily
from qgsym.io import (
    doc_to_graph,
    graph_to_doc,
    load_graph,
    load_spectrum,
    read_spectrum_csv,
    save_graph,
    save_spectrum,
    write_spectrum_csv,
)
from qgsym.scattering import secular_det
from qgsym.spectra import MAX_BATCH_BYTES, Spectrum, _k_grid


def test_graph_json_roundtrip(tmp_path):
    g, a = cycle_graph(4, 1.5)
    path = str(tmp_path / "g.json")
    save_graph(path, g, conditions=None, action=a)
    g2, conds2, a2 = load_graph(path)
    assert g2.n_vertices == g.n_vertices
    assert g2.ends.tolist() == g.ends.tolist()
    assert g2.lengths.tolist() == g.lengths.tolist()
    assert conds2 is None
    assert a2.orders == a.orders
    assert a2.generators == a.generators


def test_graph_doc_with_quasiperiodic_conditions():
    spec = QuotientSpec(3, 4, 0.5, 1.0, 1, 2)
    g, conds = quotient_graph(spec)
    doc = graph_to_doc(g, conditions=conds)
    g2, conds2, _ = doc_to_graph(doc)
    assert len(conds2) == len(conds)
    qps = [c for c in conds2 if hasattr(c, "tau")]
    assert len(qps) == 2
    # phases survive as exact (re, im) pairs
    key = lambda z: (z.real, z.imag)
    orig = sorted((complex(c.tau) for c in conds if hasattr(c, "tau")), key=key)
    back = sorted((complex(c.tau) for c in qps), key=key)
    assert orig == back


def test_spectrum_csv_roundtrip_exact(tmp_path):
    s = Spectrum([math.pi, 1.234567890123456789], [2, 1], ["full", "(0,1)"], 10.0, {"grid_step": 0.05})
    path = str(tmp_path / "s.csv")
    save_spectrum(path, s)
    s2 = load_spectrum(path)
    assert s2.k_max == s.k_max
    by = np.argsort(s.k, kind="stable")
    assert s2.k.tolist() == s.k[by].tolist() and s2.order.tolist() == s.order[by].tolist()
    assert s2.source == tuple(s.source[i] for i in by)


_ORDERS, _LENGTHS = st.integers(1, 6), st.floats(0.05, 2.0)


def _build_product(path, n1, n2, l1, l3):
    flags = ["--n1", str(n1), "--n2", str(n2), "--l1", repr(l1), "--l3", repr(l3)]
    res = CliRunner().invoke(main, ["build", "product", *flags, "-o", path])
    assert res.exit_code == 0, res.output


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n1=_ORDERS, n2=_ORDERS, l1=_LENGTHS, l3=_LENGTHS)
def test_product_document_round_trips(n1, n2, l1, l3):
    # the `build product` document loads back to the graph, conditions and
    # action it was built from; loading checks the action, and it validates
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "torus.json")
        _build_product(path, n1, n2, l1, l3)
        g, conds, action = load_graph(path)
    want_g, want_action = cycle_product(n1, n2, 2.0 * l3, 2.0 * l1)
    assert g == want_g
    assert conds == standard_conditions(want_g)
    assert action == want_action
    assert validate_action(g, action).valid


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 12),
    jumps=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
    lens=st.lists(_LENGTHS, min_size=3, max_size=3),
)
def test_cycle_and_circulant_documents_round_trip(n, jumps, lens):
    # as the product document: the `build cycle` and `build circulant`
    # documents load back to the graph, conditions and action they were
    # built from, and the action validates as the built one does (the
    # antipodal jump alone reverses its edges, so some circulant actions
    # are not free)
    jumps = [j for j in jumps if 2 * j <= n]
    runs = {"cycle": (["--n", str(n), "--len", repr(lens[0])], lambda: cycle_graph(n, lens[0]))}
    if jumps:
        flags = ["--n", str(n), "--jumps", ",".join(map(str, jumps)), "--lens", ",".join(map(repr, lens[: len(jumps)]))]
        runs["circulant"] = (flags, lambda: circulant_graph(n, jumps, lens[: len(jumps)]))
    with tempfile.TemporaryDirectory() as tmp:
        for kind, (flags, build) in runs.items():
            path = str(Path(tmp) / f"{kind}.json")
            res = CliRunner().invoke(main, ["build", kind, *flags, "-o", path])
            assert res.exit_code == 0, res.output
            g, conds, action = load_graph(path)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # n = 1, 2 cycles are multigraphs
                want_g, want_action = build()
            assert g == want_g
            assert conds == standard_conditions(want_g)
            assert action == want_action
            assert validate_action(g, action) == validate_action(want_g, want_action)


def test_cli_frees_the_streams_it_writes_to(tmp_path):
    # click.echo with no stream caches a wrapper per stream, and for an
    # in-memory stream that wrapper is the stream itself, so every call run
    # in-process with a fresh stream (as perfbench and CliRunner run them)
    # kept its buffer for good; the scan is refused, so it writes to stderr
    doc = str(tmp_path / "cycle.json")
    refs, build = [], ["build", "cycle", "--n", "3", "--len", "1", "-o", doc]
    for args in (build, ["scan", doc, "--kmax", "0.5", "--grid", "1"]):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args, standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == 2
        assert "wrote" in out.getvalue() or "error: GridTooCoarse" in err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() for r in refs] == [None] * 4


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n1=_ORDERS, n2=_ORDERS, l1=_LENGTHS, l3=_LENGTHS)
def test_spectrum_csv_round_trips(n1, n2, l1, l3):
    # a `spectrum` CSV loads to roots that save back to the same rows, and
    # load again to the same spectrum, every k exact
    with tempfile.TemporaryDirectory() as tmp:
        doc, out, again = (str(Path(tmp) / name) for name in ("torus.json", "out.csv", "again.csv"))
        _build_product(doc, n1, n2, l1, l3)
        res = CliRunner().invoke(main, ["spectrum", doc, "--kmax", "3", "-o", out])
        assert res.exit_code == 0, res.output
        s = load_spectrum(out)
        save_spectrum(again, s)
        s2 = load_spectrum(again)
        rows = [[line for line in open(path) if not line.startswith("#")] for path in (out, again)]
    assert rows[0] == rows[1]
    assert s2 == s and s2.k.tolist() == s.k.tolist() and s2.order.tolist() == s.order.tolist()
    assert s2.source == s.source and s2.k_max == s.k_max == 3.0
    assert s.count() == int(s.meta["root_count"]) == int(s.meta["eigenphase_count"])
    assert s2.meta.keys() == s.meta.keys()


def test_spectrum_csv_saves_back_byte_identical(tmp_path):
    # header values load as the values written, k_max only as the
    # spectrum's k_max, so save -> load -> save writes the same bytes
    g, action = torus_action(3, 4, 1.0, 0.5)
    doc = str(tmp_path / "torus.json")
    save_graph(doc, g, standard_conditions(g), action)
    runs = {
        "spectrum": ["spectrum", doc, "--kmax", "10"],
        "factors": ["factors", "--n1", "3", "--n2", "4", "--l1", "0.5", "--l3", "1.0", "--kmax", "10"],
    }
    for name, args in runs.items():
        out, again = str(tmp_path / f"{name}.csv"), str(tmp_path / f"{name}-again.csv")
        res = CliRunner().invoke(main, [*args, "-o", out])
        assert res.exit_code == 0, res.output
        s = load_spectrum(out)
        assert "k_max" not in s.meta and s.k_max == 10.0
        assert s.meta["root_count"] == s.meta["eigenphase_count"] == 108
        save_spectrum(again, s)
        assert Path(again).read_bytes() == Path(out).read_bytes()
    assert load_spectrum(str(tmp_path / "spectrum.csv")).meta["blocks"] == 12


def test_spectrum_csv_contains_lambda_column():
    s = Spectrum([2.0], [1], ["x"], 5.0)
    buf = _io.StringIO()
    write_spectrum_csv(buf, s)
    text = buf.getvalue()
    assert "k,lambda,order,source_label" in text
    assert "4.0" in text  # lambda = k^2


def test_cli_build_and_spectrum(tmp_path):
    runner = CliRunner()
    gpath = str(tmp_path / "c3.json")
    res = runner.invoke(main, ["build", "cycle", "--n", "3", "--len", "1.0", "-o", gpath])
    assert res.exit_code == 0, res.output
    assert json.load(open(gpath))["format_version"] == 1

    spath = str(tmp_path / "c3.csv")
    res = runner.invoke(main, ["spectrum", gpath, "--kmax", "7", "-o", spath])
    assert res.exit_code == 0, res.output
    s = load_spectrum(spath)
    want = [2 * math.pi / 3, 4 * math.pi / 3, 2 * math.pi]
    assert [round(k, 6) for k in s.k.tolist()] == [round(w, 6) for w in want]


@pytest.mark.parametrize("action", [None, {"orders": [2], "generators": [
    {"vertex_perm": [1, 0], "edge_perm": [], "edge_flip": []}]}], ids=["dense", "blocks"])
def test_cli_spectrum_of_a_graph_with_no_edges(tmp_path, action):
    # the determinant of no bonds is 1: no roots, and a scan of 1.0
    doc = {"format_version": 1, "vertices": [{"id": 0}, {"id": 1}], "edges": []}
    if action is not None:
        doc["action"] = action
    gpath, spath, scan = (str(tmp_path / n) for n in ("empty.json", "empty.csv", "scan.csv"))
    with open(gpath, "w") as fh:
        json.dump(doc, fh)
    res = CliRunner().invoke(main, ["spectrum", gpath, "-o", spath])
    assert res.exit_code == 0, res.output
    s = load_spectrum(spath)
    assert len(s.k) == len(s.order) == len(s.source) == 0 and s.meta["root_count"] == s.meta["eigenphase_count"] == 0
    assert s.meta["blocks"] == (1 if action is None else 2)
    res = CliRunner().invoke(main, ["scan", gpath, "--kmax", "0.05", "-o", scan])
    assert res.exit_code == 0, res.output
    assert [line.split(",")[1] for line in open(scan).read().split()[1:]] == ["1.0"] * 5


def test_cli_factors_and_compare(tmp_path):
    runner = CliRunner()
    fpath = str(tmp_path / "factors.csv")
    args = ["factors", "--n1", "2", "--n2", "2", "--l1", "0.5", "--l3", "1.0",
            "--kmax", "7", "-o", fpath]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    s = load_spectrum(fpath)
    assert s.count() > 0

    # a spectrum is isospectral to itself
    res = runner.invoke(main, ["compare", fpath, fpath])
    assert res.exit_code == 0, res.output
    assert "isospectral" in res.output.lower()

    # and not to a shifted copy
    shifted = Spectrum(s.k + 0.5, s.order, s.source, s.k_max)
    spath = str(tmp_path / "shifted.csv")
    save_spectrum(spath, shifted)
    res = runner.invoke(main, ["compare", fpath, spath])
    assert res.exit_code == 1


def test_cli_build_product_is_isospectral_to_factors(tmp_path):
    runner = CliRunner()
    gpath, full, parts = (str(tmp_path / n) for n in ("torus.json", "full.csv", "factors.csv"))
    flags = ["--n1", "2", "--n2", "3", "--l1", "0.5", "--l3", "1.0"]
    steps = [
        ["build", "product", *flags, "-o", gpath],
        ["spectrum", gpath, "--kmax", "6", "-o", full],
        ["factors", *flags, "--kmax", "6", "-o", parts],
        ["compare", full, parts],
    ]
    for args in steps:
        res = runner.invoke(main, args)
        assert res.exit_code == 0, (args[0], res.output)


def test_cli_block_and_dense_paths_agree(tmp_path):
    # the `build product` document solves one character block per label; a
    # copy without its action takes the dense path
    runner = CliRunner()
    blocks, dense = str(tmp_path / "torus.json"), str(tmp_path / "dense.json")
    res = runner.invoke(main, ["build", "product", "--n1", "2", "--n2", "3", "--l1", "0.5",
                               "--l3", "1.0", "-o", blocks])
    assert res.exit_code == 0, res.output
    doc = json.load(open(blocks))
    del doc["action"]
    with open(dense, "w") as fh:
        json.dump(doc, fh)

    spectra, scans = {}, {}
    for name, path in (("blocks", blocks), ("dense", dense)):
        out, scan = str(tmp_path / f"{name}.csv"), str(tmp_path / f"{name}-scan.csv")
        for args in (["spectrum", path, "--kmax", "6", "-o", out], ["scan", path, "--kmax", "6", "-o", scan]):
            res = runner.invoke(main, args)
            assert res.exit_code == 0, (args[0], res.output)
        spectra[name] = load_spectrum(out)
        with open(scan) as fh:
            scans[name] = [tuple(map(float, line.split(","))) for line in list(fh)[1:]]

    res = runner.invoke(main, ["compare", str(tmp_path / "blocks.csv"), str(tmp_path / "dense.csv"),
                               "--tol", "1e-9"])
    assert res.exit_code == 0, res.output
    assert spectra["blocks"].count() == spectra["dense"].count() > 0
    labels = {f"({s},{t})" for s in range(2) for t in range(3)}
    for source in spectra["blocks"].source:  # merged roots join their labels with commas
        assert re.fullmatch(r"\(\d,\d\)(,\(\d,\d\))*", source), source
        assert set(re.findall(r"\(\d,\d\)", source)) <= labels
    assert set(spectra["dense"].source) == {"full"}
    for name, blocks_count in (("blocks", 6), ("dense", 1)):
        meta = spectra[name].meta
        assert {"grid_step", "tol", "k_min"} <= set(meta) and meta["blocks"] == blocks_count

    assert len(scans["blocks"]) == len(scans["dense"]) == 600
    for (k, val), (k_ref, ref) in zip(scans["blocks"], scans["dense"]):
        assert k == k_ref and abs(val - ref) <= 1e-10 * ref


def test_cli_factors_drop_roots_above_kmax(tmp_path):
    # the (0,0) factor's root 2*pi/3 = 2.0944 lies within one grid step above
    # k_max, past the real locator's grid, which ends at k_max
    runner = CliRunner()
    gpath, full, parts = (str(tmp_path / n) for n in ("torus.json", "full.csv", "factors.csv"))
    flags = ["--n1", "2", "--n2", "2", "--l1", "0.5", "--l3", "1.0"]
    steps = [
        ["build", "product", *flags, "-o", gpath],
        ["spectrum", gpath, "--kmax", "2.0935", "-o", full],
        ["factors", *flags, "--kmax", "2.0935", "-o", parts],
        ["compare", full, parts],
    ]
    for args in steps:
        res = runner.invoke(main, args)
        assert res.exit_code == 0, (args[0], res.output)
    assert load_spectrum(parts).k.max() <= 2.0935


def _spectrum_of_doc(tmp_path, doc):
    gpath = str(tmp_path / "g.json")
    with open(gpath, "w") as fh:
        json.dump(doc, fh)
    return CliRunner().invoke(main, ["spectrum", gpath, "-o", str(tmp_path / "s.csv")])


def _assert_usage_error(res, kind):
    assert res.exit_code == 2
    try:
        err_text = res.stderr
    except ValueError:
        err_text = ""
    assert f"error: {kind}" in res.output + err_text


def test_cli_rejects_unknown_condition_type(tmp_path):
    spec = QuotientSpec(3, 4, 0.5, 1.0, 1, 2)
    doc = graph_to_doc(*quotient_graph(spec))
    doc["conditions"][1]["type"] = "robin"
    with pytest.raises(UnsupportedCondition):
        doc_to_graph(doc)
    _assert_usage_error(_spectrum_of_doc(tmp_path, doc), "UnsupportedCondition")


def test_cli_rejects_unknown_format_version(tmp_path):
    g, a = cycle_graph(3, 1.0)
    doc = graph_to_doc(g, action=a)
    doc["format_version"] = 99
    with pytest.raises(UnsupportedFormat):
        doc_to_graph(doc)
    _assert_usage_error(_spectrum_of_doc(tmp_path, doc), "UnsupportedFormat")


def test_cli_build_quotient_and_scan(tmp_path):
    runner = CliRunner()
    gpath = str(tmp_path / "q.json")
    res = runner.invoke(main, [
        "build", "quotient", "--n1", "3", "--n2", "4", "--l1", "0.5", "--l3", "1.0",
        "--s", "1", "--t", "2", "-o", gpath,
    ])
    assert res.exit_code == 0, res.output
    doc = json.load(open(gpath))
    assert len(doc["edges"]) == 4
    assert any(c["type"] == "quasi_periodic" for c in doc["conditions"])

    out = str(tmp_path / "scan.csv")
    res = runner.invoke(main, ["scan", gpath, "--kmax", "5", "--grid", "0.1", "-o", out])
    assert res.exit_code == 0, res.output
    lines = [l for l in open(out).read().splitlines() if l and not l.startswith("#")]
    assert len(lines) >= 50


def test_cli_project_writes_samples(tmp_path):
    runner = CliRunner()
    out = str(tmp_path / "proj.csv")
    res = runner.invoke(main, [
        "project", "--n1", "2", "--n2", "3", "--l1", "0.5", "--l3", "1.0",
        "--s", "1", "--t", "2", "--samples", "20", "-o", out,
    ])
    assert res.exit_code == 0, res.output
    with open(out) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 20 * 4 * 2 * 3  # 4*n1*n2 half-edges
    for row in rows:
        float(row["re"]), float(row["im"])
    # as in `build product`, first-factor half-edges (edge 0 among them) have length l3
    xs = [float(row["x"]) for row in rows if row["edge"] == "0"]
    assert xs == pytest.approx([(m + 0.5) * 1.0 / 20 for m in range(20)], abs=1e-15)


def _one_format_per_row(comp, label, samples):
    """The `project` CSV of `comp` written with one `repr` f-string per row."""
    lines = [f"# component {label}; norm_sq = {l2_norm_sq(comp)!r}\n", "edge,sample_index,x,re,im\n"]
    for e, length in enumerate(comp.graph.lengths.tolist()):
        for m in range(samples):
            x = (m + 0.5) * length / samples
            val = complex(comp.values[e, m])
            lines.append(f"{e},{m},{x!r},{val.real!r},{val.imag!r}\n")
    return "".join(lines)


@pytest.mark.parametrize(
    "n1, n2, s, t",
    [(2, 3, s, t) for s in range(2) for t in range(3)] + [(4, 4, 0, 0), (4, 4, 2, 2), (4, 4, 1, 3)],
)
def test_cli_project_bytes_equal_one_format_per_row(tmp_path, monkeypatch, n1, n2, s, t):
    # the writer formats whole lines with array arithmetic; its bytes equal
    # one f-string per row of the component that `project` returned, at labels
    # whose rows repeat heavily and at labels whose rows hardly repeat
    got = []
    monkeypatch.setattr(cli, "project", lambda *args: got.append(project(*args)) or got[-1])
    out = str(tmp_path / "proj.csv")
    res = CliRunner().invoke(main, [
        "project", "--n1", str(n1), "--n2", str(n2), "--l1", "0.5", "--l3", "1.3",
        "--s", str(s), "--t", str(t), "--samples", "7", "--seed", "4", "-o", out,
    ])
    assert res.exit_code == 0, res.output
    (comp,) = got
    assert len(set(comp.graph.lengths.tolist())) == 2
    with open(out) as fh:
        assert fh.read() == _one_format_per_row(comp, f"({s},{t})", 7)


# floats for every branch of `io._repr_bytes`: signed zeros; 1 to 17 digits;
# the ends of [1e-4, 1), the floats beside them and beside 1e-3 and 1e-2;
# powers of two; and through `repr`, floats >= 1 or < 1e-4, nan and infinities
REPR_CASES = [
    0.0, -0.0, 0.1, -0.25, 0.5, 1 / 3, -2 / 3, 0.30000000000000004, 0.1234567890123456, 0.12345678901234568,
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), math.nextafter(1.0, 0.0), -0.001,
    math.nextafter(0.001, 0.0), math.nextafter(0.01, 1.0), 2.0**-10, 0.75, 1.0, -1.5, 123.456, 1e16, 1e-5,
    -3.0e-7, 5e-324, math.nan, math.inf, -math.inf, 0.0123, 0.9999999999999999, 0.000123456789,
]


def test_cli_project_writes_every_float_as_its_repr(tmp_path, monkeypatch):
    # edges 0 and 1 (length l3) differ only in the sign of a zero and edge 12
    # (length l1) repeats edge 0's row at other x; seven samples per pass, so
    # the passes split edges and the last one is short
    values = np.array(REPR_CASES).view(np.complex128)  # re and im in turn
    got = []

    def fake_project(f, action, irrep):
        rows = np.zeros_like(f.values)
        rows[[0, 2, 3, 4]] = values.reshape(4, 4)
        rows[[1, 12]] = rows[0]
        rows[1, 0] = complex(-0.0, rows[0, 0].imag)
        got.append(SampledFunction(f.graph, rows))
        return got[-1]

    monkeypatch.setattr(cli, "project", fake_project)
    monkeypatch.setattr(io, "MAX_BATCH_BYTES", 16 * 7)
    out = str(tmp_path / "proj.csv")
    res = CliRunner().invoke(main, [
        "project", "--n1", "2", "--n2", "3", "--l1", "0.5", "--l3", "1.3",
        "--s", "0", "--t", "0", "--samples", "4", "-o", out,
    ])
    assert res.exit_code == 0, res.output
    (comp,) = got
    lengths = comp.graph.lengths
    assert lengths[0] == lengths[1] != lengths[12] and len(lengths) * 4 % 7 != 0
    with open(out) as fh:
        text = fh.read()
    assert text == _one_format_per_row(comp, "(0,0)", 4)
    lines, x = text.splitlines(), 0.5 * 1.3 / 4
    assert lines[2] == f"0,0,{x!r},0.0,-0.0" and lines[6] == f"1,0,{x!r},-0.0,-0.0"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-4, 1.0, exclude_max=True) | st.floats(-1.0, -1e-4, exclude_min=True) | st.floats(),
                max_size=50))
def test_repr_bytes_are_the_reprs(xs):
    fields = io._repr_bytes(np.array(xs, dtype=np.float64))
    assert [bytes(f).replace(b"\0", b"").decode() for f in fields] == [repr(x) for x in xs]


def test_cli_scan_equals_the_per_block_determinant_loop(tmp_path, monkeypatch):
    # `scan` takes every class's determinant from stacked `secular_dets`
    # calls of at most MAX_BATCH_BYTES of matrices and never calls
    # `secular_det`; its bytes equal one `secular_det` per class and k,
    # multiplied in the same order
    gpath, out = str(tmp_path / "torus.json"), str(tmp_path / "scan.csv")
    g, action = torus_action(3, 4, 1.0, 0.5)
    save_graph(gpath, g, standard_conditions(g), action)
    systems, first = cli._systems_from_doc(gpath)
    blocks, sizes = list(systems.values()), Counter(first.tolist())
    ref = "k,abs_secular\n" + "".join(
        f"{float(k)!r},{abs(math.prod(secular_det(blocks[i], float(k)) ** n for i, n in sizes.items()))!r}\n"
        for k in _k_grid(0.05, 5.0 + 0.025, 0.05)
    )

    def one_at_a_time(*args):
        raise AssertionError("scan evaluates its determinants in stacks")

    calls, stacked = [], scattering.secular_dets

    def counted(systems):
        fn = stacked(systems)
        return lambda which, z: calls.append((len(systems), len(z))) or fn(which, z)

    monkeypatch.setattr(cli, "secular_det", one_at_a_time)
    monkeypatch.setattr(scattering, "secular_det", one_at_a_time)
    monkeypatch.setattr(cli, "secular_dets", counted)
    res = CliRunner().invoke(main, ["scan", gpath, "--kmax", "5", "--grid", "0.05", "-o", out])
    assert res.exit_code == 0, res.output
    with open(out) as fh:
        assert fh.read() == ref
    # the 12 blocks are grouped into classes at the probe points first
    scans = [points for n, points in calls if n == len(sizes)]
    assert 1 < len(sizes) < 12 and all(n in (12, len(sizes)) for n, _ in calls)
    assert sum(scans) == 100 * len(sizes) and max(scans) * blocks[0].S.nbytes <= MAX_BATCH_BYTES


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qgsym.__file__)))
    code = "import sys, qgsym.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_reports_domain_errors(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, [
        "build", "circulant", "--n", "12", "--jumps", "3,3", "--lens", "1,1",
    ])
    assert res.exit_code == 2
    try:
        err_text = res.stderr
    except ValueError:
        err_text = ""
    assert "error" in (res.output + err_text).lower()


@pytest.mark.parametrize(
    "field, value",
    [("vertex_perm", [0, 0, 0, 0]), ("edge_perm", [1, 0])],
    ids=["vertex-map-not-a-permutation", "edge-map-too-short"],
)
def test_cli_rejects_invalid_stored_action(tmp_path, field, value):
    g, a = cycle_graph(4, 1.0)
    doc = graph_to_doc(g, action=a)
    doc["action"]["generators"][0][field] = value
    with pytest.raises(InvalidAction):
        doc_to_graph(doc)
    _assert_usage_error(_spectrum_of_doc(tmp_path, doc), "InvalidAction")


@pytest.mark.parametrize("command", ["spectrum", "scan"])
@pytest.mark.parametrize("order", [0, -2])
def test_cli_rejects_an_action_order_below_one(tmp_path, command, order):
    # order 0 left an empty element table, and -2 indexed a missing power
    g, a = cycle_graph(4, 1.0)
    doc = graph_to_doc(g, action=a)
    doc["action"]["orders"] = [order]
    with pytest.raises(InvalidAction, match="not a positive integer"):
        doc_to_graph(doc)
    gpath, out = str(tmp_path / "g.json"), str(tmp_path / "out.csv")
    with open(gpath, "w") as fh:
        json.dump(doc, fh)
    _assert_usage_error(CliRunner().invoke(main, [command, gpath, "-o", out]), "InvalidAction")
    assert not os.path.exists(out)


@pytest.mark.parametrize("damage", [
    "not-json", "no-vertices", "no-edges", "not-an-object", "float-edge-id", "fractional-endpoint",
    "duplicate-edge-id", "fractional-vertex-perm", "string-edge-perm", "fractional-order", "non-boolean-flip",
    "float-condition-vertex", "float-condition-edges",
])
def test_cli_rejects_malformed_documents(tmp_path, damage):
    # ids, endpoints, the action's orders and permutations, and the vertex
    # and edges of a condition are JSON integers, the action's flips JSON
    # booleans, and the edge ids a permutation of 0..m-1: `"id": 0.0` is no
    # id, `"u": 1.5` is not read as vertex 1, and `"vertex": 1.0` on a
    # quasi-periodic condition once ended in an IndexError traceback
    if "condition" in damage:
        g, conds = quotient_graph(QuotientSpec(3, 4, 0.5, 1.0, 1, 2))
        doc = graph_to_doc(g, conds)
        qp = next(c for c in doc["conditions"] if c["type"] == "quasi_periodic")
    else:
        g, a = cycle_graph(3, 1.0)
        doc = graph_to_doc(g, action=a)
        gm = doc["action"]["generators"][0]
    kind = DanglingEndpoint if damage == "duplicate-edge-id" else UnsupportedFormat
    gpath = str(tmp_path / "g.json")
    with open(gpath, "w") as fh:
        if damage == "not-json":
            fh.write(json.dumps(doc)[:-1])
        elif damage == "not-an-object":
            json.dump([doc], fh)
        else:
            if damage == "float-edge-id":
                doc["edges"][0]["id"] = 0.0
            elif damage == "fractional-endpoint":
                doc["edges"][1]["u"] = 1.5
            elif damage == "duplicate-edge-id":
                doc["edges"][1]["id"] = 0
            elif damage == "fractional-vertex-perm":
                gm["vertex_perm"] = [1.5, 2, 0]
            elif damage == "string-edge-perm":
                gm["edge_perm"] = ["1", 2, 0]
            elif damage == "fractional-order":
                doc["action"]["orders"] = [3.9]
            elif damage == "non-boolean-flip":
                gm["edge_flip"] = ["", 0, None]
            elif damage == "float-condition-vertex":
                qp["vertex"] = float(qp["vertex"])
            elif damage == "float-condition-edges":
                qp["edges"] = [float(e) for e in qp["edges"]]
            else:
                del doc[damage[3:]]
            json.dump(doc, fh)
    with pytest.raises(kind):
        load_graph(gpath)
    res = CliRunner().invoke(main, ["spectrum", gpath, "-o", str(tmp_path / "s.csv")])
    _assert_usage_error(res, kind.__name__)


def test_a_document_places_each_edge_at_the_row_of_its_id(tmp_path):
    # the edges of a document may come in any order: the action's edge
    # permutation and the conditions name edges by id, so a product document
    # with its edge list reversed is the same graph with the same spectrum
    gpath, rpath = str(tmp_path / "torus.json"), str(tmp_path / "reversed.json")
    _build_product(gpath, 3, 4, 0.5, 1.0)
    with open(gpath) as fh:
        doc = json.load(fh)
    doc["edges"].reverse()
    with open(rpath, "w") as fh:
        json.dump(doc, fh)
    assert load_graph(rpath)[0] == load_graph(gpath)[0]
    spectra = []
    for path in (gpath, rpath):
        res = CliRunner().invoke(main, ["spectrum", path, "--kmax", "8", "-o", path + ".csv"])
        assert res.exit_code == 0, res.output
        spectra.append(Path(path + ".csv").read_bytes())
    assert spectra[0] == spectra[1]


TORUS = ["--n1", "2", "--n2", "2", "--l1", "0.5", "--l3", "1.0"]


@pytest.mark.parametrize(
    "args, kind",
    [
        (["factors", *TORUS, "--kmax", "-1"], "NonPositiveParameter"),
        (["factors", *TORUS, "--kmax", "inf"], "NonPositiveParameter"),
        (["factors", "--n1", "0", "--n2", "2", "--l1", "0.5", "--l3", "1.0"], "NonPositiveParameter"),
        (["factors", *TORUS, "--tol", "0"], "NonPositiveParameter"),
        (["factors", "--n1", "2", "--n2", "2", "--l1", "nan", "--l3", "1.0"], "NonPositiveLength"),
        (["factors", "--n1", "2", "--n2", "2", "--l1", "-1", "--l3", "1.0"], "NonPositiveLength"),
        (["factors", "--n1", "2", "--n2", "2", "--l1", "0.5", "--l3", "inf"], "NonPositiveLength"),
        (["spectrum", "GRAPH", "--kmax", "inf"], "NonPositiveParameter"),
        (["spectrum", "GRAPH", "--grid", "0"], "NonPositiveParameter"),
        (["spectrum", "GRAPH", "--tol", "0"], "NonPositiveParameter"),
        (["scan", "GRAPH", "--kmax", "inf"], "NonPositiveParameter"),
        (["scan", "GRAPH", "--grid", "0"], "NonPositiveParameter"),
        (["project", *TORUS, "--s", "0", "--t", "0", "--samples", "0"], "NonPositiveParameter"),
        (["project", *TORUS, "--s", "0", "--t", "0", "--samples", "-1"], "NonPositiveParameter"),
        (["project", "--n1", "1", "--n2", "1", "--l1", "0.5", "--l3", "1.0", "--s", "0", "--t", "0",
          "--samples", "1000000000000"], "GridTooLarge"),
        (["spectrum", "GRAPH", "--kmax", "1e300"], "GridTooLarge"),
        (["factors", *TORUS, "--kmax", "1e300"], "GridTooLarge"),
        (["scan", "GRAPH", "--kmax", "1e300"], "GridTooLarge"),
    ],
    ids=["factors-kmax", "factors-kmax-inf", "factors-n1", "factors-tol", "factors-l1-nan",
         "factors-l1-negative", "factors-l3-inf", "spectrum-kmax-inf", "spectrum-grid", "spectrum-tol",
         "scan-kmax-inf", "scan-grid", "project-samples", "project-samples-negative", "project-samples-huge",
         "spectrum-kmax-huge", "factors-kmax-huge", "scan-kmax-huge"],
)
def test_cli_rejects_out_of_range_flags(tmp_path, args, kind):
    gpath = str(tmp_path / "c3.json")
    g, a = cycle_graph(3, 1.0)
    save_graph(gpath, g, action=a)
    out = str(tmp_path / "out.csv")
    res = CliRunner().invoke(main, [gpath if x == "GRAPH" else x for x in args] + ["-o", out])
    _assert_usage_error(res, kind)
    assert not os.path.exists(out)


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_compare_rejects_a_tolerance_that_is_not_finite_and_positive(tmp_path, tol):
    # a file compared with itself is isospectral at any usable tolerance;
    # -1 and nan would match nothing and report a wrong answer, not an error
    fpath = str(tmp_path / "factors.csv")
    res = CliRunner().invoke(main, ["factors", *TORUS, "--kmax", "7", "-o", fpath])
    assert res.exit_code == 0, res.output
    assert CliRunner().invoke(main, ["compare", fpath, fpath]).exit_code == 0
    res = CliRunner().invoke(main, ["compare", fpath, fpath, "--tol", tol])
    _assert_usage_error(res, "NonPositiveParameter")
    assert "isospectral" not in res.output


@pytest.mark.parametrize(
    "args, kind",
    [
        (["spectrum", "MISSING"], "FileNotFoundError"),
        (["scan", "DIR"], "IsADirectoryError"),
        (["compare", "MISSING", "MISSING"], "FileNotFoundError"),
        (["spectrum", "GRAPH", "--kmax", "2", "-o", "NODIR"], "FileNotFoundError"),
    ],
    ids=["spectrum-missing", "scan-directory", "compare-missing", "spectrum-output-dir-missing"],
)
def test_cli_reports_unusable_paths(tmp_path, args, kind):
    gpath = str(tmp_path / "c3.json")
    g, a = cycle_graph(3, 1.0)
    save_graph(gpath, g, action=a)
    paths = {
        "GRAPH": gpath,
        "MISSING": str(tmp_path / "missing.json"),
        "DIR": str(tmp_path),
        "NODIR": str(tmp_path / "nodir" / "out.csv"),
    }
    _assert_usage_error(CliRunner().invoke(main, [paths.get(x, x) for x in args]), kind)


@pytest.mark.parametrize(
    "row",
    ["1", "abc,1,1,x", "1.0,1.0,x,(0,0)", "1.0,1.0,1.5,(0,0)"],
    ids=["short-row", "non-numeric-k", "non-integer-order", "fractional-order"],
)
def test_cli_compare_rejects_malformed_csv_rows(tmp_path, row):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write(f"# k_max = 5.0\nk,lambda,order,source_label\n{row}\n")
    with pytest.raises(UnsupportedFormat):
        load_spectrum(path)
    _assert_usage_error(CliRunner().invoke(main, ["compare", path, path]), "UnsupportedFormat")


@pytest.mark.parametrize(
    "content",
    [
        b"# k_max = 5.0\nk,lambda,order,source_label\n\xff\xfe,1.0,1,(0,0)\n",
        b"# k_max = 5.0\nk,lambda,order,source_label\n1.0,1.0,-3,(0,0)\n",
        b"# k_max = 5.0\nk,lambda,order,source_label\n1.0,1.0,0,(0,0)\n",
        b"# k_max = 5.0\nk,lambda,order,source_label\nnan,nan,1,(0,0)\n",
        b"# k_max = 5.0\nk,lambda,order,source_label\ninf,inf,1,(0,0)\n",
        b"# k_max = 5.0\nk,lambda,order,source_label\n-1.0,1.0,1,(0,0)\n",
        b"# k_max = nan\nk,lambda,order,source_label\n1.0,1.0,1,(0,0)\n",
        b"# k_max = -3.0\nk,lambda,order,source_label\n1.0,1.0,1,(0,0)\n",
        b"# tol = 1e-10\n# k_max = 0.5\nk,lambda,order,source_label\n1.0,1.0,1,(0,0)\n",
    ],
    ids=["undecodable", "negative-order", "zero-order", "nan-k", "inf-k", "negative-k",
         "nan-kmax", "negative-kmax", "kmax-below-a-root"],
)
def test_cli_compare_rejects_unusable_csv_rows(tmp_path, content):
    # each used to load: undecodable bytes escaped as UnicodeDecodeError, the
    # bad k_max headers made compare answer isospectral=True with exit 0, and
    # the rest made compare report a count or an unmatched root with exit 1
    path, good = str(tmp_path / "bad.csv"), str(tmp_path / "good.csv")
    with open(path, "wb") as fh:
        fh.write(content)
    save_spectrum(good, Spectrum([1.0], [1], ["(0,0)"], 5.0))
    with pytest.raises(UnsupportedFormat, match="line"):
        load_spectrum(path)
    for pair in ([path, good], [good, path]):
        _assert_usage_error(CliRunner().invoke(main, ["compare", *pair]), "UnsupportedFormat")


def test_spectrum_csv_keeps_a_root_within_its_tol_above_k_max(tmp_path):
    # the real locator keeps a root up to its tolerance above k_max
    path = str(tmp_path / "s.csv")
    s = Spectrum([5.0 + 5e-11], [1], ["(0,0)"], 5.0, {"tol": 1e-10})
    save_spectrum(path, s)
    assert load_spectrum(path) == s


def test_spectrum_csv_without_k_max_takes_its_largest_k():
    # the last row's k used to stand in, below the first row here
    s = read_spectrum_csv(_io.StringIO("k,lambda,order,source_label\n2.0,4.0,1,a\n1.0,1.0,1,b\n"))
    assert s.k_max == 2.0 and s.k.tolist() == [2.0, 1.0]


def test_cli_compare_counts_roots_over_each_files_whole_k_max(tmp_path):
    gpath, low, high = (str(tmp_path / name) for name in ("c3.json", "low.csv", "high.csv"))
    g, a = cycle_graph(3, 1.0)
    save_graph(gpath, g, standard_conditions(g), a)
    for out, kmax in ((low, "6"), (high, "9")):
        assert CliRunner().invoke(main, ["spectrum", gpath, "--kmax", kmax, "-o", out]).exit_code == 0
    assert "each file's whole k_max" in " ".join(CliRunner().invoke(main, ["compare", "--help"]).output.split())
    res = CliRunner().invoke(main, ["compare", low, high])
    above = [k for k in load_spectrum(high).expanded() if k > 6.0]
    assert res.exit_code == 1 and above
    assert f"unmatched_a=0 unmatched_b={len(above)}" in res.output
    rep = qgsym.compare_spectra(load_spectrum(low), load_spectrum(high), 1e-6)
    assert list(rep.unmatched_b) == above


def _factors_and_spectrum(tmp_path, flags, kmax):
    """`factors` with `flags` at `kmax` and `spectrum` of the product document
    at `kmax`: (factors, spectrum), checked to agree in rows and orders, k
    within 1e-9, with a certified root count."""
    doc, full, parts = (str(tmp_path / name) for name in ("torus.json", "full.csv", "factors.csv"))
    runner = CliRunner()
    assert runner.invoke(main, ["build", "product", *flags, "-o", doc]).exit_code == 0
    for args in (["spectrum", doc, "--kmax", kmax, "-o", full], ["factors", *flags, "--kmax", kmax, "-o", parts]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    want, got = load_spectrum(full), load_spectrum(parts)
    assert int(got.meta["root_count"]) == int(got.meta["eigenphase_count"]) == want.count()
    assert got.order.tolist() == want.order.tolist()
    assert np.abs(got.k - want.k).max(initial=0.0) <= 1e-9
    return got, want


def test_cli_factors_rejects_kmax_below_grid(tmp_path):
    # a k_max of 0.001, once below the real locator's grid step and refused,
    # is below every pole: each factor's one bracket ends at k_max
    got, want = _factors_and_spectrum(tmp_path, TORUS, "0.001")
    assert len(got.k) == len(want.k) == 0 and int(got.meta["fallbacks"]) == 0


@pytest.mark.parametrize(
    "n1, l1, l3, kmax",
    [
        (1, 1.0, 0.998046875, 5),  # three roots within 0.006 of pi
        (1, 1.0, 0.99999, 5),  # three roots within 3e-5 of pi
        (16, 0.5, 0.7087064079442846, 10),  # two roots within 0.005 of each other
        (16, 0.5, 0.706465, 10),
        (16, 0.5, 0.706431, 10),
    ],
)
def test_cli_factors_solves_close_roots_again_on_their_quotient_system(tmp_path, n1, l1, l3, kmax):
    # roots closer than any grid step lie between distinct poles of G, each
    # in its own bracket, so no factor is solved again by the unitary
    # locator, and `factors` equals `spectrum` of the product document
    flags = ["--n1", str(n1), "--n2", str(n1), "--l1", repr(l1), "--l3", repr(l3)]
    got, _ = _factors_and_spectrum(tmp_path, flags, str(kmax))
    assert int(got.meta["fallbacks"]) == 0


def test_cli_factors_falls_back_at_a_sine_zero_on_kmax(tmp_path):
    # k_max = pi + 1e-14 holds the root of the factor (0,1) on the zero pi
    # of sin 2kL1, but the eigenphase count, like `spectrum`, does not
    # (FOUND in CHANGES.md): that factor is the one solved again
    flags = ["--n1", "1", "--n2", "2", "--l1", "0.5", "--l3", "0.61"]
    got, _ = _factors_and_spectrum(tmp_path, flags, "3.1415926535898033")
    assert int(got.meta["fallbacks"]) == 1


def _losing_a_root(locate):
    """`locate`, a locator of a family, with the first root of its first
    spectrum dropped."""

    def lossy(*args, **kwargs):
        found = locate(*args, **kwargs)
        s = found[0]
        found[0] = Spectrum(s.k[1:], s.order[1:], s.source[1:], s.k_max, s.meta)
        return found

    return lossy


@pytest.mark.parametrize("command", ["factors", "spectrum"])
def test_cli_refuses_a_root_count_its_certificate_denies(tmp_path, monkeypatch, command):
    # a locator that loses one root leaves the merged root count short of the
    # eigenphase count: the command exits 2 and writes no file
    doc, out = str(tmp_path / "torus.json"), str(tmp_path / "out.csv")
    assert CliRunner().invoke(main, ["build", "product", *TORUS, "-o", doc]).exit_code == 0
    if command == "factors":
        monkeypatch.setattr(cli, "find_roots_real", _losing_a_root(cli.find_roots_real))
        args = ["factors", *TORUS]
    else:
        monkeypatch.setattr(UnitaryFamily, "roots", _losing_a_root(UnitaryFamily.roots))
        args = ["spectrum", doc]
    res = CliRunner().invoke(main, [*args, "-o", out])
    _assert_usage_error(res, "CertificateMismatch")
    assert "against an eigenphase count of" in res.output
    assert not os.path.exists(out)

def test_cli_scan_rejects_kmax_below_grid(tmp_path):
    gpath, out = str(tmp_path / "c3.json"), str(tmp_path / "scan.csv")
    g, a = cycle_graph(3, 1.0)
    save_graph(gpath, g, action=a)
    res = CliRunner().invoke(main, ["scan", gpath, "--kmax", "0.001", "--grid", "0.01", "-o", out])
    _assert_usage_error(res, "GridTooCoarse")
    assert "0.001" in res.output and "0.01" in res.output
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "jumps, lens, bad",
    [("3,x", "1,1", "'x'"), ("3,4", "1,one", "'one'"), ("3,4.5", "1,1", "'4.5'")],
    ids=["jump-not-a-number", "length-not-a-number", "jump-not-an-integer"],
)
def test_cli_build_circulant_rejects_malformed_lists(tmp_path, jumps, lens, bad):
    out = str(tmp_path / "c12.json")
    res = CliRunner().invoke(main, ["build", "circulant", "--n", "12", "--jumps", jumps, "--lens", lens, "-o", out])
    _assert_usage_error(res, "MalformedList")
    assert bad in res.output
    assert not os.path.exists(out)
