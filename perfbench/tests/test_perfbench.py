"""Tests of the benchmark harness itself, on toy inputs (2x3 torus, k_max 3).

    python3 -m pytest -q perfbench/tests
"""

import gzip
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worker  # noqa: E402
from probe import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FACTORS_GRID, WORKLOADS, roots_resolvable  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def cli():
    return worker.import_program()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_named_metric_is_reported_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _drop_last_row(path):
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


def _bump_first_order(path):
    with open(path) as fh:
        lines = fh.readlines()
    i = next(i for i, ln in enumerate(lines) if ln[0].isdigit())
    k, lam, order, source = lines[i].split(",", 3)
    lines[i] = f"{k},{lam},{int(order) + 1},{source}"
    with open(path, "w") as fh:
        fh.writelines(lines)


def _scale_scan(path):
    with open(path) as fh:
        lines = fh.readlines()
    k, val = lines[1].split(",")
    lines[1] = f"{k},{float(val) * (1 + 1e-8)!r}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


CORRUPTIONS = [
    ("full-3x4", "full.csv", _drop_last_row),
    ("full-3x4", "full.csv", _bump_first_order),
    ("factors-16x16", "factors.csv", _drop_last_row),
    ("factors-16x16", "factors.csv", _bump_first_order),
    ("build-16x16", "projection.csv", _drop_last_row),
    ("build-16x16", "scan.csv", _scale_scan),
]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name, filename, corrupt", CORRUPTIONS)
def test_corrupted_output_sets_failed_frac(cli, tmp_path, name, filename, corrupt, trace):
    class Corrupted(WORKLOADS[name]):
        def check(self):
            corrupt(self.path(filename))
            return super().check()

    w = Corrupted(5, str(tmp_path), toy=True)
    w.setup()
    out = worker.measure(cli, w, 0.0, trace)
    assert out["failed"] == out["attempted"] >= 1
    if trace:
        assert run.per_layer(out)["failed_frac"] == 1.0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_uncorrupted_toy_passes_and_counts_repeat(cli, tmp_path, name):
    w = WORKLOADS[name](5, str(tmp_path), toy=True)
    w.setup()
    spans = tmp_path / "spans.csv.gz"
    out = worker.measure(cli, w, 2.0, True, str(spans))
    assert out["failed"] == 0 and len(out["layers"]) >= 2
    first, second = out["layers"][:2]
    assert {k: v for k, v in first.items() if not k.endswith("_s")} == {
        k: v for k, v in second.items() if not k.endswith("_s")
    }
    with gzip.open(spans, "rt") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "pipeline,span,parent,name,start_s,end_s"
    assert {r.split(",")[0] for r in rows[1:]} == {str(i) for i in range(len(out["layers"]))}


def test_factors_redraws_an_l3_the_locator_cannot_resolve(tmp_path):
    # this seed's first draw puts two roots of the (2, 8) factor 0.0006
    # apart near k = 3 pi, and `qgsym factors` exits 2 with GridTooCoarse
    first_draw = 0.7083932731436515
    assert not roots_resolvable(16, 16, first_draw, 10.0, gap=FACTORS_GRID)
    w = WORKLOADS["factors-16x16"](1608225630, str(tmp_path))
    w.setup()
    assert w.l3_draws > 1 and w.l3 != first_draw
    assert roots_resolvable(16, 16, w.l3, 10.0, gap=2 * FACTORS_GRID)
    assert abs(w.l3 - 2 ** -0.5) <= 0.01


def test_probe_counts_program_time_at_the_reference_speed():
    r = REFERENCE_S
    p = SpeedProbe()
    assert p.scaled(0.5, 3.0) == 2.5
    # probes at 1 s and 2 s; the host ran twice as slow around the second
    p.at.extend([1.0, 2.0])
    p.took.extend([r, 2 * r])
    assert p.scaled(0.5, 3.0) == pytest.approx(0.5 + (1.0 - r) / 2 + (1.0 - 2 * r) / 2)
    assert p.scaled(2.5, 2.9) == pytest.approx(0.2)


def test_probe_runs_while_installed_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as p:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    assert len(p.took) >= 3 and all(t > 0 for t in p.took)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_restores_every_wrapped_attribute(cli):
    before = (np.linalg.eigvals, cli.find_roots_unitary, cli.build_secular_system)
    with Tracer().installed():
        assert np.linalg.eigvals is not before[0]
    assert (np.linalg.eigvals, cli.find_roots_unitary, cli.build_secular_system) == before


def test_self_times_exclude_child_spans():
    tr = Tracer()
    inner = tr.wrapped("spectra.eigvals", lambda a: sum(range(20000)))
    outer = tr.wrapped("spectra.find_roots_unitary", lambda: [inner(np.eye(3)) for _ in range(3)])
    outer()
    m = tr.metrics()
    total = tr.ends[0] - tr.starts[0]
    assert m["spectra.eigvals_calls"] == 3 and m["spectra.eigvals_flops_computed"] == 81
    assert m["spectra.find_roots_unitary_s"] + m["spectra.eigvals_s"] == pytest.approx(total)
    assert list(tr.parents) == [-1, 0, 0, 0]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-3x4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
