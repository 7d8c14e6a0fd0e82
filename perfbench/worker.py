"""One fresh workload process: set up, then run pipelines in a closed loop.

Started by run.py.  Prints one JSON line: its own set-up time and, unless
--setup-only, the measured samples of the loop.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import sys
import time
from time import perf_counter

from probe import SpeedProbe
from tracer import Tracer, open_spans_file
from workloads import WORKLOADS, Outcome, invoke

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_program():
    """Import qgsym.cli from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import qgsym.cli

    if not os.path.abspath(qgsym.cli.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"qgsym was imported from {qgsym.cli.__file__}, not {src}")
    return qgsym.cli


def run_pipeline(cli, workload, tracer=None) -> tuple[float, float, list[int], str]:
    """Run every command of the workload once; return start, end, exit codes, output."""
    for path in workload.outputs():
        if os.path.exists(path):
            os.remove(path)
    main = cli.main if tracer is None else tracer.wrapped("cli", cli.main)
    codes, text = [], []
    t0 = perf_counter()
    for args in workload.commands():
        rc, out = invoke(main, args)
        codes.append(rc)
        text.append(out)
        if rc != 0:
            break
    return t0, perf_counter(), codes, "".join(text)


def checked(workload, codes: list[int], output: str):
    """The workload's check, run outside the timed region."""
    if len(codes) != len(workload.commands()) or any(codes):
        return Outcome(False, f"exit codes {codes}: {output.strip()[-500:]}")
    try:
        return workload.check()
    except Exception as exc:  # unreadable output is a failed check
        return Outcome(False, f"check raised {type(exc).__name__}: {exc}")


def layer_metrics(tracer, workload, outcome, codes) -> dict:
    """Per-layer metrics of one traced pipeline."""
    m = tracer.metrics()
    m["cli.errors"] = sum(1 for c in codes if c != 0)
    m["io.csv_bytes"] = sum(os.path.getsize(p) for p in workload.outputs() if os.path.exists(p))
    m["spectra.roots_distinct"] = outcome.roots_distinct
    m["spectra.roots_with_multiplicity"] = outcome.roots_with_multiplicity
    m["spectra.max_order"] = outcome.max_order
    evals = m["spectra.eigvals_calls"] + m["quotient.dispersion_evals"] + m["quotient.closed_evals"]
    m["spectra.evals_per_root"] = evals / outcome.roots_distinct if outcome.roots_distinct else 0.0
    return m


def measure(cli, workload, seconds: float, trace: bool, spans_path=None, probe=None) -> dict:
    """Closed loop of pipelines for about `seconds`.

    Untraced, every pipeline is a timing sample, taken with the speed probe
    running and reported at its reference speed (probe.py).  Traced,
    untraced and traced pipelines alternate without the probe, so the
    overhead of tracing is measured in wall time in the same run as the
    per-layer numbers.  A pipeline starts only if the previous cycle's length
    still fits, and each mode gets at least one sample.
    """
    windows = {False: [], True: []}
    work, layers, failures = [], [], []
    spans = open_spans_file(spans_path) if trace and spans_path else None
    probe = None if trace else (probe or SpeedProbe())
    start = perf_counter()
    try:
        with probe or contextlib.nullcontext():
            for traced in itertools.cycle([False, True] if trace else [False]):
                cycle_start = perf_counter()
                tracer = Tracer() if traced else None
                if tracer is None:
                    t0, t1, codes, output = run_pipeline(cli, workload)
                else:
                    with tracer.installed():
                        t0, t1, codes, output = run_pipeline(cli, workload, tracer)
                outcome = checked(workload, codes, output)
                windows[traced].append((t0, t1))
                if not outcome.ok:
                    failures.append(outcome.reason)
                elif not traced:
                    work.append((len(windows[False]) - 1, outcome.work))
                if tracer is not None:
                    layers.append(layer_metrics(tracer, workload, outcome, codes))
                    if spans is not None:
                        tracer.write_spans(spans, len(layers) - 1)
                now = perf_counter()
                enough = windows[False] and (windows[True] or not trace)
                if enough and now - start + (now - cycle_start) > seconds:
                    break
    finally:
        if spans is not None:
            spans.close()
    wall = {mode: [t1 - t0 for t0, t1 in w] for mode, w in windows.items()}
    times = [probe.scaled(t0, t1) for t0, t1 in windows[False]] if probe else wall[False]
    return {
        "attempted": len(windows[False]) + len(windows[True]),
        "failed": len(failures),
        "failures": failures[:5],
        "pipeline_s": times,
        "wall_pipeline_s": wall[False],
        "traced_pipeline_s": wall[True],
        "work_per_s": [w / times[i] for i, w in work],
        "probes": len(probe.took) if probe else 0,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    """Versions, BLAS and machine facts that a result depends on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="gzip CSV file for the traced run's spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    args = ap.parse_args(argv)

    # the parent's CLOCK_MONOTONIC reading on this process's perf_counter
    spawned = args.spawned_at + perf_counter() - time.clock_gettime(time.CLOCK_MONOTONIC)
    probe = SpeedProbe()
    with probe:
        cli = import_program()
        workload = WORKLOADS[args.workload](args.seed, args.workdir, args.toy)
        workload.setup()
        ready = perf_counter()
    out = {"setup_s": probe.scaled(spawned, ready), "setup_wall_s": ready - spawned}
    if not args.setup_only:
        out.update(measure(cli, workload, args.seconds, bool(args.trace), args.spans, probe))
        out["environment"] = environment()
        out["inputs"] = {k: v for k, v in vars(workload).items() if isinstance(v, (int, float, str))}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
