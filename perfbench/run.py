"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload full-3x4 --seed 1 --seconds 35 --trace 0

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported, with
--trace 1 its per-layer metrics.  Set-up time is the median over several
fresh workload processes; the last of them runs the timed closed loop.
Untraced times are reported at the reference speed of perfbench/probe.py.
The full result, with the environment and every sample, is written to
perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3  # fresh processes whose set-up time is timed when untraced
DEADLINE_S = 170.0  # every run must end within 180 s
# Single-threaded BLAS is the plain baseline.  On the 2-core machine this
# was sized on, full-3x4 runs 22% faster with it and build-16x16 15% slower.
BLAS_THREADS = "1"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def spawn(args, workdir: str, spans: str | None, setup_only: bool, deadline: float) -> dict:
    """Start one fresh workload process and return its JSON line."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir,
    ]
    if args.toy:
        cmd.append("--toy")
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=deadline - time.monotonic(), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], main: dict) -> dict:
    return {
        "pipeline_s": statistics.median(main["pipeline_s"]),
        "work_per_s": statistics.median(main["work_per_s"]) if main["work_per_s"] else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(main: dict) -> dict:
    out = {}
    if main["layers"]:
        out = {name: statistics.median(p[name] for p in main["layers"]) for name in main["layers"][0]}
    out["failed_frac"] = main["failed"] / main["attempted"]
    traced = statistics.median(main["traced_pipeline_s"])
    out["trace.traced_pipeline_s"] = traced
    out["trace.overhead_s"] = traced - statistics.median(main["pipeline_s"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "qgsym", "cli.py")):
        print(f"error: no qgsym sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tag = args.workload + ("-toy" if args.toy else "")
    workdir = os.path.join(HERE, "work", tag)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    # one spans file per workload, holding its latest traced run: a
    # factors-16x16 run writes about 10 MB
    spans = os.path.join(results, f"{tag}.spans.csv.gz") if args.trace else None

    try:
        setup_only = 0 if args.trace else SETUPS - 1
        runs = [spawn(args, workdir, None, True, deadline) for _ in range(setup_only)]
        main_run = spawn(args, workdir, spans, False, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    runs.append(main_run)
    setups = [r["setup_s"] for r in runs]
    setup_walls = [r["setup_wall_s"] for r in runs]

    values = per_layer(main_run) if args.trace else end_to_end(setups, main_run)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "toy": args.toy, "commit": git_commit(), "environment": main_run["environment"],
        "inputs": main_run["inputs"], "failures": main_run["failures"],
        "samples": {
            "setup_s": setups, "setup_wall_s": setup_walls, "pipeline_s": main_run["pipeline_s"],
            "wall_pipeline_s": main_run["wall_pipeline_s"],
            "traced_pipeline_s": main_run["traced_pipeline_s"], "work_per_s": main_run["work_per_s"],
        },
        "probes": main_run["probes"],
        "spans_file": spans and os.path.relpath(spans, ROOT),
        "result": result,
    }
    with open(os.path.join(results, f"{tag}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(
        f"{args.workload} seed {args.seed}: {len(main_run['pipeline_s'])} untraced and "
        f"{len(main_run['traced_pipeline_s'])} traced pipelines, {len(setups)} set-ups, "
        f"{main_run['probes']} probes; "
        f"environment {json.dumps(main_run['environment'])}; failures {main_run['failures']}"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
