"""The benchmark's workloads: inputs made in set-up, a pipeline of qgsym CLI
commands, and a check of the pipeline's output files.

Each workload writes its inputs and reference values in `setup()`, so the
program receives only generated documents and flags.  `check()` reads the
output files with this module's own parsers and compares them against
references computed along a path independent of the one being timed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import traceback
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
L1 = 0.5  # the paper's L1 half-length; full-3x4 pairs it with L3 = 1.0
FACTORS_GRID = 0.005  # `qgsym factors`' default --grid


@dataclass(frozen=True)
class Outcome:
    """What a pipeline produced and whether it passed its check."""

    ok: bool
    reason: str = ""
    work: int = 0  # work items for work_per_s
    roots_distinct: int = 0
    roots_with_multiplicity: int = 0
    max_order: int = 0


def read_spectrum_rows(path: str) -> list[tuple[float, int]]:
    """(k, order) rows of a spectrum CSV, skipping comments and the header."""
    rows = []
    with open(path) as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln and not ln.startswith("#")]
    for line in lines[1:]:
        k, _lam, order, _source = line.split(",", 3)
        rows.append((float(k), int(order)))
    return rows


def count_data_rows(path: str) -> int:
    """Lines of a CSV that are neither comments nor the column header."""
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return max(len(lines) - 1, 0)


def eigenphase_count(S: np.ndarray, lengths: np.ndarray, k_max: float, k_min: float = 1e-6) -> int:
    """Exact number of roots of det(I - S D(k)) in (k_min, k_max] for unitary S.

    The eigenphases of S D(k) advance by k * sum(lengths) in total, so the
    number that crossed 1 follows from the principal phases at both ends.
    """
    l_total = float(lengths.sum())

    def phase_sum(k: float) -> float:
        p = np.mod(np.angle(np.linalg.eigvals(S * np.exp(1j * k * lengths)[None, :])), TWO_PI)
        p[p < 1e-12] += TWO_PI
        return float(p.sum())

    n = (phase_sum(k_min) - k_min * l_total + k_max * l_total - phase_sum(k_max)) / TWO_PI
    return int(round(n))


def _roots_outcome(rows: list[tuple[float, int]], work: int) -> Outcome:
    return Outcome(
        ok=True,
        work=work,
        roots_distinct=len(rows),
        roots_with_multiplicity=sum(o for _, o in rows),
        max_order=max((o for _, o in rows), default=0),
    )


class Workload:
    """One benchmark workload; `toy` selects tiny inputs for the benchmark's tests."""

    name = ""

    def __init__(self, seed: int, workdir: str, toy: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.toy = toy
        os.makedirs(workdir, exist_ok=True)

    def path(self, filename: str) -> str:
        return os.path.join(self.workdir, filename)

    def setup(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self) -> list[str]:
        """Files the pipeline writes; removed before each pipeline runs."""
        raise NotImplementedError

    def check(self) -> Outcome:
        raise NotImplementedError


def _seeded_l3(seed: int) -> float:
    """An incommensurate L3 in a narrow band around 1/sqrt(2)."""
    return float(1.0 / math.sqrt(2.0) + np.random.default_rng(seed).uniform(-0.01, 0.01))


def roots_resolvable(n1: int, n2: int, l3: float, k_max: float, gap: float) -> bool:
    """Whether every quotient factor's roots in (0, k_max] are at least `gap` apart.

    Samples each distinct real dispersion form
    F(k) = sin 2k(L1+L3) - cos(2 pi t/n2) sin 2kL3 - cos(2 pi s/n1) sin 2kL1
    on a grid of width 2.5e-4.  Sign changes closer than `gap` fail, and so
    does a local minimum of |F| under 1e-3 without a sign change (a root pair
    that nearly touches or falls inside one step), or |F(k_max)| under 1e-6.
    """
    step = 2.5e-4
    ks = np.arange(step, k_max + gap + step / 2.0, step)
    ks[np.argmin(np.abs(ks - k_max))] = k_max
    a = np.unique(np.round(np.cos(TWO_PI * np.arange(n2) / n2), 12))
    b = np.unique(np.round(np.cos(TWO_PI * np.arange(n1) / n1), 12))
    s13, s3, s1 = np.sin(2 * ks * (L1 + l3)), np.sin(2 * ks * l3), np.sin(2 * ks * L1)
    for alpha in a:
        for beta in b:
            f = s13 - alpha * s3 - beta * s1
            crossing = np.signbit(f[:-1]) != np.signbit(f[1:])
            roots = ks[1:][crossing]
            if np.any(np.diff(roots) < gap) or abs(f[ks == k_max][0]) < 1e-6:
                return False
            g = np.abs(f)
            low = (g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]) & (g[1:-1] < 1e-3)
            if np.any(low & ~crossing[:-1] & ~crossing[1:]):
                return False
    return True


class FullTorus(Workload):
    """`spectrum` of the subdivided torus, then `compare` with the factor union.

    Nearly all time is the dense eigenphase count (one B x B `eigvals` per
    count); the roots reach multiplicity 14.  The seed is not used.
    """

    name = "full-3x4"

    def __init__(self, seed, workdir, toy=False):
        super().__init__(seed, workdir, toy)
        self.n1, self.n2, self.k_max = (2, 3, 3.0) if toy else (3, 4, 10.0)
        self.l3 = 1.0

    def setup(self) -> None:
        from qgsym import builders, cli, io
        from qgsym.scattering import build_secular_system, standard_conditions

        # the construction torus_secular_system uses: first factor carries 2*L3
        g, action = builders.torus_action(self.n1, self.n2, self.l3, L1)
        conds = standard_conditions(g)
        io.save_graph(self.path("torus.json"), g, conds, action)
        sys_ = build_secular_system(g, conds)
        self.certificate = eigenphase_count(sys_.S, sys_.lengths, self.k_max)
        union = self.path("union.csv")
        rc, out = invoke(cli.main, [
            "factors", "--n1", str(self.n1), "--n2", str(self.n2), "--l1", repr(L1),
            "--l3", repr(self.l3), "--kmax", repr(self.k_max), "-o", union,
        ])
        if rc != 0:
            raise RuntimeError(f"set-up: factor union exited {rc}: {out}")
        self.union = sorted(k for k, o in read_spectrum_rows(union) for _ in range(o))

    def commands(self):
        full = self.path("full.csv")
        return [
            ["spectrum", self.path("torus.json"), "--kmax", repr(self.k_max), "--grid", "0.05", "-o", full],
            ["compare", full, self.path("union.csv"), "--tol", "1e-6"],
        ]

    def outputs(self):
        return [self.path("full.csv")]

    def check(self) -> Outcome:
        rows = read_spectrum_rows(self.path("full.csv"))
        ks = sorted(k for k, o in rows for _ in range(o))
        if len(ks) != self.certificate:
            return Outcome(False, f"{len(ks)} roots with multiplicity, eigenphase count {self.certificate}")
        if len(ks) != len(self.union) or np.max(np.abs(np.subtract(ks, self.union)), initial=0.0) > 1e-6:
            return Outcome(False, "not isospectral to the factor union at tol 1e-6")
        return _roots_outcome(rows, len(ks))


class Factors(Workload):
    """`factors`: every quotient factor's closed form through the real locator.

    No dense matrices; generic roots of low multiplicity.  L3 comes from the
    seed, redrawn until every factor's roots are resolvable on the default
    grid.  The check is the exact eigenphase count summed over the unitary
    8 x 8 quotient systems.
    """

    name = "factors-16x16"

    def __init__(self, seed, workdir, toy=False):
        super().__init__(seed, workdir, toy)
        self.n1, self.n2, self.k_max = (2, 3, 3.0) if toy else (16, 16, 10.0)

    def setup(self) -> None:
        from qgsym.quotient import all_quotient_specs, quotient_system

        # `factors` refuses (GridTooCoarse, exit 2) an L3 at which two roots of
        # one factor share a cell of its --grid 0.005, so L3 is redrawn from
        # the seed's stream until its roots are two cells apart
        rng = np.random.default_rng(self.seed)
        for self.l3_draws in range(1, 101):
            self.l3 = float(1.0 / math.sqrt(2.0) + rng.uniform(-0.01, 0.01))
            if roots_resolvable(self.n1, self.n2, self.l3, self.k_max, gap=2 * FACTORS_GRID):
                break
        else:
            raise RuntimeError(f"set-up: no resolvable L3 in 100 draws from seed {self.seed}")

        self.certificate = 0
        for spec in all_quotient_specs(self.n1, self.n2, L1, self.l3):
            q = quotient_system(spec)
            self.certificate += eigenphase_count(q.S, q.lengths, self.k_max)

    def commands(self):
        return [[
            "factors", "--n1", str(self.n1), "--n2", str(self.n2), "--l1", repr(L1),
            "--l3", repr(self.l3), "--kmax", repr(self.k_max), "-o", self.path("factors.csv"),
        ]]

    def outputs(self):
        return [self.path("factors.csv")]

    def check(self) -> Outcome:
        rows = read_spectrum_rows(self.path("factors.csv"))
        count = sum(o for _, o in rows)
        if count != self.certificate:
            return Outcome(False, f"{count} roots with multiplicity, eigenphase count {self.certificate}")
        ks = [k for k, _ in rows]
        if any(o < 1 for _, o in rows) or ks != sorted(ks) or (ks and not 0.0 < ks[0] <= ks[-1] <= self.k_max):
            return Outcome(False, "roots out of order, out of range or of order < 1")
        return _roots_outcome(rows, count)


class Build(Workload):
    """`project` on the 2048-bond torus, then `scan` of its document.

    Time goes to building the torus action, assembling the dense S and two
    large determinants; no root locator runs.  L3, the irrep label and the
    random function come from the seed.
    """

    name = "build-16x16"

    def __init__(self, seed, workdir, toy=False):
        super().__init__(seed, workdir, toy)
        self.n1, self.n2, self.samples = (2, 3, 4) if toy else (16, 16, 32)
        self.k_max, self.grid = 0.1, 0.05
        rng = np.random.default_rng(seed)
        self.l3 = _seeded_l3(seed)
        self.s, self.t = int(rng.integers(self.n1)), int(rng.integers(self.n2))

    def setup(self) -> None:
        from qgsym import builders, io
        from qgsym.quotient import secular_product
        from qgsym.scattering import standard_conditions

        g, action = builders.torus_action(self.n1, self.n2, self.l3, L1)
        io.save_graph(self.path("torus.json"), g, standard_conditions(g), action)
        self.projection_rows = g.n_edges * self.samples
        # same grid as `qgsym scan`; the determinant equals the product of
        # the closed-form factors with unit constant
        ks = np.arange(self.grid, self.k_max + self.grid / 2.0, self.grid)
        self.scan_ref = [(float(k), abs(secular_product(self.n1, self.n2, L1, self.l3, float(k)))) for k in ks]

    def commands(self):
        return [
            [
                "project", "--n1", str(self.n1), "--n2", str(self.n2), "--l1", repr(L1),
                "--l3", repr(self.l3), "--s", str(self.s), "--t", str(self.t),
                "--samples", str(self.samples), "--seed", str(self.seed), "-o", self.path("projection.csv"),
            ],
            ["scan", self.path("torus.json"), "--kmax", repr(self.k_max), "--grid", repr(self.grid), "-o", self.path("scan.csv")],
        ]

    def outputs(self):
        return [self.path("projection.csv"), self.path("scan.csv")]

    def check(self) -> Outcome:
        rows = count_data_rows(self.path("projection.csv"))
        if rows != self.projection_rows:
            return Outcome(False, f"projection has {rows} rows, expected {self.projection_rows}")
        with open(self.path("scan.csv")) as fh:
            scan = [tuple(map(float, ln.split(","))) for ln in list(fh)[1:] if ln.strip()]
        if len(scan) != len(self.scan_ref):
            return Outcome(False, f"scan has {len(scan)} rows, expected {len(self.scan_ref)}")
        for (k, val), (k_ref, ref) in zip(scan, self.scan_ref):
            if abs(k - k_ref) > 1e-12 or not abs(val - ref) <= 1e-10 * ref:
                return Outcome(False, f"|det| at k={k}: {val!r}, closed-form product {ref!r}")
        return Outcome(True, work=rows + len(scan))


WORKLOADS = {w.name: w for w in (FullTorus, Factors, Build)}


def invoke(main, args: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and its output."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = main(args, standalone_mode=False)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed pipeline; the loop keeps running
        buf.write(traceback.format_exc())
        rc = 1
    if rc is None:
        rc = 0
    return (rc if isinstance(rc, int) else 1), buf.getvalue()
