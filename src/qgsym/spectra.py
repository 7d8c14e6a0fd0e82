"""Root extraction from secular functions and spectrum bookkeeping.

Two locators are provided:

- `find_roots_real`: grid scan + bisection for real-valued functions, with
  touching (even-order) roots detected as small local minima of |f| and
  orders confirmed by a winding number when an analytic continuation is
  supplied.
- `find_roots_unitary`: exact eigenphase counting for systems with unitary
  scattering.  N(k) = (sum of principal eigenphases at the reference point
  + k * total bond length - sum at k) / 2pi is an integer-valued, monotone
  step function whose jumps locate roots with their multiplicities; this is
  the robust path for high-order roots of large systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import bisect as _bisect
from scipy.optimize import minimize_scalar

from .errors import GridTooCoarse, NonUnitaryScattering, require_positive
from .scattering import SecularSystem

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpectralRoot:
    k: float
    order: int
    source: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "order", int(self.order))


@dataclass(frozen=True)
class Spectrum:
    roots: tuple[SpectralRoot, ...]
    k_max: float
    meta: dict = field(default_factory=dict, compare=False)

    def ks(self) -> list[float]:
        return [r.k for r in self.roots]

    def expanded(self) -> list[float]:
        """Roots repeated by order, sorted ascending."""
        out = []
        for r in self.roots:
            out.extend([r.k] * r.order)
        return sorted(out)

    def count(self, K: Optional[float] = None) -> int:
        K = self.k_max if K is None else K
        return sum(r.order for r in self.roots if r.k <= K + 1e-12)


def winding_number(
    fn: Callable[[complex], complex], center: float, radius: float, samples: int = 64
) -> int:
    """Zero count of an analytic function inside a circle, by argument change."""
    thetas = np.linspace(0.0, TWO_PI, samples + 1)
    vals = np.array([fn(center + radius * np.exp(1j * th)) for th in thetas])
    if np.any(vals == 0):
        raise GridTooCoarse(f"winding circle at {center} passes through a zero")
    phases = np.angle(vals)
    dph = np.diff(phases)
    dph = (dph + np.pi) % TWO_PI - np.pi
    return int(round(dph.sum() / TWO_PI))


def _safe_radius(k: float, others: Sequence[float], default: float) -> float:
    gaps = [abs(k - o) for o in others if abs(k - o) > 1e-12]
    if gaps:
        return min(default, 0.45 * min(gaps))
    return default


def _winding_centroid(
    fn: Callable[[complex], complex], center: float, radius: float, order: int,
    samples: int = 128,
) -> float:
    """Centroid of the zeros inside a circle, by the argument principle.

    (1/2pi i) * contour integral of z f'(z)/f(z) equals the sum of enclosed
    zeros; dividing by the winding number recovers a multiple zero's exact
    location far more accurately than bisection, whose resolution degrades
    as the order grows.
    """
    for _ in range(2):  # second pass on a tighter circle kills quadrature error
        thetas = np.linspace(0.0, TWO_PI, samples + 1)
        zs = center + radius * np.exp(1j * thetas)
        vals = np.array([fn(z) for z in zs])
        logs = np.log(np.abs(vals)) + 1j * np.angle(vals)
        dlog = np.diff(logs)
        dlog = dlog.real + 1j * ((dlog.imag + np.pi) % TWO_PI - np.pi)
        zmid = 0.5 * (zs[:-1] + zs[1:])
        total = np.sum(zmid * dlog) / (2j * np.pi)
        center = float((total / order).real)
        radius /= 16.0
    return center


def find_roots_real(
    f: Callable[[float], float],
    k_max: float,
    grid_step: float,
    tol: float = 1e-10,
    tol_touch: float = 1e-8,
    complex_fn: Optional[Callable[[complex], complex]] = None,
    source: str = "",
) -> Spectrum:
    """Roots of a continuous real function on (0, k_max].

    Sign changes are bracketed and bisected to width `tol`.  Local minima of
    |f| below `tol_touch` without a sign change are reported as touching
    roots.  When `complex_fn` (an analytic continuation) is given, every
    root's order is measured by its winding number; otherwise sign-change
    roots are order 1 and touching roots order 2.
    """
    require_positive(k_max=k_max, grid_step=grid_step, tol=tol)
    ks = np.arange(grid_step, k_max + grid_step / 2.0, grid_step)
    if ks[-1] < k_max - 1e-12:
        ks = np.append(ks, k_max)
    vals = np.array([f(k) for k in ks])

    roots: list[float] = []
    kinds: list[str] = []
    for i in range(len(ks) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            if not roots or abs(ks[i] - roots[-1]) > tol:
                roots.append(float(ks[i]))
                kinds.append("sign")
            continue
        if a * b < 0.0:
            r = _bisect(f, ks[i], ks[i + 1], xtol=tol)
            roots.append(float(r))
            kinds.append("sign")
    if vals[-1] == 0.0 and (not roots or abs(ks[-1] - roots[-1]) > tol):
        roots.append(float(ks[-1]))
        kinds.append("sign")

    # touching roots: interior local minima of |f| with no sign change
    absvals = np.abs(vals)
    for i in range(1, len(ks) - 1):
        if not (absvals[i] <= absvals[i - 1] and absvals[i] <= absvals[i + 1]):
            continue
        if vals[i - 1] * vals[i] < 0.0 or vals[i] * vals[i + 1] < 0.0:
            continue
        # refine the signed extremum: a genuine touching root has extremum ~0,
        # while a pair of crossings hidden inside the cell overshoots zero
        sgn = 1.0 if vals[i - 1] > 0 else -1.0
        res = minimize_scalar(
            lambda k: sgn * f(k), bounds=(ks[i - 1], ks[i + 1]), method="bounded",
            options={"xatol": tol},
        )
        km, fm = float(res.x), sgn * float(res.fun)
        if sgn * fm >= tol_touch:
            continue
        if any(abs(km - r) <= 2 * grid_step for r in roots):
            continue
        if sgn * fm < -tol_touch:
            raise GridTooCoarse(f"two sign changes near k={km}; shrink grid_step")
        roots.append(km)
        kinds.append("touch")

    order_pairs = sorted(zip(roots, kinds))
    out = []
    all_ks = [r for r, _ in order_pairs]
    for r, kind in order_pairs:
        if complex_fn is not None:
            rad = _safe_radius(r, all_ks, grid_step / 2.0)
            order = winding_number(complex_fn, r, rad)
            order = max(order, 1)
            if order >= 2:
                # bisection resolution degrades like eps**(1/order) at a
                # multiple zero; re-center via the argument principle
                r = _winding_centroid(complex_fn, r, rad, order)
        else:
            order = 2 if kind == "touch" else 1
        out.append(SpectralRoot(r, order, source))
    return Spectrum(tuple(out), k_max, {"grid_step": grid_step, "tol": tol})


def find_roots_unitary(
    sys: SecularSystem,
    k_max: float,
    grid_step: float = 0.05,
    tol: float = 1e-10,
    k_min: float = 1e-6,
    source: str = "full",
) -> Spectrum:
    """Roots of det(I - S D(k)) on (k_min, k_max] for unitary S.

    The eigenvalues of U(k) = S D(k) move counterclockwise on the unit
    circle with speed between the shortest and longest bond length, so the
    root counting function is exact and monotone; each jump is localized by
    bisection and its size is the root's multiplicity.
    """
    require_positive(k_max=k_max, grid_step=grid_step, tol=tol)
    defect = sys.unitarity_defect()
    if defect > 1e-10:
        raise NonUnitaryScattering(f"|S S^H - I| = {defect:.3e}: eigenphase counting needs a unitary S")
    L = sys.lengths
    l_total = float(L.sum())

    def phase_sum(k: float) -> float:
        ev = np.linalg.eigvals(sys.S * np.exp(1j * k * L)[None, :])
        p = np.mod(np.angle(ev), TWO_PI)
        p[p < 1e-12] += TWO_PI  # an eigenvalue at 1 counts as "about to leave", not "just arrived"
        return float(p.sum())

    base = phase_sum(k_min) - k_min * l_total

    def count(k: float) -> int:
        n = (base + k * l_total - phase_sum(k)) / TWO_PI
        return int(round(n))

    # grid fine enough that phases advance less than a half turn per cell
    max_step = 0.9 * math.pi / float(L.max())
    step = min(grid_step, max_step)
    ks = list(np.arange(k_min, k_max, step)) + [k_max]

    roots: list[SpectralRoot] = []

    def locate(a: float, na: int, b: float, nb: int) -> None:
        if nb == na:
            return
        if b - a < tol:
            roots.append(SpectralRoot(0.5 * (a + b), nb - na, source))
            return
        m = 0.5 * (a + b)
        nm = count(m)
        locate(a, na, m, nm)
        locate(m, nm, b, nb)

    counts = [count(k) for k in ks]
    for i in range(len(ks) - 1):
        locate(ks[i], counts[i], ks[i + 1], counts[i + 1])

    roots.sort(key=lambda r: r.k)
    return Spectrum(tuple(roots), k_max, {"grid_step": step, "tol": tol, "k_min": k_min})


def merge_spectra(spectra: Sequence[Spectrum], tol: float = 1e-7) -> Spectrum:
    """Multiset union; roots closer than tol coalesce with orders summed."""
    entries = sorted(
        (r for s in spectra for r in s.roots), key=lambda r: r.k
    )
    k_max = max((s.k_max for s in spectra), default=0.0)
    merged: list[SpectralRoot] = []
    for r in entries:
        if merged and r.k - merged[-1].k <= tol:
            prev = merged[-1]
            w = prev.order + r.order
            k = (prev.k * prev.order + r.k * r.order) / w
            sources = prev.source
            if r.source and r.source not in sources.split(","):
                sources = f"{sources},{r.source}" if sources else r.source
            merged[-1] = SpectralRoot(k, w, sources)
        else:
            merged.append(r)
    return Spectrum(tuple(merged), k_max, {"tol": tol})


@dataclass(frozen=True)
class SpectrumComparison:
    isospectral: bool
    max_distance: float
    count_a: int
    count_b: int
    unmatched_a: tuple[float, ...]
    unmatched_b: tuple[float, ...]


def compare_spectra(a: Spectrum, b: Spectrum, tol: float) -> SpectrumComparison:
    """Greedy sorted pairing of the order-expanded root multisets."""
    xs, ys = list(a.expanded()), list(b.expanded())
    i = j = 0
    max_dist = 0.0
    un_a, un_b = [], []
    while i < len(xs) and j < len(ys):
        d = xs[i] - ys[j]
        if abs(d) <= tol:
            max_dist = max(max_dist, abs(d))
            i += 1
            j += 1
        elif d < 0:
            un_a.append(xs[i])
            i += 1
        else:
            un_b.append(ys[j])
            j += 1
    un_a.extend(xs[i:])
    un_b.extend(ys[j:])
    return SpectrumComparison(
        isospectral=(len(xs) == len(ys) and not un_a and not un_b),
        max_distance=max_dist,
        count_a=len(xs),
        count_b=len(ys),
        unmatched_a=tuple(un_a),
        unmatched_b=tuple(un_b),
    )


@dataclass(frozen=True)
class WeylReport:
    counted: int
    estimate: float
    bound: float
    ok: bool


def weyl_count_check(s: Spectrum, K: float, total_length: float, bound: float) -> WeylReport:
    """Sanity check |N(K) - total_length*K/pi| <= bound; flags missed roots."""
    counted = s.count(K)
    estimate = total_length * K / math.pi
    return WeylReport(counted, estimate, bound, abs(counted - estimate) <= bound)
