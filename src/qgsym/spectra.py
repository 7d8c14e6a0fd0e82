"""Root extraction from secular functions and spectrum bookkeeping.

Both locators run one core: `_bisect_steps` bisects, to width `tol`, every
grid cell where an integer step function changes, and `_contour` is one
argument-principle pass giving the zero count and zero sum in a circle.

- `find_roots_real`: the step function is the sign of f (an exact 0.0 inside
  the grid takes the sign of the point before it); the contour pass over
  its analytic continuation places touching roots (small minima of |f|),
  gives every order as a winding number and re-centres multiple roots.
- `find_roots_unitary`: exact eigenphase counting for unitary scattering.
  N(k) = (sum of principal eigenphases at the reference point + k * total
  bond length - sum at k) / 2pi is integer-valued and monotone
  (`eigenphase_counter`); each jump's size is the root's multiplicity.  This
  is the robust path for high-order roots of large systems, and N(k_max) is
  an exact root count that certifies the real locator's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GridTooCoarse, NonUnitaryScattering, require_positive
from .scattering import SecularSystem

TWO_PI = 2.0 * math.pi
K_MIN = 1e-6  # lower end of the unitary locator's range; k = 0 is always a root
TOL_TOUCH = 1e-8  # largest |f| at a local minimum that counts as a touching root


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


def _contour(
    fn: Callable[[np.ndarray], np.ndarray], center: float, radius: float, samples: int
) -> tuple[int, complex]:
    """Zero count and zero sum of an analytic function inside a circle.

    Argument principle on `samples` chords: the change of log f around the
    circle is 2pi i times the zero count, and (1/2pi i) * the contour
    integral of z f'(z)/f(z) = z d(log f) is the sum of the enclosed zeros.
    `fn` is evaluated once, on the array of the circle's points.
    """
    zs = center + radius * np.exp(1j * np.linspace(0.0, TWO_PI, samples + 1))
    vals = np.asarray(fn(zs))
    if np.any(vals == 0):
        raise GridTooCoarse(f"winding circle at {center} passes through a zero")
    dlog = np.diff(np.log(np.abs(vals)) + 1j * np.angle(vals))
    dlog = dlog.real + 1j * ((dlog.imag + np.pi) % TWO_PI - np.pi)
    zsum = np.sum(0.5 * (zs[:-1] + zs[1:]) * dlog) / (2j * np.pi)
    return int(round(dlog.imag.sum() / TWO_PI)), complex(zsum)


def winding_number(
    fn: Callable[[np.ndarray], np.ndarray], center: float, radius: float, samples: int = 64
) -> int:
    """Zero count of an analytic function inside a circle, by argument change."""
    return _contour(fn, center, radius, samples)[0]


def _bisect_steps(
    step: Callable[[float], Optional[int]], ks: np.ndarray, levels: np.ndarray, tol: float
) -> list[tuple[float, int]]:
    """Every jump of an integer step function on the grid `ks`, as (k, size).

    `levels[i]` is `step(ks[i])`.  Only cells whose end levels differ are
    visited; each is bisected, left half first, until the changes it holds
    sit in cells narrower than `tol`, reported at their midpoints in
    ascending order.  A midpoint where `step` is None (an exact zero of a
    sign) takes the level of the point before it.
    """
    jumps: list[tuple[float, int]] = []
    for i in np.flatnonzero(levels[1:] != levels[:-1]):
        a, na = float(ks[i]), int(levels[i])
        right = [(float(ks[i + 1]), int(levels[i + 1]))]  # right ends of the open cells
        while right:
            b, nb = right[-1]
            if nb != na and b - a >= tol:
                m = 0.5 * (a + b)
                nm = step(m)
                right.append((m, na if nm is None else nm))
                continue
            if nb != na:
                jumps.append((0.5 * (a + b), nb - na))
            a, na = right.pop()
    return jumps


def find_roots_real(
    f: Callable[[np.ndarray], np.ndarray],
    k_max: float,
    grid_step: float,
    tol: float = 1e-10,
    *,
    complex_fn: Callable[[np.ndarray], np.ndarray],
    source: str = "",
) -> Spectrum:
    """Roots of a continuous real function on (0, k_max], with its continuation.

    `f` and `complex_fn` take a float or a numpy array of points and return
    the values elementwise, as numpy ufunc expressions do: the grid is
    evaluated in one call `f(ks)` and each contour circle in one call of
    `complex_fn`, while bisection and the touching-root check call `f` on
    single floats.

    Sign changes on the grid are bisected to width `tol`; a grid value of
    exactly 0.0 inside the grid takes the sign of the point before it.  An
    interior local minimum of |f| with no sign change next to it is a
    touching-root candidate: the zero sum of `complex_fn` in a circle of
    radius `grid_step` around it gives the mean km of the zeros there.  km is
    a touching root when |f(km)| < `TOL_TOUCH`; f(km) past zero by more than
    that means two crossings inside one cell (`GridTooCoarse`).  Every root's
    order is its winding number, and multiple roots are re-centred on the
    zero sum.  `k_max` below `grid_step` leaves no grid (`GridTooCoarse`).
    """
    require_positive(k_max=k_max, grid_step=grid_step, tol=tol)
    if k_max < grid_step:
        raise GridTooCoarse(f"k_max = {k_max!r} is below grid_step = {grid_step!r}")
    ks = np.arange(grid_step, k_max + grid_step / 2.0, grid_step)
    if ks[-1] < k_max - 1e-12:
        ks = np.append(ks, k_max)
    vals = np.asarray(f(ks))

    # the step evaluator is the sign of f; an exact zero inside the grid takes
    # the sign of the point before it, one at either end stays a level 0 so
    # that the change next to it is bisected onto it
    signs = np.sign(vals)
    before = np.maximum.accumulate(np.where(signs != 0, np.arange(len(signs)), 0))
    signs[1:-1] = signs[before[1:-1]]
    sign_at = lambda k: int(np.sign(f(k))) or None
    roots = [k for k, _ in _bisect_steps(sign_at, ks, signs, tol)]

    # touching roots: interior local minima of |f| with no sign change in
    # either neighbouring cell; a genuine touch has f(km) ~ 0, while a pair
    # of crossings hidden inside the cells overshoots zero
    absvals = np.abs(vals)
    crossing = vals[:-1] * vals[1:] < 0.0
    touch = (absvals[1:-1] <= absvals[:-2]) & (absvals[1:-1] <= absvals[2:])
    touch &= ~crossing[:-1] & ~crossing[1:]
    for i in np.flatnonzero(touch) + 1:
        count, zsum = _contour(complex_fn, float(ks[i]), grid_step, 64)
        if count < 1:
            continue
        km = zsum.real / count
        dip = (1.0 if vals[i - 1] > 0 else -1.0) * f(km)
        if dip >= TOL_TOUCH or any(abs(km - r) <= 2 * grid_step for r in roots):
            continue
        if dip < -TOL_TOUCH:
            raise GridTooCoarse(f"two sign changes near k={km}; shrink grid_step")
        roots.append(km)

    roots.sort()
    out = []
    for r in roots:
        if r > k_max + tol:  # the grid may overshoot k_max by half a step
            continue
        rad = min([grid_step / 2.0] + [0.45 * abs(r - o) for o in roots if abs(r - o) > 1e-12])
        order = max(winding_number(complex_fn, r, rad), 1)
        if order >= 2:
            # bisection resolution degrades like eps**(1/order) at a multiple
            # zero; re-centre twice on the zero sum over the same circle (a
            # smaller one would drown |f| ~ rad**order in rounding)
            for _ in range(2):
                r = float((_contour(complex_fn, r, rad, 128)[1] / order).real)
        out.append(SpectralRoot(r, order, source))
    return Spectrum(tuple(out), k_max, {"grid_step": grid_step, "tol": tol})


def eigenphase_counter(sys: SecularSystem) -> Callable[[float], int]:
    """N(k): the number of roots of det(I - S D(k)) in (K_MIN, k], with order.

    The eigenvalues of U(k) = S D(k) move counterclockwise on the unit
    circle and their phases advance by k * (total bond length) in all, so the
    number that crossed 1 follows from the principal phases at K_MIN and at
    k.  Needs a unitary S (`NonUnitaryScattering` otherwise).
    """
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

    base = phase_sum(K_MIN) - K_MIN * l_total

    def count(k: float) -> int:
        return int(round((base + k * l_total - phase_sum(k)) / TWO_PI))

    return count


def find_roots_unitary(
    sys: SecularSystem,
    k_max: float,
    grid_step: float = 0.05,
    tol: float = 1e-10,
    source: str = "full",
) -> Spectrum:
    """Roots of det(I - S D(k)) on (K_MIN, k_max] for unitary S.

    The eigenvalues of U(k) = S D(k) move counterclockwise on the unit
    circle with speed between the shortest and longest bond length, so the
    root counting function N(k) of `eigenphase_counter` is exact and
    monotone; each of its jumps is localized by bisection and its size is
    the root's multiplicity.
    """
    require_positive(k_max=k_max, grid_step=grid_step, tol=tol)
    count = eigenphase_counter(sys)
    # grid fine enough that phases advance less than a half turn per cell
    step = min(grid_step, 0.9 * math.pi / float(sys.lengths.max()))
    ks = np.append(np.arange(K_MIN, k_max, step), k_max)
    counts = np.array([count(k) for k in ks])
    roots = tuple(SpectralRoot(k, n, source) for k, n in _bisect_steps(count, ks, counts, tol))
    return Spectrum(roots, k_max, {"grid_step": step, "tol": tol, "k_min": K_MIN})


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
