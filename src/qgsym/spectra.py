"""Root extraction from secular functions and spectrum bookkeeping.

Both locators run one core, `_refine_steps`: an integer step function is
evaluated on a grid, and every cell where it changes is closed to width
`tol` by regula falsi with a bisection safeguard on a continuous value that
crosses zero at the jump.  The level of every evaluation moves the end of
equal level, so each root still lies in a bracket narrower than `tol` with
known levels at both ends, as under bisection.  Bisection steps
guard the cases where regula falsi stalls, and a level between the end
levels splits the cell.  `_contour` is one argument-principle pass giving
the zero count and zero sum in a circle.

- `find_roots_real`: the step function is the sign of f and the value f
  itself (an exact 0.0 inside the grid takes the sign of the point before
  it); the contour pass over its analytic continuation places touching
  roots (small minima of |f|), gives every order as a winding number and
  re-centres multiple roots.
- `find_roots_unitary`: exact eigenphase counting for unitary scattering.
  N(k) = (sum of principal eigenphases at the reference point + k * total
  bond length - sum at k) / 2pi is integer-valued and monotone
  (`eigenphase_counter`); each jump's size is the root's multiplicity.  The
  value is the sum of the eigenphases nearest 0, which all increase.  N is
  exact at every k, so the cell is derived: 0.9 pi / (longest bond length).
  The grid goes to stacked `eigvals` calls of at most MAX_STACK_BYTES of
  input.  This is the robust path for high-order roots of large systems,
  and N(k_max) is an exact root count certifying the real locator's output.

Both locators report the points they evaluated, grid included, as
`meta["evaluations"]`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GridTooCoarse, GridTooLarge, NonUnitaryScattering, require_positive
from .scattering import SecularSystem

TWO_PI = 2.0 * math.pi
K_MIN = 1e-6  # lower end of the unitary locator's range; k = 0 is always a root
TOL_TOUCH = 1e-8  # largest |f| at a local minimum that counts as a touching root
PHASE_EPS = 1e-12  # an eigenphase in [0, PHASE_EPS) has not crossed 1 yet
MAX_STACK_BYTES = 4 * 2**20  # input of one stacked eigvals call
MAX_GRID_POINTS = 10**7  # largest k grid any locator or scan builds
_AT_JUMP = ()  # values that are 0 for a jump of any size


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


def _k_grid(start: float, stop: float, step: float) -> np.ndarray:
    """`np.arange(start, stop, step)`, refused with `GridTooLarge` when it would
    hold more than MAX_GRID_POINTS points, before anything is allocated."""
    if (stop - start) / step > MAX_GRID_POINTS:
        raise GridTooLarge(f"k from {start!r} to {stop!r} in steps of {step!r} is over {MAX_GRID_POINTS} points")
    return np.arange(start, stop, step)


def _signed_value(vals: Sequence[float], size: int) -> float:
    """The continuous value of a jump of `size`: its first |size| entries summed,
    negated for a falling jump, so that it crosses zero upwards."""
    total = float(sum(vals[: abs(size)]))
    return total if size > 0 else -total


def _refine_steps(
    step: Callable[[float], tuple[Optional[int], Sequence[float]]],
    ks: np.ndarray,
    levels: np.ndarray,
    values: Sequence[Sequence[float]],
    tol: float,
) -> tuple[list[tuple[float, int]], int]:
    """Every jump of an integer step function on the grid `ks`, as (k, size),
    and the number of points evaluated, grid included.

    `step(k)` gives the level at k and a sequence of continuous values: for a
    jump of size m the sum of the first |m| entries (all of them when there
    are fewer), negated when m < 0, crosses zero at the jump.  A level of
    None (an exact zero of a sign) takes the level of the bracket's left end.
    `levels[i], values[i]` is `step(ks[i])`.

    Each cell whose end levels differ is refined by regula falsi with a
    bisection safeguard on that value, and every evaluation's level replaces
    the end of equal level, so the bracket stays exact.  Safeguards:
    - a step closer than 0.4 tol to an end is pushed 0.4 tol from it;
    - a bisection step when the end values do not bracket zero (an exact 0
      at an end does bracket it), or when the last two steps together did
      not halve the bracket;
    - a level strictly between the end levels splits the cell in two, and
      the left cell is refined first; at the split point each new cell keeps
      the value if its level puts it on the right side of zero, else 0.
    A cell is done when narrower than `tol`.  Its jump is reported where the
    chord between the end values crosses zero, or at its midpoint when they
    do not bracket zero: an end often sits on the root itself, on a side
    that rounding picks, so a midpoint would move by 0.2 tol between two
    functions a few ulps apart.  Consecutive jumps in one direction whose
    cells together are narrower than `tol` are one jump, at the midpoint,
    as a cell of that width would have been: a multiple root splits when a
    step lands where rounding puts some of its crossings on either side.
    """
    done: list[list] = []  # [a, b, size, k] of the finished cells, ascending
    calls = 0
    for i in np.flatnonzero(levels[1:] != levels[:-1]):
        cells = [(float(ks[i]), int(levels[i]), values[i], float(ks[i + 1]), int(levels[i + 1]), values[i + 1])]
        while cells:
            a, na, va, b, nb, vb = cells.pop()
            fa, fb = _signed_value(va, nb - na), _signed_value(vb, nb - na)
            before = (math.inf, math.inf)  # the widths before the last two steps
            while b - a >= tol:
                width = b - a
                if fa <= 0.0 <= fb and fa < fb and width <= 0.5 * before[0]:
                    x = min(max(a - fa * width / (fb - fa), a + 0.4 * tol), b - 0.4 * tol)
                else:
                    x = 0.5 * (a + b)
                nx, vx = step(x)
                calls += 1
                nx = na if nx is None else nx
                if nx == na:
                    a, va, fa = x, vx, _signed_value(vx, nb - na)
                elif nx == nb:
                    b, vb, fb = x, vx, _signed_value(vx, nb - na)
                else:
                    right = vx if _signed_value(vx, nb - nx) <= 0.0 else _AT_JUMP
                    cells.append((x, nx, right, b, nb, vb))
                    b, nb, vb = x, nx, vx if _signed_value(vx, nx - na) >= 0.0 else _AT_JUMP
                    fa, fb = _signed_value(va, nb - na), _signed_value(vb, nb - na)
                before = (before[1], width)
            size = nb - na
            if done and done[-1][2] * size > 0 and b - done[-1][0] < tol:
                first = done[-1][0]
                done[-1] = [first, b, done[-1][2] + size, 0.5 * (first + b)]
            elif fa <= 0.0 <= fb and fa < fb:
                done.append([a, b, size, a - fa * (b - a) / (fb - fa)])
            else:
                done.append([a, b, size, 0.5 * (a + b)])
    return [(k, size) for _, _, size, k in done], len(ks) + calls


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
    `complex_fn`, while refinement and the touching-root check call `f` on
    single floats.

    Sign changes on the grid are closed to width `tol` by `_refine_steps`,
    with f as the value; a grid value of exactly 0.0 inside the grid takes
    the sign of the point before it.  `meta["evaluations"]` counts the grid
    points and the refinement's calls of `f`.  An
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
    ks = _k_grid(grid_step, k_max + grid_step / 2.0, grid_step)
    if ks[-1] < k_max - 1e-12:
        ks = np.append(ks, k_max)
    vals = np.asarray(f(ks))

    # the step evaluator is the sign of f; an exact zero inside the grid takes
    # the sign of the point before it, one at either end stays a level 0 so
    # that the change next to it is refined onto it
    signs = np.sign(vals)
    before = np.maximum.accumulate(np.where(signs != 0, np.arange(len(signs)), 0))
    signs[1:-1] = signs[before[1:-1]]

    def sign_at(k: float) -> tuple[Optional[int], tuple[float]]:
        fk = float(f(k))
        return (fk > 0.0) - (fk < 0.0) or None, (fk,)

    jumps, evaluations = _refine_steps(sign_at, ks, signs, vals[:, None], tol)
    roots = [k for k, _ in jumps]

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
            # the sign's resolution degrades like eps**(1/order) at a multiple
            # zero; re-centre twice on the zero sum over the same circle (a
            # smaller one would drown |f| ~ rad**order in rounding)
            for _ in range(2):
                r = float((_contour(complex_fn, r, rad, 128)[1] / order).real)
        out.append(SpectralRoot(r, order, source))
    return Spectrum(tuple(out), k_max, {"grid_step": grid_step, "tol": tol, "evaluations": evaluations})


def _eigenphases(sys: SecularSystem, ks: np.ndarray) -> np.ndarray:
    """Eigenphases of U(k) = S D(k) in (-pi, pi], less PHASE_EPS, one row per k.

    An entry is >= 0 once its eigenvalue has crossed 1, so an eigenvalue at
    exactly 1 counts as about to leave.  The matrices go to one stacked
    `np.linalg.eigvals` call per MAX_STACK_BYTES of input.
    """
    per = max(1, MAX_STACK_BYTES // (16 * sys.size**2))
    out = np.empty((len(ks), sys.size))
    for j in range(0, len(ks), per):
        d = np.exp(1j * ks[j : j + per, None] * sys.lengths)
        out[j : j + per] = np.angle(np.linalg.eigvals(sys.S * d[:, None, :])) - PHASE_EPS
    return out


def _eigenphase_steps(
    sys: SecularSystem, ks: np.ndarray
) -> tuple[Callable[[float], tuple[int, list[float]]], np.ndarray, np.ndarray]:
    """The step evaluator of N(k), the root count in (ks[0], k], with its
    levels and values on `ks`.

    N(k) = (P(ks[0]) - ks[0] * L + k * L - P(k)) / 2pi, where L is the total
    bond length and P(k) the sum of the eigenphases of U(k) taken in
    (0, 2pi] as `_eigenphases` places them: each phase advances by k * L in
    all and drops by 2pi when it crosses 1.  The values are the eigenphases
    nearest 0 first, so a jump of m sums the m phases that cross there.
    Needs a unitary S (`NonUnitaryScattering` otherwise).
    """
    defect = sys.unitarity_defect()
    if defect > 1e-10:
        raise NonUnitaryScattering(f"|S S^H - I| = {defect:.3e}: eigenphase counting needs a unitary S")
    l_total = float(sys.lengths.sum())

    def phase_total(phases: np.ndarray) -> np.ndarray:
        return phases.sum(-1) + TWO_PI * (phases < 0.0).sum(-1)

    def counts(k, phases: np.ndarray) -> np.ndarray:
        return np.rint((base + k * l_total - phase_total(phases)) / TWO_PI).astype(int)

    def step(k: float) -> tuple[int, list[float]]:
        phases = _eigenphases(sys, np.array([k]))
        return int(counts(k, phases)[0]), sorted(phases[0].tolist(), key=abs)

    phases = _eigenphases(sys, ks)
    base = float(phase_total(phases[0])) - ks[0] * l_total
    nearest_first = np.take_along_axis(phases, np.argsort(np.abs(phases), axis=-1), axis=-1)
    return step, counts(ks, phases), nearest_first


def eigenphase_counter(sys: SecularSystem) -> Callable[[float], int]:
    """N(k): the number of roots of det(I - S D(k)) in (K_MIN, k], with order.

    The eigenvalues of U(k) = S D(k) move counterclockwise on the unit
    circle and their phases advance by k * (total bond length) in all, so the
    number that crossed 1 follows from the principal phases at K_MIN and at
    k.  Needs a unitary S (`NonUnitaryScattering` otherwise).
    """
    step = _eigenphase_steps(sys, np.array([K_MIN]))[0]
    return lambda k: step(k)[0]


def find_roots_unitary(sys: SecularSystem, k_max: float, *, tol: float = 1e-10, source: str = "full") -> Spectrum:
    """Roots of det(I - S D(k)) on (K_MIN, k_max] for unitary S.

    N(k) of `eigenphase_counter` is exact and monotone at every k, and each
    jump is a root of order the jump's size, so a cell with equal end counts
    holds no root however wide it is.  The cell, `meta["grid_step"]`, is
    0.9 pi / (longest bond length): no phase turns by half a circle in one
    cell, so the regula-falsi value of `_refine_steps`, the sum of the
    phases crossing at a jump, stays continuous.  Every evaluation's count
    keeps the bracket exact, so each root is certified by its end counts.
    """
    require_positive(k_max=k_max, tol=tol)
    step = 0.9 * math.pi / float(sys.lengths.max())
    ks = np.append(_k_grid(K_MIN, k_max, step), k_max)
    count_at, levels, values = _eigenphase_steps(sys, ks)
    jumps, evaluations = _refine_steps(count_at, ks, levels, values, tol)
    roots = tuple(SpectralRoot(k, n, source) for k, n in jumps)
    return Spectrum(roots, k_max, {"grid_step": step, "tol": tol, "k_min": K_MIN, "evaluations": evaluations})


def merge_spectra(spectra: Sequence[Spectrum], tol: float = 1e-7) -> Spectrum:
    """Multiset union; roots closer than tol coalesce with orders summed.

    A coalesced root names each source once, in the order of `spectra`, so
    the list does not depend on how its roots fall within `tol`.
    """
    entries = sorted(((r, i) for i, s in enumerate(spectra) for r in s.roots), key=lambda e: e[0].k)
    k_max = max((s.k_max for s in spectra), default=0.0)
    merged: list[tuple[SpectralRoot, list[tuple[int, str]]]] = []
    for r, i in entries:
        if merged and r.k - merged[-1][0].k <= tol:
            prev, sources = merged[-1]
            w = prev.order + r.order
            merged[-1] = (SpectralRoot((prev.k * prev.order + r.k * r.order) / w, w), sources + [(i, r.source)])
        else:
            merged.append((r, [(i, r.source)]))
    roots = tuple(
        SpectralRoot(r.k, r.order, ",".join(dict.fromkeys(src for _, src in sorted(sources, key=lambda e: e[0]) if src)))
        for r, sources in merged
    )
    return Spectrum(roots, k_max, {"tol": tol})


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
