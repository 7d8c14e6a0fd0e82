"""The shared root-locator core and spectrum bookkeeping.

The locators of `locators` solve a family of functions at once: the
distinct quotient factors of `factors`, or the distinct character blocks of
`spectrum`.  An evaluator takes two arrays that broadcast together,
`which` (the member of each point) and `k`, so one array call serves every
member.  Each array call takes at most MAX_BATCH_BYTES of input: a grid
goes in chunks of members, a contour pass in chunks of circles, a stack of
`eigvals` in chunks of matrices.

`_refine_steps` closes the jumps of integer step functions.  Every cell of
a member's grid whose end levels differ is a bracket.  Each round computes
the next regula-falsi or bisection point of every open bracket of every
member, evaluates all of them in one call of the step evaluator, and moves
the end of equal level, so each root still lies in a bracket narrower than
`tol` with known levels at both ends.  Bisection steps guard the cases
where regula falsi stalls, and a level between the end levels splits the
bracket.  A member's points, roots and count do not depend on the other
members of its family.  `_contour` is the argument-principle pass: the
zero counts and zero sums in a batch of circles, from array calls on all
their points.

`merge_spectra` takes the union of spectra, or of copies of them under
other sources, and `compare_spectra` pairs two spectra root by root.
`isospectral_classes` groups the members of a family by secular function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GridTooCoarse, GridTooLarge

TWO_PI = 2.0 * math.pi
MAX_BATCH_BYTES = 2**15  # input of one array call of a locator: points, circle points or matrices
MAX_GRID_POINTS = 10**7  # largest k grid any locator or scan builds
PROBES = np.array([0.93 + 0.61j, 2.17 + 0.37j, 3.41 + 0.83j])  # in units of 1 / (longest bond length)

# an evaluator of a family: values at the points `k` of the members `which`
Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


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


def _chunked(fn: Evaluator, which: np.ndarray, k: np.ndarray, point_bytes: int) -> np.ndarray:
    """`fn(which, k)` on 1-D arrays, in calls of at most MAX_BATCH_BYTES of
    input at `point_bytes` per point, joined along the first axis."""
    per = max(1, MAX_BATCH_BYTES // max(1, point_bytes))
    if len(k) <= per:
        return np.asarray(fn(which, k))
    return np.concatenate([np.asarray(fn(which[j : j + per], k[j : j + per])) for j in range(0, len(k), per)])


def isospectral_classes(fn: Evaluator, members: int, lengths: Sequence[float], point_bytes: int) -> np.ndarray:
    """For each member, the first member whose secular determinant agrees with
    its own to a relative 1e-9 at every point of PROBES, in units of 1 / (the
    longest of the bond `lengths`).  `fn(which, z)` goes through `_chunked`
    at `point_bytes` per point.

    A secular determinant is a polynomial in the exp(i z L_b); two different
    ones agree at generic points with probability zero (Schwartz 1980,
    Zippel 1979), and off the real axis a unitary S has no zero.
    """
    z = PROBES / max(lengths, default=1.0)
    values = _chunked(fn, np.repeat(np.arange(members), len(z)), np.tile(z, members), point_bytes).reshape(members, -1)
    # a member agreeing with member i lies within tol[i, 0] of it in the real part at the first point
    order = np.argsort(values[:, 0].real)
    x, tol = values[order, 0].real, 1e-9 * np.abs(values[order])
    lo, hi = np.searchsorted(x, x - tol[:, 0]), np.searchsorted(x, x + tol[:, 0], side="right")
    near = order[np.minimum(lo[:, None] + np.arange((hi - lo).max()), hi[:, None] - 1)]
    agree = np.all(np.abs(values[near] - values[order, None]) <= tol[:, None], axis=-1)
    return np.where(agree, near, members).min(axis=1)[np.argsort(order)]


def _grid_values(f: Evaluator, members: int, ks: np.ndarray):
    """(members, values of f on the grid `ks`) in chunks of members of at
    most MAX_BATCH_BYTES of points; a longer grid goes one member at a time,
    in chunks of points."""
    points = MAX_BATCH_BYTES // 8
    per = max(1, points // len(ks))
    for lo in range(0, members, per):
        rows = np.arange(lo, min(lo + per, members))
        parts = [
            np.broadcast_to(np.asarray(f(rows[:, None], part), dtype=float), (len(rows), len(part)))
            for part in (ks[j : j + points] for j in range(0, len(ks), points))
        ]
        yield rows, parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _through_zero(center: float) -> GridTooCoarse:
    return GridTooCoarse(f"winding circle at {float(center)} passes through a zero")


def _contour(
    fn: Evaluator, which, centers: Sequence[float], radii: Sequence[float], samples: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero counts and zero sums of analytic functions inside circles, and
    which circles pass through a zero.

    Argument principle on `samples` chords per circle: the change of log f
    around a circle is 2pi i times its zero count, and (1/2pi i) * the
    contour integral of z f'(z)/f(z) = z d(log f) is the sum of its zeros.
    `fn(which, z)` is called with the members as a (circles, 1) array and
    the circles' points as a (circles, samples + 1) array, once per
    MAX_BATCH_BYTES of points and not at all for no circles.  A circle on
    which `fn` is exactly 0 is flagged, and its count and sum mean nothing.
    """
    centers, radii = np.broadcast_arrays(np.asarray(centers, dtype=float), np.asarray(radii, dtype=float))
    which = np.broadcast_to(np.asarray(which), centers.shape)
    counts, zsums = np.empty(len(centers), dtype=int), np.empty(len(centers), dtype=complex)
    through = np.zeros(len(centers), dtype=bool)
    circle = np.exp(1j * np.linspace(0.0, TWO_PI, samples + 1))
    per = max(1, MAX_BATCH_BYTES // (16 * (samples + 1)))
    for j in range(0, len(centers), per):
        zs = centers[j : j + per, None] + radii[j : j + per, None] * circle
        vals = np.asarray(fn(which[j : j + per, None], zs))
        hit = np.any(vals == 0, axis=-1)
        if hit.any():
            through[j : j + per] = hit
            vals = np.where(hit[:, None], 1.0, vals)
        dlog = np.diff(np.log(np.abs(vals)) + 1j * np.angle(vals), axis=-1)
        dlog = dlog.real + 1j * ((dlog.imag + np.pi) % TWO_PI - np.pi)
        zsums[j : j + per] = np.sum(0.5 * (zs[:, :-1] + zs[:, 1:]) * dlog, axis=-1) / (2j * np.pi)
        counts[j : j + per] = np.rint(dlog.imag.sum(-1) / TWO_PI)
    return counts, zsums, through


def winding_number(
    fn: Callable[[np.ndarray], np.ndarray], center: float, radius: float, samples: int = 64
) -> int:
    """Zero count of an analytic function inside a circle, by argument change."""
    counts, _, through = _contour(lambda which, z: fn(z), 0, [center], [radius], samples)
    if through[0]:
        raise _through_zero(center)
    return int(counts[0])


def _k_grid(start: float, stop: float, step: float) -> np.ndarray:
    """`np.arange(start, stop, step)`, refused with `GridTooLarge` when it would
    hold more than MAX_GRID_POINTS points, before anything is allocated."""
    if (stop - start) / step > MAX_GRID_POINTS:
        raise GridTooLarge(f"k from {start!r} to {stop!r} in steps of {step!r} is over {MAX_GRID_POINTS} points")
    return np.arange(start, stop, step)


def _signed(sums: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The continuous value of jumps of `size` (nonzero): column |size| - 1 of
    each row of prefix sums (the last column when |size| is larger), negated
    for a falling jump, so that it crosses zero upwards."""
    value = sums[np.arange(len(size)), np.minimum(np.abs(size), sums.shape[1]).astype(int) - 1]
    return np.where(size > 0, value, -value)


Cells = tuple  # (which, a, na, sa, b, nb, sb): member, left end k, level and sums, right end k, level and sums


def _grid_cells(which: np.ndarray, ks: np.ndarray, levels: np.ndarray, sums: np.ndarray) -> Cells:
    """The cells of a family's grids whose end levels differ, as `_refine_steps`
    takes them.  Each member's points are consecutive and ascending."""
    i = np.flatnonzero((levels[1:] != levels[:-1]) & (which[1:] == which[:-1]))
    return which[i], ks[i], levels[i], sums[i], ks[i + 1], levels[i + 1], sums[i + 1]


def _refine_steps(
    step: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    cells: Cells,
    tol: float,
    members: int,
) -> tuple[list[list[tuple[float, int]]], np.ndarray]:
    """Every jump of a family of integer step functions, as (k, size) per
    member, and the number of points evaluated for each member.

    `cells` are the brackets, each with its member, its ends' k and levels,
    and at each end a row of prefix sums.  `step(which, k)`, on 1-D arrays,
    gives the levels of the members `which` at the points `k` (NaN for None)
    and an (n, width) array of prefix sums: for a jump of size m, column
    |m| - 1 (the last when |m| is larger), negated when m < 0, crosses zero
    at the jump.  A level of None (an exact zero of a sign) takes the level
    of the bracket's left end.

    Each round computes the next point of every open bracket, by regula
    falsi with a bisection safeguard on that value, and evaluates all of
    them in one call of `step`; every point's level replaces the end of
    equal level, so the bracket stays exact.  Safeguards:
    - a step closer than 0.4 tol to an end is pushed 0.4 tol from it;
    - a bisection step when the end values do not bracket zero (an exact 0
      at an end does bracket it), or when the last two steps together did
      not halve the bracket;
    - a level strictly between the end levels splits the bracket in two,
      and the right one opens the next round with no step history; at the
      split point each new bracket keeps the sums if its level puts the
      value on the right side of zero, else a row of zeros, which is 0 for
      a jump of any size.
    A bracket is done when narrower than `tol`.  Its jump is reported where
    the chord between the end values crosses zero, or at its midpoint when
    they do not bracket zero: an end often sits on the root itself, on a
    side that rounding picks, so a midpoint would move by 0.2 tol between
    two functions a few ulps apart.  Consecutive jumps of a member in one
    direction whose brackets together are narrower than `tol`, or whose
    points are closer than `tol`, are one jump, at the midpoint of their
    brackets, as a bracket of that width would have been: a multiple root
    splits when a step lands where rounding puts some of its crossings on
    either side.  Each bracket follows the same points as it would alone.
    """
    which, a, na, sa, b, nb, sb = (np.array(v) for v in cells)
    before = np.full((2, len(a)), np.inf)  # the widths before the last two steps
    calls = np.zeros(members, dtype=int)
    done = []
    while True:
        size = nb - na
        fa, fb, width = _signed(sa, size), _signed(sb, size), b - a
        closed = width < tol
        if closed.any():
            done.append((which[closed], a[closed], b[closed], size[closed], fa[closed], fb[closed]))
            open_ = ~closed
            which, a, na, sa, b, nb, sb, fa, fb, width = (
                v[open_] for v in (which, a, na, sa, b, nb, sb, fa, fb, width)
            )
            before = before[:, open_]
        if not len(a):
            break
        x = 0.5 * (a + b)
        falsi = np.flatnonzero((fa <= 0.0) & (0.0 <= fb) & (fa < fb) & (width <= 0.5 * before[0]))
        if len(falsi):
            af, bf, faf, fbf = a[falsi], b[falsi], fa[falsi], fb[falsi]
            x[falsi] = np.minimum(np.maximum(af - faf * width[falsi] / (fbf - faf), af + 0.4 * tol), bf - 0.4 * tol)
        nx, sx = step(which, x)
        calls += np.bincount(which, minlength=members)
        nx = np.where(np.isnan(nx), na, nx)
        left, right = nx == na, nx == nb
        before = np.stack([before[1], width])
        a, sa = np.where(left, x, a), np.where(left[:, None], sx, sa)
        b, sb = np.where(right, x, b), np.where(right[:, None], sx, sb)
        split = np.flatnonzero(~(left | right))
        if len(split):
            xs, ns, ss, ls, rs = x[split], nx[split], sx[split], na[split], nb[split]
            new = (
                which[split], xs, ns, np.where((_signed(ss, rs - ns) <= 0.0)[:, None], ss, 0.0),
                b[split], rs, sb[split],
            )
            b[split], nb[split] = xs, ns
            sb[split] = np.where((_signed(ss, ns - ls) >= 0.0)[:, None], ss, 0.0)
            which, a, na, sa, b, nb, sb = (np.concatenate([v, w]) for v, w in zip((which, a, na, sa, b, nb, sb), new))
            before = np.concatenate([before, np.full((2, len(split)), np.inf)], axis=1)

    out: list[list] = [[] for _ in range(members)]  # [a, b, size, k] of each member's brackets, ascending
    if done:
        which, a, b, size, fa, fb = (np.concatenate(parts) for parts in zip(*done))
        order = np.lexsort((a, which))
        for w, a, b, size, fa, fb in zip(*(v[order].tolist() for v in (which, a, b, size, fa, fb))):
            brackets = out[w]
            k = a - fa * (b - a) / (fb - fa) if fa <= 0.0 <= fb and fa < fb else 0.5 * (a + b)
            if brackets and brackets[-1][2] * size > 0 and (b - brackets[-1][0] < tol or k - brackets[-1][3] < tol):
                first = brackets[-1][0]
                brackets[-1] = [first, b, brackets[-1][2] + size, 0.5 * (first + b)]
            else:
                brackets.append([a, b, size, k])
    return [[(k, int(size)) for _, _, size, k in brackets] for brackets in out], calls


def merge_spectra(
    spectra: Sequence[Spectrum], tol: float = 1e-7, copies: Optional[Sequence[tuple[int, str]]] = None
) -> Spectrum:
    """Multiset union; roots closer than tol coalesce with orders summed.

    By default each spectrum is taken once, with its roots' own sources and
    ranked by its position.  `copies` lists (i, source) pairs instead: one
    copy of the roots of `spectra[i]` per pair, with that source, ranked by
    the pair's position, as if each copy were a spectrum of its own.  Roots
    of equal k go in rank order.  A coalesced root names each source once,
    in rank order, so the list does not depend on how its roots fall within
    `tol`.
    """
    if copies is None:
        entries = [(r.k, i, j, r.order, r.source) for i, s in enumerate(spectra) for j, r in enumerate(s.roots)]
    else:
        roots = [[(r.k, r.order) for r in s.roots] for s in spectra]
        entries = [(k, rank, j, order, src) for rank, (i, src) in enumerate(copies) for j, (k, order) in enumerate(roots[i])]
    entries.sort()
    merged: list[list] = []  # [k, order, [(rank, source), ...]]
    for k, rank, _, order, src in entries:
        if merged and k - merged[-1][0] <= tol:
            last = merged[-1]
            w = last[1] + order
            last[0], last[1] = (last[0] * last[1] + k * order) / w, w
            last[2].append((rank, src))
        else:
            merged.append([k, order, [(rank, src)]])
    out = tuple(
        SpectralRoot(k, order, ",".join(dict.fromkeys(src for _, src in sorted(sources, key=itemgetter(0)) if src)))
        for k, order, sources in merged
    )
    return Spectrum(out, max((s.k_max for s in spectra), default=0.0), {"tol": tol})


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
