"""The shared root-locator core and spectrum bookkeeping.

The locators of `locators` solve a family of functions at once: the
distinct quotient factors of `factors`, or the distinct character blocks of
`spectrum`.  An evaluator takes two arrays that broadcast together,
`which` (the member of each point) and `k`, so one array call serves every
member.  Each array call takes at most MAX_BATCH_BYTES of input (`_chunked`):
points, or a stack of `eigvals` in chunks of matrices.

`_refine_steps` closes the jumps of integer step functions.  Each bracket
has a member and two ends of different levels: a cell of the member's grid
(`_grid_cells`), or an interval between two poles.  Each round computes
the next Anderson-Björk (modified regula falsi) or bisection point of
every open bracket of every member, evaluates all of them in one call of
the step evaluator, and moves the end of equal level, so each root still
lies in a bracket narrower than `tol` with known levels at both ends.  A
monotone step may also report its reaches at each point, how far its level
holds and by when the next jumps have happened; before every round the
bracket ends move to them with no evaluation.  Bisection steps guard the
cases where the modified regula falsi stalls, and a level between the end
levels splits the bracket.  The closed brackets become each member's jumps
in array code.  A member's points, roots and count do not depend on the
other members of its family.
`winding_number` counts the zeros inside one circle by the argument
principle.

`merge_spectra` takes the union of spectra, or of copies of them under
other sources, with one entry per root of each distinct spectrum, and
`compare_spectra` pairs two spectra root by root.
`isospectral_classes` groups the members of a family by secular function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import GridTooCoarse, GridTooLarge

TWO_PI = 2.0 * math.pi
MAX_BATCH_BYTES = 2**15  # input of one array call of a locator: points or matrices
MAX_GRID_POINTS = 10**7  # largest k grid any locator or scan builds, or set of sine zeros of `factors`
PROBES = np.array([0.93 + 0.61j, 2.17 + 0.37j, 3.41 + 0.83j])  # in units of 1 / (longest bond length)

# an evaluator of a family: values at the points `k` of the members `which`
Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


class _Root(NamedTuple):
    k: float
    order: int
    source: str = ""


class SpectralRoot(_Root):
    """A root of a spectrum: an immutable (k, order, source) tuple, with k
    taken as a float and order as an int."""

    __slots__ = ()

    def __new__(cls, k: float, order: int, source: str = "") -> "SpectralRoot":
        return tuple.__new__(cls, (float(k), int(order), source))


@dataclass(frozen=True)
class Spectrum:
    roots: tuple[SpectralRoot, ...]
    k_max: float
    meta: dict = field(default_factory=dict, compare=False)

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


def winding_number(
    fn: Callable[[np.ndarray], np.ndarray], center: float, radius: float, samples: int = 64
) -> int:
    """Zero count of an analytic function inside a circle: the change of its
    argument along `samples` chords of the circle, over 2pi, from one call
    of `fn` on the circle's points.  A circle on which `fn` is exactly 0
    raises `GridTooCoarse`."""
    vals = np.asarray(fn(center + radius * np.exp(1j * np.linspace(0.0, TWO_PI, samples + 1))))
    if np.any(vals == 0):
        raise GridTooCoarse(f"winding circle at {float(center)} passes through a zero")
    turns = (np.diff(np.angle(vals)) + np.pi) % TWO_PI - np.pi
    return int(np.rint(turns.sum() / TWO_PI))


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


def _reach(reaches: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Column m of each row of `reaches`, or inf where m is past its last column."""
    last = reaches.shape[1] - 1
    return np.where(m <= last, reaches[np.arange(len(m)), np.minimum(m, last).astype(int)], np.inf)


Side = tuple  # (sums, reaches) of points, looking ahead or behind
Cells = tuple  # (which, a, na, ahead of a, b, nb, behind of b) of each bracket


def _grid_cells(which: np.ndarray, ks: np.ndarray, levels: np.ndarray, ahead: Side, behind: Side) -> Cells:
    """The cells of a family's grids whose end levels differ, as `_refine_steps`
    takes them.  Each member's points are consecutive and ascending."""
    i = np.flatnonzero((levels[1:] != levels[:-1]) & (which[1:] == which[:-1]))
    a, b = tuple(v[i] for v in ahead), tuple(v[i + 1] for v in behind)
    return which[i], ks[i], levels[i], a, ks[i + 1], levels[i + 1], b


def _refine_steps(
    step: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, Side, Side]], cells: Cells, tol: float, members: int
) -> tuple[list[list[tuple[float, int]]], np.ndarray, np.ndarray]:
    """Every jump of a family of integer step functions, as (k, size) per
    member, and for each member the number of points evaluated and of rounds
    that evaluated one of them.

    `cells` are the brackets, each with its member, its ends' k and levels,
    and what its left end sees ahead and its right end behind.
    `step(which, k)`, on 1-D arrays, gives at the points `k` of the members
    `which` the levels, and ahead and behind of each point, (sums, reaches):
    - sums, an (n, width) array of prefix sums: for a jump of size m that the
      point bounds on that side, column |m| - 1 (the last when |m| is
      larger), negated when m < 0, crosses zero at the jump;
    - reaches, an (n, r) array: the level holds to k + ahead[:, 0] and from
      k - behind[:, 0]; the next m jumps have all happened by k + ahead[:, m],
      and the last m after k - behind[:, m] (no bound where m is past the
      last column).

    Every bracket keeps the points it was last evaluated at, one per level,
    and its ends move inward to the reaches of those points before every
    round: a moved end keeps its exact level, since a step that reports
    reaches is monotone.  The sign step of `locators.find_roots_real`
    reports one column of zeros, so its level holds for 0 and no jump is
    bounded: it moves no end.  Each round computes the next point of every open
    bracket, placed inside the bracket, and evaluates all of them in one
    call of `step`; every point's level replaces the end of equal level, so
    the bracket stays exact.
    The point is the Anderson-Björk step (Anderson and Björk 1973): regula falsi on
    the chord of the two evaluated points with their values weighted.  Each
    weight starts at 1 and goes back to 1 when its end is replaced; a step
    that replaces the same end as the step before it multiplies the kept
    end's weight by m = 1 - f(x) / f(replaced end), or by 0.5 when m is not
    in (0, 1], so regula falsi no longer converges from one side only.
    Safeguards:
    - a step closer than 0.4 tol to an end is pushed 0.4 tol from it;
    - a bisection step when the weighted values do not bracket zero (an
      exact 0 at an end does bracket it), or when the last three steps
      together did not halve the bracket;
    - a level strictly between the end levels splits the bracket in two;
      both open the next round with weights 1, and the right one with no
      step history.
    A bracket is done when narrower than `tol`, or when no float lies
    strictly between its ends (a `tol` below the float spacing).  Its jump
    is reported where the unweighted chord crosses zero, inside the
    bracket, or at its midpoint when the chord's values do not bracket
    zero: an end often sits on the root itself, on a side that rounding
    picks, so a midpoint would move by 0.2 tol between two functions a few
    ulps apart.  Consecutive
    jumps of a member in one direction whose brackets together are narrower
    than `tol`, or whose points are closer than `tol`, are one jump, at the
    midpoint of their brackets, as a bracket of that width would have been:
    a multiple root splits when a step lands where rounding puts some of its
    crossings on either side.  The jumps are assembled in array code, and
    this merge runs in Python only for a member with consecutive jumps of
    one direction closer than `tol` (`_jumps`).  Each bracket follows the
    same points as it would alone.
    """
    which, xa, na, (sa, ra), xb, nb, (sb, rb) = cells
    which, xa, na, sa, ra, xb, nb, sb, rb = (np.array(v) for v in (which, xa, na, sa, ra, xb, nb, sb, rb))
    a, b = xa.copy(), xb.copy()  # the bracket; xa and xb are its evaluated points
    wa, wb = np.ones(len(a)), np.ones(len(a))  # the weights of the values at xa and xb
    last = np.zeros(len(a), dtype=int)  # the end the last step replaced: 1 left, 2 right, 0 none
    before = np.full((3, len(a)), np.inf)  # the widths before the last three steps
    calls, rounds = np.zeros(members, dtype=int), np.zeros(members, dtype=int)
    done = []
    while len(a):
        size = nb - na
        m = np.abs(size)
        a = np.maximum(a, np.maximum(xa + ra[:, 0], xb - _reach(rb, m)))
        b = np.minimum(b, np.minimum(xb - rb[:, 0], xa + _reach(ra, m)))
        fa, fb, width = _signed(sa, size), _signed(sb, size), b - a
        closed = (width < tol) | (np.nextafter(a, b) >= b)
        if closed.any():
            done.append(tuple(v[closed] for v in (which, a, b, size, xa, fa, xb, fb)))
            open_ = ~closed
            state = (which, a, b, na, nb, xa, sa, ra, xb, sb, rb, wa, wb, last, size, fa, fb, width)
            which, a, b, na, nb, xa, sa, ra, xb, sb, rb, wa, wb, last, size, fa, fb, width = (v[open_] for v in state)
            before = before[:, open_]
        if not len(a):
            break
        x = 0.5 * (a + b)
        ga, gb = wa * fa, wb * fb
        falsi = np.flatnonzero((ga <= 0.0) & (0.0 <= gb) & (ga < gb) & (width <= 0.5 * before[0]))
        if len(falsi):
            xf, gaf, gbf = xa[falsi], ga[falsi], gb[falsi]
            chord = xf - gaf * (xb[falsi] - xf) / (gbf - gaf)
            x[falsi] = np.minimum(np.maximum(chord, a[falsi] + 0.4 * tol), b[falsi] - 0.4 * tol)
        nx, (sx, rx), (sy, ry) = step(which, x)
        evaluated = np.bincount(which, minlength=members)
        calls += evaluated
        rounds += evaluated > 0
        left, right = nx == na, nx == nb
        # Anderson-Björk: a step that replaces the end the step before it
        # replaced scales the kept end's weight by 1 - f(x) / f(replaced end)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = 1.0 - _signed(np.where(left[:, None], sx, sy), size) / np.where(left, fa, fb)
        again, last = last == left + 2 * right, left + 2 * right
        scale = np.where(again, np.where((scale > 0.0) & (scale <= 1.0), scale, 0.5), 1.0)
        wa, wb = np.where(right, wa * scale, 1.0), np.where(left, wb * scale, 1.0)
        before = np.stack([before[1], before[2], width])
        a, xa = np.where(left, x, a), np.where(left, x, xa)
        sa, ra = np.where(left[:, None], sx, sa), np.where(left[:, None], rx, ra)
        b, xb = np.where(right, x, b), np.where(right, x, xb)
        sb, rb = np.where(right[:, None], sy, sb), np.where(right[:, None], ry, rb)
        split = np.flatnonzero(~(left | right))
        if len(split):
            new = tuple(v[split] for v in (which, x, b, nx, nb, x, sx, rx, xb, sb, rb, wa, wb, last))
            b[split], nb[split], xb[split], sb[split], rb[split] = x[split], nx[split], x[split], sy[split], ry[split]
            state = (which, a, b, na, nb, xa, sa, ra, xb, sb, rb, wa, wb, last)
            which, a, b, na, nb, xa, sa, ra, xb, sb, rb, wa, wb, last = (
                np.concatenate([v, w]) for v, w in zip(state, new)
            )
            before = np.concatenate([before, np.full((3, len(split)), np.inf)], axis=1)
    return _jumps(done, tol, members), calls, rounds


def _jumps(done: list[tuple], tol: float, members: int) -> list[list[tuple[float, int]]]:
    """The jumps of each member, ascending, from the closed brackets `done`
    of `_refine_steps`: parts of (which, a, b, size, xa, fa, xb, fb)."""
    if not done:
        return [[] for _ in range(members)]
    which, a, b, size, xa, fa, xb, fb = (np.concatenate(parts) for parts in zip(*done))
    order = np.lexsort((a, which))
    which, a, b, size, xa, fa, xb, fb = (v[order] for v in (which, a, b, size, xa, fa, xb, fb))
    chord = (fa <= 0.0) & (0.0 <= fb) & (fa < fb)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(chord, np.minimum(np.maximum(xa - fa * (xb - xa) / (fb - fa), a), b), 0.5 * (a + b))
    bounds = np.searchsorted(which, np.arange(members + 1)).tolist()
    ks, sizes = k.tolist(), size.astype(int).tolist()
    out = [list(zip(ks[lo:hi], sizes[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]
    # only a member with consecutive jumps of one direction closer than tol can merge them
    near = (which[1:] == which[:-1]) & (size[1:] * size[:-1] > 0) & (a[1:] - b[:-1] < tol)
    for w in dict.fromkeys(which[1:][near].tolist()):
        brackets: list[list] = []  # [a, b, size, k]
        lo, hi = bounds[w], bounds[w + 1]
        for a_, b_, n, k_ in zip(a[lo:hi].tolist(), b[lo:hi].tolist(), sizes[lo:hi], ks[lo:hi]):
            if brackets and brackets[-1][2] * n > 0 and (b_ - brackets[-1][0] < tol or k_ - brackets[-1][3] < tol):
                first = brackets[-1][0]
                brackets[-1] = [first, b_, brackets[-1][2] + n, 0.5 * (first + b_)]
            else:
                brackets.append([a_, b_, n, k_])
        out[w] = [(k_, n) for _, _, n, k_ in brackets]
    return out


def merge_spectra(
    spectra: Sequence[Spectrum], tol: float = 1e-7, copies: Optional[Sequence[tuple[int, Optional[str]]]] = None
) -> Spectrum:
    """Multiset union; roots closer than tol coalesce with orders summed.

    `copies` lists (i, source) pairs: one copy of the roots of `spectra[i]`
    per pair, ranked by the pair's position, as if each copy were a
    spectrum of its own.  A copy's roots take its source, or keep their own
    when the source is None.  The default, None, is every spectrum once in
    its position with source None.  Each root of a spectrum copied is one
    entry, its order weighted by the spectrum's number of copies, so equal
    copies are not averaged with each other and a row of one spectrum's
    root has that root's k.  Roots of equal k go in the rank order of their
    spectra's first copies.  A coalesced root names the source of each copy
    once, in rank order, so the list does not depend on how its roots fall
    within `tol`.
    """
    copies = [(i, None) for i in range(len(spectra))] if copies is None else copies
    held: dict[int, list] = {}  # the (rank, source) of each copy of each spectrum, by rank
    for rank, (i, src) in enumerate(copies):
        held.setdefault(i, []).append((rank, src))
    # one entry per root of each spectrum copied, weighted by its copies, ranked by its first copy
    entries = sorted((r.k, ranks[0][0], j, i, r) for i, ranks in held.items() for j, r in enumerate(spectra[i].roots))
    merged: list[list] = []  # [k, order, [(i, root), ...]]
    for k, _, _, i, root in entries:
        order = root.order * len(held[i])
        if merged and k - merged[-1][0] <= tol:
            last = merged[-1]
            w = last[1] + order
            last[0], last[1] = (last[0] * last[1] + k * order) / w, w
            last[2].append((i, root))
        else:
            merged.append([k, order, [(i, root)]])
    # the sources of the copies of one spectrum, where every copy names its own
    named = {i: _joined(ranks) for i, ranks in held.items() if all(src is not None for _, src in ranks)}

    def sources(parts: list) -> str:
        if len(parts) == 1 and parts[0][0] in named:
            return named[parts[0][0]]
        pairs = [(rank, root.source if src is None else src) for i, root in parts for rank, src in held[i]]
        return _joined(sorted(pairs, key=itemgetter(0)))

    out = tuple(SpectralRoot(k, order, sources(parts)) for k, order, parts in merged)
    return Spectrum(out, max((s.k_max for s in spectra), default=0.0), {"tol": tol})


def _joined(sources: list[tuple[int, str]]) -> str:
    """The nonempty sources of (rank, source) pairs in rank order, each once."""
    return ",".join(dict.fromkeys(src for _, src in sources if src))


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
