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
bracket ends move to them with no evaluation.  A caller may also give each
bracket a first point and have the step propose the next point at every
point it evaluates, such as a Newton point; a proposal inside the bracket
takes the place of the Anderson-Björk point while the guard on its step
sizes and the bracket's width holds.  Bisection steps guard the cases
where the modified regula falsi or the proposals stall, and a level
between the end levels splits the bracket.  The closed brackets become
each member's jumps in array code.  A member's points, roots and count do
not depend on the other members of its family.
`winding_number` counts the zeros inside one circle by the argument
principle.

A `Spectrum` is its root arrays, `k`, `order` and `source`, row i root i:
each locator member's spectrum is a slice of its family's arrays.
`merge_spectra` takes the union of spectra, or of copies of them under
other sources, with one entry per root of each distinct spectrum, sorted
in arrays; it runs Python only inside runs of entries at most `tol`
apart, where roots coalesce.  `compare_spectra` pairs two spectra root by
root.
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
MAX_BATCH_BYTES = 2**15  # input of one array call of a locator: points or matrices
MAX_GRID_POINTS = 10**7  # largest k grid any locator or scan builds, or set of sine zeros of `factors`
PROBES = np.array([0.93 + 0.61j, 2.17 + 0.37j, 3.41 + 0.83j])  # in units of 1 / (longest bond length)

# an evaluator of a family: values at the points `k` of the members `which`
Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The roots of a spectrum as three read-only arrays, row i root i: `k`
    (float64, ascending as the locators and `merge_spectra` build it),
    `order` (int64) and `source`, a tuple of str.  An array given that is
    already read-only, such as a locator's slice of its family's roots, is
    kept as it is, and any other is copied.  Equality compares the roots
    and `k_max`, not `meta`."""

    k: np.ndarray
    order: np.ndarray
    source: tuple
    k_max: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        k, order, source = _read_only(self.k, np.float64), _read_only(self.order, np.int64), tuple(self.source)
        if not (k.ndim == order.ndim == 1 and len(k) == len(order) == len(source)):
            raise ValueError(
                f"a spectrum has one k, order and source per root, not {len(k)}, {len(order)} and {len(source)}"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "source", source)

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (
            self.source == other.source and self.k_max == other.k_max
            and np.array_equal(self.k, other.k) and np.array_equal(self.order, other.order)
        )

    def expanded(self) -> np.ndarray:
        """Each root's k repeated by its order."""
        return np.repeat(self.k, self.order)

    def count(self, K: Optional[float] = None) -> int:
        K = self.k_max if K is None else K
        return int(self.order[self.k <= K + 1e-12].sum())


def _read_only(values, dtype) -> np.ndarray:
    """`values` as a read-only array of `dtype`: itself when it is one, else a copy."""
    out = np.asarray(values, dtype=dtype)
    if out.flags.writeable:
        out = out.copy()
        out.flags.writeable = False
    return out


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
Cells = tuple  # (which, a, na, ahead of a, b, nb, behind of b[, first point]) of each bracket


def _grid_cells(which: np.ndarray, ks: np.ndarray, levels: np.ndarray, ahead: Side, behind: Side) -> Cells:
    """The cells of a family's grids whose end levels differ, as `_refine_steps`
    takes them.  Each member's points are consecutive and ascending."""
    i = np.flatnonzero((levels[1:] != levels[:-1]) & (which[1:] == which[:-1]))
    a, b = tuple(v[i] for v in ahead), tuple(v[i + 1] for v in behind)
    return which[i], ks[i], levels[i], a, ks[i + 1], levels[i + 1], b


def _refine_steps(
    step: Callable[[np.ndarray, np.ndarray], tuple], cells: Cells, tol: float, members: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Every jump of a family of integer step functions, as the arrays
    (which, k, size) of `_jumps`, and for each member the number of points
    evaluated and of rounds that evaluated one of them.

    `cells` are the brackets, each with its member, its ends' k and levels,
    and what its left end sees ahead and its right end behind, and may end
    with a first point for each bracket (NaN for none).
    `step(which, k)`, on 1-D arrays, gives at the points `k` of the members
    `which` the levels, ahead and behind of each point, and with first
    points a proposed next point for each point.  Ahead and behind are
    each (sums, reaches):
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
    With first points, a bracket's first point and then the point proposed
    at its last evaluated point replace the Anderson-Björk step when they
    lie in the closed bracket; one outside it, or NaN, leaves the step as
    above.  A proposal within 0.4 tol of an end is pushed 0.4 tol inside,
    so a proposal that has converged closes its bracket in one more round;
    it is taken only when the step before it took a proposal that needed
    no push, since it moves the bracket by 0.4 tol when the root is not
    there.  Any other proposal is taken when it lies at most half as far
    from the last evaluated point as the step to that point, or the last
    three steps halved the bracket, so Newton steps that converge from one
    side, moving one end only, go on; otherwise the round bisects.  A step
    that returns no proposal costs no array work for them.
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
    which, xa, na, (sa, ra), xb, nb, (sb, rb), *first = cells
    which, xa, na, sa, ra, xb, nb, sb, rb = (np.array(v) for v in (which, xa, na, sa, ra, xb, nb, sb, rb))
    a, b = xa.copy(), xb.copy()  # the bracket; xa and xb are its evaluated points
    wa, wb = np.ones(len(a)), np.ones(len(a))  # the weights of the values at xa and xb
    last = np.zeros(len(a), dtype=int)  # the end the last step replaced: 1 left, 2 right, 0 none
    before = np.full((3, len(a)), np.inf)  # the widths before the last three steps
    # with first points: the proposed next point, the point evaluated last, the size of the step to
    # it, and whether that step took a proposal that needed no push from an end (none yet: inf)
    unset = np.full(len(a), np.inf)
    guide = first and (np.array(first[0], dtype=float), unset, unset, np.ones(len(a), bool))
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
            guide = guide and tuple(v[open_] for v in guide)
        if not len(a):
            break
        x = 0.5 * (a + b)
        ga, gb = wa * fa, wb * fb
        halved = width <= 0.5 * before[0]
        falsi = np.flatnonzero((ga <= 0.0) & (0.0 <= gb) & (ga < gb) & halved)
        if len(falsi):
            xf, gaf, gbf = xa[falsi], ga[falsi], gb[falsi]
            chord = xf - gaf * (xb[falsi] - xf) / (gbf - gaf)
            x[falsi] = np.minimum(np.maximum(chord, a[falsi] + 0.4 * tol), b[falsi] - 0.4 * tol)
        if guide:
            p, xl, moved, free = guide
            px = np.minimum(np.maximum(p, a + 0.4 * tol), b - 0.4 * tol)
            interior = (a + 0.4 * tol < p) & (p < b - 0.4 * tol)
            pushed = free & (a <= p) & (p <= b) & (a < px) & (px < b)  # strictly inside at any tol
            take = np.where(interior, halved | (np.abs(p - xl) <= 0.5 * moved), pushed)
            x = np.where(take, px, x)
        nx, (sx, rx), (sy, ry), *proposed = step(which, x)
        if guide:
            guide = (proposed[0], x, np.abs(x - xl), take & interior)
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
            guide = guide and tuple(np.append(v, v[split]) for v in guide)
    return _jumps(done, tol), calls, rounds


def _jumps(done: list[tuple], tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The jumps of a family as arrays (which, k, size), by member and each
    member's ascending, from the closed brackets `done` of `_refine_steps`:
    parts of (which, a, b, size, xa, fa, xb, fb)."""
    if not done:
        return np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0, dtype=np.int64)
    which, a, b, size, xa, fa, xb, fb = (np.concatenate(parts) for parts in zip(*done))
    order = np.lexsort((a, which))
    which, a, b, size, xa, fa, xb, fb = (v[order] for v in (which, a, b, size, xa, fa, xb, fb))
    chord = (fa <= 0.0) & (0.0 <= fb) & (fa < fb)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(chord, np.minimum(np.maximum(xa - fa * (xb - xa) / (fb - fa), a), b), 0.5 * (a + b))
    size = size.astype(np.int64)
    # only a member with consecutive jumps of one direction closer than tol can merge them
    near = (which[1:] == which[:-1]) & (size[1:] * size[:-1] > 0) & (a[1:] - b[:-1] < tol)
    parts, kept = [], 0
    for w in np.unique(which[1:][near]).tolist():
        lo, hi = np.searchsorted(which, [w, w + 1]).tolist()
        brackets: list[list] = []  # [a, b, size, k]
        for a_, b_, n, k_ in zip(a[lo:hi].tolist(), b[lo:hi].tolist(), size[lo:hi].tolist(), k[lo:hi].tolist()):
            if brackets and brackets[-1][2] * n > 0 and (b_ - brackets[-1][0] < tol or k_ - brackets[-1][3] < tol):
                first = brackets[-1][0]
                brackets[-1] = [first, b_, brackets[-1][2] + n, 0.5 * (first + b_)]
            else:
                brackets.append([a_, b_, n, k_])
        parts.append((which[kept:lo], k[kept:lo], size[kept:lo]))
        parts.append(([w] * len(brackets), [k_ for *_, k_ in brackets], [n for _, _, n, _ in brackets]))
        kept = hi
    parts.append((which[kept:], k[kept:], size[kept:]))
    return tuple(np.concatenate(v) for v in zip(*parts))


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

    The entries are sorted in arrays, and each entry joins the last row
    while it lies within `tol` of the row's running weighted mean.  That
    mean lies at or, by rounding, a few ulps above the row's last k, so
    only entries within `tol` of the entry before them, and the entry after
    a row of more than one, are merged in Python.
    """
    copies = [(i, None) for i in range(len(spectra))] if copies is None else copies
    held: dict[int, list] = {}  # the (rank, source) of each copy of each spectrum, by rank
    for rank, (i, src) in enumerate(copies):
        held.setdefault(i, []).append((rank, src))
    keys = list(held)  # in the rank order of their first copies
    sizes = [len(spectra[i].k) for i in keys]
    # one entry per root of each spectrum copied, weighted by its copies: a stable sort by k keeps entries of
    # equal k in the rank order of their spectra's first copies, and each spectrum's in its own order
    k = np.concatenate([np.zeros(0), *(spectra[i].k for i in keys)])
    by = np.argsort(k, kind="stable")
    k = k[by]
    part = np.repeat(np.arange(len(keys)), sizes)[by]  # the place in `keys` of each entry's spectrum
    order = np.concatenate([np.zeros(0, np.int64), *(spectra[i].order for i in keys)])[by]
    order *= np.array([len(held[i]) for i in keys], dtype=np.int64)[part]

    joins = np.diff(k) <= tol  # entry p + 1 lies within tol of entry p
    first = np.ones(len(k), dtype=bool)  # the first entry of each row
    first[1:] = ~joins
    means = {}  # the k of each row of more than one entry, by its first entry
    end = 0
    for i in np.flatnonzero(joins).tolist():
        if i < end:
            continue
        head, mean, weight, end = i, float(k[i]), int(order[i]), i + 1  # entry i opens a row
        while end < len(k):
            x, n = float(k[end]), int(order[end])
            if x - mean <= tol:
                mean, weight = (mean * weight + x * n) / (weight + n), weight + n
                means[head] = mean
                first[end] = False
            elif joins[end - 1]:
                head, mean, weight = end, x, n
                first[end] = True
            else:
                break
            end += 1

    starts = np.flatnonzero(first)
    stops = np.append(starts[1:], len(k))
    k, order = k[starts], np.add.reduceat(order, starts)
    k[np.searchsorted(starts, list(means))] = list(means.values())
    # a row of one root of a spectrum whose every copy names a source takes their sources, joined once
    named = np.array([all(src is not None for _, src in held[i]) for i in keys], dtype=bool)
    source = np.array([_joined(held[i]) if n else "" for i, n in zip(keys, named)], dtype=object)[part[starts]]
    offsets = np.cumsum([0, *sizes]).tolist()
    rows = np.flatnonzero((stops - starts > 1) | ~named[part[starts]])
    for row, lo, hi in zip(rows.tolist(), starts[rows].tolist(), stops[rows].tolist()):
        pairs = [
            (rank, spectra[keys[at]].source[j - offsets[at]] if src is None else src)
            for at, j in zip(part[lo:hi].tolist(), by[lo:hi].tolist())
            for rank, src in held[keys[at]]
        ]
        source[row] = _joined(sorted(pairs, key=itemgetter(0)))
    return Spectrum(k, order, source.tolist(), max((s.k_max for s in spectra), default=0.0), {"tol": tol})


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
    xs, ys = np.sort(a.expanded()).tolist(), np.sort(b.expanded()).tolist()
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
