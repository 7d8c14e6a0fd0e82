"""The real and the unitary root locators, each for a family of functions.

Both close the brackets of every member together, in rounds of one array
call: the real one with `_newton_brackets`, the unitary one with
`_refine_steps`.

- `find_roots_real`: the quotient factors of `factors`, from their two-loop
  form G (`quotient.QuotientFamily`): each member's sine-zero roots, of
  exact orders, and one simple root of G between each two consecutive
  poles, with no grid, each member's count certified by the eigenphase
  count of its own closed-form system (`QuotientFamily.bouquets`).
- `UnitaryFamily`: exact eigenphase counting for unitary scattering, on
  stacks of systems of one size, contracted once (`contracted_stacks`) or
  given as they are.  N(k) of every system (`UnitaryFamily.counts`) is an
  exact root count certifying a locator's output.  This is the robust path
  for high-order roots of large systems.  The eigenphases come from a
  Hermitian eigensolver, each matrix's error bounded by its residual
  (`_unitary_phases`).

Both hand back a family's roots as one `spectra.Roots`, whose `meta`
reports, as arrays of one value per member, the points evaluated for each
member (`evaluations`) and the refinement rounds that evaluated it
(`rounds`).  `find_roots_unitary` solves a family of one, as a `Spectrum`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import NonUnitaryScattering, require_positive
from .quotient import QuotientFamily
from .scattering import SecularSystem, contracted_stacks
from .spectra import TWO_PI, Roots, Spectrum, _chunked, _grid_cells, _k_grid, _newton_brackets, _refine_steps

K_MIN = 1e-6  # lower end of the unitary locator's range; k = 0 is always a root
PHASE_EPS = 1e-12  # an eigenphase in [0, PHASE_EPS) has not crossed 1 yet
# the weight of U's skew-Hermitian part in the Hermitian matrix of `_unitary_phases`: the inverse golden
# ratio, the tangent of no rational multiple of pi, so no two phases at rational multiples of pi, such as
# those at sine zeros, sum to 2 atan(GAMMA)
GAMMA = (math.sqrt(5.0) - 1.0) / 2.0


def find_roots_real(family: QuotientFamily, k_max: float, tol: float = 1e-10) -> Roots:
    """Roots on (0, k_max] of the dispersion forms of `family`, as one
    `Roots` of its members, certified on the family's own closed-form
    systems (`QuotientFamily.bouquets`, one stack of a `UnitaryFamily`).

    A member's roots are its roots at the sine zeros, with their orders
    (`QuotientFamily.sine_zeros`), and one simple root of G in each bracket
    from 0 or a pole to the next pole or to k_max.  G falls from +inf at each
    pole, and at 0 unless every c_i = 1 (the trivial factor: G(0+) = 0, and
    its first bracket holds no root), to -inf at the next pole, so the
    bracket cut at k_max holds a root exactly when G(k_max) <= 0, and a
    bracket with a sine zero where G is 0 holds that root alone.  So each
    member's count comes first, from G at k_max, and only the members whose
    count is their N(k_max) (`UnitaryFamily.counts`) are refined: all their
    brackets in one `_newton_brackets` call on G and G' (`pole_form`).  Near
    a pole a with residue r_a (`sine_zeros`, and `residue_at_zero` at 0) G
    is about r_a / (k - a), so a bracket between two poles starts at the
    root of their two terms, (r_a b + r_b a) / (r_a + r_b), and the bracket
    cut at k_max at the Newton point from G(k_max).  Every other member is
    solved by one `UnitaryFamily.roots` call, whose roots take the place of
    its own.  A member's roots less than `tol` apart are one root of their
    summed order, as `_jumps` joins the unitary locator's jumps.  The
    roots' `meta` has `tol` and, as arrays of one value per
    member, the points evaluated for the member by either locator
    (`evaluations`), the rounds that evaluated it (`rounds`), its
    `eigenphase_count` N(k_max), and whether it fell back (`fallback`).
    """
    require_positive(k_max=k_max, tol=tol)
    systems = UnitaryFamily(stacks=[family.bouquets()])
    zeros, residues, orders, settled = family.sine_zeros(k_max)
    members, last = len(residues), len(zeros) + 1
    g_max, slope_max = _chunked(family.pole_form, np.arange(members), np.full(members, float(k_max)), 8).T
    # each member's bracket ends, member by member: 0, its poles and k_max, and G's residue at each but k_max
    ends = np.pad(residues > 0.0, ((0, 0), (1, 1)), constant_values=True)
    which, col = np.nonzero(ends)
    x = np.concatenate([[0.0], zeros, [k_max]])[col]
    r = np.concatenate([family.residue_at_zero[:, None], residues, np.zeros((members, 1))], axis=1)[ends]
    opens = np.append(which[1:] == which[:-1], False)  # the end opens a bracket that holds a root of G
    opens &= (col > 0) | ~family.one.all(axis=1)[which]  # not the trivial factor's first
    opens[(np.cumsum(ends) - 1).reshape(ends.shape)[:, 1:-1][settled]] = False  # its root is a sine zero's
    cut = opens & np.append(col[1:] == last, False)
    opens[cut] = (x[cut] < k_max) & (g_max[which[cut]] <= 0.0)
    counts = np.array(systems.counts(k_max))
    certified = np.bincount(which[opens], minlength=members) + orders.sum(axis=1) == counts

    i = np.flatnonzero(opens & certified[which])
    # G from +inf at 0 or a pole to -inf at the next pole, or to G(k_max); the first point is the root of
    # the two poles' terms r / (k - pole), or the Newton point from k_max
    fb = np.where(cut[i], g_max[which[i]], -np.inf)
    newton = k_max - (g_max / slope_max)[which[i]]
    first = np.where(cut[i], newton, (r[i] * x[i + 1] + r[i + 1] * x[i]) / (r[i] + r[i + 1]))
    brackets = (which[i], x[i], np.full(len(i), np.inf), x[i + 1], fb)
    (refined, roots, _), calls, rounds = _newton_brackets(family.pole_form, brackets, first, tol, members)
    # every member's roots at the sine zeros and its simple roots of G, by member, then k, then order
    on, at = np.nonzero(orders)
    member = np.concatenate([on, refined])
    roots = np.concatenate([zeros[at], roots])
    order = np.concatenate([orders[on, at], np.ones(len(refined), dtype=np.int64)])
    by = np.lexsort((order, roots, member))
    member, roots, order = member[by], roots[by], order[by]
    # a member's roots less than tol apart are one root of their summed order, as `_jumps` joins jumps: the
    # zeros of two sines whose lengths are commensurate in reals but not in floats come one from each
    first = np.ones(len(member), dtype=bool)
    first[1:] = (member[1:] != member[:-1]) | (roots[1:] - roots[:-1] >= tol)
    first = np.flatnonzero(first)
    member, roots, order = member[first], roots[first], np.add.reduceat(order, first)
    evaluations, fallback = 1 + calls, ~certified
    short = np.flatnonzero(fallback)
    if len(short):  # each member that falls back takes the unitary locator's roots in place of its own
        exact = systems.roots(k_max, tol=tol, members=short)
        kept = ~fallback[member]
        member = np.concatenate([member[kept], short[exact.member]])
        by = np.argsort(member, kind="stable")
        member = member[by]
        roots = np.concatenate([roots[kept], exact.k])[by]
        order = np.concatenate([order[kept], exact.order])[by]
        evaluations[short] += exact.meta["evaluations"]
        rounds[short] += exact.meta["rounds"]
    meta = {"tol": tol, "evaluations": evaluations, "rounds": rounds, "eigenphase_count": counts, "fallback": fallback}
    return Roots(member, roots, order, members, k_max, meta)


def _turned(phases: np.ndarray) -> np.ndarray:
    """The phases of `_eigenphases` taken in [0, 2pi)."""
    return np.where(phases < 0.0, phases + TWO_PI, phases)


def _unitary_phases(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenphases in (-pi, pi] of a stack of unitary matrices `U`, and
    each matrix's residual r, a bound on the error of every phase.

    U is normal: U = A + iB with A and B Hermitian and commuting.  So the
    Hermitian H = wU + (wU)^H = 2(A + GAMMA B), w = 1 - i GAMMA, has U's
    eigenvectors, an eigenphase phi of U giving H the eigenvalue
    2 (cos phi + GAMMA sin phi).  One stacked `np.linalg.eigh` call gives
    H's eigenvectors V, and the phases are the angles of the Rayleigh
    quotients rho = diag(V^H U V).  U differs from the normal
    V diag(rho) V^H by r = |U V - V diag(rho)|_F, so the Hoffman-Wielandt
    inequality (1953) matches U's eigenvalues to rho within r each, and each
    phase moves by at most about r.  Two phases of U with
    phi1 + phi2 = 2 atan(GAMMA) mod 2pi share an eigenvalue of H, whose
    eigenvectors then mix U's and give a large r: the matrices whose r is
    above PHASE_EPS / 16 go to one stacked `np.linalg.eigvals` call, and
    their r is 0, as they move the phases by a few eps only.  No phase at 0
    then crosses -PHASE_EPS, the line the counts depend on.
    """
    wU = (1.0 - 1j * GAMMA) * U
    _, V = np.linalg.eigh(wU + wU.conj().swapaxes(-1, -2))
    UV = U @ V
    rho = np.einsum("...ij,...ij->...j", V.conj(), UV)
    R = (UV - V * rho[..., None, :]).view(float)
    residuals = np.sqrt(np.einsum("...ij,...ij->...", R, R))
    phases = np.angle(rho)
    far = np.flatnonzero(residuals > PHASE_EPS / 16)
    if len(far):
        phases[far] = np.angle(np.linalg.eigvals(U[far]))
        residuals[far] = 0.0
    return phases, residuals


def _eigenphases(S: np.ndarray, lengths: np.ndarray, which: np.ndarray, ks: np.ndarray) -> tuple:
    """Eigenphases of U(k) = S D(k) in (-pi, pi], less PHASE_EPS, one row per
    point: system `which[i]` of the stacks `S` and `lengths` at `ks[i]`, and
    each point's residual (`_unitary_phases`).

    An entry is >= 0 once its eigenvalue has crossed 1, so an eigenvalue at
    exactly 1 counts as about to leave.  The matrices go to one stacked
    `np.linalg.eigh` call per MAX_BATCH_BYTES of input.
    """

    def phases(which: np.ndarray, k: np.ndarray) -> np.ndarray:
        d = np.exp(1j * k[:, None] * lengths[which])
        phases, residuals = _unitary_phases(S[which] * d[:, None, :])
        return np.concatenate([phases - PHASE_EPS, residuals[:, None]], axis=-1)

    out = _chunked(phases, which, ks, S[0].nbytes)
    return out[:, :-1], out[:, -1]


def _eigenphase_levels(S: np.ndarray, lengths: np.ndarray, which: np.ndarray, ks: np.ndarray) -> tuple:
    """N(k) of a stack of systems of one size, `S` and `lengths`, from their
    eigenphases: `level(which, k, turned)` gives the levels at points from
    their eigenphases in [0, 2pi) ascending (`_turned`), counted from each
    system's first point of the grid `which, ks`, where each system's points
    are consecutive and ascending.  Returns `level`, the grid's ascending
    turned phases, their residuals (`_eigenphases`) and each system's
    unitarity defect |S S^H - I|.

    N(k) counts the roots in (first grid point, k]: N(k) = (P(k0) - k0 * L +
    k * L - P(k)) / 2pi, where k0 is the system's first grid point, L its
    total bond length and P(k) the sum of the eigenphases of U(k) taken in
    [0, 2pi): each phase advances by k * L in all and drops by 2pi when it
    crosses 0.  The grid's matrices go to one stacked `np.linalg.eigh`
    call per MAX_BATCH_BYTES.  Needs unitary S (`NonUnitaryScattering`
    otherwise).
    """
    size = S.shape[-1]
    defects = np.abs(S @ S.conj().swapaxes(-1, -2) - np.eye(size)).max(axis=(-2, -1), initial=0.0)
    if defects.max(initial=0.0) > 1e-10:
        raise NonUnitaryScattering(f"|S S^H - I| = {defects.max():.3e}: eigenphase counting needs a unitary S")
    l_total = lengths.sum(-1)
    phases, residuals = _eigenphases(S, lengths, which, ks)
    turned = np.sort(_turned(phases), axis=-1)
    first = np.flatnonzero(np.append(True, which[1:] != which[:-1]))
    base = np.zeros(len(S))
    base[which[first]] = turned[first].sum(-1) - ks[first] * l_total[which[first]]

    def level(which: np.ndarray, k: np.ndarray, turned: np.ndarray) -> np.ndarray:
        return np.rint((base[which] + k * l_total[which] - turned.sum(-1)) / TWO_PI)

    return level, turned, residuals, defects


def _eigenphase_steps(S: np.ndarray, lengths: np.ndarray, which: np.ndarray, ks: np.ndarray) -> tuple:
    """The step evaluator of N(k) for a stack of systems of one size, `S` and
    `lengths`, with its levels and what each point sees ahead and behind
    (`_refine_steps`) on the grid `which, ks`, computed as a step computes
    them; each system's points are consecutive and ascending.  The levels
    are those of `_eigenphase_levels`.

    Each eigenphase's distance to the crossing point 0 ahead is 2pi less
    its distance behind, which is its value in [0, 2pi).  A jump of m
    happens when the m phases nearest the crossing point pass it, so the
    sums ahead are minus the prefix sums of the distances ahead, ascending,
    and the sums behind the prefix sums of the distances behind: each
    crosses zero at the jump it bounds.

    Every eigenphase moves up with speed v^H L v, between the shortest bond
    length l_min and the longest l_max (Berkolaiko and Kuchment 2013).  So
    with theta_j the distances ahead, ascending, the level holds to
    k + theta_1 / l_max and the next m jumps have all happened by
    k + theta_m / l_min, and behind k the same holds with the distances
    behind.  Each distance first loses (for a hold) or gains (for a bound) a
    margin: the point's residual r, which bounds the error of its phases
    (`_unitary_phases`), plus 16 R eps, R the size, for the rounding of r
    and of the phases, plus 8 times the system's unitarity defect.  A call
    of the step makes one stacked `np.linalg.eigh` call per MAX_BATCH_BYTES
    of matrices.  Needs unitary S (`NonUnitaryScattering` otherwise).
    """
    level, turned, residuals, defects = _eigenphase_levels(S, lengths, which, ks)
    margin = 16 * S.shape[-1] * np.finfo(float).eps + 8 * defects
    l_min, l_max = lengths.min(-1, initial=np.inf), lengths.max(-1, initial=0.0)

    def evaluate(which: np.ndarray, k: np.ndarray, turned: np.ndarray, residuals: np.ndarray) -> tuple:
        slack, slow, fast = (margin[which] + residuals)[:, None], l_min[which, None], l_max[which, None]

        def side(distances: np.ndarray, sign: float) -> tuple[np.ndarray, np.ndarray]:
            hold = np.maximum(distances[:, :1] - slack, 0.0) / fast
            return sign * np.cumsum(distances, axis=-1), np.concatenate([hold, (distances + slack) / slow], axis=-1)

        return level(which, k, turned), side(TWO_PI - turned[:, ::-1], -1.0), side(turned, 1.0)

    def step(which: np.ndarray, k: np.ndarray) -> tuple:
        phases, residuals = _eigenphases(S, lengths, which, k)
        return evaluate(which, k, np.sort(_turned(phases), axis=-1), residuals)

    return (step, *evaluate(which, ks, turned, residuals))


def _unitary_stack(S: np.ndarray, lengths: np.ndarray, k_max: float, tol: float) -> tuple:
    """`UnitaryFamily.roots` of a stack of systems of one size, as they are:
    the jumps (which, k, size) of `_refine_steps`, and each system's cell,
    points evaluated and rounds."""
    cells = np.array([0.9 * math.pi / float(l.max()) if len(l) else k_max for l in lengths])
    grids = [np.append(_k_grid(K_MIN, k_max, cell), k_max) for cell in cells.tolist()]
    sizes = [len(g) for g in grids]
    which, ks = np.repeat(np.arange(len(grids)), sizes), np.concatenate(grids)
    step, *values = _eigenphase_steps(S, lengths, which, ks)
    jumps, calls, rounds = _refine_steps(step, _grid_cells(which, ks, *values), tol, len(S))
    return jumps, cells, np.array(sizes) + calls, rounds


class UnitaryFamily:
    """Unitary secular systems of one size, contracted once
    (`scattering.contracted_stacks`: every pure-transmission bond dropped,
    the determinant unchanged) and kept as one stack per contracted size,
    or `stacks` of (members ascending, S, lengths) with nothing to
    contract, as they are.  A system's contraction depends on its own S
    only, and so does each of its results."""

    def __init__(self, systems: Sequence[SecularSystem] = (), stacks: Optional[list] = None):
        self.stacks = contracted_stacks(systems) if stacks is None else stacks
        self.members = sum(len(members) for members, _, _ in self.stacks)

    def counts(self, k: float) -> list[int]:
        """N(k) of every system: the number of roots of det(I - S D(k)) in
        (K_MIN, k], with order.  These are the levels of `_eigenphase_levels`
        on the grid K_MIN, k of every contracted system, so the matrices go
        to `eigh` per MAX_BATCH_BYTES.  Needs unitary S
        (`NonUnitaryScattering` otherwise)."""
        out = [0] * self.members
        for members, S, lengths in self.stacks:
            grid, which = np.tile([K_MIN, k], len(S)), np.repeat(np.arange(len(S)), 2)
            level, turned, _, _ = _eigenphase_levels(S, lengths, which, grid)
            for m, n in zip(members.tolist(), level(which[1::2], grid[1::2], turned[1::2]).tolist()):
                out[m] = int(n)
        return out

    def roots(self, k_max: float, *, tol: float = 1e-10, members: Optional[Sequence[int]] = None) -> Roots:
        """Roots of det(I - S D(k)) on (K_MIN, k_max] of the systems
        `members` (all by default), as one `Roots` whose member i is system
        `members[i]`.

        Each stack of contracted systems of one size is solved together;
        `meta["bonds"]` is a system's contracted size.  N(k) of
        `_eigenphase_steps` is exact and monotone at every k, and each jump
        is a root of order the jump's size, so a cell with equal end counts
        holds no root however wide it is.  A system's cell,
        `meta["grid_step"]`, is 0.9 pi / (the longest bond length of the
        contracted system), or k_max with no bonds: no phase turns by half a
        circle in one cell, so the regula-falsi value of `_refine_steps`,
        the sum of the phases crossing at a jump, stays continuous.  Every
        evaluation's count keeps the bracket exact, and its reaches move the
        bracket's ends without an evaluation, so each root is certified by
        its end counts.  The grids of all systems of a stack go to stacked
        `eigh` calls, and so does each refinement round;
        `meta["rounds"]` counts the rounds that evaluated the system, and
        `meta["evaluations"]` the points.  `meta` has `tol` and `k_min`, and
        the rest as arrays of one value per member.
        """
        require_positive(k_max=k_max, tol=tol)
        members = np.arange(self.members) if members is None else np.asarray(members, dtype=np.intp)
        grid_step, (bonds, evaluations, rounds) = np.zeros(len(members)), np.zeros((3, len(members)), dtype=np.int64)
        parts = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0, dtype=np.int64))]
        for stack, S, lengths in self.stacks:
            at = np.flatnonzero(np.isin(members, stack))  # the places in `members` of this stack's systems
            if len(at):
                pick = np.searchsorted(stack, members[at])
                (on, k, size), grid_step[at], evaluations[at], rounds[at] = _unitary_stack(S[pick], lengths[pick], k_max, tol)
                bonds[at] = S.shape[-1]
                parts.append((at[on], k, size))
        member, k, order = (np.concatenate(v) for v in zip(*parts))
        by = np.argsort(member, kind="stable")
        meta = dict(tol=tol, k_min=K_MIN, grid_step=grid_step, bonds=bonds, evaluations=evaluations, rounds=rounds)
        return Roots(member[by], k[by], order[by], len(members), k_max, meta)


def find_roots_unitary(sys: SecularSystem, k_max: float, *, tol: float = 1e-10, source: str = "full") -> Spectrum:
    """Roots of det(I - S D(k)) on (K_MIN, k_max] for unitary S:
    `UnitaryFamily.roots` of a family of one, each root under `source`."""
    return UnitaryFamily([sys]).roots(k_max, tol=tol).spectrum(0, source)
