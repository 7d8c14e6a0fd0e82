"""Scattering matrices on directed bonds and the secular determinant det(I - S D(k)).

Bonds are ordered globally by (edge id, direction flag): bond 2e runs along
edge e's stored orientation, bond 2e+1 against it.  For the two vertex
condition families in scope (standard and quasi-periodic) the scattering
matrix S is k-independent and unitary; the phase matrix D(k) is
diag(exp(i k L_b)).  A group acting freely on the bonds splits S into one
small character block per irrep, assembled from a few rows of S only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .actions import GraphAction
from .errors import (
    ActionNotFree,
    MissingCondition,
    NonUnitPhase,
    UnsupportedCondition,
    ZeroDegree,
)
from .graphs import MetricGraph


@dataclass(frozen=True)
class Standard:
    """Continuity + derivative-sum condition at a vertex."""

    vertex: int


@dataclass(frozen=True)
class QuasiPeriodic:
    """Degree-2 pure-transmission condition f_q = tau*f_p, f_q' = -tau*f_p'.

    `edges` is the ordered pair (p, q) of the two incident edges; the wave
    leaving along q picks up tau, the wave leaving along p picks up 1/tau.
    """

    vertex: int
    tau: complex
    edges: tuple[int, int]


Condition = Union[Standard, QuasiPeriodic]


def vertex_scattering_standard(d: int) -> np.ndarray:
    """d x d vertex scattering matrix 2/d - delta (delta on back-reflection)."""
    if d < 1:
        raise ZeroDegree("vertex degree must be >= 1")
    return np.full((d, d), 2.0 / d, dtype=complex) - np.eye(d, dtype=complex)


def vertex_scattering_quasiperiodic(tau: complex) -> np.ndarray:
    """2 x 2 pure transmission with phases 1/tau and tau, zero reflection.

    Rows/columns are ordered (p-side, q-side): the amplitude leaving along p
    is 1/tau times the one arriving along q, and vice versa with tau.
    """
    tau = complex(tau)
    if abs(abs(tau) - 1.0) > 1e-12:
        raise NonUnitPhase(f"|tau| = {abs(tau)} != 1")
    return np.array([[0.0, 1.0 / tau], [tau, 0.0]], dtype=complex)


@dataclass(frozen=True)
class SecularSystem:
    """k-independent scattering matrix plus per-bond lengths."""

    S: np.ndarray
    lengths: np.ndarray  # L_b per bond, bond order (edge id, direction)

    @property
    def size(self) -> int:
        return self.S.shape[0]

    def unitarity_defect(self) -> float:
        return float(np.max(np.abs(self.S @ self.S.conj().T - np.eye(self.size)), initial=0.0))


def _scattering_rows(
    g: MetricGraph,
    conditions: Iterable[Condition],
    rows: np.ndarray,
    flipped_edges: Iterable[int] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """The rows `rows` of the bond scattering matrix, and every bond's length.

    The bond table is one origin per bond; bond b ends where bond b ^ 1
    starts.  Each vertex writes its scattering matrix into the block
    S[out, out ^ 1], rows the bonds leaving it in ascending order and
    columns their reversals, the bonds arriving; only the rows listed in
    `rows` are kept, in that order.  `flipped_edges` reverses the
    orientation convention of the listed edges (bond 2e then runs
    head-to-tail).
    """
    cond_by_vertex = {c.vertex: c for c in conditions}
    for v in range(g.n_vertices):
        if v not in cond_by_vertex:
            raise MissingCondition(f"vertex {v} has no condition")
    stray = sorted(set(cond_by_vertex) - set(range(g.n_vertices)))
    if stray:
        raise UnsupportedCondition(f"conditions for vertices {stray} outside the graph")

    flipped = set(flipped_edges)
    nb = 2 * g.n_edges
    origin = np.empty(nb, dtype=int)
    lengths = np.empty(nb, dtype=float)
    for e in g.edges:
        u, v = (e.v, e.u) if e.id in flipped else (e.u, e.v)
        origin[2 * e.id], origin[2 * e.id + 1] = u, v
        lengths[2 * e.id] = lengths[2 * e.id + 1] = e.length
    by_origin = np.argsort(origin, kind="stable")
    bonds_from = np.split(by_origin, np.cumsum(np.bincount(origin, minlength=g.n_vertices))[:-1])
    row_of = np.full(nb, -1)
    row_of[rows] = np.arange(len(rows))

    S = np.zeros((len(rows), nb), dtype=complex)
    for v in range(g.n_vertices):
        cond, out = cond_by_vertex[v], bonds_from[v]
        if isinstance(cond, Standard):
            if len(out) == 0:
                continue  # isolated vertex carries no scattering
            block = vertex_scattering_standard(len(out))
        elif isinstance(cond, QuasiPeriodic):
            ep, eq = cond.edges
            # two bonds leaving on two distinct edges: degree 2, no loop
            if ep == eq or sorted(out >> 1) != sorted((ep, eq)):
                raise UnsupportedCondition(
                    f"quasi-periodic vertex {v} needs degree 2 with two distinct non-loop edges {cond.edges}"
                )
            out = out if out[0] >> 1 == ep else out[::-1]  # (p-side, q-side)
            block = vertex_scattering_quasiperiodic(cond.tau)
        else:
            raise UnsupportedCondition(f"vertex {v}: {type(cond).__name__}")
        kept = row_of[out] >= 0
        S[np.ix_(row_of[out[kept]], out ^ 1)] = block[kept]
    return S, lengths


def build_secular_system(
    g: MetricGraph,
    conditions: Iterable[Condition],
    flipped_edges: Iterable[int] = (),
) -> SecularSystem:
    """Assemble the dense bond scattering matrix from per-vertex conditions.

    The secular determinant is invariant under the re-assembly that
    `flipped_edges` asks for (see `_scattering_rows`).
    """
    S, lengths = _scattering_rows(g, conditions, np.arange(2 * g.n_edges), flipped_edges)
    return SecularSystem(S=S, lengths=lengths)


def character_blocks(
    g: MetricGraph, conditions: Iterable[Condition], action: GraphAction
) -> dict[tuple[int, ...], SecularSystem]:
    """One R x R secular system per irrep label of a group acting freely on the bonds.

    Element m carries bond 2e+d to 2*ep[e] + (d ^ flip[e]); with no bond
    fixed by a non-identity element, the B bonds fall into R = B / |G|
    orbits, each represented by its lowest bond r_i.  S commutes with the
    action, so on the span of sum_m chi(m)^* e_{m.r_j} it acts by
    M_chi[i, j] = sum_m conj(chi(m)) S[r_i, m.r_j], with the irreps of
    `Irrep(orders, labels)`; one FFT over the group axes gives every block.
    The product of the blocks' secular determinants is det(I - S D(k)).
    Only the R rows r_i of S are assembled.  Standard conditions alone are
    known to commute with every automorphism, so any other condition raises
    `UnsupportedCondition`; a bond fixed by a non-identity element raises
    `ActionNotFree`.

    The blocks of a label and of its conjugate (each entry l of order n
    replaced by -l mod n) have one secular determinant, so they always
    share a class of `spectra.isospectral_classes`.  With standard
    conditions S = J S^T J, where the bond reversal J commutes with the
    action and with D(k), and the transpose carries the chi-isotypic
    subspace to the conj(chi) one, so det(I - M_chi D(k)) equals
    det(I - M_conj(chi) D(k)).
    """
    conditions = list(conditions)
    other = [c for c in conditions if not isinstance(c, Standard)]
    if other:
        raise UnsupportedCondition(
            f"vertex {other[0].vertex}: character blocks need standard conditions, "
            f"not {type(other[0]).__name__}"
        )
    _, edge_images, flips = action.table
    bonds = np.arange(2 * g.n_edges)
    images = 2 * edge_images[:, bonds >> 1] + ((bonds & 1) ^ flips[:, bonds >> 1])
    fixed = images[1:] == bonds  # row 0 is the identity
    if fixed.any():
        m, b = np.argwhere(fixed)[0].tolist()
        raise ActionNotFree(f"element {list(action.elements())[m + 1]} fixes bond {b}")

    reps = np.flatnonzero(images.min(axis=0) == bonds)
    rows, lengths = _scattering_rows(g, conditions, reps)
    # A[i, m, j] = S[r_i, m.r_j], the group axis unravelled into one axis per generator
    A = rows[:, images[:, reps]].reshape(len(reps), *action.orders, len(reps))
    M = np.fft.fftn(A, axes=tuple(range(1, 1 + len(action.orders))))
    rep_lengths = lengths[reps]
    return {
        labels: SecularSystem(S=M[(slice(None), *labels)], lengths=rep_lengths)
        for labels in action.elements()
    }


def secular_det(sys: SecularSystem, k: complex) -> complex:
    """det(I - S D(k)) via dense LU with partial pivoting."""
    M = np.eye(sys.size, dtype=complex) - sys.S * np.exp(1j * k * sys.lengths)[None, :]
    return complex(np.linalg.det(M))


def secular_dets(systems: Sequence[SecularSystem]):
    """det(I - S D(z)) of a family of systems of one size, as an evaluator
    `fn(which, z)` on 1-D arrays: one stacked `np.linalg.det` call."""
    S, lengths = np.stack([sys.S for sys in systems]), np.stack([sys.lengths for sys in systems])
    eye = np.eye(S.shape[-1])
    return lambda which, z: np.linalg.det(eye - S[which] * np.exp(1j * z[:, None] * lengths[which])[:, None, :])


def standard_conditions(g: MetricGraph) -> list[Standard]:
    return [Standard(v) for v in range(g.n_vertices)]
