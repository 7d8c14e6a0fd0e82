"""Scattering matrices on directed bonds and the secular determinant det(I - S D(k)).

Bonds are ordered globally by (edge id, direction flag): bond 2e runs along
edge e's stored orientation, bond 2e+1 against it.  For the two vertex
condition families in scope (standard and quasi-periodic) the scattering
matrix S is k-independent and unitary; the phase matrix D(k) is
diag(exp(i k L_b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import (
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
    graph: MetricGraph

    @property
    def size(self) -> int:
        return self.S.shape[0]

    def unitarity_defect(self) -> float:
        return float(np.max(np.abs(self.S @ self.S.conj().T - np.eye(self.size))))

    def phase_matrix(self, k: complex) -> np.ndarray:
        return np.diag(np.exp(1j * k * self.lengths))


def build_secular_system(
    g: MetricGraph,
    conditions: Iterable[Condition],
    flipped_edges: Iterable[int] = (),
) -> SecularSystem:
    """Assemble the bond scattering matrix from per-vertex conditions.

    The bond table is one origin per bond; bond b ends where bond b ^ 1
    starts.  Each vertex writes its scattering matrix into the block
    S[out, out ^ 1], rows the bonds leaving it in ascending order and
    columns their reversals, the bonds arriving.  `flipped_edges` reverses
    the orientation convention of the listed edges (bond 2e then runs
    head-to-tail); the secular determinant is invariant under any such
    re-assembly.
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

    S = np.zeros((nb, nb), dtype=complex)
    for v in range(g.n_vertices):
        cond, out = cond_by_vertex[v], bonds_from[v]
        if isinstance(cond, Standard):
            if len(out) == 0:
                continue  # isolated vertex carries no scattering
            S[np.ix_(out, out ^ 1)] = vertex_scattering_standard(len(out))
        elif isinstance(cond, QuasiPeriodic):
            ep, eq = cond.edges
            # two bonds leaving on two distinct edges: degree 2, no loop
            if ep == eq or sorted(out >> 1) != sorted((ep, eq)):
                raise UnsupportedCondition(
                    f"quasi-periodic vertex {v} needs degree 2 with two distinct non-loop edges {cond.edges}"
                )
            out = out if out[0] >> 1 == ep else out[::-1]  # (p-side, q-side)
            S[np.ix_(out, out ^ 1)] = vertex_scattering_quasiperiodic(cond.tau)
        else:
            raise UnsupportedCondition(f"vertex {v}: {type(cond).__name__}")

    return SecularSystem(S=S, lengths=lengths, graph=g)


def secular_det(sys: SecularSystem, k: complex) -> complex:
    """det(I - S D(k)) via dense LU with partial pivoting."""
    M = np.eye(sys.size, dtype=complex) - sys.S * np.exp(1j * k * sys.lengths)[None, :]
    return complex(np.linalg.det(M))


def standard_conditions(g: MetricGraph) -> list[Standard]:
    return [Standard(v) for v in range(g.n_vertices)]
