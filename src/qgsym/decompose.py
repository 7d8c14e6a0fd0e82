"""Irrep decomposition of sampled functions on symmetric metric graphs.

Functions are stored as per-edge arrays of M complex midpoint samples
(x_m = (m + 1/2) L / M), which keeps samples off vertices and makes the
quadrature norm exact for constants.  Projection onto an irrep averages the
irrep-weighted pull-backs over the whole group, summed on one representative
edge per group orbit: on the rest of an orbit the component is the
representative's values carried by the inverse character (the quotient-graph
picture).  The components reconstruct the function, satisfy the Parseval
identity, and are equivariant with the inverse irrep phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import GraphAction
from .errors import OrientationMismatch, require_positive
from .graphs import MetricGraph


@dataclass(frozen=True)
class SampledFunction:
    graph: MetricGraph
    values: np.ndarray  # shape (n_edges, M), complex

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[0] != self.graph.n_edges:
            raise OrientationMismatch(
                f"values shape {self.values.shape} does not match {self.graph.n_edges} edges"
            )
        require_positive(samples=self.samples)

    @property
    def samples(self) -> int:
        return self.values.shape[1]


def random_function(g: MetricGraph, samples: int, rng: np.random.Generator) -> SampledFunction:
    """Standard normal real parts, then imaginary parts, drawn from `rng` in that order."""
    vals = np.empty((g.n_edges, samples), dtype=np.complex128)
    vals.real = rng.standard_normal((g.n_edges, samples))
    vals.imag = rng.standard_normal((g.n_edges, samples))
    return SampledFunction(g, vals)


def l2_norm_sq(f: SampledFunction) -> float:
    """Midpoint-quadrature squared norm, summed over edges."""
    L = f.graph.lengths
    return float(np.sum(L / f.samples * np.sum(np.abs(f.values) ** 2, axis=1)))


def l2_inner(f: SampledFunction, g: SampledFunction) -> complex:
    L = f.graph.lengths
    return complex(np.sum(L / f.samples * np.sum(np.conj(f.values) * g.values, axis=1)))


def pull_back(f: SampledFunction, a: GraphAction, element) -> SampledFunction:
    """(pull_back f)|_e = f|_{g.e}, samples reversed where g flips the edge."""
    _, edge, flip = a.maps(element).arrays()
    out = f.values[edge]
    out[flip] = out[flip, ::-1]
    return SampledFunction(f.graph, out)


def project(f: SampledFunction, a: GraphAction, irrep) -> SampledFunction:
    """Irrep component: the average of irrep(g) * pull_back(f, g) over the
    group, whose orders are the irrep's (`Irrep.values`).

    The average is summed only on one edge of each edge orbit, the smallest;
    on the rest of the orbit the component is carried by the character,
    f|_{g.e} = irrep(g)^-1 f|_e reversed where g flips e, which holds
    exactly for any action, edge stabilisers included.
    """
    reps, bonds = a.bond_orbits()
    bonds = bonds[:, reps % 2 == 0]  # an edge orbit's lowest edge e is represented by its bond 2e
    images, flips = bonds >> 1, bonds & 1
    chars = irrep.values()
    both = np.stack([f.values, f.values[:, ::-1]])
    on_reps = np.tensordot(chars, both[flips, images], axes=1) / len(chars)
    carried = on_reps / chars[:, None, None]
    out = np.empty_like(f.values)
    out[images] = np.where(flips[..., None], carried[..., ::-1], carried)
    return SampledFunction(f.graph, out)


def quasi_periodicity_residual(f_st: SampledFunction, a: GraphAction, irrep) -> float:
    """Max deviation from the equivariance law f|_{g.e} = irrep(g)^-1 f|_e."""
    worst = 0.0
    for element in a.elements():
        pb = pull_back(f_st, a, element).values
        dev = np.max(np.abs(pb - f_st.values / irrep.value(element)))
        worst = max(worst, float(dev))
    return worst
