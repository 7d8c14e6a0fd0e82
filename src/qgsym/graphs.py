"""Metric-graph data model.

A metric graph is a finite multigraph whose edges carry positive lengths and
are identified with real intervals.  Every edge yields a reversal pair of
directed bonds; bond ``2*e`` runs from the stored tail of edge ``e`` to its
head, bond ``2*e + 1`` the other way.  Loops and parallel edges are
representable (quotient graphs need them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DanglingEndpoint, NonPositiveLength

TAG_ORIGINAL = "original"
TAG_DUMMY = "dummy"


@dataclass(frozen=True)
class Vertex:
    id: int
    tag: str = TAG_ORIGINAL


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    length: float


@dataclass(frozen=True)
class MetricGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        ids = [v.id for v in self.vertices]
        if ids != list(range(len(ids))):
            raise DanglingEndpoint("vertex ids must be dense 0..n-1")
        n = len(ids)
        seen = set()
        for e in self.edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise DanglingEndpoint(f"edge {e.id} references missing vertex")
            if not (math.isfinite(e.length) and e.length > 0):
                raise NonPositiveLength(f"edge {e.id} has length {e.length}")
            if e.id in seen:
                raise DanglingEndpoint(f"duplicate edge id {e.id}")
            seen.add(e.id)
        if sorted(seen) != list(range(len(self.edges))):
            raise DanglingEndpoint("edge ids must be dense 0..m-1")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n_vertices
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return tuple(deg)

    def degree(self, v: int) -> int:
        return self._degrees[v]

    @property
    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    def edge_lengths(self) -> np.ndarray:
        return np.array([e.length for e in self.edges], dtype=float)


def make_graph(
    n_vertices: int,
    edges: Iterable[tuple[int, int, float]],
    tags: Optional[Sequence[str]] = None,
) -> MetricGraph:
    """Build a validated metric graph from (u, v, length) triples."""
    if tags is None:
        tags = [TAG_ORIGINAL] * n_vertices
    vertices = tuple(Vertex(i, tag) for i, tag in enumerate(tags))
    edata = tuple(Edge(j, u, v, float(L)) for j, (u, v, L) in enumerate(edges))
    return MetricGraph(vertices, edata)


def subdivide_midpoints(g: MetricGraph) -> MetricGraph:
    """Insert a dummy vertex at the midpoint of every edge.

    Edge ``j`` of length L becomes edges ``2j`` (tail half) and ``2j + 1``
    (head half), each of length L/2, joined at dummy vertex ``n + j``.
    """
    n = g.n_vertices
    vertices = list(g.vertices)
    for e in g.edges:
        vertices.append(Vertex(n + e.id, TAG_DUMMY))
    edges = []
    for e in g.edges:
        d = n + e.id
        edges.append(Edge(2 * e.id, e.u, d, e.length / 2.0))
        edges.append(Edge(2 * e.id + 1, d, e.v, e.length / 2.0))
    return MetricGraph(tuple(vertices), tuple(edges))
