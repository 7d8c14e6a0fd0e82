"""Metric-graph data model.

A metric graph is a finite multigraph whose edges carry positive lengths and
are identified with real intervals.  It is its vertex tags, one per vertex,
and two read-only arrays: `ends`, row e the tail and head of edge e, and
`lengths`, entry e the length of edge e.  An edge is its row, so its id is
its row number, and a graph document's edges are placed by their ids
(`io.doc_to_graph`).  Every edge yields a reversal pair of directed bonds;
bond ``2*e`` runs from the tail of edge ``e`` to its head, bond
``2*e + 1`` the other way.  Loops and parallel edges are representable
(quotient graphs need them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DanglingEndpoint, NonPositiveLength

TAG_ORIGINAL = "original"
TAG_DUMMY = "dummy"


@dataclass(frozen=True, eq=False)
class MetricGraph:
    tags: tuple[str, ...]
    ends: np.ndarray  # (E, 2) intp, edge e runs from ends[e, 0] to ends[e, 1]
    lengths: np.ndarray  # (E,) float64

    def __post_init__(self) -> None:
        tags = tuple(self.tags)
        ends = np.array(self.ends, dtype=np.intp).reshape(-1, 2)
        lengths = np.array(self.lengths, dtype=float).reshape(-1)
        if len(lengths) != len(ends):
            raise ValueError(f"{len(ends)} edges with {len(lengths)} lengths")
        dangling = np.flatnonzero(((ends < 0) | (ends >= len(tags))).any(axis=1))
        if len(dangling):
            raise DanglingEndpoint(f"edge {dangling[0]} references missing vertex")
        short = np.flatnonzero(~(np.isfinite(lengths) & (lengths > 0)))
        if len(short):
            raise NonPositiveLength(f"edge {short[0]} has length {lengths[short[0]]}")
        ends.flags.writeable = lengths.flags.writeable = False
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "lengths", lengths)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MetricGraph) and self.tags == other.tags
                and np.array_equal(self.ends, other.ends) and np.array_equal(self.lengths, other.lengths))

    @property
    def n_vertices(self) -> int:
        return len(self.tags)

    @property
    def n_edges(self) -> int:
        return len(self.lengths)

    @cached_property
    def _degrees(self) -> np.ndarray:
        return np.bincount(self.ends.ravel(), minlength=self.n_vertices)

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    @property
    def total_length(self) -> float:
        return float(self.lengths.sum())


def make_graph(
    n_vertices: int,
    edges: Iterable[tuple[int, int, float]],
    tags: Optional[Sequence[str]] = None,
) -> MetricGraph:
    """Build a validated metric graph from (u, v, length) triples."""
    rows = list(edges)
    table = np.array(rows, dtype=float).reshape(len(rows), 3)
    if tags is None:
        tags = [TAG_ORIGINAL] * n_vertices
    return MetricGraph(tags, table[:, :2], table[:, 2])


def subdivide_midpoints(g: MetricGraph) -> MetricGraph:
    """Insert a dummy vertex at the midpoint of every edge.

    Edge ``j`` of length L becomes edges ``2j`` (tail half) and ``2j + 1``
    (head half), each of length L/2, joined at dummy vertex ``n + j``.
    """
    mid = g.n_vertices + np.arange(g.n_edges)
    ends = np.stack([g.ends[:, 0], mid, mid, g.ends[:, 1]], axis=1)
    return MetricGraph(g.tags + (TAG_DUMMY,) * g.n_edges, ends, np.repeat(g.lengths / 2.0, 2))
