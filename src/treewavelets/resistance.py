"""Exact effective resistances of a connected graph.

One solve per graph: the Laplacian grounded at vertex 0 (its row and column
removed) is invertible on a connected graph, and with that inverse G,
padded by a zero row and column, R(u, v) = G[u, u] + G[v, v] - 2 G[u, v].
Dense, fine at desk scale. The Foster sum and the uniform spanning tree's
edge marginals (P(e in T) = R_e) cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .graphs import Graph, require_connected, write_csv

__all__ = [
    "ResistanceProfile",
    "all_edge_resistances",
    "laplacian",
    "write_resistance_csv",
]


def laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian: degree on the diagonal, -1 per edge."""
    lap = np.diag(g.degrees.astype(np.float64))
    u, v = g.edges.T
    lap[u, v] = -1.0
    lap[v, u] = -1.0
    return lap


@dataclass(frozen=True)
class ResistanceProfile:
    """Exact effective resistances of one connected graph's edges.

    ``edge_resistances`` aligns with ``graph.edges``; it comes from one
    inverse of the Laplacian grounded at vertex 0.
    """

    graph: Graph
    edge_resistances: np.ndarray

    @cached_property
    def total(self) -> float:
        """Sum of edge resistances (n-1 on every connected graph)."""
        return float(self.edge_resistances.sum())

    @cached_property
    def max_edge_resistance(self) -> float:
        return float(self.edge_resistances.max()) if len(self.edge_resistances) else 0.0


def all_edge_resistances(g: Graph) -> ResistanceProfile:
    """Compute the full resistance profile of a connected graph."""
    require_connected(g)
    # The inverse overwrites the Laplacian in place, so no padded copy is made.
    grounded = laplacian(g)
    grounded[1:, 1:] = np.linalg.inv(grounded[1:, 1:])
    grounded[0, :] = 0.0
    grounded[:, 0] = 0.0
    diag = np.diag(grounded)
    u, v = g.edges.T
    return ResistanceProfile(graph=g, edge_resistances=diag[u] + diag[v] - 2.0 * grounded[u, v])


def write_resistance_csv(profile: ResistanceProfile, path: str | Path) -> None:
    """Dump per-edge resistances as CSV rows ``u,v,r_e``."""
    u, v = profile.graph.edges.T.tolist()
    write_csv(path, ["u", "v", "r_e"], zip(u, v, profile.edge_resistances.tolist()))
