"""Exact effective resistances of a connected graph.

Everything goes through the Laplacian pseudoinverse: one symmetric
eigendecomposition per graph, fine at desk scale. The Foster sum and the
uniform spanning tree's edge marginals (P(e in T) = R_e) cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .graphs import EPS_CUT, Graph, Signal, incidence_apply, require_connected

__all__ = [
    "ResistanceProfile",
    "all_edge_resistances",
    "cut_resistance",
    "effective_resistance",
    "laplacian",
    "pseudoinverse",
    "write_resistance_csv",
]

# relative eigenvalue cutoff separating the connectivity nullspace from signal
_RANK_TOL = 1e-9


def laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian: degree on the diagonal, -1 per edge."""
    lap = np.diag(g.degrees.astype(np.float64))
    u, v = g.edges.T
    lap[u, v] = -1.0
    lap[v, u] = -1.0
    return lap


def pseudoinverse(lap: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a connected graph's Laplacian.

    Uses a symmetric eigendecomposition and inverts every eigenvalue above a
    relative cutoff. Exactly one zero eigenvalue is expected; more means the
    graph behind the matrix is disconnected.
    """
    lap = np.asarray(lap, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"laplacian must be square, got shape {lap.shape}")
    if lap.shape[0] == 1:
        return np.zeros((1, 1))
    vals, vecs = np.linalg.eigh(lap)
    cutoff = _RANK_TOL * max(float(vals[-1]), 1.0)
    null_count = int(np.count_nonzero(np.abs(vals) <= cutoff))
    if null_count != 1:
        raise ValueError(
            f"laplacian nullspace has dimension {null_count}; "
            "expected 1 (a connected graph)"
        )
    null = np.abs(vals) <= cutoff
    inv = np.where(null, 0.0, 1.0 / np.where(null, 1.0, vals))
    return (vecs * inv) @ vecs.T


@dataclass(frozen=True)
class ResistanceProfile:
    """Exact effective resistances of one connected graph.

    ``edge_resistances`` aligns with ``graph.edges``; ``pinv`` is the
    Laplacian pseudoinverse backing arbitrary-pair queries.
    """

    graph: Graph
    pinv: np.ndarray
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
    pinv = pseudoinverse(laplacian(g))
    diag = np.diag(pinv)
    u, v = g.edges.T
    r = diag[u] + diag[v] - 2.0 * pinv[u, v]
    return ResistanceProfile(graph=g, pinv=pinv, edge_resistances=r)


def effective_resistance(profile: ResistanceProfile, v: int, w: int) -> float:
    """Effective resistance between any vertex pair, from the pseudoinverse."""
    n = profile.graph.n
    if not (0 <= v < n and 0 <= w < n):
        raise ValueError(f"vertices ({v}, {w}) out of range for n={n}")
    if v == w:
        return 0.0
    p = profile.pinv
    return float(p[v, v] + p[w, w] - 2.0 * p[v, w])


def cut_resistance(profile: ResistanceProfile, x: Signal | np.ndarray, eps: float = EPS_CUT) -> float:
    """Total edge resistance across the signal's boundary edges."""
    mask = np.abs(incidence_apply(profile.graph, x)) > eps
    return float(profile.edge_resistances[mask].sum())


def write_resistance_csv(profile: ResistanceProfile, path: str | Path) -> None:
    """Dump per-edge resistances as CSV rows ``u,v,r_e``."""
    lines = ["u,v,r_e"]
    for (u, v), r in zip(profile.graph.edges.tolist(), profile.edge_resistances):
        lines.append(f"{u},{v},{repr(float(r))}")
    Path(path).write_text("\n".join(lines) + "\n")
