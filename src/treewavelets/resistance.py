"""Effective resistances: exact dense computation plus a walk-based estimator.

The exact path goes through the Laplacian pseudoinverse (one symmetric
eigendecomposition per graph, fine at desk scale). The estimator averages
round-trip hitting times of a random walk and serves as an independent
cross-check of the algebra, not as the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import WalkLimitError
from .graphs import (
    EPS_CUT,
    Graph,
    Signal,
    as_rng,
    incidence_apply,
    require_connected,
    signal_values,
)

__all__ = [
    "CommuteEstimate",
    "ResistanceProfile",
    "all_edge_resistances",
    "cut_resistance",
    "effective_resistance",
    "estimate_commute_resistance",
    "laplacian",
    "pseudoinverse",
    "write_resistance_csv",
]

# relative eigenvalue cutoff separating the connectivity nullspace from signal
_RANK_TOL = 1e-9


def laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian: degree on the diagonal, -1 per edge."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
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
    ea = g.edge_array
    if len(ea):
        r = diag[ea[:, 0]] + diag[ea[:, 1]] - 2.0 * pinv[ea[:, 0], ea[:, 1]]
    else:
        r = np.zeros(0)
    return ResistanceProfile(graph=g, pinv=pinv, edge_resistances=np.asarray(r))


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
    g = profile.graph
    if g.m == 0:
        signal_values(x)
        return 0.0
    mask = np.abs(incidence_apply(g, x)) > eps
    return float(profile.edge_resistances[mask].sum())


@dataclass(frozen=True)
class CommuteEstimate:
    """Monte Carlo estimate of an effective resistance with its stderr."""

    estimate: float
    stderr: float
    trials: int


def _hitting_steps(
    indptr: np.ndarray, indices: np.ndarray, start: int, target: int, seed: int, max_steps: int
) -> int:
    """Steps a random walk takes from start to target; -1 past max_steps."""
    rand = np.random.RandomState(seed).random_sample
    cur = start
    steps = 0
    while cur != target:
        if steps >= max_steps:
            return -1
        lo = indptr[cur]
        deg = indptr[cur + 1] - lo
        cur = indices[lo + int(rand() * deg)]
        steps += 1
    return steps


def estimate_commute_resistance(
    g: Graph,
    v: int,
    w: int,
    trials: int,
    rng: np.random.Generator | int | None = None,
    max_steps: int = 10**8,
) -> CommuteEstimate:
    """Estimate resistance between v and w from round-trip walk times.

    Each trial runs a random walk v -> w and back, and divides the step total
    by twice the edge count; the mean over trials estimates the resistance.
    A walk exceeding max_steps aborts the estimate.
    """
    require_connected(g)
    if not (0 <= v < g.n and 0 <= w < g.n) or v == w:
        raise ValueError(f"need two distinct vertices in range, got ({v}, {w})")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gen = as_rng(rng)
    indptr, indices = g.csr
    samples = np.empty(trials)
    for t in range(trials):
        forward = _hitting_steps(indptr, indices, v, w, int(gen.integers(2**32)), max_steps)
        backward = _hitting_steps(indptr, indices, w, v, int(gen.integers(2**32)), max_steps)
        if forward < 0 or backward < 0:
            raise WalkLimitError(
                f"hitting walk between {v} and {w} exceeded {max_steps} steps"
            )
        samples[t] = (forward + backward) / (2.0 * g.m)
    stderr = float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return CommuteEstimate(estimate=float(samples.mean()), stderr=stderr, trials=trials)


def write_resistance_csv(profile: ResistanceProfile, path: str | Path) -> None:
    """Dump per-edge resistances as CSV rows ``u,v,r_e``."""
    lines = ["u,v,r_e"]
    for (u, v), r in zip(profile.graph.edges, profile.edge_resistances):
        lines.append(f"{u},{v},{repr(float(r))}")
    Path(path).write_text("\n".join(lines) + "\n")
