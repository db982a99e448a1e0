"""The max-coefficient detection test and the signal samplers it is run on.

The null hypothesis is pure Gaussian noise; the alternative adds a vector
that changes level across few edges and carries l2 energy mu. The test
rejects when the largest wavelet coefficient magnitude exceeds an analytic
threshold calibrated only by (sigma, n, delta) - no Monte Carlo calibration
step is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSignalError
from .graphs import EPS_CUT, Graph, Signal, _require_positive, as_rng
from .wavelets import WaveletBasis, _clamped_log2, _spans, apply_basis

__all__ = [
    "DecisionRecord",
    "detect",
    "gen_cluster_signal",
    "gen_prior_signal",
    "gen_two_level_signal",
    "prior_support_size",
    "snr_condition",
    "threshold",
]


def threshold(sigma: float, n: int, delta: float) -> float:
    """Rejection threshold sigma * sqrt(2 ln(n / delta)).

    Under the null, every coefficient is N(0, sigma^2), so a union bound
    caps the false-alarm probability at delta.
    """
    _require_positive("sigma", sigma)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return sigma * math.sqrt(2.0 * math.log(n / delta))


@dataclass(frozen=True)
class DecisionRecord:
    """Outcome of one application of the test."""

    reject: bool
    statistic: float
    argmax_element: int
    threshold: float


def detect(basis: WaveletBasis, y: Signal | np.ndarray, tau: float) -> DecisionRecord:
    """Run the max-coefficient test: reject iff max |coefficient| > tau.

    Raises ValueError when tau is negative, NaN or infinite: such a threshold
    would turn every observation into a silent accept (or reject).
    """
    if not (np.isfinite(tau) and tau >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {tau}")
    coefs = apply_basis(basis, y)
    mags = np.abs(coefs)
    arg = int(np.argmax(mags))
    stat = float(mags[arg])
    return DecisionRecord(reject=stat > tau, statistic=stat, argmax_element=arg, threshold=tau)


# =============================================================================
# Signal samplers
# =============================================================================


def _check_budget(rho: float, mu: float) -> None:
    # rho = +inf means no budget.
    _require_positive("cut budget", rho, zero_ok=True, inf_ok=True)
    _require_positive("signal energy", mu)


def _grow_ball(
    g: Graph, rho: float, rng: np.random.Generator, proper: bool
) -> tuple[np.ndarray, int]:
    """Grow a BFS ball from a random seed while its boundary stays within rho.

    Adds whole layers; stops just before the first layer that would push the
    boundary cut over the budget (or, with proper=True, before the ball
    swallows every vertex), and searches no further. Returns the member mask
    and the ball's cut, the number of edges leaving it.
    """
    seed_vertex = int(rng.integers(g.n))
    indptr, indices = g.csr
    members = np.zeros(g.n, dtype=bool)
    layer = np.array([seed_vertex])
    size = cut = 0
    while True:
        members[layer] = True
        nbrs = indices[_spans(indptr[layer], indptr[layer + 1])[1]]
        # Every edge leaving a BFS ball starts in its last layer, so these
        # entries are the ball's cut, and their ends are the next layer.
        out = nbrs[~members[nbrs]]
        if len(out) > rho:
            if not size:
                raise InfeasibleSignalError(
                    f"no ball around vertex {seed_vertex} fits the cut budget {rho}"
                )
            members[layer] = False
            return members, cut
        size += len(layer)
        cut = len(out)
        if not cut:
            return members, cut
        out.sort()
        layer = out[np.concatenate(([True], out[1:] != out[:-1]))]
        if proper and size + len(layer) >= g.n:
            return members, cut


def gen_cluster_signal(
    g: Graph, rho: float, mu: float, rng: np.random.Generator | int
) -> Signal:
    """Constant-on-a-ball signal: mu/sqrt(|S|) on a grown BFS ball S.

    The ball grows layer by layer from a uniformly random seed vertex until
    the next layer would push the boundary cut past rho; a budget at least
    the total edge count lets the ball cover every vertex.
    """
    _check_budget(rho, mu)
    members, cut = _grow_ball(g, rho, as_rng(rng), proper=False)
    level = mu / math.sqrt(int(members.sum()))
    values = np.zeros(g.n)
    values[members] = level
    return Signal(values=values, cut=cut if level > EPS_CUT else 0)


def gen_two_level_signal(
    g: Graph, rho: float, mu: float, rng: np.random.Generator | int
) -> Signal:
    """Mean-zero two-level signal: balanced levels on a ball S versus its complement.

    Levels are chosen so the vector sums to zero and carries l2 norm mu; the
    ball is grown exactly as in :func:`gen_cluster_signal` but always stays a
    proper subset.
    """
    _check_budget(rho, mu)
    if g.n < 2:
        raise InfeasibleSignalError("a mean-zero two-level signal needs n >= 2")
    members, cut = _grow_ball(g, rho, as_rng(rng), proper=True)
    ns = int(members.sum())
    nc = g.n - ns
    inner, outer = mu * math.sqrt(nc / (g.n * ns)), -mu * math.sqrt(ns / (g.n * nc))
    values = np.empty(g.n)
    values[members] = inner
    values[~members] = outer
    return Signal(values=values, cut=cut if inner - outer > EPS_CUT else 0)


def prior_support_size(g: Graph, rho: float) -> int:
    """Support size floor(min(rho / d_max, sqrt(n))) of the scattered sampler."""
    _require_positive("cut budget", rho, zero_ok=True, inf_ok=True)
    if g.max_degree == 0:
        return min(1, int(math.isqrt(g.n)))
    return int(min(rho / g.max_degree, math.sqrt(g.n)))


def gen_prior_signal(
    g: Graph, rho: float, mu: float, rng: np.random.Generator | int
) -> Signal:
    """Scattered worst-case-style signal: mu/sqrt(p) on a uniform size-p subset.

    p = floor(min(rho / d_max, sqrt(n))) guarantees the boundary cut fits the
    budget whatever subset is drawn. Raises when the budget forces p < 1.
    """
    _check_budget(rho, mu)
    p = prior_support_size(g, rho)
    if p < 1:
        raise InfeasibleSignalError(
            f"cut budget {rho} is below the max degree {g.max_degree}; "
            "no scattered support fits"
        )
    support = as_rng(rng).choice(g.n, size=p, replace=False)
    level = mu / math.sqrt(p)
    values = np.zeros(g.n)
    values[support] = level
    # An edge leaving the support has one CSR entry at its support end.
    indptr, indices = g.csr
    leaving = values[indices[_spans(indptr[support], indptr[support + 1])[1]]] == 0
    return Signal(values=values, cut=int(leaving.sum()) if level > EPS_CUT else 0)


# =============================================================================
# Sufficient-SNR reference scales
# =============================================================================


def snr_condition(
    mode: str,
    *,
    n: int,
    d: int,
    delta: float | None = None,
    rho: float | None = None,
    r_max: float | None = None,
) -> float:
    """Evaluate a sufficient signal-to-noise scale mu/sigma.

    mode="remark1" gives the fixed-tree sufficient condition
    sqrt(2 rho ceil(log2 d) ceil(log2 n)) (sqrt(ln 1/delta) + sqrt(ln n/delta)),
    with d the tree's max degree and rho bounding the signal's cut.
    mode="theorem3" gives the random-tree scale sqrt(r_max ceil(log2 d)) *
    ceil(log2 n), with d the graph's max degree and r_max the largest edge
    resistance; it is an order-of-growth reference, not a certified constant.
    Both log2 factors are clamped below at 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode == "remark1":
        if rho is None or delta is None:
            raise ValueError("remark1 needs rho and delta")
        _require_positive("rho", rho, zero_ok=True, inf_ok=True)
        if not 0 < delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        levels = _clamped_log2(d) * _clamped_log2(n)
        return math.sqrt(2.0 * rho * levels) * (
            math.sqrt(math.log(1.0 / delta)) + math.sqrt(math.log(n / delta))
        )
    if mode == "theorem3":
        if r_max is None:
            raise ValueError("theorem3 needs r_max")
        _require_positive("r_max", r_max)
        return math.sqrt(r_max * _clamped_log2(d)) * _clamped_log2(n)
    raise ValueError(f"unknown mode {mode!r}; expected 'remark1' or 'theorem3'")
