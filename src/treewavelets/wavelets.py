"""Haar-style wavelet bases built over spanning trees.

A basis over an n-vertex tree always has exactly n elements: one constant
element plus n-1 localized two-level elements. Each two-level element takes
one positive value on a vertex group, one negative value on a sibling group,
and zero elsewhere, so the whole basis is orthonormal by construction.

The builder recursively splits the tree at a balance vertex, groups the
resulting components, and lays Haar differences over the group list; every
split at least halves the subtree, which is what keeps coefficient supports
logarithmically small for signals with few level changes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graphs import EPS_CUT, Signal, signal_values
from .trees import SpanningTree, _balance_walk, _root_part

__all__ = [
    "WaveletBasis",
    "activation_bound",
    "apply_basis",
    "basis_sparsity",
    "build_basis",
    "edge_activations",
    "write_basis_csv",
]


def _spans(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lay the integer ranges [starts[i], stops[i]) end to end.

    Returns, for every entry, the index i of its range and its value.
    """
    sizes = stops - starts
    owner = np.repeat(np.arange(len(sizes)), sizes)
    offsets = np.cumsum(sizes) - sizes
    return owner, np.arange(int(sizes.sum())) + (starts - offsets)[owner]


class WaveletBasis:
    """All basis elements of one tree as ranges over one vertex permutation.

    Element i is positive on ``perm[lo[i]:mid[i]]``, negative on
    ``perm[mid[i]:hi[i]]`` and zero elsewhere. Element 0 is the constant
    (``lo = 0``, ``mid = hi = n``); the split elements follow in depth-first
    order. ``depths`` records which recursion level emitted each element and
    ``pivots`` the balance vertex of its split (-1 for the constant and for
    two-vertex subtrees). Every split groups whole components, so every
    support is a contiguous run of ``perm`` and the ranges nest or are
    disjoint. ``matrix`` holds the elements as sparse rows.
    """

    def __init__(
        self,
        tree: SpanningTree,
        perm: np.ndarray,
        lo: np.ndarray,
        mid: np.ndarray,
        hi: np.ndarray,
        depths: np.ndarray,
        pivots: np.ndarray,
    ):
        self.tree = tree
        self.n = tree.n
        self.perm = perm
        self.lo = lo
        self.mid = mid
        self.hi = hi
        self.depths = depths
        self.pivots = pivots
        self.matrix = self._rows()

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def vertices(self) -> np.ndarray:
        """Column indices of ``matrix``: the vertices of every support, back to back."""
        return self.matrix.indices

    def _rows(self) -> sp.csr_matrix:
        # On a split of n1 positive against n2 negative vertices the element is
        # sqrt(n1 n2 / (n1 + n2)) times (1/n1 on the first group, -1/n2 on the
        # second). A two-vertex subtree (pivot -1) keeps 1/sqrt(2), which
        # np.sqrt(0.5) misses by one ulp.
        lo, mid, hi = self.lo, self.mid, self.hi
        n1, n2 = (mid - lo)[1:], (hi - mid)[1:]
        pos = np.empty(len(self))
        neg = np.empty(len(self))
        pos[0], neg[0] = 1.0 / np.sqrt(self.n), 0.0
        pos[1:] = np.sqrt(n2 / (n1 * (n1 + n2)))
        neg[1:] = -np.sqrt(n1 / (n2 * (n1 + n2)))
        pair = self.pivots < 0
        pair[0] = False
        pos[pair] = 1.0 / np.sqrt(2.0)
        neg[pair] = -1.0 / np.sqrt(2.0)
        row, k = _spans(lo, hi)
        indptr = np.concatenate(([0], np.cumsum(hi - lo)))
        values = np.where(k < mid[row], pos[row], neg[row])
        matrix = sp.csr_matrix((values, self.perm[k], indptr), shape=(len(self), self.n))
        matrix.sort_indices()
        return matrix

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def build_basis(t: SpanningTree) -> WaveletBasis:
    """Construct the full wavelet basis of a spanning tree.

    Each subtree is split at a balance vertex; the vertex joins its smallest
    component, the components are ordered by smallest vertex and laid out
    side by side in ``perm``, and Haar differences over that group list give
    one element per group boundary: the first ceil(p/2) groups against the
    rest, then each half the same way. Components of two or more vertices
    are split in turn, a two-vertex subtree giving one final element.

    Returns
    -------
    WaveletBasis
        Exactly n elements: the constant, then depth-first split elements.
    """
    n = t.n
    ptr, nbrs = (a.tolist() for a in t.csr)
    # label[v] is the perm offset of v's current part: the part being split
    # is every vertex whose label equals its offset.
    label = [0] * n
    parent, size = [-1] * n, [1] * n
    perm = [0] * n
    elements = [(0, n, n, 0, -1)]  # (lo, mid, hi, depth, pivot)

    def haar(bounds: list[int], depth: int, pivot: int) -> None:
        if len(bounds) < 3:
            return
        h = len(bounds) // 2
        elements.append((bounds[0], bounds[h], bounds[-1], depth, pivot))
        haar(bounds[: h + 1], depth, pivot)
        haar(bounds[h:], depth, pivot)

    def process(lo: int, verts: list[int], depth: int) -> None:
        if len(verts) == 2:
            perm[lo : lo + 2] = sorted(verts)
            elements.append((lo, lo + 1, lo + 2, depth, -1))
            return
        order = _root_part(ptr, nbrs, label, lo, min(verts), parent, size)
        v, _ = _balance_walk(ptr, nbrs, label, lo, parent, size, order[0])
        # v's child subtrees follow v in the preorder; the rest lies above v.
        at = order.index(v)
        end = at + size[v]
        comps = []
        i = at + 1
        while i < end:
            comps.append(order[i : i + size[order[i]]])
            i += size[order[i]]
        if at:
            comps.append(order[:at] + order[end:])
        parts = sorted((min(c), c) for c in comps)
        k = min(range(len(parts)), key=lambda j: len(parts[j][1]))
        parts[k] = (min(parts[k][0], v), parts[k][1] + [v])
        parts.sort()
        bounds = [lo]
        for _, c in parts:
            bounds.append(bounds[-1] + len(c))
        haar(bounds, depth, v)
        # Relabel every part before splitting any: the first keeps offset lo,
        # which its siblings must no longer carry.
        for start, (_, c) in zip(bounds, parts):
            for u in c:
                label[u] = start
        for start, (_, c) in zip(bounds, parts):
            if len(c) >= 2:
                process(start, c, depth + 1)
            else:
                perm[start] = c[0]

    if n >= 2:
        process(0, list(range(n)), 1)
    lo, mid, hi, depths, pivots = np.array(elements, dtype=np.int64).T.copy()
    return WaveletBasis(t, np.array(perm, dtype=np.int64), lo, mid, hi, depths, pivots)


def apply_basis(basis: WaveletBasis, y: Signal | np.ndarray) -> np.ndarray:
    """Coefficient vector of y in the basis, one entry per element.

    Raises ValueError when y holds a NaN or an infinity, so that a corrupt
    observation can never pass the test as a silent accept.
    """
    vals = signal_values(y)
    if vals.shape != (basis.n,):
        raise ValueError(f"signal has shape {vals.shape}, expected ({basis.n},)")
    if not np.isfinite(vals).all():
        raise ValueError("signal holds non-finite values")
    return basis.matrix @ vals


def basis_sparsity(basis: WaveletBasis, x: Signal | np.ndarray, eps: float = EPS_CUT) -> int:
    """Number of coefficients of x that exceed eps in magnitude."""
    return int(np.count_nonzero(np.abs(apply_basis(basis, x)) > eps))


def _clamped_log2(x: int) -> int:
    """max(1, ceil(log2 x)) for a positive integer x."""
    if x < 1:
        raise ValueError(f"expected a positive integer, got {x}")
    return max(1, (x - 1).bit_length())


def activation_bound(t: SpanningTree) -> int:
    """Per-edge activation budget of a tree's basis.

    Equal to max(1, ceil(log2 d)) * max(1, ceil(log2 n)) for tree degree d;
    the lower clamps only matter for two-vertex trees, where d = 1.
    """
    if t.n < 2:
        return 0
    return _clamped_log2(t.max_degree) * _clamped_log2(t.n)


def edge_activations(basis: WaveletBasis, t: SpanningTree) -> np.ndarray:
    """Count, per tree edge, the zero-sum elements that engage it.

    An element engages an edge when both endpoints lie in the element's
    support augmented with the split vertex that produced it; the augmented
    support is always a connected subtree, so a nonzero coefficient on a
    piecewise-constant signal can be charged to an engaged edge on which the
    signal jumps. The maximum count never exceeds :func:`activation_bound`.

    Note this is deliberately not the count of elements whose *values*
    differ across the edge: differing values leak across support boundaries
    (an element is non-constant across every edge leaving its support), and
    that looser count can exceed the budget even on paths.

    The basis must have been built from t (the trees are compared).
    """
    if basis.tree != t:
        raise ValueError("basis was not built from this tree")
    n, m = basis.n, t.m
    at = np.empty(n, dtype=np.int64)
    at[basis.perm] = np.arange(n)
    eu, ev = t.edges.T
    lo, hi, pivots = basis.lo[1:], basis.hi[1:], basis.pivots[1:]
    # Both endpoints inside the range: edges ordered by their first position,
    # each element scans the edges that start in its range.
    first = np.minimum(at[eu], at[ev])
    last = np.maximum(at[eu], at[ev])
    order = np.argsort(first, kind="stable")
    row, k = _spans(np.searchsorted(first[order], lo), np.searchsorted(first[order], hi))
    e = order[k]
    inside = e[last[e] < hi[row]]
    # One endpoint is the element's pivot, outside its range, and the other
    # inside it: both ends of every edge, keyed by (this end, position of the
    # other end), so each pivot scans its neighbours inside the range.
    key = np.concatenate((eu, ev)) * n + np.concatenate((at[ev], at[eu]))
    order = np.argsort(key, kind="stable")
    piv_at = at[pivots]
    outside = (pivots >= 0) & ((piv_at < lo) | (piv_at >= hi))
    base = pivots[outside] * n
    _, k = _spans(
        np.searchsorted(key[order], base + lo[outside]),
        np.searchsorted(key[order], base + hi[outside]),
    )
    return np.bincount(np.concatenate((inside, order[k] % m)), minlength=m).astype(np.int64)


def write_basis_csv(basis: WaveletBasis, path: str | Path) -> None:
    """Dump the basis as CSV rows ``element,vertex,value,depth``."""
    m = basis.matrix
    row = np.repeat(np.arange(len(basis)), np.diff(m.indptr))
    lines = ["element,vertex,value,depth"]
    lines += [
        f"{i},{v},{val!r},{d}"
        for i, v, val, d in zip(
            row.tolist(), m.indices.tolist(), m.data.tolist(), basis.depths[row].tolist()
        )
    ]
    Path(path).write_text("\n".join(lines) + "\n")
