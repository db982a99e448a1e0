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

from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .graphs import EPS_CUT, Signal, _finite_values, write_csv
from .trees import SpanningTree, _balance_walk, _rooted

if TYPE_CHECKING:
    import scipy.sparse as sp

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

    Element i is ``pos[i]`` on ``perm[lo[i]:mid[i]]``, ``neg[i]`` on
    ``perm[mid[i]:hi[i]]`` and zero elsewhere. Element 0 is the constant
    (``lo = 0``, ``mid = hi = n``, ``neg = 0``); the split elements follow in
    depth-first order. ``depths`` records which recursion level emitted each
    element and ``pivots`` the balance vertex of its split (-1 for the constant
    and for two-vertex subtrees). Every split groups whole components, so every
    support is a contiguous run of ``perm`` and the ranges nest or are
    disjoint. ``matrix`` holds the same elements as sparse rows; it is built,
    and scipy imported, on first access only, since :func:`apply_basis` needs
    no matrix.
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
        self.pos, self.neg = self._values()

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def vertices(self) -> np.ndarray:
        """Column indices of ``matrix``: the vertices of every support, back to back."""
        row, k = _spans(self.lo, self.hi)
        v = self.perm[k]
        return v[np.lexsort((v, row))]

    def _values(self) -> tuple[np.ndarray, np.ndarray]:
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
        return pos, neg

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The elements as CSR rows with sorted column indices."""
        import scipy.sparse as sp

        lo, mid, hi = self.lo, self.mid, self.hi
        row, k = _spans(lo, hi)
        indptr = np.concatenate(([0], np.cumsum(hi - lo)))
        values = np.where(k < mid[row], self.pos[row], self.neg[row])
        matrix = sp.csr_matrix((values, self.perm[k], indptr), shape=(len(self), self.n))
        matrix.sort_indices()
        return matrix

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _haar(bounds: list[int], depth: int, pivot: int, out: list) -> None:
    """Append the Haar elements over the groups that ``bounds`` delimit to out.

    The first ceil(p/2) of the p groups go against the rest, then each half
    the same way. A module-level function, so that no closure cycle keeps a
    finished build's lists alive until the garbage collector runs.
    """
    if len(bounds) < 3:
        return
    h = len(bounds) // 2
    out.append((bounds[0], bounds[h], bounds[-1], depth, pivot))
    _haar(bounds[: h + 1], depth, pivot, out)
    _haar(bounds[h:], depth, pivot, out)


def build_basis(t: SpanningTree) -> WaveletBasis:
    """Construct the full wavelet basis of a spanning tree.

    Each subtree is split at a balance vertex; the vertex joins its smallest
    component, the components are ordered by smallest vertex and laid out
    side by side in ``perm``, and Haar differences over that group list give
    one element per group boundary: the first ceil(p/2) groups against the
    rest, then each half the same way. Components of two or more vertices
    are split in turn, a two-vertex subtree giving one final element.

    The builder reads ``t.parent``, the tree rooted at vertex 0. A part is
    its top vertex's subtree less the subtrees below cut parent edges, so a
    split cuts edges and updates subtree sizes on the walk path only.

    Returns
    -------
    WaveletBasis
        Exactly n elements: the constant, then depth-first split elements.
    """
    n = t.n
    parent = t.parent.tolist()
    # size[v] and low[v] are the vertex count and smallest vertex of v's
    # subtree inside v's part; cut[v] separates v from its parent's part.
    kids, size, low = _rooted(parent)
    cut = [False] * n
    perm = [0] * n
    elements = [(0, n, n, 0, -1)]  # (lo, mid, hi, depth, pivot)

    def children(v: int) -> list[int]:
        return [w for w in kids[v] if not cut[w]]

    # (perm offset, top, depth). Parts are pushed in reverse layout order, so
    # they split depth first, left to right. A loop, not a recursive closure,
    # for the reason _haar gives.
    parts = [(0, 0, 1)] if n >= 2 else []
    while parts:
        lo, top, depth = parts.pop()
        if size[top] == 2:
            perm[lo : lo + 2] = sorted([top, *children(top)])
            elements.append((lo, lo + 1, lo + 2, depth, -1))
            continue
        v, _ = _balance_walk(kids, size, low, cut, top)
        tops = children(v)
        for w in tops:
            cut[w] = True
        if v != top:
            # The part above v loses v's subtree. An ancestor's smallest
            # vertex changes only if it was the smallest vertex of that subtree.
            cut[v] = True
            sv, gone, a = size[v], low[v], v
            while a != top:
                a = parent[a]
                size[a] -= sv
                if low[a] == gone:
                    low[a] = min([a] + [low[w] for w in children(a)])
            tops.append(top)
        # v joins the smallest component, of equals the one with the smallest vertex.
        host = min(tops, key=lambda w: (size[w], low[w]))
        if host == top:
            # v joins the part above as a leaf under its parent.
            cut[v] = False
            size[v], low[v], a = 1, v, v
            while a != top:
                a = parent[a]
                size[a] += 1
                if v < low[a]:
                    low[a] = v
        else:
            # v becomes the top of a child's part.
            cut[host] = False
            size[v], low[v] = size[host] + 1, min(v, low[host])
            tops[tops.index(host)] = v
        tops.sort(key=low.__getitem__)
        bounds = [lo]
        for w in tops:
            bounds.append(bounds[-1] + size[w])
        _haar(bounds, depth, v, elements)
        for start, w in zip(bounds[-2::-1], reversed(tops)):
            if size[w] == 1:
                perm[start] = w
            else:
                parts.append((start, w, depth + 1))

    lo, mid, hi, depths, pivots = np.array(elements, dtype=np.int64).T.copy()
    return WaveletBasis(t, np.array(perm, dtype=np.int64), lo, mid, hi, depths, pivots)


def apply_basis(basis: WaveletBasis, y: Signal | np.ndarray) -> np.ndarray:
    """Coefficient vector of y in the basis, one entry per element.

    Every element is constant on two runs of ``perm``, so each coefficient is
    a difference of prefix sums of ``y[perm]``; no matrix is formed. y is
    centered on its mean first, which the zero-sum elements do not see, so
    that an offset costs no precision. Raises ValueError when y holds a NaN
    or an infinity, so that a corrupt observation can never pass the test as
    a silent accept.
    """
    y = _finite_values(y, basis.n)
    total = y.sum()
    s = np.zeros(basis.n + 1)
    np.cumsum(y[basis.perm] - total / basis.n, out=s[1:])
    s_mid = s[basis.mid]
    coef = basis.pos * (s_mid - s[basis.lo]) + basis.neg * (s[basis.hi] - s_mid)
    coef[0] = total / np.sqrt(basis.n)
    return coef


def basis_sparsity(basis: WaveletBasis, x: Signal | np.ndarray) -> int:
    """Number of coefficients of x that exceed ``EPS_CUT`` in magnitude."""
    return int(np.count_nonzero(np.abs(apply_basis(basis, x)) > EPS_CUT))


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
    columns = (row, m.indices, m.data, basis.depths[row])
    write_csv(path, ["element", "vertex", "value", "depth"], zip(*(c.tolist() for c in columns)))
