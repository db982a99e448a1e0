"""Haar-style wavelet bases built over spanning trees.

A basis over an n-vertex tree always has exactly n elements: one constant
element plus n-1 localized two-level elements. Each two-level element takes
one positive value on a vertex group, one negative value on a sibling group,
and zero elsewhere, so the whole basis is orthonormal by construction.

The builder splits the tree at balance vertices again and again, which keeps
coefficient supports logarithmically small for signals with few level
changes. Splits record only their group bounds; the Haar elements are expanded
from one template per group count, and one sort fixes the depth-first order.
"""

from __future__ import annotations

from functools import cache, cached_property
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
    disjoint. The arrays are read-only and shared by every basis of the
    tree. ``matrix`` holds the same elements as sparse rows; it is built,
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
        pos: np.ndarray,
        neg: np.ndarray,
    ):
        self.tree = tree
        self.n = tree.n
        self.perm = perm
        self.lo = lo
        self.mid = mid
        self.hi = hi
        self.depths = depths
        self.pivots = pivots
        self.pos = pos
        self.neg = neg

    def __len__(self) -> int:
        return len(self.lo)

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(element, vertex, value) of every nonzero entry, by element, then vertex."""
        row, k = _spans(self.lo, self.hi)
        k = k[np.lexsort((self.perm[k], row))]  # row is sorted already
        return row, self.perm[k], np.where(k < self.mid[row], self.pos[row], self.neg[row])

    @property
    def vertices(self) -> np.ndarray:
        """Column indices of ``matrix``: the vertices of every support, back to back."""
        return self._entries()[1]

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The elements as CSR rows with sorted column indices."""
        import scipy.sparse as sp

        _, vertex, value = self._entries()
        indptr = np.concatenate(([0], np.cumsum(self.hi - self.lo)))
        return sp.csr_matrix((value, vertex, indptr), shape=(len(self), self.n))

    def to_dense(self) -> np.ndarray:
        row, vertex, value = self._entries()
        d = np.zeros((len(self), self.n))
        d[row, vertex] = value
        return d


def _haar_values(n: int, lo, mid, hi, pivots) -> tuple[np.ndarray, np.ndarray]:
    """The ``(pos, neg)`` values of the elements with these ranges and pivots."""
    # On a split of n1 positive against n2 negative vertices the element is
    # sqrt(n1 n2 / (n1 + n2)) times (1/n1 on the first group, -1/n2 on the
    # second). A two-vertex subtree (pivot -1) keeps 1/sqrt(2), which
    # np.sqrt(0.5) misses by one ulp.
    n1, n2 = (mid - lo)[1:], (hi - mid)[1:]
    pos = np.empty(len(lo))
    neg = np.empty(len(lo))
    pos[0], neg[0] = 1.0 / np.sqrt(n), 0.0
    pos[1:] = np.sqrt(n2 / (n1 * (n1 + n2)))
    neg[1:] = -np.sqrt(n1 / (n2 * (n1 + n2)))
    pair = pivots < 0
    pair[0] = False
    pos[pair] = 1.0 / np.sqrt(2.0)
    neg[pair] = -1.0 / np.sqrt(2.0)
    return pos, neg


@cache
def _haar_template(p: int) -> np.ndarray:
    """Columns (lo, mid, hi, depth, pivot, part offset) of a p-group split's elements.

    They index the split's record: its depth, pivot and p+1 group bounds. The
    first ceil(p/2) groups go against the rest, then each half the same way.
    """
    if p < 2:
        return np.empty((0, 6), dtype=np.intp)
    h = (p + 1) // 2
    right = _haar_template(p - h) + (h, h, h, 0, 0, 0)
    return np.concatenate(([(2, h + 2, p + 2, 0, 1, 2)], _haar_template(h), right))


def build_basis(t: SpanningTree) -> WaveletBasis:
    """Construct the full wavelet basis of a spanning tree.

    Every call returns a new basis over the same arrays: the tree computes
    its split layout (:func:`_split_layout`) on the first call and keeps it,
    read-only, for the next.

    Returns
    -------
    WaveletBasis
        Exactly n elements: the constant, then depth-first split elements.
    """
    return WaveletBasis(t, *t._basis_layout)


def _split_layout(t: SpanningTree) -> tuple[np.ndarray, ...]:
    """Read-only ``(perm, lo, mid, hi, depths, pivots, pos, neg)`` of the basis of t.

    Each subtree is split at a balance vertex; the vertex joins its smallest
    component, the components are ordered by smallest vertex and laid out
    side by side in ``perm``, and Haar differences over that group list give
    one element per group boundary: the first ceil(p/2) groups against the
    rest, then each half the same way. Components of three or more vertices
    are split in turn; a two-vertex component gives one final element.

    The builder reads ``t.parent``, the tree rooted at vertex 0, and never
    the tree's edges; a parent array that is no such tree raises ValueError.
    A part is its top vertex's subtree less the subtrees below cut parent
    edges, so a split cuts edges and updates subtree sizes on the walk path
    only. The loop records each split's group bounds, depth and pivot, a
    two-vertex part as a split of its two vertices with pivot -1; the
    elements are expanded from one template per group count p, and one
    stable sort by (part offset, depth) puts them in depth-first order.
    """
    n = t.n
    parent = t.parent.tolist()
    # size[v] and low[v] are the vertex count and smallest vertex of v's
    # subtree inside v's part; cut[v] separates v from its parent's part.
    kids, size, low = _rooted(parent, n)
    cut = [False] * n
    perm = [0] * n
    # Records by group count; two-vertex parts' records (apart while a 2-group
    # record may be growing); (perm offset, top, depth) of the parts to split.
    splits, pairs, parts = {}, [], []
    lo, depth, v, tops = 0, 0, -1, [0]  # the root, as the one group of a split at depth 0
    while True:
        record = splits.setdefault(len(tops), [])
        record += (depth, v, lo)
        for w in tops:
            s = size[w]
            if s == 1:
                perm[lo] = w
            elif s == 2:
                # w's other vertex is low[w] below it, or else its one uncut child.
                u = low[w]
                if u == w:
                    for u in kids[w]:
                        if not cut[u]:
                            break
                perm[lo], perm[lo + 1] = (u, w) if u < w else (w, u)
                pairs += (depth + 1, -1, lo, lo + 1, lo + 2)
            else:
                parts.append((lo, w, depth + 1))
            lo += s
            record.append(lo)
        if not parts:
            break
        lo, top, depth = parts.pop()
        v, _ = _balance_walk(kids, size, low, cut, top)
        tops = [w for w in kids[v] if not cut[w]]
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
                    least = a
                    for w in kids[a]:
                        if not cut[w] and low[w] < least:
                            least = low[w]
                    low[a] = least
            tops.append(top)
        # v joins the smallest component, of equals the one with the smallest vertex.
        host = min([(size[w], low[w], w) for w in tops])[2]
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

    splits.setdefault(2, []).extend(pairs)
    blocks = [np.array([[0, n, n, 0, -1, 0]])]
    for p, records in splits.items():
        rows = np.array(records, dtype=np.int64).reshape(-1, p + 3)
        blocks.append(rows[:, _haar_template(p)].reshape(-1, 6))
    elements = np.concatenate(blocks)
    # Stable, so a split's elements keep their template order.
    order = np.lexsort((elements[:, 3], elements[:, 5]))
    lo, mid, hi, depths, pivots = elements.T[:5, order]
    layout = (np.array(perm, dtype=np.int64), lo, mid, hi, depths, pivots,
              *_haar_values(n, lo, mid, hi, pivots))
    for a in layout:
        a.flags.writeable = False
    return layout


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


def edge_activations(basis: WaveletBasis) -> np.ndarray:
    """Count, per edge of the basis's tree, the zero-sum elements that engage it.

    An element engages an edge when both endpoints lie in the element's
    support augmented with the split vertex that produced it; the augmented
    support is always a connected subtree, so a nonzero coefficient on a
    piecewise-constant signal can be charged to an engaged edge on which the
    signal jumps. The maximum count never exceeds :func:`activation_bound`.

    Note this is deliberately not the count of elements whose *values*
    differ across the edge: differing values leak across support boundaries
    (an element is non-constant across every edge leaving its support), and
    that looser count can exceed the budget even on paths.
    """
    t = basis.tree
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
    row, vertex, value = basis._entries()
    columns = (row, vertex, value, basis.depths[row])
    write_csv(path, ["element", "vertex", "value", "depth"], zip(*(c.tolist() for c in columns)))
