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

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graphs import EPS_CUT, Signal, signal_values
from .trees import SpanningTree, _balance_split, _TreeScratch

__all__ = [
    "BasisElement",
    "WaveletBasis",
    "activation_bound",
    "apply_basis",
    "basis_sparsity",
    "build_basis",
    "edge_activations",
    "form_wavelets",
    "write_basis_csv",
]


@dataclass(frozen=True)
class BasisElement:
    """One basis vector in sparse form: values[i] sits at vertices[i]."""

    vertices: np.ndarray
    values: np.ndarray
    depth: int = 0


class WaveletBasis:
    """All basis elements of one tree, stored back to back in CSR-style arrays.

    Elements are ordered: constant first, then the splits in depth-first
    order. ``indptr`` delimits each element's slice of ``vertices`` and
    ``values``; ``depths`` records which recursion level emitted it.
    """

    def __init__(
        self,
        tree: SpanningTree,
        indptr: np.ndarray,
        vertices: np.ndarray,
        values: np.ndarray,
        depths: np.ndarray,
        pivots: np.ndarray,
    ):
        self.tree = tree
        self.n = tree.n
        self.indptr = indptr
        self.vertices = vertices
        self.values = values
        self.depths = depths
        self.pivots = pivots

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def element(self, i: int) -> BasisElement:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return BasisElement(
            vertices=self.vertices[lo:hi],
            values=self.values[lo:hi],
            depth=int(self.depths[i]),
        )

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """Elements as rows of a sparse (n, n) matrix."""
        return sp.csr_matrix(
            (self.values, self.vertices, self.indptr), shape=(len(self), self.n)
        )

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def form_wavelets(components, depth: int = 0) -> list[BasisElement]:
    """Lay Haar differences over an ordered list of disjoint vertex groups.

    The first element contrasts the first ceil(p/2) groups against the rest,
    then each half is treated the same way, giving p-1 orthonormal, zero-sum
    elements for p groups. Values follow the balanced two-level form: on a
    split (C1, C2) the element is sqrt(|C1||C2|/(|C1|+|C2|)) times
    (1/|C1| on C1, -1/|C2| on C2).

    Parameters
    ----------
    components : sequence of vertex collections
        Disjoint, each nonempty; order determines the Haar hierarchy.
    depth : int
        Recorded on every produced element.
    """
    comps = [list(c) for c in components]
    if not comps:
        raise ValueError("need at least one component")
    seen: set[int] = set()
    for c in comps:
        if not c:
            raise ValueError("components must be nonempty")
        for v in c:
            if v in seen:
                raise ValueError(f"components are not disjoint: vertex {v} repeats")
            seen.add(v)
    out: list[BasisElement] = []
    _haar_over(comps, depth, out)
    return out


def _haar_over(comps: list[list[int]], depth: int, out: list[BasisElement]) -> None:
    if len(comps) < 2:
        return
    h = (len(comps) + 1) // 2
    left, right = comps[:h], comps[h:]
    n1 = sum(len(c) for c in left)
    n2 = sum(len(c) for c in right)
    pos = np.sqrt(n2 / (n1 * (n1 + n2)))
    neg = -np.sqrt(n1 / (n2 * (n1 + n2)))
    verts = np.empty(n1 + n2, dtype=np.int64)
    vals = np.empty(n1 + n2, dtype=np.float64)
    i = 0
    for c in left:
        verts[i : i + len(c)] = c
        vals[i : i + len(c)] = pos
        i += len(c)
    for c in right:
        verts[i : i + len(c)] = c
        vals[i : i + len(c)] = neg
        i += len(c)
    order = np.argsort(verts)
    out.append(BasisElement(vertices=verts[order], values=vals[order], depth=depth))
    _haar_over(left, depth, out)
    _haar_over(right, depth, out)


def _two_point(a: int, b: int, depth: int) -> BasisElement:
    lo, hi = (a, b) if a < b else (b, a)
    r = 1.0 / np.sqrt(2.0)
    sign = 1.0 if lo == a else -1.0
    return BasisElement(
        vertices=np.array([lo, hi], dtype=np.int64),
        values=np.array([sign * r, -sign * r], dtype=np.float64),
        depth=depth,
    )


def build_basis(t: SpanningTree) -> WaveletBasis:
    """Construct the full wavelet basis of a spanning tree.

    Returns
    -------
    WaveletBasis
        Exactly n elements: the constant, then depth-first split elements.
    """
    n = t.n
    adj = t.adjacency
    scratch = _TreeScratch(n)
    elements: list[BasisElement] = [
        BasisElement(
            vertices=np.arange(n, dtype=np.int64),
            values=np.full(n, 1.0 / np.sqrt(n)),
            depth=0,
        )
    ]
    pivots: list[int] = [-1]

    def process(verts: list[int], depth: int) -> None:
        if len(verts) == 2:
            elements.append(_two_point(verts[0], verts[1], depth))
            pivots.append(-1)
            return
        v, comps = _balance_split(adj, verts, scratch)
        k = min(range(len(comps)), key=lambda i: len(comps[i]))
        comps[k] = sorted(comps[k] + [v])
        comps.sort(key=lambda c: c[0])
        before = len(elements)
        _haar_over(comps, depth, elements)
        pivots.extend([v] * (len(elements) - before))
        for c in comps:
            if len(c) >= 2:
                process(c, depth + 1)

    if n >= 2:
        process(list(range(n)), 1)

    indptr = np.zeros(len(elements) + 1, dtype=np.int64)
    for i, e in enumerate(elements):
        indptr[i + 1] = indptr[i] + len(e.vertices)
    vertices = np.concatenate([e.vertices for e in elements])
    values = np.concatenate([e.values for e in elements])
    depths = np.array([e.depth for e in elements], dtype=np.int64)
    return WaveletBasis(t, indptr, vertices, values, depths, np.array(pivots, dtype=np.int64))


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


def _ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError(f"expected a positive integer, got {x}")
    return (x - 1).bit_length()


def activation_bound(t: SpanningTree) -> int:
    """Per-edge activation budget of a tree's basis.

    Equal to max(1, ceil(log2 d)) * max(1, ceil(log2 n)) for tree degree d;
    the lower clamps only matter for two-vertex trees, where d = 1.
    """
    if t.n < 2:
        return 0
    return max(1, _ceil_log2(max(t.max_degree, 1))) * max(1, _ceil_log2(t.n))


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
    if not t.edges:
        return np.zeros(0, dtype=np.int64)
    ea = np.asarray(t.edges, dtype=np.int64)
    eu, ev = ea[:, 0], ea[:, 1]
    member = np.zeros(basis.n, dtype=bool)
    counts = np.zeros(len(t.edges), dtype=np.int64)
    for i in range(1, len(basis)):
        lo, hi = basis.indptr[i], basis.indptr[i + 1]
        verts = basis.vertices[lo:hi]
        piv = int(basis.pivots[i])
        member[verts] = True
        if piv >= 0:
            member[piv] = True
        counts += member[eu] & member[ev]
        member[verts] = False
        if piv >= 0:
            member[piv] = False
    return counts


def write_basis_csv(basis: WaveletBasis, path: str | Path) -> None:
    """Dump the basis as CSV rows ``element,vertex,value,depth``."""
    lines = ["element,vertex,value,depth"]
    for i in range(len(basis)):
        e = basis.element(i)
        for v, val in zip(e.vertices, e.values):
            lines.append(f"{i},{int(v)},{repr(float(val))},{e.depth}")
    Path(path).write_text("\n".join(lines) + "\n")
