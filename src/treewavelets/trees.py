"""Spanning trees: sampling, balance vertices, and tree-level cuts.

The balance walk is the combinatorial heart of the wavelet construction, so
it lives here, shared by :func:`find_balance_walk` and the basis builder. It
reads children lists made from the parent array, not the tree's CSR. One
pass computes every vertex's subtree size and smallest vertex, and the walk
needs nothing else: the builder tracks each part by its top vertex and cut
parent edges, so a split only updates sizes along the walk path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .graphs import (
    Graph,
    _bfs,
    _canonical_edges,
    _parse_edge_list,
    _sorted_pairs,
    as_rng,
    graph_digest,
    require_connected,
    write_edge_list,
)

__all__ = [
    "SpanningTree",
    "bfs_spanning_tree",
    "build_spanning_tree",
    "find_balance_walk",
    "read_tree",
    "sample_ust",
    "validate_spanning_tree",
    "write_tree",
]


@dataclass(frozen=True, eq=False, init=False)
class SpanningTree(Graph):
    """A spanning tree of the host graph ``graph``, stored as its parent array.

    ``parent`` holds each vertex's parent in the tree rooted at vertex 0
    (read-only int64, -1 at the root). The tree is a :class:`Graph` on the
    host's vertices; its canonical ``edges``, and every view derived from
    them, are built from ``parent`` on first read. Construct through
    :func:`build_spanning_tree` (validating) or a sampler; a parent array that
    is no tree rooted at 0 raises ValueError where it is rooted. Trees are
    equal when their parents and hosts are, and pickle as both.
    """

    n = property(lambda self: self.graph.n)

    def __init__(self, graph: Graph, parent):
        parent = np.array(parent, dtype=np.int64)
        parent.flags.writeable = False
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "parent", parent)

    @cached_property
    def edges(self) -> np.ndarray:
        child = np.flatnonzero(self.parent >= 0)
        return _sorted_pairs(self.n, self.parent[child], child)[0]

    @cached_property
    def _basis_layout(self) -> tuple[np.ndarray, ...]:
        """The read-only arrays ``wavelets._split_layout(self)`` that every basis
        of this tree shares. The tree keeps arrays, never a basis: a basis
        holds its tree, so a tree holding its basis would make a cycle that
        only the garbage collector frees."""
        from .wavelets import _split_layout  # wavelets imports this module

        return _split_layout(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.parent, other.parent) and self.graph == other.graph

    def __getstate__(self) -> dict:
        return {"graph": self.graph, "parent": self.parent}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)


def _require_host_edges(g: Graph, edges: np.ndarray) -> None:
    missing = np.flatnonzero(g.edge_ids(edges) < 0)
    if missing.size:
        u, v = edges[missing[0]].tolist()
        raise ValueError(f"tree edge {(u, v)} is not an edge of the host graph")


def validate_spanning_tree(t: SpanningTree) -> None:
    """Raise ValueError unless t is a spanning tree of its host graph, rooted at 0."""
    _rooted(t.parent.tolist(), t.n)
    _require_host_edges(t.graph, t.edges)


def build_spanning_tree(g: Graph, edges) -> SpanningTree:
    """Validate an edge list as a spanning tree of g and root it at vertex 0."""
    edges = _canonical_edges(g.n, edges)
    _require_host_edges(g, edges)
    # n-1 edges span exactly when a search from vertex 0 reaches every vertex.
    if len(edges) != g.n - 1:
        raise ValueError(f"spanning tree needs {g.n - 1} edges, got {len(edges)}")
    parent, order = _bfs(*(a.tolist() for a in Graph(n=g.n, edges=edges).csr), 0)
    if len(order) != g.n:
        raise ValueError("tree edges do not connect all vertices")
    return SpanningTree(g, parent)


# Uniforms drawn per numpy call by the walk; one call per step would cost
# more than the step itself. The first call draws only min(4n, block): on
# small graphs a full block costs more than the whole walk. Successive
# ``random(k)`` calls continue one stream, so the split leaves the walk as it is.
_UNIFORM_BLOCK = 4096


def _wilson_parents(ptr: list[int], deg: list[int], nbrs, n: int, seed: int) -> list[int]:
    """Parent list of a uniform spanning tree rooted at vertex 0 (-1 at the root).

    Wilson's algorithm: from each vertex not yet in the tree, taken in index
    order, walk at random until the tree is hit, then graft the walk's
    loop-erasure onto the tree. ``nxt[u]`` holds the last exit from u, so
    later steps overwrite the loops away. ``(ptr, deg, nbrs)`` is the
    graph's ``_csr_lists``; the graph must be connected. Step i reads the
    i-th uniform of the seed's stream, one loop per block of uniforms.
    """
    nxt = [-1] * n
    if n == 1:
        return nxt
    gen = np.random.default_rng(seed)
    in_tree = [False] * n
    in_tree[0] = True
    start = u = 1
    block = min(_UNIFORM_BLOCK, 4 * n)
    while True:
        for x in gen.random(block).tolist():
            v = nbrs[ptr[u] + int(x * deg[u])]
            nxt[u] = v
            if not in_tree[v]:
                u = v
                continue
            u = start
            while not in_tree[u]:
                in_tree[u] = True
                u = nxt[u]
            while in_tree[start]:
                start += 1
                if start == n:
                    return nxt
            u = start
        block = _UNIFORM_BLOCK


def sample_ust(g: Graph, rng: np.random.Generator | int) -> SpanningTree:
    """Draw a uniform spanning tree by Wilson's loop-erased random walk.

    The tree is rooted at vertex 0; walks start from the remaining vertices
    in index order, and each walk's loop-erased path to the tree joins it
    (Wilson, STOC 1996). Connectedness is required.

    Parameters
    ----------
    g : Graph
    rng : Generator or int
        Source for the walk's seed. Passing the same seed reproduces the
        same tree.
    """
    require_connected(g)
    seed = int(as_rng(rng).integers(2**32))
    return SpanningTree(g, _wilson_parents(*g._csr_lists, g.n, seed))


def bfs_spanning_tree(g: Graph, root: int = 0) -> SpanningTree:
    """Deterministic breadth-first spanning tree, neighbors in index order.

    The tree is kept on g per root: a second call returns the same object,
    with whatever it has cached, and searches nothing.
    """
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")
    tree = g._bfs_trees.get(root)
    if tree is None:
        require_connected(g)
        ptr, _, nbrs = g._csr_lists
        parent = _bfs(ptr, nbrs, root)[0]
        below, v = -1, 0  # root the search tree at 0: reverse the path from 0 up to root
        while v >= 0:
            parent[v], below, v = below, v, parent[v]
        tree = g._bfs_trees[root] = SpanningTree(g, parent)
    return tree


# =============================================================================
# Balance vertex
# =============================================================================


def _rooted(parent: list[int], n: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Children lists, size and low of ``parent``, a tree on n vertices rooted at 0.

    Each vertex lists its children in increasing order; ``size[v]`` and ``low[v]``
    are the vertex count and smallest vertex of v's subtree. Raises ValueError
    when ``parent`` is no such tree."""
    if len(parent) != n:
        raise ValueError(f"tree has {len(parent)} vertices, host graph has {n}")
    if parent[0] != -1 or min(parent[1:], default=0) < 0 or max(parent) >= n:
        raise ValueError("parent array is not a tree rooted at vertex 0")
    kids = [[] for _ in range(n)]
    for v in range(1, n):
        kids[parent[v]].append(v)
    order = [0]
    for v in order:
        order.extend(kids[v])
    if len(order) != n:  # a vertex whose parents run into a cycle is never reached
        raise ValueError("parent array is not a tree rooted at vertex 0")
    size, low = [1] * n, list(range(n))
    for v in order[:0:-1]:
        p = parent[v]
        size[p] += size[v]
        if low[v] < low[p]:
            low[p] = low[v]
    return kids, size, low


def _balance_walk(kids, size, low, cut, top) -> tuple[int, int]:
    """Walk from a part's top vertex to its balance vertex; return (vertex, visits).

    The part is top's subtree under the rooting ``kids``, less the subtrees
    hanging from cut edges (``cut[w]`` cuts w from its parent). ``size[v]``
    and ``low[v]`` are the vertex count and smallest vertex of v's subtree
    inside the part. The walk steps to the child that holds more than half
    the part and stops at a centroid. A part with two centroids has a child
    holding exactly half: the walk takes it when that half holds the part's
    smallest vertex, so it stops where a walk from that vertex would stop first.
    """
    total, least = size[top], low[top]
    v, visits = top, 1
    while True:
        for w in kids[v]:
            if not cut[w] and 2 * size[w] >= total:
                break
        else:
            return v, visits
        if 2 * size[w] == total and low[w] != least:
            return v, visits
        v, visits = w, visits + 1


def find_balance_walk(t: SpanningTree) -> tuple[int, int]:
    """Find a balance vertex of a tree and the walk's visit count.

    No component of the tree less that vertex has over ceil(n/2) vertices.
    The walk reads ``t.parent`` and starts at its root, vertex 0.
    """
    kids, size, low = _rooted(t.parent.tolist(), t.n)
    return _balance_walk(kids, size, low, [False] * t.n, 0)


# =============================================================================
# Serialization
# =============================================================================

_TREE_TAG = "tree-of:"


def write_tree(t: SpanningTree, path: str | Path) -> None:
    """Write tree edges in edge-list format, tagged with the host graph digest."""
    write_edge_list(t, path, comments=[f"{_TREE_TAG} {graph_digest(t.graph)}"])


def read_tree(path: str | Path, g: Graph) -> SpanningTree:
    """Read a tree file and validate it against its host graph.

    The file is parsed once. A malformed file raises first; then the file's
    ``tree-of:`` tag, when present, must match the digest of g, and only then
    are the vertex count and the tree checked against g.
    """
    parsed, comments = _parse_edge_list(path)
    for comment in comments:
        if comment.startswith(_TREE_TAG):
            recorded = comment[len(_TREE_TAG) :].strip()
            actual = graph_digest(g)
            if recorded != actual:
                raise ValueError(
                    f"{path}: tree was saved for graph {recorded[:12]}..., "
                    f"but the supplied graph has digest {actual[:12]}..."
                )
    if parsed.n != g.n:
        raise ValueError(f"{path}: tree has {parsed.n} vertices, graph has {g.n}")
    return build_spanning_tree(g, parsed.edges)
