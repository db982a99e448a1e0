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
    as_rng,
    graph_digest,
    read_edge_list,
    read_edge_list_comments,
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


@dataclass(frozen=True, eq=False)
class SpanningTree(Graph):
    """A spanning tree of the host graph ``graph``, edges in canonical order.

    The tree is a :class:`Graph` on the host's vertices, so it shares every
    derived view (degrees, CSR, edge ids). Construct through
    :func:`build_spanning_tree` (validating) or one of the samplers; the
    dataclass itself does not re-check the tree property. Two trees are
    equal when their edges and their host graphs are. ``parent`` holds each
    vertex's parent in the tree rooted at vertex 0 (read-only int64, -1 at
    the root). Samplers rooted at 0 store it; other trees derive it on first
    use, raising ValueError unless the edges form a spanning tree.
    """

    graph: Graph

    def __eq__(self, other):
        same = Graph.__eq__(self, other)
        if same is not True or self is other:
            return same
        return self.graph == other.graph

    @cached_property
    def parent(self) -> np.ndarray:
        # n-1 edges span exactly when a search from vertex 0 reaches every vertex.
        if self.m != self.n - 1:
            raise ValueError(f"spanning tree needs {self.n - 1} edges, got {self.m}")
        parent, _, order = _bfs(*(a.tolist() for a in self.csr), 0)
        if len(order) != self.n:
            raise ValueError("tree edges do not connect all vertices")
        parent = np.array(parent, dtype=np.int64)
        parent.flags.writeable = False
        return parent


def validate_spanning_tree(t: SpanningTree) -> None:
    """Raise ValueError unless t is a spanning tree of its host graph.

    Rooting the tree (``t.parent``) checks the edge count and connectivity.
    """
    g = t.graph
    if t.n != g.n:
        raise ValueError(f"tree has {t.n} vertices, host graph has {g.n}")
    missing = np.flatnonzero(g.edge_ids(t.edges) < 0)
    if missing.size:
        u, v = t.edges[missing[0]].tolist()
        raise ValueError(f"tree edge {(u, v)} is not an edge of the host graph")
    t.parent


def build_spanning_tree(g: Graph, edges) -> SpanningTree:
    """Canonicalize an edge list and validate it as a spanning tree of g."""
    t = SpanningTree(n=g.n, edges=_canonical_edges(g.n, edges), graph=g)
    validate_spanning_tree(t)
    return t


def _parents_to_tree(g: Graph, parents: list[int]) -> SpanningTree:
    """The tree of a parent list, kept as ``parent`` when rooted at vertex 0."""
    parent = np.array(parents, dtype=np.int64)
    parent.flags.writeable = False
    child = np.flatnonzero(parent >= 0)
    pairs = np.column_stack((parent[child], child))
    t = SpanningTree(n=g.n, edges=_canonical_edges(g.n, pairs), graph=g)
    if parent[0] < 0:
        t.__dict__["parent"] = parent
    return t


# Uniforms drawn per numpy call by the walk; one call per step would cost
# more than the step itself. The first call draws only min(4n, block): on
# small graphs a full block costs more than the whole walk. Successive
# ``random(k)`` calls continue one stream, so the split leaves the walk as it is.
_UNIFORM_BLOCK = 4096


def _wilson_parents(indptr: np.ndarray, indices: np.ndarray, n: int, seed: int) -> list[int]:
    """Parent list of a uniform spanning tree rooted at vertex 0 (-1 at the root).

    Wilson's algorithm: from each vertex not yet in the tree, taken in index
    order, walk at random until the tree is hit, then graft the walk's
    loop-erasure onto the tree. ``nxt[u]`` holds the last exit from u, so
    later steps overwrite the loops away. The graph must be connected.
    """
    ptr = indptr.tolist()
    deg = np.diff(indptr).tolist()
    neighbor = indices.item
    gen = np.random.default_rng(seed)
    uniforms = gen.random(min(_UNIFORM_BLOCK, 4 * n)).tolist()
    pos, end = 0, len(uniforms)
    in_tree = [False] * n
    in_tree[0] = True
    nxt = [-1] * n
    for start in range(1, n):
        u = start
        while not in_tree[u]:
            if pos == end:
                uniforms = gen.random(_UNIFORM_BLOCK).tolist()
                pos, end = 0, _UNIFORM_BLOCK
            v = neighbor(ptr[u] + int(uniforms[pos] * deg[u]))
            pos += 1
            nxt[u] = v
            u = v
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = nxt[u]
    return nxt


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
    indptr, indices = g.csr
    parent = _wilson_parents(indptr, indices, g.n, seed)
    return _parents_to_tree(g, parent)


def bfs_spanning_tree(g: Graph, root: int = 0) -> SpanningTree:
    """Deterministic breadth-first spanning tree, neighbors in index order."""
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")
    require_connected(g)
    ptr, nbrs = (a.tolist() for a in g.csr)
    return _parents_to_tree(g, _bfs(ptr, nbrs, root)[0])


# =============================================================================
# Balance vertex
# =============================================================================


def _rooted(parent: list[int]) -> tuple[list[list[int]], list[int], list[int]]:
    """Children lists, size and low of the tree that ``parent`` roots at vertex 0.

    Each vertex lists its children in increasing order. ``size[v]`` and
    ``low[v]`` are the vertex count and the smallest vertex of v's subtree.
    """
    n = len(parent)
    kids = [[] for _ in range(n)]
    for v in range(1, n):
        kids[parent[v]].append(v)
    order = [0]
    for v in order:
        order.extend(kids[v])
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
    kids, size, low = _rooted(t.parent.tolist())
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

    The file's ``tree-of:`` tag, when present, must match the digest of g.
    """
    for comment in read_edge_list_comments(path):
        if comment.startswith(_TREE_TAG):
            recorded = comment[len(_TREE_TAG) :].strip()
            actual = graph_digest(g)
            if recorded != actual:
                raise ValueError(
                    f"{path}: tree was saved for graph {recorded[:12]}..., "
                    f"but the supplied graph has digest {actual[:12]}..."
                )
    parsed = read_edge_list(path)
    if parsed.n != g.n:
        raise ValueError(f"{path}: tree has {parsed.n} vertices, graph has {g.n}")
    return build_spanning_tree(g, parsed.edges)
