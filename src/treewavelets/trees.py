"""Spanning trees: sampling, balance vertices, and tree-level cuts.

The balance walk is the combinatorial heart of the wavelet construction, so
it lives here, shared by :func:`find_balance_walk` and the basis builder. It
reads the tree's CSR as Python lists: one DFS roots a part and computes its
subtree sizes, after which every quantity the walk needs is a size lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DisconnectedGraphError
from .graphs import (
    EPS_CUT,
    Graph,
    Signal,
    _bfs,
    _canonical_edges,
    as_rng,
    connected_components,
    cut_size,
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
    "find_balance",
    "find_balance_walk",
    "read_tree",
    "sample_ust",
    "tree_cut_size",
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
    equal when their edges and their host graphs are.
    """

    graph: Graph

    def __eq__(self, other):
        same = Graph.__eq__(self, other)
        if same is not True or self is other:
            return same
        return self.graph == other.graph


def validate_spanning_tree(t: SpanningTree) -> None:
    """Raise ValueError unless t is a spanning tree of its host graph."""
    g = t.graph
    if t.n != g.n:
        raise ValueError(f"tree has {t.n} vertices, host graph has {g.n}")
    if t.m != g.n - 1:
        raise ValueError(f"spanning tree needs {g.n - 1} edges, got {t.m}")
    missing = np.flatnonzero(g.edge_ids(t.edges) < 0)
    if missing.size:
        u, v = t.edges[missing[0]].tolist()
        raise ValueError(f"tree edge {(u, v)} is not an edge of the host graph")
    if len(connected_components(t)) != 1:
        raise ValueError("tree edges do not connect all vertices")


def build_spanning_tree(g: Graph, edges) -> SpanningTree:
    """Canonicalize an edge list and validate it as a spanning tree of g."""
    t = SpanningTree(n=g.n, edges=_canonical_edges(g.n, edges), graph=g)
    validate_spanning_tree(t)
    return t


def _parents_to_tree(g: Graph, parents: list[int]) -> SpanningTree:
    parent = np.asarray(parents, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    pairs = np.column_stack((parent[child], child))
    return SpanningTree(n=g.n, edges=_canonical_edges(g.n, pairs), graph=g)


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


def sample_ust(g: Graph, rng: np.random.Generator | int | None = None) -> SpanningTree:
    """Draw a uniform spanning tree by Wilson's loop-erased random walk.

    The tree is rooted at vertex 0; walks start from the remaining vertices
    in index order, and each walk's loop-erased path to the tree joins it
    (Wilson, STOC 1996). Connectedness is required.

    Parameters
    ----------
    g : Graph
    rng : Generator, int, or None
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
    parent, _ = _bfs(g, root)
    return _parents_to_tree(g, parent)


def tree_cut_size(t: SpanningTree, x: Signal | np.ndarray, eps: float = EPS_CUT) -> int:
    """Number of tree edges across which the signal changes level."""
    return cut_size(t, x, eps)


# =============================================================================
# Balance vertex
# =============================================================================


def _root_part(ptr, nbrs, label, key, root, parent, size) -> list[int]:
    """Root the part ``label[v] == key`` at root; fill parent and size, return the preorder.

    ``ptr`` and ``nbrs`` are the tree's CSR as lists. In the preorder each
    vertex is followed by its child subtrees, back to back.
    """
    parent[root] = -1
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        size[v] = 1
        pv = parent[v]
        for w in nbrs[ptr[v] : ptr[v + 1]]:
            if w != pv and label[w] == key:
                parent[w] = v
                stack.append(w)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return order


def _balance_walk(ptr, nbrs, label, key, parent, size, root) -> tuple[int, int]:
    """Balance walk over a part rooted by :func:`_root_part`; return (vertex, visits).

    Starts at the root and steps to the neighbor inside the largest
    component of the part with the current vertex removed, while that
    strictly shrinks the largest component; stops otherwise. Ties go to the
    smaller neighbor, and the part above a vertex counts with its parent.
    """
    total = size[root]

    def largest(v: int) -> tuple[int, int]:
        pv = parent[v]
        best, nbr = total - size[v], pv
        for w in nbrs[ptr[v] : ptr[v + 1]]:
            if w != pv and label[w] == key:
                sw = size[w]
                if sw > best or (sw == best and (nbr == -1 or w < nbr)):
                    best, nbr = sw, w
        return best, nbr

    cur, visits = root, 1
    f_cur, nbr = largest(root)
    while nbr != -1:
        f_nbr, nxt = largest(nbr)
        if f_nbr >= f_cur:
            break
        cur, f_cur, nbr = nbr, f_nbr, nxt
        visits += 1
    return cur, visits


def _prepare_verts(t: SpanningTree, vertices) -> list[int]:
    if vertices is None:
        return list(range(t.n))
    verts = sorted({int(v) for v in vertices})
    if not verts:
        raise ValueError("vertex subset is empty")
    if verts[0] < 0 or verts[-1] >= t.n:
        raise ValueError(f"vertex subset out of range for n={t.n}")
    return verts


def find_balance(t: SpanningTree, vertices=None) -> int:
    """Find a balance vertex of a tree (or of a connected subtree of it).

    The returned vertex v has the property that every component of the
    subtree with v removed has at most ceil(size/2) vertices.

    Parameters
    ----------
    t : SpanningTree
    vertices : iterable of int, optional
        Subset inducing a connected subtree; the whole tree by default.
    """
    return find_balance_walk(t, vertices)[0]


def find_balance_walk(t: SpanningTree, vertices=None) -> tuple[int, int]:
    """Like :func:`find_balance` but also reports the walk's visit count."""
    verts = _prepare_verts(t, vertices)
    label = [0] * t.n
    for v in verts:
        label[v] = 1
    ptr, nbrs = (a.tolist() for a in t.csr)
    parent, size = [-1] * t.n, [1] * t.n
    if len(_root_part(ptr, nbrs, label, 1, verts[0], parent, size)) != len(verts):
        raise ValueError("vertices do not induce a connected subtree")
    return _balance_walk(ptr, nbrs, label, 1, parent, size, verts[0])


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
