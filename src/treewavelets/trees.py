"""Spanning trees: sampling, balance vertices, and tree-level cuts.

The balance search and the component split it induces are the combinatorial
heart of the wavelet construction, so they live here with an O(subtree)
implementation: one DFS computes rooted subtree sizes, after which every
quantity the walk needs is a size lookup.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DisconnectedGraphError
from .graphs import (
    EPS_CUT,
    Graph,
    Signal,
    _canonical_graph,
    as_rng,
    connected_components,
    cut_size,
    graph_digest,
    read_edge_list,
    read_edge_list_comments,
    require_connected,
    signal_values,
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


@dataclass(frozen=True)
class SpanningTree(Graph):
    """A spanning tree of the host graph ``graph``, edges in canonical order.

    The tree is a :class:`Graph` on the host's vertices, so it shares every
    derived view (degrees, adjacency, CSR). Construct through
    :func:`build_spanning_tree` (validating) or one of the samplers; the
    dataclass itself does not re-check the tree property.
    """

    graph: Graph


def validate_spanning_tree(t: SpanningTree) -> None:
    """Raise ValueError unless t is a spanning tree of its host graph."""
    g = t.graph
    if t.n != g.n:
        raise ValueError(f"tree has {t.n} vertices, host graph has {g.n}")
    if t.m != g.n - 1:
        raise ValueError(f"spanning tree needs {g.n - 1} edges, got {t.m}")
    missing = np.flatnonzero(g.edge_ids(t.edge_array) < 0)
    if missing.size:
        raise ValueError(f"tree edge {t.edges[missing[0]]} is not an edge of the host graph")
    if len(connected_components(t)) != 1:
        raise ValueError("tree edges do not connect all vertices")


def build_spanning_tree(g: Graph, edges) -> SpanningTree:
    """Canonicalize an edge list and validate it as a spanning tree of g."""
    t = _canonical_graph(SpanningTree, g.n, edges, graph=g)
    validate_spanning_tree(t)
    return t


def _parents_to_tree(g: Graph, parent: np.ndarray) -> SpanningTree:
    child = np.flatnonzero(parent >= 0)
    pairs = np.column_stack((parent[child], child))
    return _canonical_graph(SpanningTree, g.n, pairs, graph=g)


# Uniforms drawn per numpy call by the walk; one call per step would cost
# more than the step itself.
_UNIFORM_BLOCK = 4096


def _wilson_parents(indptr: np.ndarray, indices: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Parent array of a uniform spanning tree rooted at vertex 0.

    Wilson's algorithm: from each vertex not yet in the tree, taken in index
    order, walk at random until the tree is hit, then graft the walk's
    loop-erasure onto the tree. ``nxt[u]`` holds the last exit from u, so
    later steps overwrite the loops away. The graph must be connected.
    """
    ptr = indptr.tolist()
    deg = np.diff(indptr).tolist()
    neighbor = indices.item
    gen = np.random.default_rng(seed)
    uniforms = gen.random(_UNIFORM_BLOCK).tolist()
    pos = 0
    in_tree = [False] * n
    in_tree[0] = True
    nxt = [-1] * n
    for start in range(1, n):
        u = start
        while not in_tree[u]:
            if pos == _UNIFORM_BLOCK:
                uniforms = gen.random(_UNIFORM_BLOCK).tolist()
                pos = 0
            v = neighbor(ptr[u] + int(uniforms[pos] * deg[u]))
            pos += 1
            nxt[u] = v
            u = v
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = nxt[u]
    return np.asarray(nxt, dtype=np.int64)


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
    parent = np.full(g.n, -1, dtype=np.int64)
    seen = np.zeros(g.n, dtype=bool)
    seen[root] = True
    queue = deque([root])
    adj = g.adjacency
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                queue.append(w)
    return _parents_to_tree(g, parent)


def tree_cut_size(t: SpanningTree, x: Signal | np.ndarray, eps: float = EPS_CUT) -> int:
    """Number of tree edges across which the signal changes level."""
    vals = signal_values(x)
    if vals.shape != (t.n,):
        raise ValueError(f"signal has shape {vals.shape}, expected ({t.n},)")
    return cut_size(t, vals, eps)


# =============================================================================
# Balance vertex
# =============================================================================


class _TreeScratch:
    """Reusable per-tree workspace for the balance DFS (stamped membership)."""

    __slots__ = ("mark", "parent", "size", "order", "pos_of", "stamp")

    def __init__(self, n: int):
        self.mark = np.zeros(n, dtype=np.int64)
        self.parent = np.empty(n, dtype=np.int64)
        self.size = np.empty(n, dtype=np.int64)
        self.order = np.empty(n, dtype=np.int64)
        self.pos_of = np.empty(n, dtype=np.int64)
        self.stamp = 0


def _balance_dfs(adj, verts: list[int], scratch: _TreeScratch) -> int:
    """Root the induced subtree at verts[0]; fill parent/size/order/pos_of.

    Returns the stamp marking membership. verts must be sorted ascending.
    """
    scratch.stamp += 1
    stamp = scratch.stamp
    mark, parent, size, order, pos_of = (
        scratch.mark,
        scratch.parent,
        scratch.size,
        scratch.order,
        scratch.pos_of,
    )
    for v in verts:
        mark[v] = stamp
    root = verts[0]
    parent[root] = -1
    stack = [root]
    pos = 0
    while stack:
        v = stack.pop()
        order[pos] = v
        pos_of[v] = pos
        pos += 1
        pv = parent[v]
        for w in adj[v]:
            if w != pv and mark[w] == stamp:
                parent[w] = v
                stack.append(w)
    if pos != len(verts):
        raise ValueError("vertices do not induce a connected subtree")
    for i in range(pos - 1, 0, -1):
        v = int(order[i])
        size[parent[v]] += size[v]
    return stamp


def _max_component(adj, v: int, total: int, scratch, stamp: int) -> tuple[int, int]:
    """Largest component size of subtree-minus-v and the neighbor inside it.

    Ties among neighbors are broken toward the smaller vertex index. The
    above-the-root part counts with the parent as its neighbor.
    """
    parent, size, mark = scratch.parent, scratch.size, scratch.mark
    pv = int(parent[v])
    best = total - int(size[v])  # 0 when v is the root
    nbr = pv if pv != -1 else -1
    for w in adj[v]:
        if mark[w] == stamp and parent[w] == v:
            sw = int(size[w])
            if sw > best or (sw == best and (nbr == -1 or w < nbr)):
                best = sw
                nbr = w
    return best, nbr


def _balance_walk(adj, verts: list[int], scratch: _TreeScratch) -> tuple[int, int]:
    """Run the balance walk on the induced subtree; return (vertex, visits).

    Starts at the smallest-index vertex and repeatedly steps to the neighbor
    inside the largest remaining component while that strictly shrinks the
    largest component; stops otherwise.
    """
    total = len(verts)
    if total == 1:
        return verts[0], 1
    scratch.size[verts] = 1
    stamp = _balance_dfs(adj, verts, scratch)
    cur = verts[0]
    visits = 1
    f_cur, nbr = _max_component(adj, cur, total, scratch, stamp)
    while True:
        f_nbr, nxt = _max_component(adj, nbr, total, scratch, stamp)
        if f_nbr >= f_cur:
            return cur, visits
        cur, f_cur, nbr = nbr, f_nbr, nxt
        visits += 1


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
    return _balance_walk(t.adjacency, verts, _TreeScratch(t.n))


def _balance_split(
    adj, verts: list[int], scratch: _TreeScratch
) -> tuple[int, list[list[int]]]:
    """Balance vertex plus the components of the subtree with it removed.

    verts must be sorted ascending and induce a connected subtree. Each
    component comes back sorted; the list is ordered by smallest contained
    vertex. Exposed for the wavelet builder, which re-splits subtrees many
    times over one shared scratch.
    """
    if len(verts) == 1:
        return verts[0], []
    v, _ = _balance_walk(adj, verts, scratch)
    stamp = scratch.stamp
    parent, size, order, pos_of, mark = (
        scratch.parent,
        scratch.size,
        scratch.order,
        scratch.pos_of,
        scratch.mark,
    )
    total = len(verts)
    comps: list[list[int]] = []
    pv = int(parent[v])
    for w in adj[v]:
        if mark[w] == stamp and parent[w] == v:
            lo = int(pos_of[w])
            comps.append(sorted(int(u) for u in order[lo : lo + int(size[w])]))
    if pv != -1:
        # every DFS block is contiguous, so the part above v is the subtree's
        # span with v's block cut out
        lo = int(pos_of[v])
        above = order[:lo].tolist() + order[lo + int(size[v]) : total].tolist()
        comps.append(sorted(int(u) for u in above))
    comps.sort(key=lambda c: c[0])
    return v, comps


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
