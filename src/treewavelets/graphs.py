"""Undirected graphs, signals over their vertices, and the stock generators.

Vertices are integers ``0..n-1``. Edges are stored canonically as the rows
``(u, v)`` of an (m, 2) array, ``u < v``, sorted lexicographically, so any two
graphs with the same edge set serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np
import numpy.random  # numpy 2 loads it lazily; load it with the package, not in the first draw

from .errors import DisconnectedGraphError

__all__ = [
    "EPS_CUT",
    "Graph",
    "Signal",
    "build_graph",
    "cut_size",
    "gen_complete",
    "gen_epsilon",
    "gen_knn",
    "gen_torus",
    "graph_digest",
    "read_edge_list",
    "read_points",
    "require_connected",
    "write_csv",
    "write_edge_list",
    "write_points",
]

# Differences at or below this magnitude count as "equal level" everywhere a
# cut or a support is counted.
EPS_CUT = 1e-9

# Average degree up to which ``Graph._csr_lists`` holds the neighbors as a
# Python list. Above it the list would be large (about 36 MB on K1024) and no
# faster to index than a memoryview of the int64 array, which costs nothing.
_LIST_MAX_MEAN_DEGREE = 32


def as_rng(rng: np.random.Generator | int) -> np.random.Generator:
    """Coerce a seed or generator into a numpy Generator.

    None raises: every draw is seeded, so there is no hidden entropy.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        raise ValueError("a seed or numpy Generator is required, got None")
    return np.random.default_rng(rng)


def _require_positive(
    name: str, value: float, *, zero_ok: bool = False, inf_ok: bool = False
) -> None:
    """Raise ValueError unless value is positive (or zero, with zero_ok) and finite.

    With inf_ok, +inf passes too. NaN never passes: it compares false with
    everything, so a plain ``value < 0`` test would let it through and turn
    it into an empty graph, a silent accept or a NaN row downstream.
    """
    value = float(value)
    if not ((value >= 0 if zero_ok else value > 0) and (inf_ok or math.isfinite(value))):
        bound = ">= 0" if zero_ok else "positive"
        raise ValueError(f"{name} must be {bound}{'' if inf_ok else ' and finite'}, got {value}")


# =============================================================================
# Core types
# =============================================================================


@dataclass(frozen=True, eq=False)
class Graph:
    """A finite simple undirected graph with canonical edge order.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : ndarray
        Read-only (m, 2) int64 array of canonical edges: each row ``(u, v)``
        has ``u < v`` and the rows are sorted lexicographically (an edgeless
        graph has shape (0, 2)). Use :func:`build_graph` to construct from
        raw input; it validates and canonicalizes.

    Graphs compare by value (same type, ``n`` and edges) and are unhashable.
    """

    n: int
    edges: np.ndarray

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __getstate__(self) -> dict:
        # Only the fields: the cached views are cheap to rebuild and would
        # triple what a worker pool ships per task.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        # Pickle protocols below 5 bring numpy arrays back writable.
        self.__dict__.update(state)
        self.edges.flags.writeable = False

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    @cached_property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor lists in CSR form ``(indptr, indices)``, each increasing.

        Vertex u's run is the sorted keys ``u*n + w`` of its neighbors w, taken
        ``% n``: one sort of the keys of both edge orientations. The keys are
        distinct, because the graph is simple, so any sort gives this order.
        """
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=indptr[1:])
        indices = np.concatenate((hi * self.n + lo, self._edge_keys))
        indices.sort()
        np.remainder(indices, self.n, out=indices)
        return indptr, indices

    @cached_property
    def _csr_lists(self) -> tuple[list[int], list[int], list[int] | memoryview]:
        """The CSR for Python loops: ``(ptr, deg, nbrs)``, run starts and
        degrees as lists, and ``indices`` as a list or, above an average
        degree of ``_LIST_MAX_MEAN_DEGREE``, a memoryview; both yield ints."""
        indptr, indices = self.csr
        dense = 2 * self.m > _LIST_MAX_MEAN_DEGREE * self.n
        nbrs = memoryview(indices) if dense else indices.tolist()
        return indptr.tolist(), self.degrees.tolist(), nbrs

    @cached_property
    def _bfs_trees(self) -> dict:
        """Breadth-first spanning trees by root, filled by ``trees.bfs_spanning_tree``.

        A kept tree refers back to the graph: one cycle per graph and root,
        never one per draw."""
        return {}

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        """``u*n + v`` per edge: increasing, because ``edges`` is canonical."""
        return self.edges[:, 0] * self.n + self.edges[:, 1]

    def edge_ids(self, pairs) -> np.ndarray:
        """Positions in ``edges`` of the given pairs, -1 where a pair is not an edge.

        Pairs may come in either orientation; pairs with an endpoint outside
        ``0..n-1`` are never edges.
        """
        p = _pair_array(pairs)
        lo, hi = np.minimum(p[:, 0], p[:, 1]), np.maximum(p[:, 0], p[:, 1])
        key = lo * self.n + hi
        pos = np.searchsorted(self._edge_keys, key)
        found = (lo >= 0) & (hi < self.n) & (pos < self.m)
        found[found] = self._edge_keys[pos[found]] == key[found]
        return np.where(found, pos, -1)

    @cached_property
    def component_sizes(self) -> tuple[int, ...]:
        """Sizes of the connected components, ordered by smallest vertex."""
        root = _component_roots(self)
        return tuple(np.bincount(root, minlength=self.n)[root == np.arange(self.n)].tolist())


@dataclass(frozen=True)
class Signal:
    """A real vector over a graph's vertices with its boundary size.

    ``cut`` is the boundary edge count as computed by the generator that
    produced the signal; it is not recomputed on access. Plain arrays are
    accepted anywhere a Signal is.
    """

    values: np.ndarray
    cut: int | None = None


def signal_values(x: Signal | np.ndarray) -> np.ndarray:
    """Return the value vector of a Signal, or of an array, as float64."""
    return np.asarray(x.values if isinstance(x, Signal) else x, dtype=np.float64)


def _finite_values(x: Signal | np.ndarray, n: int) -> np.ndarray:
    """Value vector of x, after checking it has shape (n,) and is all finite.

    A NaN compares false with every threshold, so an unchecked one would
    silently read as "no change" wherever a level change is counted.
    """
    vals = signal_values(x)
    if vals.shape != (n,):
        raise ValueError(f"signal has shape {vals.shape}, expected ({n},)")
    if not np.isfinite(vals).all():
        raise ValueError("signal holds non-finite values")
    return vals


# =============================================================================
# Construction and basic operations
# =============================================================================


def _pair_array(pairs) -> np.ndarray:
    """Vertex pairs from any iterable or array as a (k, 2) int64 array."""
    p = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
    if p.shape == (0,):
        p = p.reshape(0, 2)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got an array of shape {p.shape}")
    return p


def _canonical_edges(n: int, pairs) -> np.ndarray:
    """Validated pairs as a read-only (m, 2) int64 array, ``u < v`` per row, sorted.

    Names the first pair, in input order, that is out of range, a self-loop,
    or a duplicate (in either orientation).
    """
    p = _pair_array(pairs)
    edges, order = _sorted_pairs(n, p[:, 0], p[:, 1])
    lo, hi = edges[:, 0], edges[:, 1]
    # In range, the key orders pairs lexicographically. Out of range it may
    # collide with a real pair's key, but the stable sort then flags the
    # earlier out-of-range pair first.
    key = lo * n + hi
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    bad[1:] |= key[1:] == key[:-1]
    if bad.any():
        u, v = p[order[bad].min()].tolist()
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
    return edges


def _sorted_pairs(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs as a read-only (m, 2) array, ``min, max`` per row, in canonical order.

    Sorts stably by ``min * n + max`` and also returns the sort order. Checks
    nothing: :func:`_canonical_edges` validates around it, and a
    ``SpanningTree`` builds its edges from its parent array with it alone.
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.argsort(lo * n + hi, kind="stable")
    edges = np.column_stack((lo[order], hi[order]))
    edges.flags.writeable = False
    return edges, order


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an edge list into a :class:`Graph`.

    Parameters
    ----------
    n : int
        Vertex count; must be >= 1.
    edges : iterable of (int, int), or an (m, 2) array
        Undirected edges in any order/orientation. Self-loops and duplicate
        edges (in either orientation) are rejected.

    Returns
    -------
    Graph
    """
    _require_vertex_count(n)
    return Graph(n=n, edges=_canonical_edges(n, edges))


def cut_size(g: Graph, x: Signal | np.ndarray) -> int:
    """Number of edges across which the signal changes level by more than ``EPS_CUT``.

    Raises ValueError when x holds a NaN or an infinity.
    """
    vals = _finite_values(x, g.n)
    return int(np.count_nonzero(np.abs(vals[g.edges[:, 0]] - vals[g.edges[:, 1]]) > EPS_CUT))


def _component_roots(g: Graph) -> np.ndarray:
    """Per vertex, the smallest vertex of its component, by hook-and-compress.

    ``root`` is a forest in which every pointer goes to a smaller vertex, so
    it has no cycles; it starts as one tree per vertex. Each round hooks every
    tree root under the smallest root next to its tree, when that is smaller,
    then compresses every path to its root. A tree that does not hook has only
    larger roots next to it, and those trees all hook; if none lands in it, it
    hooks in the next round. So the number of trees that still have a
    neighbor at least halves every two rounds. The rounds stop when no tree
    hooks; then every edge joins two vertices of one root, which is the
    smallest vertex of their component. Each round is a few numpy passes over
    the CSR, as in Shiloach and Vishkin's O(log n)-round connectivity
    (J. Algorithms 3, 1982). Only ``Graph.csr`` is read, so checking a graph
    builds no ``Graph._csr_lists``: only a tree draw or a breadth-first tree does.
    """
    indptr, indices = g.csr
    root = np.arange(g.n)
    has = np.flatnonzero(g.degrees)
    starts = indptr[has]
    while True:
        least = np.minimum.reduceat(root[indices], starts)
        r = root[has]
        hook = least < r
        if not hook.any():
            return root
        np.minimum.at(root, r[hook], least[hook])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def _bfs(ptr: list[int], nbrs, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first search from root over a CSR, neighbors in run order.

    ``ptr`` and ``nbrs`` are a CSR's run starts and neighbors as in
    ``Graph._csr_lists``: ``nbrs`` is a list or an int64 memoryview, and a
    slice of either yields ints. Returns ``(parent, order)``: per vertex the
    vertex that discovered it, -1 at the root and where it is unreachable,
    and the reached vertices in the order they were found.
    """
    parent = [-1] * (len(ptr) - 1)
    parent[root] = root  # marks the root as reached until the search ends
    order = [root]
    for v in order:
        for w in nbrs[ptr[v] : ptr[v + 1]]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    parent[root] = -1
    return parent, order


def require_connected(g: Graph) -> None:
    """Raise :class:`DisconnectedGraphError` unless g has one component.

    The component sizes are cached on the graph, so repeated checks are free.
    """
    sizes = g.component_sizes
    if len(sizes) > 1:
        raise DisconnectedGraphError(list(sizes))


# =============================================================================
# Generators
# =============================================================================

# Each generator's range checks, which an experiment cell also makes when it
# is read, before any graph of the run is built.


# Up to this vertex count every pair key u * n + v (u, v < n) fits int64.
_MAX_VERTICES = math.isqrt(2**63)


def _require_vertex_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if n > _MAX_VERTICES:
        raise ValueError(f"vertex count must be <= {_MAX_VERTICES} so that pair keys "
                         f"u*n + v fit int64, got {n}")


def _require_torus_args(side: int, dims: int) -> None:
    if side < 3:
        raise ValueError(f"torus side must be >= 3, got {side}")
    if dims < 1:
        raise ValueError(f"torus dims must be >= 1, got {dims}")
    # 3**64 is over the bound, and capping side keeps the power small.
    if dims > 63 or min(int(side), _MAX_VERTICES + 1) ** int(dims) > _MAX_VERTICES:
        raise ValueError(f"torus side**dims must be <= {_MAX_VERTICES}, got {side}**{dims}")


def _require_point_args(n: int, dim: int) -> None:
    _require_vertex_count(n)
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")


def _require_knn_args(n: int, k: int, dim: int) -> None:
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    _require_point_args(n, dim)


def _require_epsilon_args(n: int, eps: float, dim: int) -> None:
    _require_positive("eps", eps)
    _require_point_args(n, dim)


def gen_torus(side: int, dims: int = 2) -> Graph:
    """Torus grid: ``side**dims`` vertices, wrap-around in every dimension.

    Each vertex has degree ``2*dims``; ``side >= 3`` keeps the +1 and -1
    neighbors distinct so the graph stays simple.
    """
    _require_torus_args(side, dims)
    n = side**dims
    v, up = np.arange(n), []
    for stride in (side**d for d in range(dims)):
        coord = (v // stride) % side
        up.append(v + stride * ((coord + 1) % side - coord))
    return build_graph(n, np.column_stack((np.tile(v, dims), np.concatenate(up))))


def gen_complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    _require_vertex_count(n)
    return build_graph(n, np.column_stack(np.triu_indices(n, k=1)))


def _uniform_points(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform points in the unit cube of dimension dim, as checked by the caller."""
    return rng.random((n, dim))


# Rows of squared distances computed at once: each (_BLOCK, n) float64
# buffer takes 2 MB at n = 2000; larger blocks were no faster there.
_BLOCK = 128

# A square at most this far above a cut-off's square, relatively, may still
# have a root at or below the cut-off: two normal squares with one root differ
# by a few ulps (about 1e-16), far below this margin.
_ROOT_MARGIN = 1e-12


def _square_blocks(points: np.ndarray):
    """Yield ``(start, sq)``: squared distances from ``points[start:start + _BLOCK]``
    to every point, as a (rows, n) array.

    The squares are added one coordinate at a time, from coordinate 0, into
    two buffers made once per call: each block is valid only until the next
    one is drawn, and the caller may write into it. The generators compare
    roots, because two different squares can round to one root, but take
    them only near their cut-off (:func:`_candidate_bound`).
    """
    n, dim = points.shape
    coords = np.ascontiguousarray(points.T)
    buf = np.empty((min(_BLOCK, n), n))
    diff = np.empty_like(buf)
    for start in range(0, n, _BLOCK):
        rows = coords[:, start : start + _BLOCK]
        sq, d = buf[: rows.shape[1]], diff[: rows.shape[1]]
        np.subtract.outer(rows[0], coords[0], out=sq)
        sq *= sq
        for coord in range(1, dim):
            np.subtract.outer(rows[coord], coords[coord], out=d)
            d *= d
            sq += d
        yield start, sq


def _candidate_bound(sq_cut):
    """A bound at or above every square whose root may be at or below ``sqrt(sq_cut)``.

    ``sq_cut`` grows by ``_ROOT_MARGIN``, and is at least the smallest normal
    double: a cut-off's square that underflowed has lost the precision the
    margin relies on.
    """
    return np.maximum(sq_cut * (1 + _ROOT_MARGIN), np.finfo(np.float64).tiny)


def gen_knn(
    n: int,
    k: int,
    dim: int = 2,
    rng: np.random.Generator | int | None = None,
) -> tuple[Graph, np.ndarray]:
    """Symmetric k-nearest-neighbor graph on uniform points in the unit cube.

    Each vertex is joined to its k nearest others by Euclidean distance: every
    vertex closer than its k-th nearest distance ``d_k``, then the vertices at
    exactly ``d_k`` in increasing index order until there are k. The union over
    directions is kept, so every degree is at least k.

    Squared distances go, 128 rows at a time, into buffers made once per
    call, so memory is O(128 * n), not O(n**2). A partition of each row's
    squares finds its k-th smallest square, whose root is ``d_k``; roots are
    then taken only for the candidates, the squares at most a relative 1e-12
    above it.

    Returns
    -------
    (Graph, ndarray)
        The graph and the (n, dim) point coordinates that produced it.
    """
    _require_knn_args(n, k, dim)
    points = _uniform_points(n, dim, as_rng(rng))
    part = np.empty((min(_BLOCK, n), n))
    keys = []
    for start, sq in _square_blocks(points):
        np.fill_diagonal(sq[:, start:], np.inf)
        kth = part[: len(sq)]
        np.copyto(kth, sq)
        kth.partition(k - 1, axis=1)
        sq_k = kth[:, k - 1]
        # Candidates in row-major order: by row, then by column.
        flat = np.flatnonzero(sq <= _candidate_bound(sq_k)[:, None])
        row, col = np.divmod(flat, n)
        root, d_k = np.sqrt(sq.ravel()[flat]), np.sqrt(sq_k)[row]
        chosen = root < d_k
        free = k - np.bincount(row[chosen], minlength=len(sq))
        # Each row keeps its first ``free`` ties at d_k, in column order.
        tie = np.flatnonzero(root == d_k)
        tie_row = row[tie]
        rank = np.arange(len(tie)) - np.searchsorted(tie_row, tie_row)
        chosen[tie[rank < free[tie_row]]] = True
        row, col = row[chosen] + start, col[chosen]
        keys.append(np.minimum(row, col) * n + np.maximum(row, col))
    # A pair chosen from both ends has one key; keep it once. np.unique would
    # too, but its first call imports numpy.ma, which costs about 20 ms.
    keys = np.concatenate(keys)
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return build_graph(n, np.column_stack((keys // n, keys % n))), points


def gen_epsilon(
    n: int,
    eps: float,
    dim: int = 2,
    rng: np.random.Generator | int | None = None,
) -> tuple[Graph, np.ndarray]:
    """Geometric graph on uniform points: join pairs at distance <= eps.

    Squared distances go, 128 rows at a time, into buffers made once per
    call, so memory is O(128 * n), not O(n**2). Roots are taken only for the
    candidates, the squares at most a relative 1e-12 above ``eps**2`` or at
    most the smallest normal double, and a pair joins when its root is
    <= eps. An ``eps**2`` that overflows makes every pair a candidate, and
    one that underflows still leaves every pair at distance <= eps one.

    Returns
    -------
    (Graph, ndarray)
        The graph and the (n, dim) point coordinates that produced it.
    """
    _require_epsilon_args(n, eps, dim)
    points = _uniform_points(n, dim, as_rng(rng))
    # Python floats: their product overflows to inf and underflows to 0 silently.
    bound = _candidate_bound(float(eps) * float(eps))
    pairs = []
    for start, sq in _square_blocks(points):
        flat = np.flatnonzero(sq <= bound)
        keep = np.sqrt(sq.ravel()[flat]) <= eps
        row, col = np.divmod(flat, n)
        row += start
        keep &= col > row
        pairs.append(np.column_stack((row[keep], col[keep])))
    return build_graph(n, np.concatenate(pairs)), points


# =============================================================================
# Serialization
# =============================================================================


def _edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    return "\n".join(lines) + "\n"


def graph_digest(g: Graph) -> str:
    """Hex digest of the canonical edge-list serialization."""
    return hashlib.sha256(_edge_list_text(g).encode("ascii")).hexdigest()


def write_edge_list(g: Graph, path: str | Path, comments: list[str] | None = None) -> None:
    """Write the canonical edge-list format: header ``n m``, one edge per line."""
    out = "".join(f"# {c}\n" for c in comments or [])
    Path(path).write_text(out + _edge_list_text(g))


def read_edge_list(path: str | Path) -> Graph:
    """Parse the edge-list format written by :func:`write_edge_list`.

    Blank lines and ``#`` comments are ignored; the first data line must be
    ``n m`` and exactly m edge lines must follow.
    """
    return _parse_edge_list(path)[0]


def _parse_edge_list(path: str | Path) -> tuple[Graph, list[str]]:
    """The graph of an edge-list file and the stripped text of its ``#`` comments."""
    data: list[tuple[int, ...]] = []
    comments: list[str] = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            comments.append(stripped[1:].strip())
            continue
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected two integers, got {stripped!r}")
        try:
            data.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"{path}:{ln}: expected two integers, got {stripped!r}") from None
    if not data:
        raise ValueError(f"{path}: missing 'n m' header line")
    n, m = data[0]
    if m != len(data) - 1:
        raise ValueError(f"{path}: header claims {m} edges, found {len(data) - 1}")
    return build_graph(n, data[1:]), comments


def _fmt(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: str | Path, columns: list[str], rows) -> None:
    """Write a CSV with a fixed column order.

    Each row is a sequence of values: a bool is written 0/1, a float by
    ``repr`` (so it reads back exactly), anything else by ``str``. Numpy
    scalars are written as their Python values.
    """
    lines = [",".join(columns)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_points(points: np.ndarray, path: str | Path) -> None:
    """Write point coordinates as CSV: header ``vertex,x0,...``, repr floats."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-d, got shape {points.shape}")
    columns = ["vertex", *(f"x{d}" for d in range(points.shape[1]))]
    write_csv(path, columns, ([i, *row] for i, row in enumerate(points.tolist())))


def read_points(path: str | Path) -> np.ndarray:
    """Read coordinates written by :func:`write_points`."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("vertex,"):
        raise ValueError(f"{path}: missing 'vertex,x0,...' header")
    dim = len(lines[0].split(",")) - 1
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise ValueError(f"{path}:{ln}: expected {dim + 1} fields")
        if int(parts[0]) != len(rows):
            raise ValueError(f"{path}:{ln}: vertex ids must be 0..n-1 in order")
        rows.append([float(c) for c in parts[1:]])
    return np.asarray(rows, dtype=np.float64)
