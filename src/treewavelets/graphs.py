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
    "connected_components",
    "cut_size",
    "gen_complete",
    "gen_epsilon",
    "gen_knn",
    "gen_torus",
    "graph_digest",
    "incidence_apply",
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

        Each vertex lists its lower neighbors, then its upper ones. Canonical
        edge order already groups the upper neighbors by vertex; a stable sort
        on the second column groups the lower ones.
        """
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        n_lower = np.bincount(hi, minlength=self.n)
        n_upper = np.bincount(lo, minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=indptr[1:])
        # A vertex's run starts after the runs of all smaller vertices. In
        # by_hi order a lower entry's rank already counts the smaller
        # vertices' lower entries, so their upper entries are added; in edge
        # order an upper entry's rank counts their upper entries, so the lower
        # entries of the vertex and of all smaller ones are added.
        rank = np.arange(self.m)
        by_hi = np.argsort(hi, kind="stable")
        indices = np.empty(2 * self.m, dtype=np.int64)
        indices[rank + (np.cumsum(n_upper) - n_upper)[hi[by_hi]]] = lo[by_hi]
        indices[rank + np.cumsum(n_lower)[lo]] = hi
        return indptr, indices

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
        return tuple(len(c) for c in connected_components(self))


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
    lo, hi = np.minimum(p[:, 0], p[:, 1]), np.maximum(p[:, 0], p[:, 1])
    # In range, the key orders pairs lexicographically. Out of range it may
    # collide with a real pair's key, but the stable sort then flags the
    # earlier out-of-range pair first.
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    lo, hi, key = lo[order], hi[order], key[order]
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    bad[1:] |= key[1:] == key[:-1]
    if bad.any():
        u, v = p[order[bad].min()].tolist()
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
    edges = np.column_stack((lo, hi))
    edges.flags.writeable = False
    return edges


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
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return Graph(n=n, edges=_canonical_edges(n, edges))


def incidence_apply(g: Graph, x: Signal | np.ndarray) -> np.ndarray:
    """Apply the edge-incidence operator: one difference per canonical edge.

    The entry for edge ``(u, v)`` with ``u < v`` is ``x[u] - x[v]``. Raises
    ValueError when x holds a NaN or an infinity.
    """
    vals = _finite_values(x, g.n)
    return vals[g.edges[:, 0]] - vals[g.edges[:, 1]]


def cut_size(g: Graph, x: Signal | np.ndarray) -> int:
    """Number of edges across which the signal changes level by more than ``EPS_CUT``."""
    return int(np.count_nonzero(np.abs(incidence_apply(g, x)) > EPS_CUT))


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components.

    Components are ordered by their smallest vertex, vertices increasing
    within each. The search reads one vertex's CSR run at a time, so no
    temporary outgrows a degree even on dense graphs. :func:`_bfs` would
    need the whole CSR as Python lists, two ints per edge: about 1M ints,
    tens of MB, on the complete graph K1024 that ``paper-fig2`` checks.
    """
    indptr, indices = g.csr
    ptr = indptr.tolist()
    label = np.full(g.n, -1, dtype=np.int64)
    count = 0
    for start in range(g.n):
        if label[start] >= 0:
            continue
        label[start] = count
        stack = [start]
        while stack:
            v = stack.pop()
            nbrs = indices[ptr[v] : ptr[v + 1]]
            new = nbrs[label[nbrs] < 0]
            label[new] = count
            stack.extend(new.tolist())
        count += 1
    order = np.argsort(label, kind="stable")
    bounds = np.cumsum(np.bincount(label, minlength=count))[:-1]
    return [c.tolist() for c in np.split(order, bounds)]


def _bfs(ptr: list[int], nbrs: list[int], root: int) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from root over CSR lists, neighbors in list order.

    ``ptr`` and ``nbrs`` are a graph's CSR as Python lists, which suits
    sparse graphs and trees; a dense graph is better served by
    :func:`connected_components`. Returns ``(parent, dist, order)``: per
    vertex the vertex that discovered it and its hop count from root, both
    -1 where it is unreachable (parent also at the root), and the reached
    vertices in the order they were found.
    """
    n = len(ptr) - 1
    parent, dist = [-1] * n, [-1] * n
    dist[root] = 0
    order = [root]
    for v in order:
        d = dist[v] + 1
        for w in nbrs[ptr[v] : ptr[v + 1]]:
            if dist[w] < 0:
                dist[w] = d
                parent[w] = v
                order.append(w)
    return parent, dist, order


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


def gen_torus(side: int, dims: int = 2) -> Graph:
    """Torus grid: ``side**dims`` vertices, wrap-around in every dimension.

    Each vertex has degree ``2*dims``; ``side >= 3`` keeps the +1 and -1
    neighbors distinct so the graph stays simple.
    """
    if side < 3:
        raise ValueError(f"torus side must be >= 3, got {side}")
    if dims < 1:
        raise ValueError(f"torus dims must be >= 1, got {dims}")
    n = side**dims
    v, up = np.arange(n), []
    for stride in (side**d for d in range(dims)):
        coord = (v // stride) % side
        up.append(v + stride * ((coord + 1) % side - coord))
    return build_graph(n, np.column_stack((np.tile(v, dims), np.concatenate(up))))


def gen_complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return build_graph(n, np.column_stack(np.triu_indices(n, k=1)))


def _uniform_points(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return rng.random((n, dim))


# Rows of distances computed at once: a (_BLOCK, n) float64 block and its few
# same-sized temporaries take about 2 MB each at n = 2000; larger blocks were
# no faster there.
_BLOCK = 128


def _block_distances(points: np.ndarray, start: int) -> np.ndarray:
    """Euclidean distances from ``points[start:start + _BLOCK]`` to every point.

    The squares are summed one coordinate at a time, which for dim <= 7 adds
    in the same order as ``(diff**2).sum(axis=2)`` and so gives the same bits;
    from dim 8 on, numpy's pairwise reduction adds in another order and may
    differ in the last place. The roots are taken because the generators
    compare distances, and two different squared sums can round to one root.
    """
    rows = points[start : start + _BLOCK]
    dist = np.zeros((len(rows), len(points)))
    for coord in range(points.shape[1]):
        diff = np.subtract.outer(rows[:, coord], points[:, coord])
        diff *= diff
        dist += diff
    return np.sqrt(dist, out=dist)


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
    directions is kept, so every degree is at least k. Distances are computed
    for a block of 128 rows at a time, so memory is O(block * n), not O(n**2).

    Returns
    -------
    (Graph, ndarray)
        The graph and the (n, dim) point coordinates that produced it.
    """
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    points = _uniform_points(n, dim, as_rng(rng))
    keys = []
    for start in range(0, n, _BLOCK):
        dist = _block_distances(points, start)
        np.fill_diagonal(dist[:, start:], np.inf)
        # A copied column, so the partitioned block is freed at once.
        d_k = np.take(np.partition(dist, k - 1, axis=1), [k - 1], axis=1)
        chosen = dist < d_k
        tied = dist == d_k
        free = k - np.count_nonzero(chosen, axis=1)
        # Rows with more ties at d_k than free places keep the first ones.
        over = np.flatnonzero(np.count_nonzero(tied, axis=1) > free)
        if len(over):
            tied[over] &= np.cumsum(tied[over], axis=1) <= free[over, None]
        chosen |= tied
        row, col = np.nonzero(chosen)
        row += start
        keys.append(np.minimum(row, col) * n + np.maximum(row, col))
    keys = np.unique(np.concatenate(keys))
    return build_graph(n, np.column_stack((keys // n, keys % n))), points


def gen_epsilon(
    n: int,
    eps: float,
    dim: int = 2,
    rng: np.random.Generator | int | None = None,
) -> tuple[Graph, np.ndarray]:
    """Geometric graph on uniform points: join pairs at distance <= eps.

    Distances are computed for a block of 128 rows at a time, so memory is
    O(block * n), not O(n**2).

    Returns
    -------
    (Graph, ndarray)
        The graph and the (n, dim) point coordinates that produced it.
    """
    _require_positive("eps", eps)
    points = _uniform_points(n, dim, as_rng(rng))
    pairs = []
    for start in range(0, n, _BLOCK):
        row, col = np.nonzero(_block_distances(points, start) <= eps)
        row += start
        upper = col > row
        pairs.append(np.column_stack((row[upper], col[upper])))
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
    data: list[tuple[int, ...]] = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
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
    return build_graph(n, data[1:])


def read_edge_list_comments(path: str | Path) -> list[str]:
    """Return the stripped text of every ``#`` comment line in the file."""
    out = []
    for line in Path(path).read_text().splitlines():
        s = line.strip()
        if s.startswith("#"):
            out.append(s[1:].strip())
    return out


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
