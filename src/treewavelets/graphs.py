"""Undirected graphs, signals over their vertices, and the stock generators.

Vertices are integers ``0..n-1``. Edges are stored canonically as ``(u, v)``
with ``u < v``, sorted lexicographically, so any two graphs with the same edge
set serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DisconnectedGraphError

__all__ = [
    "EPS_CUT",
    "Graph",
    "Signal",
    "as_rng",
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
    "signal_values",
    "write_edge_list",
    "write_points",
]

# Differences at or below this magnitude count as "equal level" everywhere a
# cut or a support is counted.
EPS_CUT = 1e-9


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce a seed or generator into a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# =============================================================================
# Core types
# =============================================================================


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph with canonical edge order.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : tuple of (int, int)
        Canonical edge list: each pair ``(u, v)`` has ``u < v`` and the list
        is sorted lexicographically. Use :func:`build_graph` to construct
        from raw input; it validates and canonicalizes.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) int array (empty graphs get shape (0, 2))."""
        flat = itertools.chain.from_iterable(self.edges)
        return np.fromiter(flat, dtype=np.int64, count=2 * self.m).reshape(self.m, 2)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n)

    @cached_property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists in increasing order, one tuple per vertex."""
        indptr, indices = self.csr
        ptr, nbrs = indptr.tolist(), indices.tolist()
        return tuple(tuple(nbrs[ptr[v] : ptr[v + 1]]) for v in range(self.n))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency in CSR form ``(indptr, indices)``, neighbors increasing.

        Each vertex lists its lower neighbors, then its upper ones. Canonical
        edge order already groups the upper neighbors by vertex; a stable sort
        on the second column groups the lower ones.
        """
        lo, hi = self.edge_array[:, 0], self.edge_array[:, 1]
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
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Position of each canonical edge in ``edges``."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def component_sizes(self) -> tuple[int, ...]:
        """Sizes of the connected components, ordered by smallest vertex."""
        return tuple(len(c) for c in connected_components(self))


@dataclass(frozen=True)
class Signal:
    """A real vector over a graph's vertices with optional bookkeeping.

    ``cut`` and ``energy`` record what the generator that produced the signal
    promised (boundary edge count and l2 norm); they are not recomputed on
    access. Plain arrays are accepted anywhere a Signal is.
    """

    values: np.ndarray
    cut: int | None = None
    energy: float | None = None

    def scale(self, factor: float) -> "Signal":
        """Return this signal with its values multiplied by ``factor``."""
        return Signal(
            values=self.values * float(factor),
            cut=self.cut,
            energy=None if self.energy is None else self.energy * abs(float(factor)),
        )


def signal_values(x: Signal | np.ndarray) -> np.ndarray:
    """Return the value vector of a Signal, or the array itself."""
    if isinstance(x, Signal):
        return x.values
    return np.asarray(x, dtype=np.float64)


# =============================================================================
# Construction and basic operations
# =============================================================================


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an edge list into a :class:`Graph`.

    Parameters
    ----------
    n : int
        Vertex count; must be >= 1.
    edges : iterable of (int, int)
        Undirected edges in any order/orientation. Self-loops and duplicate
        edges (in either orientation) are rejected.

    Returns
    -------
    Graph
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    canonical: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for raw in edges:
        u, v = int(raw[0]), int(raw[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        canonical.append(e)
    canonical.sort()
    return Graph(n=n, edges=tuple(canonical))


def incidence_apply(g: Graph, x: Signal | np.ndarray) -> np.ndarray:
    """Apply the edge-incidence operator: one difference per canonical edge.

    The entry for edge ``(u, v)`` with ``u < v`` is ``x[u] - x[v]``.
    """
    vals = signal_values(x)
    if vals.shape != (g.n,):
        raise ValueError(f"signal has shape {vals.shape}, expected ({g.n},)")
    ea = g.edge_array
    return vals[ea[:, 0]] - vals[ea[:, 1]]


def cut_size(g: Graph, x: Signal | np.ndarray, eps: float = EPS_CUT) -> int:
    """Number of edges across which the signal changes level by more than eps."""
    if g.m == 0:
        signal_values(x)  # still validate dtype
        return 0
    return int(np.count_nonzero(np.abs(incidence_apply(g, x)) > eps))


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components.

    Components are ordered by their smallest vertex, vertices increasing
    within each. The search reads one vertex's CSR run at a time, so no
    temporary outgrows a degree even on dense graphs.
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
    edges = []
    strides = [side**d for d in range(dims)]
    for v in range(n):
        for d in range(dims):
            coord = (v // strides[d]) % side
            w = v + strides[d] * ((coord + 1) % side - coord)
            edges.append((v, w))
    return build_graph(n, edges)


def gen_complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _uniform_points(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return rng.random((n, dim))


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def gen_knn(
    n: int,
    k: int,
    dim: int = 2,
    rng: np.random.Generator | int | None = None,
) -> tuple[Graph, np.ndarray]:
    """Symmetric k-nearest-neighbor graph on uniform points in the unit cube.

    Each vertex is joined to its k nearest others (Euclidean distance, exact
    ties broken toward the smaller index); the union over directions is kept,
    so every degree is at least k.

    Returns
    -------
    (Graph, ndarray)
        The graph and the (n, dim) point coordinates that produced it.
    """
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    points = _uniform_points(n, dim, as_rng(rng))
    dist = _pairwise_distances(points)
    np.fill_diagonal(dist, np.inf)
    edges: set[tuple[int, int]] = set()
    idx = np.arange(n)
    for u in range(n):
        order = np.lexsort((idx, dist[u]))
        for v in order[:k]:
            v = int(v)
            edges.add((u, v) if u < v else (v, u))
    return build_graph(n, sorted(edges)), points


def gen_epsilon(
    n: int,
    eps: float,
    dim: int = 2,
    rng: np.random.Generator | int | None = None,
) -> tuple[Graph, np.ndarray]:
    """Geometric graph on uniform points: join pairs at distance <= eps.

    Returns
    -------
    (Graph, ndarray)
        The graph and the (n, dim) point coordinates that produced it.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    points = _uniform_points(n, dim, as_rng(rng))
    dist = _pairwise_distances(points)
    iu, iv = np.triu_indices(n, k=1)
    keep = dist[iu, iv] <= eps
    edges = list(zip(iu[keep].tolist(), iv[keep].tolist()))
    return build_graph(n, edges), points


# =============================================================================
# Serialization
# =============================================================================


def _edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
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


def write_points(points: np.ndarray, path: str | Path) -> None:
    """Write point coordinates as CSV: header ``vertex,x0,...``, repr floats."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-d, got shape {points.shape}")
    header = "vertex," + ",".join(f"x{d}" for d in range(points.shape[1]))
    lines = [header]
    for i, row in enumerate(points):
        lines.append(f"{i}," + ",".join(repr(float(c)) for c in row))
    Path(path).write_text("\n".join(lines) + "\n")


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
