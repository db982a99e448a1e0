"""Graph construction, generators, cuts, and file round-trips."""

import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from helpers import edge_tuples
from treewavelets import (
    DisconnectedGraphError,
    Signal,
    apply_basis,
    bfs_spanning_tree,
    build_basis,
    build_graph,
    cut_size,
    gen_complete,
    gen_epsilon,
    gen_knn,
    gen_torus,
    graph_digest,
    read_edge_list,
    read_points,
    require_connected,
    write_csv,
    write_edge_list,
    write_points,
)
from treewavelets.graphs import (
    _candidate_bound,
    _component_roots,
    _parse_edge_list,
    signal_values,
)


class TestBuildGraph:
    def test_canonicalizes_orientation_and_order(self):
        g = build_graph(3, [(2, 1), (0, 2), (1, 0)])
        assert edge_tuples(g) == ((0, 1), (0, 2), (1, 2))
        assert g.n == 3 and g.m == 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(3, [(0, 1), (1, 1)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(2, [(0, 2)])
        with pytest.raises(ValueError):
            build_graph(2, [(-1, 0)])

    def test_degrees_and_adjacency_sorted(self):
        g = build_graph(4, [(0, 3), (0, 1), (1, 3), (2, 3)])
        assert g.degrees.tolist() == [2, 2, 1, 3]
        indptr, indices = g.csr
        assert indices[indptr[3] : indptr[4]].tolist() == [0, 1, 2]
        assert g.max_degree == 3

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_accepts_list_generator_and_array(self):
        pairs = [(3, 1), (0, 2), (1, 0), (2, 3)]
        want = build_graph(4, pairs)
        assert edge_tuples(want) == ((0, 1), (0, 2), (1, 3), (2, 3))
        arrays = (np.array(pairs), np.array(pairs, dtype=np.int32))
        for edges in (iter(pairs), (p for p in pairs), *arrays):
            g = build_graph(4, edges)
            assert g == want
            assert g.edges.dtype == np.int64
            assert g.edges.tolist() == want.edges.tolist()
        assert build_graph(3, np.empty((0, 2), dtype=np.int64)).m == 0

    @pytest.mark.parametrize(
        "edges", [[(0, 1, 2)], [(0, 1), (1, 2, 0)], np.zeros((2, 3), dtype=int), [0, 1]]
    )
    def test_rejects_rows_that_are_not_pairs(self, edges):
        with pytest.raises(ValueError):
            build_graph(3, edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(1, 0), (3, 0), (2, 2), (0, 1)], r"edge \(3, 0\) out of range for n=3"),
            ([(1, 0), (2, 2), (3, 0)], "self-loop at vertex 2"),
            ([(2, 1), (1, 0), (0, 1), (1, 2)], r"duplicate edge \(0, 1\)"),
            ([(0, -1), (1, 1)], r"edge \(0, -1\) out of range for n=3"),
        ],
    )
    def test_names_first_offending_edge(self, edges, message):
        with pytest.raises(ValueError, match=message):
            build_graph(3, edges)


def _loop_build(n, edges):
    """Reference: canonical edges or the error message, one edge at a time."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for n={n}"
        if u == v:
            return f"self-loop at vertex {u}"
        e = (min(u, v), max(u, v))
        if e in seen:
            return f"duplicate edge {e}"
        seen.add(e)
    return tuple(sorted(seen))


def test_build_graph_matches_loop_reference():
    rng = np.random.default_rng(0)
    for _ in range(3000):
        n = int(rng.integers(1, 8))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 10)), 2))
        stray = rng.random(edges.shape) < 0.03
        edges[stray] = rng.integers(-3, n + 3, size=int(stray.sum()))
        edges = [tuple(e) for e in edges.tolist()]
        want = _loop_build(n, edges)
        try:
            got = edge_tuples(build_graph(n, edges))
        except ValueError as exc:
            got = str(exc)
        assert got == want, edges


class TestIncidenceAndCut:
    def test_cut_counts_disagreeing_edges(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        x = np.array([1.0, 1.0, 0.0, 0.0])
        assert cut_size(g, x) == 1

    def test_complete_graph_cut_is_product(self):
        # A 0/1 indicator of k vertices in K_n cuts exactly k (n - k) edges.
        n = 9
        g = gen_complete(n)
        for k in range(n + 1):
            x = np.zeros(n)
            x[:k] = 1.0
            assert cut_size(g, x) == k * (n - k)

    def test_edgeless_graph_checks_signal_shape(self):
        g = build_graph(3, [])
        assert cut_size(g, np.array([0.0, 1.0, 2.0])) == 0
        with pytest.raises(ValueError, match="shape"):
            cut_size(g, np.zeros(2))

    def test_tolerance_ignores_tiny_differences(self):
        g = build_graph(2, [(0, 1)])
        assert cut_size(g, np.array([0.0, 1e-12])) == 0
        assert cut_size(g, np.array([0.0, 1e-6])) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_raises(self, bad):
        # A NaN vertex compares false with eps, so unchecked it is never a cut.
        g = gen_torus(3, 2)
        x = np.zeros(g.n)
        x[0] = bad
        for count in (
            lambda: cut_size(g, x),
            lambda: cut_size(g, Signal(values=x)),
            lambda: cut_size(bfs_spanning_tree(g), x),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                count()

    def test_signal_values_coerced_to_float_array(self):
        x = Signal(values=[1, 1, 0, 0])
        vals = signal_values(x)
        assert vals.dtype == np.float64
        np.testing.assert_array_equal(vals, [1.0, 1.0, 0.0, 0.0])
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert cut_size(g, x) == 1
        basis = build_basis(bfs_spanning_tree(g))
        np.testing.assert_array_equal(apply_basis(basis, x), apply_basis(basis, vals))


class TestGraphEquality:
    def test_graphs_compare_by_value_and_are_unhashable(self):
        g = gen_torus(4, 2)
        rebuilt = build_graph(16, g.edges.tolist()[::-1])
        assert rebuilt == g and rebuilt is not g
        assert g != gen_complete(16)
        assert g != build_graph(17, g.edges)
        with pytest.raises(TypeError):
            hash(g)

    def test_pickle_round_trip(self):
        g = gen_knn(30, 3, 2, 0)[0]
        back = pickle.loads(pickle.dumps(g))
        assert back == g and back is not g

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_keeps_edges_read_only(self, protocol):
        # Protocols below 5 restore numpy arrays writable; the worker pool
        # pickles graphs with the default protocol 4.
        g = gen_knn(30, 3, 2, 0)[0]
        back = pickle.loads(pickle.dumps(g, protocol=protocol))
        assert back == g and not back.edges.flags.writeable

    def test_pickle_leaves_cached_views_behind(self):
        # The worker pool pickles the parent's graph and tree, whose views
        # are filled by then; shipping them tripled the payload.
        g = gen_torus(16, 2)
        t = bfs_spanning_tree(g)
        fresh = len(pickle.dumps(g)), len(pickle.dumps(t))
        require_connected(t)
        g.edge_ids(t.edges)
        t.edge_ids(g.edges[:3])
        assert "csr" in g.__dict__ and "_edge_keys" in t.__dict__
        assert (len(pickle.dumps(g)), len(pickle.dumps(t))) == fresh
        back = pickle.loads(pickle.dumps(t))
        assert back == t and back.graph == g and "csr" not in back.__dict__
        assert back.csr[1].tolist() == t.csr[1].tolist()


def _brute_force_views(g):
    """Degrees and CSR of g from its edges, one at a time."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    degrees = [len(a) for a in nbrs]
    indptr = [0]
    for d in degrees:
        indptr.append(indptr[-1] + d)
    indices = [w for a in nbrs for w in sorted(a)]
    return degrees, indptr, indices


DERIVED_VIEW_GRAPHS = {
    "torus": lambda: gen_torus(5, 2),
    "torus3d": lambda: gen_torus(3, 3),
    "complete": lambda: gen_complete(9),
    "knn": lambda: gen_knn(60, 4, 2, 3)[0],
    "epsilon": lambda: gen_epsilon(60, 0.2, 2, 4)[0],
    "edgeless": lambda: build_graph(3, []),
    "single": lambda: build_graph(1, []),
    "forest": lambda: build_graph(7, [(5, 6), (0, 3), (2, 3)]),
}


class TestDerivedViews:
    @pytest.mark.parametrize("name", sorted(DERIVED_VIEW_GRAPHS))
    def test_views_match_brute_force(self, name):
        g = DERIVED_VIEW_GRAPHS[name]()
        degrees, indptr, indices = _brute_force_views(g)
        assert g.degrees.dtype == np.int64 and g.degrees.tolist() == degrees
        got_indptr, got_indices = g.csr
        assert got_indptr.dtype == got_indices.dtype == np.int64
        assert got_indptr.tolist() == indptr
        assert got_indices.tolist() == indices
        assert g.max_degree == max(degrees)
        assert g.edges.dtype == np.int64 and g.edges.shape == (g.m, 2)
        assert g.edges.tolist() == sorted(sorted(e) for e in g.edges.tolist())
        with pytest.raises(ValueError, match="read-only"):
            g.edges[...] = 0

    @pytest.mark.parametrize("name", sorted(DERIVED_VIEW_GRAPHS))
    def test_components_match_union_find(self, name):
        g = DERIVED_VIEW_GRAPHS[name]()
        assert _component_roots(g).tolist() == _union_find_roots(g)


def _union_find_roots(g):
    """Per vertex, the smallest vertex of its component, by plain union-find."""
    root = list(range(g.n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for u, v in g.edges.tolist():
        root[find(u)] = find(v)
    least = {}
    for v in range(g.n):
        least.setdefault(find(v), v)
    return [least[find(v)] for v in range(g.n)]


def _root_sizes(roots):
    """Component sizes from per-vertex roots, ordered by smallest vertex."""
    return tuple(np.bincount(roots)[sorted(set(roots))].tolist())


def _random_graph(n, m, seed):
    """A simple graph on n vertices with up to m edges, on the first 3n/4
    vertices only, so it has isolated vertices and usually several components."""
    rng = np.random.default_rng(seed)
    span = max(1, 3 * n // 4)
    pairs = rng.integers(0, span, size=(m, 2))
    keys = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
    keys = keys[keys // n != keys % n]
    return build_graph(n, np.column_stack((keys // n, keys % n)))


def _csr_indices_by_stable_argsort(g):
    """Graph.csr's indices as they were built before: both orientations,
    stably sorted by source."""
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    return np.concatenate((lo, hi))[np.argsort(np.concatenate((hi, lo)), kind="stable")]


CSR_GRAPHS = {
    **DERIVED_VIEW_GRAPHS,
    "complete1024": lambda: gen_complete(1024),
    "edgeless50": lambda: build_graph(50, []),
    "random": lambda: _random_graph(400, 900, 5),
}


@pytest.mark.parametrize("name", sorted(CSR_GRAPHS))
def test_csr_matches_stable_argsort_of_both_orientations(name):
    g = CSR_GRAPHS[name]()
    want = _csr_indices_by_stable_argsort(g)
    indptr, indices = g.csr
    assert indices.dtype == want.dtype == np.int64
    assert np.array_equal(indices, want)
    assert indptr.tolist() == np.concatenate(([0], np.cumsum(g.degrees))).tolist()


# graph_digest of each generator's output, recorded before the generators
# were vectorised: the edge sets must not change.
PINNED_DIGESTS = {
    "torus 3x3": (
        lambda: gen_torus(3, 2),
        "dec2673a596945159aa37e62043bcf9aca76eff2b6a690cedd167cdfb08ed75a",
    ),
    "torus 5x5": (
        lambda: gen_torus(5, 2),
        "96a323e852e999b16c31458eb958bdce51247800425df2ca90f3215909bce31d",
    ),
    "torus 4^3": (
        lambda: gen_torus(4, 3),
        "5b485cb6a5d5fae285a5664b7e29a38d633161acce36e23ccaec45710cd25e2e",
    ),
    "K1": (
        lambda: gen_complete(1),
        "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    ),
    "K2": (
        lambda: gen_complete(2),
        "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834",
    ),
    "K7": (
        lambda: gen_complete(7),
        "51ac8588af7eae34e8cc91650d0b3eb8146ae2ecb8f5218311140fa1ac6b711d",
    ),
    "K64": (
        lambda: gen_complete(64),
        "ea64c19bd91a095e6813378ec12593a14dcec334b923e3c6f3308fbb69322e19",
    ),
    "knn 60/4 seed 0": (
        lambda: gen_knn(60, 4, rng=0)[0],
        "21297fcd0daafff6bab7fa9ddf1f47b306d14a3ec3798972a2c58dd1436ddf5a",
    ),
    "knn 60/4 seed 1": (
        lambda: gen_knn(60, 4, rng=1)[0],
        "9f7ed9149b3fe237f211cd65e9d2b3f8c21db1dcc6558a735a71b55048504cd5",
    ),
    "knn 60/4 seed 2": (
        lambda: gen_knn(60, 4, rng=2)[0],
        "7082adef86fed687337b4785be6c4471e2527e73ce29b95ca185c99ab3af0b35",
    ),
    "knn 200/6 seed 21": (
        lambda: gen_knn(200, 6, rng=21)[0],
        "3112d89d025678848600477bf481cf93f765966580bc29b506cf053d8a3560e9",
    ),
    "epsilon 100/0.2 seed 0": (
        lambda: gen_epsilon(100, 0.2, rng=0)[0],
        "8bd884d0bdefc2026439a5f850c66992a84b414cc0dc0578f2337d895d5f8bc6",
    ),
    "epsilon 100/0.2 seed 1": (
        lambda: gen_epsilon(100, 0.2, rng=1)[0],
        "9dbf6c70de25fc9adbc439897a91511c82a5d7ba1eb2c087b7d36e0edfe9090a",
    ),
    "epsilon 100/0.2 seed 2": (
        lambda: gen_epsilon(100, 0.2, rng=2)[0],
        "6675b6a977c325cc72f06aefede13c6efd4064771f2d4458c91f57ff82007f32",
    ),
    # Each spans several blocks of distance rows. The digests come from the
    # earlier whole-matrix generators, whose numpy reduction added the dim-9
    # squares in another order.
    "knn 2000/8 seed 51": (
        lambda: gen_knn(2000, 8, rng=51)[0],
        "406fff69139f0d1fc10221ad98a4fbbaf1d0b5aee0ab3bde2d5789c73090b3ab",
    ),
    "knn 1000/8 seed 61": (
        lambda: gen_knn(1000, 8, rng=61)[0],
        "77b553275a4581dc4efe02b8966999e8052214778c4a4fe879f214c94c78505c",
    ),
    "knn 513/8 dim 3 seed 5": (
        lambda: gen_knn(513, 8, 3, 5)[0],
        "c70de9e555b6ce5a22d77b1537ef20284cac834a6bb7de6efd6d180be93968aa",
    ),
    "knn 600/10 dim 9 seed 7": (
        lambda: gen_knn(600, 10, 9, 7)[0],
        "f325d3fb6b6e74d8f7cc4b55144bfd28cf92941d59a6d5cb767841aa3681face",
    ),
    "epsilon 1000/0.06 seed 3": (
        lambda: gen_epsilon(1000, 0.06, rng=3)[0],
        "38820eb25c7bb5cfcd37ddf518504d192a7328a09a6897af89253a9e66ed9248",
    ),
    "epsilon 700/0.9 dim 9 seed 1": (
        lambda: gen_epsilon(700, 0.9, 9, 1)[0],
        "6b14121603e6444a92b919464fab8238604f23b429c54cf7bf30d7cffd75c947",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_generator_digest_pinned(name):
    make, digest = PINNED_DIGESTS[name]
    assert graph_digest(make()) == digest


EDGE_ID_GRAPHS = {**DERIVED_VIEW_GRAPHS, "tree": lambda: bfs_spanning_tree(gen_torus(4, 2))}


class TestEdgeIds:
    @pytest.mark.parametrize("name", sorted(EDGE_ID_GRAPHS))
    def test_matches_dict_oracle(self, name):
        g = EDGE_ID_GRAPHS[name]()
        oracle = {e: i for i, e in enumerate(edge_tuples(g))}
        pairs = list(itertools.product(range(-1, g.n + 1), repeat=2))
        want = [oracle.get((min(u, v), max(u, v)), -1) for u, v in pairs]
        got = g.edge_ids(pairs)
        assert got.dtype == np.int64 and got.tolist() == want
        assert g.edge_ids(edge_tuples(g)).tolist() == list(range(g.m))
        assert g.edge_ids(g.edges[:, ::-1]).tolist() == list(range(g.m))

    def test_out_of_range_never_aliases(self):
        # On n=3 the key 0*3 + 5 equals the key of (1, 2).
        g = build_graph(3, [(0, 1), (1, 2)])
        got = g.edge_ids([(0, 5), (5, 0), (1, 2), (0, 2), (2, 1)])
        assert got.tolist() == [-1, -1, 1, -1, 1]
        assert g.edge_ids([(-3, 1)]).tolist() == [-1]

    def test_empty_input(self):
        g = gen_torus(3, 2)
        for empty in ([], np.empty((0, 2), dtype=np.int64)):
            got = g.edge_ids(empty)
            assert got.shape == (0,) and got.dtype == np.int64

    def test_rejects_rows_that_are_not_pairs(self):
        with pytest.raises(ValueError):
            gen_torus(3, 2).edge_ids([(0, 1, 2)])


class TestComponents:
    def test_components_ordered_by_smallest_vertex(self):
        g = build_graph(6, [(3, 4), (0, 5), (1, 2)])
        assert _component_roots(g).tolist() == [0, 1, 1, 3, 3, 0]

    def test_require_connected_raises_with_sizes(self):
        g = build_graph(5, [(0, 1), (2, 3), (3, 4)])
        with pytest.raises(DisconnectedGraphError) as exc:
            require_connected(g)
        assert exc.value.component_sizes == [3, 2]

    def test_connected_graph_passes(self):
        require_connected(gen_torus(3, 2))

    def test_component_sizes_cached(self):
        g = build_graph(6, [(3, 4), (0, 5), (1, 2), (1, 5)])
        assert g.component_sizes == (4, 2)
        assert g.component_sizes is g.component_sizes
        for _ in range(2):
            with pytest.raises(DisconnectedGraphError) as exc:
                require_connected(g)
            assert exc.value.component_sizes == [4, 2]

    @pytest.mark.parametrize(
        "n, m, seed",
        [(1, 0, 0), (17, 0, 0), (4, 3, 1), (30, 12, 2), (200, 90, 3), (200, 260, 4), (1000, 700, 5)],
    )
    def test_random_graphs_match_union_find(self, n, m, seed):
        # m = 0 gives an edgeless graph.
        g = _random_graph(n, m, seed)
        want = _union_find_roots(g)
        assert _component_roots(g).tolist() == want
        assert g.component_sizes == _root_sizes(want)

    def test_long_path_with_shuffled_labels(self):
        # A path is the graph of largest diameter; shuffled labels make the
        # smallest vertex of each stretch sit anywhere along it.
        n = 2**17
        order = np.random.default_rng(6).permutation(n)
        g = build_graph(n, np.column_stack((order[:-1], order[1:])))
        assert _component_roots(g).tolist() == _union_find_roots(g) == [0] * n
        assert g.component_sizes == (n,)
        cut = build_graph(n, np.column_stack((order[:-1], order[1:]))[np.arange(n - 1) != n // 2])
        want = _union_find_roots(cut)
        assert _component_roots(cut).tolist() == want and len(set(want)) == 2
        assert cut.component_sizes == _root_sizes(want)

    def test_star_centred_at_last_vertex(self):
        # Every leaf is smaller than the centre, so no leaf hooks in the first round.
        n = 500
        g = build_graph(n, [(v, n - 1) for v in range(n - 1)])
        assert _component_roots(g).tolist() == _union_find_roots(g) == [0] * n
        assert g.component_sizes == (n,)
        g = build_graph(n, [(v, n - 1) for v in range(1, n - 1)])
        assert _component_roots(g).tolist() == _union_find_roots(g) == [0] + [1] * (n - 1)
        assert g.component_sizes == (1, n - 1)

    def test_require_connected_builds_no_list_view(self):
        for g in (gen_torus(8, 2), gen_knn(60, 4, 2, 3)[0], gen_complete(40)):
            require_connected(g)
            assert "_csr_lists" not in g.__dict__

    def test_error_message_shows_ten_largest_sizes(self):
        # A 20000-vertex graph with few edges used to put every size in the message.
        g = build_graph(20000, [(0, 1), (2, 3), (3, 4)])
        with pytest.raises(DisconnectedGraphError) as exc:
            require_connected(g)
        assert exc.value.component_sizes == [3, 2] + [1] * 19995
        assert str(exc.value) == (
            "graph is disconnected: 19997 components with sizes [3, 2, 1, 1, 1, 1, 1, 1, 1, 1, …]"
        )
        few = DisconnectedGraphError([1, 4, 2])
        assert str(few) == "graph is disconnected: 3 components with sizes [4, 2, 1]"
        assert few.component_sizes == [4, 2, 1]


class TestTorus:
    def test_4x4_matches_enumeration(self):
        # Oracle: pairs at circular distance one in exactly one coordinate.
        g = gen_torus(4, 2)
        want = set()
        for (a, b) in itertools.combinations(range(16), 2):
            ax, ay = divmod(a, 4)
            bx, by = divmod(b, 4)
            dx = min((ax - bx) % 4, (bx - ax) % 4)
            dy = min((ay - by) % 4, (by - ay) % 4)
            if sorted((dx, dy)) == [0, 1]:
                want.add((a, b))
        assert set(edge_tuples(g)) == want
        assert g.n == 16 and g.m == 32
        assert all(d == 4 for d in g.degrees)

    def test_side_3_equals_cycle_squared_structure(self):
        # side=3, dims=1 is the triangle: wraparound merges with +1 steps.
        g = gen_torus(3, 1)
        assert edge_tuples(g) == ((0, 1), (0, 2), (1, 2))

    def test_one_dimensional_cycle(self):
        g = gen_torus(5, 1)
        assert g.m == 5
        assert all(d == 2 for d in g.degrees)

    def test_three_dimensional_degree(self):
        g = gen_torus(3, 3)
        assert g.n == 27
        assert all(d == 6 for d in g.degrees)

    def test_small_side_rejected(self):
        with pytest.raises(ValueError):
            gen_torus(2, 2)


class TestComplete:
    def test_all_pairs(self):
        g = gen_complete(5)
        assert g.m == 10
        assert set(edge_tuples(g)) == set(itertools.combinations(range(5), 2))


class TestKnn:
    def test_min_degree_at_least_k(self):
        g, pts = gen_knn(50, 4, 2, 0)
        assert pts.shape == (50, 2)
        assert int(g.degrees.min()) >= 4

    def test_deterministic_in_seed(self):
        g1, p1 = gen_knn(40, 5, 2, 123)
        g2, p2 = gen_knn(40, 5, 2, 123)
        assert edge_tuples(g1) == edge_tuples(g2)
        np.testing.assert_array_equal(p1, p2)
        g3, _ = gen_knn(40, 5, 2, 124)
        assert edge_tuples(g3) != edge_tuples(g1)

    def test_three_points_k2_triangle(self):
        g, _ = gen_knn(3, 2, 2, 7)
        assert edge_tuples(g) == ((0, 1), (0, 2), (1, 2))

    def test_edges_match_brute_force_neighbors(self):
        # Oracle: recompute the k nearest of each vertex from raw distances
        # (ties by index) and symmetrize by union.
        n, k = 30, 4
        g, pts = gen_knn(n, k, 2, 9)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        want = set()
        for u in range(n):
            order = sorted((dist[u, v], v) for v in range(n) if v != u)
            for _, v in order[:k]:
                want.add((min(u, v), max(u, v)))
        assert set(edge_tuples(g)) == want

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_grid_ties_match_stable_sort(self, monkeypatch, k, dim):
        # 300 points on the grid {0, 1/4, 1/2, 3/4}^dim: most distances tie,
        # repeated points included, and the ties span several row blocks.
        n = 300
        pts = np.random.default_rng(dim).integers(0, 4, (n, dim)) / 4
        monkeypatch.setattr("treewavelets.graphs._uniform_points", lambda *args: pts)
        g, got_pts = gen_knn(n, k, dim, 0)
        assert got_pts is pts
        # Oracle: the first k of each row under a stable sort of the whole
        # distance matrix, so equal distances keep index order.
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        want = {(min(u, v), max(u, v)) for u, row in enumerate(nearest.tolist()) for v in row}
        assert set(edge_tuples(g)) == want

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            gen_knn(5, 5, 2, 0)
        with pytest.raises(ValueError):
            gen_knn(5, 0, 2, 0)


class TestEpsilon:
    def test_huge_radius_gives_complete_graph(self):
        g, _ = gen_epsilon(12, 1.5, 2, 3)
        assert g.m == 12 * 11 // 2

    def test_tiny_radius_gives_empty_graph(self):
        g, _ = gen_epsilon(12, 1e-9, 2, 3)
        assert g.m == 0

    def test_edges_match_pairwise_distances(self):
        # n = 300 spans several blocks of distance rows.
        for n, eps in ((40, 0.3), (300, 0.1)):
            g, pts = gen_epsilon(n, eps, 2, 5)
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            want = {
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if dist[u, v] <= eps
            }
            assert set(edge_tuples(g)) == want

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            gen_epsilon(5, 0.0, 2, 0)

    @pytest.mark.parametrize("eps", [0.25, 0.5, np.sqrt(0.125)])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_grid_pairs_at_exactly_eps_join(self, monkeypatch, dim, eps):
        # 300 points on the grid {0, 1/4, 1/2, 3/4}^dim: every square is
        # exact, so many pairs sit at exactly eps (bar sqrt(1/8) on a line),
        # and repeated points too.
        n = 300
        pts = np.random.default_rng(dim).integers(0, 4, (n, dim)) / 4
        monkeypatch.setattr("treewavelets.graphs._uniform_points", lambda *args: pts)
        g, got_pts = gen_epsilon(n, eps, dim, 0)
        assert got_pts is pts
        dist = _brute_distances(pts)
        assert (dist == eps).any() == (dim > 1 or eps != np.sqrt(0.125))
        want = {(u, v) for u, v in zip(*np.nonzero(dist <= eps)) if u < v}
        assert set(edge_tuples(g)) == want

    @pytest.mark.parametrize("as_float", [float, np.float64], ids=["float", "float64"])
    def test_squared_radius_overflow_gives_complete_graph(self, as_float):
        # eps**2 overflows to inf; no RuntimeWarning, which the suite raises.
        g, _ = gen_epsilon(40, as_float(1e300), 3, 2)
        assert g.m == 40 * 39 // 2

    @pytest.mark.parametrize("as_float", [float, np.float64], ids=["float", "float64"])
    def test_squared_radius_underflow_joins_only_repeated_points(self, monkeypatch, as_float):
        # eps**2 underflows to 0; a pair joins only at distance 0.
        pts = np.random.default_rng(4).random((30, 2))[np.arange(60) % 30]
        monkeypatch.setattr("treewavelets.graphs._uniform_points", lambda *args: pts)
        g, _ = gen_epsilon(60, as_float(1e-170), 2, 0)
        assert edge_tuples(g) == tuple((v, v + 30) for v in range(30))


def _brute_distances(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _old_block_distances(points, start):
    """The generators' former distance block: roots of squares summed from 0."""
    rows = points[start : start + 128]
    dist = np.zeros((len(rows), len(points)))
    for coord in range(points.shape[1]):
        diff = np.subtract.outer(rows[:, coord], points[:, coord])
        diff *= diff
        dist += diff
    return np.sqrt(dist, out=dist)


def _old_knn_edges(points, k):
    """The former ``gen_knn`` on given points, rooting every distance."""
    n = len(points)
    keys = []
    for start in range(0, n, 128):
        dist = _old_block_distances(points, start)
        np.fill_diagonal(dist[:, start:], np.inf)
        d_k = np.take(np.partition(dist, k - 1, axis=1), [k - 1], axis=1)
        chosen = dist < d_k
        tied = dist == d_k
        free = k - np.count_nonzero(chosen, axis=1)
        over = np.flatnonzero(np.count_nonzero(tied, axis=1) > free)
        if len(over):
            tied[over] &= np.cumsum(tied[over], axis=1) <= free[over, None]
        chosen |= tied
        row, col = np.nonzero(chosen)
        row += start
        keys.append(np.minimum(row, col) * n + np.maximum(row, col))
    keys = np.unique(np.concatenate(keys))
    return build_graph(n, np.column_stack((keys // n, keys % n)))


def _old_epsilon_edges(points, eps):
    """The former ``gen_epsilon`` on given points, rooting every distance."""
    pairs = []
    for start in range(0, len(points), 128):
        row, col = np.nonzero(_old_block_distances(points, start) <= eps)
        row += start
        upper = col > row
        pairs.append(np.column_stack((row[upper], col[upper])))
    return build_graph(len(points), np.concatenate(pairs))


# Block edges at 128 rows, and dims on both sides of 8, where numpy's own
# sum over an axis would add in another order than coordinate by coordinate.
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("n", [2, 127, 128, 129, 257])
def test_generators_match_rooting_every_distance(n, dim):
    for seed, k in enumerate(sorted({1, min(7, n - 1), n - 1})):
        g, pts = gen_knn(n, k, dim, seed)
        assert g == _old_knn_edges(pts, k), (n, k, dim)
    for seed, scale in enumerate((0.05, 0.3, 1.0)):
        eps = scale * np.sqrt(dim)
        g, pts = gen_epsilon(n, eps, dim, seed)
        assert g == _old_epsilon_edges(pts, eps), (n, eps, dim)


def test_candidates_keep_squares_that_share_the_cutoffs_root():
    # Squares one ulp above a k-th square whose root is the same.
    sq = np.random.default_rng(8).random(20000)
    up = np.nextafter(sq, np.inf)
    shared = np.sqrt(up) == np.sqrt(sq)
    assert shared.sum() > 1000
    assert (up[shared] <= _candidate_bound(sq[shared])).all()
    # Squares one ulp above fl(eps**2) whose root is eps.
    eps = np.sqrt(sq)
    up = np.nextafter(eps * eps, np.inf)
    at_eps = np.sqrt(up) == eps
    assert at_eps.sum() > 1000
    assert (up[at_eps] <= _candidate_bound((eps * eps)[at_eps])).all()
    # A square that underflowed keeps every square below the smallest normal.
    assert _candidate_bound(1e-170 * 1e-170) == np.finfo(np.float64).tiny


@pytest.mark.parametrize(
    "make",
    [lambda: gen_knn(2000, 8, rng=51), lambda: gen_epsilon(2000, 0.06, rng=3)],
    ids=["knn", "epsilon"],
)
def test_point_generators_use_far_less_than_n_squared_memory(make):
    # One 2000 x 2000 float64 matrix alone is 32 MB.
    tracemalloc.start()
    try:
        make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = gen_torus(4, 2)
        path = tmp_path / "g.txt"
        write_edge_list(g, path, comments=["made by a test"])
        back = read_edge_list(path)
        assert edge_tuples(back) == edge_tuples(g) and back.n == g.n
        parsed, comments = _parse_edge_list(path)
        assert parsed == g and comments == ["made by a test"]

    def test_digest_stable_and_sensitive(self):
        a = gen_torus(4, 2)
        b = gen_torus(4, 2)
        c = gen_torus(5, 2)
        assert graph_digest(a) == graph_digest(b)
        assert graph_digest(a) != graph_digest(c)

    def test_reader_validates_header_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(ValueError, match="claims 2 edges"):
            read_edge_list(path)

    def test_reader_skips_blanks_and_comments(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# hello\n\n3 2\n0 1\n\n1 2\n")
        g = read_edge_list(path)
        assert edge_tuples(g) == ((0, 1), (1, 2))


class TestWriteCsv:
    def test_numpy_scalars_written_as_python_values(self, tmp_path):
        # Under numpy 2, repr(np.float64(0.5)) is "np.float64(0.5)" and
        # str(np.True_) is "True"; neither may reach a cell.
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [[np.float64(0.5), np.True_, np.int64(3)]])
        assert path.read_text() == "a,b,c\n0.5,1,3\n"


class TestPointsIO:
    def test_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((17, 3))
        path = tmp_path / "pts.csv"
        write_points(pts, path)
        back = read_points(path)
        np.testing.assert_array_equal(back, pts)
        write_points(np.array([[0.1, -2.0], [1 / 3, 1e-20]]), path)
        assert path.read_text() == "vertex,x0,x1\n0,0.1,-2.0\n1,0.3333333333333333,1e-20\n"

    def test_header_required(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,1.0,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_points(path)
