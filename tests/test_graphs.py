"""Graph construction, generators, cuts, and file round-trips."""

import itertools
import pickle

import numpy as np
import pytest

from helpers import edge_tuples
from treewavelets import (
    DisconnectedGraphError,
    bfs_spanning_tree,
    build_graph,
    connected_components,
    cut_size,
    gen_complete,
    gen_epsilon,
    gen_knn,
    gen_torus,
    graph_digest,
    incidence_apply,
    read_edge_list,
    read_points,
    require_connected,
    write_edge_list,
    write_points,
)
from treewavelets.graphs import read_edge_list_comments


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
    def test_incidence_orientation(self):
        # Rows follow canonical edge order; each is x[small] - x[large].
        g = build_graph(3, [(0, 1), (1, 2)])
        x = np.array([5.0, 2.0, 2.0])
        np.testing.assert_allclose(incidence_apply(g, x), [3.0, 0.0])

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
        root = list(range(g.n))

        def find(a):
            while root[a] != a:
                a = root[a]
            return a

        for u, v in g.edges:
            root[find(u)] = find(v)
        groups = {}
        for v in range(g.n):
            groups.setdefault(find(v), []).append(v)
        assert connected_components(g) == sorted(groups.values())


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
        assert connected_components(g) == [[0, 5], [1, 2], [3, 4]]

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
        n, eps = 40, 0.3
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


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = gen_torus(4, 2)
        path = tmp_path / "g.txt"
        write_edge_list(g, path, comments=["made by a test"])
        back = read_edge_list(path)
        assert edge_tuples(back) == edge_tuples(g) and back.n == g.n
        assert read_edge_list_comments(path) == ["made by a test"]

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


class TestPointsIO:
    def test_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((17, 3))
        path = tmp_path / "pts.csv"
        write_points(pts, path)
        back = read_points(path)
        np.testing.assert_array_equal(back, pts)

    def test_header_required(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,1.0,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_points(path)
