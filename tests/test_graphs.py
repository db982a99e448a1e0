"""Graph construction, generators, cuts, and file round-trips."""

import itertools

import numpy as np
import pytest

from treewavelets import (
    DisconnectedGraphError,
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
        assert g.edges == ((0, 1), (0, 2), (1, 2))
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
        assert g.adjacency[3] == (0, 1, 2)
        assert g.max_degree == 3

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0


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

    def test_tolerance_ignores_tiny_differences(self):
        g = build_graph(2, [(0, 1)])
        assert cut_size(g, np.array([0.0, 1e-12])) == 0
        assert cut_size(g, np.array([0.0, 1e-6])) == 1


def _brute_force_views(g):
    """Degrees, CSR and neighbor tuples of g from its edges, one at a time."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    adjacency = tuple(tuple(sorted(a)) for a in nbrs)
    degrees = [len(a) for a in adjacency]
    indptr = [0]
    for d in degrees:
        indptr.append(indptr[-1] + d)
    indices = [w for a in adjacency for w in a]
    return degrees, indptr, indices, adjacency


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
        degrees, indptr, indices, adjacency = _brute_force_views(g)
        assert g.degrees.dtype == np.int64 and g.degrees.tolist() == degrees
        got_indptr, got_indices = g.csr
        assert got_indptr.dtype == got_indices.dtype == np.int64
        assert got_indptr.tolist() == indptr
        assert got_indices.tolist() == indices
        assert g.adjacency == adjacency
        assert g.max_degree == max(degrees)
        assert g.edge_array.shape == (g.m, 2)
        assert [tuple(e) for e in g.edge_array.tolist()] == list(g.edges)

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
        assert set(g.edges) == want
        assert g.n == 16 and g.m == 32
        assert all(d == 4 for d in g.degrees)

    def test_side_3_equals_cycle_squared_structure(self):
        # side=3, dims=1 is the triangle: wraparound merges with +1 steps.
        g = gen_torus(3, 1)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

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
        assert set(g.edges) == set(itertools.combinations(range(5), 2))


class TestKnn:
    def test_min_degree_at_least_k(self):
        g, pts = gen_knn(50, 4, 2, 0)
        assert pts.shape == (50, 2)
        assert int(g.degrees.min()) >= 4

    def test_deterministic_in_seed(self):
        g1, p1 = gen_knn(40, 5, 2, 123)
        g2, p2 = gen_knn(40, 5, 2, 123)
        assert g1.edges == g2.edges
        np.testing.assert_array_equal(p1, p2)
        g3, _ = gen_knn(40, 5, 2, 124)
        assert g3.edges != g1.edges

    def test_three_points_k2_triangle(self):
        g, _ = gen_knn(3, 2, 2, 7)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

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
        assert set(g.edges) == want

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
        assert set(g.edges) == want

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            gen_epsilon(5, 0.0, 2, 0)


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = gen_torus(4, 2)
        path = tmp_path / "g.txt"
        write_edge_list(g, path, comments=["made by a test"])
        back = read_edge_list(path)
        assert back.edges == g.edges and back.n == g.n
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
        assert g.edges == ((0, 1), (1, 2))


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
