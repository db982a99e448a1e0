"""Spanning trees: balance search, uniform sampling, BFS trees, tree IO."""

import collections
import hashlib
import math
import pickle

import numpy as np
import pytest
from scipy import stats

from helpers import (
    binomial_band,
    component_sizes_without,
    edge_tuples,
    enumerate_spanning_trees,
    random_tree_edges,
)
from treewavelets import (
    CellSpec,
    DisconnectedGraphError,
    Graph,
    SpanningTree,
    bfs_spanning_tree,
    build_basis,
    build_graph,
    build_spanning_tree,
    cut_size,
    find_balance_walk,
    gen_complete,
    gen_knn,
    gen_torus,
    read_tree,
    sample_ust,
    validate_spanning_tree,
    write_tree,
)
from treewavelets import trees
from treewavelets.experiments import _draw
from treewavelets.graphs import _bfs


def tree_on(n, edges):
    """A SpanningTree whose host graph is the tree itself."""
    g = build_graph(n, edges)
    return build_spanning_tree(g, edges)


class TestValidateSpanningTree:
    def test_wrong_edge_count(self):
        g = gen_torus(3, 2)
        with pytest.raises(ValueError, match="edges"):
            build_spanning_tree(g, list(g.edges)[: g.n - 2])

    def test_edge_not_in_graph(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError, match="not an edge"):
            build_spanning_tree(g, [(0, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize(
        "host, cycle",
        [
            ([(0, 1), (1, 2), (0, 2), (2, 3)], [(0, 1), (1, 2), (0, 2)]),
            ([(0, 1), (1, 2), (2, 3), (1, 3)], [(1, 2), (2, 3), (1, 3)]),
        ],
        ids=["root-in-cycle", "root-isolated"],
    )
    def test_cycle_plus_isolated_rejected(self, host, cycle):
        # The search from vertex 0 stops short of vertex 3, or at its start.
        g = build_graph(4, host)
        with pytest.raises(ValueError, match="connect"):
            build_spanning_tree(g, cycle)

    def test_valid_tree_accepted(self):
        g = gen_torus(3, 2)
        t = bfs_spanning_tree(g)
        validate_spanning_tree(t)

    def test_vertex_count_must_match_host(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="vertices"):
            validate_spanning_tree(SpanningTree(g, [-1, 0]))


class TestFindBalance:
    def test_path_five_center(self):
        t = tree_on(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert find_balance_walk(t)[0] == 2

    def test_star_center(self):
        t = tree_on(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
        assert find_balance_walk(t)[0] == 0

    def test_two_vertices(self):
        t = tree_on(2, [(0, 1)])
        assert find_balance_walk(t)[0] in (0, 1)

    def test_guarantee_on_random_trees(self):
        # Oracle: remove the returned vertex and size the pieces by
        # union-find; none may exceed ceil(n/2). The walk also must not
        # visit more vertices than the tree has.
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            edges = random_tree_edges(n, rng)
            t = tree_on(n, edges)
            v, visits = find_balance_walk(t)
            sizes = component_sizes_without(n, edges, v)
            assert not sizes or sizes[0] <= math.ceil(n / 2)
            assert 1 <= visits <= n

    def test_walks_pinned(self):
        # sha256 over the int64 (vertex, visits) of 500 random trees, taken
        # when each walk rooted its subset by a DFS of its own.
        rng = np.random.default_rng(14)
        h = hashlib.sha256()
        for _ in range(500):
            n = int(rng.integers(2, 301))
            t = tree_on(n, random_tree_edges(n, rng))
            h.update(np.array(find_balance_walk(t), dtype=np.int64).tobytes())
        assert h.hexdigest() == "524552e2188a5939d153a8f07c42c2d7596b8e97ec5375db4d1ab40ab4bec792"


class TestSampleUst:
    def test_tree_graph_returns_itself(self):
        edges = [(0, 1), (1, 2), (1, 3), (3, 4)]
        g = build_graph(5, edges)
        t = sample_ust(g, 0)
        assert edge_tuples(t) == edge_tuples(g)

    def test_result_is_spanning_tree(self):
        g = gen_torus(4, 2)
        for seed in range(25):
            validate_spanning_tree(sample_ust(g, seed))

    def test_triangle_uniform(self):
        # The triangle has exactly 3 spanning trees; each should appear
        # about a third of the time.
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert len(enumerate_spanning_trees(3, g.edges)) == 3
        draws = 3000
        counts = collections.Counter(edge_tuples(sample_ust(g, s)) for s in range(draws))
        assert len(counts) == 3
        band = binomial_band(1 / 3, draws)
        for c in counts.values():
            assert abs(c / draws - 1 / 3) <= band

    def test_tree_is_a_graph_with_its_host(self):
        g = gen_torus(4, 2)
        t = sample_ust(g, 3)
        assert isinstance(t, Graph)
        assert t.graph is g and t.n == g.n and t.m == g.n - 1
        assert t.degrees.sum() == 2 * t.m

    def test_deterministic_in_seed(self):
        g = gen_torus(4, 2)
        assert edge_tuples(sample_ust(g, 99)) == edge_tuples(sample_ust(g, 99))

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            sample_ust(g, 0)

    # sha256 over sample_ust(g, s).edges bytes for s = 0..199: any change to
    # which random numbers a walk reads shows here. K5 and C10 were taken
    # when every draw began with a full 4096-uniform block; K64 and the
    # 24x24 torus when the walk read neighbors through ``indices.item``.
    # K64 is above the list cutoff of ``Graph._csr_lists``, so its walk reads
    # a memoryview; the torus walks take 8k-18k steps, past the first block
    # of 4n = 2304 uniforms.
    @pytest.mark.parametrize(
        "g, digest",
        [
            (gen_complete(5), "d1b61c9550dad70c4538c46a35519aec68b0648bf447fa7c4e9d21c2682056c6"),
            (
                build_graph(10, [(i, (i + 1) % 10) for i in range(10)]),
                "95ffe967f02b51f988671ce5fa2c694c91c5a57d4f34551bb2ac55134ff37850",
            ),
            (gen_complete(64), "4ee9d8eddaf69d032194a3b1d6c402010f76e98e7722e6eaeb8dd68af4cd0213"),
            (gen_torus(24, 2), "9e3a75d50f3ee20205b4f926692f597fd94fa6444def0edbd033d3dd5a30a696"),
        ],
        ids=["K5", "C10", "K64", "torus24"],
    )
    def test_small_graph_trees_pinned(self, g, digest):
        h = hashlib.sha256()
        for s in range(200):
            h.update(sample_ust(g, s).edges.astype("<i8").tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "g, view",
        [(gen_torus(6, 2), list), (gen_complete(64), memoryview)],
        ids=["list", "memoryview"],
    )
    def test_pickled_graph_draws_without_its_cached_view(self, g, view):
        want = sample_ust(g, 5)
        assert type(g._csr_lists[2]) is view
        back = pickle.loads(pickle.dumps(g))
        assert "_csr_lists" not in back.__dict__
        np.testing.assert_array_equal(sample_ust(back, 5).parent, want.parent)
        np.testing.assert_array_equal(sample_ust(back, 5).edges, want.edges)


def _matrix_tree_count(g) -> int:
    """Spanning-tree count by the matrix-tree theorem (reduced Laplacian)."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, v] = lap[v, u] = -1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    return round(np.linalg.det(lap[1:, 1:]))


class TestSampleUstExact:
    """Every spanning tree of a tiny graph is drawn with probability 1/tau(G)."""

    GRAPHS = {
        "K4": (gen_complete(4), 16),
        "5-cycle + chord": (
            build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]),
            11,
        ),
        "2x3 grid": (
            build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]),
            15,
        ),
    }
    DRAWS = 6000  # seeds 0..DRAWS-1, fixed once

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_enumeration_matches_matrix_tree(self, name):
        g, count = self.GRAPHS[name]
        assert len(enumerate_spanning_trees(g.n, g.edges)) == count
        assert _matrix_tree_count(g) == count

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_draw_frequencies_uniform(self, name):
        # Pearson chi-square against the uniform law on all tau(G) trees,
        # with tau(G) - 1 degrees of freedom; the test fails when the upper
        # tail probability falls below 0.001.
        g, count = self.GRAPHS[name]
        trees = enumerate_spanning_trees(g.n, g.edges)
        counts = collections.Counter(
            edge_tuples(sample_ust(g, s)) for s in range(self.DRAWS)
        )
        assert set(counts) <= set(trees)
        observed = np.array([counts[t] for t in trees], dtype=float)
        expected = self.DRAWS / count
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, count - 1) >= 1e-3, (name, chi2)


class TestTreeEquality:
    def test_rebuilt_tree_equals_the_draw(self):
        t = sample_ust(gen_torus(4, 2), 3)
        rebuilt = build_spanning_tree(gen_torus(4, 2), t.edges.tolist())
        assert rebuilt == t and rebuilt.graph is not t.graph

    def test_other_draw_or_host_differs(self):
        g = gen_torus(4, 2)
        t = sample_ust(g, 3)
        assert sample_ust(g, 4) != t
        # Same edges, hosted by the tree's own edge set instead of the torus.
        assert build_spanning_tree(build_graph(g.n, t.edges), t.edges) != t
        assert build_graph(g.n, t.edges) != t

    def test_pickle_round_trip(self):
        t = sample_ust(gen_torus(4, 2), 3)
        back = pickle.loads(pickle.dumps(t))
        assert back == t and back is not t and back.graph == t.graph

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_keeps_edges_read_only(self, protocol):
        t = sample_ust(gen_torus(4, 2), 3)
        back = pickle.loads(pickle.dumps(t, protocol=protocol))
        assert set(back.__dict__) == {"graph", "parent"}
        assert back == t and back.graph == t.graph
        assert not back.parent.flags.writeable
        assert not back.edges.flags.writeable
        assert not back.graph.edges.flags.writeable


class TestBfsTree:
    def test_four_cycle_from_zero(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        t = bfs_spanning_tree(g, 0)
        assert edge_tuples(t) == ((0, 1), (0, 3), (1, 2))

    def test_complete_graph_is_star(self):
        g = gen_complete(5)
        t = bfs_spanning_tree(g, 2)
        assert edge_tuples(t) == tuple(sorted((min(2, v), max(2, v)) for v in [0, 1, 3, 4]))

    @pytest.mark.parametrize("kind", ["torus", "knn"])
    def test_other_root_gives_its_search_tree_rooted_at_zero(self, kind):
        g = _host(kind)
        ptr, nbrs = (a.tolist() for a in g.csr)
        for root in (1, 7, 55, g.n - 1):
            parent = _bfs(ptr, nbrs, root)[0]
            child = [v for v in range(g.n) if v != root]
            want = {(min(v, parent[v]), max(v, parent[v])) for v in child}
            t = bfs_spanning_tree(g, root)
            assert t.parent[0] == -1 and set(edge_tuples(t)) == want
            validate_spanning_tree(t)

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_spanning_tree(gen_complete(3), 3)

    def test_second_call_returns_the_kept_tree_without_a_search(self, monkeypatch):
        g = gen_torus(5, 2)
        t = bfs_spanning_tree(g)

        def must_not_run(*args):
            raise AssertionError("the kept tree was searched again")

        monkeypatch.setattr(trees, "require_connected", must_not_run)
        monkeypatch.setattr(trees, "_bfs", must_not_run)
        assert bfs_spanning_tree(g) is t

    def test_each_root_keeps_its_own_tree(self):
        g = gen_complete(5)
        t0, t2 = bfs_spanning_tree(g, 0), bfs_spanning_tree(g, 2)
        assert t0 != t2
        assert bfs_spanning_tree(g, 0) is t0 and bfs_spanning_tree(g, 2) is t2
        assert edge_tuples(t0) == ((0, 1), (0, 2), (0, 3), (0, 4))
        assert edge_tuples(t2) == ((0, 2), (1, 2), (2, 3), (2, 4))

    def test_pickled_graph_keeps_no_tree(self):
        g = gen_torus(5, 2)
        t = bfs_spanning_tree(g)
        back = pickle.loads(pickle.dumps(g))
        assert "_bfs_trees" not in back.__dict__
        again = bfs_spanning_tree(back)
        assert again == t and again is not t


class TestTreeCut:
    def test_tree_cut_at_most_graph_cut(self):
        rng = np.random.default_rng(7)
        g = gen_torus(4, 2)
        for seed in range(40):
            t = sample_ust(g, seed)
            x = (rng.random(g.n) < 0.5).astype(float)
            assert cut_size(t, x) <= cut_size(g, x)

    def test_known_value(self):
        t = tree_on(4, [(0, 1), (1, 2), (2, 3)])
        x = np.array([1.0, 1.0, 0.0, 0.0])
        assert cut_size(t, x) == 1


class TestTreeIO:
    def test_roundtrip(self, tmp_path):
        g = gen_torus(4, 2)
        t = sample_ust(g, 5)
        path = tmp_path / "tree.txt"
        write_tree(t, path)
        back = read_tree(path, g)
        assert edge_tuples(back) == edge_tuples(t)

    def test_file_is_tag_then_edge_list(self, tmp_path):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        path = tmp_path / "tree.txt"
        write_tree(bfs_spanning_tree(g), path)
        digest = hashlib.sha256(b"3 3\n0 1\n0 2\n1 2\n").hexdigest()
        assert path.read_bytes() == f"# tree-of: {digest}\n3 2\n0 1\n0 2\n".encode()

    def test_digest_mismatch_rejected(self, tmp_path):
        g = gen_torus(4, 2)
        other = gen_torus(5, 2)
        t = sample_ust(g, 5)
        path = tmp_path / "tree.txt"
        write_tree(t, path)
        with pytest.raises(ValueError, match="digest"):
            read_tree(path, other)


def _host(kind):
    return gen_torus(16, 2) if kind == "torus" else gen_knn(200, 6, 2, 3)[0]


def _tree(source, kind, arg, tmp_path):
    g = _host(kind)
    if source == "ust":
        return sample_ust(g, arg)
    if source == "bfs":
        return bfs_spanning_tree(g, arg)
    if source == "edges":
        return build_spanning_tree(g, sample_ust(g, arg).edges[::-1])
    path = tmp_path / "tree.txt"
    write_tree(sample_ust(g, arg), path)
    return read_tree(path, g)


class TestParent:
    @pytest.mark.parametrize(
        "source, kind, arg",
        [("ust", kind, seed) for kind in ("torus", "knn") for seed in range(5)]
        + [("bfs", "knn", 0), ("bfs", "knn", 5), ("edges", "torus", 9), ("file", "knn", 11)],
    )
    def test_roots_the_tree_at_zero(self, source, kind, arg, tmp_path):
        t = _tree(source, kind, arg, tmp_path)
        parent = t.parent
        assert parent.dtype == np.int64 and parent[0] == -1
        child = np.arange(1, t.n)
        pairs = zip(np.minimum(parent[child], child).tolist(), np.maximum(parent[child], child).tolist())
        assert set(pairs) == set(edge_tuples(t))
        ptr, nbrs = (a.tolist() for a in t.csr)
        assert parent.tolist() == _bfs(ptr, nbrs, 0)[0]
        with pytest.raises(ValueError, match="read-only"):
            parent[1] = 0
        assert pickle.loads(pickle.dumps(t)).parent.tolist() == parent.tolist()

    @pytest.mark.parametrize("kind", ["torus", "knn"])
    def test_builder_never_builds_the_tree_csr(self, kind):
        # Nor the edges: a trial's draw, its basis and a balance walk read
        # only the parent array.
        g = _host(kind)
        cell = CellSpec(family="torus", side=4, mu_grid=(1.0,))
        for seed, kind in enumerate(["ust"] * 3 + ["bfs"]):
            _, t, _, _ = _draw(g, cell, kind, math.inf, np.random.default_rng(seed))
            build_basis(t)
            find_balance_walk(t)
            assert "csr" not in t.__dict__ and "edges" not in t.__dict__

    @pytest.mark.parametrize("count", [15, 32], ids=["disconnected", "cyclic"])
    def test_non_tree_fails_loudly(self, count):
        # Fifteen torus edges on sixteen vertices leave a vertex out; all 32
        # hold cycles. Neither may become a tree.
        g = gen_torus(4, 2)
        with pytest.raises(ValueError, match="connect" if count == 15 else "edges"):
            build_spanning_tree(g, g.edges[:count])

    @pytest.mark.parametrize(
        "parent, match",
        [
            ([-1, 2, 1, 0, 3], "not a tree"),
            ([-1, -1, 0, 2, 3], "not a tree"),
            ([-1, 0, 1, 2], "vertices"),
            ([1, 0, 1, 2, 3], "not a tree"),
            ([-1, 0, 1, 2, 5], "not a tree"),
            ([-1, 0, 1, 4, 4], "not a tree"),
        ],
        ids=["two-cycle", "second-root", "wrong-length", "rooted-elsewhere", "out-of-range", "self-loop"],
    )
    def test_malformed_parent_fails_loudly(self, parent, match):
        # The parent array is the tree's only stored form; no use may root a
        # parent array that is not a tree on the host's vertices rooted at 0.
        t = SpanningTree(gen_complete(5), parent)
        for use in (build_basis, find_balance_walk, validate_spanning_tree):
            with pytest.raises(ValueError, match=match):
                use(t)
