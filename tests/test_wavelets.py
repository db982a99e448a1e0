"""Wavelet construction: orthonormality, sparsity, and activation bounds."""

import hashlib
import math

import numpy as np
import pytest

from helpers import random_tree_edges
from treewavelets import (
    activation_bound,
    apply_basis,
    basis_sparsity,
    bfs_spanning_tree,
    build_basis,
    build_graph,
    build_spanning_tree,
    cut_size,
    edge_activations,
    find_balance,
    gen_complete,
    gen_knn,
    gen_torus,
    sample_ust,
    tree_cut_size,
    write_basis_csv,
)


def tree_on(n, edges):
    g = build_graph(n, edges)
    return build_spanning_tree(g, edges)


def random_tree(n, rng):
    return tree_on(n, random_tree_edges(n, rng))


def spider(center, arms):
    """Tree on a center vertex and paths hanging off it, each arm a vertex list."""
    edges = []
    for arm in arms:
        edges.append((min(center, arm[0]), max(center, arm[0])))
        edges += [(min(a, b), max(a, b)) for a, b in zip(arm, arm[1:])]
    return tree_on(1 + sum(len(arm) for arm in arms), edges)


def rows_on(basis, vertices):
    """Dense rows of the zero-sum elements whose support lies in the vertices,
    in basis order."""
    d = basis.to_dense()
    outside = np.setdiff1d(np.arange(basis.n), vertices)
    keep = [i for i in range(1, len(basis)) if not d[i, outside].any()]
    return d[np.ix_(keep, vertices)]


class TestFormWavelets:
    """The values build_basis lays over the groups of one split."""

    def test_two_singletons(self):
        # A two-vertex subtree gets exactly 1/np.sqrt(2), not np.sqrt(0.5).
        b = build_basis(tree_on(2, [(0, 1)]))
        r = 1 / np.sqrt(2.0)
        np.testing.assert_array_equal(b.to_dense()[1], [r, -r])

    def test_first_group_gets_positive_sign(self):
        # Groups are ordered by smallest vertex and the first half is
        # positive, so every element is positive on its smallest vertex.
        rng = np.random.default_rng(9)
        for n in (2, 3, 6, 19, 50):
            d = build_basis(random_tree(n, rng)).to_dense()
            for row in d[1:]:
                support = np.flatnonzero(row)
                assert row[support[0]] > 0
                assert (row[support] < 0).any()

    def test_one_against_three(self):
        # Center 7 joins the first singleton [0]; the groups are [0, 7],
        # [1, 2], [3], [4, 5, 6], and the last pair splits 1 against 3:
        # sqrt(n2/(n1 (n1+n2))) on the small side, -sqrt(n1/(n2 (n1+n2)))
        # on the large one.
        b = build_basis(spider(7, [[0], [1, 2], [3], [4, 5, 6]]))
        row = rows_on(b, [3, 4, 5, 6])[0]
        np.testing.assert_allclose(
            row, [math.sqrt(3) / 2, -math.sqrt(3) / 6, -math.sqrt(3) / 6, -math.sqrt(3) / 6]
        )

    def test_four_singletons_give_haar_triple(self):
        # Star with 8 leaves: the groups are [0, 1], [2], ..., [8], and the
        # second half of the group list is four singletons.
        b = build_basis(tree_on(9, [(0, i) for i in range(1, 9)]))
        mat = rows_on(b, [5, 6, 7, 8])
        assert len(mat) == 3
        np.testing.assert_allclose(mat @ mat.T, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(mat.sum(axis=1), 0.0, atol=1e-15)
        np.testing.assert_allclose(mat[0], [0.5, 0.5, -0.5, -0.5])

    def test_single_component_yields_nothing(self):
        # Only the center's two-vertex group [0, 1] is split again.
        b = build_basis(tree_on(9, [(0, i) for i in range(1, 9)]))
        assert b.depths.tolist() == [0] + [1] * 7 + [2]
        assert b.to_dense()[8, [0, 1]].tolist() == [1 / np.sqrt(2.0), -1 / np.sqrt(2.0)]


def pinned_tree(name):
    """Tree named ``prufer-<n>`` (seed 0) or ``<graph>-bfs`` / ``<graph>-ust<seed>``."""
    family, kind = name.split("-")
    if family == "prufer":
        return random_tree(int(kind), np.random.default_rng(0))
    g = gen_torus(16, 2) if family == "torus16" else gen_knn(200, 6, 2, 3)[0]
    return bfs_spanning_tree(g) if kind == "bfs" else sample_ust(g, int(kind[3:]))


# sha256 over the int64 indptr and indices, the float64 data, the depths and
# the pivots of each basis, as the element-by-element builder of earlier
# versions wrote them: element order and value bits are pinned.
PINNED = {
    "prufer-1": "f6abecb82326249e151a2fd66682396cffca1112451e19d26e4191090277024c",
    "prufer-2": "2cb82577b214a214bf3b47bc3e92deeeb155f4fe814a1bb2799e19e3a8915887",
    "prufer-3": "f9e03b2876eedf407479fc1097ff8a6396cc70b1b1654a77e5f466704f0559b7",
    "prufer-5": "39a5fcab733a11b2990106818bf1f81c281856d14b3c30630bdeb497cc6b9827",
    "prufer-17": "538b924a36debf6b843140cad3642971280844e7fde28c96cc3129f1bc20ff01",
    "prufer-64": "4440b16caf29c8e4a9ae1118e68b54e0acfb835c21932fee07ff6b3e77475b5b",
    "prufer-257": "129cafb192eab4c6b3a19a69ed3f59e10dea27a85daaef8b488817cbe5436259",
    "torus16-bfs": "1a89475b643c7509e6a8ba3c6c7c63bfcdfa3b230d66b76012d4791c4f2bec53",
    "torus16-ust0": "36ec198b157475abd0952b912651f3a88b5befd443e4b5b74b91d9ce0628b056",
    "torus16-ust1": "77dad5a70830c1f2f325beb0290bc08b2de2a2748ec1bcfb24d6f22b0300b75e",
    "torus16-ust2": "2cff5f7b937cccabf78dd9e81f96673b27504fefec785c358271631f99fb08a2",
    "knn200-bfs": "cde83c8aed1bbd1c712722dc1671973e3b8c42857ea5911dbc95c379a2849627",
    "knn200-ust0": "0b781a7da152ec34a4a90bc1e088b04cc9ff9eaaa02def4bc8600ac63c7f5413",
    "knn200-ust1": "78077b7f5ef21a8433334925e08d958772fe0fb62dbea5f59ba7a9d759a70cfa",
    "knn200-ust2": "8d7fd1f068128ca0995b49cd2e33303ca451daae434b53fdb75619396eeacb6f",
}


class TestPinnedBasis:
    @pytest.mark.parametrize("name", list(PINNED))
    def test_digest_matches(self, name):
        b = build_basis(pinned_tree(name))
        m = b.matrix
        h = hashlib.sha256()
        for a, dtype in (
            (m.indptr, np.int64),
            (m.indices, np.int64),
            (m.data, np.float64),
            (b.depths, np.int64),
            (b.pivots, np.int64),
        ):
            h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
        assert h.hexdigest() == PINNED[name]

    def test_ranges_nest_and_pivots_touch_them(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4, 9, 30, 77):
            t = random_tree(n, rng)
            b = build_basis(t)
            assert sorted(b.perm.tolist()) == list(range(n))
            d = b.to_dense()
            for i in range(1, n):
                lo, mid, hi, piv = (int(x[i]) for x in (b.lo, b.mid, b.hi, b.pivots))
                assert lo < mid < hi
                np.testing.assert_array_equal(np.flatnonzero(d[i] > 0), np.sort(b.perm[lo:mid]))
                np.testing.assert_array_equal(np.flatnonzero(d[i] < 0), np.sort(b.perm[mid:hi]))
                for j in range(1, n):
                    a, c = (int(b.lo[j]), int(b.hi[j]))
                    assert c <= lo or hi <= a or lo <= a < c <= hi or a <= lo < hi <= c
                # The augmented support is a subtree: one edge fewer than vertices.
                support = set(b.perm[lo:hi].tolist())
                if piv == -1:
                    assert hi - lo == 2
                    continue
                support.add(piv)
                inner = sum(u in support and v in support for u, v in t.edges)
                assert inner == len(support) - 1


class TestBuildBasis:
    def test_two_vertices_exact(self):
        b = build_basis(tree_on(2, [(0, 1)]))
        d = b.to_dense()
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(d, [[r, r], [r, -r]])

    def test_single_vertex(self):
        b = build_basis(tree_on(1, []))
        np.testing.assert_allclose(b.to_dense(), [[1.0]])

    def test_constant_element_first(self):
        rng = np.random.default_rng(0)
        t = random_tree(9, rng)
        b = build_basis(t)
        np.testing.assert_allclose(b.to_dense()[0], 1 / 3)
        assert b.depths[0] == 0

    def test_element_count_equals_n(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 7, 20, 61):
            assert len(build_basis(random_tree(n, rng))) == n

    def test_orthonormal_on_random_trees(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 17, 40, 83):
            b = build_basis(random_tree(n, rng))
            d = b.to_dense()
            assert np.abs(d @ d.T - np.eye(n)).max() < 1e-10

    def test_energy_preserved_and_invertible(self):
        rng = np.random.default_rng(3)
        for n in (2, 9, 33):
            b = build_basis(random_tree(n, rng))
            x = rng.standard_normal(n)
            c = apply_basis(b, x)
            assert abs(c @ c - x @ x) <= 1e-8 * (x @ x)
            np.testing.assert_allclose(b.to_dense().T @ c, x, atol=1e-10)

    def test_constant_signal_hits_only_first_element(self):
        rng = np.random.default_rng(4)
        t = random_tree(12, rng)
        c = apply_basis(build_basis(t), np.full(12, 2.5))
        np.testing.assert_allclose(c[0], 2.5 * math.sqrt(12))
        np.testing.assert_allclose(c[1:], 0.0, atol=1e-12)

    def test_first_pivot_is_the_balance_vertex(self):
        # The builder's root split and find_balance run one walk; this checks
        # they agree on 200 uniform random trees.
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = random_tree(int(rng.integers(3, 301)), rng)
            assert build_basis(t).pivots[1] == find_balance(t)

    def test_deterministic_for_fixed_tree(self):
        t = tree_on(7, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
        d1 = build_basis(t).to_dense()
        d2 = build_basis(t).to_dense()
        np.testing.assert_array_equal(d1, d2)


class TestSparsityBound:
    def test_mean_zero_indicator_sweep(self):
        # For mean-zero signals the coefficient count never exceeds the
        # graph cut times the per-edge budget.
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(2, 50))
            t = random_tree(n, rng)
            b = build_basis(t)
            x = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
            x -= x.mean()
            if np.abs(x).max() < 1e-9:
                continue
            budget = tree_cut_size(t, x) * activation_bound(t)
            assert basis_sparsity(b, x) <= budget

    def test_general_signal_adds_one(self):
        rng = np.random.default_rng(6)
        for _ in range(150):
            n = int(rng.integers(2, 50))
            t = random_tree(n, rng)
            b = build_basis(t)
            x = (rng.random(n) < 0.5).astype(float)
            budget = tree_cut_size(t, x) * activation_bound(t) + 1
            assert basis_sparsity(b, x) <= budget

    def test_graph_cut_dominates_tree_cut(self):
        rng = np.random.default_rng(7)
        g = gen_torus(4, 2)
        for seed in range(30):
            t = sample_ust(g, seed)
            b = build_basis(t)
            x = (rng.random(16) < 0.5).astype(float)
            x -= x.mean()
            if np.abs(x).max() < 1e-9:
                continue
            assert basis_sparsity(b, x) <= cut_size(g, x) * activation_bound(t)


class TestActivations:
    def test_bound_values(self):
        # max(1, ceil(log2 d)) * max(1, ceil(log2 n))
        assert activation_bound(tree_on(2, [(0, 1)])) == 1
        path8 = tree_on(8, [(i, i + 1) for i in range(7)])
        assert activation_bound(path8) == 3
        star5 = tree_on(5, [(0, i) for i in range(1, 5)])
        assert activation_bound(star5) == 6

    def test_single_vertex_zero(self):
        assert activation_bound(tree_on(1, [])) == 0

    def test_edge_activations_within_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            t = random_tree(n, rng)
            acts = edge_activations(build_basis(t), t)
            assert acts.shape == (n - 1,)
            assert acts.max() <= activation_bound(t)

    def test_path_eight_hits_budget_exactly(self):
        t = tree_on(8, [(i, i + 1) for i in range(7)])
        acts = edge_activations(build_basis(t), t)
        assert int(acts.max()) == 3 == activation_bound(t)

    def test_balanced_binary_fifteen(self):
        # Root 0, vertex i has children 2i+1 and 2i+2; degree 3, n = 15.
        edges = [(i, 2 * i + 1) for i in range(7)] + [(i, 2 * i + 2) for i in range(7)]
        t = tree_on(15, edges)
        assert activation_bound(t) == 8
        acts = edge_activations(build_basis(t), t)
        assert int(acts.max()) <= 8

    def test_star_engagements(self):
        t = tree_on(5, [(0, i) for i in range(1, 5)])
        acts = edge_activations(build_basis(t), t)
        assert int(acts.max()) <= activation_bound(t)

    def test_value_difference_count_is_not_the_bounded_quantity(self):
        # Counting elements whose values merely differ across an edge also
        # picks up support boundaries, and that count is allowed to exceed
        # the budget: on the 8-path it reaches 5, while the engagement
        # count tops out at the budget of 3.
        t = tree_on(8, [(i, i + 1) for i in range(7)])
        dense = build_basis(t).to_dense()
        ea = np.array(t.edges)
        diffs = dense[:, ea[:, 0]] - dense[:, ea[:, 1]]
        value_diff_count = (np.abs(diffs) > 1e-9).sum(axis=0).max()
        assert value_diff_count == 5 > activation_bound(t)

    def test_counts_match_membership_oracle(self):
        # Each zero-sum element's support, read from the dense matrix, plus
        # its pivot; an edge counts when both endpoints are members.
        rng = np.random.default_rng(12)
        trees = [random_tree(int(rng.integers(1, 70)), rng) for _ in range(40)]
        trees += [tree_on(9, [(0, i) for i in range(1, 9)]), tree_on(9, [(i, 8) for i in range(8)])]
        trees += [spider(7, [[0], [1, 2], [3], [4, 5, 6]]), tree_on(1, [])]
        for t in trees:
            b = build_basis(t)
            d = b.to_dense()
            expected = np.zeros(len(t.edges), dtype=np.int64)
            for i in range(1, len(b)):
                member = d[i] != 0
                if b.pivots[i] >= 0:
                    member[b.pivots[i]] = True
                expected += [member[u] and member[v] for u, v in t.edges]
            np.testing.assert_array_equal(edge_activations(b, t), expected)

    def test_two_vertex_edge_activated_once(self):
        t = tree_on(2, [(0, 1)])
        acts = edge_activations(build_basis(t), t)
        assert acts.tolist() == [1]

    def test_rebuilt_equal_tree_accepted_other_draw_rejected(self):
        g = gen_torus(4, 2)
        t = sample_ust(g, 1)
        basis = build_basis(t)
        rebuilt = build_spanning_tree(gen_torus(4, 2), t.edges)
        np.testing.assert_array_equal(edge_activations(basis, rebuilt), edge_activations(basis, t))
        with pytest.raises(ValueError, match="not built from this tree"):
            edge_activations(basis, sample_ust(g, 2))

    def test_mismatched_tree_rejected(self):
        t1 = tree_on(4, [(0, 1), (1, 2), (2, 3)])
        t2 = tree_on(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError):
            edge_activations(build_basis(t1), t2)


class TestBasisCsv:
    def test_file_reconstructs_matrix(self, tmp_path):
        t = tree_on(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        b = build_basis(t)
        path = tmp_path / "basis.csv"
        write_basis_csv(b, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "element,vertex,value,depth"
        got = np.zeros((5, 5))
        for line in lines[1:]:
            e, v, val, _ = line.split(",")
            got[int(e), int(v)] = float(val)
        np.testing.assert_array_equal(got, b.to_dense())

    def test_exact_bytes(self, tmp_path):
        # Rows in element order, vertices ascending within a row, values as
        # repr of the float, then the element's depth.
        t = tree_on(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        path = tmp_path / "basis.csv"
        write_basis_csv(build_basis(t), path)
        assert path.read_bytes() == (
            b"element,vertex,value,depth\n"
            b"0,0,0.4472135954999579,0\n"
            b"0,1,0.4472135954999579,0\n"
            b"0,2,0.4472135954999579,0\n"
            b"0,3,0.4472135954999579,0\n"
            b"0,4,0.4472135954999579,0\n"
            b"1,0,0.3651483716701107,1\n"
            b"1,1,0.3651483716701107,1\n"
            b"1,2,0.3651483716701107,1\n"
            b"1,3,-0.5477225575051661,1\n"
            b"1,4,-0.5477225575051661,1\n"
            b"2,0,0.408248290463863,1\n"
            b"2,1,0.408248290463863,1\n"
            b"2,2,-0.816496580927726,1\n"
            b"3,0,0.7071067811865475,2\n"
            b"3,1,-0.7071067811865475,2\n"
            b"4,3,0.7071067811865475,2\n"
            b"4,4,-0.7071067811865475,2\n"
        )
