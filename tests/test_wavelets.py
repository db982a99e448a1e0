"""Wavelet construction: orthonormality, sparsity, and activation bounds."""

import gc
import hashlib
import math
import pickle
import weakref

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
    gen_complete,
    gen_knn,
    gen_torus,
    sample_ust,
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


def components_without(part, edges, removed):
    """Vertex sets of the pieces of the subtree on part once removed is deleted."""
    nbrs = {v: [] for v in part if v != removed}
    for u, v in edges:
        if u in nbrs and v in nbrs:
            nbrs[u].append(v)
            nbrs[v].append(u)
    comps = []
    for start in nbrs:
        if any(start in c for c in comps):
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


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

    @pytest.mark.parametrize("p", range(2, 41))
    def test_star_haar_order_matches_recursive_oracle(self, p):
        # Star on center 0 and leaves 1..p: the center joins leaf 1, so the
        # groups are {0, 1}, {2}, ..., {p}, halved at depth 1 with pivot 0;
        # then the pair {0, 1} at depth 2 with pivot -1.
        def halve(bounds, out):
            if len(bounds) > 2:
                h = len(bounds) // 2
                out.append((bounds[0], bounds[h], bounds[-1], 1, 0))
                halve(bounds[: h + 1], out)
                halve(bounds[h:], out)
            return out

        expect = [(0, p + 1, p + 1, 0, -1)]
        expect += halve([0, *range(2, p + 2)], [])
        expect.append((0, 1, 2, 2, -1))
        b = build_basis(tree_on(p + 1, [(0, i) for i in range(1, p + 1)]))
        got = np.column_stack((b.lo, b.mid, b.hi, b.depths, b.pivots))
        assert got.tolist() == [list(e) for e in expect]
        assert b.perm.tolist() == list(range(p + 1))


PINNED_GRAPHS = {
    "torus16": lambda: gen_torus(16, 2),
    "torus64": lambda: gen_torus(64, 2),
    "knn200": lambda: gen_knn(200, 6, 2, 3)[0],
    "K1024": lambda: gen_complete(1024),
}


def pinned_tree(name):
    """Tree named ``prufer-<n>`` (seed 0) or ``<graph>-bfs`` / ``<graph>-ust<seed>``."""
    family, kind = name.split("-")
    if family == "prufer":
        return random_tree(int(kind), np.random.default_rng(0))
    g = PINNED_GRAPHS[family]()
    return bfs_spanning_tree(g) if kind == "bfs" else sample_ust(g, int(kind[3:]))


# sha256 over the int64 indptr and indices, the float64 data, the depths and
# the pivots of each basis, as the element-by-element builder of earlier
# versions wrote them: element order and value bits are pinned. The last two,
# the shapes the benchmark builds, were taken with the builder that emitted
# every element from inside its split loop, before elements were expanded
# from per-group-count templates.
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
    "torus64-bfs": "120df85dda7b7305d6c2dcc5103892792b0ccc97fe1f8b8081aa47a9688a63ba",
    "K1024-ust0": "ac2e2935609c2a4279dff108ac34bea8d03bc2ff8659f87cd5d27bd756aa4f89",
}


def shuffled(n, edges, seed):
    """The tree on edges with its vertices renamed by a seeded permutation."""
    name = np.random.default_rng(seed).permutation(n)
    return tree_on(n, name[np.asarray(edges, dtype=np.int64).reshape(-1, 2)])


def tie_tree(name):
    """Trees whose parts often have two centroids.

    ``path-<n>`` is a path through the vertices in a seeded random order;
    ``dstar-<k>`` joins two centers of k leaves each; ``caterpillar-<s>``
    hangs one leaf off each of s spine vertices. A trailing ``s`` shuffles
    the labels of the last two, so a part's smallest vertex is not always
    nearest vertex 0.
    """
    family, kind = name.split("-")
    size = int(kind.rstrip("s"))
    if family == "path":
        return shuffled(size, [(i, i + 1) for i in range(size - 1)], size)
    if family == "dstar":
        n, edges = 2 * size + 2, [(0, 1)]
        edges += [(c, 2 + c * size + i) for c in (0, 1) for i in range(size)]
    else:
        n = 2 * size
        edges = [(i, i + 1) for i in range(size - 1)] + [(i, size + i) for i in range(size)]
    return shuffled(n, edges, size) if kind.endswith("s") else tree_on(n, edges)


def basis_digest(b):
    """sha256 over the int64 indptr and indices, the float64 data, the depths and the pivots."""
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
    return h.hexdigest()


# Digests of tie_tree bases, taken with the builder that re-rooted every part
# at its smallest vertex: when a part has two centroids, the split is at the
# one on that vertex's side.
TIE_PINNED = {
    "path-3": "d0b06e796f636a077c1cb378e1740be7f56d242b056eb8bdab6658e22e49798b",
    "path-4": "adb4e19a67d82393b9d8284e271e55946c160d4b4dc0aa8e46ca399ff1abecba",
    "path-5": "e02fb6f97247a1d5f6f1d0359f79d2adaa6c74674b9007624104ec2d3a95a9c9",
    "path-6": "ac6e5ea17939bc9ecd2b3b22af1ae989e755611eefce8895d77141f81278f3bf",
    "path-7": "b5b64212768e655b6c65376da8810bb5843258787017d055c36e0ca51ddacf44",
    "path-8": "0387b8203d3e32ff45a9bda1848921950a03999c66d09df2d26d7bc9822c1ef0",
    "path-9": "24b58ec131dd938c60a8e9ae11f0569b53fad66555d2caadd7a9a3b0188562eb",
    "path-10": "311defb3d60cf814caec3562b35225be818879b3a026b28078aa46935e0469aa",
    "path-11": "e0f9c18bc6003d75d435d8ca911f652f6d2c181d13b5b2e9dfa13b89269aaf38",
    "path-12": "06005aa0be08d9e85571b5b512084f521c7ed407ee019c933b506e70c72fcfd0",
    "path-13": "9eb7fd3593a72dad47ab37a5dca2a69ad3e25801d7d9a45ef1a357e58e6a8ec0",
    "path-14": "8a24f7e45cc72de09dbf086b97e0806271c00c22668162e2773deb706f88656c",
    "path-15": "75b16343eb4f79f5011d387d21647941a55c8ebe1ac82ce1f1ea5caee8c5fe06",
    "path-16": "dc41a8557041ef420c504f05770883a4098fe6ed2c2f1e567ae2541d32d61890",
    "path-17": "3985cdd87921e1f9fb136508aeeb345a1b059e69700d81d87d65a558fb1bcd76",
    "path-18": "d3eaccbf75810fa30b50824ba925cebb0944ebdd4144f948275b8d943d40a717",
    "path-19": "c4d8f1ee6f96e2607d65f7389a0399dacb3176ca9ba3e1f2fb46567e4273933c",
    "path-20": "379b6015d82ac165eea64a0ec45baf1647b7548eecc2cc73cd43490903d9407e",
    "path-21": "8115a878dfd4a2e1cdc72cb81d24064a0351b87adff6689b796383e08e5a5739",
    "path-22": "3c9a17f26d2d6eed40900d4aa5c7139f901773d9a6428fd45cd231558717f5bb",
    "path-23": "62736061c816ef27dd0207ebf581462b26bd3c11907df75730696034ffc659ca",
    "path-24": "cf08dcbe76f672bbd097ecba5af5f98a60ac3797414855dc7bce4d2ffa5e13e1",
    "path-25": "81d4c6c358123626be751262662284bb34725b98a922d5abe0eef94b98ac4228",
    "path-26": "aa1a350698e17742ba30dc3fba11b7c0b2df201beb0fc637aeaf433948f55f32",
    "path-27": "df8e16e9dd57a705d798f1d1bb72bb2b2016b2d37334a7a498bffa5455d10ba2",
    "path-28": "e1963352ad257e2a054e0b3658374e52ff5a049c290534ee267a147e8f270964",
    "path-29": "3cc7f50bde7c976cfa907655b19b743f010c50c27dcc2111737979d733c626d8",
    "path-30": "2a3f3c451679d30ffd4587cd1085a565247c46a7f3c49903d7219a746ddca079",
    "path-31": "a2ba3337632cc2218f976dfeb9ab2c8343deebddb3e8b87fe81a57d55060e48a",
    "path-32": "8d8b07fe4079717c1ecb2f81411342223d90896a0406301416067f7ab3e98e33",
    "path-33": "9a90649c50677fffed9722ee0ad502de242125aa3a54818b2c5f322b19723ac1",
    "path-34": "20af5549cd3c70466ab4e407ee9140c16fae8e188d62bd8cabcabbecbe62e9e3",
    "path-35": "53dad518e92672db2382031a3c33aa8806877456b8824bd74080d8dcd6a6ebe0",
    "path-36": "ab9f1d6180c5420cfab796cf18660cc14c242d62318a273514e2673abf3ffe84",
    "path-37": "83c8080c77b04fe52a76a8bbb41cf578f82313953a204acc450ca1eb0ee54716",
    "path-38": "b86d7b6d6d42cc7f39aaedede4b42bc1d59057561a628d79adb45bf1e23d3514",
    "path-39": "406f71ee0c3a8322cd1b7bbd02748193928f808c68da88bb37ce2566ff62c110",
    "path-40": "f250cfd68a6a5c140b69c1c6ea8ed3fa73c6752ffba3f66a338d56f66d287559",
    "dstar-4": "751afb5a38ee263160a22b75595a74adcf043e9451c313927757fd32b0d773c4",
    "dstar-4s": "7c5933ec799d87697fbd3e66dbff45a7ac5f0e9f2ab7c64ade9f43d66677dc77",
    "caterpillar-16": "757152a9debf1480bdf23b844ef2d51e70c82d4f8ee385ae198457e483f1b57c",
    "caterpillar-16s": "0ad709469911ea9fff25abbcac19502d94e69b308c6c80aabeb5d0cc13b0164e",
}


class TestPinnedBasis:
    @pytest.mark.parametrize("name", list(PINNED))
    def test_digest_matches(self, name):
        assert basis_digest(build_basis(pinned_tree(name))) == PINNED[name]

    @pytest.mark.parametrize("name", list(TIE_PINNED))
    def test_tie_digest_matches(self, name):
        assert basis_digest(build_basis(tie_tree(name))) == TIE_PINNED[name]

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
            np.testing.assert_array_equal(d, b.matrix.toarray())

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

    def test_every_pivot_is_the_centroid_on_the_smallest_vertex_side(self):
        # The widest element carrying a pivot spans the part it split.
        # Removing the pivot must leave no component above half the part,
        # and when one is exactly half (the part has two centroids) the
        # part's smallest vertex must lie outside it.
        rng = np.random.default_rng(11)
        ties = 0
        for _ in range(500):
            n = int(rng.integers(3, 60))
            edges = random_tree_edges(n, rng)
            b = build_basis(tree_on(n, edges))
            for p in set(b.pivots.tolist()) - {-1}:
                rows = np.flatnonzero(b.pivots == p)
                i = rows[np.argmax(b.hi[rows] - b.lo[rows])]
                part = set(b.perm[b.lo[i] : b.hi[i]].tolist())
                largest = max(components_without(part, edges, p), key=len)
                assert 2 * len(largest) <= len(part)
                if 2 * len(largest) == len(part):
                    ties += 1
                    assert min(part) not in largest
        assert ties > 1000

    def test_build_leaves_no_reference_cycles(self):
        # A cycle would keep a finished build's lists alive until the
        # garbage collector runs, which shows as peak memory on big trees.
        t = bfs_spanning_tree(gen_torus(8, 2))
        gc.collect()
        gc.disable()
        try:
            basis = build_basis(t)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(basis) == t.n

    def test_bases_of_one_tree_share_its_read_only_layout(self):
        t = bfs_spanning_tree(gen_torus(6, 2))
        a, b = build_basis(t), build_basis(t)
        fresh = build_basis(pickle.loads(pickle.dumps(t)))
        assert a is not b and a.tree is b.tree is t
        for name in ("perm", "lo", "mid", "hi", "depths", "pivots", "pos", "neg"):
            assert getattr(a, name) is getattr(b, name)
            np.testing.assert_array_equal(getattr(fresh, name), getattr(a, name))
            with pytest.raises(ValueError, match="read-only"):
                getattr(a, name)[0] = 1

    def test_drawn_tree_is_freed_without_the_collector(self):
        # The tree keeps its layout arrays, not its basis: a basis holds its
        # tree, so a tree holding its basis would be a cycle on every draw.
        tree = sample_ust(gen_torus(6, 2), 1)
        gc.collect()
        gc.disable()
        try:
            basis = build_basis(tree)
            ref = weakref.ref(tree)
            del basis, tree
            assert ref() is None
        finally:
            gc.enable()

    def test_deterministic_for_fixed_tree(self):
        t = tree_on(7, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
        d1 = build_basis(t).to_dense()
        d2 = build_basis(t).to_dense()
        np.testing.assert_array_equal(d1, d2)


TRANSFORM_GRAPHS = {
    "torus64x64": lambda: gen_torus(64, 2),
    "knn500": lambda: gen_knn(500, 8, 2, 51)[0],
    "K256": lambda: gen_complete(256),
}


class TestMatrixFreeTransform:
    """apply_basis against the CSR product it replaced, to 1e-12 of max |y|."""

    @staticmethod
    def check(b, rng):
        for offset in (0.0, 100.0):
            y = rng.standard_normal(b.n) + offset
            atol = 1e-12 * max(1.0, np.abs(y).max())
            np.testing.assert_allclose(apply_basis(b, y), b.matrix @ y, rtol=0, atol=atol)
        # Each support is a run of perm, listed by ascending vertex.
        runs = [np.sort(b.perm[lo:hi]) for lo, hi in zip(b.lo, b.hi)]
        np.testing.assert_array_equal(b.vertices, np.concatenate(runs))

    @pytest.mark.parametrize("tree", ["ust", "bfs"])
    @pytest.mark.parametrize("graph", sorted(TRANSFORM_GRAPHS))
    def test_matches_matrix_product(self, graph, tree):
        g = TRANSFORM_GRAPHS[graph]()
        b = build_basis(sample_ust(g, rng=3) if tree == "ust" else bfs_spanning_tree(g))
        assert "matrix" not in b.__dict__
        self.check(b, np.random.default_rng(8))
        assert "matrix" in b.__dict__

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_trees(self, n):
        b = build_basis(tree_on(n, [(0, 1)][: n - 1]))
        assert "matrix" not in b.__dict__
        self.check(b, np.random.default_rng(n))


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
            budget = cut_size(t, x) * activation_bound(t)
            assert basis_sparsity(b, x) <= budget

    def test_general_signal_adds_one(self):
        rng = np.random.default_rng(6)
        for _ in range(150):
            n = int(rng.integers(2, 50))
            t = random_tree(n, rng)
            b = build_basis(t)
            x = (rng.random(n) < 0.5).astype(float)
            budget = cut_size(t, x) * activation_bound(t) + 1
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
            acts = edge_activations(build_basis(t))
            assert acts.shape == (n - 1,)
            assert acts.max() <= activation_bound(t)

    def test_path_eight_hits_budget_exactly(self):
        t = tree_on(8, [(i, i + 1) for i in range(7)])
        acts = edge_activations(build_basis(t))
        assert int(acts.max()) == 3 == activation_bound(t)

    def test_balanced_binary_fifteen(self):
        # Root 0, vertex i has children 2i+1 and 2i+2; degree 3, n = 15.
        edges = [(i, 2 * i + 1) for i in range(7)] + [(i, 2 * i + 2) for i in range(7)]
        t = tree_on(15, edges)
        assert activation_bound(t) == 8
        acts = edge_activations(build_basis(t))
        assert int(acts.max()) <= 8

    def test_star_engagements(self):
        t = tree_on(5, [(0, i) for i in range(1, 5)])
        acts = edge_activations(build_basis(t))
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
            np.testing.assert_array_equal(edge_activations(b), expected)

    def test_two_vertex_edge_activated_once(self):
        t = tree_on(2, [(0, 1)])
        acts = edge_activations(build_basis(t))
        assert acts.tolist() == [1]


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
