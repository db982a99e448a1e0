"""Effective resistance: exact values and identities."""

import numpy as np
import pytest

from treewavelets import (
    DisconnectedGraphError,
    all_edge_resistances,
    build_graph,
    cut_resistance,
    effective_resistance,
    gen_complete,
    gen_knn,
    gen_torus,
    laplacian,
    pseudoinverse,
)


class TestLaplacian:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        want = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
        np.testing.assert_array_equal(laplacian(g), want)

    def test_row_sums_vanish(self):
        g = gen_torus(4, 2)
        np.testing.assert_allclose(laplacian(g).sum(axis=1), 0.0)


class TestPseudoinverse:
    def test_two_vertices_exact(self):
        g = build_graph(2, [(0, 1)])
        p = pseudoinverse(laplacian(g))
        np.testing.assert_allclose(p, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14)

    def test_moore_penrose_identities(self):
        g = gen_knn(25, 3, 2, 0)[0]
        lap = laplacian(g)
        p = pseudoinverse(lap)
        np.testing.assert_allclose(lap @ p @ lap, lap, atol=1e-9)
        # On a connected graph, lap† lap projects out the constant direction.
        n = g.n
        np.testing.assert_allclose(p @ lap, np.eye(n) - np.ones((n, n)) / n, atol=1e-9)

    def test_disconnected_nullspace_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="nullspace"):
            pseudoinverse(laplacian(g))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            pseudoinverse(np.zeros((2, 3)))

    def test_single_vertex(self):
        np.testing.assert_array_equal(pseudoinverse(np.zeros((1, 1))), [[0.0]])


class TestEdgeResistances:
    def test_path_endpoints_series(self):
        # Two unit resistors in series: r(0, 2) = 2.
        g = build_graph(3, [(0, 1), (1, 2)])
        prof = all_edge_resistances(g)
        assert effective_resistance(prof, 0, 2) == pytest.approx(2.0, abs=1e-12)

    def test_triangle_two_thirds(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        prof = all_edge_resistances(g)
        np.testing.assert_allclose(prof.edge_resistances, 2.0 / 3.0, atol=1e-12)

    def test_complete_graph_two_over_n(self):
        for n in (4, 5, 9):
            prof = all_edge_resistances(gen_complete(n))
            np.testing.assert_allclose(prof.edge_resistances, 2.0 / n, atol=1e-12)

    def test_torus_edge_transitive_value(self):
        # Foster's sum spread evenly over an edge-transitive graph:
        # every edge gets (n - 1) / m = 15/32 on the 4x4 torus.
        prof = all_edge_resistances(gen_torus(4, 2))
        np.testing.assert_allclose(prof.edge_resistances, 15.0 / 32.0, atol=1e-12)

    def test_tree_edges_are_unit(self):
        g = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        prof = all_edge_resistances(g)
        np.testing.assert_allclose(prof.edge_resistances, 1.0, atol=1e-12)

    def test_foster_sum(self):
        for g in (gen_torus(5, 2), gen_complete(12), gen_knn(60, 5, 2, 2)[0]):
            prof = all_edge_resistances(g)
            assert prof.total == pytest.approx(g.n - 1, abs=1e-8)

    def test_self_resistance_zero(self):
        prof = all_edge_resistances(gen_complete(4))
        assert effective_resistance(prof, 2, 2) == 0.0

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            all_edge_resistances(g)


class TestCutResistance:
    def test_complete_graph_indicator(self):
        # k(n-k) cut edges, each of resistance 2/n.
        n, k = 8, 3
        prof = all_edge_resistances(gen_complete(n))
        x = np.zeros(n)
        x[:k] = 1.0
        want = k * (n - k) * 2.0 / n
        assert cut_resistance(prof, x) == pytest.approx(want, abs=1e-10)

    def test_constant_signal_zero(self):
        prof = all_edge_resistances(gen_torus(3, 2))
        assert cut_resistance(prof, np.ones(9)) == 0.0

    def test_single_vertex_has_no_edges(self):
        prof = all_edge_resistances(build_graph(1, []))
        assert prof.edge_resistances.dtype == np.float64 and prof.edge_resistances.shape == (0,)
        assert prof.total == 0.0 and prof.max_edge_resistance == 0.0
        assert cut_resistance(prof, np.zeros(1)) == 0.0
        with pytest.raises(ValueError, match="shape"):
            cut_resistance(prof, np.zeros(2))
