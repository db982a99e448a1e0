"""Effective resistance: exact values and identities."""

import numpy as np
import pytest

from treewavelets import (
    DisconnectedGraphError,
    all_edge_resistances,
    build_graph,
    gen_complete,
    gen_knn,
    gen_torus,
    laplacian,
)


class TestLaplacian:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        want = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
        np.testing.assert_array_equal(laplacian(g), want)

    def test_row_sums_vanish(self):
        g = gen_torus(4, 2)
        np.testing.assert_allclose(laplacian(g).sum(axis=1), 0.0)


class TestEdgeResistances:
    @pytest.mark.parametrize(
        "g",
        [
            gen_knn(25, 3, 2, 0)[0],
            gen_torus(5, 2),
            gen_complete(12),
            build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        ],
        ids=["knn25", "torus5x5", "K12", "cycle4"],
    )
    def test_matches_pseudoinverse_reference(self, g):
        p = np.linalg.pinv(laplacian(g))
        u, v = g.edges.T
        want = p[u, u] + p[v, v] - 2.0 * p[u, v]
        np.testing.assert_allclose(all_edge_resistances(g).edge_resistances, want,
                                   rtol=1e-12, atol=0)

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

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            all_edge_resistances(g)

    def test_single_vertex_has_no_edges(self):
        prof = all_edge_resistances(build_graph(1, []))
        assert prof.edge_resistances.dtype == np.float64 and prof.edge_resistances.shape == (0,)
        assert prof.total == 0.0 and prof.max_edge_resistance == 0.0
