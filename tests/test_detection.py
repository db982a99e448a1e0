"""Threshold, decision rule, signal samplers, and sufficient-SNR formulas."""

import inspect
import math

import numpy as np
import pytest

from treewavelets import (
    CellSpec,
    InfeasibleSignalError,
    activation_bound,
    apply_basis,
    bfs_spanning_tree,
    build_basis,
    build_graph,
    build_spanning_tree,
    cut_size,
    detect,
    gen_cluster_signal,
    gen_complete,
    gen_epsilon,
    gen_knn,
    gen_prior_signal,
    gen_torus,
    gen_two_level_signal,
    prior_support_size,
    sample_ust,
    snr_condition,
    threshold,
    ust_concentration_check,
)
from treewavelets.detection import _grow_ball


class TestThreshold:
    def test_frozen_value(self):
        # Direct evaluation of sqrt(2 ln(1024 / 0.05)), cross-checked at
        # 30 digits: 4.45582856024633068...
        assert threshold(1.0, 1024, 0.05) == pytest.approx(
            4.455828560246331, abs=1e-12
        )

    def test_scales_linearly_in_sigma(self):
        assert threshold(3.0, 100, 0.1) == pytest.approx(
            3.0 * threshold(1.0, 100, 0.1), rel=1e-15
        )

    def test_monotone_in_n_and_delta(self):
        assert threshold(1.0, 2000, 0.05) > threshold(1.0, 1000, 0.05)
        assert threshold(1.0, 1000, 0.01) > threshold(1.0, 1000, 0.05)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            threshold(0.0, 10, 0.05)
        with pytest.raises(ValueError):
            threshold(1.0, 0, 0.05)
        with pytest.raises(ValueError):
            threshold(1.0, 10, 0.0)
        with pytest.raises(ValueError):
            threshold(1.0, 10, 1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_raises(self, sigma):
        # threshold(nan, ...) used to return nan, so every trial accepted.
        with pytest.raises(ValueError, match="sigma"):
            threshold(sigma, 10, 0.05)


class TestDetect:
    @staticmethod
    def two_point_basis():
        g = build_graph(2, [(0, 1)])
        return build_basis(build_spanning_tree(g, [(0, 1)]))

    def test_rejects_above_threshold(self):
        rec = detect(self.two_point_basis(), np.array([5.0, 5.0]), tau=1.0)
        assert rec.reject and rec.argmax_element == 0
        assert rec.statistic == pytest.approx(10 / math.sqrt(2))

    def test_accepts_at_threshold_exactly(self):
        # The rule is strictly greater-than.
        basis = self.two_point_basis()
        stat = float(np.abs(basis.matrix @ np.array([1.0, 1.0])).max())
        rec = detect(basis, np.array([1.0, 1.0]), tau=stat)
        assert not rec.reject

    def test_zero_signal_accepts(self):
        rec = detect(self.two_point_basis(), np.zeros(2), tau=0.5)
        assert not rec.reject and rec.statistic == 0.0

    def test_sign_is_ignored(self):
        basis = self.two_point_basis()
        a = detect(basis, np.array([1.0, -1.0]), tau=0.1)
        b = detect(basis, np.array([-1.0, 1.0]), tau=0.1)
        assert a.statistic == b.statistic and a.reject and b.reject

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_observation_raises(self, bad):
        # A NaN must not turn into reject=False with statistic=nan.
        basis = build_basis(bfs_spanning_tree(gen_torus(4, 2)))
        y = np.zeros(16)
        y[3] = bad
        y[5] = 100.0
        with pytest.raises(ValueError, match="non-finite"):
            detect(basis, y, tau=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            apply_basis(basis, y)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_threshold_raises(self, tau):
        # With tau NaN or inf, y[5] = 100 would give reject=False at
        # statistic 70.7 instead of failing.
        basis = build_basis(bfs_spanning_tree(gen_torus(4, 2)))
        y = np.zeros(16)
        y[5] = 100.0
        with pytest.raises(ValueError, match="threshold"):
            detect(basis, y, tau=tau)


class TestClusterSignal:
    def test_postconditions(self):
        g = gen_torus(5, 2)
        rng = np.random.default_rng(0)
        for _ in range(40):
            x = gen_cluster_signal(g, rho=12, mu=3.0, rng=rng)
            assert np.linalg.norm(x.values) == pytest.approx(3.0, rel=1e-12)
            assert cut_size(g, x.values) == x.cut <= 12
            assert x.values.min() >= 0.0

    def test_infeasible_budget(self):
        # Every singleton on the 4x4 torus has boundary 4.
        g = gen_torus(4, 2)
        with pytest.raises(InfeasibleSignalError):
            gen_cluster_signal(g, rho=3, mu=1.0, rng=np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        g = gen_torus(4, 2)
        a = gen_cluster_signal(g, 8, 1.0, np.random.default_rng(9))
        b = gen_cluster_signal(g, 8, 1.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a.values, b.values)


class TestGrowBall:
    @staticmethod
    def layers_from_edges(g, seed_vertex):
        """BFS layers by repeated scans of the edge list."""
        layers, seen = [[seed_vertex]], {seed_vertex}
        while True:
            last = set(layers[-1])
            nxt = {b for u, v in g.edges for a, b in ((u, v), (v, u)) if a in last} - seen
            if not nxt:
                return layers
            seen |= nxt
            layers.append(sorted(nxt))

    @classmethod
    def reference_ball(cls, g, rho, rng, proper):
        """Add whole layers, recounting the whole boundary after each one."""
        seed_vertex = int(rng.integers(g.n))
        layers = cls.layers_from_edges(g, seed_vertex)
        members = np.zeros(g.n, dtype=bool)
        size = 0
        for layer in layers:
            if proper and size + len(layer) >= g.n:
                break
            members[layer] = True
            if np.count_nonzero(members[g.edges[:, 0]] != members[g.edges[:, 1]]) > rho:
                if not size:
                    raise InfeasibleSignalError(f"vertex {seed_vertex}")
                members[layer] = False
                break
            size += len(layer)
        return members

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_torus(6, 2),
            lambda: gen_knn(80, 4, 2, 5)[0],
            lambda: build_graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (4, 6)]),
            lambda: gen_complete(6),
        ],
        ids=["torus", "knn", "forest", "complete"],
    )
    def test_matches_layer_recount(self, make):
        g = make()
        for proper in (False, True):
            for rho in (0, 3, 4.5, 12, 40, g.m, math.inf):
                for seed in range(25):
                    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    try:
                        want = self.reference_ball(g, rho, ref, proper)
                    except InfeasibleSignalError:
                        with pytest.raises(InfeasibleSignalError):
                            _grow_ball(g, rho, ours, proper)
                    else:
                        members, cut = _grow_ball(g, rho, ours, proper)
                        np.testing.assert_array_equal(members, want)
                        assert cut == cut_size(g, members.astype(float))
                    assert ours.integers(2**32) == ref.integers(2**32)

    @pytest.mark.parametrize("sampler", [gen_cluster_signal, gen_two_level_signal])
    def test_samplers_record_the_ball_cut_above_eps(self, sampler):
        # With mu = 1e-12 the levels differ by less than EPS_CUT, so no edge
        # changes level and the recorded cut is 0, not the ball's.
        g = gen_torus(5, 2)
        tiny = sampler(g, 12, 1e-12, np.random.default_rng(4))
        plain = sampler(g, 12, 1.0, np.random.default_rng(4))
        assert tiny.cut == cut_size(g, tiny.values) == 0
        assert plain.cut == cut_size(g, plain.values) > 0


class TestTwoLevelSignal:
    def test_postconditions(self):
        g = gen_knn(40, 4, 2, 0)[0]
        rng = np.random.default_rng(1)
        for _ in range(40):
            x = gen_two_level_signal(g, rho=20, mu=2.0, rng=rng)
            assert np.linalg.norm(x.values) == pytest.approx(2.0, rel=1e-12)
            assert abs(x.values.sum()) <= 1e-9
            assert cut_size(g, x.values) == x.cut <= 20
            # Exactly two distinct levels.
            assert len(np.unique(np.round(x.values, 12))) == 2

    def test_support_is_proper_subset(self):
        g = gen_complete(6)
        rng = np.random.default_rng(2)
        x = gen_two_level_signal(g, rho=5, mu=1.0, rng=rng)
        assert 0 < np.count_nonzero(x.values > 0) < 6


class TestPriorSignal:
    def test_support_size_formula(self):
        # floor(min(rho / d_max, sqrt(n)))
        g = gen_torus(10, 2)  # n = 100, degree 4
        assert prior_support_size(g, 10.0) == 2
        assert prior_support_size(g, 39.0) == 9
        assert prior_support_size(g, 4000.0) == 10

    def test_postconditions(self):
        g = gen_torus(6, 2)
        rng = np.random.default_rng(3)
        for rho in (8, 16, 64):
            x = gen_prior_signal(g, rho, 1.5, rng)
            p = prior_support_size(g, rho)
            assert np.count_nonzero(x.values) == p
            assert np.linalg.norm(x.values) == pytest.approx(1.5, rel=1e-12)
            assert cut_size(g, x.values) == x.cut <= rho

    def test_infeasible_when_support_empty(self):
        g = gen_torus(4, 2)
        with pytest.raises(InfeasibleSignalError):
            gen_prior_signal(g, 3.9, 1.0, np.random.default_rng(0))

    def test_singleton_on_complete_graph(self):
        g = gen_complete(16)
        x = gen_prior_signal(g, 16.0, 1.0, np.random.default_rng(4))
        assert np.count_nonzero(x.values) == 1
        assert x.cut == 15

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_torus(6, 2),
            lambda: gen_complete(30),
            lambda: gen_knn(120, 5, 2, 7)[0],
            lambda: gen_epsilon(120, 0.2, 2, 8)[0],
        ],
        ids=["torus", "complete", "knn", "epsilon"],
    )
    def test_recorded_cut_is_the_edge_count(self, make):
        # The cut is counted from the support's CSR runs, not over all edges;
        # with mu = 1e-12 no edge changes level by more than EPS_CUT.
        g = make()
        rng = np.random.default_rng(11)
        for _ in range(60):
            rho = float(rng.integers(g.max_degree, 8 * g.max_degree))
            x = gen_prior_signal(g, rho, 1.0, rng)
            assert x.cut == cut_size(g, x.values) <= rho
        tiny = gen_prior_signal(g, 8.0 * g.max_degree, 1e-12, np.random.default_rng(2))
        assert tiny.cut == cut_size(g, tiny.values) == 0


class TestSnrCondition:
    def test_remark1_mode_value(self):
        # rho = 1, one activation level, delta = 1/2, n = 2:
        # sqrt(2) (sqrt(ln 2) + sqrt(ln 4)) = 2.8425...
        got = snr_condition("remark1", n=2, d=2, delta=0.5, rho=1.0)
        want = math.sqrt(2) * (math.sqrt(math.log(2)) + math.sqrt(math.log(4)))
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(2.8425, abs=5e-5)

    def test_remark1_mode_grows_with_rho_and_n(self):
        base = snr_condition("remark1", n=64, d=4, delta=0.05, rho=8.0)
        assert snr_condition("remark1", n=64, d=4, delta=0.05, rho=16.0) > base
        assert snr_condition("remark1", n=256, d=4, delta=0.05, rho=8.0) > base

    def test_theorem3_mode_form(self):
        got = snr_condition("theorem3", n=256, d=4, r_max=0.5)
        assert got == pytest.approx(math.sqrt(0.5 * 2) * 8, rel=1e-15)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="mode"):
            snr_condition("other", n=4, d=2)
        with pytest.raises(ValueError, match="rho and delta"):
            snr_condition("remark1", n=4, d=2)
        with pytest.raises(ValueError, match="r_max"):
            snr_condition("theorem3", n=4, d=2)

    def test_remark1_levels_agree_with_activation_bound(self):
        # Both read max(1, ceil(log2 d)) * max(1, ceil(log2 n)) for a tree of
        # max degree d on n vertices: a star of d leaves plus a tail path.
        delta = 0.05
        for n in range(2, 65):
            for d in range(1 if n == 2 else 2, n):
                edges = [(0, v) for v in range(1, d + 1)]
                edges += [(v, v + 1) for v in range(d, n - 1)]
                t = build_spanning_tree(build_graph(n, edges), edges)
                assert t.max_degree == d
                scale = snr_condition("remark1", n=n, d=d, delta=delta, rho=0.5)
                tail = math.sqrt(math.log(1.0 / delta)) + math.sqrt(math.log(n / delta))
                assert round((scale / tail) ** 2) == activation_bound(t)


def _triangle():
    return build_graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: gen_two_level_signal(gen_torus(4, 2), math.nan, 1.0, 0),
        lambda: gen_cluster_signal(gen_torus(4, 2), math.nan, 1.0, 0),
        lambda: gen_prior_signal(gen_complete(9), math.nan, 1.0, 0),
        lambda: gen_two_level_signal(gen_torus(4, 2), 8.0, math.nan, 0),
        lambda: gen_cluster_signal(gen_torus(4, 2), 8.0, math.inf, 0),
        lambda: prior_support_size(gen_complete(9), math.nan),
        lambda: gen_epsilon(20, math.nan),
        lambda: gen_epsilon(20, math.inf),
        lambda: CellSpec(family="torus", side=4, rho=math.nan),
        lambda: CellSpec(family="torus", side=4, rho=-1.0),
        lambda: ust_concentration_check(_triangle(), [(0, 1)], [math.nan], [[0, 1]]),
        lambda: ust_concentration_check(_triangle(), [(0, 1)], [math.inf], [[0, 1]]),
        lambda: snr_condition("remark1", n=64, d=4, delta=0.05, rho=math.nan),
        lambda: snr_condition("theorem3", n=64, d=4, r_max=math.nan),
        lambda: snr_condition("theorem3", n=64, d=4, r_max=math.inf),
    ],
    ids=[
        "two_level-rho", "cluster-rho", "prior-rho", "two_level-mu", "cluster-mu-inf",
        "prior_support_size-rho", "epsilon-eps", "epsilon-eps-inf", "cell-rho",
        "cell-rho-negative", "concentration-delta", "concentration-delta-inf",
        "remark1-rho", "theorem3-r_max", "theorem3-r_max-inf",
    ],
)
def test_non_finite_or_negative_parameters_raise(call):
    # Each of these used to return a result: NaN slips past a plain ``< 0``.
    with pytest.raises(ValueError, match="must be"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_ust(gen_torus(4, 2), None),
        lambda: gen_knn(30, 4),
        lambda: gen_epsilon(30, 0.3),
        lambda: gen_cluster_signal(gen_torus(4, 2), 8.0, 1.0, None),
        lambda: gen_two_level_signal(gen_torus(4, 2), 8.0, 1.0, None),
        lambda: gen_prior_signal(gen_complete(9), 16.0, 1.0, None),
    ],
    ids=["sample_ust", "knn", "epsilon", "cluster", "two_level", "prior"],
)
def test_no_seed_raises(call):
    # numpy would seed None from the operating system, which no run could repeat.
    with pytest.raises(ValueError, match="seed or numpy Generator is required"):
        call()


@pytest.mark.parametrize(
    "func", [sample_ust, gen_cluster_signal, gen_two_level_signal, gen_prior_signal]
)
def test_seed_has_no_default(func):
    assert inspect.signature(func).parameters["rng"].default is inspect.Parameter.empty


def test_infinite_cut_budget_means_no_budget():
    g = gen_torus(4, 2)
    x = gen_cluster_signal(g, math.inf, 1.0, 0)
    assert np.count_nonzero(x.values) == g.n
    assert CellSpec(family="torus", side=4, rho=math.inf).rho == math.inf
    assert snr_condition("remark1", n=64, d=4, delta=0.05, rho=math.inf) == math.inf
