"""Experiment harness: trials, power curves, sparsity scatter, concentration."""

import collections
import hashlib
import json
import math
import multiprocessing
import re
import types

import numpy as np
import pytest

from treewavelets import (
    CellSpec,
    FitUndefinedError,
    activation_bound,
    aggregate_records,
    all_edge_resistances,
    basis_sparsity,
    bfs_spanning_tree,
    build_basis,
    build_graph,
    concentration_experiment,
    detect,
    fit_sparsity_points,
    gen_complete,
    gen_epsilon,
    gen_knn,
    gen_torus,
    gen_two_level_signal,
    mu_at_power,
    power_curve,
    preset_config,
    run_experiment,
    sample_ust,
    sparsity_experiment,
    threshold,
    ust_concentration_check,
    ust_edge_ids,
    validate_spanning_tree,
)
from helpers import binomial_band, edge_tuples, enumerate_spanning_trees
from treewavelets import experiments, wavelets
from treewavelets.experiments import _draw, _named_edge_set


def assert_same_cell(a, b):
    """PowerCell has no ==: compare its fields, the arrays by value."""
    assert (a.cell, a.n, a.threshold) == (b.cell, b.n, b.threshold)
    for name in ("trial", "tree_seed", "cut", "stats"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_same_columns(a, b):
    """Column dicts of arrays have no usable ==: compare the names in order,
    then each column by value and dtype."""
    assert list(a) == list(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert np.array_equal(a[name], b[name], equal_nan=a[name].dtype.kind == "f"), name


def records(columns):
    """One namespace per row of a column dict, its fields as Python values."""
    names = list(columns)
    return [types.SimpleNamespace(**dict(zip(names, row)))
            for row in zip(*(columns[c].tolist() for c in names))]


class TestTreeKind:
    CELL = CellSpec(family="torus", side=4, mu_grid=(1.0,))

    def test_ust_draws_from_stream(self):
        g = gen_torus(4, 2)
        s1, t1, _, _ = _draw(g, self.CELL, "ust", math.inf, np.random.default_rng(0))
        s2, t2, _, _ = _draw(g, self.CELL, "ust", math.inf, np.random.default_rng(1))
        validate_spanning_tree(t1)
        validate_spanning_tree(t2)
        assert s1 >= 0 and s2 >= 0 and s1 != s2
        # The seed is the stream's first draw, and the tree is sample_ust's.
        assert s1 == int(np.random.default_rng(0).integers(2**32))
        assert edge_tuples(t1) == edge_tuples(sample_ust(g, s1))

    def test_bfs_is_deterministic_and_unseeded(self):
        g = gen_torus(4, 2)
        s1, t1, _, _ = _draw(g, self.CELL, "bfs", math.inf, np.random.default_rng(0))
        s2, t2, _, _ = _draw(g, self.CELL, "bfs", math.inf, np.random.default_rng(99))
        assert s1 == s2 == -1
        assert edge_tuples(t1) == edge_tuples(t2) == edge_tuples(bfs_spanning_tree(g))

    def test_unknown_kind_rejected(self, monkeypatch):
        ran = []
        monkeypatch.setattr(experiments, "_power_trial", lambda *args: ran.append(args))
        for kind in ("dfs", "fixed", "UST", None):
            with pytest.raises(ValueError, match=f"unknown tree kind {kind!r}"):
                power_curve(self.CELL, trials=3, sigma=1.0, delta=0.05, tree=kind,
                            master_seed=0)
        assert ran == []


class TestCellSpec:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown cell fields.*budget"):
            CellSpec.from_dict({"family": "torus", "side": 4, "budget": 3})

    def test_family_and_sampler_validated(self):
        with pytest.raises(ValueError, match="family"):
            CellSpec(family="path")
        with pytest.raises(ValueError, match="sampler"):
            CellSpec(family="torus", side=4, sampler="spikes")

    def test_build_graph_and_label(self):
        cell = CellSpec.from_dict({"family": "torus", "side": 5, "dims": 2})
        g = cell.build_graph()
        assert g.n == 25
        cell = CellSpec.from_dict({"family": "complete", "n": 9})
        assert cell.build_graph().n == 9

    @pytest.mark.parametrize(
        "cell, other, n",
        [
            ({"family": "torus", "side": 4, "dims": 2, "n": 16}, ["n"], 16),
            ({"family": "complete", "n": 8, "side": 5, "k": 3}, ["k", "side"], 8),
            ({"family": "knn", "n": 30, "k": 4, "dim": 2, "graph_seed": 1, "eps": 0.3},
             ["eps"], 30),
            ({"family": "epsilon", "n": 30, "eps": 0.5, "dim": 2, "graph_seed": 1, "dims": 3},
             ["dims"], 30),
        ],
        ids=["torus", "complete", "knn", "epsilon"],
    )
    def test_graph_field_of_another_family_rejected(self, cell, other, n):
        # {"family": "complete", "n": 8, "side": 5, "k": 3} used to build K8.
        with pytest.raises(ValueError, match=re.escape(f"{cell['family']} cells do not read {other}")):
            CellSpec.from_dict(cell)
        own = {key: value for key, value in cell.items() if key not in other}
        assert CellSpec.from_dict(own).build_graph().n == n

    def test_graph_field_of_another_family_rejected_by_the_constructor(self):
        # The library path used to run this cell on K8.
        with pytest.raises(ValueError, match=re.escape("complete cells do not read ['k', 'side']")):
            CellSpec(family="complete", n=8, side=5, k=3, rho=8.0, mu_grid=(0.0, 5.0))
        with pytest.raises(ValueError, match=re.escape("torus cells do not read ['graph_seed', 'n']")):
            CellSpec(family="torus", side=4, n=16, graph_seed=3)
        with pytest.raises(ValueError, match=re.escape("epsilon cells do not read ['dims']")):
            CellSpec(family="epsilon", n=30, eps=0.5, dims=3)
        # A field at its default builds the same graph as one left out.
        assert CellSpec(family="complete", n=8, dims=2).build_graph().n == 8

    @pytest.mark.parametrize(
        "fields, generate",
        [
            ({"family": "torus", "side": 2}, lambda: gen_torus(2)),
            ({"family": "torus", "side": 4, "dims": 0}, lambda: gen_torus(4, 0)),
            ({"family": "complete", "n": 0}, lambda: gen_complete(0)),
            ({"family": "knn", "n": 10, "k": 12}, lambda: gen_knn(10, 12, 2, 0)),
            ({"family": "knn", "n": 10, "k": 3, "dim": 0}, lambda: gen_knn(10, 3, 0, 0)),
            ({"family": "epsilon", "n": 10, "eps": 0.0}, lambda: gen_epsilon(10, 0.0, 2, 0)),
        ],
        ids=["torus-side", "torus-dims", "complete-n", "knn-k", "knn-dim", "epsilon-eps"],
    )
    def test_generator_ranges_checked_when_the_cell_is_made(self, fields, generate):
        with pytest.raises(ValueError) as made:
            CellSpec.from_dict(fields)
        with pytest.raises(ValueError) as generated:
            generate()
        assert str(made.value) == str(generated.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -3.0])
    def test_mu_grid_values_validated(self, bad):
        # [nan, -3, 5] used to write rows that read as null trials.
        with pytest.raises(ValueError, match="mu_grid"):
            CellSpec.from_dict({"family": "torus", "side": 4, "mu_grid": [bad, 5.0]})
        assert CellSpec(family="torus", side=4, mu_grid=(0.0, 5.0)).mu_grid == (0.0, 5.0)


class TestPowerCurve:
    @staticmethod
    def tiny_cell(mu_grid=(0.0, 30.0)):
        return CellSpec.from_dict(
            {
                "family": "torus",
                "side": 4,
                "dims": 2,
                "rho": 8.0,
                "sampler": "two_level",
                "mu_grid": list(mu_grid),
            }
        )

    def test_deterministic_and_coupled(self):
        cell = self.tiny_cell()
        kw = dict(trials=25, sigma=1.0, delta=0.05, tree="ust", master_seed=5)
        a = power_curve(cell, **kw)
        assert_same_cell(a, power_curve(cell, **kw))
        # Each trial has one tree draw and one row of stats for its whole mu grid.
        assert a.trial.tolist() == list(range(25))
        assert a.tree_seed.shape == (25,) and a.stats.shape == (25, 2)
        assert a.tree_seed.dtype == a.trial.dtype == a.cut.dtype == np.int64

    def test_null_and_strong_signal_rates(self):
        pc = power_curve(
            self.tiny_cell(),
            trials=60,
            sigma=1.0,
            delta=0.05,
            tree="ust",
            master_seed=9,
        )
        assert pc.stats.shape == (60, 2)  # mu_grid (0, 30)
        null_rate, alt_rate = np.mean(pc.stats > pc.threshold, axis=0).tolist()
        assert null_rate <= 0.05 + binomial_band(0.05, 60)
        assert alt_rate == 1.0  # mu = 30 on n = 16

    @pytest.mark.parametrize("source", ["ust", "bfs"])
    def test_statistic_matches_direct_detection(self, source):
        # Rebuild every trial from its own stream, in the trial's draw order:
        # the tree (a ust tree from the stream's first integer, the bfs tree
        # from nothing), then the unit-energy shape, then the noise.
        cell = self.tiny_cell(mu_grid=(0.0, 1.5, 4.0))
        sigma, delta, master_seed, cell_index = 1.7, 0.05, 4, 2
        pc = power_curve(
            cell, trials=6, sigma=sigma, delta=delta, tree=source,
            master_seed=master_seed, cell_index=cell_index,
        )
        assert pc.trial.tolist() == list(range(6)) and pc.stats.shape == (6, 3)
        g = gen_torus(4, 2)
        tau = threshold(sigma, g.n, delta)
        assert pc.cell is cell and pc.n == g.n and pc.threshold == tau
        for trial, tree_seed_got, cut, stats in zip(pc.trial.tolist(), pc.tree_seed.tolist(),
                                                    pc.cut.tolist(), pc.stats):
            rng = np.random.default_rng(
                np.random.SeedSequence(master_seed, spawn_key=(cell_index, trial))
            )
            if source == "ust":
                tree_seed = int(rng.integers(2**32))
                tree = sample_ust(g, tree_seed)
            else:
                tree_seed, tree = -1, bfs_spanning_tree(g)
            shape = gen_two_level_signal(g, cell.rho, 1.0, rng)
            z = rng.standard_normal(g.n)
            assert tree_seed_got == tree_seed and cut == shape.cut
            for mu, stat in zip(cell.mu_grid, stats.tolist()):
                direct = detect(build_basis(tree), mu * shape.values + sigma * z, tau)
                assert abs(stat - direct.statistic) <= 1e-12

    def test_worker_pool_gives_the_same_records(self):
        # For bfs each worker builds its own tree and layout: a pickled graph
        # keeps no cached view.
        cell = self.tiny_cell()
        for tree in ("ust", "bfs"):
            kw = dict(trials=12, sigma=1.0, delta=0.05, tree=tree, master_seed=5)
            assert_same_cell(power_curve(cell, workers=2, **kw), power_curve(cell, workers=1, **kw))

    def test_bfs_trials_call_each_layer_once_and_split_once(self, monkeypatch):
        # The traced benchmark counts one BFS tree and one build per trial,
        # while the tree's split layout is computed once per graph.
        calls = collections.Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        count(experiments, "bfs_spanning_tree")
        count(experiments, "build_basis")
        count(wavelets, "_split_layout")
        power_curve(self.tiny_cell(), trials=5, sigma=1.0, delta=0.05, tree="bfs",
                    master_seed=5)
        assert calls == {"bfs_spanning_tree": 5, "build_basis": 5, "_split_layout": 1}

    def test_workers_below_one_rejected(self):
        kw = dict(trials=3, sigma=1.0, delta=0.05, tree="ust", master_seed=5)
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            power_curve(self.tiny_cell(), workers=0, **kw)

    def test_different_cell_index_changes_stream(self):
        cell = self.tiny_cell()
        kw = dict(trials=10, sigma=1.0, delta=0.05, tree="ust", master_seed=5)
        a = power_curve(cell, cell_index=0, **kw)
        b = power_curve(cell, cell_index=1, **kw)
        assert a.tree_seed.tolist() != b.tree_seed.tolist()

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="trials"):
            power_curve(
                self.tiny_cell(),
                trials=0,
                sigma=1.0,
                delta=0.05,
                tree="ust",
                master_seed=0,
            )
        with pytest.raises(ValueError, match="mu_grid"):
            power_curve(
                self.tiny_cell(mu_grid=()),
                trials=5,
                sigma=1.0,
                delta=0.05,
                tree="ust",
                master_seed=0,
            )
        # power.csv would write two rows keyed (torus, 16, 8.0, 25.0).
        with pytest.raises(ValueError, match="mu_grid repeats a value"):
            power_curve(
                self.tiny_cell(mu_grid=(0.0, 25.0, 25.0)),
                trials=5,
                sigma=1.0,
                delta=0.05,
                tree="ust",
                master_seed=0,
            )

    @pytest.mark.parametrize(("sigma", "delta", "match"), [
        (0.0, 0.05, "sigma"), (math.nan, 0.05, "sigma"), (1.0, 1.0, "delta"),
    ])
    def test_bad_sigma_or_delta_fails_before_any_trial(self, monkeypatch, sigma, delta, match):
        ran = []
        monkeypatch.setattr(experiments, "_power_trial", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match=match):
            power_curve(self.tiny_cell(), trials=3, sigma=sigma, delta=delta,
                        tree="ust", master_seed=0)
        assert ran == []


class TestMapTasks:
    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return [fn(t) for t in tasks]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
        assert experiments._map_tasks(abs, [-1, -2, -3], workers=8) == [1, 2, 3]
        assert experiments._map_tasks(abs, [-1] * 20, workers=8) == [1] * 20
        assert experiments._map_tasks(abs, [-4], workers=8) == [4]
        # The single task runs in this process, without a pool.
        assert sizes == [3, 8]


class TestAggregateRecords:
    def test_recomputes_rates_and_risk(self):
        cell = TestPowerCurve.tiny_cell(mu_grid=(0.0, 2.0, 30.0))
        pc = power_curve(
            cell, trials=40, sigma=1.0, delta=0.05, tree="ust", master_seed=3
        )
        aggs = aggregate_records([pc], trials_requested=40)
        assert [a["mu"] for a in aggs] == [0.0, 2.0, 30.0]
        by_mu = {a["mu"]: a for a in aggs}
        reject = pc.stats > pc.threshold
        manual_null = sum(reject[:, 0].tolist()) / 40
        assert by_mu[0.0]["power"] == manual_null
        for j, mu in ((1, 2.0), (2, 30.0)):
            manual = sum(reject[:, j].tolist()) / 40
            a = by_mu[mu]
            assert a["power"] == manual
            assert a["type_i"] == manual_null
            assert a["risk"] == pytest.approx(manual_null + 1.0 - manual)
            assert a["trials"] == a["trials_requested"] == 40
        assert math.isnan(by_mu[0.0]["risk"])  # no risk for the null row


class TestMuAtPower:
    @staticmethod
    def agg(mu, power, family="f", n=16, rho=4.0):
        return {"family": family, "n": n, "rho": rho, "mu": mu, "power": power}

    def test_linear_interpolation(self):
        rows = mu_at_power([self.agg(0.0, 0.0), self.agg(1.0, 0.25), self.agg(2.0, 0.75)])
        assert rows == [{"family": "f", "n": 16, "rho": 4.0, "mu50": pytest.approx(1.5)}]

    def test_first_point_already_above(self):
        rows = mu_at_power([self.agg(0.5, 0.6), self.agg(1.0, 0.9)])
        assert rows[0]["mu50"] == 0.5

    def test_never_crossing_is_nan(self):
        rows = mu_at_power([self.agg(0.0, 0.0), self.agg(1.0, 0.4)])
        assert math.isnan(rows[0]["mu50"])

    def test_exact_hit_at_knot(self):
        rows = mu_at_power([self.agg(0.0, 0.0), self.agg(2.0, 0.5), self.agg(4.0, 1.0)])
        assert rows[0]["mu50"] == pytest.approx(2.0)


class TestSparsityExperiment:
    def test_points_respect_bound(self):
        # Side 6 so the grown balls hit two distinct boundary sizes (4 and
        # 12), which the fit needs; on a 4x4 torus every feasible ball has
        # boundary exactly 4.
        cell = CellSpec.from_dict(
            {"family": "torus", "side": 6, "dims": 2, "rho_lo": 4, "rho_hi": 16,
             "sampler": "two_level"}
        )
        points, fits = sparsity_experiment([cell], signals=50, master_seed=1)
        assert list(points) == experiments.SPARSITY_COLUMNS
        assert list(fits) == experiments.FIT_COLUMNS
        assert len(points["signal"]) == 50 and len(fits["slope"]) == 1
        g = gen_torus(6, 2)
        for p in records(points):
            assert (p.family, p.n) == ("torus", 36)
            assert p.sparsity <= p.bound == p.cut * p.levels + 1
            assert p.tree_cut <= p.cut <= p.rho_target
            tree = sample_ust(g, p.tree_seed)
            assert activation_bound(tree) == p.levels
            assert tree.max_degree == p.tree_degree
        assert fits["points"].tolist() == [50] and math.isfinite(fits["slope"][0])

    def test_deterministic(self):
        cell = CellSpec.from_dict(
            {"family": "torus", "side": 6, "dims": 2, "rho_lo": 4, "rho_hi": 16,
             "sampler": "two_level"}
        )
        a = sparsity_experiment([cell], signals=12, master_seed=2)
        b = sparsity_experiment([cell], signals=12, master_seed=2)
        for x, y in zip(a, b):
            assert_same_columns(x, y)

    def test_worker_pool_gives_the_same_points(self):
        cell = CellSpec.from_dict(
            {"family": "torus", "side": 6, "dims": 2, "rho_lo": 4, "rho_hi": 16,
             "sampler": "two_level"}
        )
        a = sparsity_experiment([cell], signals=12, master_seed=2, workers=2)
        b = sparsity_experiment([cell], signals=12, master_seed=2, workers=1)
        for x, y in zip(a, b):
            assert_same_columns(x, y)

    def test_workers_below_one_rejected(self):
        cell = CellSpec.from_dict(
            {"family": "torus", "side": 6, "dims": 2, "rho_lo": 4, "rho_hi": 16}
        )
        with pytest.raises(ValueError, match="workers must be >= 1, got -3"):
            sparsity_experiment([cell], signals=12, master_seed=2, workers=-3)

    def test_validates_arguments(self):
        cell = CellSpec.from_dict(
            {"family": "torus", "side": 4, "dims": 2, "rho_lo": 10, "rho_hi": 4}
        )
        with pytest.raises(ValueError, match="signals"):
            sparsity_experiment([cell], signals=1, master_seed=0)
        with pytest.raises(ValueError, match="rho_lo"):
            sparsity_experiment([cell], signals=5, master_seed=0)


class TestFitSparsityPoints:
    def test_exact_line_recovered(self):
        x = np.array([cut * 2 for cut in (4, 8, 12, 16)])  # cut * levels, levels 2
        slope, intercept, r2 = fit_sparsity_points(x, 3 * x // 4 + 5)
        # y = 0.75 x + 5 exactly on these points.
        assert slope == pytest.approx(0.75, abs=1e-12)
        assert intercept == pytest.approx(5.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_abscissa_is_undefined(self):
        with pytest.raises(FitUndefinedError, match="abscissa"):
            fit_sparsity_points(np.array([12, 12]), np.array([3, 7]))
        with pytest.raises(FitUndefinedError, match="no points"):
            fit_sparsity_points(np.array([]), np.array([]))


class TestUstEdgeIds:
    @pytest.mark.parametrize("make", [lambda: gen_torus(4, 2), lambda: gen_knn(60, 4, 2, 3)[0]])
    def test_rows_are_the_trees_of_the_same_stream(self, make):
        g = make()
        ids = ust_edge_ids(g, 7, 5)
        assert ids.shape == (7, g.n - 1) and ids.dtype == np.int64
        gen = np.random.default_rng(5)
        for row in ids:
            tree = sample_ust(g, int(gen.integers(2**32)))
            np.testing.assert_array_equal(row, g.edge_ids(tree.edges))

    def test_generator_continues_its_stream(self):
        g = gen_torus(4, 2)
        gen = np.random.default_rng(9)
        first, second = ust_edge_ids(g, 3, gen), ust_edge_ids(g, 2, gen)
        np.testing.assert_array_equal(np.vstack((first, second)), ust_edge_ids(g, 5, 9))

    def test_no_draws_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            ust_edge_ids(gen_torus(4, 2), 0, 0)


class TestConcentration:
    @staticmethod
    def triangle():
        return build_graph(3, [(0, 1), (0, 2), (1, 2)])

    @staticmethod
    def tree_ids(g, trees):
        return np.array([g.edge_ids(t.edges) for t in trees])

    def test_triangle_edge_exact_resistance(self):
        g = self.triangle()
        rows = ust_concentration_check(g, [(0, 1)], [0.4], ust_edge_ids(g, 2000, 0))
        assert list(rows) == experiments.CONCENTRATION_COLUMNS
        (row,) = records(rows)
        # Two of the three spanning trees contain any given edge.
        trees = enumerate_spanning_trees(3, g.edges)
        assert sum((0, 1) in t for t in trees) / len(trees) == pytest.approx(2 / 3)
        assert row.r_set == pytest.approx(2 / 3, abs=1e-12)
        assert row.tail_at == pytest.approx(1.4 * 2 / 3)

    def test_triangle_bound_and_empirical(self):
        g = self.triangle()
        rows = ust_concentration_check(g, [(0, 1)], [0.4], ust_edge_ids(g, 3000, 1))
        (row,) = records(rows)
        # exp((2/3)(0.4 - 1.4 ln 1.4)), evaluated directly.
        assert row.bound == pytest.approx(0.9537305521583674, abs=1e-12)
        # Count >= 1.4 * (2/3) means the edge is in the tree: probability 2/3.
        band = binomial_band(2 / 3, 3000)
        assert 2 / 3 - band <= row.empirical <= 2 / 3 + band
        assert row.passed

    def test_shared_tree_pool(self):
        g = self.triangle()
        trees = [sample_ust(g, s) for s in range(50)]
        rows = ust_concentration_check(g, [(0, 1)], [0.4], self.tree_ids(g, trees))
        manual = sum(1 for t in trees if (0, 1) in edge_tuples(t))
        assert rows["empirical"][0] == pytest.approx(manual / 50)

    def test_whole_edge_set_is_certain(self):
        # Every spanning tree has exactly n - 1 = 2 of the triangle's edges,
        # so the overlap count equals r_set = 2 deterministically and never
        # reaches (1 + delta) r_set.
        g = self.triangle()
        rows = ust_concentration_check(g, g.edges, [0.25, 1.0], ust_edge_ids(g, 500, 2))
        for row in records(rows):
            assert row.r_set == pytest.approx(2.0, abs=1e-10)
            assert row.empirical == 0.0
            assert row.passed

    def test_counts_match_set_oracle_in_either_orientation(self):
        g = gen_torus(4, 2)
        trees = [sample_ust(g, s) for s in range(40)]
        ids = self.tree_ids(g, trees)
        star = [e for e in edge_tuples(g) if 0 in e]
        deltas = [0.25, 0.5, 1.0]
        rows = ust_concentration_check(g, star, deltas, ids)
        flipped = ust_concentration_check(g, [(v, u) for u, v in star], deltas, ids)
        assert_same_columns(rows, flipped)
        counts = [sum(e in star for e in edge_tuples(t)) for t in trees]
        for row in records(rows):
            assert row.set_size == 4
            assert row.empirical == sum(c >= row.tail_at for c in counts) / 40

    @pytest.mark.parametrize("make", [lambda: gen_torus(5, 2), lambda: gen_knn(60, 4, 2, 3)[0]])
    def test_named_edge_sets_match_edge_loops(self, make):
        g = make()
        star = [e for e in edge_tuples(g) if 0 in e]
        inside = {0, *(v for e in star for v in e)}
        want = {
            "edge": [edge_tuples(g)[0]],
            "star": star,
            "ball": [e for e in edge_tuples(g) if (e[0] in inside) != (e[1] in inside)],
        }
        for label, edges in want.items():
            assert [tuple(e) for e in _named_edge_set(g, label).tolist()] == edges

    def test_experiment_rows_are_the_checks_of_one_stream(self):
        cells = [CellSpec(family="torus", side=4), CellSpec(family="complete", n=7)]
        deltas, sets = [0.5, 1.0], ["edge", "star"]
        got = concentration_experiment(cells, samples=30, deltas=deltas, sets=sets,
                                       master_seed=3)
        assert list(got) == ["family", "n", "set", *experiments.CONCENTRATION_COLUMNS]
        # The cells draw their trees in order from one stream.
        gen = np.random.default_rng(3)
        want = []
        for cell in cells:
            g = cell.build_graph()
            ids = ust_edge_ids(g, 30, gen)
            for label in sets:
                checked = ust_concentration_check(g, _named_edge_set(g, label), deltas, ids)
                want += [{"family": cell.family, "n": g.n, "set": label, **vars(r)}
                         for r in records(checked)]
        assert [vars(r) for r in records(got)] == want

    @pytest.mark.parametrize(
        "bad, message",
        [({"samples": 0}, "samples must be >= 1"), ({"deltas": [0.5, 0.0]}, "positive"),
         ({"sets": ["edge", "bal"]}, "unknown edge-set label 'bal'"),
         ({"sets": ["star", "star"]}, "repeats a label")],
        ids=["samples", "deltas", "unknown-set", "repeated-set"],
    )
    def test_experiment_checks_arguments_before_any_graph(self, monkeypatch, bad, message):
        ran = []
        monkeypatch.setattr(experiments.CellSpec, "generate", lambda cell: ran.append(cell))
        kw = {"samples": 5, "deltas": [0.5], "sets": ["edge"], **bad}
        with pytest.raises(ValueError, match=message):
            concentration_experiment([CellSpec(family="torus", side=4)], master_seed=0, **kw)
        assert ran == []

    def test_bad_delta_fails_before_any_solve(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before the deltas were checked")

        monkeypatch.setattr(experiments, "all_edge_resistances", must_not_run)
        with pytest.raises(ValueError, match="delta values must be positive"):
            ust_concentration_check(self.triangle(), [(0, 1)], [0.5, -0.5], [[0, 1]])

    def test_validates_arguments(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the resistance solve ran before the arguments were checked")

        monkeypatch.setattr(experiments, "all_edge_resistances", must_not_run)
        g = self.triangle()
        good = [[0, 1], [1, 2]]
        cases = [
            ([(0, 5)], [0.5], good, "not in the graph"),
            ([], [0.5], good, "empty"),
            ([(0, 1)], [0.0], good, "positive"),
            # Deltas come before the edge set, the edge set before tree_ids.
            ([(0, 5)], [0.0], [[0, 7]], "positive"),
            ([(0, 5)], [0.5], [[0, 7]], "not in the graph"),
            ([(0, 1)], [0.5], np.empty((0, 2), dtype=np.int64), "at least one tree"),
            ([(0, 1)], [0.5], [[0, 1, 2]], r"shape \(draws, 2\)"),
            ([(0, 1)], [0.5], [0, 1], r"shape \(draws, 2\)"),
            ([(0, 1)], [0.5], [[0, 1], [-1, 2]], r"edge ids in 0\.\.2"),
            ([(0, 1)], [0.5], [[0, 3]], r"edge ids in 0\.\.2"),
            ([(0, 1)], [0.5], [[0.0, 1.0]], r"edge ids in 0\.\.2"),
        ]
        for edge_set, deltas, ids, message in cases:
            with pytest.raises(ValueError, match=message):
                ust_concentration_check(g, edge_set, deltas, ids)


class TestRunExperiment:
    @staticmethod
    def power_config():
        return {
            "kind": "power",
            "seed": 7,
            "sigma": 1.0,
            "delta": 0.05,
            "trials": 10,
            "tree": {"kind": "ust"},
            "cells": [
                {"family": "torus", "side": 4, "dims": 2, "rho": 8.0,
                 "sampler": "two_level", "mu_grid": [0.0, 25.0]}
            ],
        }

    def test_power_outputs_and_determinism(self, tmp_path):
        r1, _ = run_experiment(self.power_config(), tmp_path / "a")
        r2, _ = run_experiment(self.power_config(), tmp_path / "b")
        for name in ("trials.csv", "power.csv", "mu50.csv", "schema.txt"):
            assert (tmp_path / "a" / name).exists()
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert r1 == r2
        header = (tmp_path / "a" / "trials.csv").read_text().splitlines()[0]
        assert header == "family,n,rho,mu,trial,seed,tree_seed,cut,statistic,threshold,reject,truth"
        assert r1["rows"] == 20  # 10 trials x 2 mu values

    def test_sparsity_outputs(self, tmp_path):
        config = {
            "kind": "sparsity",
            "seed": 3,
            "signals": 12,
            "cells": [
                {"family": "torus", "side": 6, "dims": 2, "rho_lo": 4, "rho_hi": 16,
                 "sampler": "two_level"}
            ],
        }
        result, _ = run_experiment(config, tmp_path)
        lines = (tmp_path / "points.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 12
        for row in rows:
            assert int(row["sparsity"]) <= int(row["bound"])
        assert (tmp_path / "fits.csv").exists()
        assert list(result) == ["cell 0 torus/n=36"]
        assert result["cell 0 torus/n=36"]["points"] == 12

    def test_concentration_outputs(self, tmp_path):
        config = {
            "kind": "concentration",
            "seed": 5,
            "samples": 300,
            "deltas": [0.5, 1.0],
            "sets": ["edge", "star"],
            "cells": [{"family": "torus", "side": 4, "dims": 2}],
        }
        result, _ = run_experiment(config, tmp_path)
        lines = (tmp_path / "concentration.csv").read_text().splitlines()
        assert lines[0].startswith("family,n,set,delta,")
        assert len(lines) == 1 + 2 * 2  # two sets x two deltas
        assert result == {"rows": 4, "failed": 0}

    @pytest.mark.parametrize(
        "config, names",
        [
            ({"kind": "power", "seed": 1, "trials": 2, "cells": [
                {"family": "torus", "side": 3, "rho": 4, "sampler": "two_level",
                 "mu_grid": [0, 5]}]},
             ["trials.csv", "power.csv", "mu50.csv", "schema.txt"]),
            ({"kind": "sparsity", "seed": 1, "signals": 6, "cells": [
                {"family": "torus", "side": 6, "rho_lo": 4, "rho_hi": 16}]},
             ["points.csv", "fits.csv", "schema.txt"]),
            ({"kind": "concentration", "seed": 1, "samples": 5, "deltas": [0.5],
              "sets": ["edge"], "cells": [{"family": "torus", "side": 3}]},
             ["concentration.csv", "schema.txt"]),
        ],
        ids=["power", "sparsity", "concentration"],
    )
    def test_returns_the_names_it_wrote(self, tmp_path, config, names):
        # A file of another kind's run stays as it was and is not named.
        (tmp_path / "stale.csv").write_text("old\n")
        _, got = run_experiment(config, tmp_path)
        assert got == names
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["stale.csv"])
        assert (tmp_path / "stale.csv").read_text() == "old\n"

    @pytest.mark.parametrize(
        "cells, sets, message",
        [
            # K6's ball around vertex 0 holds every vertex, so no edge leaves it.
            ([{"family": "torus", "side": 4, "dims": 2}, {"family": "complete", "n": 6}],
             None, "complete n=6: edge set 'ball' is empty"),
            ([{"family": "torus", "side": 4, "dims": 2}],
             ["edge", "bal"],
             re.escape("unknown edge-set label 'bal'; expected one of ['edge', 'star', 'ball']")),
        ],
        ids=["empty-ball", "unknown-label"],
    )
    def test_bad_edge_set_fails_before_any_work(self, tmp_path, monkeypatch, cells, sets, message):
        ran = []
        monkeypatch.setattr(experiments, "all_edge_resistances", ran.append)
        monkeypatch.setattr(experiments, "sample_ust", ran.append)
        config = {"kind": "concentration", "seed": 5, "samples": 3, "deltas": [0.5],
                  "cells": cells}
        if sets is not None:
            config["sets"] = sets
        with pytest.raises(ValueError, match=message):
            run_experiment(config, tmp_path)
        assert ran == []

    def test_workers_below_one_rejected_before_out_exists(self, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            run_experiment(self.power_config(), out, workers=0)
        assert not out.exists()

    def test_bad_configs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            run_experiment({"kind": "power"}, tmp_path)
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run_experiment({"kind": "mystery", "seed": 1}, tmp_path)
        with pytest.raises(ValueError, match="'fixed'"):
            run_experiment(
                {**self.power_config(), "tree": {"kind": "fixed"}}, tmp_path
            )


_PIN_POWER_CELLS = [
    {"family": "torus", "side": 5, "dims": 2, "rho": 8.0, "sampler": "ball",
     "mu_grid": [0.0, 12.0]},
    {"family": "complete", "n": 40, "rho": 80.0, "sampler": "prior", "mu_grid": [0.0, 12.0]},
    {"family": "knn", "n": 40, "k": 4, "dim": 2, "graph_seed": 3, "rho": 12.0,
     "sampler": "two_level", "mu_grid": [0.0, 12.0]},
]


class TestPinnedOutputs:
    """sha256 of every file ``run_experiment`` writes for small configs.

    Other tests compare a run with a second run of the same code; these pins
    compare it with the bytes an earlier version wrote, so a change that
    moves any tree, signal, statistic or CSV byte shows here. Manifests are
    not pinned: they hold absolute paths. K40 is above the list cutoff of
    ``Graph._csr_lists`` and the other graphs below it.
    """

    CONFIGS = {
        "power-ust": {"kind": "power", "seed": 11, "trials": 8, "tree": {"kind": "ust"},
                      "cells": _PIN_POWER_CELLS},
        "power-bfs": {"kind": "power", "seed": 11, "trials": 8, "tree": {"kind": "bfs"},
                      "cells": _PIN_POWER_CELLS},
        "sparsity": {"kind": "sparsity", "seed": 12, "signals": 10, "cells": [
            {"family": "torus", "side": 6, "dims": 2, "rho_lo": 4, "rho_hi": 16,
             "sampler": "two_level"},
            {"family": "epsilon", "n": 40, "eps": 0.35, "dim": 2, "graph_seed": 4,
             "rho_lo": 6, "rho_hi": 30, "sampler": "ball"},
        ]},
        "concentration": {"kind": "concentration", "seed": 13, "samples": 60,
                          "deltas": [0.5, 1.0], "cells": [
            {"family": "torus", "side": 5, "dims": 2},
            {"family": "knn", "n": 40, "k": 4, "dim": 2, "graph_seed": 3},
        ]},
    }
    POWER_SCHEMA = "c474d63b5ba02029d4032905af888b2da80119408fcccec2316c60141c70531a"
    PINNED = {
        "power-ust": {
            "mu50.csv": "94273968f9b14135c701e7073e1fd3ada631786a4b700fd70d77ac61f7a05320",
            "power.csv": "0815f0e4834102e66105e2149eb7d738c3311c6df3d8fd801b63dbd490c955ea",
            "schema.txt": POWER_SCHEMA,
            "trials.csv": "1bc2964b7f9bc81052775bbebeaf51acfbf0ee5b0ed63054f09801ae9b089d67",
        },
        "power-bfs": {
            "mu50.csv": "971d54fbea09ff05d6b9fe6ecd70d16e2e6c145c83ade16e9fc6c9386868b09a",
            "power.csv": "da17911d7b420b0428fd29c326f180e379d2fd371385ccddbe8ae369e8e01b6c",
            "schema.txt": POWER_SCHEMA,
            "trials.csv": "e5eb0276324235f0e986d41ae4e04bbca314f288e086d3e96cdcdf4c619a00c7",
        },
        "sparsity": {
            "fits.csv": "5d125dc8d3510c283b73b3838604381e6c3902123f4319c86456df8e5adabaa4",
            "points.csv": "fdc061c7d2a35b77bf800062b087b69702a140d5a301cd1afdf8584d52e925e1",
            "schema.txt": "fbe0703c5db85fd05d60ab5a70b4f15e65f495bda689899452da1df3099620f0",
        },
        "concentration": {
            "concentration.csv": "61982ea0e442c6d3c4e463fa560495abf65f9efab37d66bfa92cb06c46f9b128",
            "schema.txt": "d3334b93715c8a638cf26ca0f7176fbe156d9df572e10348dbc4943311908842",
        },
    }

    @staticmethod
    def digests(config, out, workers=1):
        run_experiment(config, out, workers=workers)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_outputs_pinned(self, tmp_path, name):
        assert self.digests(self.CONFIGS[name], tmp_path) == self.PINNED[name]

    def test_worker_pool_writes_the_pinned_bytes(self, tmp_path):
        # Each task pickles its graph, so the workers rebuild every cached
        # view, the memoryview of K40 included.
        got = self.digests(self.CONFIGS["power-ust"], tmp_path, workers=2)
        assert got == self.PINNED["power-ust"]


class TestPowerEdgePins:
    """sha256 of a power run's files where cells are odd: an unsorted mu
    grid, a grid without mu = 0 (NaN type_i and risk), a cell with 21 of 30
    trials feasible, and a cell with none (no power.csv rows)."""

    CONFIG = {"kind": "power", "seed": 7, "trials": 30, "tree": {"kind": "ust"}, "cells": [
        {"family": "torus", "side": 5, "rho": 4, "sampler": "ball", "mu_grid": [9, 0, 3, 1.5]},
        {"family": "complete", "n": 30, "rho": 29, "sampler": "prior", "mu_grid": [2, 5, 1]},
        {"family": "knn", "n": 40, "k": 4, "graph_seed": 3, "rho": 5, "sampler": "ball",
         "mu_grid": [6, 0, 2.5]},
        {"family": "epsilon", "n": 40, "eps": 0.35, "graph_seed": 4, "rho": 2,
         "sampler": "ball", "mu_grid": [0, 4]},
    ]}
    PINNED = {
        "mu50.csv": "35e0d35ba36365e6576ad97ef21a84ac918419bb73f375d418bf79b14b12bbf1",
        "power.csv": "f87f977ae182f3423b248fb6331e2792ef4834c5da3ee185abfff27d9cc947d6",
        "schema.txt": TestPinnedOutputs.POWER_SCHEMA,
        "trials.csv": "21348be76fdf486441a1c0a3baafb5ea57ae87153232586dbc0d1189f90692e1",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_outputs_pinned(self, tmp_path, workers):
        summary, _ = run_experiment(self.CONFIG, tmp_path, workers=workers)
        assert summary["rows"] == 273
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == self.PINNED

    def test_cells_keep_only_feasible_trials(self):
        kw = dict(trials=30, sigma=1.0, delta=0.05, tree="ust", master_seed=7)
        cells = [CellSpec.from_dict(c) for c in self.CONFIG["cells"]]
        knn = power_curve(cells[2], cell_index=2, **kw)
        assert len(knn.trial) == 21 and knn.stats.shape == (21, 3)
        empty = power_curve(cells[3], cell_index=3, **kw)
        assert empty.stats.shape == (0, 2)
        for a in (empty.trial, empty.tree_seed, empty.cut):
            assert a.shape == (0,) and a.dtype == np.int64
        assert aggregate_records([empty], 30) == []


class TestPresets:
    def test_all_presets_parse(self):
        for name, kind in (
            ("paper-fig1", "sparsity"),
            ("paper-fig2", "power"),
            ("concentration", "concentration"),
        ):
            config = preset_config(name, seed=42)
            assert config["kind"] == kind and config["seed"] == 42
            for cell in config["cells"]:
                CellSpec.from_dict(cell)
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("paper-fig3", seed=0)

    def test_power_preset_grids_start_at_null(self):
        config = preset_config("paper-fig2", seed=0)
        assert len(config["cells"]) == 12
        for cell in config["cells"]:
            grid = cell["mu_grid"]
            assert grid[0] == 0.0 and sorted(grid) == grid

    def test_power_preset_is_json_serializable(self):
        json.dumps(preset_config("paper-fig2", seed=1))
        json.dumps(preset_config("paper-fig1", seed=1))
        json.dumps(preset_config("concentration", seed=1))
