"""Experiment harness: trials, power curves, sparsity scatter, concentration."""

import json
import math

import numpy as np
import pytest

from treewavelets import (
    CellSpec,
    FitUndefinedError,
    SparsityPoint,
    TreeSource,
    activation_bound,
    aggregate_records,
    all_edge_resistances,
    basis_sparsity,
    bfs_spanning_tree,
    build_basis,
    build_graph,
    detect,
    fit_sparsity_points,
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
from treewavelets import experiments
from treewavelets.experiments import _named_edge_set


class TestTreeSource:
    def test_ust_draws_from_stream(self):
        g = gen_torus(4, 2)
        src = TreeSource.ust()
        t1, s1 = src.realize(g, np.random.default_rng(0))
        t2, s2 = src.realize(g, np.random.default_rng(1))
        validate_spanning_tree(t1)
        validate_spanning_tree(t2)
        assert s1 >= 0 and s2 >= 0 and s1 != s2

    def test_bfs_is_deterministic_and_unseeded(self):
        g = gen_torus(4, 2)
        src = TreeSource.bfs()
        t1, s1 = src.realize(g, np.random.default_rng(0))
        t2, s2 = src.realize(g, np.random.default_rng(99))
        assert s1 == s2 == -1
        assert edge_tuples(t1) == edge_tuples(t2) == edge_tuples(bfs_spanning_tree(g))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TreeSource(kind="dfs")
        with pytest.raises(ValueError, match="kind"):
            TreeSource(kind="fixed")


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
        kw = dict(trials=25, sigma=1.0, delta=0.05, tree_source=TreeSource.ust(), master_seed=5)
        a = power_curve(cell, **kw)
        b = power_curve(cell, **kw)
        assert a == b
        # Each trial shares one tree draw across its whole mu grid.
        by_trial = {}
        for r in a:
            by_trial.setdefault(r.trial, set()).add(r.tree_seed)
        assert all(len(seeds) == 1 for seeds in by_trial.values())
        assert len(by_trial) == 25

    def test_null_and_strong_signal_rates(self):
        records = power_curve(
            self.tiny_cell(),
            trials=60,
            sigma=1.0,
            delta=0.05,
            tree_source=TreeSource.ust(),
            master_seed=9,
        )
        nulls = [r for r in records if r.mu == 0.0]
        alts = [r for r in records if r.mu > 0.0]
        assert len(nulls) == len(alts) == 60
        null_rate = sum(r.reject for r in nulls) / 60
        assert null_rate <= 0.05 + binomial_band(0.05, 60)
        assert sum(r.reject for r in alts) / 60 == 1.0  # mu = 30 on n = 16

    @pytest.mark.parametrize("source", ["ust", "bfs"])
    def test_statistic_matches_direct_detection(self, source):
        # Rebuild every trial from its own stream, in the trial's draw order:
        # the tree, then the unit-energy shape, then the noise.
        cell = self.tiny_cell(mu_grid=(0.0, 1.5, 4.0))
        tree_source = TreeSource(kind=source)
        sigma, delta, master_seed, cell_index = 1.7, 0.05, 4, 2
        records = power_curve(
            cell, trials=6, sigma=sigma, delta=delta, tree_source=tree_source,
            master_seed=master_seed, cell_index=cell_index,
        )
        assert len(records) == 6 * 3
        g = gen_torus(4, 2)
        tau = threshold(sigma, g.n, delta)
        for rec in records:
            rng = np.random.default_rng(
                np.random.SeedSequence(master_seed, spawn_key=(cell_index, rec.trial))
            )
            tree, tree_seed = tree_source.realize(g, rng)
            shape = gen_two_level_signal(g, cell.rho, 1.0, rng)
            z = rng.standard_normal(g.n)
            direct = detect(build_basis(tree), rec.mu * shape.values + sigma * z, tau)
            assert rec.tree_seed == tree_seed and rec.threshold == tau
            assert abs(rec.statistic - direct.statistic) <= 1e-12
            assert rec.reject == (rec.statistic > rec.threshold)
            assert rec.truth == (rec.mu > 0)
            assert rec.cut == (shape.cut if rec.mu > 0 else 0)

    def test_worker_pool_gives_the_same_records(self):
        cell = self.tiny_cell()
        kw = dict(trials=12, sigma=1.0, delta=0.05, tree_source=TreeSource.ust(), master_seed=5)
        assert power_curve(cell, workers=2, **kw) == power_curve(cell, workers=1, **kw)

    def test_different_cell_index_changes_stream(self):
        cell = self.tiny_cell()
        kw = dict(trials=10, sigma=1.0, delta=0.05, tree_source=TreeSource.ust(), master_seed=5)
        a = power_curve(cell, cell_index=0, **kw)
        b = power_curve(cell, cell_index=1, **kw)
        assert [r.tree_seed for r in a] != [r.tree_seed for r in b]

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="trials"):
            power_curve(
                self.tiny_cell(),
                trials=0,
                sigma=1.0,
                delta=0.05,
                tree_source=TreeSource.ust(),
                master_seed=0,
            )
        with pytest.raises(ValueError, match="mu_grid"):
            power_curve(
                self.tiny_cell(mu_grid=()),
                trials=5,
                sigma=1.0,
                delta=0.05,
                tree_source=TreeSource.ust(),
                master_seed=0,
            )

    @pytest.mark.parametrize(("sigma", "delta", "match"), [
        (0.0, 0.05, "sigma"), (math.nan, 0.05, "sigma"), (1.0, 1.0, "delta"),
    ])
    def test_bad_sigma_or_delta_fails_before_any_trial(self, monkeypatch, sigma, delta, match):
        ran = []
        monkeypatch.setattr(experiments, "_power_trial", ran.append)
        with pytest.raises(ValueError, match=match):
            power_curve(self.tiny_cell(), trials=3, sigma=sigma, delta=delta,
                        tree_source=TreeSource.ust(), master_seed=0)
        assert ran == []


class TestAggregateRecords:
    def test_recomputes_rates_and_risk(self):
        cell = TestPowerCurve.tiny_cell(mu_grid=(0.0, 2.0, 30.0))
        records = power_curve(
            cell, trials=40, sigma=1.0, delta=0.05, tree_source=TreeSource.ust(), master_seed=3
        )
        aggs = aggregate_records(records, trials_requested=40)
        assert [a["mu"] for a in aggs] == [0.0, 2.0, 30.0]
        by_mu = {a["mu"]: a for a in aggs}
        manual_null = sum(r.reject for r in records if r.mu == 0.0) / 40
        assert by_mu[0.0]["power"] == manual_null
        for mu in (2.0, 30.0):
            manual = sum(r.reject for r in records if r.mu == mu) / 40
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
        assert len(points) == 50 and len(fits) == 1
        g = gen_torus(6, 2)
        for p in points:
            assert p.sparsity <= p.bound == p.cut * p.levels + 1
            assert p.tree_cut <= p.cut <= p.rho_target
            tree = sample_ust(g, p.tree_seed)
            assert activation_bound(tree) == p.levels
            assert tree.max_degree == p.tree_degree
        fit = fits[0]
        assert fit.points == 50 and math.isfinite(fit.slope)

    def test_deterministic(self):
        cell = CellSpec.from_dict(
            {"family": "torus", "side": 6, "dims": 2, "rho_lo": 4, "rho_hi": 16,
             "sampler": "two_level"}
        )
        a = sparsity_experiment([cell], signals=12, master_seed=2)
        b = sparsity_experiment([cell], signals=12, master_seed=2)
        assert a == b

    def test_worker_pool_gives_the_same_points(self):
        cell = CellSpec.from_dict(
            {"family": "torus", "side": 6, "dims": 2, "rho_lo": 4, "rho_hi": 16,
             "sampler": "two_level"}
        )
        a = sparsity_experiment([cell], signals=12, master_seed=2, workers=2)
        assert a == sparsity_experiment([cell], signals=12, master_seed=2, workers=1)

    def test_validates_arguments(self):
        cell = CellSpec.from_dict(
            {"family": "torus", "side": 4, "dims": 2, "rho_lo": 10, "rho_hi": 4}
        )
        with pytest.raises(ValueError, match="signals"):
            sparsity_experiment([cell], signals=1, master_seed=0)
        with pytest.raises(ValueError, match="rho_lo"):
            sparsity_experiment([cell], signals=5, master_seed=0)


class TestFitSparsityPoints:
    @staticmethod
    def point(i, cut, levels, sparsity):
        return SparsityPoint(
            family="f", n=16, signal=i, tree_seed=0, tree_degree=3,
            levels=levels, rho_target=cut, cut=cut, tree_cut=cut,
            sparsity=sparsity, bound=cut * levels + 1,
        )

    def test_exact_line_recovered(self):
        pts = [self.point(i, cut, 2, 3 * cut * 2 // 4 + 5) for i, cut in enumerate((4, 8, 12, 16))]
        fit = fit_sparsity_points(pts)
        # y = 0.75 x + 5 exactly on these points.
        assert fit.slope == pytest.approx(0.75, abs=1e-12)
        assert fit.intercept == pytest.approx(5.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_abscissa_is_undefined(self):
        pts = [self.point(i, 6, 2, s) for i, s in enumerate((3, 7))]
        with pytest.raises(FitUndefinedError, match="abscissa"):
            fit_sparsity_points(pts)
        with pytest.raises(FitUndefinedError, match="no points"):
            fit_sparsity_points([])


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
        (row,) = rows
        # Two of the three spanning trees contain any given edge.
        trees = enumerate_spanning_trees(3, g.edges)
        assert sum((0, 1) in t for t in trees) / len(trees) == pytest.approx(2 / 3)
        assert row.r_set == pytest.approx(2 / 3, abs=1e-12)
        assert row.tail_at == pytest.approx(1.4 * 2 / 3)

    def test_triangle_bound_and_empirical(self):
        g = self.triangle()
        rows = ust_concentration_check(g, [(0, 1)], [0.4], ust_edge_ids(g, 3000, 1))
        (row,) = rows
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
        assert rows[0].empirical == pytest.approx(manual / 50)

    def test_whole_edge_set_is_certain(self):
        # Every spanning tree has exactly n - 1 = 2 of the triangle's edges,
        # so the overlap count equals r_set = 2 deterministically and never
        # reaches (1 + delta) r_set.
        g = self.triangle()
        rows = ust_concentration_check(g, g.edges, [0.25, 1.0], ust_edge_ids(g, 500, 2))
        for row in rows:
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
        assert rows == flipped
        counts = [sum(e in star for e in edge_tuples(t)) for t in trees]
        for row in rows:
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
        r1 = run_experiment(self.power_config(), tmp_path / "a")
        r2 = run_experiment(self.power_config(), tmp_path / "b")
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
        result = run_experiment(config, tmp_path)
        lines = (tmp_path / "points.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 12
        for row in rows:
            assert int(row["sparsity"]) <= int(row["bound"])
        assert (tmp_path / "fits.csv").exists()
        assert result["torus"]["points"] == 12

    def test_concentration_outputs(self, tmp_path):
        config = {
            "kind": "concentration",
            "seed": 5,
            "samples": 300,
            "deltas": [0.5, 1.0],
            "sets": ["edge", "star"],
            "cells": [{"family": "torus", "side": 4, "dims": 2}],
        }
        result = run_experiment(config, tmp_path)
        lines = (tmp_path / "concentration.csv").read_text().splitlines()
        assert lines[0].startswith("family,n,set,delta,")
        assert len(lines) == 1 + 2 * 2  # two sets x two deltas
        assert result == {"rows": 4, "failed": 0}

    @pytest.mark.parametrize(
        "cells, sets, message",
        [
            # K6's ball around vertex 0 holds every vertex, so no edge leaves it.
            ([{"family": "torus", "side": 4, "dims": 2}, {"family": "complete", "n": 6}],
             None, "complete n=6: edge set 'ball' is empty"),
            ([{"family": "torus", "side": 4, "dims": 2}],
             ["edge", "bal"], "torus n=16: unknown edge-set label 'bal'"),
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

    def test_bad_configs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            run_experiment({"kind": "power"}, tmp_path)
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run_experiment({"kind": "mystery", "seed": 1}, tmp_path)
        with pytest.raises(ValueError, match="'fixed'"):
            run_experiment(
                {**self.power_config(), "tree": {"kind": "fixed"}}, tmp_path
            )


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
