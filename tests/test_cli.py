"""Command-line interface: subcommands, exit codes, manifests, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

from helpers import component_sizes_without, edge_tuples, random_tree_edges
from treewavelets import (
    all_edge_resistances,
    bfs_spanning_tree,
    build_basis,
    build_graph,
    build_spanning_tree,
    gen_knn,
    gen_torus,
    read_edge_list,
    read_tree,
    write_edge_list,
)
from treewavelets.cli import _components_after_removal, _ortho_residual, main


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGen:
    def test_torus_writes_graph_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "torus.txt"
        assert main(["gen", "torus", "--side", "4", "--dims", "2",
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        g = read_edge_list(out)
        assert (g.n, g.m) == (16, 32)
        manifest = json.loads((tmp_path / "torus.txt.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["params"]["side"] == 4
        assert manifest["outputs"]["torus.txt"] == sha256(out)

    def test_knn_writes_points_sidecar(self, tmp_path):
        out = tmp_path / "knn.txt"
        assert main(["gen", "knn", "--n", "30", "--k", "3", "--seed", "7",
                     "--out", str(out)]) == 0
        g = read_edge_list(out)
        expect, _ = gen_knn(30, 3, 2, 7)
        assert edge_tuples(g) == edge_tuples(expect)
        pts = (tmp_path / "knn.points.csv").read_text().splitlines()
        assert pts[0] == "vertex,x0,x1" and len(pts) == 31
        manifest = json.loads((tmp_path / "knn.txt.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert set(manifest["outputs"]) == {"knn.txt", "knn.points.csv"}

    def test_bad_parameters_exit_2(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "torus", "--side", "2", "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err


class TestBasis:
    @staticmethod
    def torus_file(tmp_path):
        path = tmp_path / "torus.txt"
        write_edge_list(gen_torus(4, 2), path)
        return path

    def test_ortho_residual_matches_dense_and_catches_a_bad_row(self):
        basis = build_basis(bfs_spanning_tree(gen_torus(5, 2)))
        dense = basis.to_dense()
        expect = np.abs(dense @ dense.T - np.eye(25)).max()
        assert _ortho_residual(basis) == pytest.approx(expect, abs=1e-15)
        basis.matrix.data[basis.matrix.indptr[3]] *= 1.5
        assert _ortho_residual(basis) > 1e-3

    def test_diagnostics_pass_and_outputs(self, tmp_path, capsys):
        graph = self.torus_file(tmp_path)
        basis_out = tmp_path / "basis.csv"
        tree_out = tmp_path / "tree.txt"
        code = main(["basis", "--graph", str(graph), "--tree", "ust",
                     "--seed", "1", "--out", str(basis_out),
                     "--tree-out", str(tree_out)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[ok]") == 2 and "FAIL" not in out
        assert "elements: 16" in out
        assert basis_out.read_text().splitlines()[0] == "element,vertex,value,depth"
        tree = read_tree(tree_out, gen_torus(4, 2))
        assert tree.n == 16 and len(tree.edges) == 15
        manifest = json.loads((tmp_path / "basis.csv.manifest.json").read_text())
        assert set(manifest["outputs"]) == {"basis.csv", "tree.txt"}
        assert manifest["inputs"]["torus.txt"] == sha256(graph)

    def test_bfs_tree_needs_no_seed(self, tmp_path, capsys):
        graph = self.torus_file(tmp_path)
        assert main(["basis", "--graph", str(graph), "--tree", "bfs"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_ust_without_seed_exits_2(self, tmp_path, capsys):
        graph = self.torus_file(tmp_path)
        assert main(["basis", "--graph", str(graph), "--tree", "ust"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_disconnected_graph_exits_2(self, tmp_path, capsys):
        path = tmp_path / "two_parts.txt"
        path.write_text("5 3\n0 1\n1 2\n3 4\n")
        assert main(["basis", "--graph", str(path), "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "connected" in err and "[3, 2]" in err


class TestResistance:
    def test_csv_and_foster_check(self, tmp_path, capsys):
        graph = tmp_path / "torus.txt"
        write_edge_list(gen_torus(4, 2), graph)
        out = tmp_path / "res.csv"
        assert main(["resistance", "--graph", str(graph), "--out", str(out),
                     "--validate-foster"]) == 0
        assert "foster" in capsys.readouterr().out.lower()
        lines = out.read_text().splitlines()
        assert lines[0] == "u,v,r_e"
        g = gen_torus(4, 2)
        profile = all_edge_resistances(g)
        assert len(lines) == 1 + g.m
        first = lines[1].split(",")
        assert (int(first[0]), int(first[1])) == edge_tuples(g)[0]
        assert float(first[2]) == pytest.approx(profile.edge_resistances[0], rel=1e-12)

    def test_tree_draw_check(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        write_edge_list(gen_knn(20, 3, 2, 4)[0], graph)
        out = tmp_path / "res.csv"
        assert main(["resistance", "--graph", str(graph), "--out", str(out),
                     "--validate-mtt", "600", "--seed", "3"]) == 0
        assert "within" in capsys.readouterr().out

    def test_mtt_requires_seed(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        write_edge_list(gen_torus(4, 2), graph)
        code = main(["resistance", "--graph", str(graph),
                     "--out", str(tmp_path / "r.csv"), "--validate-mtt", "100"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err


class TestExperiment:
    @staticmethod
    def config(tmp_path):
        payload = {
            "kind": "power",
            "seed": 7,
            "sigma": 1.0,
            "delta": 0.05,
            "trials": 8,
            "tree": {"kind": "ust"},
            "cells": [
                {"family": "torus", "side": 4, "dims": 2, "rho": 8.0,
                 "sampler": "two_level", "mu_grid": [0.0, 25.0]}
            ],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_config_run_writes_manifest_and_is_deterministic(self, tmp_path, capsys):
        config = self.config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["experiment", "--config", str(config), "--out", str(out_b)]) == 0
        assert "experiment kind: power" in capsys.readouterr().out
        for name in ("trials.csv", "power.csv", "mu50.csv", "schema.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["command"] == "experiment"
        assert manifest["seed"] == 7
        assert manifest["inputs"]["config.json"] == sha256(config)
        for name, digest in manifest["outputs"].items():
            assert digest == sha256(out_a / name)

    def test_seed_flag_overrides_config(self, tmp_path):
        config = self.config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--config", str(config), "--out", str(out_a),
                     "--seed", "99"]) == 0
        assert main(["experiment", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "trials.csv").read_bytes() != (out_b / "trials.csv").read_bytes()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_preset_requires_seed(self, tmp_path, capsys):
        code = main(["experiment", "--preset", "concentration",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["NaN", "Infinity"])
    def test_non_finite_sigma_exits_2(self, tmp_path, capsys, sigma):
        config = self.config(tmp_path)
        config.write_text(config.read_text().replace('"sigma": 1.0', f'"sigma": {sigma}'))
        assert json.loads(config.read_text())["sigma"] != 1.0
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err

    def test_nan_cut_budget_exits_2(self, tmp_path, capsys):
        # Python's json reads the bare token NaN as a float.
        config = self.config(tmp_path)
        config.write_text(config.read_text().replace('"rho": 8.0', '"rho": NaN'))
        assert math.isnan(json.loads(config.read_text())["cells"][0]["rho"])
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "rho must be >= 0" in capsys.readouterr().err

    def test_zero_concentration_samples_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "concentration", "seed": 1, "samples": 0, "deltas": [0.5],
            "cells": [{"family": "torus", "side": 4, "dims": 2}],
        }))
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "at least one tree" in capsys.readouterr().err

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["experiment", "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestValidate:
    def test_battery_passes(self, capsys):
        assert main(["validate", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 10
        assert "[FAIL]" not in out
        assert "all checks passed" in out

    def test_components_after_removal_match_union_find(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            edges = random_tree_edges(n, rng)
            t = build_spanning_tree(build_graph(n, edges), edges)
            v = int(rng.integers(n))
            got = sorted(_components_after_removal(t, v), reverse=True)
            assert got == component_sizes_without(n, edges, v)


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "torus", "--side", "4"])  # no --out
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "0.1.0"
