"""Command-line interface: subcommands, exit codes, manifests, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
import treewavelets
from treewavelets import experiments
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
        assert list(tmp_path.iterdir()) == []


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
        write_edge_list(build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), graph)
        assert main(["resistance", "--graph", str(graph), "--out", str(out)]) == 0
        assert out.read_text() == (
            "u,v,r_e\n0,1,0.6666666666666667\n0,2,0.6666666666666667\n"
            "1,2,0.6666666666666667\n2,3,1.0\n"
        )

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
        assert list(tmp_path.iterdir()) == [graph]

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_mtt_draws_must_be_positive(self, tmp_path, capsys, draws):
        graph = tmp_path / "g.txt"
        write_edge_list(gen_torus(4, 2), graph)
        code = main(["resistance", "--graph", str(graph), "--out", str(tmp_path / "r.csv"),
                     "--validate-mtt", draws, "--seed", "3"])
        assert code == 2
        assert "--validate-mtt" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [graph]


@pytest.mark.parametrize("command", ["gen", "resistance", "basis"])
def test_failed_write_leaves_no_manifest(tmp_path, capsys, command):
    graph = tmp_path / "torus.txt"
    write_edge_list(gen_torus(4, 2), graph)
    out = tmp_path / "taken"
    out.mkdir()  # writing the output file into its place fails
    argv = {
        "gen": ["gen", "torus", "--side", "4"],
        "resistance": ["resistance", "--graph", str(graph)],
        "basis": ["basis", "--graph", str(graph), "--seed", "1"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "torus.txt"]


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

    # Runs in a fresh interpreter; prints which modules were loaded on its last line.
    IMPORT_PROBE = """
import json, sys
import treewavelets
random_on_import = "numpy.random" in sys.modules
from treewavelets.cli import main
codes = [main(["experiment", "--config", c, "--out", c + ".out", "--threads", "1"])
         for c in sys.argv[1:]]
print(json.dumps({"random_on_import": random_on_import, "codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

    def test_experiments_run_without_scipy(self, tmp_path):
        power = json.loads(self.config(tmp_path).read_text())
        configs = [
            power,
            {**power, "tree": {"kind": "bfs"}},
            {"kind": "concentration", "seed": 1, "samples": 4, "deltas": [0.5],
             "cells": [{"family": "torus", "side": 4, "dims": 2}]},
        ]
        paths = [tmp_path / f"config{i}.json" for i in range(len(configs))]
        for path, config in zip(paths, configs):
            path.write_text(json.dumps(config))
        src = str(Path(treewavelets.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", self.IMPORT_PROBE, *map(str, paths)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report == {"random_on_import": True, "codes": [0, 0, 0], "scipy": []}

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

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_exits_2_and_writes_nothing(self, tmp_path, capsys, threads):
        config = self.config(tmp_path)
        out = tmp_path / "o"
        code = main(["experiment", "--config", str(config), "--out", str(out),
                     "--threads", threads])
        assert code == 2
        assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda c: c.update(sigam=5.0), "sigam"),
            (lambda c: c["tree"].update(kind="bfs", rooot=3), "rooot"),
            (lambda c: c["tree"].update(kind="bfs", root=0), "root"),
            (lambda c: c.update(signals=4), "signals"),
            (lambda c: c.update(kind="sparsity", signals=4), "sigma"),
            (lambda c: c.update(kind="concentration", samples=4, deltas=[0.5]), "trials"),
            (lambda c: c.update(trails=c.pop("trials")), "trails"),
        ],
        ids=["power-typo", "tree-typo", "tree-root", "power-signals", "sparsity-sigma",
             "concentration-trials", "required-key-typo"],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, edit, key):
        config = self.config(tmp_path)
        payload = json.loads(config.read_text())
        edit(payload)
        config.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"kind": "power", "seed": 7, "cells": [{"family": "torus", "side": 4}]},
             "power config needs key 'trials'"),
            ({"kind": "power", "seed": 7, "trials": 8}, "power config needs key 'cells'"),
            ({"kind": "sparsity", "seed": 7, "cells": [{"family": "torus", "side": 4}]},
             "sparsity config needs key 'signals'"),
        ],
        ids=["trials", "cells", "signals"],
    )
    def test_missing_required_key_is_named(self, tmp_path, capsys, config, message):
        # It used to exit 2 with a bare KeyError such as "error: 'trials'".
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source",
        [lambda config: ["--config", str(config)],
         lambda config: ["--preset", "concentration", "--seed", "-1"]],
        ids=["config", "preset"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, source):
        # numpy used to reject it, unnamed, only after the graphs were built.
        config = self.config(tmp_path)
        config.write_text(config.read_text().replace('"seed": 7', '"seed": -3'))
        out = tmp_path / "o"
        assert main(["experiment", *source(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "non-negative integer master seed under 'seed'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"kind": "power", "seed": 7, "trials": 8,
              "cells": [{"family": "torus", "side": 4, "rho_lo": 2, "rho_hi": 4,
                         "mu_grid": [0.0, 25.0]}]},
             "['rho_hi', 'rho_lo']"),
            ({"kind": "sparsity", "seed": 7, "signals": 4,
              "cells": [{"family": "torus", "side": 4, "rho_lo": 2, "rho_hi": 4, "rho": 8.0}]},
             "['rho']"),
            ({"kind": "concentration", "seed": 7, "samples": 4, "deltas": [0.5],
              "cells": [{"family": "torus", "side": 4, "mu_grid": [0.0]}]},
             "['mu_grid']"),
        ],
        ids=["power-rho-range", "sparsity-rho", "concentration-mu-grid"],
    )
    def test_cell_field_of_another_kind_exits_2(self, tmp_path, capsys, config, field):
        # The power cell used to run at rho = 0 and write header-only CSVs.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        assert f"cell 0: {config['kind']} cells do not read {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda c: c.update(cells=[]), "cells"),
            (lambda c: c.update(kind="sparsity", signals=4, cells=[]), "cells"),
            (lambda c: c.update(kind="concentration", samples=4, deltas=[]), "deltas"),
            (lambda c: c.update(kind="concentration", samples=4, deltas=[0.5], sets=[]), "sets"),
        ],
        ids=["power-cells", "sparsity-cells", "concentration-deltas", "concentration-sets"],
    )
    def test_empty_config_list_exits_2(self, tmp_path, capsys, edit, key):
        config = self.config(tmp_path)
        payload = json.loads(config.read_text())
        edit(payload)
        config.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "empty" in err and repr(key) in err
        assert not out.exists()

    def test_disconnected_knn_cell_exits_2_and_leaves_no_file(self, tmp_path, capsys):
        # kNN with k=1 on 30 points (graph seed 3) comes out disconnected; the
        # failure needs the graph, so it comes after the first manifest.
        config = self.config(tmp_path)
        payload = json.loads(config.read_text())
        payload["cells"] = [{"family": "knn", "n": 30, "k": 1, "graph_seed": 3,
                             "rho": 8.0, "sampler": "two_level", "mu_grid": [0.0]}]
        config.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
        assert "connected" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_bad_concentration_delta_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before the deltas were checked")

        monkeypatch.setattr(experiments.CellSpec, "build_graph", must_not_run)
        monkeypatch.setattr(experiments, "all_edge_resistances", must_not_run)
        monkeypatch.setattr(experiments, "sample_ust", must_not_run)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "concentration", "seed": 1, "samples": 3000, "deltas": [-0.5],
            "cells": [{"family": "torus", "side": 16, "dims": 2}],
        }))
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "delta values must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, counted, message",
        [
            ({"kind": "power", "seed": 7, "trials": 8,
              "cells": [{"family": "torus", "side": 4, "rho": 8.0, "mu_grid": [0.0, 25.0]},
                        {"family": "torus", "side": 5, "rho": 8.0, "mu_grid": []}]},
             "_power_trial", "cell 1: mu_grid must be nonempty"),
            ({"kind": "sparsity", "seed": 7, "signals": 4,
              "cells": [{"family": "torus", "side": 4, "rho_lo": 2, "rho_hi": 4},
                        {"family": "torus", "side": 5, "rho_lo": 9, "rho_hi": 3}]},
             "_sparsity_point", "cell 1: need 0 <= rho_lo <= rho_hi"),
        ],
        ids=["power-empty-mu-grid", "sparsity-rho-range"],
    )
    def test_bad_second_cell_exits_2_before_any_trial(
        self, tmp_path, capsys, monkeypatch, config, counted, message
    ):
        ran = []
        monkeypatch.setattr(experiments, counted, ran.append)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["experiment", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--threads", "1"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert ran == []

    def test_zero_concentration_samples_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "concentration", "seed": 1, "samples": 0, "deltas": [0.5],
            "cells": [{"family": "torus", "side": 4, "dims": 2}],
        }))
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "samples" in err and "at least one tree" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c["cells"][0].update(side="8"), "'side' must be an integer"),
            (lambda c: c.update(kind="concentration", samples=4, deltas=0.5), "deltas must be a list"),
            (lambda c: c.update(cells=5), "cells must be a list"),
            (lambda c: c.update(seed=True), "integer master seed"),
            (lambda c: c.update(trials=True), "trials must be an integer"),
            (lambda c: c.update(tree=5), "tree must be a JSON object"),
        ],
        ids=["side-string", "deltas-scalar", "cells-scalar", "seed-bool", "trials-bool", "tree-scalar"],
    )
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, edit, message):
        # Each of these used to exit 1 with a traceback, or (seed) run.
        config = self.config(tmp_path)
        payload = json.loads(config.read_text())
        edit(payload)
        config.write_text(json.dumps(payload))
        out = tmp_path / "o"
        code = main(["experiment", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "trials.csv").exists()

    def test_integer_rho_writes_one_form_in_every_csv(self, tmp_path):
        config = self.config(tmp_path)
        config.write_text(config.read_text().replace('"rho": 8.0', '"rho": 8'))
        assert json.loads(config.read_text())["cells"][0]["rho"] == 8
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        for name in ("trials.csv", "power.csv", "mu50.csv"):
            lines = (out / name).read_text().splitlines()
            col = lines[0].split(",").index("rho")
            assert {line.split(",")[col] for line in lines[1:]} == {"8.0"}, name

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"kind": "power", "seed": 7, "trials": 2, "trials": 3, "tree": {"kind": "ust"},'
             ' "cells": [{"family": "torus", "side": 4, "mu_grid": [0.0, 1.0]}]}', "trials"),
            ('{"kind": "power", "seed": 7, "trials": 2, "tree": {"kind": "ust", "kind": "bfs"},'
             ' "cells": [{"family": "torus", "side": 4, "mu_grid": [0.0, 1.0]}]}', "kind"),
            ('{"kind": "concentration", "seed": 7, "samples": 4, "deltas": [0.5],'
             ' "cells": [{"family": "complete", "n": 5, "n": 6}]}', "n"),
        ],
        ids=["top", "tree", "cell"],
    )
    def test_repeated_config_key_exits_2(self, tmp_path, capsys, text, key):
        # Plain json.loads would keep the last of two equal keys and run on it.
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        assert f"config key {key!r} is given twice" in capsys.readouterr().err
        assert not out.exists()

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

    def test_disconnected_knn_draw_is_redrawn(self, capsys):
        # Seed 3 first draws a kNN graph with two components.
        first = gen_knn(40, 4, 2, int(np.random.default_rng(3).integers(2**32)))[0]
        assert len(first.component_sizes) == 2
        assert main(["validate", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 10
        assert "[FAIL]" not in out

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
