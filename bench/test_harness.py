"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import treewavelets  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = checks.remark1_scale(8.0, 4, 25, 0.05, 1.0)

TINY = {
    "power-ust": {
        "kind": "power", "seed": 3, "trials": 3, "tree": {"kind": "ust"},
        "cells": [{"family": "torus", "side": 4, "dims": 2, "rho": 8.0,
                   "sampler": "two_level", "mu_grid": [0.0, 5.0, 10.0, 20.0]}],
    },
    "power-fixed-tree": {
        "kind": "power", "seed": 3, "trials": 3, "tree": {"kind": "bfs"},
        "cells": [{"family": "torus", "side": 5, "dims": 2, "rho": 8.0, "sampler": "two_level",
                   "mu_grid": [round(SCALE * f, 6) for f in (0.0, 0.5, 1.0, 2.0, 2.4)]}],
    },
    "concentration": {
        "kind": "concentration", "seed": 3, "samples": 20, "deltas": [0.5, 1.0],
        "cells": [{"family": "torus", "side": 4, "dims": 2}],
    },
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_checks_and_reports_every_metric(name, trace, tmp_path):
    config = TINY[name]
    result = run.run_workload(config, 0.0, trace, tmp_path / "run", treewavelets)
    assert result["checks"].ok, result["checks"].lines()
    runs = 2 if trace else run.MIN_RUNS
    assert result["runs"] == runs
    assert result["attempted"] == runs * run.operations(config)
    assert result["failed"] == 0
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert all(result["metrics"][k][1] == units[k] for k in wanted)
    assert all(r["probe_samples"] >= 2 and r["scale"] > 0 for r in result["per_run"])


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_self_time_subtracts_nested_spans():
    tracer = child.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    selfs = tracer.self_times()
    (name, start, end, _), = [s for s in tracer.spans if s[0] == "outer"]
    assert len(selfs["inner"]) == 2
    total = (end - start) / 1e9
    assert selfs["outer"][0] == pytest.approx(total - sum(selfs["inner"]), abs=1e-9)


def test_exits_nonzero_without_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "power-ust", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
