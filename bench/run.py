"""Benchmark of the spanning-tree wavelet detector, end to end and per layer.

Usage, from the repository root::

    python3 bench/run.py --workload power-ust --seed 1 --seconds 20 --trace 0

Each workload is one experiment config run through ``treewavelets experiment``
with one worker, each time in a fresh child process (``bench/child.py``). The
loop is closed: the next run starts when the previous one has ended. For
``--seconds`` seconds the benchmark runs the same config again and again and
reports medians over the runs. Every time is scaled to a fixed CPU speed
(``REF_PROBE_S``) by the child's speed probe, so the host's speed drift does
not show as a change of the program. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced runs and reports
per-layer self times and counts, plus the tracing overhead. Every run's output
files are checked (``bench/checks.py``). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Operations are power trials (power workloads) or tree draws (concentration).

See ``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import checks as ck

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_ROOT = Path(__file__).resolve().parent / ".out"
CHILD_TIMEOUT_S = 120
MIN_RUNS = 3  # untraced runs per --trace 0 run; medians need at least three
BLAS_THREADS = "1"
# Median time of the child's speed probe (bench/child.py, SpeedProbe) on the
# reference machine, a shared 2-core x86-64 VM. A child's times are multiplied
# by REF_PROBE_S / its own median probe time: they read as times on a CPU of
# the reference speed. The constant sets the scale only.
REF_PROBE_S = 0.35e-3

# The Remark-1 scale of the fixed-tree cells is computed with these bounds on
# the BFS tree's max degree; the checks recompute it with the real degree.
FIXED_TREE_CELLS = (
    # graph fields, rho, bound on the BFS tree degree
    ({"family": "torus", "side": 64, "dims": 2}, 64.0, 4),
    ({"family": "knn", "n": 2000, "k": 8, "dim": 2, "graph_seed": 51}, 160.0, 16),
)


def power_ust_config(seed: int, pkg) -> dict:
    """paper-fig2: 12 cells over torus, complete, kNN and epsilon graphs, fresh UST per trial."""
    config = pkg.preset_config("paper-fig2", seed)
    config["trials"] = 4
    return config


def power_fixed_tree_config(seed: int, pkg) -> dict:
    """One BFS tree per graph on a 4096-vertex torus and a 2000-vertex kNN graph."""
    cells = []
    for spec, rho, degree in FIXED_TREE_CELLS:
        scale = ck.remark1_scale(rho, degree, ck.cell_n(spec), 0.05, 1.0)
        grid = [round(scale * i / 10.0, 6) for i in range(25)]  # 0 .. 2.4x the scale
        cells.append({**spec, "rho": rho, "sampler": "two_level", "mu_grid": grid})
    return {
        "kind": "power", "seed": seed, "sigma": 1.0, "delta": 0.05, "trials": 6,
        "tree": {"kind": "bfs"}, "cells": cells,
    }


def concentration_config(seed: int, pkg) -> dict:
    """Tree overlap tails on a 256-vertex torus and a dense 1000-vertex kNN graph."""
    return {
        "kind": "concentration", "seed": seed, "samples": 80,
        "deltas": [0.25, 0.5, 1.0, 2.0],
        "cells": [
            {"family": "torus", "side": 16, "dims": 2},
            {"family": "knn", "n": 1000, "k": 8, "dim": 2, "graph_seed": 61},
        ],
    }


WORKLOADS = {
    "power-ust": power_ust_config,
    "power-fixed-tree": power_fixed_tree_config,
    "concentration": concentration_config,
}


def operations(config: dict) -> int:
    """Trials (power) or tree draws (concentration) one run of the config attempts."""
    per_cell = config["trials"] if config["kind"] == "power" else config["samples"]
    return per_cell * len(config["cells"])


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_child(config_path: Path, run_dir: Path, index: int, trace: int) -> dict:
    """Run the experiment once in a fresh process; return its timings and report."""
    out = run_dir / f"run{index:03d}-t{trace}"
    report_path = run_dir / f"run{index:03d}-t{trace}.json"
    env = dict(os.environ)
    env.pop("TREEWAVELETS_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every run
    cmd = [sys.executable, str(CHILD), "--config", str(config_path), "--out", str(out),
           "--report", str(report_path), "--trace", str(trace)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        code, stderr = -1, f"timed out after {CHILD_TIMEOUT_S} s"
    wall_s = time.perf_counter() - t0
    report = json.loads(report_path.read_text()) if report_path.is_file() else None
    if code != 0 or report is None:
        sys.stderr.write(f"bench: run {index} exited {code}\n{stderr[-2000:]}\n")
    return {"wall_s": wall_s, "code": code, "report": report, "out": out, "trace": trace}


def run_workload(config: dict, seconds: float, trace: int, run_dir: Path, pkg) -> dict:
    """Run the config for ``seconds``, check every run, and compute the metrics."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n")

    # Whole rounds only: --trace 0 runs the untraced CLI, --trace 1 runs an
    # untraced and a traced CLI run per round. A round starts only if a round
    # of typical length still ends within the measured time.
    pattern = (0, 1) if trace else (0,)
    min_rounds = 1 if trace else MIN_RUNS
    runs: list[dict] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or (
        time.perf_counter() - start + statistics.median(rounds) <= seconds
    ):
        t0 = time.perf_counter()
        for t in pattern:
            runs.append(run_child(config_path, run_dir, len(runs), t))
        rounds.append(time.perf_counter() - t0)
    measured_s = time.perf_counter() - start

    ops = operations(config)
    good = [r for r in runs if r["code"] == 0 and r["report"] is not None]
    checks = ck.Checks()
    done = 0
    if good:
        ref = good[0]
        if config["kind"] == "power":
            done = ck.check_power(checks, config, ref["out"], pkg)
        else:
            done = ck.check_concentration(checks, config, ref["out"], pkg)
        digests = ck.csv_digests(ref["out"])
        same = all(ck.csv_digests(r["out"]) == digests for r in good)
        checks("same seed writes byte-identical CSVs", same and bool(digests),
               f"{len(good)} runs, {len(digests)} CSV files"
               + (", traced and untraced" if trace else ""))
    else:
        checks("at least one run completed", False, f"{len(runs)} runs all failed")
    attempted = ops * len(runs)
    failed = ops * (len(runs) - len(good)) + (ops - done) * len(good)

    for r in good:
        r["scale"] = REF_PROBE_S / r["report"]["probe_s"]
    plain = [r for r in good if r["trace"] == 0]
    traced = [r for r in good if r["trace"] == 1]
    metrics: dict[str, tuple[float, str]] = {}
    raw: dict[str, float] = {}
    if not trace and plain:
        def times(r):
            rep = r["report"]
            return {"wall_s": r["wall_s"], "setup_s": rep["import_s"] + rep["cell_setup_s"],
                    "trial_s": rep["main_s"] - rep["cell_setup_s"]}

        for key in ("wall_s", "setup_s"):
            metrics[key] = (statistics.median(times(r)[key] * r["scale"] for r in plain), "s")
            raw[key] = statistics.median(times(r)[key] for r in plain)
        metrics["trials_per_s"] = (statistics.median(
            ops / (times(r)["trial_s"] * r["scale"]) for r in plain), "1/s")
        raw["trials_per_s"] = statistics.median(ops / times(r)["trial_s"] for r in plain)
        metrics["peak_rss_mb"] = (statistics.median(r["report"]["peak_rss_mb"] for r in plain), "MB")
        raw["scale"] = statistics.median(r["scale"] for r in plain)
    if trace and traced and plain:
        layers = [r["report"]["layers"] for r in traced]
        for name in layers[0]:
            unit = "ms" if name.endswith("_ms_p50") else "s" if name.endswith("_s") else "count"
            metrics[name] = (statistics.median(lay[name] for lay in layers), unit)
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] * r["scale"] for r in traced)
            - statistics.median(r["wall_s"] * r["scale"] for r in plain), "s")
        expect = {"wavelets.build_calls": ops, "detection.signal_calls": ops,
                  "trees.bfs_calls" if config.get("tree", {}).get("kind") == "bfs"
                  else "trees.ust_calls": ops}
        if config["kind"] == "concentration":
            expect = {"trees.ust_calls": ops, "wavelets.build_calls": 0}
        seen = {k: layers[0][k] for k in expect}
        checks("traced call counts match the operations", seen == expect,
               f"{seen} expected {expect}")

    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cores": os.cpu_count(),
    }
    if good:
        env.update(have_numba=good[0]["report"]["have_numba"],
                   blas_threads=good[0]["report"]["blas_threads"])
    per_run = [{"trace": r["trace"], "exit_code": r["code"], "wall_s": r["wall_s"],
                "scale": r.get("scale"),
                **{k: v for k, v in (r["report"] or {}).items() if k != "layers"}}
               for r in runs]
    return {
        "checks": checks, "attempted": attempted, "failed": failed, "metrics": metrics,
        "raw": raw,
        "env": env, "runs": len(runs), "measured_s": measured_s, "per_run": per_run,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark treewavelets experiments.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "treewavelets" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import treewavelets as pkg

    config = WORKLOADS[args.workload](args.seed, pkg)
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(config, args.seconds, args.trace, run_dir, pkg)

    checks = result["checks"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['runs']} runs of the CLI in {result['measured_s']:.1f} s")
    print("env " + json.dumps(result["env"], sort_keys=True))
    lines = checks.lines()
    for line in lines:
        if line.startswith("[FAIL]"):
            print(line)
    print(f"checks: {sum(ok for _, ok, _ in checks.results)} passed, "
          f"{sum(not ok for _, ok, _ in checks.results)} failed (all in {run_dir / 'result.json'})")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    if result["raw"]:
        print("unscaled medians: " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["raw"].items()))
    doc = {
        "correct": checks.ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    (run_dir / "result.json").write_text(
        json.dumps({**doc, "env": result["env"], "checks": lines, "unscaled": result["raw"],
                    "runs": result["per_run"]}, indent=1) + "\n")
    print(json.dumps(doc))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
