"""One measured run of ``treewavelets experiment`` in a fresh process.

Usage (from the repository root; ``bench/run.py`` starts this)::

    python3 bench/child.py --config CFG.json --out DIR --report REPORT.json --trace 0|1

The child imports the package from ``src/``, times that import, and calls
``treewavelets.cli.main`` with ``experiment --config CFG --out DIR --threads 1``.
Graph generation and exact resistances are timed in every run: they happen
once per experiment cell, so the timers cost nothing measurable, and they make
up the set-up share of the run. With ``--trace 1`` every public call the
experiment makes into ``graphs``, ``trees``, ``wavelets``, ``detection``,
``resistance`` and ``experiments`` is also recorded as a span, so that each
layer's self time can be reported. Spans stay in memory; the summary is
written to REPORT.json when the run ends. No file of the package is changed:
names are replaced on the module objects, where the consuming module looks
them up.

Every run also samples the speed of the CPU it runs on (:class:`SpeedProbe`),
so that ``bench/run.py`` can take the host's speed drift out of its timings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Layers that run once per experiment cell; their time is the run's set-up.
SETUP_SPANS = ("graphs.generate", "resistance.exact")

PROBE_LOOP = 5000  # iterations of the fixed probe loop, about 0.4 ms
PROBE_EVERY_S = 0.05  # wall time between probes; they cost about 1% of the run


class SpeedProbe:
    """Times a fixed pure-Python loop every ``PROBE_EVERY_S`` s of the run.

    The probe runs from a SIGALRM handler in the main thread, so it takes its
    samples on the same CPU as the experiment and at the same moments. On a
    shared host that CPU's speed drifts by tens of percent within minutes;
    the median probe time follows that drift, and the experiment's time
    divided by it does not. The loop does not touch the package, so a change
    to the package does not change the probe.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def median_s(self) -> float:
        return statistics.median(self.samples)


class Tracer:
    """In-memory span recorder for calls wrapped by :meth:`wrap`.

    Each span is ``[name, start_ns, end_ns, parent_index]``; the parent is the
    span that was open when the call started, so nested calls (a connectivity
    check inside a tree draw) are charged to the inner layer only.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.totals: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter_ns(), 0, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = time.perf_counter_ns()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def add(self, name: str, amount: int) -> None:
        self.totals[name] = self.totals.get(name, 0) + amount

    def total_s(self, names) -> float:
        """Summed full duration (children included) of spans with these names."""
        return sum(e - s for n, s, e, _ in self.spans if n in names) / 1e9

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, the self time of every call in seconds.

        Self time is the span's duration minus the time covered by the spans
        it directly caused. Calls run one at a time, so children never overlap.
        """
        covered = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), inner in zip(self.spans, covered):
            out.setdefault(name, []).append((end - start - inner) / 1e9)
        return out


def _replace(module, attr: str, tracer: Tracer, span: str, on_result=None) -> None:
    fn = getattr(module, attr, None)
    if fn is None:
        raise SystemExit(f"bench: {module.__name__}.{attr} is gone; update bench/child.py")
    setattr(module, attr, tracer.wrap(span, fn, on_result))


def install_hooks(tracer: Tracer, full: bool) -> None:
    """Wrap the package's public calls where the experiment code looks them up.

    The set-up hooks (graph generators, exact resistances) are always
    installed; ``full`` adds every other layer.
    """
    from treewavelets import cli, experiments, resistance, trees

    for attr in ("gen_torus", "gen_complete", "gen_knn", "gen_epsilon"):
        _replace(experiments, attr, tracer, "graphs.generate")
    _replace(experiments, "all_edge_resistances", tracer, "resistance.exact")
    if not full:
        return
    _replace(trees, "require_connected", tracer, "graphs.connectivity")
    _replace(resistance, "require_connected", tracer, "graphs.connectivity")
    _replace(experiments, "sample_ust", tracer, "trees.ust")
    _replace(experiments, "bfs_spanning_tree", tracer, "trees.bfs")
    _replace(
        experiments, "build_basis", tracer, "wavelets.build",
        on_result=lambda basis: tracer.add("wavelets.basis_nnz", len(basis.vertices)),
    )
    _replace(experiments, "apply_basis", tracer, "wavelets.apply")
    # power_curve draws signals through this table, not through module names.
    samplers = experiments._SAMPLERS
    for key in list(samplers):
        samplers[key] = tracer.wrap("detection.signal", samplers[key])
    _replace(experiments, "aggregate_records", tracer, "experiments.aggregate")
    _replace(experiments, "mu_at_power", tracer, "experiments.aggregate")
    _replace(experiments, "write_csv", tracer, "experiments.csv")
    _replace(cli, "run_experiment", tracer, "experiments.run")


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, or None if it is not found."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def layer_summary(tracer: Tracer) -> dict:
    """Per-layer totals of one traced run (seconds, call counts, medians)."""
    selfs = tracer.self_times()

    def total(name):
        return float(sum(selfs.get(name, [])))

    def calls(name):
        return len(selfs.get(name, []))

    def p50_ms(name):
        vals = selfs.get(name)
        return 1e3 * statistics.median(vals) if vals else 0.0

    builds = calls("wavelets.build")
    return {
        "graphs.generate_s": total("graphs.generate"),
        "graphs.connectivity_s": total("graphs.connectivity"),
        "graphs.connectivity_calls": calls("graphs.connectivity"),
        "trees.ust_s": total("trees.ust"),
        "trees.ust_calls": calls("trees.ust"),
        "trees.ust_ms_p50": p50_ms("trees.ust"),
        "trees.bfs_s": total("trees.bfs"),
        "trees.bfs_calls": calls("trees.bfs"),
        "wavelets.build_s": total("wavelets.build"),
        "wavelets.build_calls": builds,
        "wavelets.build_ms_p50": p50_ms("wavelets.build"),
        "wavelets.apply_s": total("wavelets.apply"),
        "wavelets.apply_calls": calls("wavelets.apply"),
        "wavelets.basis_nnz": tracer.totals.get("wavelets.basis_nnz", 0) / builds if builds else 0.0,
        "detection.signal_s": total("detection.signal"),
        "detection.signal_calls": calls("detection.signal"),
        "resistance.exact_s": total("resistance.exact"),
        "resistance.exact_calls": calls("resistance.exact"),
        "experiments.aggregate_s": total("experiments.aggregate"),
        "experiments.csv_s": total("experiments.csv"),
        "experiments.other_s": total("experiments.run"),
        "cli.overhead_s": total("cli.main"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import treewavelets.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install_hooks(tracer, full=bool(args.trace))
    run_main = tracer.wrap("cli.main", cli.main)
    argv_cli = ["experiment", "--config", args.config, "--out", args.out, "--threads", "1"]
    t0 = time.perf_counter()
    code = run_main(argv_cli)
    main_s = time.perf_counter() - t0
    probe.stop()

    try:
        from treewavelets._kernels import HAVE_NUMBA as have_numba
    except ImportError:  # a package without the optional numba kernels
        have_numba = None

    report = {
        "exit_code": code,
        "import_s": import_s,
        "cell_setup_s": tracer.total_s(SETUP_SPANS),
        "main_s": main_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "have_numba": have_numba,
        "blas_threads": blas_threads(),
        "probe_s": probe.median_s(),
        "probe_samples": len(probe.samples),
    }
    if args.trace:
        report["layers"] = layer_summary(tracer)
    Path(args.report).write_text(json.dumps(report, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
