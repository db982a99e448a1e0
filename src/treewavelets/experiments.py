"""Monte Carlo harnesses: single trials, power curves, sparsity scatter,
spanning-tree concentration, and the file-emitting experiment runner.

Determinism contract: every trial owns an independent stream derived from
(master seed, cell index, trial index) through numpy's SeedSequence, and
results are merged in trial order, so output files are identical regardless
of how trials are scheduled. Within one trial the tree, the signal shape,
and the noise draw are shared across the whole mu grid; scaling mu only
rescales the signal part of each coefficient, which couples the grid points
and keeps empirical power curves tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .detection import NoiseModel, threshold
from .detection import gen_cluster_signal, gen_prior_signal, gen_two_level_signal
from .errors import FitUndefinedError, InfeasibleSignalError
from .graphs import (
    Graph,
    Signal,
    _pair_array,
    _require_positive,
    as_rng,
    gen_complete,
    gen_epsilon,
    gen_knn,
    gen_torus,
    signal_values,
)
from .resistance import ResistanceProfile, all_edge_resistances
from .trees import SpanningTree, bfs_spanning_tree, sample_ust, tree_cut_size
from .wavelets import activation_bound, apply_basis, basis_sparsity, build_basis

__all__ = [
    "CellSpec",
    "ConcentrationRow",
    "ExperimentResult",
    "FitRow",
    "SparsityPoint",
    "TreeSource",
    "TrialRecord",
    "aggregate_records",
    "mu_at_power",
    "power_curve",
    "preset_config",
    "run_experiment",
    "run_trial",
    "sparsity_experiment",
    "ust_concentration_check",
    "write_csv",
]


# =============================================================================
# Tree sources and trial records
# =============================================================================


@dataclass(frozen=True)
class TreeSource:
    """Where each trial's spanning tree comes from.

    kind="ust" draws a fresh uniform spanning tree per trial (seeded from the
    trial's stream), kind="bfs" reuses the deterministic breadth-first tree,
    kind="fixed" reuses a caller-supplied tree.
    """

    kind: str = "ust"
    root: int = 0
    tree: SpanningTree | None = None

    def __post_init__(self):
        if self.kind not in ("ust", "bfs", "fixed"):
            raise ValueError(f"unknown tree source kind {self.kind!r}")
        if self.kind == "fixed" and self.tree is None:
            raise ValueError("fixed tree source needs a tree")

    @classmethod
    def ust(cls) -> "TreeSource":
        return cls(kind="ust")

    @classmethod
    def bfs(cls, root: int = 0) -> "TreeSource":
        return cls(kind="bfs", root=root)

    @classmethod
    def fixed_tree(cls, tree: SpanningTree) -> "TreeSource":
        return cls(kind="fixed", tree=tree)

    def realize(self, g: Graph, rng: np.random.Generator) -> tuple[SpanningTree, int]:
        """Produce this trial's tree; returns (tree, seed or -1)."""
        if self.kind == "ust":
            seed = int(rng.integers(2**32))
            return sample_ust(g, seed), seed
        if self.kind == "bfs":
            return bfs_spanning_tree(g, self.root), -1
        assert self.tree is not None
        if self.tree.graph != g:
            raise ValueError("fixed tree belongs to a different graph")
        return self.tree, -1


@dataclass(frozen=True)
class TrialRecord:
    """One row of an experiment's raw output."""

    family: str
    n: int
    rho: float
    mu: float
    trial: int
    seed: int
    tree_seed: int
    cut: int
    statistic: float
    threshold: float
    reject: bool
    truth: bool


TRIAL_COLUMNS = [f.name for f in fields(TrialRecord)]


def _trial_row(r: TrialRecord) -> list[str]:
    return [
        r.family,
        str(r.n),
        repr(float(r.rho)),
        repr(float(r.mu)),
        str(r.trial),
        str(r.seed),
        str(r.tree_seed),
        str(r.cut),
        repr(float(r.statistic)),
        repr(float(r.threshold)),
        str(int(r.reject)),
        str(int(r.truth)),
    ]


def _trial_statistics(g: Graph, tree_source: TreeSource, draw_shape, sigma: float, mus, rng):
    """The one trial body: ``(tree_seed, shape, [statistic per mu])``.

    Realizes the tree and builds its basis, then draws the signal shape
    (``draw_shape(rng)``) and a standard normal noise vector z. The statistic
    at mu is max |mu * coef(shape) + sigma * coef(z)| over the basis. The
    basis is built before the shape is drawn, so a trial whose shape proves
    infeasible still costs its build.
    """
    tree, tree_seed = tree_source.realize(g, rng)
    basis = build_basis(tree)
    shape = draw_shape(rng)
    noise = rng.standard_normal(g.n)
    coef_shape = apply_basis(basis, shape)
    coef_noise = apply_basis(basis, noise)
    stats = [float(np.max(np.abs(mu * coef_shape + sigma * coef_noise))) for mu in mus]
    return tree_seed, shape, stats


def run_trial(
    g: Graph,
    tree_source: TreeSource,
    x: Signal | np.ndarray,
    noise: NoiseModel,
    delta: float,
    rng: np.random.Generator | int | None = None,
    *,
    family: str = "",
    rho: float = 0.0,
    trial: int = 0,
) -> TrialRecord:
    """Run one full trial: realize a tree, add noise, test, record.

    The trial's stream drives the tree draw first and the noise second, so an
    integer rng reproduces the whole trial.
    """
    gen = as_rng(rng)
    seed = int(rng) if isinstance(rng, (int, np.integer)) else -1
    vals = signal_values(x)
    tree_seed, _, (stat,) = _trial_statistics(
        g, tree_source, lambda _: vals, noise.sigma, (1.0,), gen
    )
    tau = threshold(noise.sigma, g.n, delta)
    energy = float(np.linalg.norm(vals))
    cut = x.cut if isinstance(x, Signal) and x.cut is not None else -1
    return TrialRecord(
        family=family,
        n=g.n,
        rho=rho,
        mu=energy,
        trial=trial,
        seed=seed,
        tree_seed=tree_seed,
        cut=cut,
        statistic=stat,
        threshold=tau,
        reject=stat > tau,
        truth=energy > 0,
    )


# =============================================================================
# Cell specifications (JSON-friendly)
# =============================================================================

_SAMPLERS = {
    "ball": gen_cluster_signal,
    "two_level": gen_two_level_signal,
    "prior": gen_prior_signal,
}


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell: a concrete graph plus signal parameters."""

    family: str
    side: int = 0
    dims: int = 2
    n: int = 0
    k: int = 0
    eps: float = 0.0
    dim: int = 2
    graph_seed: int = 0
    rho: float = 0.0
    rho_lo: int = 0
    rho_hi: int = 0
    sampler: str = "two_level"
    mu_grid: tuple[float, ...] = ()

    def __post_init__(self):
        if self.family not in ("torus", "complete", "knn", "epsilon"):
            raise ValueError(f"unknown graph family {self.family!r}")
        if self.sampler not in _SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        # A NaN rho or mu would write rows that read as real trials; rho = +inf
        # means no budget.
        _require_positive("rho", self.rho, zero_ok=True, inf_ok=True)
        for mu in self.mu_grid:
            _require_positive("mu_grid values", mu, zero_ok=True)

    def build_graph(self) -> Graph:
        if self.family == "torus":
            return gen_torus(self.side, self.dims)
        if self.family == "complete":
            return gen_complete(self.n)
        if self.family == "knn":
            return gen_knn(self.n, self.k, self.dim, self.graph_seed)[0]
        return gen_epsilon(self.n, self.eps, self.dim, self.graph_seed)[0]

    @classmethod
    def from_dict(cls, d: dict) -> CellSpec:
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown cell fields: {sorted(unknown)}")
        d = dict(d)
        if "mu_grid" in d:
            d["mu_grid"] = tuple(float(v) for v in d["mu_grid"])
        return cls(**d)

    def label_n(self) -> int:
        return self.side**self.dims if self.family == "torus" else self.n


def _draw_signal(sampler: str, g: Graph, rho: float, mu: float, rng) -> Signal:
    return _SAMPLERS[sampler](g, rho, mu, rng)


def _trial_rng(master_seed: int, cell_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(cell_index, trial))
    )


# =============================================================================
# Power curves
# =============================================================================


def _power_trial(args) -> list[TrialRecord]:
    g, cell, tree_source, sigma, delta, master_seed, cell_index, trial = args
    rng = _trial_rng(master_seed, cell_index, trial)
    try:
        tree_seed, shape, stats = _trial_statistics(
            g,
            tree_source,
            lambda r: _draw_signal(cell.sampler, g, cell.rho, 1.0, r),
            sigma,
            cell.mu_grid,
            rng,
        )
    except InfeasibleSignalError:
        return []
    tau = threshold(sigma, g.n, delta)
    return [
        TrialRecord(
            family=cell.family,
            n=g.n,
            rho=cell.rho,
            mu=float(mu),
            trial=trial,
            seed=master_seed,
            tree_seed=tree_seed,
            cut=shape.cut if mu > 0 else 0,
            statistic=stat,
            threshold=tau,
            reject=stat > tau,
            truth=mu > 0,
        )
        for mu, stat in zip(cell.mu_grid, stats)
    ]


def _map_tasks(fn, tasks: list, workers: int) -> list:
    if workers <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing as mp

    chunk = max(1, len(tasks) // (workers * 4))
    with mp.get_context("fork").Pool(workers) as pool:
        return pool.map(fn, tasks, chunksize=chunk)


def power_curve(
    cell: CellSpec,
    *,
    trials: int,
    sigma: float,
    delta: float,
    tree_source: TreeSource,
    master_seed: int,
    cell_index: int = 0,
    workers: int = 1,
) -> list[TrialRecord]:
    """Empirical power of the test over a mu grid, one cell at a time.

    Each trial draws a tree, a unit-energy signal shape, and one noise
    vector, then sweeps the mu grid over those shared draws. A mu of zero is
    a null trial (truth flag off), which is how type-I companions are run.
    Trials whose signal sampler cannot meet the cut budget contribute no
    rows; aggregation reports the shortfall.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not cell.mu_grid:
        raise ValueError("cell.mu_grid must be nonempty")
    g = cell.build_graph()
    tasks = [
        (g, cell, tree_source, sigma, delta, master_seed, cell_index, t)
        for t in range(trials)
    ]
    rows: list[TrialRecord] = []
    for chunk in _map_tasks(_power_trial, tasks, workers):
        rows.extend(chunk)
    return rows


def aggregate_records(records: list[TrialRecord], trials_requested: int | None = None) -> list[dict]:
    """Collapse raw rows into per-(family, n, rho, mu) power aggregates.

    The risk column adds the cell's type-I rate (its mu=0 companion rows) to
    the miss rate at each mu.
    """
    groups: dict[tuple, list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.family, r.n, r.rho, r.mu), []).append(r)
    type_i: dict[tuple, float] = {}
    for (family, n, rho, mu), rows in groups.items():
        if mu == 0:
            type_i[(family, n, rho)] = sum(r.reject for r in rows) / len(rows)
    out = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], k[3])):
        family, n, rho, mu = key
        rows = groups[key]
        done = len(rows)
        rej = sum(r.reject for r in rows)
        power = rej / done
        t1 = type_i.get((family, n, rho))
        risk = (t1 + 1.0 - power) if (t1 is not None and mu > 0) else None
        out.append(
            {
                "family": family,
                "n": n,
                "rho": rho,
                "mu": mu,
                "trials": done,
                "trials_requested": trials_requested if trials_requested is not None else done,
                "rejections": rej,
                "power": power,
                "type_i": t1 if t1 is not None else float("nan"),
                "risk": risk if risk is not None else float("nan"),
            }
        )
    return out


def mu_at_power(aggregates: list[dict], target: float = 0.5) -> list[dict]:
    """Interpolate, per (family, n), the mu at which power first crosses target."""
    curves: dict[tuple, list[tuple[float, float]]] = {}
    for a in aggregates:
        curves.setdefault((a["family"], a["n"], a["rho"]), []).append((a["mu"], a["power"]))
    out = []
    for (family, n, rho), pts in sorted(curves.items()):
        pts.sort()
        crossing = float("nan")
        for (mu0, p0), (mu1, p1) in zip(pts, pts[1:]):
            if p0 < target <= p1:
                frac = (target - p0) / (p1 - p0)
                crossing = mu0 + frac * (mu1 - mu0)
                break
        if math.isnan(crossing) and pts and pts[0][1] >= target:
            crossing = pts[0][0]
        out.append({"family": family, "n": n, "rho": rho, "mu50": crossing})
    return out


# =============================================================================
# Sparsity scatter
# =============================================================================


@dataclass(frozen=True)
class SparsityPoint:
    """One sampled (tree, signal) pair of the sparsity experiment."""

    family: str
    n: int
    signal: int
    tree_seed: int
    tree_degree: int
    levels: int
    rho_target: int
    cut: int
    tree_cut: int
    sparsity: int
    bound: int


SPARSITY_COLUMNS = [f.name for f in fields(SparsityPoint)]


@dataclass(frozen=True)
class FitRow:
    family: str
    n: int
    points: int
    slope: float
    intercept: float
    r2: float


FIT_COLUMNS = [f.name for f in fields(FitRow)]


def _sparsity_point(args) -> SparsityPoint | None:
    g, cell, master_seed, cell_index, i = args
    rng = _trial_rng(master_seed, cell_index, i)
    rho = int(rng.integers(cell.rho_lo, cell.rho_hi + 1))
    tree, tree_seed = TreeSource.ust().realize(g, rng)
    basis = build_basis(tree)
    try:
        x = _draw_signal(cell.sampler, g, rho, 1.0, rng)
    except InfeasibleSignalError:
        return None
    levels = activation_bound(tree)
    cut = x.cut if x.cut is not None else 0
    return SparsityPoint(
        family=cell.family,
        n=g.n,
        signal=i,
        tree_seed=tree_seed,
        tree_degree=tree.max_degree,
        levels=levels,
        rho_target=rho,
        cut=cut,
        tree_cut=tree_cut_size(tree, x.values),
        sparsity=basis_sparsity(basis, x.values),
        bound=cut * levels + 1,
    )


def fit_sparsity_points(points: list[SparsityPoint]) -> FitRow:
    """Least-squares line of coefficient count against cut * levels."""
    if not points:
        raise FitUndefinedError("no points to fit")
    x = np.array([p.cut * p.levels for p in points], dtype=np.float64)
    y = np.array([p.sparsity for p in points], dtype=np.float64)
    if np.ptp(x) == 0:
        raise FitUndefinedError("all points share one abscissa; slope is undefined")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else float("nan")
    return FitRow(
        family=points[0].family,
        n=points[0].n,
        points=len(points),
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
    )


def sparsity_experiment(
    cells: list[CellSpec],
    *,
    signals: int,
    master_seed: int,
    workers: int = 1,
) -> tuple[list[SparsityPoint], list[FitRow]]:
    """Sample (tree, signal) pairs per cell and fit sparsity against the budget.

    Every cell needs rho_lo <= rho_hi and at least two signals so the fit is
    defined. Returns the raw scatter and one fit row per cell.
    """
    if signals < 2:
        raise ValueError(f"need at least 2 signals per cell, got {signals}")
    points: list[SparsityPoint] = []
    fits: list[FitRow] = []
    for ci, cell in enumerate(cells):
        if cell.rho_lo < 0 or cell.rho_hi < cell.rho_lo:
            raise ValueError(
                f"cell {ci}: need 0 <= rho_lo <= rho_hi, got "
                f"[{cell.rho_lo}, {cell.rho_hi}]"
            )
        g = cell.build_graph()
        tasks = [(g, cell, master_seed, ci, i) for i in range(signals)]
        cell_points = [p for p in _map_tasks(_sparsity_point, tasks, workers) if p is not None]
        points.extend(cell_points)
        fits.append(fit_sparsity_points(cell_points))
    return points, fits


# =============================================================================
# Spanning-tree concentration
# =============================================================================


@dataclass(frozen=True)
class ConcentrationRow:
    """Empirical tail of |T intersect B| against its analytic bound."""

    delta: float
    set_size: int
    r_set: float
    tail_at: float
    empirical: float
    bound: float
    band: float
    passed: bool


CONCENTRATION_COLUMNS = [f.name for f in fields(ConcentrationRow)]


def ust_concentration_check(
    g: Graph,
    edge_set,
    samples: int,
    deltas,
    rng: np.random.Generator | int | None = None,
    *,
    profile: ResistanceProfile | None = None,
    trees: list[SpanningTree] | None = None,
) -> list[ConcentrationRow]:
    """Compare tail probabilities of a uniform tree's overlap with an edge set.

    For each relative overshoot delta, measures how often the number of
    sampled-tree edges inside the set reaches (1 + delta) times the set's
    exact resistance mass, and compares against the multiplicative Chernoff
    bound with a 3-standard-error allowance (binomial, evaluated at the bound).

    Pass ``trees`` to reuse one pool of sampled trees across several edge
    sets; otherwise ``samples`` fresh trees are drawn here. Either way at
    least one tree is needed.
    """
    pairs = _pair_array(edge_set)
    if not len(pairs):
        raise ValueError("edge set is empty")
    idx = g.edge_ids(pairs)
    if (idx < 0).any():
        u, v = pairs[np.argmax(idx < 0)].tolist()
        raise ValueError(f"edge {(u, v)} is not in the graph")
    if profile is None:
        profile = all_edge_resistances(g)
    r_set = float(profile.edge_resistances[idx].sum())
    if trees is None:
        gen = as_rng(rng)
        trees = [sample_ust(g, int(gen.integers(2**32))) for _ in range(samples)]
    if not trees:
        raise ValueError("concentration check needs at least one tree draw")
    member = np.zeros(g.m, dtype=bool)
    member[idx] = True
    counts = np.array(
        [np.count_nonzero(member[g.edge_ids(t.edges)]) for t in trees], dtype=np.int64
    )
    n_draws = len(counts)
    rows = []
    for d in deltas:
        d = float(d)
        _require_positive("delta values", d)
        at = (1.0 + d) * r_set
        empirical = float(np.count_nonzero(counts >= at) / n_draws)
        bound = math.exp(r_set * (d - (1.0 + d) * math.log1p(d)))
        b = min(bound, 1.0)
        band = 3.0 * math.sqrt(b * (1.0 - b) / n_draws)
        rows.append(
            ConcentrationRow(
                delta=d,
                set_size=len(idx),
                r_set=r_set,
                tail_at=at,
                empirical=empirical,
                bound=bound,
                band=band,
                passed=empirical <= bound + band,
            )
        )
    return rows


# =============================================================================
# Experiment runner (configs, presets, CSV emission)
# =============================================================================


@dataclass
class ExperimentResult:
    """Everything one experiment run produced, before it hits disk."""

    kind: str
    config: dict
    trial_records: list[TrialRecord] = field(default_factory=list)
    aggregates: list[dict] = field(default_factory=list)
    mu50: list[dict] = field(default_factory=list)
    points: list[SparsityPoint] = field(default_factory=list)
    fits: list[FitRow] = field(default_factory=list)
    concentration: list[tuple[str, str, ConcentrationRow]] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def write_csv(path: str | Path, columns: list[str], rows: list[list[str]]) -> None:
    """Write a CSV with a fixed column order and repr-formatted floats."""
    lines = [",".join(columns)]
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _dict_rows(dicts: list[dict], columns: list[str]) -> list[list[str]]:
    return [[_fmt(d[c]) for c in columns] for d in dicts]


AGGREGATE_COLUMNS = [
    "family",
    "n",
    "rho",
    "mu",
    "trials",
    "trials_requested",
    "rejections",
    "power",
    "type_i",
    "risk",
]

MU50_COLUMNS = ["family", "n", "rho", "mu50"]


def _tree_source_from_config(d: dict) -> TreeSource:
    kind = d.get("kind", "ust")
    if kind == "fixed":
        raise ValueError("config files cannot carry a fixed tree; use ust or bfs")
    return TreeSource(kind=kind, root=int(d.get("root", 0)))


def run_experiment(config: dict, out_dir: str | Path, workers: int = 1) -> ExperimentResult:
    """Run one experiment config and write its CSV outputs plus a schema note.

    The config's kind selects the harness: "power" sweeps mu grids per cell,
    "sparsity" scatters coefficient counts against cut budgets, and
    "concentration" checks uniform-tree overlap tails. Files land in out_dir
    with fixed names and column orders; rerunning the same config and seed
    rewrites identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind = config.get("kind")
    seed = config.get("seed")
    if not isinstance(seed, int):
        raise ValueError("config needs an integer master seed under 'seed'")
    result = ExperimentResult(kind=str(kind), config=config)
    schema: list[str] = []

    if kind == "power":
        sigma = float(config.get("sigma", 1.0))
        delta = float(config.get("delta", 0.05))
        trials = int(config["trials"])
        tree_source = _tree_source_from_config(config.get("tree", {}))
        cells = [CellSpec.from_dict(c) for c in config["cells"]]
        for ci, cell in enumerate(cells):
            result.trial_records.extend(
                power_curve(
                    cell,
                    trials=trials,
                    sigma=sigma,
                    delta=delta,
                    tree_source=tree_source,
                    master_seed=seed,
                    cell_index=ci,
                    workers=workers,
                )
            )
        result.aggregates = aggregate_records(result.trial_records, trials_requested=trials)
        result.mu50 = mu_at_power(result.aggregates, target=0.5)
        write_csv(out / "trials.csv", TRIAL_COLUMNS, [_trial_row(r) for r in result.trial_records])
        write_csv(out / "power.csv", AGGREGATE_COLUMNS, _dict_rows(result.aggregates, AGGREGATE_COLUMNS))
        write_csv(out / "mu50.csv", MU50_COLUMNS, _dict_rows(result.mu50, MU50_COLUMNS))
        schema += [
            "trials.csv: one row per (trial, mu); columns " + ", ".join(TRIAL_COLUMNS),
            "  reject/truth are 0/1; statistic is the max coefficient magnitude;",
            "  cut is the realized boundary size of the trial's signal shape.",
            "power.csv: per (family, n, rho, mu) aggregates; columns "
            + ", ".join(AGGREGATE_COLUMNS),
            "  power = rejections/trials; type_i repeats the cell's mu=0 rate;",
            "  risk = type_i + 1 - power (alternative rows only).",
            "mu50.csv: linear interpolation of the mu where power crosses 0.5;"
            " columns " + ", ".join(MU50_COLUMNS),
        ]
        result.summary = {
            "cells": len(cells),
            "rows": len(result.trial_records),
            "mu50": {f"{m['family']}/n={m['n']}": m["mu50"] for m in result.mu50},
        }
    elif kind == "sparsity":
        signals = int(config["signals"])
        cells = [CellSpec.from_dict(c) for c in config["cells"]]
        result.points, result.fits = sparsity_experiment(
            cells, signals=signals, master_seed=seed, workers=workers
        )
        point_rows = [
            [_fmt(getattr(p, c)) for c in SPARSITY_COLUMNS] for p in result.points
        ]
        fit_rows = [[_fmt(getattr(f, c)) for c in FIT_COLUMNS] for f in result.fits]
        write_csv(out / "points.csv", SPARSITY_COLUMNS, point_rows)
        write_csv(out / "fits.csv", FIT_COLUMNS, fit_rows)
        schema += [
            "points.csv: one row per sampled (tree, signal) pair; columns "
            + ", ".join(SPARSITY_COLUMNS),
            "  levels = per-edge activation budget of the drawn tree;",
            "  bound = cut * levels + 1 dominates sparsity for every row.",
            "fits.csv: least squares of sparsity on cut*levels per cell; columns "
            + ", ".join(FIT_COLUMNS),
        ]
        result.summary = {
            f.family: {"slope": f.slope, "r2": f.r2, "points": f.points} for f in result.fits
        }
    elif kind == "concentration":
        samples = int(config["samples"])
        deltas = [float(d) for d in config["deltas"]]
        set_labels = list(config.get("sets", ["edge", "star", "ball"]))
        cells = [CellSpec.from_dict(c) for c in config["cells"]]
        rows_out: list[list[str]] = []
        gen = as_rng(seed)
        for cell in cells:
            g = cell.build_graph()
            profile = all_edge_resistances(g)
            trees = [sample_ust(g, int(gen.integers(2**32))) for _ in range(samples)]
            for label in set_labels:
                edge_set = _named_edge_set(g, label)
                rows = ust_concentration_check(
                    g, edge_set, samples, deltas, profile=profile, trees=trees
                )
                for r in rows:
                    result.concentration.append((cell.family, label, r))
                    rows_out.append(
                        [cell.family, str(g.n), label]
                        + [_fmt(getattr(r, c)) for c in CONCENTRATION_COLUMNS]
                    )
        write_csv(
            out / "concentration.csv",
            ["family", "n", "set"] + CONCENTRATION_COLUMNS,
            rows_out,
        )
        schema += [
            "concentration.csv: empirical tail of tree-overlap counts vs the",
            "  multiplicative bound; columns family, n, set, "
            + ", ".join(CONCENTRATION_COLUMNS),
            "  passed means empirical <= bound + band (3 binomial SE at the bound).",
        ]
        failed = sum(1 for _, _, r in result.concentration if not r.passed)
        result.summary = {
            "rows": len(result.concentration),
            "failed": failed,
        }
    else:
        raise ValueError(f"unknown experiment kind {kind!r}")

    (out / "schema.txt").write_text("\n".join(schema) + "\n")
    return result


def _named_edge_set(g: Graph, label: str) -> np.ndarray:
    """Deterministic edge sets used by the concentration experiment."""
    ea = g.edges
    if label == "edge":
        return ea[:1]
    if label == "star":
        return ea[(ea == 0).any(axis=1)]
    if label == "ball":
        indptr, indices = g.csr
        inside = np.isin(np.arange(g.n), [0, *indices[: indptr[1]]])
        return ea[inside[ea[:, 0]] != inside[ea[:, 1]]]
    raise ValueError(f"unknown edge-set label {label!r}")


# =============================================================================
# Presets
# =============================================================================


def preset_config(name: str, seed: int) -> dict:
    """Built-in experiment configurations at desk scale."""
    if name == "paper-fig1":
        eps512 = 2.0 * math.sqrt(math.log(512) / (math.pi * 512))
        return {
            "kind": "sparsity",
            "seed": seed,
            "signals": 250,
            "cells": [
                {"family": "torus", "side": 32, "dims": 2, "rho_lo": 8, "rho_hi": 128, "sampler": "two_level"},
                {"family": "complete", "n": 256, "rho_lo": 255, "rho_hi": 4080, "sampler": "prior"},
                {"family": "knn", "n": 512, "k": 8, "dim": 2, "graph_seed": 11, "rho_lo": 24, "rho_hi": 192, "sampler": "two_level"},
                {"family": "epsilon", "n": 512, "eps": eps512, "dim": 2, "graph_seed": 12, "rho_lo": 24, "rho_hi": 256, "sampler": "two_level"},
            ],
        }
    if name == "paper-fig2":
        cells = []
        for side in (8, 16, 24):
            n = side * side
            cells.append(
                {
                    "family": "torus",
                    "side": side,
                    "dims": 2,
                    "rho": float(math.isqrt(n)),
                    "sampler": "two_level",
                    "mu_grid": _mu_grid(8.0 * math.sqrt(side)),
                }
            )
        # The spike-supported complete cells cross 50% power in a narrow
        # absolute band, so they share one fine fixed grid.
        for n in (64, 256, 1024):
            cells.append(
                {
                    "family": "complete",
                    "n": n,
                    "rho": float(n),
                    "sampler": "prior",
                    "mu_grid": [0.0, 2.0, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5,
                                6.0, 6.5, 7.0, 8.0, 10.0],
                }
            )
        for i, n in enumerate((128, 256, 512)):
            cells.append(
                {
                    "family": "knn",
                    "n": n,
                    "k": 8,
                    "dim": 2,
                    "graph_seed": 31 + i,
                    "rho": float(round(n ** (2.0 / 3.0))),
                    "sampler": "two_level",
                    "mu_grid": _mu_grid(2.2 * n ** (1.0 / 3.0)),
                }
            )
        for i, n in enumerate((128, 256, 512)):
            eps = 2.0 * math.sqrt(math.log(n) / (math.pi * n))
            cells.append(
                {
                    "family": "epsilon",
                    "n": n,
                    "eps": eps,
                    "dim": 2,
                    "graph_seed": 41 + i,
                    "rho": float(round(n ** 0.8)),
                    "sampler": "two_level",
                    "mu_grid": [0.0, 2.5, 3.5, 4.0, 4.5, 5.0, 5.25, 5.5,
                                5.75, 6.0, 6.25, 6.5, 7.0, 7.5, 8.5, 10.0],
                }
            )
        return {
            "kind": "power",
            "seed": seed,
            "sigma": 1.0,
            "delta": 0.05,
            "trials": 400,
            "tree": {"kind": "ust"},
            "cells": cells,
        }
    if name == "concentration":
        return {
            "kind": "concentration",
            "seed": seed,
            "samples": 20000,
            "deltas": [0.25, 0.5, 1.0, 2.0],
            "cells": [
                {"family": "torus", "side": 8, "dims": 2},
                {"family": "knn", "n": 200, "k": 6, "dim": 2, "graph_seed": 21},
            ],
        }
    raise ValueError(f"unknown preset {name!r}")


def _mu_grid(scale: float) -> list[float]:
    fractions = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0, 1.3, 1.7, 2.2)
    return [round(scale * f, 6) for f in fractions]
