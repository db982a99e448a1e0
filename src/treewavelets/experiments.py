"""Monte Carlo harnesses: power curves, sparsity scatter,
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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .detection import threshold
from .detection import gen_cluster_signal, gen_prior_signal, gen_two_level_signal
from .errors import FitUndefinedError, InfeasibleSignalError
from .graphs import (
    Graph,
    _pair_array,
    _require_positive,
    as_rng,
    cut_size,
    gen_complete,
    gen_epsilon,
    gen_knn,
    gen_torus,
    write_csv,
)
from .resistance import ResistanceProfile, all_edge_resistances
from .trees import SpanningTree, bfs_spanning_tree, sample_ust
from .wavelets import activation_bound, apply_basis, basis_sparsity, build_basis

__all__ = [
    "CellSpec",
    "ConcentrationRow",
    "FitRow",
    "SparsityPoint",
    "TreeSource",
    "TrialRecord",
    "aggregate_records",
    "fit_sparsity_points",
    "mu_at_power",
    "power_curve",
    "preset_config",
    "run_experiment",
    "sparsity_experiment",
    "ust_concentration_check",
    "ust_edge_ids",
]


# =============================================================================
# Tree sources and trial records
# =============================================================================


@dataclass(frozen=True)
class TreeSource:
    """Where each trial's spanning tree comes from.

    kind="ust" draws a fresh uniform spanning tree per trial (seeded from the
    trial's stream); kind="bfs" reuses the deterministic breadth-first tree
    from vertex 0 and draws nothing.
    """

    kind: str = "ust"

    def __post_init__(self):
        if self.kind not in ("ust", "bfs"):
            raise ValueError(f"unknown tree source kind {self.kind!r}; expected 'ust' or 'bfs'")

    @classmethod
    def ust(cls) -> "TreeSource":
        return cls(kind="ust")

    @classmethod
    def bfs(cls) -> "TreeSource":
        return cls(kind="bfs")

    def realize(self, g: Graph, rng: np.random.Generator) -> tuple[SpanningTree, int]:
        """Produce this trial's tree; returns (tree, seed or -1)."""
        if self.kind == "ust":
            seed = int(rng.integers(2**32))
            return sample_ust(g, seed), seed
        return bfs_spanning_tree(g), -1


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
        # JSON gives no types: "8" or true must not pass as a size, and an
        # integer rho must print like a float rho in every CSV.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                object.__setattr__(self, f.name, _config_number(f"cell field {f.name!r}", value))
            elif f.type == "int":
                _config_int(f"cell field {f.name!r}", value)
            elif f.type == "str" and not isinstance(value, str):
                raise ValueError(f"cell field {f.name!r} must be a string, got {value!r}")
        mu_grid = _config_list("mu_grid", self.mu_grid)
        object.__setattr__(self, "mu_grid", tuple(_config_number("mu_grid values", v) for v in mu_grid))
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
        if not isinstance(d, dict):
            raise ValueError(f"a cell must be a JSON object, got {d!r}")
        _reject_unknown("cell fields", d, cls.__dataclass_fields__)
        return cls(**d)


def _reject_unknown(what: str, d: dict, known) -> None:
    """Raise ValueError naming every key of d outside known: a misspelt key
    would otherwise run silently with its default."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"unknown {what}: {unknown}")


def _is_int(value) -> bool:
    """An integer that is not a bool: JSON's true is no seed and no size."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _config_int(name: str, value) -> int:
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _config_number(name: str, value) -> float:
    if not (_is_int(value) or isinstance(value, (float, np.floating))):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _config_list(name: str, value) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return list(value)


def _config_items(name: str, value) -> list:
    """A config list that must hold something: an empty one would write
    header-only CSVs as if the run had succeeded."""
    items = _config_list(name, value)
    if not items:
        raise ValueError(f"config key {name!r} must not be an empty list")
    return items


def _trial_rng(master_seed: int, cell_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(cell_index, trial))
    )


# =============================================================================
# Power curves
# =============================================================================


def _power_trial(args) -> list[TrialRecord]:
    """One trial: a tree, its basis, a unit-energy signal shape and one
    standard normal noise vector z, drawn in that order from the trial's
    stream, then one row per mu of the cell's grid.

    The statistic at mu is max |mu * coef(shape) + sigma * coef(z)| over the
    basis. The basis is built before the shape is drawn, so a trial whose
    shape proves infeasible still costs its build; it contributes no rows.
    """
    g, cell, tree_source, sigma, tau, master_seed, cell_index, trial = args
    rng = _trial_rng(master_seed, cell_index, trial)
    tree, tree_seed = tree_source.realize(g, rng)
    basis = build_basis(tree)
    try:
        shape = _SAMPLERS[cell.sampler](g, cell.rho, 1.0, rng)
    except InfeasibleSignalError:
        return []
    noise = rng.standard_normal(g.n)
    coef_shape = apply_basis(basis, shape)
    coef_noise = apply_basis(basis, noise)
    rows = []
    for mu in cell.mu_grid:
        stat = float(np.max(np.abs(mu * coef_shape + sigma * coef_noise)))
        rows.append(
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
        )
    return rows


def _map_tasks(fn, tasks: list, workers: int) -> list:
    if workers <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing as mp

    chunk = max(1, len(tasks) // (workers * 4))
    with mp.get_context("fork").Pool(workers) as pool:
        return pool.map(fn, tasks, chunksize=chunk)


def _require_power_cell(cell_index: int, cell: CellSpec, trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not cell.mu_grid:
        raise ValueError(f"cell {cell_index}: mu_grid must be nonempty")


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
    _require_power_cell(cell_index, cell, trials)
    g = cell.build_graph()
    tau = threshold(sigma, g.n, delta)
    tasks = [
        (g, cell, tree_source, sigma, tau, master_seed, cell_index, t)
        for t in range(trials)
    ]
    rows: list[TrialRecord] = []
    for chunk in _map_tasks(_power_trial, tasks, workers):
        rows.extend(chunk)
    return rows


def aggregate_records(records: list[TrialRecord], trials_requested: int) -> list[dict]:
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
                "trials_requested": trials_requested,
                "rejections": rej,
                "power": power,
                "type_i": t1 if t1 is not None else float("nan"),
                "risk": risk if risk is not None else float("nan"),
            }
        )
    return out


def mu_at_power(aggregates: list[dict]) -> list[dict]:
    """Interpolate, per (family, n, rho), the mu at which power first reaches 0.5."""
    curves: dict[tuple, list[tuple[float, float]]] = {}
    for a in aggregates:
        curves.setdefault((a["family"], a["n"], a["rho"]), []).append((a["mu"], a["power"]))
    out = []
    for (family, n, rho), pts in sorted(curves.items()):
        pts.sort()
        crossing = float("nan")
        for (mu0, p0), (mu1, p1) in zip(pts, pts[1:]):
            if p0 < 0.5 <= p1:
                frac = (0.5 - p0) / (p1 - p0)
                crossing = mu0 + frac * (mu1 - mu0)
                break
        if math.isnan(crossing) and pts and pts[0][1] >= 0.5:
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
        x = _SAMPLERS[cell.sampler](g, rho, 1.0, rng)
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
        tree_cut=cut_size(tree, x.values),
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


def _require_sparsity_cells(cells: list[CellSpec], signals: int) -> None:
    if signals < 2:
        raise ValueError(f"need at least 2 signals per cell, got {signals}")
    for ci, cell in enumerate(cells):
        if cell.rho_lo < 0 or cell.rho_hi < cell.rho_lo:
            raise ValueError(
                f"cell {ci}: need 0 <= rho_lo <= rho_hi, got "
                f"[{cell.rho_lo}, {cell.rho_hi}]"
            )


def sparsity_experiment(
    cells: list[CellSpec],
    *,
    signals: int,
    master_seed: int,
    workers: int = 1,
) -> tuple[list[SparsityPoint], list[FitRow]]:
    """Sample (tree, signal) pairs per cell and fit sparsity against the budget.

    Every cell needs 0 <= rho_lo <= rho_hi and there must be at least two
    signals so the fit is defined; both are checked before any cell runs.
    Returns the raw scatter and one fit row per cell.
    """
    _require_sparsity_cells(cells, signals)
    points: list[SparsityPoint] = []
    fits: list[FitRow] = []
    for ci, cell in enumerate(cells):
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


def _delta_values(deltas) -> list[float]:
    """The relative overshoots as floats, each checked positive and finite."""
    values = [float(d) for d in deltas]
    for d in values:
        _require_positive("delta values", d)
    return values


def ust_edge_ids(g: Graph, draws: int, rng: np.random.Generator | int) -> np.ndarray:
    """Host edge ids of ``draws`` uniform spanning trees, one row per draw.

    Row i is ``g.edge_ids(sample_ust(g, s).edges)`` for the i-th seed
    ``s = integers(2**32)`` of ``rng``'s stream, so the trees are the ones
    drawn one at a time from the same stream. Returns a (draws, n - 1) int64
    array; no tree object is kept.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    gen = as_rng(rng)
    ids = np.empty((draws, g.n - 1), dtype=np.int64)
    for row in ids:
        row[:] = g.edge_ids(sample_ust(g, int(gen.integers(2**32))).edges)
    return ids


def ust_concentration_check(
    g: Graph,
    edge_set,
    deltas,
    tree_ids,
    *,
    profile: ResistanceProfile | None = None,
) -> list[ConcentrationRow]:
    """Compare tail probabilities of a uniform tree's overlap with an edge set.

    For each relative overshoot delta, measures how often the number of
    sampled-tree edges inside the set reaches (1 + delta) times the set's
    exact resistance mass, and compares against the multiplicative Chernoff
    bound with a 3-standard-error allowance (binomial, evaluated at the bound).

    ``tree_ids`` holds one row of host edge ids per sampled tree, as
    :func:`ust_edge_ids` returns them; one array serves every edge set of a
    graph. Every delta must be positive and finite. The deltas, the edge set
    and ``tree_ids`` are checked, in that order, before any solve.
    """
    deltas = _delta_values(deltas)
    pairs = _pair_array(edge_set)
    if not len(pairs):
        raise ValueError("edge set is empty")
    idx = g.edge_ids(pairs)
    if (idx < 0).any():
        u, v = pairs[np.argmax(idx < 0)].tolist()
        raise ValueError(f"edge {(u, v)} is not in the graph")
    tree_ids = np.asarray(tree_ids)
    if tree_ids.ndim != 2 or tree_ids.shape[1] != g.n - 1:
        raise ValueError(f"tree_ids must have shape (draws, {g.n - 1}), got {tree_ids.shape}")
    if not len(tree_ids):
        raise ValueError("concentration check needs at least one tree draw")
    # A valid edge set means m >= 1 and n >= 2, so tree_ids is not empty here.
    if tree_ids.dtype.kind not in "iu" or tree_ids.min() < 0 or tree_ids.max() >= g.m:
        raise ValueError(f"tree_ids must hold edge ids in 0..{g.m - 1}")
    if profile is None:
        profile = all_edge_resistances(g)
    r_set = float(profile.edge_resistances[idx].sum())
    member = np.zeros(g.m, dtype=bool)
    member[idx] = True
    counts = np.count_nonzero(member[tree_ids], axis=1)
    n_draws = len(counts)
    rows = []
    for d in deltas:
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


def _dict_rows(dicts: list[dict], columns: list[str]) -> list[list]:
    return [[d[c] for c in columns] for d in dicts]


def _attr_rows(records: list, columns: list[str]) -> list[list]:
    return [[getattr(r, c) for c in columns] for r in records]


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


def _config_tree(name: str, d) -> TreeSource:
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a JSON object, got {d!r}")
    _reject_unknown(f"{name} keys", d, ("kind",))
    return TreeSource(kind=d.get("kind", "ust"))


def _config_deltas(name: str, value) -> list[float]:
    return _delta_values(_config_number(name, d) for d in _config_items(name, value))


# What each experiment kind reads besides kind, seed and cells: its config
# keys, each with a reader and a default (None marks a required key), and the
# signal fields its cells read. A signal field of another kind is rejected.
_KINDS = {
    "power": ({"sigma": (_config_number, 1.0), "delta": (_config_number, 0.05),
               "trials": (_config_int, None), "tree": (_config_tree, {})},
              ("rho", "sampler", "mu_grid")),
    "sparsity": ({"signals": (_config_int, None)}, ("rho_lo", "rho_hi", "sampler")),
    "concentration": ({"samples": (_config_int, None), "deltas": (_config_deltas, None),
                       "sets": (_config_items, ("edge", "star", "ball"))},
                      ()),
}
_SIGNAL_FIELDS = {f for _, reads in _KINDS.values() for f in reads}


def _read_config(config) -> tuple[str, int, list[CellSpec], dict]:
    """The one reader of a config dict: return (kind, seed, cells, values),
    values mapping the kind's keys to typed values. It makes every check that
    needs no graph, so a bad config fails before any file is written."""
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {config!r}")
    seed = config.get("seed")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"config needs a non-negative integer master seed under 'seed', "
                         f"got {seed!r}")
    kind = config.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    keys, reads = _KINDS[kind]
    known = ("kind", "seed", "cells", *keys)

    def value(key, default=None):
        if key not in config and default is None:
            _reject_unknown(f"{kind} config keys", config, known)  # a misspelt key first
            raise ValueError(f"{kind} config needs key {key!r}")
        return config.get(key, default)

    cell_dicts = _config_items("cells", value("cells"))
    cells = [CellSpec.from_dict(d) for d in cell_dicts]
    values = {key: read(key, value(key, default)) for key, (read, default) in keys.items()}
    _reject_unknown(f"{kind} config keys", config, known)
    for ci, d in enumerate(cell_dicts):
        other = sorted(set(d) & (_SIGNAL_FIELDS - set(reads)))
        if other:
            raise ValueError(f"cell {ci}: {kind} cells do not read {other}")
    if kind == "power":
        threshold(values["sigma"], 1, values["delta"])  # the test's own sigma and delta checks
        for ci, cell in enumerate(cells):
            _require_power_cell(ci, cell, values["trials"])
    elif kind == "sparsity":
        _require_sparsity_cells(cells, values["signals"])
    elif values["samples"] < 1:
        raise ValueError(f"samples must be >= 1 for at least one tree draw, "
                         f"got {values['samples']}")
    return kind, seed, cells, values


def run_experiment(config: dict, out_dir: str | Path, workers: int = 1) -> dict:
    """Run one experiment config and write its CSV outputs plus a schema note.

    The config's kind selects the harness: "power" sweeps mu grids per cell,
    "sparsity" scatters coefficient counts against cut budgets, and
    "concentration" checks uniform-tree overlap tails. Files land in out_dir
    with fixed names and column orders; rerunning the same config and seed
    rewrites identical bytes. A config that ``_read_config`` rejects raises
    ValueError before out_dir is created.

    Returns
    -------
    dict
        A short summary of the run for printing, such as row counts.
    """
    kind, seed, cells, values = _read_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    schema: list[str] = []

    if kind == "power":
        trials = values["trials"]
        records: list[TrialRecord] = []
        for ci, cell in enumerate(cells):
            records.extend(
                power_curve(
                    cell,
                    trials=trials,
                    sigma=values["sigma"],
                    delta=values["delta"],
                    tree_source=values["tree"],
                    master_seed=seed,
                    cell_index=ci,
                    workers=workers,
                )
            )
        aggregates = aggregate_records(records, trials)
        mu50 = mu_at_power(aggregates)
        write_csv(out / "trials.csv", TRIAL_COLUMNS, _attr_rows(records, TRIAL_COLUMNS))
        write_csv(out / "power.csv", AGGREGATE_COLUMNS, _dict_rows(aggregates, AGGREGATE_COLUMNS))
        write_csv(out / "mu50.csv", MU50_COLUMNS, _dict_rows(mu50, MU50_COLUMNS))
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
        summary = {
            "cells": len(cells),
            "rows": len(records),
            "mu50": {f"{m['family']}/n={m['n']}": m["mu50"] for m in mu50},
        }
    elif kind == "sparsity":
        points, fits = sparsity_experiment(
            cells, signals=values["signals"], master_seed=seed, workers=workers
        )
        write_csv(out / "points.csv", SPARSITY_COLUMNS, _attr_rows(points, SPARSITY_COLUMNS))
        write_csv(out / "fits.csv", FIT_COLUMNS, _attr_rows(fits, FIT_COLUMNS))
        schema += [
            "points.csv: one row per sampled (tree, signal) pair; columns "
            + ", ".join(SPARSITY_COLUMNS),
            "  levels = per-edge activation budget of the drawn tree;",
            "  bound = cut * levels + 1 dominates sparsity for every row.",
            "fits.csv: least squares of sparsity on cut*levels per cell; columns "
            + ", ".join(FIT_COLUMNS),
        ]
        summary = {f.family: {"slope": f.slope, "r2": f.r2, "points": f.points} for f in fits}
    else:
        samples, deltas, set_labels = values["samples"], values["deltas"], values["sets"]
        graphs = [cell.build_graph() for cell in cells]
        # The sets draw no random numbers, so a bad one fails here, before any
        # solve or tree draw, and the tree stream stays as it is.
        edge_sets = []
        for cell, g in zip(cells, graphs):
            try:
                edge_sets.append([_named_edge_set(g, label) for label in set_labels])
            except ValueError as exc:
                raise ValueError(f"{cell.family} n={g.n}: {exc}") from None
        rows_out: list[list] = []
        failed = 0
        gen = as_rng(seed)
        for cell, g, sets in zip(cells, graphs, edge_sets):
            profile = all_edge_resistances(g)
            tree_ids = ust_edge_ids(g, samples, gen)
            for label, edge_set in zip(set_labels, sets):
                rows = ust_concentration_check(g, edge_set, deltas, tree_ids, profile=profile)
                for r in rows:
                    failed += not r.passed
                    rows_out.append(
                        [cell.family, g.n, label, *(getattr(r, c) for c in CONCENTRATION_COLUMNS)]
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
        summary = {"rows": len(rows_out), "failed": failed}

    (out / "schema.txt").write_text("\n".join(schema) + "\n")
    return summary


def _named_edge_set(g: Graph, label: str) -> np.ndarray:
    """Deterministic edge sets used by the concentration experiment; never empty."""
    ea = g.edges
    if label == "edge":
        edge_set = ea[:1]
    elif label == "star":
        edge_set = ea[(ea == 0).any(axis=1)]
    elif label == "ball":
        indptr, indices = g.csr
        inside = np.isin(np.arange(g.n), [0, *indices[: indptr[1]]])
        edge_set = ea[inside[ea[:, 0]] != inside[ea[:, 1]]]
    else:
        raise ValueError(f"unknown edge-set label {label!r}")
    if not len(edge_set):
        raise ValueError(f"edge set {label!r} is empty")
    return edge_set


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
