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
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .detection import threshold
from .detection import gen_cluster_signal, gen_prior_signal, gen_two_level_signal
from .errors import FitUndefinedError, InfeasibleSignalError
from .graphs import (
    Graph,
    _pair_array,
    _require_epsilon_args,
    _require_knn_args,
    _require_positive,
    _require_torus_args,
    _require_vertex_count,
    as_rng,
    cut_size,
    gen_complete,
    gen_epsilon,
    gen_knn,
    gen_torus,
    write_csv,
)
from .resistance import ResistanceProfile, all_edge_resistances
from .trees import bfs_spanning_tree, sample_ust
from .wavelets import activation_bound, apply_basis, basis_sparsity, build_basis

__all__ = [
    "CellSpec",
    "PowerCell",
    "aggregate_records",
    "concentration_experiment",
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
# Cell specifications (JSON-friendly)
# =============================================================================

_SAMPLERS = {
    "ball": gen_cluster_signal,
    "two_level": gen_two_level_signal,
    "prior": gen_prior_signal,
}


@dataclass(frozen=True)
class _Family:
    """What one graph family reads, checks and builds.

    ``fields`` names the cell fields it reads, in its generator's argument
    order; a graph field of another family is rejected (by key in a config,
    off its default otherwise): the cell would not build the graph it names.
    ``check(*values)`` makes the generator's range checks when a cell is
    read. ``build(*values)`` returns (graph, points or None); it looks its
    generator up in this module when called, so a wrapper installed there
    is the one called. ``help`` is the family's ``gen`` description.
    """

    fields: tuple
    check: Callable
    build: Callable
    help: str


_FAMILIES = {
    "torus": _Family(("side", "dims"), _require_torus_args,
                     lambda *args: (gen_torus(*args), None), "d-dimensional torus lattice"),
    "complete": _Family(("n",), _require_vertex_count,
                        lambda *args: (gen_complete(*args), None), "complete graph"),
    # The seed, last, needs no generator check: the cell checks it for every family.
    "knn": _Family(("n", "k", "dim", "graph_seed"), lambda *args: _require_knn_args(*args[:-1]),
                   lambda *args: gen_knn(*args), "symmetrized k-nearest-neighbor graph"),
    "epsilon": _Family(("n", "eps", "dim", "graph_seed"),
                       lambda *args: _require_epsilon_args(*args[:-1]),
                       lambda *args: gen_epsilon(*args), "fixed-radius geometric graph"),
}
_GRAPH_FIELDS = {f for family in _FAMILIES.values() for f in family.fields}


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
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown graph family {self.family!r}")
        set_fields = [f.name for f in fields(self) if getattr(self, f.name) != f.default]
        _reject_other_family(self.family, set_fields)
        _FAMILIES[self.family].check(*self._graph_args())
        if self.graph_seed < 0:  # numpy would reject it unnamed, once the graph is built
            raise ValueError(f"cell field 'graph_seed' must be >= 0, got {self.graph_seed}")
        if self.sampler not in _SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        # A NaN rho or mu would write rows that read as real trials; rho = +inf
        # means no budget.
        _require_positive("rho", self.rho, zero_ok=True, inf_ok=True)
        for mu in self.mu_grid:
            _require_positive("mu_grid values", mu, zero_ok=True)

    def _graph_args(self) -> list:
        return [getattr(self, f) for f in _FAMILIES[self.family].fields]

    def generate(self) -> tuple[Graph, np.ndarray | None]:
        """The cell's graph, with its point coordinates for the geometric
        families (None for torus and complete)."""
        return _FAMILIES[self.family].build(*self._graph_args())

    def build_graph(self) -> Graph:
        return self.generate()[0]

    @classmethod
    def from_dict(cls, d: dict) -> CellSpec:
        if not isinstance(d, dict):
            raise ValueError(f"a cell must be a JSON object, got {d!r}")
        _reject_unknown("cell fields", d, cls.__dataclass_fields__)
        if "family" not in d:
            raise ValueError(f"a cell needs key 'family', got {d!r}")
        if isinstance(d["family"], str) and d["family"] in _FAMILIES:  # else cls rejects it
            _reject_other_family(d["family"], d)
        return cls(**d)


def _reject_other_family(family: str, named) -> None:
    """Raise ValueError naming every graph field in named that family does not read."""
    other = sorted(set(named) & (_GRAPH_FIELDS - set(_FAMILIES[family].fields)))
    if other:
        raise ValueError(f"{family} cells do not read {other}")


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


def _columns(names: list[str], rows: list[tuple]) -> dict[str, np.ndarray]:
    """The column dict of rows: each name, in order, maps to the array of the
    rows' values in its position."""
    return {name: np.array([row[i] for row in rows]) for i, name in enumerate(names)}


# =============================================================================
# Power curves
# =============================================================================


def _draw(g: Graph, cell: CellSpec, kind: str, rho: float, rng):
    """Draw a tree, build its basis, then draw a unit-energy shape with cut
    budget rho, in that order from rng: (tree_seed, tree, basis, shape), or
    None if the sampler cannot meet the budget (the build is spent anyway).

    A "ust" tree is a uniform spanning tree seeded from rng; a "bfs" tree is
    the breadth-first tree from vertex 0, which draws nothing (tree_seed -1).
    """
    if kind == "ust":
        tree_seed = int(rng.integers(2**32))
        tree = sample_ust(g, tree_seed)
    else:
        tree_seed, tree = -1, bfs_spanning_tree(g)
    basis = build_basis(tree)
    try:
        shape = _SAMPLERS[cell.sampler](g, rho, 1.0, rng)
    except InfeasibleSignalError:
        return None
    return tree_seed, tree, basis, shape


def _power_trial(g, cell, tree, sigma, master_seed, cell_index, trial):
    """One trial: ``_draw``, a standard normal noise vector z, and
    (tree_seed, cut, stats), or None for an infeasible shape. The statistic
    at mu, max |mu * coef(shape) + sigma * coef(z)|, is computed for the
    whole grid as one array, each element by the same operations as for its
    mu alone."""
    rng = _trial_rng(master_seed, cell_index, trial)
    drawn = _draw(g, cell, tree, cell.rho, rng)
    if drawn is None:
        return None
    tree_seed, _, basis, shape = drawn
    noise = rng.standard_normal(g.n)
    stats = np.multiply.outer(cell.mu_grid, apply_basis(basis, shape))
    stats += sigma * apply_basis(basis, noise)
    return tree_seed, shape.cut, np.abs(stats, out=stats).max(axis=1)


def _require_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _map_tasks(fn, tasks, workers: int) -> list:
    _require_workers(workers)
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing as mp

    chunk = max(1, len(tasks) // (workers * 4))
    with mp.get_context("fork").Pool(workers) as pool:
        return pool.map(fn, tasks, chunksize=chunk)


def _require_power_cell(cell_index: int, cell: CellSpec, trials: int, tree: str) -> None:
    if tree not in ("ust", "bfs"):
        raise ValueError(f"unknown tree kind {tree!r}; expected 'ust' or 'bfs'")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not cell.mu_grid:
        raise ValueError(f"cell {cell_index}: mu_grid must be nonempty")
    # power.csv keys its rows by (family, n, rho, mu), so a repeated mu would
    # write two rows with one key.
    if len(set(cell.mu_grid)) < len(cell.mu_grid):
        raise ValueError(f"cell {cell_index}: mu_grid repeats a value: {list(cell.mu_grid)}")


@dataclass(frozen=True, eq=False)
class PowerCell:
    """One cell's feasible trials, in trial order: ``stats[i, j]`` is the
    statistic of trial ``trial[i]`` at ``cell.mu_grid[j]``, and ``cut[i]``
    the cut of its signal shape. ``trial``, ``tree_seed`` and ``cut`` are
    int64; ``stats`` has shape (feasible trials, len(cell.mu_grid))."""

    cell: CellSpec
    n: int
    threshold: float
    trial: np.ndarray
    tree_seed: np.ndarray
    cut: np.ndarray
    stats: np.ndarray


def power_curve(
    cell: CellSpec,
    *,
    trials: int,
    sigma: float,
    delta: float,
    tree: str,
    master_seed: int,
    cell_index: int = 0,
    workers: int = 1,
) -> PowerCell:
    """Empirical power of the test over a mu grid, one cell at a time.

    Each trial draws a tree of kind ``tree`` ("ust" or "bfs"), a unit-energy
    signal shape, and one noise vector, then sweeps the mu grid over those
    shared draws. A mu of zero is a null trial, which is how type-I
    companions are run. Trials whose signal sampler cannot meet the cut
    budget are left out of the cell; aggregation reports the shortfall.
    """
    _require_power_cell(cell_index, cell, trials, tree)
    g = cell.build_graph()
    tau = threshold(sigma, g.n, delta)
    trial = partial(_power_trial, g, cell, tree, sigma, master_seed, cell_index)
    results = _map_tasks(trial, range(trials), workers)
    kept = [(i, *r) for i, r in enumerate(results) if r is not None]
    ids, tree_seed, cut, stats = zip(*kept) if kept else ((),) * 4
    return PowerCell(
        cell=cell,
        n=g.n,
        threshold=tau,
        trial=np.array(ids, dtype=np.int64),
        tree_seed=np.array(tree_seed, dtype=np.int64),
        cut=np.array(cut, dtype=np.int64),
        stats=np.array(stats, dtype=np.float64).reshape(len(kept), len(cell.mu_grid)),
    )


def aggregate_records(cells: list[PowerCell], trials_requested: int) -> list[dict]:
    """Per-(family, n, rho, mu) power aggregates, sorted by that key.

    The risk column adds the cell's type-I rate (its mu=0 companion) to the
    miss rate at each mu. A cell with no feasible trial has no rows.
    """
    out = []
    for pc in sorted(cells, key=lambda pc: (pc.cell.family, pc.n, pc.cell.rho)):
        done = len(pc.trial)
        if not done:
            continue
        grid = pc.cell.mu_grid
        rej = np.count_nonzero(pc.stats > pc.threshold, axis=0).tolist()
        type_i = rej[grid.index(0.0)] / done if 0.0 in grid else math.nan
        for mu, r in sorted(zip(grid, rej)):
            power = r / done
            risk = type_i + 1.0 - power if mu > 0 else math.nan
            row = [pc.cell.family, pc.n, pc.cell.rho, mu, done, trials_requested, r, power, type_i,
                   risk]
            out.append(dict(zip(AGGREGATE_COLUMNS, row)))
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


SPARSITY_COLUMNS = ["family", "n", "signal", "tree_seed", "tree_degree", "levels", "rho_target",
                    "cut", "tree_cut", "sparsity", "bound"]

FIT_COLUMNS = ["family", "n", "points", "slope", "intercept", "r2"]


def _sparsity_point(g, cell, master_seed, cell_index, i) -> tuple | None:
    """One sampled (tree, signal) pair: its points.csv values after family and
    n, or None if the sampler cannot meet the drawn budget."""
    rng = _trial_rng(master_seed, cell_index, i)
    rho = int(rng.integers(cell.rho_lo, cell.rho_hi + 1))
    drawn = _draw(g, cell, "ust", rho, rng)
    if drawn is None:
        return None
    tree_seed, tree, basis, x = drawn
    levels = activation_bound(tree)
    return (i, tree_seed, tree.max_degree, levels, rho, x.cut, cut_size(tree, x.values),
            basis_sparsity(basis, x.values), x.cut * levels + 1)


def fit_sparsity_points(x, y) -> tuple[float, float, float]:
    """Least-squares line of coefficient counts y against x = cut * levels:
    (slope, intercept, r2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not len(x):
        raise FitUndefinedError("no points to fit")
    if np.ptp(x) == 0:
        raise FitUndefinedError("all points share one abscissa; slope is undefined")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else float("nan")
    return float(slope), float(intercept), r2


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
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Sample (tree, signal) pairs per cell and fit sparsity against the budget.

    Every cell needs 0 <= rho_lo <= rho_hi and there must be at least two
    signals so the fit is defined; both are checked before any cell runs.
    Returns the raw scatter and one fit row per cell, as column dicts keyed
    by SPARSITY_COLUMNS and FIT_COLUMNS. A cell whose fit is undefined
    raises FitUndefinedError naming the cell.
    """
    _require_sparsity_cells(cells, signals)
    points: list[tuple] = []
    fits: list[tuple] = []
    for ci, cell in enumerate(cells):
        g = cell.build_graph()
        point = partial(_sparsity_point, g, cell, master_seed, ci)
        rows = [(cell.family, g.n, *p) for p in _map_tasks(point, range(signals), workers)
                if p is not None]
        cols = _columns(SPARSITY_COLUMNS, rows)
        try:
            fit = fit_sparsity_points(cols["cut"] * cols["levels"], cols["sparsity"])
        except FitUndefinedError as exc:
            raise FitUndefinedError(f"cell {ci} ({cell.family} n={g.n}): {exc}") from None
        points.extend(rows)
        fits.append((cell.family, g.n, len(rows), *fit))
    return _columns(SPARSITY_COLUMNS, points), _columns(FIT_COLUMNS, fits)


# =============================================================================
# Spanning-tree concentration
# =============================================================================


CONCENTRATION_COLUMNS = ["delta", "set_size", "r_set", "tail_at", "empirical", "bound", "band",
                         "passed"]


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
) -> dict[str, np.ndarray]:
    """Compare tail probabilities of a uniform tree's overlap with an edge set.

    For each relative overshoot delta, measures how often the number of
    sampled-tree edges inside the set reaches (1 + delta) times the set's
    exact resistance mass, and compares against the multiplicative Chernoff
    bound with a 3-standard-error allowance (binomial, evaluated at the bound).
    Returns a column dict keyed by CONCENTRATION_COLUMNS, one entry per delta.

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
        rows.append((d, len(idx), r_set, at, empirical, bound, band, empirical <= bound + band))
    return _columns(CONCENTRATION_COLUMNS, rows)


_EDGE_SETS = ("edge", "star", "ball")


def _named_edge_set(g: Graph, label: str) -> np.ndarray:
    """Deterministic edge sets used by the concentration experiment; never empty."""
    ea = g.edges
    if label == "edge":
        edge_set = ea[:1]
    elif label == "star":
        edge_set = ea[(ea == 0).any(axis=1)]
    else:  # "ball": the label checks admit no other label
        indptr, indices = g.csr
        inside = np.isin(np.arange(g.n), [0, *indices[: indptr[1]]])
        edge_set = ea[inside[ea[:, 0]] != inside[ea[:, 1]]]
    if not len(edge_set):
        raise ValueError(f"edge set {label!r} is empty")
    return edge_set


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1 for at least one tree draw, got {samples}")


def concentration_experiment(
    cells: list[CellSpec],
    *,
    samples: int,
    deltas,
    sets,
    master_seed: int,
) -> dict[str, np.ndarray]:
    """Check uniform-tree overlap tails on named edge sets, cell by cell.

    Each cell's graph gets ``samples`` tree draws, taken in cell order from
    one stream seeded by ``master_seed``, and one exact resistance solve;
    every edge set labelled in ``sets`` ("edge", "star", "ball") is checked
    at every delta against those draws. The arguments, then every graph and
    edge set, are checked before any solve or draw, so an empty edge set
    costs no work and the tree stream stays as it is. Returns one column
    dict: family, n and set, then CONCENTRATION_COLUMNS, one entry per
    (cell, set, delta).
    """
    _require_samples(samples)
    deltas, sets = _delta_values(deltas), _config_sets("sets", sets)
    graphs = [cell.build_graph() for cell in cells]
    edge_sets = []
    for cell, g in zip(cells, graphs):
        try:
            edge_sets.append([_named_edge_set(g, label) for label in sets])
        except ValueError as exc:
            raise ValueError(f"{cell.family} n={g.n}: {exc}") from None
    rows: list[tuple] = []
    gen = as_rng(master_seed)
    for cell, g, cell_sets in zip(cells, graphs, edge_sets):
        profile = all_edge_resistances(g)
        tree_ids = ust_edge_ids(g, samples, gen)
        for label, edge_set in zip(sets, cell_sets):
            checked = ust_concentration_check(g, edge_set, deltas, tree_ids, profile=profile)
            rows.extend((cell.family, g.n, label, *r) for r in zip(*checked.values()))
    return _columns(["family", "n", "set", *CONCENTRATION_COLUMNS], rows)


# =============================================================================
# Experiment runner (configs, presets, CSV emission)
# =============================================================================


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

TRIAL_COLUMNS = ["family", "n", "rho", "mu", "trial", "seed", "tree_seed", "cut",
                 "statistic", "threshold", "reject", "truth"]


def _trial_rows(pc: PowerCell, master_seed: int):
    """trials.csv rows of one cell: one per (trial, mu), in trial then grid
    order. A null row (mu = 0) has cut 0."""
    family, rho, tau = pc.cell.family, pc.cell.rho, pc.threshold
    columns = (pc.trial.tolist(), pc.tree_seed.tolist(), pc.cut.tolist(), pc.stats.tolist())
    for trial, tree_seed, cut, stats in zip(*columns):
        for mu, stat in zip(pc.cell.mu_grid, stats):
            yield [family, pc.n, rho, mu, trial, master_seed, tree_seed, cut if mu > 0 else 0,
                   stat, tau, stat > tau, mu > 0]


def _table(name: str, columns: dict[str, np.ndarray]) -> tuple:
    """A column dict as a (file name, columns, rows) table."""
    return name, list(columns), zip(*(values.tolist() for values in columns.values()))


def _config_tree(name: str, d) -> str:
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a JSON object, got {d!r}")
    _reject_unknown(f"{name} keys", d, ("kind",))
    return d.get("kind", "ust")


def _config_deltas(name: str, value) -> list[float]:
    return _delta_values(_config_number(name, d) for d in _config_items(name, value))


def _config_sets(name: str, value) -> list[str]:
    """Edge-set labels, each known and none repeated: a repeat would write
    its concentration rows twice."""
    labels = _config_items(name, value)
    for label in labels:
        if label not in _EDGE_SETS:
            raise ValueError(f"unknown edge-set label {label!r}; expected one of {list(_EDGE_SETS)}")
    if len(set(labels)) < len(labels):
        raise ValueError(f"{name} repeats a label: {labels}")
    return labels


def _check_power(cells: list[CellSpec], values: dict) -> None:
    threshold(values["sigma"], 1, values["delta"])  # the test's own sigma and delta checks
    # power.csv and mu50.csv key their rows by (family, n, rho[, mu]), so
    # two cells that share (family, n, rho) would write two rows with one key.
    seen = {}
    for ci, cell in enumerate(cells):
        _require_power_cell(ci, cell, values["trials"], values["tree"])
        n = cell.side**cell.dims if cell.family == "torus" else cell.n
        key = (cell.family, n, cell.rho)
        if key in seen:
            raise ValueError(f"cells {seen[key]} and {ci} share (family, n, rho) = {key}; "
                             f"their power rows would share one key")
        seen[key] = ci


def _run_power(cells, values, seed, workers):
    blocks = [power_curve(cell, **values, master_seed=seed, cell_index=ci, workers=workers)
              for ci, cell in enumerate(cells)]
    aggregates = aggregate_records(blocks, values["trials"])
    mu50 = mu_at_power(aggregates)
    # The aggregate and mu50 rows are dicts in column order.
    tables = [
        ("trials.csv", TRIAL_COLUMNS, (row for pc in blocks for row in _trial_rows(pc, seed))),
        ("power.csv", AGGREGATE_COLUMNS, (a.values() for a in aggregates)),
        ("mu50.csv", MU50_COLUMNS, (m.values() for m in mu50)),
    ]
    schema = [
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
        "rows": sum(pc.stats.size for pc in blocks),
        "mu50": {f"{m['family']}/n={m['n']}/rho={m['rho']}": m["mu50"] for m in mu50},
    }
    return tables, schema, summary


def _run_sparsity(cells, values, seed, workers):
    points, fits = sparsity_experiment(cells, **values, master_seed=seed, workers=workers)
    schema = [
        "points.csv: one row per sampled (tree, signal) pair; columns "
        + ", ".join(SPARSITY_COLUMNS),
        "  levels = per-edge activation budget of the drawn tree;",
        "  bound = cut * levels + 1 dominates sparsity for every row.",
        "fits.csv: least squares of sparsity on cut*levels per cell; columns "
        + ", ".join(FIT_COLUMNS),
    ]
    # Two cells may share (family, n), so the cell index keys the summary.
    fit_rows = zip(*(fits[c].tolist() for c in ("family", "n", "slope", "r2", "points")))
    summary = {f"cell {ci} {family}/n={n}": {"slope": slope, "r2": r2, "points": count}
               for ci, (family, n, slope, r2, count) in enumerate(fit_rows)}
    return [_table("points.csv", points), _table("fits.csv", fits)], schema, summary


def _run_concentration(cells, values, seed, _workers):
    rows = concentration_experiment(cells, **values, master_seed=seed)
    schema = [
        "concentration.csv: empirical tail of tree-overlap counts vs the",
        "  multiplicative bound; columns family, n, set, "
        + ", ".join(CONCENTRATION_COLUMNS),
        "  passed means empirical <= bound + band (3 binomial SE at the bound).",
    ]
    summary = {"rows": len(rows["passed"]), "failed": int(np.count_nonzero(~rows["passed"]))}
    return [_table("concentration.csv", rows)], schema, summary


@dataclass(frozen=True)
class _Kind:
    """What one experiment kind reads, checks and runs.

    ``keys`` maps each config key besides kind, seed and cells to a reader
    and a default (None marks a required key); ``reads`` names the signal
    fields its cells read, and a signal field of another kind is rejected.
    ``check(cells, values)`` makes the kind's checks that need no graph;
    ``run(cells, values, seed, workers)`` returns the kind's CSVs as
    (file name, columns, rows) in write order, its schema lines and its
    summary.
    """

    keys: dict
    reads: tuple
    check: Callable
    run: Callable


_KINDS = {
    "power": _Kind({"sigma": (_config_number, 1.0), "delta": (_config_number, 0.05),
                    "trials": (_config_int, None), "tree": (_config_tree, {})},
                   ("rho", "sampler", "mu_grid"), _check_power, _run_power),
    "sparsity": _Kind({"signals": (_config_int, None)}, ("rho_lo", "rho_hi", "sampler"),
                      lambda cells, values: _require_sparsity_cells(cells, values["signals"]),
                      _run_sparsity),
    "concentration": _Kind({"samples": (_config_int, None), "deltas": (_config_deltas, None),
                            "sets": (_config_sets, _EDGE_SETS)},
                           (), lambda _cells, values: _require_samples(values["samples"]),
                           _run_concentration),
}
_SIGNAL_FIELDS = {f for kind in _KINDS.values() for f in kind.reads}


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
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    spec = _KINDS[kind]
    known = ("kind", "seed", "cells", *spec.keys)

    def value(key, default=None):
        if key not in config and default is None:
            _reject_unknown(f"{kind} config keys", config, known)  # a misspelt key first
            raise ValueError(f"{kind} config needs key {key!r}")
        return config.get(key, default)

    cell_dicts = _config_items("cells", value("cells"))
    cells = [CellSpec.from_dict(d) for d in cell_dicts]
    values = {key: read(key, value(key, default)) for key, (read, default) in spec.keys.items()}
    _reject_unknown(f"{kind} config keys", config, known)
    for ci, d in enumerate(cell_dicts):
        other = sorted(set(d) & (_SIGNAL_FIELDS - set(spec.reads)))
        if other:
            raise ValueError(f"cell {ci}: {kind} cells do not read {other}")
    spec.check(cells, values)
    return kind, seed, cells, values


def run_experiment(config: dict, out_dir: str | Path, workers: int = 1) -> tuple[dict, list[str]]:
    """Run one experiment config and write its CSV outputs plus a schema note.

    The config's kind selects the harness: "power" sweeps mu grids per cell,
    "sparsity" scatters coefficient counts against cut budgets, and
    "concentration" checks uniform-tree overlap tails. Files land in out_dir
    with fixed names and column orders; rerunning the same config and seed
    rewrites identical bytes. A config that ``_read_config`` rejects, or a
    worker count below one, raises ValueError before out_dir is created.

    Returns
    -------
    (dict, list of str)
        A short summary of the run for printing, such as row counts, and the
        names of the files the run wrote in out_dir, in the order written,
        ``schema.txt`` last. Other files in out_dir are left alone. If a
        write fails, the files this call wrote are removed before the error
        propagates.
    """
    kind, seed, cells, values = _read_config(config)
    _require_workers(workers)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables, schema, summary = _KINDS[kind].run(cells, values, seed, workers)

    # A failed write removes the files this call wrote before it, so the
    # caller has no names to clean up and out_dir keeps no partial run.
    written: list[str] = []
    try:
        for name, columns, rows in tables:
            write_csv(out / name, columns, rows)
            written.append(name)
        (out / "schema.txt").write_text("\n".join(schema) + "\n")
    except BaseException:
        for name in written:
            (out / name).unlink(missing_ok=True)
        raise
    return summary, written + ["schema.txt"]


# =============================================================================
# Presets
# =============================================================================


def preset_config(name: str, seed: int) -> dict:
    """Built-in experiment configurations at desk scale."""
    if name == "paper-fig1":
        return {
            "kind": "sparsity",
            "seed": seed,
            "signals": 250,
            "cells": [
                {"family": "torus", "side": 32, "dims": 2, "rho_lo": 8, "rho_hi": 128, "sampler": "two_level"},
                {"family": "complete", "n": 256, "rho_lo": 255, "rho_hi": 4080, "sampler": "prior"},
                {"family": "knn", "n": 512, "k": 8, "dim": 2, "graph_seed": 11, "rho_lo": 24, "rho_hi": 192, "sampler": "two_level"},
                {"family": "epsilon", "n": 512, "eps": _radius(512), "dim": 2, "graph_seed": 12, "rho_lo": 24, "rho_hi": 256, "sampler": "two_level"},
            ],
        }
    if name == "paper-fig2":
        cells = [{"family": "torus", "side": side, "dims": 2, "rho": float(side), "sampler": "two_level",
                  "mu_grid": _mu_grid(8.0 * math.sqrt(side))} for side in (8, 16, 24)]
        # The spike-supported complete cells cross 50% power in a narrow
        # absolute band, so they share one fine fixed grid.
        cells += [{"family": "complete", "n": n, "rho": float(n), "sampler": "prior",
                   "mu_grid": [0.0, 2.0, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 8.0, 10.0]}
                  for n in (64, 256, 1024)]
        cells += [{"family": "knn", "n": n, "k": 8, "dim": 2, "graph_seed": 31 + i,
                   "rho": float(round(n ** (2.0 / 3.0))), "sampler": "two_level",
                   "mu_grid": _mu_grid(2.2 * n ** (1.0 / 3.0))} for i, n in enumerate((128, 256, 512))]
        cells += [{"family": "epsilon", "n": n, "eps": _radius(n), "dim": 2, "graph_seed": 41 + i,
                   "rho": float(round(n ** 0.8)), "sampler": "two_level",
                   "mu_grid": [0.0, 2.5, 3.5, 4.0, 4.5, 5.0, 5.25, 5.5, 5.75, 6.0, 6.25, 6.5, 7.0,
                               7.5, 8.5, 10.0]} for i, n in enumerate((128, 256, 512))]
        return {"kind": "power", "seed": seed, "sigma": 1.0, "delta": 0.05, "trials": 400,
                "tree": {"kind": "ust"}, "cells": cells}
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


def _radius(n: int) -> float:
    """The presets' epsilon-graph radius on n points: twice the connectivity
    radius sqrt(ln n / (pi n)) of the unit square."""
    return 2.0 * math.sqrt(math.log(n) / (math.pi * n))


def _mu_grid(scale: float) -> list[float]:
    fractions = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0, 1.3, 1.7, 2.2)
    return [round(scale * f, 6) for f in fractions]
