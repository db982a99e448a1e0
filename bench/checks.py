"""Correctness checks on the files one experiment run wrote.

Every check tests a property the method must have, or compares the run's
output with a quantity computed here without the package: rows against the
trials that were requested, the threshold formula, the union-bound false-alarm
rate, the Remark-1 sufficient scale, monotone power, spanning trees found with
``scipy.sparse.csgraph``, orthonormality through the Gram matrix, Foster's
theorem and a grounded-Laplacian resistance solve. Nothing is compared with a
stored copy of earlier output.

The package is used only to rebuild inputs (graphs, and the trees and signals
a trial drew from its recorded seeds), never to compute an expected value.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse import csgraph

ORTHO_TOL = 1e-10
RESISTANCE_TOL = 1e-9
CUT_EPS = 1e-9  # level changes at or below this do not count as a cut edge


class Checks:
    """Collects named pass/fail results."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def lines(self) -> list[str]:
        return [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in self.results]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).glob("*.csv"))
    }


def cell_n(cell: dict) -> int:
    return cell["side"] ** cell.get("dims", 2) if cell["family"] == "torus" else cell["n"]


def remark1_scale(rho: float, d: int, n: int, delta: float, sigma: float) -> float:
    """Remark-1 sufficient signal size for a fixed tree of max degree d.

    sigma * sqrt(2 rho ceil(log2 d) ceil(log2 n)) * (sqrt(ln 1/delta) + sqrt(ln n/delta)),
    both log factors clamped below at 1.
    """
    levels = max(1, math.ceil(math.log2(d))) * max(1, math.ceil(math.log2(n)))
    return sigma * math.sqrt(2.0 * rho * levels) * (
        math.sqrt(math.log(1.0 / delta)) + math.sqrt(math.log(n / delta))
    )


def binomial_se(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


# =============================================================================
# Graph-level helpers computed without the package
# =============================================================================


def _adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    data = np.ones(len(edges))
    a = sp.coo_matrix((data, (edges[:, 0], edges[:, 1])), shape=(n, n))
    return (a + a.T).tocsr()


def check_spanning_tree(checks: Checks, label: str, n: int, graph_edges: np.ndarray,
                        tree_edges: np.ndarray) -> bool:
    """n-1 edges, all in the graph, one connected component."""
    keys = graph_edges[:, 0] * n + graph_edges[:, 1]
    tkeys = np.minimum(tree_edges[:, 0], tree_edges[:, 1]) * n + np.maximum(
        tree_edges[:, 0], tree_edges[:, 1]
    )
    inside = bool(np.isin(tkeys, keys).all())
    comps = csgraph.connected_components(_adjacency(n, tree_edges), directed=False)[0]
    return checks(
        f"{label}: tree spans the graph",
        len(tree_edges) == n - 1 and inside and comps == 1,
        f"{len(tree_edges)} edges (need {n - 1}), all in graph={inside}, components={comps}",
    )


def check_orthonormal(checks: Checks, label: str, matrix: sp.spmatrix, n: int) -> bool:
    """Rows orthonormal: the Gram matrix B B^T equals the identity."""
    b = sp.csr_matrix(matrix)
    gram = (b @ b.T).toarray()
    resid = float(np.abs(gram - np.eye(n)).max()) if b.shape == (n, n) else math.inf
    return checks(
        f"{label}: basis is orthonormal",
        resid <= ORTHO_TOL,
        f"shape {b.shape}, max |B B^T - I| = {resid:.2e} (limit {ORTHO_TOL:.0e})",
    )


def cut_count(edges: np.ndarray, values: np.ndarray) -> int:
    return int(np.count_nonzero(np.abs(values[edges[:, 0]] - values[edges[:, 1]]) > CUT_EPS))


def grounded_resistances(n: int, edges: np.ndarray) -> np.ndarray:
    """Edge resistances from a Cholesky solve of the Laplacian grounded at vertex 0."""
    lap = csgraph.laplacian(_adjacency(n, edges)).toarray()
    inv = np.zeros((n, n))
    if n > 1:
        factor = scipy.linalg.cho_factor(lap[1:, 1:])
        inv[1:, 1:] = scipy.linalg.cho_solve(factor, np.eye(n - 1))
    u, v = edges[:, 0], edges[:, 1]
    return inv[u, u] + inv[v, v] - 2.0 * inv[u, v]


def named_edge_set(n: int, edges: np.ndarray, label: str) -> np.ndarray:
    """Indices of the concentration experiment's edge sets, found here directly.

    edge: the smallest edge; star: every edge at vertex 0; ball: the edges
    leaving vertex 0 together with its neighbours.
    """
    if label == "edge":
        return np.array([np.lexsort((edges[:, 1], edges[:, 0]))[0]])
    at0 = (edges[:, 0] == 0) | (edges[:, 1] == 0)
    if label == "star":
        return np.flatnonzero(at0)
    if label == "ball":
        inside = np.zeros(n, dtype=bool)
        inside[0] = True
        inside[edges[at0].ravel()] = True
        return np.flatnonzero(inside[edges[:, 0]] != inside[edges[:, 1]])
    raise ValueError(f"unknown edge set {label!r}")


# =============================================================================
# Power experiments
# =============================================================================


def check_power(checks: Checks, config: dict, out_dir: Path, pkg) -> int:
    """Check a power run's CSVs; return the number of trials that yielded rows.

    ``pkg`` is the imported ``treewavelets`` package, used to rebuild graphs,
    trees and signals from the recorded seeds of the first and last trial of
    every cell.
    """
    seed = config["seed"]
    sigma = float(config.get("sigma", 1.0))
    delta = float(config.get("delta", 0.05))
    trials = int(config["trials"])
    tree_kind = config.get("tree", {}).get("kind", "ust")
    rows = read_csv(out_dir / "trials.csv")
    agg = read_csv(out_dir / "power.csv")

    # Rows arrive cell by cell, trial by trial, mu by mu.
    offset = 0
    done = 0
    layout_ok = True
    stat_ok = True
    decision_ok = True
    null_trials = null_rejects = 0
    curves = []
    for ci, cell in enumerate(config["cells"]):
        n = cell_n(cell)
        grid = [float(m) for m in cell["mu_grid"]]
        rejects = np.zeros(len(grid), dtype=np.int64)
        tau = sigma * math.sqrt(2.0 * math.log(n / delta))
        for t in range(trials):
            block = rows[offset: offset + len(grid)]
            if len(block) != len(grid) or any(
                r["family"] != cell["family"] or int(r["n"]) != n or int(r["trial"]) != t
                or float(r["rho"]) != float(cell["rho"]) or float(r["mu"]) != mu
                for r, mu in zip(block, grid)
            ):
                layout_ok = False
                break
            offset += len(grid)
            done += 1
            for j, (r, mu) in enumerate(zip(block, grid)):
                stat, thr = float(r["statistic"]), float(r["threshold"])
                stat_ok &= math.isfinite(stat) and math.isfinite(thr) and stat >= 0
                stat_ok &= abs(thr - tau) <= 1e-12 * tau
                decision_ok &= int(r["reject"]) == int(stat > thr) and int(r["truth"]) == int(mu > 0)
                rejects[j] += int(r["reject"])
                if mu == 0:
                    null_trials += 1
                    null_rejects += int(r["reject"])
        curves.append((cell, grid, rejects))
    layout_ok &= offset == len(rows)
    expected = trials * len(config["cells"])
    if not checks("every trial yields its rows", layout_ok and done == expected,
                  f"{done}/{expected} trials, {len(rows)} rows in trial order"):
        return done
    checks("trial statistics finite, threshold = sigma*sqrt(2 ln(n/delta))", stat_ok,
           "statistic and threshold columns")
    checks("reject = statistic > threshold, truth = mu > 0", decision_ok, "every row")

    # Aggregates agree with the raw rows and are finite where defined.
    agg_ok = len(agg) == sum(len(g) for _, g, _ in curves)
    by_key = {(a["family"], int(a["n"]), float(a["mu"])): a for a in agg}
    for cell, grid, rejects in curves:
        for mu, rej in zip(grid, rejects):
            a = by_key.get((cell["family"], cell_n(cell), mu))
            if a is None:
                agg_ok = False
                continue
            vals = [float(a["power"]), float(a["type_i"])] + ([float(a["risk"])] if mu > 0 else [])
            agg_ok &= all(math.isfinite(v) for v in vals)
            agg_ok &= int(a["trials"]) == trials == int(a["trials_requested"])
            agg_ok &= int(a["rejections"]) == int(rej)
    checks("power.csv finite and equal to the trial rows", agg_ok, f"{len(agg)} rows")

    if null_trials:
        rate = null_rejects / null_trials
        limit = delta + 3.0 * binomial_se(delta, null_trials)
        checks("pooled mu=0 rejection rate <= delta + 3 SE", rate <= limit,
               f"{rate:.4f} <= {limit:.4f} over {null_trials} null trials")

    worst = 0.0
    mono_ok = True
    for _, grid, rejects in curves:
        order = np.argsort(grid)
        power = rejects[order] / trials
        for p0, p1 in zip(power, power[1:]):
            tol = 2.0 * math.sqrt((p0 * (1 - p0) + p1 * (1 - p1)) / trials)
            worst = max(worst, p0 - p1)
            mono_ok &= p1 >= p0 - tol
    checks("power non-decreasing in mu within 2 SE", mono_ok, f"largest drop {worst:.4f}")

    # Rebuild the first and last trial of every cell from their recorded seeds.
    samplers = {
        "two_level": pkg.gen_two_level_signal,
        "ball": pkg.gen_cluster_signal,
        "prior": pkg.gen_prior_signal,
    }
    spots = sorted({0, trials - 1})
    for ci, (cell, grid, rejects) in enumerate(curves):
        g = pkg.CellSpec.from_dict(cell).build_graph()
        n = g.n
        edges = np.asarray(g.edges, dtype=np.int64)
        label = f"cell {ci} ({cell['family']} n={n})"
        fixed_tree = None
        if tree_kind == "bfs":
            fixed_tree = pkg.bfs_spanning_tree(g, int(config["tree"].get("root", 0)))
            tree_edges = np.asarray(fixed_tree.edges, dtype=np.int64)
            check_spanning_tree(checks, label, n, edges, tree_edges)
            check_orthonormal(checks, label, pkg.build_basis(fixed_tree).matrix, n)
            d = int(np.bincount(tree_edges.ravel(), minlength=n).max())
            scale = remark1_scale(float(cell["rho"]), d, n, delta, sigma)
            floor = 1.0 - delta - 3.0 * binomial_se(delta, trials)
            strong = [(mu, r / trials) for mu, r in zip(grid, rejects) if mu >= 2.0 * scale]
            checks(f"{label}: power >= 1-delta-3SE at mu >= 2x Remark-1 scale",
                   bool(strong) and all(p >= floor for _, p in strong),
                   f"scale {scale:.3f} (tree degree {d}), points {len(strong)}, "
                   f"min power {min((p for _, p in strong), default=float('nan')):.3f} >= {floor:.3f}")
        for t in spots:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci, t)))
            row = rows[sum(trials * len(c["mu_grid"]) for c in config["cells"][:ci])
                       + t * len(grid) + len(grid) - 1]
            if fixed_tree is None:
                tree_seed = int(rng.integers(2**32))
                checks(f"{label} trial {t}: recorded tree_seed replays",
                       int(row["tree_seed"]) == tree_seed, f"{row['tree_seed']} vs {tree_seed}")
                tree = pkg.sample_ust(g, tree_seed)
                tree_edges = np.asarray(tree.edges, dtype=np.int64)
                check_spanning_tree(checks, f"{label} trial {t}", n, edges, tree_edges)
                check_orthonormal(checks, f"{label} trial {t}", pkg.build_basis(tree).matrix, n)
            values = samplers[cell.get("sampler", "two_level")](g, float(cell["rho"]), 1.0, rng).values
            graph_cut = cut_count(edges, values)
            tree_cut = cut_count(tree_edges, values)
            checks(f"{label} trial {t}: tree cut <= graph cut <= rho",
                   tree_cut <= graph_cut <= float(cell["rho"]) and int(row["cut"]) == graph_cut,
                   f"{tree_cut} <= {graph_cut} <= {cell['rho']}, recorded cut {row['cut']}")
    return done


# =============================================================================
# Concentration experiments
# =============================================================================

CONCENTRATION_SETS = ("edge", "star", "ball")


def check_concentration(checks: Checks, config: dict, out_dir: Path, pkg) -> int:
    """Check a concentration run's CSV; return the number of tree draws it covers."""
    samples = int(config["samples"])
    deltas = [float(d) for d in config["deltas"]]
    sets = list(config.get("sets", CONCENTRATION_SETS))
    rows = read_csv(out_dir / "concentration.csv")
    expected = len(config["cells"]) * len(sets) * len(deltas)
    checks("one row per (cell, set, delta)", len(rows) == expected, f"{len(rows)}/{expected}")
    if len(rows) != expected:
        return 0

    numeric = ("r_set", "tail_at", "empirical", "bound", "band")
    checks("concentration statistics finite",
           all(math.isfinite(float(r[c])) for r in rows for c in numeric), "every row")
    failed = [f"{r['family']}/{r['set']}/{r['delta']}" for r in rows if r["passed"] != "1"]
    checks("every concentration row passes", not failed, f"failed rows: {failed or 'none'}")

    formula_ok = True
    i = 0
    for ci, cell in enumerate(config["cells"]):
        g = pkg.CellSpec.from_dict(cell).build_graph()
        n = g.n
        edges = np.asarray(g.edges, dtype=np.int64)
        r_ind = grounded_resistances(n, edges)
        label = f"cell {ci} ({cell['family']} n={n})"
        if ci == 0:
            profile = pkg.all_edge_resistances(g)
            foster = abs(float(profile.edge_resistances.sum()) - (n - 1))
            checks(f"{label}: Foster sum of resistances = n-1", foster <= RESISTANCE_TOL * n,
                   f"|sum - (n-1)| = {foster:.2e}")
            diff = float(np.abs(profile.edge_resistances - r_ind).max())
            checks(f"{label}: resistances match a grounded-Laplacian solve", diff <= RESISTANCE_TOL,
                   f"max difference {diff:.2e} (limit {RESISTANCE_TOL:.0e})")
        worst = 0.0
        for label_set in sets:
            r_set = float(r_ind[named_edge_set(n, edges, label_set)].sum())
            for d in deltas:
                r = rows[i]
                i += 1
                worst = max(worst, abs(float(r["r_set"]) - r_set) / max(1.0, r_set))
                bound = math.exp(r_set * (d - (1.0 + d) * math.log1p(d)))
                b = min(bound, 1.0)
                band = 3.0 * math.sqrt(b * (1.0 - b) / samples)
                formula_ok &= r["family"] == cell["family"] and int(r["n"]) == n
                formula_ok &= r["set"] == label_set and float(r["delta"]) == d
                formula_ok &= math.isclose(float(r["bound"]), bound, rel_tol=1e-9, abs_tol=1e-300)
                formula_ok &= math.isclose(float(r["band"]), band, rel_tol=1e-9, abs_tol=1e-12)
                emp = float(r["empirical"])
                formula_ok &= abs(emp * samples - round(emp * samples)) <= 1e-6
                formula_ok &= int(r["passed"]) == int(emp <= float(r["bound"]) + float(r["band"]))
        checks(f"{label}: set resistances match a grounded-Laplacian solve",
               worst <= RESISTANCE_TOL, f"max relative difference {worst:.2e}")
    checks("bounds, bands and pass flags follow their formulas", formula_ok, "every row")
    return len(config["cells"]) * samples
