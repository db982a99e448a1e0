"""Acceptance battery: eleven end-to-end criteria, one pass/fail line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s`` or in failure output) and asserts the criterion. Every check is
seeded and deterministic; stated runtime budgets are asserted where they
exist.
"""

import math
import time

import numpy as np
import pytest

from treewavelets import (
    CellSpec,
    activation_bound,
    aggregate_records,
    all_edge_resistances,
    apply_basis,
    basis_sparsity,
    bfs_spanning_tree,
    build_basis,
    build_graph,
    build_spanning_tree,
    cut_size,
    find_balance_walk,
    gen_cluster_signal,
    gen_complete,
    gen_epsilon,
    gen_knn,
    gen_prior_signal,
    gen_torus,
    gen_two_level_signal,
    mu_at_power,
    power_curve,
    preset_config,
    prior_support_size,
    sample_ust,
    snr_condition,
    sparsity_experiment,
    threshold,
    ust_concentration_check,
    ust_edge_ids,
)
from helpers import component_sizes_without, random_tree_edges

MASTER_SEED = 20260819


def _rng(criterion: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(MASTER_SEED, spawn_key=(criterion,)))


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({label}): {detail}")
    assert ok, f"criterion {num:02d} ({label}): {detail}"


def _radius(n: int) -> float:
    return 2.0 * math.sqrt(math.log(n) / (math.pi * n))


def test_c01_orthonormality_and_completeness():
    start = time.perf_counter()
    rng = _rng(1)
    graphs = []
    for n, side in ((16, 4), (64, 8), (256, 16)):
        for _ in range(3):
            graphs.append(("torus", gen_torus(side, 2)))
            graphs.append(("complete", gen_complete(n)))
    for n, k in ((16, 4), (64, 5), (256, 6)):
        for seed in range(6):
            graphs.append(("knn", gen_knn(n, k, 2, seed)[0]))
    for i, n in enumerate((16, 64, 256)):
        for seed in range(5 if i < 2 else 4):
            graphs.append(("epsilon", gen_epsilon(n, _radius(n), 2, seed)[0]))
    assert len(graphs) == 50

    max_gram = 0.0
    max_parseval = 0.0
    for _, g in graphs:
        for _ in range(3):
            tree = sample_ust(g, int(rng.integers(2**32)))
            basis = build_basis(tree)
            dense = basis.to_dense()
            gram = dense @ dense.T
            max_gram = max(max_gram, float(np.max(np.abs(gram - np.eye(g.n)))))
            signals = rng.standard_normal((g.n, 100))
            coefs = dense @ signals
            resid = np.abs((coefs**2).sum(axis=0) - (signals**2).sum(axis=0))
            max_parseval = max(max_parseval, float(resid.max()))
    elapsed = time.perf_counter() - start
    ok = max_gram < 1e-10 and max_parseval < 1e-8 and elapsed < 60.0
    _report(
        1,
        "orthonormality & completeness",
        ok,
        f"50 graphs x 3 trees: max Gram residual {max_gram:.2e} (< 1e-10), "
        f"max Parseval residual {max_parseval:.2e} (< 1e-8), {elapsed:.1f}s (< 60s)",
    )


def test_c02_sparsity_bound():
    rng = _rng(2)
    cases = [
        gen_torus(8, 2),
        gen_complete(64),
        gen_knn(100, 5, 2, 0)[0],
        gen_epsilon(100, _radius(100), 2, 0)[0],
    ]
    mean_zero_pairs = 0
    general_pairs = 0
    violations = 0
    general_violations = 0
    for g in cases:
        d = g.max_degree
        for _ in range(1250):
            tree = sample_ust(g, int(rng.integers(2**32)))
            basis = build_basis(tree)
            rho = float(rng.integers(d, 4 * d + 1))
            x = gen_two_level_signal(g, rho, 1.0, rng)
            bound = cut_size(tree, x.values) * activation_bound(tree)
            if basis_sparsity(basis, x.values) > bound:
                violations += 1
            mean_zero_pairs += 1
        for _ in range(625):
            tree = sample_ust(g, int(rng.integers(2**32)))
            basis = build_basis(tree)
            rho = float(rng.integers(d, 4 * d + 1))
            x = gen_cluster_signal(g, rho, 1.0, rng)
            bound = cut_size(tree, x.values) * activation_bound(tree) + 1
            if basis_sparsity(basis, x.values) > bound:
                general_violations += 1
            general_pairs += 1
    ok = (
        mean_zero_pairs >= 5000
        and violations == 0
        and general_pairs >= 2500
        and general_violations == 0
    )
    _report(
        2,
        "sparsity bound",
        ok,
        f"{mean_zero_pairs} mean-zero pairs: {violations} violations of "
        f"cut*levels; {general_pairs} general-mean pairs: {general_violations} "
        "violations of cut*levels+1",
    )


def test_c03_balance_guarantee():
    rng = _rng(3)
    worst_ratio = 0.0
    max_walk_excess = -(10**9)
    for _ in range(10000):
        n = int(rng.integers(2, 501))
        edges = random_tree_edges(n, rng)
        g = build_graph(n, edges)
        tree = build_spanning_tree(g, edges)
        v, visits = find_balance_walk(tree)
        largest = component_sizes_without(n, edges, v)[0] if n > 1 else 0
        worst_ratio = max(worst_ratio, largest / math.ceil(n / 2))
        max_walk_excess = max(max_walk_excess, visits - n)
    ok = worst_ratio <= 1.0 and max_walk_excess <= 0
    _report(
        3,
        "balance guarantee",
        ok,
        f"10000 random trees (n <= 500): worst component / ceil(n/2) = "
        f"{worst_ratio:.3f} (<= 1), max walk length - n = {max_walk_excess} (<= 0)",
    )


def test_c04_foster_sum():
    graphs = [
        ("triangle", build_graph(3, [(0, 1), (0, 2), (1, 2)])),
        ("path-1000", build_graph(1000, [(i, i + 1) for i in range(999)])),
        ("star-1000", build_graph(1000, [(0, i) for i in range(1, 1000)])),
        ("torus-16x16", gen_torus(16, 2)),
        ("torus-10^3", gen_torus(10, 3)),
        ("complete-500", gen_complete(500)),
        ("knn-300", gen_knn(300, 6, 2, 0)[0]),
        ("epsilon-250", gen_epsilon(250, _radius(250), 2, 0)[0]),
    ]
    worst = 0.0
    for _, g in graphs:
        total = float(all_edge_resistances(g).edge_resistances.sum())
        worst = max(worst, abs(total - (g.n - 1)))
    ok = worst < 1e-8
    _report(
        4,
        "resistance sum",
        ok,
        f"{len(graphs)} connected graphs up to n=1000: max |sum r_e - (n-1)| = "
        f"{worst:.2e} (< 1e-8)",
    )


def test_c05_ust_edge_frequencies():
    rng = _rng(5)
    graphs = [
        build_graph(3, [(0, 1), (0, 2), (1, 2)]),
        build_graph(10, [(i, (i + 1) % 10) for i in range(10)]),
        gen_complete(5),
        gen_complete(10),
        gen_complete(20),
        gen_torus(4, 2),
        gen_torus(5, 2),
        gen_torus(7, 2),
        gen_knn(30, 4, 2, 0)[0],
        gen_knn(50, 5, 2, 1)[0],
    ]
    draws = 10000
    within = 0
    total_edges = 0
    for g in graphs:
        exact = all_edge_resistances(g).edge_resistances
        counts = np.zeros(g.m, dtype=np.int64)
        for _ in range(draws):
            t = sample_ust(g, int(rng.integers(2**32)))
            counts += np.bincount(g.edge_ids(t.edges), minlength=g.m)
        freq = counts / draws
        se = np.sqrt(np.maximum(exact * (1.0 - exact), 1e-12) / draws)
        within += int(np.count_nonzero(np.abs(freq - exact) <= 3.0 * se))
        total_edges += g.m
    frac = within / total_edges
    ok = frac >= 0.99
    _report(
        5,
        "tree edge frequencies",
        ok,
        f"10 graphs x {draws} draws: {within}/{total_edges} edges within 3 "
        f"binomial SEs of exact r_e ({frac:.4f} >= 0.99)",
    )


def test_c06_overlap_concentration():
    rng = _rng(6)
    deltas = (0.25, 0.5, 1.0, 2.0)
    rows_all = []
    for g in (gen_torus(8, 2), gen_knn(200, 6, 2, 21)[0]):
        tree_ids = ust_edge_ids(g, 20000, rng)
        star = [e for e in g.edges if 0 in e]
        ball_members = {0, *(v for e in star for v in e)}
        ball = [e for e in g.edges if (e[0] in ball_members) != (e[1] in ball_members)]
        for edge_set in ([g.edges[0]], star, ball):
            rows_all.extend(ust_concentration_check(g, edge_set, deltas, tree_ids))
    failures = [r for r in rows_all if not r.passed]
    worst = max((r.empirical - r.bound) for r in rows_all)
    ok = not failures
    _report(
        6,
        "overlap concentration",
        ok,
        f"2 graphs x 3 edge sets x {len(deltas)} deltas over 20000 draws: "
        f"{len(rows_all) - len(failures)}/{len(rows_all)} points with empirical "
        f"tail <= bound + 3se (worst margin {worst:+.4f})",
    )


def test_c07_calibration_and_power():
    rng = _rng(7)
    g = gen_torus(16, 2)
    sigma, delta = 1.0, 0.05
    tau = threshold(sigma, g.n, delta)

    nulls = 10000
    rejects = 0
    for _ in range(nulls):
        tree = sample_ust(g, int(rng.integers(2**32)))
        basis = build_basis(tree)
        y = sigma * rng.standard_normal(g.n)
        if float(np.max(np.abs(apply_basis(basis, y)))) > tau:
            rejects += 1
    type_i = rejects / nulls
    type_i_limit = delta + 3.0 * math.sqrt(delta * (1 - delta) / nulls)

    tree = bfs_spanning_tree(g, 0)
    basis = build_basis(tree)
    rho = 16.0
    mu = 2.0 * snr_condition(
        "remark1", n=g.n, d=tree.max_degree, delta=delta, rho=rho
    )
    trials = 2000
    hits = 0
    for _ in range(trials):
        x = gen_two_level_signal(g, rho, mu, rng)
        y = x.values + sigma * rng.standard_normal(g.n)
        if float(np.max(np.abs(apply_basis(basis, y)))) > tau:
            hits += 1
    power = hits / trials
    power_limit = 0.95 - 3.0 * math.sqrt(0.95 * 0.05 / trials)

    ok = type_i <= type_i_limit and power >= power_limit
    _report(
        7,
        "calibration & power",
        ok,
        f"type I {type_i:.4f} <= {type_i_limit:.4f} over {nulls} null trials "
        f"(n=256 torus, fresh tree each); power {power:.4f} >= "
        f"{power_limit:.4f} at mu = 2x sufficient size on a fixed tree",
    )


def test_c08_sparsity_scatter_fits():
    start = time.perf_counter()
    config = preset_config("paper-fig1", MASTER_SEED)
    cells = [CellSpec.from_dict(c) for c in config["cells"]]
    points, fits = sparsity_experiment(
        cells, signals=config["signals"], master_seed=config["seed"]
    )
    violations = sum(1 for p in points if p.sparsity > p.bound)
    torus = next(f for f in fits if f.family == "torus")
    complete = next(f for f in fits if f.family == "complete")
    elapsed = time.perf_counter() - start
    ok = (
        violations == 0
        and 0.02 <= torus.slope <= 0.5
        and torus.r2 >= 0.5
        and abs(complete.slope) <= torus.slope / 10.0
        and elapsed < 300.0
    )
    _report(
        8,
        "sparsity scatter",
        ok,
        f"{len(points)} points, {violations} above the bound line; torus slope "
        f"{torus.slope:.4f} in [0.02, 0.5] with R2 {torus.r2:.3f} >= 0.5; "
        f"complete slope {complete.slope:.5f} <= torus/10; {elapsed:.0f}s (< 300s)",
    )


def test_c09_power_trends():
    start = time.perf_counter()
    config = preset_config("paper-fig2", MASTER_SEED)
    cells = [CellSpec.from_dict(c) for c in config["cells"]]
    trials = config["trials"]
    records = []
    for ci, cell in enumerate(cells):
        records.extend(
            power_curve(
                cell,
                trials=trials,
                sigma=config["sigma"],
                delta=config["delta"],
                tree="ust",
                master_seed=config["seed"],
                cell_index=ci,
            )
        )
    aggs = aggregate_records(records, trials)

    curves: dict[tuple, list[tuple[float, float]]] = {}
    for a in aggs:
        curves.setdefault((a["family"], a["n"]), []).append((a["mu"], a["power"]))
    isotonic_violations = 0
    for pts in curves.values():
        pts.sort()
        for (_, p0), (_, p1) in zip(pts, pts[1:]):
            if p1 < p0:
                se = math.sqrt((p0 * (1 - p0) + p1 * (1 - p1)) / trials)
                if p0 - p1 > 2.0 * se:
                    isotonic_violations += 1

    mu50 = mu_at_power(aggs)
    by_family: dict[str, list[tuple[int, float]]] = {}
    for m in mu50:
        by_family.setdefault(m["family"], []).append((m["n"], m["mu50"]))
    monotone = True
    for vals in by_family.values():
        vals.sort()
        if any(math.isnan(v) for _, v in vals) or any(
            a > b for (_, a), (_, b) in zip(vals, vals[1:])
        ):
            monotone = False
    elapsed = time.perf_counter() - start
    ok = isotonic_violations == 0 and monotone and elapsed < 600.0
    trend = "; ".join(
        f"{fam} " + "->".join(f"{v:.2f}" for _, v in sorted(vals))
        for fam, vals in sorted(by_family.items())
    )
    _report(
        9,
        "power trends",
        ok,
        f"{len(curves)} curves: {isotonic_violations} isotonic violations "
        f"beyond 2se; mu at 50% power non-decreasing in n per family "
        f"({trend}); {elapsed:.0f}s (< 600s)",
    )


def test_c10_resistance_scaling():
    knn_max = []
    for n, k in ((200, 6), (400, 8), (800, 11)):
        g, _ = gen_knn(n, k, 2, 0)
        r = float(all_edge_resistances(g).edge_resistances.max())
        knn_max.append((n, k, r))
    knn_ok = all(r <= 4.0 / k for _, k, r in knn_max) and all(
        a[2] > b[2] for a, b in zip(knn_max, knn_max[1:])
    )
    consts = []
    for n in (200, 400, 800):
        eps = _radius(n)
        g, _ = gen_epsilon(n, eps, 2, 0)
        r = float(all_edge_resistances(g).edge_resistances.max())
        consts.append(r * n * eps * eps)
    eps_ok = max(consts) / min(consts) <= 3.0
    ok = knn_ok and eps_ok
    _report(
        10,
        "resistance scaling",
        ok,
        "knn max r_e "
        + " > ".join(f"{r:.3f}(<={4.0/k:.3f})" for _, k, r in knn_max)
        + f" decreasing={knn_ok}; epsilon C = "
        + ", ".join(f"{c:.2f}" for c in consts)
        + f" spread {max(consts)/min(consts):.2f}x <= 3x",
    )


def test_c11_scattered_signal_contract():
    rng = _rng(11)
    graphs = [gen_torus(10, 2), gen_knn(100, 5, 2, 0)[0], gen_complete(36)]
    checked = 0
    for g in graphs:
        d = g.max_degree
        for rho in (d, 1.5 * d, 3 * d, 10 * d, float(2 * g.m)):
            oracle = math.floor(min(rho / d, math.sqrt(g.n)))
            assert prior_support_size(g, rho) == oracle
            if oracle < 1:
                continue
            for _ in range(20):
                x = gen_prior_signal(g, rho, 2.5, rng)
                assert x.cut <= rho
                assert np.linalg.norm(x.values) == pytest.approx(2.5, rel=1e-14)
                assert int(np.count_nonzero(x.values)) == oracle
                checked += 1
    ok = checked >= 200
    _report(
        11,
        "scattered signal contract",
        ok,
        f"{checked} draws across 3 graphs: support = floor(min(rho/d, sqrt(n))) "
        "per direct oracle, cut <= rho, exact unit-scaled energy",
    )
