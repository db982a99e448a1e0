"""Command-line interface.

Subcommands
-----------
gen         write a graph (and point coordinates, for geometric families)
basis       build a spanning-tree wavelet basis and report its invariants
resistance  compute exact effective resistances, optionally cross-checked
experiment  run a power / sparsity / concentration experiment from a config
validate    fast self-check battery with one PASS/FAIL line per invariant

Exit codes: 0 success, 1 a computed validation failed, 2 bad input or usage.
Commands that write files also write a ``*.manifest.json`` (or
``manifest.json`` inside an experiment directory) recording the resolved
parameters, the seed, and sha256 digests of inputs and outputs; the manifest
is written before the outputs are and rewritten with their digests once they
are all written. A command that fails after writing its manifest removes it
and the outputs it had written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from ._version import __version__
from .detection import detect, gen_two_level_signal, snr_condition, threshold
from .experiments import _FAMILIES, CellSpec, _read_config, preset_config, run_experiment
from .graphs import (
    build_graph,
    cut_size,
    gen_complete,
    gen_knn,
    gen_torus,
    read_edge_list,
    require_connected,
    write_edge_list,
    write_points,
)
from .resistance import all_edge_resistances, write_resistance_csv
from .trees import (
    _rooted,
    bfs_spanning_tree,
    find_balance_walk,
    sample_ust,
    validate_spanning_tree,
    write_tree,
)
from .wavelets import (
    activation_bound,
    apply_basis,
    basis_sparsity,
    build_basis,
    edge_activations,
    write_basis_csv,
)

__all__ = ["main"]


# =============================================================================
# Manifest helpers
# =============================================================================


def _sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    path: Path,
    command: str,
    params: dict,
    seed: int | None,
    inputs: dict[str, str],
    outputs: dict[str, str] | None,
) -> None:
    doc = {
        "command": command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "inputs": inputs,
        "outputs": outputs,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@contextmanager
def _manifest(path: Path, command: str, params: dict, seed: int | None, inputs: dict[str, str]):
    """Write the pending manifest and yield a list for the paths the block
    writes; then rewrite the manifest with their digests. If the block raises,
    remove the paths it had listed and then the manifest, so a failed command
    leaves neither its first outputs nor a manifest behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_manifest(path, command, params, seed, inputs, None)
    written: list[Path] = []
    try:
        yield written
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        path.unlink()
        raise
    outputs = {p.name: _sha256_file(p) for p in sorted(written)}
    _write_manifest(path, command, params, seed, inputs, outputs)


# =============================================================================
# gen
# =============================================================================


def _gen_flags(family: str) -> dict[str, str]:
    """A family's gen flags, each mapped to the cell field it sets: a flag per
    field of the family, except that graph_seed is --seed."""
    return {"seed" if f == "graph_seed" else f: f for f in _FAMILIES[family].fields}


def _cmd_gen(args: argparse.Namespace) -> int:
    out = Path(args.out)
    family = args.family
    field = _gen_flags(family)
    values = {flag: getattr(args, flag) for flag in field}
    params: dict = {"family": family, "out": str(out), **values}
    comments = [" ".join([family, *(f"{flag}={v}" for flag, v in values.items())])]
    points = None
    # The graph is made before any file is written, so bad parameters leave none.
    cell = CellSpec(family=family, **{field[flag]: v for flag, v in values.items()})
    g, pts = cell.generate()

    manifest = out.parent / (out.name + ".manifest.json")
    with _manifest(manifest, "gen", params, getattr(args, "seed", None), {}) as written:
        write_edge_list(g, out, comments=comments)
        written.append(out)
        if pts is not None:
            points = args.points or str(out.parent / (out.stem + ".points.csv"))
            write_points(pts, points)
            params["points"] = points
            written.append(Path(points))

    print(f"wrote {out} (n={g.n}, m={g.m})")
    if points:
        print(f"wrote {points}")
    return 0


# =============================================================================
# basis
# =============================================================================

_ORTHO_LIMIT = 1e-10


def _ortho_residual(basis) -> float:
    """max |B B^T - I| over the basis matrix B, from sparse products only."""
    import scipy.sparse as sp

    b = basis.matrix
    return float(abs(b @ b.T - sp.identity(basis.n, format="csr")).max())


def _cmd_basis(args: argparse.Namespace) -> int:
    ust = args.tree == "ust"
    if ust and args.seed is None:
        print("error: --tree ust requires --seed", file=sys.stderr)
        return 2
    for flag, value, mode in (("--seed", args.seed, "ust"), ("--root", args.root, "bfs")):
        if value is not None and args.tree != mode:
            print(f"error: {flag} applies only to --tree {mode}", file=sys.stderr)
            return 2
    g = read_edge_list(args.graph)
    require_connected(g)
    root = None if ust else args.root or 0
    tree = sample_ust(g, args.seed) if ust else bfs_spanning_tree(g, root)

    params = {
        "graph": args.graph,
        "tree": args.tree,
        "root": root,
        "out": args.out,
        "tree_out": args.tree_out,
    }
    inputs = {Path(args.graph).name: _sha256_file(args.graph)}
    lifecycle = nullcontext([])
    if args.out:
        manifest = Path(args.out).parent / (Path(args.out).name + ".manifest.json")
        lifecycle = _manifest(manifest, "basis", params, args.seed, inputs)
    with lifecycle as written:
        basis = build_basis(tree)
        residual = _ortho_residual(basis)
        acts = edge_activations(basis)
        max_act = int(acts.max()) if acts.size else 0
        bound = activation_bound(tree)

        ok_ortho = residual <= _ORTHO_LIMIT
        ok_act = max_act <= bound
        print(f"elements: {len(basis)}")
        print(
            f"orthonormality residual: {residual:.3e} "
            f"(limit {_ORTHO_LIMIT:.0e}) [{'ok' if ok_ortho else 'FAIL'}]"
        )
        print(
            f"max edge activations: {max_act} (bound {bound}) "
            f"[{'ok' if ok_act else 'FAIL'}]"
        )

        if args.out:
            write_basis_csv(basis, args.out)
            written.append(Path(args.out))
            print(f"wrote {args.out}")
        if args.tree_out:
            write_tree(tree, args.tree_out)
            written.append(Path(args.tree_out))
            print(f"wrote {args.tree_out}")
    return 0 if (ok_ortho and ok_act) else 1


# =============================================================================
# resistance
# =============================================================================


def _cmd_resistance(args: argparse.Namespace) -> int:
    if args.validate_mtt is not None:
        if args.validate_mtt < 1:
            print(f"error: --validate-mtt must be >= 1, got {args.validate_mtt}",
                  file=sys.stderr)
            return 2
        if args.seed is None:
            print("error: --validate-mtt requires --seed", file=sys.stderr)
            return 2
    elif args.seed is not None:
        print("error: --seed applies only to --validate-mtt", file=sys.stderr)
        return 2
    g = read_edge_list(args.graph)
    profile = all_edge_resistances(g)

    params = {
        "graph": args.graph,
        "out": args.out,
        "validate_foster": args.validate_foster,
        "validate_mtt": args.validate_mtt,
    }
    inputs = {Path(args.graph).name: _sha256_file(args.graph)}
    manifest = Path(args.out).parent / (Path(args.out).name + ".manifest.json")
    with _manifest(manifest, "resistance", params, args.seed, inputs) as written:
        write_resistance_csv(profile, args.out)
        written.append(Path(args.out))
    print(f"wrote {args.out} ({g.m} edges)")
    print(f"total resistance: {profile.total!r}")
    print(f"max edge resistance: {profile.max_edge_resistance!r}")

    failed = False
    if args.validate_foster:
        target = g.n - 1
        err = abs(profile.total - target)
        ok = err <= 1e-8 * max(1.0, target)
        failed |= not ok
        print(
            f"foster check: sum={profile.total!r} target={target} "
            f"[{'ok' if ok else 'FAIL'}]"
        )
    if args.validate_mtt is not None:
        draws = args.validate_mtt
        rng = np.random.default_rng(args.seed)
        counts = np.zeros(g.m, dtype=np.int64)
        for _ in range(draws):
            t = sample_ust(g, int(rng.integers(2**32)))
            counts[g.edge_ids(t.edges)] += 1  # a tree's edge ids are distinct
        freq = counts / draws
        p = profile.edge_resistances
        se = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / draws)
        within = np.abs(freq - p) <= 3.0 * se
        frac = float(within.mean()) if g.m else 1.0  # no edge, nothing to miss
        ok = frac >= 0.99
        failed |= not ok
        print(
            f"tree-marginal check: {within.sum()}/{g.m} edges within 3 SE "
            f"({frac:.4f}) [{'ok' if ok else 'FAIL'}]"
        )
    return 1 if failed else 0


# =============================================================================
# experiment
# =============================================================================


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook that refuses a key given twice, at any depth."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def _cmd_experiment(args: argparse.Namespace) -> int:
    workers = args.threads
    if workers < 1:
        print(f"error: --threads must be >= 1, got {workers}", file=sys.stderr)
        return 2
    inputs: dict[str, str] = {}
    if args.config:
        config = json.loads(Path(args.config).read_text(), object_pairs_hook=_unique_keys)
        if args.seed is not None and isinstance(config, dict):  # the reader rejects a non-object
            config["seed"] = args.seed
        inputs[Path(args.config).name] = _sha256_file(args.config)
    else:
        if args.seed is None:
            print("error: --preset requires --seed", file=sys.stderr)
            return 2
        config = preset_config(args.preset, args.seed)
    # A config that fails a check needing no graph creates no --out.
    kind, seed, _, _ = _read_config(config)

    out = Path(args.out)
    params = {"config": config, "out": str(out), "workers": workers}
    with _manifest(out / "manifest.json", "experiment", params, seed, inputs) as written:
        summary, names = run_experiment(config, out, workers=workers)
        written.extend(out / name for name in names)
    print(f"experiment kind: {kind}")
    for key, val in summary.items():
        print(f"  {key}: {val}")
    print(f"wrote {len(written)} files to {out}")
    return 0


# =============================================================================
# validate
# =============================================================================


def _check(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _components_after_removal(tree, v: int) -> list[int]:
    """Component sizes of the tree with vertex v deleted: the subtrees of v's
    children, and the rest of the tree above v unless v is the root."""
    kids, size, _ = _rooted(tree.parent.tolist(), tree.n)
    return [size[w] for w in kids[v]] + ([tree.n - size[v]] if v else [])


def _cmd_validate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    ok = True

    knn = gen_knn(40, 4, 2, int(rng.integers(2**32)))[0]
    while len(knn.component_sizes) > 1:  # a kNN draw can come out disconnected
        knn = gen_knn(40, 4, 2, int(rng.integers(2**32)))[0]
    graphs = [
        ("torus-4x4", gen_torus(4, 2)),
        ("complete-10", gen_complete(10)),
        ("knn-40-4", knn),
    ]

    # Basis invariants: orthonormality, completeness, energy preservation.
    worst = 0.0
    worst_pars = 0.0
    for _, g in graphs:
        for tree in (bfs_spanning_tree(g), sample_ust(g, int(rng.integers(2**32)))):
            basis = build_basis(tree)
            worst = max(worst, _ortho_residual(basis))
            z = rng.standard_normal(g.n)
            coef = apply_basis(basis, z)
            worst_pars = max(
                worst_pars,
                abs(float(coef @ coef) - float(z @ z)) / float(z @ z),
            )
    ok &= _check("orthonormality", worst <= 1e-10, f"max residual {worst:.2e}")
    ok &= _check("energy preservation", worst_pars <= 1e-8,
                 f"max relative error {worst_pars:.2e}")

    # Balance guarantee on uniform random trees.
    bad = 0
    trees = 0
    for n in (8, 23, 60):
        kn = gen_complete(n)
        for _ in range(60):
            t = sample_ust(kn, int(rng.integers(2**32)))
            v, _ = find_balance_walk(t)
            sizes = _components_after_removal(t, v)
            trees += 1
            if sizes and max(sizes) > -(-n // 2):
                bad += 1
    ok &= _check("balance guarantee", bad == 0,
                 f"{trees} random trees, {bad} over ceil(n/2)")

    # Sparsity bound: cut * activation budget, mean-zero signals.
    viol = 0
    checked = 0
    g = gen_torus(8, 2)
    for _ in range(120):
        t = sample_ust(g, int(rng.integers(2**32)))
        basis = build_basis(t)
        x = gen_two_level_signal(g, 16, 1.0, rng).values
        budget = cut_size(g, x) * activation_bound(t)
        checked += 1
        if basis_sparsity(basis, x) > budget:
            viol += 1
    ok &= _check("sparsity bound", viol == 0, f"{checked} pairs, {viol} violations")

    # Exact resistance identities.
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    r_tri = all_edge_resistances(tri).edge_resistances
    foster_err = 0.0
    for _, gg in graphs:
        prof = all_edge_resistances(gg)
        foster_err = max(foster_err, abs(prof.total - (gg.n - 1)))
    ok &= _check("triangle resistance", np.allclose(r_tri, 2.0 / 3.0, atol=1e-12),
                 f"edges -> {r_tri.tolist()}")
    ok &= _check("resistance sum", foster_err <= 1e-8,
                 f"max |sum - (n-1)| = {foster_err:.2e}")

    # Tree marginals on the 4-cycle: every edge appears in 3 of 4 trees.
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    draws = 2000
    counts = np.zeros(4)
    for _ in range(draws):
        t = sample_ust(c4, int(rng.integers(2**32)))
        validate_spanning_tree(t)
        counts[c4.edge_ids(t.edges)] += 1
    freq = counts / draws
    se = math.sqrt(0.75 * 0.25 / draws)
    ok &= _check("tree marginals", bool(np.all(np.abs(freq - 0.75) <= 3 * se)),
                 f"4-cycle edge rates {np.round(freq, 3).tolist()} target 0.75")

    # Detection: null rate under the threshold, power at twice the
    # sufficient signal size.
    g = gen_torus(4, 2)
    delta = 0.05
    tau = threshold(1.0, g.n, delta)
    nulls = 200
    rej = 0
    for _ in range(nulls):
        trial = np.random.default_rng(int(rng.integers(2**32)))
        basis = build_basis(sample_ust(g, int(trial.integers(2**32))))
        rej += detect(basis, trial.standard_normal(g.n), tau).reject
    null_rate = rej / nulls
    limit = delta + 3 * math.sqrt(delta * (1 - delta) / nulls)
    ok &= _check("null rejection rate", null_rate <= limit,
                 f"{null_rate:.3f} <= {limit:.3f} over {nulls} trials")

    t = bfs_spanning_tree(g)
    basis = build_basis(t)
    hits = 0
    power_trials = 100
    for _ in range(power_trials):
        x = gen_two_level_signal(g, 8, 1.0, rng)
        mu = 2.0 * snr_condition(
            "remark1", n=g.n, d=t.max_degree, delta=delta,
            rho=cut_size(t, x.values),
        )
        noise = np.random.default_rng(int(rng.integers(2**32))).standard_normal(g.n)
        hits += detect(basis, mu * x.values + noise, tau).reject
    power = hits / power_trials
    ok &= _check("power at 2x sufficient size", power >= 0.9,
                 f"{power:.2f} over {power_trials} trials")

    thr = threshold(1.0, 1024, 0.05)
    direct = math.sqrt(2.0 * math.log(1024 / 0.05))
    ok &= _check("threshold formula", abs(thr - direct) < 1e-12,
                 f"threshold(1, 1024, 0.05) = {thr!r}")

    print("validate:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


# =============================================================================
# Parser
# =============================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewavelets",
        description="Spanning-tree wavelet detection of clustered graph signals.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph")
    fam = p_gen.add_subparsers(dest="family", required=True)
    cell_fields = CellSpec.__dataclass_fields__
    for family, spec in _FAMILIES.items():
        p = fam.add_parser(family, help=spec.help)
        flags = _gen_flags(family)
        for flag, name in flags.items():
            # A field with a nonzero default keeps it as the flag's; the rest are required.
            default = cell_fields[name].default
            p.add_argument(f"--{flag}", type={"int": int, "float": float}[cell_fields[name].type],
                           required=not default, default=default or None)
        p.add_argument("--out", required=True, help="edge-list output path")
        if "seed" in flags:  # the seeded families draw points
            p.add_argument("--points", help="coordinate CSV path (default: alongside)")
    p_gen.set_defaults(func=_cmd_gen)

    p_basis = sub.add_parser("basis", help="build a wavelet basis and check it")
    p_basis.add_argument("--graph", required=True, help="edge-list input path")
    p_basis.add_argument("--tree", choices=["ust", "bfs"], default="ust")
    p_basis.add_argument("--seed", type=int, help="tree seed (required for ust)")
    p_basis.add_argument("--root", type=int, help="root for bfs trees (default 0)")
    p_basis.add_argument("--out", help="basis CSV output path")
    p_basis.add_argument("--tree-out", help="spanning-tree edge-list output path")
    p_basis.set_defaults(func=_cmd_basis)

    p_res = sub.add_parser("resistance", help="exact effective resistances")
    p_res.add_argument("--graph", required=True, help="edge-list input path")
    p_res.add_argument("--out", required=True, help="resistance CSV output path")
    p_res.add_argument("--validate-foster", action="store_true",
                       help="check the resistance sum equals n - 1")
    p_res.add_argument("--validate-mtt", type=int, metavar="DRAWS",
                       help="check tree edge marginals over DRAWS samples")
    p_res.add_argument("--seed", type=int, help="seed for --validate-mtt")
    p_res.set_defaults(func=_cmd_resistance)

    p_exp = sub.add_parser("experiment", help="run an experiment config")
    src = p_exp.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="JSON config path")
    src.add_argument("--preset", choices=["paper-fig1", "paper-fig2", "concentration"],
                     help="built-in configuration")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--seed", type=int, help="master seed (overrides config)")
    p_exp.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    p_exp.set_defaults(func=_cmd_experiment)

    p_val = sub.add_parser("validate", help="fast invariant battery")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # DisconnectedGraphError and json.JSONDecodeError are ValueErrors.
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
