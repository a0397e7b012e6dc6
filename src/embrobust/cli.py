"""Command-line surface: run analyses, write JSON/CSV reports and SVG figures.

Every subcommand is a thin wrapper over the library; numeric outputs are
the library results unchanged. All randomness flows from --seed, so two
runs with identical flags produce identical bytes. Each run has a manifest
of its resolved parameters, inputs and output files: the JSON report
embeds it under "run", SVG roots carry its id, and a run without a JSON
report (``synth``, ``curves``) writes it to ``<subcommand>_run.json``.

Exit codes: 0 success, 2 usage/input error, 3 analysis-precondition failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (DatasetError, EmbeddingDataset, load_dataset,
                      save_dataset)
from .evaluation import (DEFAULT_K_GRID, DEFAULT_LAMBDA, AnalysisError,
                         assign_folds, center_error_relation,
                         confounder_analysis, knn_predict, knn_table_depth,
                         logreg_cv, restrict_for_confounders)
from .neighbors import build_neighbor_table, frequency_curves
from .projection import TsneConfig, trustworthiness, tsne
from .robustness import DEFAULT_K, UndefinedIndexError, robustness_index
from .svgplot import (BIO_PALETTE, CONF_PALETTE, LineSeries, render_bar_chart,
                      render_line_plot, render_scatter)
from .synth import SynthSpec, generate


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# run manifests and serialization helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _make_run(subcommand: str, parameters: dict, inputs: dict) -> dict:
    core = _jsonable({"subcommand": subcommand, "parameters": parameters,
                      "inputs": inputs, "version": __version__})
    run_id = hashlib.sha256(
        json.dumps(core, sort_keys=True).encode()).hexdigest()[:12]
    return {**core, "run_id": run_id}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_reports(out_dir: str, run: dict, reports: dict[str, dict | list | str]) -> None:
    """Create ``out_dir``, write ``{file name: body}`` into it and record the
    names in ``run``.

    A dict is a JSON report with ``run`` embedded under "run"; a list is CSV
    rows, header first; a str is SVG text. Without a JSON report among them,
    ``run`` itself goes to ``<subcommand>_run.json``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run["outputs"] = sorted(reports)
    for name, body in reports.items():
        if isinstance(body, dict):
            _write_json(out / name, {"run": run, **body})
        elif isinstance(body, list):
            with open(out / name, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(body)
        else:
            (out / name).write_text(body, encoding="utf-8")
    if not any(isinstance(body, dict) for body in reports.values()):
        _write_json(out / f"{run['subcommand']}_run.json", run)


def _load(args) -> EmbeddingDataset:
    return load_dataset(args.manifest, args.embeddings)


def _inputs(args) -> dict:
    return {"manifest": str(args.manifest), "embeddings": str(args.embeddings)}


def _bio_colors(ds: EmbeddingDataset) -> dict[str, str]:
    return {c: BIO_PALETTE[i % len(BIO_PALETTE)] for i, c in enumerate(ds.bio_classes)}


def _conf_colors(ds: EmbeddingDataset) -> dict[str, str]:
    return {c: CONF_PALETTE[i % len(CONF_PALETTE)] for i, c in enumerate(ds.conf_classes)}


def _parse_k_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --k-grid {text!r}: {exc}") from exc
    if not grid or any(k < 1 for k in grid):
        raise UsageError("--k-grid values must be integers >= 1")
    return grid


def _rep_seeds(seed: int, reps: int) -> tuple[int, ...]:
    return tuple(seed + r for r in range(reps))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    counts = np.full((args.n_bio, args.n_conf), args.per_cell, dtype=np.int64)
    for pair in (args.empty_cells.split(",") if args.empty_cells else []):
        try:
            b, c = (int(v) for v in pair.split(":"))
            counts[b, c] = 0
        except (ValueError, IndexError) as exc:
            raise UsageError(f"bad --empty-cells entry {pair!r}") from exc
    try:
        spec = SynthSpec(n_bio=args.n_bio, n_conf=args.n_conf, per_cell=counts,
                         dim=args.dim, bio_strength=args.bio_strength,
                         conf_strength=args.conf_strength,
                         noise_sigma=args.noise_sigma, seed=args.seed)
        ds = generate(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    ext = "bin" if args.embeddings_format == "binary" else "csv"
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.csv"
    embeddings = out / f"embeddings.{ext}"
    save_dataset(ds, manifest, embeddings, fmt=args.embeddings_format)
    run = _make_run("synth", {
        "n_bio": args.n_bio, "n_conf": args.n_conf, "per_cell": args.per_cell,
        "empty_cells": args.empty_cells, "dim": args.dim,
        "bio_strength": args.bio_strength, "conf_strength": args.conf_strength,
        "noise_sigma": args.noise_sigma, "seed": args.seed,
        "embeddings_format": args.embeddings_format,
    }, {})
    run["outputs"] = sorted([manifest.name, embeddings.name])
    _write_json(out / "synth_run.json", run)
    print(f"wrote {manifest} and {embeddings} (n={ds.n}, dim={ds.dim})")
    return 0


def cmd_index(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    manifests = args.manifest or []
    embeddings = args.embeddings or []
    if not manifests or len(manifests) != len(embeddings):
        raise UsageError("provide matching --manifest/--embeddings pairs (at least one)")
    names = args.name or []
    if names and len(names) != len(manifests):
        raise UsageError("--name count must match dataset count")
    if not names:
        names = [Path(m).parent.name or Path(m).stem for m in manifests]

    entries = []
    for name, mpath, epath in zip(names, manifests, embeddings):
        ds = load_dataset(mpath, epath)
        nt = build_neighbor_table(ds, exclude_same_group=args.exclude_same_group,
                                  depth=args.k)
        report = robustness_index(ds, nt, args.k)
        entries.append({"name": name, **report.to_dict(),
                        "r_k_display": report.r_k_display})
    run = _make_run("index", {"k": args.k, "exclude_same_group": args.exclude_same_group},
                    {"manifests": manifests, "embeddings": embeddings, "names": names})
    ranked = sorted(entries, key=lambda e: e["r_k"])
    _write_reports(args.out_dir, run, {
        "robustness.json": {"datasets": entries},
        "robustness_index.svg": render_bar_chart(
            [(e["name"], e["r_k"]) for e in ranked],
            title=f"Robustness index (k={args.k})", ylabel="index",
            ref_line=1.0, value_labels=[e["r_k_display"] for e in ranked],
            meta=run["run_id"]),
    })
    for e in entries:
        print(f"{e['name']}: r_{args.k} = {e['r_k_display']} "
              f"({e['numerator']}/{e['denominator']})")
    return 0


def cmd_curves(args) -> int:
    ds = _load(args)
    # frequency_curves ranks its rows itself, block by block
    nt = build_neighbor_table(ds, exclude_same_group=args.exclude_same_group, depth=0)
    curves = frequency_curves(ds, nt)
    run = _make_run("curves", {"exclude_same_group": args.exclude_same_group},
                    _inputs(args))
    _write_reports(args.out_dir, run, {
        "frequency_curves.csv": [
            ["j", "f_bio", "f_conf"],
            *zip(curves.ranks.tolist(), curves.f_bio.tolist(), curves.f_conf.tolist())],
        "frequency_curves.svg": render_line_plot(
            [LineSeries(curves.ranks, curves.f_bio, "#1f77b4", "same biological class"),
             LineSeries(curves.ranks, curves.f_conf, "#ff7f0e", "same confounder class")],
            title="Per-rank same-label frequency", xlabel="neighbor rank",
            ylabel="fraction of samples", y_range=(0.0, 1.0), meta=run["run_id"]),
    })
    print(f"wrote frequency curves for {ds.n} samples ({nt.max_rank} ranks)")
    return 0


def _load_coords(path: str | Path, ds: EmbeddingDataset) -> np.ndarray:
    """Read a ``sample_id,x,y`` CSV holding one finite point per manifest id."""
    known = set(ds.ids)
    rows: dict[str, tuple[float, float]] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["sample_id", "x", "y"]:
                raise DatasetError(f"{path}: bad coords header {header!r}")
            for i, row in enumerate(reader):
                where = f"{path}: row {i}"
                if len(row) != 3:
                    raise DatasetError(f"{where} has {len(row)} fields, expected 3")
                sid = row[0]
                try:
                    xy = (float(row[1]), float(row[2]))
                except ValueError:
                    raise DatasetError(f"{where}: non-numeric coordinate in {row[1:]!r}") from None
                if not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
                    raise DatasetError(f"{where}: non-finite coordinate in {row[1:]!r}")
                if sid in rows:
                    raise DatasetError(f"{where}: duplicate sample id {sid!r}")
                if sid not in known:
                    raise DatasetError(f"{where}: sample id {sid!r} is not in the manifest")
                rows[sid] = xy
    except OSError as exc:
        raise DatasetError(f"cannot read coords {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: coords file is not UTF-8 text") from None
    missing = [i for i in ds.ids if i not in rows]
    if missing:
        raise DatasetError(f"{path}: missing coords for {len(missing)} samples "
                           f"(first: {missing[0]!r})")
    return np.array([rows[i] for i in ds.ids], dtype=np.float64)


def _eval_block(ds, vectors, metric, targets, k, lam, folds, max_iter,
                require_nonzero=True, exclude_same_group=False):
    probe_ds = EmbeddingDataset.from_arrays(
        ds.ids, vectors, ds.bio_labels, ds.conf_labels, ds.group_ids,
        require_nonzero=require_nonzero)
    nt = build_neighbor_table(probe_ds, metric=metric,
                              exclude_same_group=exclude_same_group,
                              depth=knn_table_depth(k, folds.n_folds))
    block: dict = {"knn": {"k": k}, "logreg": {"lambda": lam}}
    for target in targets:
        kr = knn_predict(probe_ds, nt, folds, target, k)
        lr = logreg_cv(probe_ds, folds, target, lam=lam, max_iter=max_iter)
        block["knn"][target] = {
            "accuracy_mean": kr.accuracy_mean, "accuracy_std": kr.accuracy_std,
            "fold_accuracy": list(kr.fold_accuracy)}
        block["logreg"][target] = {
            "accuracy_mean": lr.accuracy_mean, "accuracy_std": lr.accuracy_std,
            "fold_accuracy": list(lr.fold_accuracy)}
    return block


def _accuracy_scatter(block: dict, title: str, meta: str) -> str:
    pts = [(block["knn"]["conf"]["accuracy_mean"], block["knn"]["bio"]["accuracy_mean"]),
           (block["logreg"]["conf"]["accuracy_mean"], block["logreg"]["bio"]["accuracy_mean"])]
    labels = [f"knn (k={block['knn']['k']})", "logreg"]
    return render_scatter(
        np.array(pts), ["#1f77b4", "#d62728"], title=title,
        xlabel="confounder prediction accuracy",
        ylabel="biological prediction accuracy",
        point_labels=labels, diagonal=True,
        axes_range=(0.0, 1.05, 0.0, 1.05), meta=meta)


def cmd_eval(args) -> int:
    if args.target not in ("both", "bio", "conf"):
        raise UsageError(f"--target must be bio, conf or both, got {args.target!r}")
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    targets = ("bio", "conf") if args.target == "both" else (args.target,)
    ds = _load(args)
    coords = _load_coords(args.coords, ds) if args.coords else None
    folds = assign_folds(ds, args.folds, args.seed)
    run = _make_run("eval", {
        "k": args.k, "lambda": args.lam, "folds": args.folds, "seed": args.seed,
        "target": args.target, "logreg_max_iter": args.logreg_max_iter,
        "coords": str(args.coords) if args.coords else None,
        "exclude_same_group": args.exclude_same_group,
    }, _inputs(args))

    payload = {"embedding": _eval_block(
        ds, ds.vectors, "cosine", targets, args.k, args.lam, folds,
        args.logreg_max_iter, exclude_same_group=args.exclude_same_group)}
    if coords is not None:
        payload["tsne2d"] = _eval_block(
            ds, coords, "euclidean", targets, args.k, args.lam, folds,
            args.logreg_max_iter, require_nonzero=False,
            exclude_same_group=args.exclude_same_group)
    reports: dict = {"eval.json": payload}
    if args.target == "both":  # the accuracy scatter needs both axes
        reports["accuracy_embedding.svg"] = _accuracy_scatter(
            payload["embedding"], "Probe accuracy (embedding input)", run["run_id"])
        if coords is not None:
            reports["accuracy_tsne2d.svg"] = _accuracy_scatter(
                payload["tsne2d"], "Probe accuracy (2D projection input)", run["run_id"])
    _write_reports(args.out_dir, run, reports)
    emb = payload["embedding"]
    for target in targets:
        print(f"{target}: knn k={args.k} {emb['knn'][target]['accuracy_mean']:.3f}, "
              f"logreg {emb['logreg'][target]['accuracy_mean']:.3f}")
    return 0


def cmd_confounders(args) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    k_grid = _parse_k_grid(args.k_grid)
    ds = _load(args)
    restricted = restrict_for_confounders(ds)
    nt = build_neighbor_table(restricted, exclude_same_group=args.exclude_same_group,
                              depth=knn_table_depth(max(k_grid), args.folds))
    seeds = _rep_seeds(args.seed, args.reps)
    report = confounder_analysis(restricted, nt, seeds, n_folds=args.folds, k_grid=k_grid)
    run = _make_run("confounders", {
        "k_grid": list(k_grid), "reps": args.reps, "folds": args.folds,
        "seed": args.seed, "rep_seeds": list(seeds),
        "exclude_same_group": args.exclude_same_group,
    }, _inputs(args))
    ks = np.array(report.k_grid, dtype=float)
    _write_reports(args.out_dir, run, {
        "confounders.json": {
            "restricted_bio_classes": list(report.bio_classes),
            "accuracy_curves_on_restricted_subset": True,
            "chance_level": report.chance_level,
            "k_grid": list(report.k_grid),
            "frac_same_center": report.frac_same_center,
            "acc_bio": report.acc_bio,
            "acc_conf": report.acc_conf,
            "n_misclassified": report.n_misclassified,
        },
        "confounders.csv": [
            ["k", "frac_same_center", "acc_bio", "acc_conf"],
            *zip(report.k_grid, report.frac_same_center.tolist(),
                 report.acc_bio.tolist(), report.acc_conf.tolist())],
        "confounders.svg": render_line_plot(
            [LineSeries(ks, report.frac_same_center, "#d62728",
                        "same-center fraction of confounders", markers=True),
             LineSeries(ks, report.acc_bio, "#2ca02c", "biological accuracy", markers=True),
             LineSeries(ks, report.acc_conf, "#1f77b4", "confounder accuracy", markers=True)],
            title="Same-center confounders", xlabel="neighbor count k",
            ylabel="fraction / accuracy", log_x=True, y_range=(0.0, 1.0),
            h_rules=[(report.chance_level, "chance level")], meta=run["run_id"]),
    })
    print(f"restricted to {len(report.bio_classes)} biological classes; "
          f"chance level {report.chance_level:.3g}")
    return 0


def cmd_tsne(args) -> int:
    ds = _load(args)
    if ds.n < 10:
        raise UsageError(f"t-SNE needs at least 10 samples, got {ds.n}")
    cfg = TsneConfig(
        perplexity=args.perplexity, iterations=args.tsne_iters,
        early_exaggeration_factor=args.tsne_early_factor,
        early_exaggeration_iters=args.tsne_early_iters,
        learning_rate=args.tsne_lr, seed=args.seed)
    result = tsne(ds, cfg)
    run = _make_run("tsne", cfg.to_dict(), _inputs(args))

    def coloring(labels, cmap, what):
        return render_scatter(
            result.coords, [cmap[lab] for lab in labels],
            title=f"2D projection colored by {what}", xlabel="t-SNE 1", ylabel="t-SNE 2",
            legend=sorted(cmap.items()), meta=run["run_id"])

    t_k = min(12, (ds.n - 1) // 2)
    _write_reports(args.out_dir, run, {
        "tsne_coords.csv": [["sample_id", "x", "y"],
                            *zip(ds.ids, *result.coords.T.tolist())],
        "tsne_kl.csv": [["iter", "kl"], *enumerate(result.kl_trace.tolist())],
        "tsne_bio.svg": coloring(ds.bio_labels, _bio_colors(ds), "biological class"),
        "tsne_conf.svg": coloring(ds.conf_labels, _conf_colors(ds), "confounder class"),
        "tsne.json": {
            "final_kl": float(result.kl_trace[-1]),
            "trustworthiness": {"k": t_k,
                                "value": trustworthiness(ds, result.coords, t_k)},
        },
    })
    print(f"t-SNE finished: final KL {result.kl_trace[-1]:.4f}")
    return 0


def cmd_relation(args) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    k_grid = _parse_k_grid(args.k_grid)
    ds = _load(args)
    nt = build_neighbor_table(ds, exclude_same_group=args.exclude_same_group,
                              depth=knn_table_depth(max(k_grid), args.folds))
    seeds = _rep_seeds(args.seed, args.reps)
    rel = center_error_relation(
        ds, nt, seeds, k_grid=k_grid, lam=args.lam, n_folds=args.folds,
        logreg_max_iter=args.logreg_max_iter)
    run = _make_run("relation", {
        "k_grid": list(k_grid), "reps": args.reps, "folds": args.folds,
        "lambda": args.lam, "seed": args.seed, "rep_seeds": list(seeds),
        "logreg_max_iter": args.logreg_max_iter,
        "exclude_same_group": args.exclude_same_group,
    }, _inputs(args))
    centers = (rel.bin_edges[:-1] + rel.bin_edges[1:]) / 2.0
    _write_reports(args.out_dir, run, {
        "relation.json": {
            "bin_edges": rel.bin_edges,
            "bin_counts": rel.bin_counts,
            "bin_logreg_error": rel.bin_logreg_error,
            "n_center_related_runs": int((rel.fraction_center_error > 0).sum()),
        },
        "relation.csv": [
            ["bin_lo", "bin_hi", "count", "logreg_error_rate"],
            *zip(rel.bin_edges[:-1].tolist(), rel.bin_edges[1:].tolist(),
                 rel.bin_counts.tolist(), rel.bin_logreg_error.tolist())],
        "relation.svg": render_line_plot(
            [LineSeries(centers, rel.bin_logreg_error, "#d62728",
                        "logreg error rate", markers=True)],
            title="Regression errors vs center-related kNN errors",
            xlabel="fraction of kNN runs with a center-related error",
            ylabel="logistic regression error rate", y_range=(0.0, 1.0),
            meta=run["run_id"]),
    })
    print(f"center-related errors observed for "
          f"{int((rel.fraction_center_error > 0).sum())} samples")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embrobust",
        description="Quantify biological vs confounder organization of embedding spaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=0)

    one_ds = argparse.ArgumentParser(add_help=False)
    one_ds.add_argument("--manifest", required=True)
    one_ds.add_argument("--embeddings", required=True)

    # only meaningful for neighbor-based analyses
    grouping = argparse.ArgumentParser(add_help=False)
    grouping.add_argument("--exclude-same-group", action="store_true",
                          help="ignore neighbors sharing the sample's group id")

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dataset")
    p.add_argument("--n-bio", type=int, default=5)
    p.add_argument("--n-conf", type=int, default=5)
    p.add_argument("--per-cell", type=int, default=80)
    p.add_argument("--empty-cells", default="",
                   help="comma-separated bio:conf index pairs left empty")
    p.add_argument("--dim", type=int, default=768)
    p.add_argument("--bio-strength", type=float, default=1.0)
    p.add_argument("--conf-strength", type=float, default=1.0)
    p.add_argument("--noise-sigma", type=float, default=0.5)
    p.add_argument("--embeddings-format", choices=["binary", "csv"], default="binary")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("index", parents=[common, grouping],
                       help="robustness index for one or more datasets")
    p.add_argument("--manifest", action="append")
    p.add_argument("--embeddings", action="append")
    p.add_argument("--name", action="append", help="dataset display name")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("curves", parents=[common, one_ds, grouping],
                       help="per-rank same-label frequency curves")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("eval", parents=[common, one_ds, grouping],
                       help="cross-validated kNN and regression probes")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--target", default="both", help="bio, conf or both")
    p.add_argument("--coords", help="2D coords CSV to evaluate as alternate input")
    p.add_argument("--logreg-max-iter", type=int, default=5000)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("confounders", parents=[common, one_ds, grouping],
                       help="same-center confounder fractions")
    p.add_argument("--k-grid", default=",".join(str(k) for k in DEFAULT_K_GRID))
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=cmd_confounders)

    p = sub.add_parser("tsne", parents=[common, one_ds],
                       help="2D projection with per-label colorings")
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--tsne-iters", type=int, default=1000)
    p.add_argument("--tsne-early-iters", type=int, default=250)
    p.add_argument("--tsne-early-factor", type=float, default=12.0)
    p.add_argument("--tsne-lr", type=float, default=200.0)
    p.set_defaults(func=cmd_tsne)

    p = sub.add_parser("relation", parents=[common, one_ds, grouping],
                       help="center-related kNN errors vs regression errors")
    p.add_argument("--k-grid", default=",".join(str(k) for k in DEFAULT_K_GRID))
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--logreg-max-iter", type=int, default=5000)
    p.set_defaults(func=cmd_relation)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AnalysisError, UndefinedIndexError) as exc:
        print(f"analysis precondition failed: {exc}", file=sys.stderr)
        return 3
    except DatasetError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # OSError: an out-dir that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
