"""Command-line surface: run analyses, write JSON/CSV reports and SVG figures.

Every subcommand is a thin wrapper over the library; numeric outputs are
the library results unchanged. All randomness flows from --seed, so two
runs with identical flags produce identical bytes, whether or not an
earlier subcommand in the same process left results to reuse. Subcommands
run in one process (``main`` called again) hold, matched by content, never
by path:

- the last embedding-space cosine table (``_embedding_table``), keyed by
  the vectors' sha256, dtype and shape and, under --exclude-same-group, the
  group ids; ``tsne`` ranks its affinities and its trustworthiness from it.
  Dropped by a table for other vectors, and by ``eval --coords`` once its
  kNN probes have read it;
- the embedding-space regression probes (``_logreg_probe``) that ``eval``
  and ``relation`` fit, keyed by the same vector digest, the target's
  labels, the fold assignment, lambda and max_iter; dropped when a probe
  is fit on other vectors. ``relation`` after ``eval`` reuses eval's bio
  probe instead of refitting it.

Each run has a manifest of its resolved
parameters, inputs and output files: the JSON report embeds it under
"run", SVG roots carry its id, and a run without a JSON report
(``synth``, ``curves``) writes it to ``<subcommand>_run.json``.

Exit codes: 0 success, 2 usage/input error, 3 analysis-precondition failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (COORDS_HEADER, DatasetError, EmbeddingDataset, load_coords,
                      load_dataset, save_dataset)
from .evaluation import (DEFAULT_K_GRID, DEFAULT_LAMBDA, AnalysisError,
                         EvalResult, FoldAssignment, assign_folds,
                         center_error_relation, confounder_analysis,
                         knn_predict, logreg_cv, restrict_for_confounders)
from .neighbors import NeighborTable, build_neighbor_table, frequency_curves
from .projection import TsneConfig, trustworthiness, tsne
from .robustness import DEFAULT_K, UndefinedIndexError, robustness_index
from .svgplot import (BIO_PALETTE, CONF_PALETTE, LineSeries, render_bar_chart,
                      render_line_plot, render_scatter)
from .synth import SynthSpec, generate


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number in any form float() reads is a value, so the flag's
        # own rule names it: argparse's pattern takes `-1e-3` or `-inf` for an option
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):  # every parse error: one line, exit 2
        raise UsageError(message.replace("\r", "\\r").replace("\n", "\\n"))


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


# The last embedding-space table built, as (key, table), so that the next
# subcommand run in the same process (``main`` called again, as by
# scripts/run_full_analysis.py) reuses it instead of recomputing the n×n
# cosine product. Separate processes share nothing. At most one table is
# alive at a time: a miss drops the held table before it builds, and the one
# other table builder, ``eval --coords``, drops it once its embedding kNN
# probes are done, before its regression probes and its 2D table.
_held_table: tuple[tuple, NeighborTable] | None = None
# The embedding-space regression probes fit on one set of vectors, by key
# (see ``_logreg_probe``), so that ``relation`` reuses the bio probe ``eval``
# fit. Each is a few bytes per sample; probes fit on other vectors drop them.
_held_probes: dict[tuple, EvalResult] = {}


def _drop_table() -> None:
    global _held_table
    _held_table = None


def _drop_held() -> None:
    """Forget every held table and probe, as in a fresh process."""
    _drop_table()
    _held_probes.clear()


def _vectors_key(ds: EmbeddingDataset) -> tuple:
    """The vectors' content: sha256 of their bytes, dtype and shape. A
    subcommand computes it once and keys all it holds by it."""
    vectors = np.ascontiguousarray(ds.vectors)
    return hashlib.sha256(vectors).hexdigest(), vectors.dtype.str, vectors.shape


def _embedding_table(ds: EmbeddingDataset, vectors_key: tuple,
                     exclude: bool) -> NeighborTable:
    """The cosine table of ``ds``, the held one if it was built from the same
    vectors (``vectors_key``) and, under exclusion, the same group ids.

    Paths are not part of the key: a file rewritten in place misses.
    """
    global _held_table
    key = (vectors_key,
           hashlib.sha256(json.dumps(ds.group_ids).encode()).hexdigest() if exclude else None)
    held = _held_table  # one read: the pair, never a key and another's table
    if held is not None and held[0] == key:
        return held[1]
    del held  # or the old table stays alive through the build
    _drop_table()
    nt = build_neighbor_table(ds, exclude_same_group=exclude)
    _held_table = (key, nt)
    return nt


def _logreg_probe(ds: EmbeddingDataset, vectors_key: tuple, folds: FoldAssignment,
                  target: str, lam: float, max_iter: int) -> EvalResult:
    """``logreg_cv(ds, folds, target, lam=lam, max_iter=max_iter)``, the held
    result if one was fit on the same vectors (``vectors_key``), the same
    target labels, the same fold assignment, lambda and max_iter: all the
    probe reads. Group ids are not part of the key, as the probe ignores them.
    """
    labels = ds.bio_labels if target == "bio" else ds.conf_labels
    key = (vectors_key, target, labels, folds.fold_of.tobytes(), float(lam).hex(), max_iter)
    probe = _held_probes.get(key)
    if probe is None:
        probe = logreg_cv(ds, folds, target, lam=lam, max_iter=max_iter)
        if any(held[0] != vectors_key for held in _held_probes):
            _held_probes.clear()
        _held_probes[key] = probe
    return probe


def _bio_colors(ds: EmbeddingDataset) -> dict[str, str]:
    return {c: BIO_PALETTE[i % len(BIO_PALETTE)] for i, c in enumerate(ds.bio_classes)}


def _conf_colors(ds: EmbeddingDataset) -> dict[str, str]:
    return {c: CONF_PALETTE[i % len(CONF_PALETTE)] for i, c in enumerate(ds.conf_classes)}


def _at_least(kind, lo, strict=False):
    """argparse ``type``: a ``kind`` value >= ``lo`` (> ``lo`` when ``strict``), and
    finite if a float. Ints compare as ints: a 400-digit one never becomes a float."""
    what = f"{'a finite number' if kind is float else 'an integer'} {'>' if strict else '>='} {lo}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if (value is None or value < lo or (strict and value == lo)
                or (kind is float and not math.isfinite(value))):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _parse_k_grid(text: str) -> tuple[int, ...]:
    return tuple(map(_at_least(int, 1), text.split(",")))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    counts = args.per_cell  # a grid only once a cell is emptied: generate sizes first
    for pair in (args.empty_cells.split(",") if args.empty_cells else []):
        try:
            b, c = (int(v) for v in pair.split(":"))
        except ValueError as exc:
            raise UsageError(f"bad --empty-cells entry {pair!r}") from exc
        if not (0 <= b < args.n_bio and 0 <= c < args.n_conf):
            raise UsageError(f"bad --empty-cells entry {pair!r}")
        if np.ndim(counts) == 0:
            counts = np.full((args.n_bio, args.n_conf), args.per_cell, dtype=np.int64)
        counts[b, c] = 0
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


def _index_entry(name: str, manifest: str, embeddings: str, args) -> dict:
    """One model's report; its dataset is freed on return, and its n×n table
    when the next model's is built."""
    ds = load_dataset(manifest, embeddings)
    report = robustness_index(
        ds, _embedding_table(ds, _vectors_key(ds), args.exclude_same_group), args.k)
    return {"name": name, **report.to_dict(), "r_k_display": report.r_k_display}


def cmd_index(args) -> int:
    manifests = args.manifest or []
    embeddings = args.embeddings or []
    if not manifests or len(manifests) != len(embeddings):
        raise UsageError("provide matching --manifest/--embeddings pairs (at least one)")
    names = args.name or []
    if names and len(names) != len(manifests):
        raise UsageError("--name count must match dataset count")
    if not names:
        names = [Path(m).parent.name or Path(m).stem for m in manifests]

    entries = [_index_entry(name, mpath, epath, args)
               for name, mpath, epath in zip(names, manifests, embeddings)]
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
    nt = _embedding_table(ds, _vectors_key(ds), args.exclude_same_group)
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
            ylabel="fraction of samples", meta=run["run_id"]),
    })
    print(f"wrote frequency curves for {ds.n} samples ({nt.max_rank} ranks)")
    return 0


def _accuracies(result: EvalResult) -> dict:
    return {"accuracy_mean": result.accuracy_mean, "accuracy_std": result.accuracy_std,
            "fold_accuracy": list(result.fold_accuracy)}


def _knn_block(probe_ds, nt, targets, k, folds) -> dict:
    knn = knn_predict(probe_ds, nt, folds, k)
    return {"k": k, **{target: _accuracies(knn[target]) for target in targets}}


def _logreg_block(targets, lam, logreg) -> dict:
    """Each target's regression accuracies; ``logreg(target)`` gives the probe."""
    return {"lambda": lam, **{target: _accuracies(logreg(target)) for target in targets}}


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
    targets = ("bio", "conf") if args.target == "both" else (args.target,)
    ds = _load(args)
    coords = load_coords(args.coords, ds) if args.coords else None
    folds = assign_folds(ds, args.folds, args.seed)
    run = _make_run("eval", {
        "k": args.k, "lambda": args.lam, "folds": args.folds, "seed": args.seed,
        "target": args.target, "logreg_max_iter": args.logreg_max_iter,
        "coords": str(args.coords) if args.coords else None,
        "exclude_same_group": args.exclude_same_group,
    }, _inputs(args))

    vectors_key = _vectors_key(ds)
    knn = _knn_block(ds, _embedding_table(ds, vectors_key, args.exclude_same_group),
                     targets, args.k, folds)
    if coords is not None:
        # no regression probe reads a table, and the 2D one is built next
        _drop_table()
    payload = {"embedding": {"knn": knn, "logreg": _logreg_block(
        targets, args.lam, lambda target: _logreg_probe(ds, vectors_key, folds, target,
                                                        args.lam, args.logreg_max_iter))}}
    if coords is not None:
        coords_ds = EmbeddingDataset.from_arrays(
            ds.ids, coords, ds.bio_labels, ds.conf_labels, ds.group_ids,
            require_nonzero=False)
        payload["tsne2d"] = {
            "knn": _knn_block(coords_ds, build_neighbor_table(
                coords_ds, metric="euclidean", exclude_same_group=args.exclude_same_group),
                targets, args.k, folds),
            "logreg": _logreg_block(targets, args.lam, lambda target: logreg_cv(
                coords_ds, folds, target, lam=args.lam, max_iter=args.logreg_max_iter))}
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
    ds = _load(args)
    restricted = restrict_for_confounders(ds)
    nt = _embedding_table(restricted, _vectors_key(restricted), args.exclude_same_group)
    seeds = tuple(range(args.seed, args.seed + args.reps))
    report = confounder_analysis(restricted, nt, seeds, n_folds=args.folds,
                                 k_grid=args.k_grid)
    run = _make_run("confounders", {
        "k_grid": list(args.k_grid), "reps": args.reps, "folds": args.folds,
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
            ylabel="fraction / accuracy", log_x=True,
            h_rules=[(report.chance_level, "chance level")], meta=run["run_id"]),
    })
    print(f"restricted to {len(report.bio_classes)} biological classes; "
          f"chance level {report.chance_level:.3g}")
    return 0


def cmd_tsne(args) -> int:
    if args.tsne_iters < args.tsne_early_iters:
        raise UsageError(f"--tsne-iters must cover --tsne-early-iters, got "
                         f"{args.tsne_iters} < {args.tsne_early_iters}")
    ds = _load(args)
    if ds.n < 10:
        raise UsageError(f"t-SNE needs at least 10 samples, got {ds.n}")
    cfg = TsneConfig(
        perplexity=args.perplexity, iterations=args.tsne_iters,
        early_exaggeration_factor=args.tsne_early_factor,
        early_exaggeration_iters=args.tsne_early_iters,
        learning_rate=args.tsne_lr, seed=args.seed)
    nt = _embedding_table(ds, _vectors_key(ds), False)
    result = tsne(nt, cfg)
    run = _make_run("tsne", cfg.to_dict(), _inputs(args))

    def coloring(labels, cmap, what):
        return render_scatter(
            result.coords, [cmap[lab] for lab in labels],
            title=f"2D projection colored by {what}", xlabel="t-SNE 1", ylabel="t-SNE 2",
            legend=sorted(cmap.items()), meta=run["run_id"])

    t_k = min(12, (ds.n - 1) // 2)
    _write_reports(args.out_dir, run, {
        "tsne_coords.csv": [COORDS_HEADER,
                            *zip(ds.ids, *result.coords.T.tolist())],
        "tsne_kl.csv": [["iter", "kl"], *enumerate(result.kl_trace.tolist())],
        "tsne_bio.svg": coloring(ds.bio_labels, _bio_colors(ds), "biological class"),
        "tsne_conf.svg": coloring(ds.conf_labels, _conf_colors(ds), "confounder class"),
        "tsne.json": {
            "final_kl": float(result.kl_trace[-1]),
            "learning_rate": result.learning_rate,
            "affinities": {"neighbors": result.neighbors, "pairs": result.pairs,
                           "uniform_rows": result.uniform_rows},
            "trustworthiness": {"k": t_k, "metric": "cosine",
                                "value": trustworthiness(nt, result.coords, t_k)},
        },
    })
    print(f"t-SNE finished: final KL {result.kl_trace[-1]:.4f}")
    return 0


def cmd_relation(args) -> int:
    ds = _load(args)
    vectors_key = _vectors_key(ds)
    nt = _embedding_table(ds, vectors_key, args.exclude_same_group)
    seeds = tuple(range(args.seed, args.seed + args.reps))
    # the bio probe on the first seed's folds: eval's, if it ran on the same
    # content in this process; else fit here, before the kNN ensemble runs
    logreg = _logreg_probe(ds, vectors_key, assign_folds(ds, args.folds, args.seed),
                           "bio", args.lam, args.logreg_max_iter)
    rel = center_error_relation(ds, nt, seeds, logreg, k_grid=args.k_grid,
                                n_folds=args.folds)
    run = _make_run("relation", {
        "k_grid": list(args.k_grid), "reps": args.reps, "folds": args.folds,
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
            ylabel="logistic regression error rate", meta=run["run_id"]),
    })
    print(f"center-related errors observed for "
          f"{int((rel.fraction_center_error > 0).sum())} samples")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Each flag's rule is its ``type`` or ``choices``: checked before any input is read."""
    parser = _Parser(
        prog="embrobust",
        description="Quantify biological vs confounder organization of embedding spaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", required=True, help="output directory")
    common.add_argument("--seed", type=_at_least(int, 0), default=0)

    one_ds = argparse.ArgumentParser(add_help=False)
    one_ds.add_argument("--manifest", required=True)
    one_ds.add_argument("--embeddings", required=True)

    # only meaningful for neighbor-based analyses
    grouping = argparse.ArgumentParser(add_help=False)
    grouping.add_argument("--exclude-same-group", action="store_true",
                          help="ignore neighbors sharing the sample's group id")

    k_grid = dict(type=_parse_k_grid, default=",".join(str(k) for k in DEFAULT_K_GRID))
    count, folds = _at_least(int, 1), _at_least(int, 2)
    finite, positive = _at_least(float, 0), _at_least(float, 0, strict=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dataset")
    p.add_argument("--n-bio", type=count, default=5)
    p.add_argument("--n-conf", type=count, default=5)
    p.add_argument("--per-cell", type=_at_least(int, 0), default=80)
    p.add_argument("--empty-cells", default="",
                   help="comma-separated bio:conf index pairs left empty")
    p.add_argument("--dim", type=_at_least(int, 2), default=768)
    p.add_argument("--bio-strength", type=finite, default=1.0)
    p.add_argument("--conf-strength", type=finite, default=1.0)
    p.add_argument("--noise-sigma", type=positive, default=0.5)
    p.add_argument("--embeddings-format", choices=["binary", "csv"], default="binary")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("index", parents=[common, grouping],
                       help="robustness index for one or more datasets")
    p.add_argument("--manifest", action="append")
    p.add_argument("--embeddings", action="append")
    p.add_argument("--name", action="append", help="dataset display name")
    p.add_argument("--k", type=count, default=DEFAULT_K)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("curves", parents=[common, one_ds, grouping],
                       help="per-rank same-label frequency curves")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("eval", parents=[common, one_ds, grouping],
                       help="cross-validated kNN and regression probes")
    p.add_argument("--k", type=count, default=3)
    p.add_argument("--lambda", dest="lam", type=finite, default=DEFAULT_LAMBDA)
    p.add_argument("--folds", type=folds, default=5)
    p.add_argument("--target", choices=["both", "bio", "conf"], default="both")
    p.add_argument("--coords", help="2D coords CSV to evaluate as alternate input")
    p.add_argument("--logreg-max-iter", type=count, default=5000)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("confounders", parents=[common, one_ds, grouping],
                       help="same-center confounder fractions")
    p.add_argument("--k-grid", **k_grid)
    p.add_argument("--reps", type=count, default=5)
    p.add_argument("--folds", type=folds, default=5)
    p.set_defaults(func=cmd_confounders)

    p = sub.add_parser("tsne", parents=[common, one_ds],
                       help="2D projection with per-label colorings")
    p.add_argument("--perplexity", type=_at_least(float, 1), default=30.0)
    p.add_argument("--tsne-iters", type=count, default=1000)
    p.add_argument("--tsne-early-iters", type=_at_least(int, 0), default=250)
    p.add_argument("--tsne-early-factor", type=positive, default=12.0)
    p.add_argument("--tsne-lr", type=positive,
                   help="learning rate (default: n / --tsne-early-factor)")
    p.set_defaults(func=cmd_tsne)

    p = sub.add_parser("relation", parents=[common, one_ds, grouping],
                       help="center-related kNN errors vs regression errors")
    p.add_argument("--k-grid", **k_grid)
    p.add_argument("--reps", type=count, default=5)
    p.add_argument("--folds", type=folds, default=5)
    p.add_argument("--lambda", dest="lam", type=finite, default=DEFAULT_LAMBDA)
    p.add_argument("--logreg-max-iter", type=count, default=5000)
    p.set_defaults(func=cmd_relation)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
