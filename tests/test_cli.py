"""CLI surface: wrapper equivalence, exit codes, formats, determinism, SVG structure."""

from __future__ import annotations

import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import embrobust
from embrobust import (EmbeddingDataset, SynthSpec, TsneConfig, assign_folds,
                       build_neighbor_table, confounder_analysis,
                       frequency_curves, generate, knn_predict, load_dataset,
                       logreg_cv, robustness_index, save_dataset, trustworthiness,
                       tsne)
from embrobust import cli, evaluation, neighbors, projection
from embrobust.cli import main
from embrobust.dataset import COORDS_HEADER, MANIFEST_HEADER

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_elements(path: Path, tag: str, cls: str):
    root = ET.fromstring(path.read_text())
    return [e for e in root.iter(f"{SVG_NS}{tag}") if e.get("class") == cls]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset plus every subcommand's outputs."""
    base = tmp_path_factory.mktemp("cli")
    data = base / "data"
    out = base / "out"
    synth_flags = ["synth", "--out-dir", str(data), "--n-bio", "3", "--n-conf", "3",
                   "--per-cell", "12", "--dim", "24", "--noise-sigma", "0.6",
                   "--conf-strength", "1.2", "--seed", "5"]
    assert main(synth_flags) == 0
    ds_flags = ["--manifest", str(data / "manifest.csv"),
                "--embeddings", str(data / "embeddings.bin")]
    assert main(["index", *ds_flags, "--name", "demo", "--k", "10",
                 "--out-dir", str(out)]) == 0
    assert main(["curves", *ds_flags, "--out-dir", str(out)]) == 0
    assert main(["tsne", *ds_flags, "--out-dir", str(out), "--perplexity", "8",
                 "--tsne-iters", "80", "--tsne-early-iters", "30", "--seed", "2"]) == 0
    assert main(["eval", *ds_flags, "--out-dir", str(out),
                 "--coords", str(out / "tsne_coords.csv"),
                 "--logreg-max-iter", "300"]) == 0
    assert main(["confounders", *ds_flags, "--out-dir", str(out),
                 "--k-grid", "1,2,4,8", "--reps", "2"]) == 0
    assert main(["relation", *ds_flags, "--out-dir", str(out),
                 "--k-grid", "1,2,4", "--reps", "2",
                 "--logreg-max-iter", "300"]) == 0
    return base


def _dataset(workspace):
    return load_dataset(workspace / "data" / "manifest.csv",
                        workspace / "data" / "embeddings.bin")


# ---------------------------------------------------------------------------
# wrapper equivalence with direct library calls
# ---------------------------------------------------------------------------

def test_synth_round_trips_through_loader(workspace):
    ds = _dataset(workspace)
    direct = generate(SynthSpec(n_bio=3, n_conf=3, per_cell=12, dim=24,
                                noise_sigma=0.6, conf_strength=1.2, seed=5))
    assert ds.ids == direct.ids
    assert ds.bio_labels == direct.bio_labels
    assert np.array_equal(ds.vectors, direct.vectors)


def test_index_json_matches_library(workspace):
    payload = json.loads((workspace / "out" / "robustness.json").read_text())
    ds = _dataset(workspace)
    report = robustness_index(ds, build_neighbor_table(ds), 10)
    entry = payload["datasets"][0]
    assert entry["name"] == "demo"
    assert entry["numerator"] == report.numerator
    assert entry["denominator"] == report.denominator
    assert entry["r_k"] == report.r_k
    assert entry["r_min"] == report.r_min
    assert entry["r_max"] == report.r_max
    assert payload["run"]["subcommand"] == "index"


def test_curves_csv_matches_library(workspace):
    ds = _dataset(workspace)
    curves = frequency_curves(ds, build_neighbor_table(ds))
    with open(workspace / "out" / "frequency_curves.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "f_bio", "f_conf"]
    assert len(rows) - 1 == len(curves.f_bio)
    for r, (j, fb, fc) in zip(rows[1:], zip(curves.ranks, curves.f_bio, curves.f_conf)):
        assert int(r[0]) == j
        assert float(r[1]) == fb
        assert float(r[2]) == fc


def test_eval_json_matches_library(workspace):
    payload = json.loads((workspace / "out" / "eval.json").read_text())
    ds = _dataset(workspace)
    folds = assign_folds(ds, 5, seed=0)
    nt = build_neighbor_table(ds)
    knn_bio = knn_predict(ds, nt, folds, "bio", 3)
    assert payload["embedding"]["knn"]["bio"]["accuracy_mean"] == knn_bio.accuracy_mean
    assert payload["embedding"]["knn"]["bio"]["accuracy_std"] == knn_bio.accuracy_std
    logreg_conf = logreg_cv(ds, folds, "conf", max_iter=300)
    assert (payload["embedding"]["logreg"]["conf"]["accuracy_mean"]
            == logreg_conf.accuracy_mean)
    assert "tsne2d" in payload
    assert set(payload["tsne2d"]["knn"]) == {"k", "bio", "conf"}


def test_confounders_outputs_match_library(workspace):
    ds = _dataset(workspace)
    report = confounder_analysis(ds, build_neighbor_table(ds), seeds=(0, 1),
                                 n_folds=5, k_grid=(1, 2, 4, 8))
    with open(workspace / "out" / "confounders.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "frac_same_center", "acc_bio", "acc_conf"]
    for r, ki in zip(rows[1:], range(4)):
        assert int(r[0]) == report.k_grid[ki]
        lib = report.frac_same_center[ki]
        got = float(r[1])
        assert (np.isnan(lib) and np.isnan(got)) or got == lib
        assert float(r[2]) == report.acc_bio[ki]
        assert float(r[3]) == report.acc_conf[ki]
    payload = json.loads((workspace / "out" / "confounders.json").read_text())
    assert payload["chance_level"] == report.chance_level
    assert payload["restricted_bio_classes"] == list(report.bio_classes)
    assert payload["accuracy_curves_on_restricted_subset"] is True


def test_relation_csv_format(workspace):
    with open(workspace / "out" / "relation.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_lo", "bin_hi", "count", "logreg_error_rate"]
    assert len(rows) == 11
    counts = [int(r[2]) for r in rows[1:]]
    assert sum(counts) == _dataset(workspace).n
    assert float(rows[1][0]) == 0.0
    assert float(rows[10][1]) == 1.0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_rerun_reproduces_identical_bytes(workspace, tmp_path):
    data = workspace / "data"
    ds_flags = ["--manifest", str(data / "manifest.csv"),
                "--embeddings", str(data / "embeddings.bin")]
    out2 = tmp_path / "out2"
    assert main(["tsne", *ds_flags, "--out-dir", str(out2), "--perplexity", "8",
                 "--tsne-iters", "80", "--tsne-early-iters", "30", "--seed", "2"]) == 0
    assert main(["curves", *ds_flags, "--out-dir", str(out2)]) == 0
    for name in ("tsne_coords.csv", "tsne_kl.csv", "tsne_bio.svg",
                 "tsne_conf.svg", "frequency_curves.csv", "frequency_curves.svg"):
        assert (out2 / name).read_bytes() == (workspace / "out" / name).read_bytes()


def test_outputs_identical_across_blas_thread_counts(tmp_path):
    """index, curves, confounders, eval, relation, tsne (in row blocks at
    n = 800) and eval --coords write the same bytes with 1 and 2 BLAS
    threads, each run in a fresh interpreter that reads the setting."""
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--n-bio", "4", "--n-conf", "4",
                 "--per-cell", "50", "--dim", "96", "--seed", "3"]) == 0
    ds_flags = ["--manifest", str(data / "manifest.csv"),
                "--embeddings", str(data / "embeddings.bin")]
    src = Path(embrobust.__file__).resolve().parents[1]
    out = tmp_path / "out"  # one path for both runs: eval records its --coords path
    commands = [["index", *ds_flags, "--k", "50", "--out-dir", str(out)],
                ["curves", *ds_flags, "--out-dir", str(out)],
                ["confounders", *ds_flags, "--out-dir", str(out)],
                ["eval", *ds_flags, "--out-dir", str(out)],
                ["relation", *ds_flags, "--out-dir", str(out)],
                ["tsne", *ds_flags, "--tsne-iters", "100", "--tsne-early-iters", "30",
                 "--out-dir", str(out)],
                ["eval", *ds_flags, "--coords", str(out / "tsne_coords.csv"),
                 "--out-dir", str(out / "coords")]]
    script = ("import json, sys\n"
              "from embrobust.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")
    snapshots = []
    for threads in ("1", "2"):
        shutil.rmtree(out, ignore_errors=True)
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        snapshots.append({p.relative_to(out).as_posix(): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(snapshots[0]) == 21
    assert snapshots[0] == snapshots[1]


def grouped_pipeline(tmp_path, n_bio=3, n_conf=3, per_cell=12):
    """A saved dataset in groups of 3 (every fifth sample ungrouped) and the
    argvs of the six analysis subcommands on it, without and with
    --exclude-same-group, into out/plain and out/grouped: {name: argv}."""
    ds = generate(SynthSpec(n_bio=n_bio, n_conf=n_conf, per_cell=per_cell, dim=16,
                            noise_sigma=0.6, conf_strength=1.2, seed=9))
    ds = EmbeddingDataset.from_arrays(ds.ids, ds.vectors, ds.bio_labels, ds.conf_labels,
                                      [f"g{i // 3}" if i % 5 else "" for i in range(ds.n)])
    save_dataset(ds, tmp_path / "manifest.csv", tmp_path / "embeddings.bin")
    ds_flags = ["--manifest", str(tmp_path / "manifest.csv"),
                "--embeddings", str(tmp_path / "embeddings.bin")]
    commands = {}
    for grouping in ([], ["--exclude-same-group"]):
        out = tmp_path / "out" / ("grouped" if grouping else "plain")
        flags = [*ds_flags, *grouping, "--out-dir", str(out)]
        commands.update({f"{name} {out.name}": argv for name, argv in (
            ("index", ["index", *flags, "--k", "10"]),
            ("curves", ["curves", *flags]),
            ("tsne", ["tsne", *ds_flags, "--out-dir", str(out), "--perplexity", "8",
                      "--tsne-iters", "60", "--tsne-early-iters", "20"]),
            ("eval", ["eval", *flags, "--coords", str(out / "tsne_coords.csv"),
                      "--logreg-max-iter", "200"]),
            ("confounders", ["confounders", *flags, "--k-grid", "1,2,4,8", "--reps", "2"]),
            ("relation", ["relation", *flags, "--k-grid", "1,2,4", "--reps", "2",
                          "--logreg-max-iter", "200"]))})
    return commands


def test_subcommands_in_one_process_write_what_fresh_processes_write(tmp_path):
    """The six analysis subcommands, without and with --exclude-same-group,
    write the same bytes run in one interpreter, which shares neighbor
    tables between them, as each run in an interpreter of its own."""
    commands = list(grouped_pipeline(tmp_path).values())
    out = tmp_path / "out"
    src = Path(embrobust.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = ("import json, sys\n"
              "from embrobust.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")
    snapshots = []
    for batches in ([commands], [[argv] for argv in commands]):
        shutil.rmtree(out, ignore_errors=True)
        for batch in batches:
            done = subprocess.run([sys.executable, "-c", script, json.dumps(batch)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
        snapshots.append({p.relative_to(out).as_posix(): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(snapshots[0]) == 2 * 19
    assert snapshots[0] == snapshots[1]


def test_rewritten_inputs_are_not_served_a_held_table(tmp_path):
    """Embeddings rewritten in place with other vectors, or a manifest with
    other group ids under --exclude-same-group, give the report of a run
    that held no table before it."""
    ds = generate(SynthSpec(n_bio=3, n_conf=3, per_cell=8, dim=16, noise_sigma=0.6, seed=1))
    other = generate(SynthSpec(n_bio=3, n_conf=3, per_cell=8, dim=16, noise_sigma=0.6, seed=2))
    regrouped = EmbeddingDataset.from_arrays(other.ids, other.vectors, other.bio_labels,
                                             other.conf_labels,
                                             [f"g{i % 12}" for i in range(other.n)])
    manifest, embeddings = tmp_path / "manifest.csv", tmp_path / "embeddings.bin"
    report = tmp_path / "out" / "robustness.json"
    for grouping in ([], ["--exclude-same-group"]):
        flags = ["index", "--manifest", str(manifest), "--embeddings", str(embeddings),
                 "--k", "5", "--out-dir", str(tmp_path / "out"), *grouping]
        reports = []
        for content in (ds, other, regrouped):
            save_dataset(content, manifest, embeddings)
            assert main(flags) == 0  # after a run on the previous content
            reports.append(report.read_bytes())
            cli._drop_table()
            assert main(flags) == 0
            assert report.read_bytes() == reports[-1]
        assert reports[0] != reports[1]
        assert (reports[1] != reports[2]) == bool(grouping)


def count_fits(monkeypatch) -> list:
    """One entry per ``evaluation.logreg_fit`` call from now on."""
    fits = []
    fit = evaluation.logreg_fit

    def counted(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(evaluation, "logreg_fit", counted)
    return fits


def probe_inputs(tmp_path) -> tuple[EmbeddingDataset, list[str]]:
    """A dataset in groups of 3, saved with a coords file beside it, and its
    --manifest/--embeddings flags."""
    ds = generate(SynthSpec(n_bio=3, n_conf=3, per_cell=10, dim=16, noise_sigma=0.6,
                            conf_strength=1.2, seed=4))
    ds = EmbeddingDataset.from_arrays(ds.ids, ds.vectors, ds.bio_labels, ds.conf_labels,
                                      [f"g{i // 3}" for i in range(ds.n)])
    save_dataset(ds, tmp_path / "manifest.csv", tmp_path / "embeddings.bin")
    xy = np.random.default_rng(0).normal(size=(2, ds.n))
    with open(tmp_path / "coords.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([COORDS_HEADER, *zip(ds.ids, *xy.tolist())])
    return ds, ["--manifest", str(tmp_path / "manifest.csv"),
                "--embeddings", str(tmp_path / "embeddings.bin")]


def relation_after_eval(tmp_path, monkeypatch, eval_flags, relation_flags, edit=None):
    """Run eval, then ``edit(ds)`` (if given) on the saved inputs, then
    relation twice, the second time with nothing held: each relation's
    regression fit count, and whether the two wrote the same bytes."""
    ds, data = probe_inputs(tmp_path)
    eval_argv = ["eval", *data, "--logreg-max-iter", "200",
                 "--out-dir", str(tmp_path / "eval"), *eval_flags]
    assert main([a.replace("COORDS", str(tmp_path / "coords.csv")) for a in eval_argv]) == 0
    if edit is not None:
        save_dataset(edit(ds), tmp_path / "manifest.csv", tmp_path / "embeddings.bin")
    out = tmp_path / "out"
    relation = ["relation", *data, "--k-grid", "1,2,4", "--reps", "2",
                "--logreg-max-iter", "200", "--out-dir", str(out), *relation_flags]
    fits = count_fits(monkeypatch)
    counts, snapshots = [], []
    for _ in range(2):
        before = len(fits)
        assert main(relation) == 0
        counts.append(len(fits) - before)
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        cli._drop_held()
    assert len(snapshots[0]) == 3
    return counts, snapshots[0] == snapshots[1]


@pytest.mark.parametrize("eval_flags, relation_flags", [
    ([], []),
    (["--coords", "COORDS"], []),
    (["--exclude-same-group"], []),
    ([], ["--exclude-same-group"]),
    (["--seed", "3", "--folds", "4", "--lambda", "0.01"],
     ["--seed", "3", "--folds", "4", "--lambda", "0.01"]),
], ids=["plain", "coords", "eval_grouped", "relation_grouped", "same_other_settings"])
def test_relation_after_eval_fits_no_regression(tmp_path, monkeypatch, eval_flags,
                                                relation_flags):
    """relation reuses the bio probe eval fit on the same content, with or
    without --coords or --exclude-same-group on either side, and writes the
    bytes of a relation that fit its own."""
    fits, same_bytes = relation_after_eval(tmp_path, monkeypatch, eval_flags, relation_flags)
    assert fits == [0, 4 if "--folds" in relation_flags else 5]
    assert same_bytes


def other_vectors(ds: EmbeddingDataset) -> EmbeddingDataset:
    noise = np.random.default_rng(1).normal(scale=0.3, size=ds.vectors.shape)
    return EmbeddingDataset.from_arrays(ds.ids, ds.vectors + noise, ds.bio_labels,
                                        ds.conf_labels, ds.group_ids)


def other_bio_labels(ds: EmbeddingDataset) -> EmbeddingDataset:
    """Every bio class renamed in sorted order: the codes, so the folds, stay."""
    renamed = EmbeddingDataset.from_arrays(ds.ids, ds.vectors,
                                           [f"x{b}" for b in ds.bio_labels],
                                           ds.conf_labels, ds.group_ids)
    assert (assign_folds(renamed, 5, 0).fold_of == assign_folds(ds, 5, 0).fold_of).all()
    return renamed


@pytest.mark.parametrize("eval_flags, relation_flags, edit", [
    ([], ["--seed", "1"], None),
    ([], ["--folds", "4"], None),
    ([], ["--lambda", "0.01"], None),
    ([], ["--logreg-max-iter", "150"], None),
    ([], [], other_vectors),
    ([], [], other_bio_labels),
    (["--target", "conf"], [], None),
], ids=["seed", "folds", "lambda", "max_iter", "rewritten_embeddings", "other_bio_labels",
        "eval_conf_only"])
def test_relation_refits_a_probe_eval_did_not_fit(tmp_path, monkeypatch, eval_flags,
                                                  relation_flags, edit):
    """relation after an eval whose bio probe differs in anything the probe
    reads fits its own, one regression per fold, and writes the bytes of a
    relation run with nothing held."""
    fits, same_bytes = relation_after_eval(tmp_path, monkeypatch, eval_flags, relation_flags,
                                           edit)
    n_folds = 4 if "--folds" in relation_flags else 5
    assert fits == [n_folds, n_folds]
    assert same_bytes


def test_held_probes_are_those_of_the_last_vectors(tmp_path):
    """A probe fit on other vectors drops the ones held, so a process holds
    the probes of one set of vectors at a time."""
    ds, data = probe_inputs(tmp_path)
    flags = [*data, "--logreg-max-iter", "200", "--out-dir", str(tmp_path / "out")]
    assert main(["eval", *flags]) == 0
    assert [key[1] for key in cli._held_probes] == ["bio", "conf"]
    save_dataset(other_vectors(ds), tmp_path / "manifest.csv", tmp_path / "embeddings.bin")
    assert main(["relation", *flags, "--k-grid", "1,2", "--reps", "1"]) == 0
    assert [key[1] for key in cli._held_probes] == ["bio"]


def test_relation_k_grid_beyond_the_folds_exits_3(tmp_path, capsys):
    """With or without eval's probe held, a k the training folds cannot hold
    exits 3 with one message and writes no out-dir."""
    _, data = probe_inputs(tmp_path)
    relation = ["relation", *data, "--k-grid", "1,80", "--reps", "2",
                "--logreg-max-iter", "200", "--out-dir", str(tmp_path / "out")]
    assert main(relation) == 3  # no probe held: fit first, then refused
    cold = capsys.readouterr().err
    assert cold.startswith("analysis precondition failed: k=80 exceeds training-fold size (")
    assert cold.count("\n") == 1
    assert main(["eval", *data, "--logreg-max-iter", "200",
                 "--out-dir", str(tmp_path / "eval")]) == 0
    capsys.readouterr()
    assert main(relation) == 3
    assert capsys.readouterr().err == cold
    assert not (tmp_path / "out").exists()


def test_shared_table_raises_no_subcommands_traced_peak(tmp_path, monkeypatch):
    """In one process at n = 600, no subcommand traces more than 1 MiB above
    its peak with no table held before it: tsne ranks from the held table
    (2.9 MB), which eval --coords drops once its kNN probes have read it, so
    eval --coords peaks no higher than eval without coordinates."""
    # one worker: with two, whether two 1 MB tasks overlap moves a peak by 1 MiB
    monkeypatch.setattr(neighbors, "_workers", lambda: 1)
    commands = {name: argv for name, argv in
                grouped_pipeline(tmp_path, n_bio=5, n_conf=5, per_cell=24).items()
                if name.endswith("plain")}
    at = commands["eval plain"].index("--coords")
    plain_eval = commands["eval plain"][:at] + commands["eval plain"][at + 2:]

    def peak(argv) -> int:
        gc.collect()
        tracemalloc.reset_peak()
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        for argv in commands.values():  # what first calls allocate for good
            assert main(argv) == 0
        cli._drop_table()
        warm = {name: peak(argv) for name, argv in commands.items()}
        cold = {}
        for name, argv in commands.items():
            cli._drop_table()
            cold[name] = peak(argv)
        cli._drop_table()
        eval_without_coords = peak(plain_eval)
    finally:
        tracemalloc.stop()
    for name in commands:
        assert warm[name] <= cold[name] + 2**20, (name, warm[name], cold[name])
    assert warm["eval plain"] <= eval_without_coords + 2**20


def count_distance_work(monkeypatch) -> tuple[list, list]:
    """The metric of every table the CLI builds, and of every
    ``pairwise_distances`` call, from now on, in call order."""
    builds, products = [], []
    pairwise_distances = neighbors.pairwise_distances

    def build(ds, metric="cosine", **kwargs):
        builds.append(metric)
        return build_neighbor_table(ds, metric=metric, **kwargs)

    def pairwise(vectors, metric="cosine"):
        products.append(metric)
        return pairwise_distances(vectors, metric)

    monkeypatch.setattr(cli, "build_neighbor_table", build)
    for module in (neighbors, projection):
        monkeypatch.setattr(module, "pairwise_distances", pairwise)
    return builds, products


def test_tsne_and_eval_reuse_the_table_index_built(workspace, tmp_path, monkeypatch):
    """After index, tsne ranks its affinities and its trustworthiness from
    the held cosine table: it builds none, and its one distance product is
    the 2D coordinates'. eval --coords then builds only the 2D table, and
    frees the held one before its first regression fit."""
    ds_flags = ["--manifest", str(workspace / "data" / "manifest.csv"),
                "--embeddings", str(workspace / "data" / "embeddings.bin")]
    out = tmp_path / "out"
    assert main(["index", *ds_flags, "--k", "10", "--out-dir", str(out)]) == 0
    builds, products = count_distance_work(monkeypatch)
    assert main(["tsne", *ds_flags, "--out-dir", str(out), "--perplexity", "8",
                 "--tsne-iters", "80", "--tsne-early-iters", "30", "--seed", "2"]) == 0
    assert (builds, products) == ([], ["euclidean"])
    held = weakref.ref(cli._held_table[1])
    table_alive_at_fit = []
    fit = evaluation.logreg_fit

    def watched(*args, **kwargs):
        table_alive_at_fit.append(held() is not None)
        return fit(*args, **kwargs)

    monkeypatch.setattr(evaluation, "logreg_fit", watched)
    assert main(["eval", *ds_flags, "--out-dir", str(out), "--logreg-max-iter", "300",
                 "--coords", str(out / "tsne_coords.csv")]) == 0
    assert (builds, products) == (["euclidean"], ["euclidean", "euclidean"])
    assert table_alive_at_fit == [False] * 20  # 2 targets x 5 folds, embedding and 2D
    for name in ("tsne.json", "tsne_coords.csv"):
        assert (out / name).read_bytes() == (workspace / "out" / name).read_bytes(), name
    reports = [json.loads((where / "eval.json").read_text()) for where in (out, workspace / "out")]
    for block in ("embedding", "tsne2d"):
        assert reports[0][block] == reports[1][block]


def test_outputs_identical_across_ranking_worker_counts(tmp_path, monkeypatch):
    """index, curves, confounders, eval --exclude-same-group and relation
    --exclude-same-group write the same bytes with 1 worker and with 3,
    each ranking and each kNN vote split into many tasks."""
    ds = generate(SynthSpec(n_bio=3, n_conf=3, per_cell=14, dim=16, noise_sigma=0.6,
                            conf_strength=1.2, seed=8))
    ds = EmbeddingDataset.from_arrays(ds.ids, ds.vectors, ds.bio_labels, ds.conf_labels,
                                      [f"g{i % 30}" for i in range(ds.n)])
    save_dataset(ds, tmp_path / "manifest.csv", tmp_path / "embeddings.bin")
    ds_flags = ["--manifest", str(tmp_path / "manifest.csv"),
                "--embeddings", str(tmp_path / "embeddings.bin")]
    monkeypatch.setattr(neighbors, "_TASK_ELEMS", 300)
    snapshots = []
    for workers in (1, 3):
        monkeypatch.setattr(neighbors, "_workers", lambda: workers)
        out = tmp_path / f"out{workers}"
        for argv in (["index", "--k", "10"], ["curves"],
                     ["confounders", "--k-grid", "1,3,9", "--reps", "2"],
                     ["eval", "--exclude-same-group", "--logreg-max-iter", "200"],
                     ["relation", "--exclude-same-group", "--k-grid", "1,3,9", "--reps", "2",
                      "--logreg-max-iter", "200"]):
            assert main([*argv, *ds_flags, "--out-dir", str(out)]) == 0
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(snapshots[0]) == 13
    assert snapshots[0] == snapshots[1]


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, expected", [
    (["synth", "--n-bio", "2", "--n-conf", "2", "--per-cell", "6", "--dim", "8"],
     ["embeddings.bin", "manifest.csv"]),
    (["index", "--k", "5"], ["robustness.json", "robustness_index.svg"]),
    (["curves"], ["frequency_curves.csv", "frequency_curves.svg"]),
    (["tsne", "--perplexity", "8", "--tsne-iters", "40", "--tsne-early-iters", "10"],
     ["tsne.json", "tsne_bio.svg", "tsne_conf.svg", "tsne_coords.csv", "tsne_kl.csv"]),
    (["eval", "--coords", "COORDS", "--logreg-max-iter", "200"],
     ["accuracy_embedding.svg", "accuracy_tsne2d.svg", "eval.json"]),
    (["eval", "--logreg-max-iter", "200"], ["accuracy_embedding.svg", "eval.json"]),
    (["eval", "--target", "conf", "--coords", "COORDS", "--logreg-max-iter", "200"],
     ["eval.json"]),
    (["confounders", "--k-grid", "1,2", "--reps", "1"],
     ["confounders.csv", "confounders.json", "confounders.svg"]),
    (["relation", "--k-grid", "1,2", "--reps", "1", "--logreg-max-iter", "200"],
     ["relation.csv", "relation.json", "relation.svg"]),
], ids=["synth", "index", "curves", "tsne", "eval", "eval_no_coords", "eval_conf",
        "confounders", "relation"])
def test_manifest_outputs_are_the_files_written(workspace, tmp_path, argv, expected):
    """A run's ``outputs`` names every file it wrote into its out-dir but the
    ``<subcommand>_run.json`` holding the manifest itself."""
    sub = argv[0]
    data = workspace / "data"
    ds_flags = ([] if sub == "synth" else
                ["--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin")])
    coords = str(workspace / "out" / "tsne_coords.csv")
    out = tmp_path / "out"
    assert main([*(coords if a == "COORDS" else a for a in argv), *ds_flags,
                 "--out-dir", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir())
    if sub in ("synth", "curves"):
        written.remove(f"{sub}_run.json")
        run = json.loads((out / f"{sub}_run.json").read_text())
    else:
        reports = [name for name in written if name.endswith(".json")]
        assert len(reports) == 1
        run = json.loads((out / reports[0]).read_text())["run"]
    assert run["subcommand"] == sub
    assert run["outputs"] == written == expected


# ---------------------------------------------------------------------------
# SVG structure
# ---------------------------------------------------------------------------

def test_curves_svg_has_two_series(workspace):
    series = svg_elements(workspace / "out" / "frequency_curves.svg",
                          "polyline", "series")
    assert len(series) == 2
    labels = {s.get("data-label") for s in series}
    assert labels == {"same biological class", "same confounder class"}


def test_index_svg_bars(workspace, tmp_path):
    data = workspace / "data"
    # three datasets: reuse the same files under different names
    flags = ["index", "--out-dir", str(tmp_path), "--k", "5"]
    for name in ("m1", "m2", "m3"):
        flags += ["--manifest", str(data / "manifest.csv"),
                  "--embeddings", str(data / "embeddings.bin"), "--name", name]
    assert main(flags) == 0
    bars = svg_elements(tmp_path / "robustness_index.svg", "rect", "bar")
    assert len(bars) == 3
    payload = json.loads((tmp_path / "robustness.json").read_text())
    expected = sorted(payload["datasets"], key=lambda e: e["r_k"])
    assert [b.get("data-label") for b in bars] == [e["name"] for e in expected]


def test_index_svg_names_bars_without_x_ticks(workspace):
    """The bar chart's x axis is its bar names: nothing else sits on their
    baseline."""
    root = ET.fromstring((workspace / "out" / "robustness_index.svg").read_text())
    texts = list(root.iter(f"{SVG_NS}text"))
    baseline = {t.get("y") for t in texts if t.get("class") == "bar-name"}
    assert len(baseline) == 1
    assert [t.text for t in texts if t.get("y") in baseline] == ["demo"]


def test_confounders_svg_structure(workspace):
    path = workspace / "out" / "confounders.svg"
    assert len(svg_elements(path, "polyline", "series")) == 3
    rules = svg_elements(path, "line", "rule")
    assert len(rules) == 1 and rules[0].get("data-label") == "chance level"


def test_relation_svg_structure(workspace):
    path = workspace / "out" / "relation.svg"
    root = ET.fromstring(path.read_text())
    markers = [e for e in root.iter(f"{SVG_NS}circle") if e.get("class") == "marker"]
    assert markers  # binned curve rendered with markers


def test_tsne_json_reports_what_took_effect(workspace, tmp_path):
    ds = _dataset(workspace)
    payload = json.loads((workspace / "out" / "tsne.json").read_text())
    cfg = TsneConfig(perplexity=8, iterations=80, early_exaggeration_iters=30, seed=2)
    nt = build_neighbor_table(ds)
    result = tsne(nt, cfg)
    assert payload["run"]["parameters"]["learning_rate"] is None
    assert payload["learning_rate"] == result.learning_rate == ds.n / 12
    assert payload["affinities"] == {"neighbors": 24, "pairs": result.pairs,
                                     "uniform_rows": 0}
    assert 12 * ds.n <= result.pairs <= 24 * ds.n  # each row's 24, once or twice
    # scored in t-SNE's own geometry, the cosine table
    cosine = trustworthiness(nt, result.coords, 12)
    assert payload["trustworthiness"] == {"k": 12, "metric": "cosine", "value": cosine}
    assert cosine != trustworthiness(build_neighbor_table(ds, metric="euclidean"),
                                     result.coords, 12)
    ds_flags = ["--manifest", str(workspace / "data" / "manifest.csv"),
                "--embeddings", str(workspace / "data" / "embeddings.bin")]
    assert main(["tsne", *ds_flags, "--out-dir", str(tmp_path), "--perplexity", "8",
                 "--tsne-iters", "80", "--tsne-early-iters", "30", "--seed", "2",
                 "--tsne-lr", "50"]) == 0
    given = json.loads((tmp_path / "tsne.json").read_text())
    assert given["run"]["parameters"]["learning_rate"] == given["learning_rate"] == 50.0


def test_tsne_svg_pair_same_positions_different_colors(workspace):
    ds = _dataset(workspace)
    bio = svg_elements(workspace / "out" / "tsne_bio.svg", "circle", "pt")
    conf = svg_elements(workspace / "out" / "tsne_conf.svg", "circle", "pt")
    assert len(bio) == len(conf) == ds.n
    pos_bio = [(e.get("cx"), e.get("cy")) for e in bio]
    pos_conf = [(e.get("cx"), e.get("cy")) for e in conf]
    assert pos_bio == pos_conf
    fills_bio = [e.get("fill") for e in bio]
    fills_conf = [e.get("fill") for e in conf]
    assert fills_bio != fills_conf
    assert len(set(fills_bio)) == len(ds.bio_classes)
    assert len(set(fills_conf)) == len(ds.conf_classes)


def test_eval_svg_labeled_points(workspace):
    for name in ("accuracy_embedding.svg", "accuracy_tsne2d.svg"):
        path = workspace / "out" / name
        pts = svg_elements(path, "circle", "pt")
        assert len(pts) == 2
        root = ET.fromstring(path.read_text())
        labels = [e.text for e in root.iter(f"{SVG_NS}text")
                  if e.get("class") == "pt-label"]
        assert labels == ["knn (k=3)", "logreg"]


def test_svg_carries_run_id(workspace):
    payload = json.loads((workspace / "out" / "robustness.json").read_text())
    root = ET.fromstring((workspace / "out" / "robustness_index.svg").read_text())
    assert root.get("data-run") == payload["run"]["run_id"]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_k_zero(workspace, tmp_path):
    data = workspace / "data"
    assert main(["index", "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--k", "0", "--out-dir", str(tmp_path)]) == 2


def test_missing_input_file(tmp_path):
    assert main(["curves", "--manifest", str(tmp_path / "nope.csv"),
                 "--embeddings", str(tmp_path / "nope.bin"),
                 "--out-dir", str(tmp_path)]) == 2


def test_reps_zero_usage_error(workspace, tmp_path):
    data = workspace / "data"
    assert main(["confounders", "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--reps", "0", "--out-dir", str(tmp_path)]) == 2


def test_bad_target_usage_error(workspace, tmp_path, capsys):
    data = workspace / "data"
    assert main(["eval", "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--target", "nope", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: argument --target: invalid choice: 'nope' "
                   "(choose from 'both', 'bio', 'conf')\n")


def test_eval_single_target(workspace, tmp_path):
    data = workspace / "data"
    assert main(["eval", "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--target", "conf", "--logreg-max-iter", "200",
                 "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "eval.json").read_text())
    assert "conf" in payload["embedding"]["knn"]
    assert "bio" not in payload["embedding"]["knn"]
    # the two-axis scatter needs both targets, so it is not emitted
    assert not (tmp_path / "accuracy_embedding.svg").exists()


def test_no_covered_class_exits_3(tmp_path):
    data = tmp_path / "diag"
    assert main(["synth", "--out-dir", str(data), "--n-bio", "2", "--n-conf", "2",
                 "--per-cell", "6", "--empty-cells", "0:1,1:0", "--dim", "8",
                 "--seed", "1"]) == 0
    assert main(["confounders", "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--k-grid", "1,2", "--reps", "1",
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_undefined_index_exits_3(tmp_path):
    data = tmp_path / "distinct"
    assert main(["synth", "--out-dir", str(data), "--n-bio", "1", "--n-conf", "12",
                 "--per-cell", "1", "--dim", "16", "--seed", "0"]) == 0
    assert main(["index", "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--k", "3", "--out-dir", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_tsne_too_small_exits_2(tmp_path):
    data = tmp_path / "tiny"
    assert main(["synth", "--out-dir", str(data), "--n-bio", "2", "--n-conf", "2",
                 "--per-cell", "2", "--dim", "8", "--seed", "0"]) == 0
    assert main(["tsne", "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--out-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--perplexity", "5", "--tsne-iters", "0", "--tsne-early-iters", "0"],
     "argument --tsne-iters: must be an integer >= 1, got '0'"),
    (["--perplexity", "0"], "argument --perplexity: must be a finite number >= 1, got '0'"),
    (["--perplexity", "-3"], "argument --perplexity: must be a finite number >= 1, got '-3'"),
    (["--perplexity", "nan"], "argument --perplexity: must be a finite number >= 1, got 'nan'"),
    (["--perplexity", "0.5"], "argument --perplexity: must be a finite number >= 1, got '0.5'"),
    (["--tsne-early-iters", "-1"],
     "argument --tsne-early-iters: must be an integer >= 0, got '-1'"),
    (["--tsne-lr", "0"], "argument --tsne-lr: must be a finite number > 0, got '0'"),
    (["--tsne-lr", "-200"], "argument --tsne-lr: must be a finite number > 0, got '-200'"),
    (["--tsne-early-factor", "-1"],
     "argument --tsne-early-factor: must be a finite number > 0, got '-1'"),
    (["--tsne-early-factor", "inf"],
     "argument --tsne-early-factor: must be a finite number > 0, got 'inf'"),
    (["--tsne-iters", "100", "--tsne-early-iters", "250"],
     "--tsne-iters must cover --tsne-early-iters, got 100 < 250"),
], ids=["no_iterations", "perplexity_zero", "perplexity_negative", "perplexity_nan",
        "perplexity_below_1", "negative_early_iters", "lr_zero", "lr_negative",
        "early_factor_negative", "early_factor_inf", "iters_below_early"])
def test_tsne_bad_settings_exit_2(workspace, tmp_path, capsys, nothing_loaded, flags,
                                  message):
    data = workspace / "data"
    out = tmp_path / "out"
    assert main(["tsne", "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--out-dir", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.fixture
def nothing_loaded(monkeypatch):
    """Fail the test if the subcommand loads data or builds a neighbor table."""
    def no_analysis(*args, **kwargs):
        raise AssertionError("an analysis ran")

    monkeypatch.setattr(cli, "build_neighbor_table", no_analysis)
    monkeypatch.setattr(cli, "load_dataset", no_analysis)


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--lambda", "-1"],
                 "argument --lambda: must be a finite number >= 0, got '-1'", id="-1"),
    pytest.param(["--lambda", "nan"],
                 "argument --lambda: must be a finite number >= 0, got 'nan'", id="nan"),
    pytest.param(["--lambda", "inf"],
                 "argument --lambda: must be a finite number >= 0, got 'inf'", id="inf"),
    pytest.param(["--logreg-max-iter", "0"],
                 "argument --logreg-max-iter: must be an integer >= 1, got '0'",
                 id="max-iter-0"),
    pytest.param(["--logreg-max-iter", "-5"],
                 "argument --logreg-max-iter: must be an integer >= 1, got '-5'",
                 id="max-iter--5"),
])
@pytest.mark.parametrize("argv", [["eval"], ["relation", "--k-grid", "1,2", "--reps", "1"]],
                         ids=["eval", "relation"])
def test_bad_lambda_exits_2(workspace, tmp_path, capsys, nothing_loaded, argv, flags,
                            message):
    """A bad --lambda or --logreg-max-iter is rejected before any analysis runs."""
    data = workspace / "data"
    out = tmp_path / "out"
    assert main([*argv, "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 *flags, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param([sub, "--folds", "1"], "argument --folds: must be an integer >= 2, got '1'",
                 id=sub)
    for sub in ("eval", "confounders", "relation")
] + [
    pytest.param(["tsne", "--tsne-iters", "100", "--tsne-early-iters", "250"],
                 "--tsne-iters must cover --tsne-early-iters, got 100 < 250", id="tsne"),
])
def test_flag_errors_exit_2_before_loading(workspace, tmp_path, capsys, nothing_loaded,
                                           argv, message):
    data = workspace / "data"
    out = tmp_path / "out"
    assert main([*argv, "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# one bad value for each flag that has a rule of its own
FLAG_RULES = [
    ("synth", "--n-bio", "0"), ("synth", "--n-conf", "-1"), ("synth", "--per-cell", "-1"),
    ("synth", "--dim", "1"), ("synth", "--bio-strength", "nan"),
    ("synth", "--conf-strength", "-0.5"), ("synth", "--noise-sigma", "0"),
    ("index", "--k", "0"),
    ("eval", "--k", "-2"), ("eval", "--lambda", "-0.001"), ("eval", "--folds", "1"),
    ("eval", "--logreg-max-iter", "0"), ("eval", "--target", "all"),
    ("confounders", "--k-grid", "1,0"), ("confounders", "--reps", "0"),
    ("confounders", "--folds", "0"),
    ("relation", "--k-grid", "2,x"), ("relation", "--reps", "-1"),
    ("relation", "--folds", "1"), ("relation", "--lambda", "inf"),
    ("relation", "--logreg-max-iter", "0"),
    ("tsne", "--perplexity", "0"), ("tsne", "--tsne-lr", "nan"),
    ("tsne", "--tsne-early-factor", "-1"), ("tsne", "--tsne-iters", "0"),
    ("tsne", "--tsne-early-iters", "-1"),
] + [(sub, "--seed", "-1")
     for sub in ("synth", "index", "curves", "eval", "confounders", "tsne", "relation")]


@pytest.fixture
def nothing_generated(nothing_loaded, monkeypatch):
    """``nothing_loaded``, and fail the test if synth generates a dataset."""
    def no_generation(*args, **kwargs):
        raise AssertionError("a dataset was generated")

    monkeypatch.setattr(cli, "generate", no_generation)


@pytest.mark.parametrize("sub, flag, value", FLAG_RULES,
                         ids=[f"{sub}{flag}" for sub, flag, _ in FLAG_RULES])
def test_every_flag_rule_rejects_at_parse_time(tmp_path, capsys, nothing_generated,
                                               sub, flag, value):
    """Each rule lives on its flag's declaration: one line naming the flag and
    the value, exit 2, nothing loaded or generated, no out-dir."""
    out = tmp_path / "out"
    data = [] if sub == "synth" else ["--manifest", "m.csv", "--embeddings", "e.bin"]
    assert main([sub, *data, flag, value, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    # --k-grid names its bad entry, the last one in these cases
    assert err.startswith(f"error: argument {flag}: ") and repr(value.split(",")[-1]) in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["index", "--k", "abc", "--manifest", "m.csv", "--embeddings", "e.bin", "--out-dir", "OUT"],
     "argument --k: must be an integer >= 1, got 'abc'"),
    (["curves", "--manifest", "m.csv", "--embeddings", "e.bin", "--out-dir", "OUT", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["eval", "--manifest", "m.csv"],
     "the following arguments are required: --out-dir, --embeddings"),
    (["synth", "--embeddings-format", "txt", "--out-dir", "OUT"],
     "argument --embeddings-format: invalid choice: 'txt' (choose from 'binary', 'csv')"),
    ([], "the following arguments are required: COMMAND"),
    (["curves", "--manifest", "m.csv", "--embeddings", "e.bin", "--out-dir", "OUT", "a\nb"],
     "unrecognized arguments: a\\nb"),
    (["eval", "--manifest", "m.csv", "--embeddings", "e.bin", "--out-dir", "OUT",
      "--lambda", "-1e-3"],
     "argument --lambda: must be a finite number >= 0, got '-1e-3'"),
    (["tsne", "--manifest", "m.csv", "--embeddings", "e.bin", "--out-dir", "OUT",
      "--tsne-lr", "-inf"],
     "argument --tsne-lr: must be a finite number > 0, got '-inf'"),
], ids=["non_numeric", "unknown_flag", "missing_required", "bad_choice", "no_subcommand",
        "newline_in_token", "negative_exponent", "negative_infinity"])
def test_parse_errors_are_one_line(tmp_path, capsys, nothing_generated, argv, message):
    out = tmp_path / "out"
    assert main([str(out) if a == "OUT" else a for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def record_builds(monkeypatch) -> list:
    """Weak references to every table the CLI builds from now on; a build
    fails while a table built before it is alive."""
    built = []

    def build(ds, **kwargs):
        assert all(ref() is None for ref in built), "an earlier model's table is alive"
        nt = build_neighbor_table(ds, **kwargs)
        built.append(weakref.ref(nt))
        return nt

    monkeypatch.setattr(cli, "build_neighbor_table", build)
    return built


def test_index_holds_one_model_at_a_time(tmp_path, monkeypatch):
    """When the table of model m is built, those of earlier models are freed."""
    flags = ["index", "--out-dir", str(tmp_path / "out"), "--k", "5"]
    for m in range(3):
        ds = generate(SynthSpec(n_bio=3, n_conf=3, per_cell=6, dim=16, seed=m))
        save_dataset(ds, tmp_path / f"m{m}.csv", tmp_path / f"e{m}.bin")
        flags += ["--manifest", str(tmp_path / f"m{m}.csv"),
                  "--embeddings", str(tmp_path / f"e{m}.bin")]
    built = record_builds(monkeypatch)
    assert main(flags) == 0
    assert len(built) == 3


def test_index_builds_one_table_for_one_model_listed_three_times(workspace, tmp_path,
                                                                 monkeypatch):
    built = record_builds(monkeypatch)
    data = workspace / "data"
    flags = ["index", "--out-dir", str(tmp_path), "--k", "5"]
    for _ in range(3):
        flags += ["--manifest", str(data / "manifest.csv"),
                  "--embeddings", str(data / "embeddings.bin")]
    assert main(flags) == 0
    assert len(built) == 1
    entries = json.loads((tmp_path / "robustness.json").read_text())["datasets"]
    assert len(entries) == 3
    assert entries == [entries[0]] * 3


def test_index_ten_models_of_mixed_width(tmp_path):
    """The paper's comparison shape: ten models, embedding widths 16 to 48.
    ``robustness.json`` keeps input order; the chart orders its bars by r_k."""
    flags = ["index", "--k", "5"]
    names = []
    for m in range(10):
        ds = generate(SynthSpec(n_bio=3, n_conf=3, per_cell=6, dim=(16, 24, 32, 48)[m % 4],
                                conf_strength=0.2 * m, noise_sigma=0.6, seed=m))
        save_dataset(ds, tmp_path / f"m{m}.csv", tmp_path / f"e{m}.bin")
        names.append(f"model{m}")
        flags += ["--manifest", str(tmp_path / f"m{m}.csv"),
                  "--embeddings", str(tmp_path / f"e{m}.bin"), "--name", names[-1]]
    outs = [tmp_path / "out1", tmp_path / "out2"]
    for out in outs:
        assert main([*flags, "--out-dir", str(out)]) == 0

    entries = json.loads((outs[0] / "robustness.json").read_text())["datasets"]
    assert [e["name"] for e in entries] == names
    ranked = sorted(entries, key=lambda e: e["r_k"])
    assert ranked != entries
    svg = outs[0] / "robustness_index.svg"
    assert [b.get("data-label") for b in svg_elements(svg, "rect", "bar")] == [
        e["name"] for e in ranked]
    assert [t.text for t in svg_elements(svg, "text", "bar-value")] == [
        e["r_k_display"] for e in ranked]
    for name in ("robustness.json", "robustness_index.svg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("cells", ["-1:0", "0:-1", "0:2"])
def test_synth_rejects_empty_cells_outside_the_grid(tmp_path, capsys, cells):
    out = tmp_path / "out"
    assert main(["synth", "--out-dir", str(out), "--n-bio", "2", "--n-conf", "2",
                 "--per-cell", "6", "--dim", "8", f"--empty-cells={cells}"]) == 2
    assert capsys.readouterr().err == f"error: bad --empty-cells entry {cells!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["curves"], "no neighbor rank is usable by every sample under group exclusion "
                 "(one group holds all 108 samples)"),
    (["index", "--k", "5"], "k=5 exceeds usable neighbor depth 0"),
], ids=["curves", "index"])
def test_one_group_under_exclusion_exits_2(workspace, tmp_path, capsys, argv, message):
    """With every sample in one group, group exclusion leaves no usable rank."""
    ds = _dataset(workspace)
    one_group = EmbeddingDataset.from_arrays(ds.ids, ds.vectors, ds.bio_labels,
                                             ds.conf_labels, ["g"] * ds.n)
    save_dataset(one_group, tmp_path / "manifest.csv", tmp_path / "embeddings.bin")
    out = tmp_path / "out"
    assert main([*argv, "--manifest", str(tmp_path / "manifest.csv"),
                 "--embeddings", str(tmp_path / "embeddings.bin"),
                 "--exclude-same-group", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_invalid_dim_exits_2(tmp_path):
    assert main(["synth", "--out-dir", str(tmp_path), "--n-bio", "5",
                 "--n-conf", "5", "--per-cell", "2", "--dim", "4"]) == 2


@pytest.mark.parametrize("sub", ["curves", "synth"])
def test_out_dir_that_cannot_be_created_exits_2(workspace, tmp_path, capsys, sub):
    blocker = tmp_path / "file"
    blocker.write_text("")
    data = workspace / "data"
    if sub == "curves":  # a directory below a file: NotADirectoryError
        argv = ["curves", "--manifest", str(data / "manifest.csv"),
                "--embeddings", str(data / "embeddings.bin"),
                "--out-dir", str(blocker / "sub")]
    else:  # the out-dir is an existing file: FileExistsError
        argv = ["synth", "--n-bio", "2", "--n-conf", "2", "--per-cell", "6",
                "--dim", "8", "--out-dir", str(blocker)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(blocker) in err


def test_usage_error_without_subcommand(capsys):
    assert main([]) == 2
    assert "COMMAND" in capsys.readouterr().err


def test_knn_k_too_large_for_folds_exits_3(workspace, tmp_path):
    data = workspace / "data"
    assert main(["eval", "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--k", "100", "--out-dir", str(tmp_path)]) == 3


def _replace_row(i, text):
    return lambda lines: lines[:i] + [text(lines[i])] + lines[i + 1:]


@pytest.mark.parametrize("edit, message", [
    (_replace_row(1, lambda row: row.rsplit(",", 1)[0]), "row 0 has 2 fields, expected 3"),
    (_replace_row(2, lambda row: row.split(",")[0] + ",abc,1.0"),
     "row 1: non-numeric coordinate"),
    (_replace_row(2, lambda row: row.split(",")[0] + ",nan,1.0"),
     "row 1: non-finite coordinate"),
    (_replace_row(3, lambda row: row.split(",")[0] + ",0.5,inf"),
     "row 2: non-finite coordinate"),
    (lambda lines: lines + [lines[1]], "duplicate sample id"),
    (lambda lines: lines + ["ghost,0.0,0.0"], "sample id 'ghost' is not in the manifest"),
    # the first defect in file order is the one reported
    (lambda lines: _replace_row(3, lambda row: row.rsplit(",", 1)[0])(
        _replace_row(1, lambda row: row.split(",")[0] + ",abc,1.0")(lines)),
     "row 0: non-numeric coordinate"),
], ids=["short_row", "non_numeric", "nan", "inf", "duplicate_id", "unknown_id",
        "first_defect_wins"])
def test_eval_rejects_malformed_coords(workspace, tmp_path, capsys, edit, message):
    lines = (workspace / "out" / "tsne_coords.csv").read_text().splitlines()
    bad = tmp_path / "coords.csv"
    bad.write_text("\n".join(edit(lines)) + "\n")
    data = workspace / "data"
    rc = main(["eval", "--manifest", str(data / "manifest.csv"),
               "--embeddings", str(data / "embeddings.bin"),
               "--coords", str(bad), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert f"{bad}: row " in err and message in err


def _coords_at(path, lines, scale):
    """``lines``' ids at the corners (±scale, ±scale), so points lie opposite
    each other at every distance the corners allow."""
    rows = [f"{line.split(',')[0]},{scale * (-1) ** i!r},{scale * (-1) ** (i % 3 > 0)!r}"
            for i, line in enumerate(lines[1:])]
    path.write_text("\n".join([lines[0], *rows]) + "\n")


def test_eval_rejects_coords_that_overflow(workspace, tmp_path, capsys):
    # finite, but their squared distances and the probes' variances overflow
    lines = (workspace / "out" / "tsne_coords.csv").read_text().splitlines()
    data = workspace / "data"
    flags = ["eval", "--manifest", str(data / "manifest.csv"),
             "--embeddings", str(data / "embeddings.bin"), "--logreg-max-iter", "300"]
    bad = tmp_path / "huge.csv"
    _coords_at(bad, lines, 1e200)
    assert main([*flags, "--coords", str(bad), "--out-dir", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("input error: ") and f"{bad}: row 0: non-finite coordinate, or" in err
    assert not (tmp_path / "bad").exists()
    # just past the largest magnitude accepted, and at it: there no
    # arithmetic warns (warnings fail the test) and every accuracy is a number
    _coords_at(bad, lines, float(np.nextafter(1e150, np.inf)))
    assert main([*flags, "--coords", str(bad), "--out-dir", str(tmp_path / "bad")]) == 2
    assert "row 0: non-finite coordinate, or one over 1e+150" in capsys.readouterr().err
    edge = tmp_path / "edge.csv"
    _coords_at(edge, lines, 1e150)
    assert main([*flags, "--coords", str(edge), "--out-dir", str(tmp_path / "edge_out")]) == 0
    block = json.loads((tmp_path / "edge_out" / "eval.json").read_text())["tsne2d"]
    for probe in ("knn", "logreg"):
        for target in ("bio", "conf"):
            assert all(0.0 <= a <= 1.0 for a in block[probe][target]["fold_accuracy"])


@pytest.mark.parametrize("manifest, embeddings, message", [
    (b"sample_id,bio_label,conf_label,group_id\na,T,C,\n\xff,T,C,\n", b"1,0\n0,1\n",
     "manifest.csv: manifest is not UTF-8 text"),
    (b"sample_id,bio_label,conf_label,group_id\na,T,C,\nb,T,C,\n", b"1,0\n3.5e38,1\n",
     "non-finite value in embedding row 1"),
    (b"sample_id,bio_label,conf_label,group_id\n" + b"a" * 200_000 + b",T,C,\nb,T,C,\n",
     b"1,0\n0,1\n", "manifest.csv: field larger than field limit"),
], ids=["manifest_not_utf8", "beyond_float32", "field_over_csv_limit"])
def test_malformed_input_is_one_line(tmp_path, capsys, manifest, embeddings, message):
    (tmp_path / "manifest.csv").write_bytes(manifest)
    (tmp_path / "emb.csv").write_bytes(embeddings)
    out = tmp_path / "out"
    assert main(["curves", "--manifest", str(tmp_path / "manifest.csv"),
                 "--embeddings", str(tmp_path / "emb.csv"), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("input error: ") and message in err
    assert not out.exists()


CSV_INPUTS = {"manifest": MANIFEST_HEADER, "coords file": COORDS_HEADER}


@pytest.mark.parametrize("text, message", [
    (b"", "{path}: empty {what}"),
    (b"sample_id,label\n", "{path}: bad header ['sample_id', 'label'], expected {header}"),
    (b"HEADER\n\xff\xfe,1,2\n", "{path}: {what} is not UTF-8 text"),
    (b"HEADER\ns0,1\n", "{path}: row 0 has 2 fields, expected {fields}"),
    (b"HEADER\n" + b"s" * 200_000 + b",1,2\n",
     "{path}: field larger than field limit (131072)"),
    (None, "cannot read {what} {path}: [Errno 21] Is a directory: '{path}'"),
], ids=["empty", "header", "not_utf8", "field_count", "field_over_csv_limit", "directory"])
@pytest.mark.parametrize("what", CSV_INPUTS, ids=["manifest", "coords"])
def test_csv_input_defects_exit_2_with_one_line(workspace, tmp_path, capsys, what, text,
                                                 message):
    """The manifest (read by curves) and the coords file (read by eval
    --coords) share one reader: each defect gets the same one-line message."""
    header = CSV_INPUTS[what]
    path = tmp_path / "input.csv"
    if text is None:
        path.mkdir()
    else:
        path.write_bytes(text.replace(b"HEADER", ",".join(header).encode()))
    data = workspace / "data"
    manifest, embeddings = str(data / "manifest.csv"), str(data / "embeddings.bin")
    argv = (["curves", "--manifest", str(path), "--embeddings", embeddings]
            if what == "manifest" else
            ["eval", "--manifest", manifest, "--embeddings", embeddings, "--coords", str(path)])
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    expected = message.format(path=path, what=what, header=list(header), fields=len(header))
    assert capsys.readouterr().err == f"input error: {expected}\n"
    assert not out.exists()
