"""CLI surface: wrapper equivalence, exit codes, formats, determinism, SVG structure."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import embrobust
from embrobust import (SynthSpec, assign_folds, build_neighbor_table,
                       confounder_analysis, frequency_curves, generate,
                       knn_predict, load_dataset, logreg_cv, robustness_index)
from embrobust.cli import main

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
    """index, curves, confounders, eval and relation write the same bytes
    with 1 and 2 BLAS threads, each run in a fresh interpreter that reads
    the setting."""
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--n-bio", "4", "--n-conf", "4",
                 "--per-cell", "50", "--dim", "96", "--seed", "3"]) == 0
    ds_flags = ["--manifest", str(data / "manifest.csv"),
                "--embeddings", str(data / "embeddings.bin")]
    src = Path(embrobust.__file__).resolve().parents[1]
    snapshots = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        commands = [["index", *ds_flags, "--k", "50", "--out-dir", str(out)],
                    ["curves", *ds_flags, "--out-dir", str(out)],
                    ["confounders", *ds_flags, "--out-dir", str(out)],
                    ["eval", *ds_flags, "--out-dir", str(out)],
                    ["relation", *ds_flags, "--out-dir", str(out)]]
        script = ("import json, sys\n"
                  "from embrobust.cli import main\n"
                  "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
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
    assert err == "error: --target must be bio, conf or both, got 'nope'\n"


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
], ids=["short_row", "non_numeric", "nan", "inf", "duplicate_id", "unknown_id"])
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


def test_eval_rejects_coords_that_are_not_utf8(workspace, tmp_path, capsys):
    bad = tmp_path / "coords.csv"
    bad.write_bytes(b"sample_id,x,y\n\xff\xfe,1,2\n")
    data = workspace / "data"
    assert main(["eval", "--manifest", str(data / "manifest.csv"),
                 "--embeddings", str(data / "embeddings.bin"),
                 "--coords", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{bad}: coords file is not UTF-8 text" in err
