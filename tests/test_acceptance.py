"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import json
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import embrobust as er
from embrobust.cli import main
from embrobust.evaluation import DEFAULT_K_GRID, softmax_loss_grad
from embrobust.neighbors import pairwise_distances
from embrobust.projection import joint_affinities, kl_divergence_and_grad

from conftest import table_of

SVG_NS = "{http://www.w3.org/2000/svg}"


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    print(f"[PASS] criterion {num:2d}: {desc}")


def brute_force_counts(vectors, bio_labels, conf_labels, k):
    """Independent double-loop implementation of the index counts."""
    v = np.asarray(vectors, dtype=np.float64)
    n = v.shape[0]
    norms = [float(np.sqrt(np.dot(row, row))) for row in v]
    numerator = denominator = 0
    for i in range(n):
        cand = []
        for j in range(n):
            if j == i:
                continue
            d = 1.0 - float(np.dot(v[i], v[j])) / (norms[i] * norms[j])
            cand.append((min(max(d, 0.0), 2.0), j))
        cand.sort()
        for _, j in cand[:k]:
            numerator += bio_labels[j] == bio_labels[i]
            denominator += conf_labels[j] == conf_labels[i]
    return numerator, denominator


def random_labeled_dataset(rng, n, dim, n_bio, n_conf):
    vectors = rng.normal(size=(n, dim))
    bio = [f"b{v}" for v in rng.integers(n_bio, size=n)]
    conf = [f"c{v}" for v in rng.integers(n_conf, size=n)]
    return er.EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(n)], vectors, bio, conf)


def test_criterion_01_index_oracle_equivalence():
    with criterion(1, "index counts match brute force on 20 random datasets in < 5 s"):
        rng = np.random.default_rng(1001)
        start = time.monotonic()
        for case in range(20):
            n = 200 if case == 0 else int(rng.integers(20, 160))
            dim = 16 if case == 0 else int(rng.integers(2, 17))
            ds = random_labeled_dataset(rng, n, dim,
                                        int(rng.integers(2, 6)),
                                        int(rng.integers(2, 6)))
            k = int(rng.integers(1, min(50, n - 1) + 1))
            rep = er.robustness_index(ds, er.build_neighbor_table(ds), k)
            num, den = brute_force_counts(ds.vectors, ds.bio_labels,
                                          ds.conf_labels, k)
            assert rep.numerator == num
            assert rep.denominator == den
            assert rep.r_k == num / den
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_02_degenerate_identity():
    with criterion(2, "bio == conf labels give r_k exactly 1 for k in {1, 10, 50}"):
        rng = np.random.default_rng(2002)
        vectors = rng.normal(size=(150, 8))
        labels = [f"g{v}" for v in rng.integers(4, size=150)]
        ds = er.EmbeddingDataset.from_arrays(
            [f"s{i}" for i in range(150)], vectors, labels, labels)
        nt = er.build_neighbor_table(ds)
        for k in (1, 10, 50):
            rep = er.robustness_index(ds, nt, k)
            assert rep.r_k == 1.0
            assert rep.numerator == rep.denominator


def test_criterion_03_chance_behavior_center_blind():
    with criterion(3, "center-blind data keeps same-center fraction within 0.05 of 0.2"):
        ds = er.generate(er.SynthSpec(
            n_bio=5, n_conf=5, per_cell=40, dim=32,
            bio_strength=1.0, conf_strength=0.0, noise_sigma=0.45, seed=33))
        assert ds.n == 1000
        restricted = er.restrict_for_confounders(ds)
        assert restricted is ds  # every cell populated
        nt = er.build_neighbor_table(ds)
        report = er.confounder_analysis(
            ds, nt, seeds=(0, 1, 2, 3, 4), n_folds=5, k_grid=DEFAULT_K_GRID)
        assert report.chance_level == pytest.approx(0.2)
        for ki, k in enumerate(report.k_grid):
            assert report.n_misclassified[ki] > 0, f"no errors at k={k}"
            assert abs(report.frac_same_center[ki] - 0.2) < 0.05, (
                f"k={k}: {report.frac_same_center[ki]:.4f}")


def test_criterion_04_signal_ordering():
    with criterion(4, "median r_50 strictly decreases in confounder strength; "
                      "extremes land within 5% of the composition bounds"):
        def r50(bio_s, conf_s, seed):
            ds = er.generate(er.SynthSpec(
                n_bio=5, n_conf=5, per_cell=40, dim=32, bio_strength=bio_s,
                conf_strength=conf_s, noise_sigma=0.02, seed=seed))
            return er.robustness_index(ds, er.build_neighbor_table(ds), 50).r_k

        alpha = 1.0
        medians = [float(np.median([r50(alpha, beta, s) for s in range(10)]))
                   for beta in (0.0, alpha / 2, 2 * alpha)]
        assert medians[0] > medians[1] > medians[2], medians

        ref = er.generate(er.SynthSpec(n_bio=5, n_conf=5, per_cell=40, dim=32,
                                       noise_sigma=0.02, seed=0))
        r_min, r_max = er.robustness_bounds(ref)
        beta0 = float(np.median([r50(alpha, 0.0, s) for s in range(10)]))
        assert abs(beta0 - r_max) / r_max < 0.05
        alpha0 = float(np.median([r50(0.0, 1.0, s) for s in range(10)]))
        assert abs(alpha0 - r_min) / r_min < 0.05


def oracle_knn_predictions(ds, folds, target, k):
    labels = ds.bio_labels if target == "bio" else ds.conf_labels
    out = []
    for i in range(ds.n):
        cand = []
        vi = ds.vectors[i]
        ni = float(np.sqrt(np.dot(vi, vi)))
        for j in range(ds.n):
            if j == i or folds.fold_of[j] == folds.fold_of[i]:
                continue
            vj = ds.vectors[j]
            d = 1.0 - float(np.dot(vi, vj)) / (ni * float(np.sqrt(np.dot(vj, vj))))
            cand.append((min(max(d, 0.0), 2.0), j))
        cand.sort()
        votes: dict[str, int] = {}
        first: dict[str, int] = {}
        for rank, (_, j) in enumerate(cand[:k]):
            lab = labels[j]
            votes[lab] = votes.get(lab, 0) + 1
            first.setdefault(lab, rank)
        best = max(votes.values())
        out.append(min((first[lab], lab) for lab, v in votes.items()
                       if v == best)[1])
    return out


def test_criterion_05_knn_probe_equivalence():
    with criterion(5, "cross-validated kNN predictions match a per-query oracle"):
        rng = np.random.default_rng(5005)
        ds = random_labeled_dataset(rng, 60, 8, 3, 4)
        nt = er.build_neighbor_table(ds)
        folds = er.assign_folds(ds, 5, seed=5)
        for target in ("bio", "conf"):
            res = er.knn_predict(ds, nt, folds, target, 3)
            assert list(res.predictions) == oracle_knn_predictions(ds, folds, target, 3)


def test_criterion_06_logistic_regression():
    with criterion(6, "regression gradient, monotone loss, separable and CV accuracy"):
        rng = np.random.default_rng(606)
        # analytic gradient vs central differences on a 5-class toy
        n, d, C = 40, 10, 5
        Xs = rng.normal(size=(n, d))
        y = rng.integers(C, size=n)
        W = rng.normal(scale=0.5, size=(d, C))
        b = rng.normal(scale=0.5, size=C)
        _, gW, gb = softmax_loss_grad(Xs, y, W, b, 1e-3)
        h = 1e-5
        worst = 0.0
        for i in range(d):
            for j in range(C):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                fd = (softmax_loss_grad(Xs, y, Wp, b, 1e-3)[0]
                      - softmax_loss_grad(Xs, y, Wm, b, 1e-3)[0]) / (2 * h)
                worst = max(worst, abs(fd - gW[i, j]) / max(abs(fd), 1e-8))
        for j in range(C):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            fd = (softmax_loss_grad(Xs, y, W, bp, 1e-3)[0]
                  - softmax_loss_grad(Xs, y, W, bm, 1e-3)[0]) / (2 * h)
            worst = max(worst, abs(fd - gb[j]) / max(abs(fd), 1e-8))
        assert worst < 1e-4, f"max relative gradient error {worst:.2e}"

        # loss never increases
        noisy = random_labeled_dataset(rng, 80, 10, 4, 2)
        model = er.logreg_fit(noisy.vectors, noisy.bio_labels, lam=1e-3,
                              max_iter=500)
        assert (np.diff(model.loss_trace) <= 0).all()

        # linearly separable toy reaches full training accuracy
        X = np.vstack([rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(20, 2)),
                       rng.normal(loc=(2.0, 0.0), scale=0.3, size=(20, 2))])
        labels = ["neg"] * 20 + ["pos"] * 20
        fit = er.logreg_fit(X, labels, lam=1e-3)
        assert er.logreg_predict(fit, X) == labels

        # well-separated clusters cross-validate perfectly
        clusters = er.generate(er.SynthSpec(
            n_bio=3, n_conf=1, per_cell=15, dim=16,
            bio_strength=1.0, conf_strength=0.0, noise_sigma=0.02, seed=6))
        folds = er.assign_folds(clusters, 5, seed=0)
        res = er.logreg_cv(clusters, folds, "bio")
        assert res.accuracy_mean == 1.0
        assert res.accuracy_std == 0.0


def two_arc_clusters(seed=10, n_per=50, dim=50):
    rng = np.random.default_rng(seed)
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[1] = 1.0
    X = np.vstack([
        u + rng.normal(scale=0.35, size=n_per)[:, None] * v
        + 0.005 * rng.normal(size=(n_per, dim)),
        -u + rng.normal(scale=0.35, size=n_per)[:, None] * v
        + 0.005 * rng.normal(size=(n_per, dim)),
    ])
    labels = ["a"] * n_per + ["b"] * n_per
    return er.EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(2 * n_per)], X, labels, labels)


def test_criterion_07_tsne():
    with criterion(7, "t-SNE calibration, gradient, separation, trust, determinism"):
        rng = np.random.default_rng(707)
        # calibration hits the target perplexity on every row
        ds = random_labeled_dataset(rng, 100, 10, 3, 3)
        d2 = pairwise_distances(ds.vectors, "cosine") ** 2
        for i in range(100):
            row = np.delete(d2[i], i)
            _, p = er.perplexity_calibration(row, 15.0)
            nz = p[p > 0]
            achieved = 2.0 ** (-(nz * np.log2(nz)).sum())
            assert abs(achieved - 15.0) < 1e-3

        # gradient vs finite differences at n = 20
        X = rng.normal(size=(20, 6))
        P = joint_affinities(table_of(X), 5.0)
        Y = rng.normal(size=(20, 2))
        _, grad = kl_divergence_and_grad(P, Y)
        h = 1e-5
        for i in range(20):
            for j in range(2):
                Yp, Ym = Y.copy(), Y.copy()
                Yp[i, j] += h
                Ym[i, j] -= h
                fd = (kl_divergence_and_grad(P, Yp)[0]
                      - kl_divergence_and_grad(P, Ym)[0]) / (2 * h)
                assert abs(fd - grad[i, j]) / max(abs(fd), 1e-8) < 1e-4

        # two-cluster construction: perfect separation, high trustworthiness,
        # from the seed-0 start and from 12 starts that each move one of its
        # coordinates up by one ulp, so a pass is no lucky draw
        clusters = er.build_neighbor_table(two_arc_clusters())
        cfg = er.TsneConfig(perplexity=20, iterations=600, seed=0)
        result = er.tsne(clusters, cfg)
        start = 1e-4 * np.random.default_rng(0).standard_normal((100, 2))
        nudged = []
        for i in range(0, 100, 9):
            init = start.copy()
            init[i, i % 2] = np.nextafter(init[i, i % 2], np.inf)
            nudged.append(er.tsne(clusters, cfg, init=init))
        for run in (result, *nudged):
            Yc = run.coords
            m_a, m_b = Yc[:50].mean(axis=0), Yc[50:].mean(axis=0)
            pred = np.linalg.norm(Yc - m_b, axis=1) < np.linalg.norm(Yc - m_a, axis=1)
            assert (pred == np.array([False] * 50 + [True] * 50)).mean() == 1.0
            assert er.trustworthiness(clusters, Yc, 12) > 0.95

        # identical seeds give byte-identical coordinates
        again = er.tsne(clusters, cfg)
        assert result.coords.tobytes() == again.coords.tobytes()


def test_criterion_08_cross_module_consistency():
    with criterion(8, "index equals curve recomputation and inverts under label swap"):
        rng = np.random.default_rng(808)
        ds = random_labeled_dataset(rng, 120, 8, 3, 4)
        nt = er.build_neighbor_table(ds)
        curves = er.frequency_curves(ds, nt)
        for k in (1, 10, 50):
            rep = er.robustness_index(ds, nt, k)
            from_curves = curves.f_bio[:k].sum() / curves.f_conf[:k].sum()
            assert abs(rep.r_k - from_curves) / rep.r_k < 1e-12
        swapped = er.EmbeddingDataset.from_arrays(
            ds.ids, ds.vectors, ds.conf_labels, ds.bio_labels)
        nt_sw = er.build_neighbor_table(swapped)
        for k in (1, 10, 50):
            r = er.robustness_index(ds, nt, k).r_k
            r_sw = er.robustness_index(swapped, nt_sw, k).r_k
            assert abs(r_sw - 1.0 / r) * r < 1e-12


def _svg_elements(path: Path, tag: str, cls: str):
    root = ET.fromstring(path.read_text())
    return [e for e in root.iter(f"{SVG_NS}{tag}") if e.get("class") == cls]


def _run_pipeline(data: Path, out: Path) -> None:
    ds_flags = ["--manifest", str(data / "manifest.csv"),
                "--embeddings", str(data / "embeddings.bin")]
    assert main(["index", *ds_flags, "--name", "synthetic", "--k", "50",
                 "--out-dir", str(out), "--seed", "7"]) == 0
    assert main(["curves", *ds_flags, "--out-dir", str(out), "--seed", "7"]) == 0
    assert main(["tsne", *ds_flags, "--out-dir", str(out), "--seed", "7"]) == 0
    assert main(["eval", *ds_flags, "--out-dir", str(out), "--seed", "7",
                 "--coords", str(out / "tsne_coords.csv")]) == 0
    assert main(["confounders", *ds_flags, "--out-dir", str(out),
                 "--seed", "7"]) == 0
    assert main(["relation", *ds_flags, "--out-dir", str(out), "--seed", "7"]) == 0


def test_criterion_09_end_to_end(tmp_path):
    with criterion(9, "full pipeline at n=2000, d=768 in < 10 min; reruns are "
                      "byte-identical; figures structurally complete"):
        data = tmp_path / "data"
        start = time.monotonic()
        assert main(["synth", "--out-dir", str(data), "--n-bio", "5",
                     "--n-conf", "5", "--per-cell", "80", "--dim", "768",
                     "--bio-strength", "0.7", "--conf-strength", "1.0",
                     "--noise-sigma", "0.15", "--seed", "7"]) == 0
        out1 = tmp_path / "out1"
        _run_pipeline(data, out1)
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"

        # identical flags (including paths) must reproduce identical bytes
        snapshot = {p.name: p.read_bytes() for p in out1.iterdir()}
        _run_pipeline(data, out1)
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(snapshot)
        for name in names:
            assert (out1 / name).read_bytes() == snapshot[name], name

        # figure structure: per-rank curves with both label series
        assert len(_svg_elements(out1 / "frequency_curves.svg", "polyline", "series")) == 2
        # index bar chart with a value label
        assert len(_svg_elements(out1 / "robustness_index.svg", "rect", "bar")) == 1
        assert len(_svg_elements(out1 / "robustness_index.svg", "text", "bar-value")) == 1
        # confounder figure: three curves plus the chance rule
        assert len(_svg_elements(out1 / "confounders.svg", "polyline", "series")) == 3
        assert len(_svg_elements(out1 / "confounders.svg", "line", "rule")) == 1
        # accuracy scatters for both input spaces, two labeled points each
        for name in ("accuracy_embedding.svg", "accuracy_tsne2d.svg"):
            assert len(_svg_elements(out1 / name, "circle", "pt")) == 2
        # projection colorings: identical positions, different color maps
        bio = _svg_elements(out1 / "tsne_bio.svg", "circle", "pt")
        conf = _svg_elements(out1 / "tsne_conf.svg", "circle", "pt")
        assert len(bio) == len(conf) == 2000
        assert ([(e.get("cx"), e.get("cy")) for e in bio]
                == [(e.get("cx"), e.get("cy")) for e in conf])
        assert ([e.get("fill") for e in bio] != [e.get("fill") for e in conf])
        # relation figure with binned markers
        root = ET.fromstring((out1 / "relation.svg").read_text())
        assert [e for e in root.iter(f"{SVG_NS}circle") if e.get("class") == "marker"]
        # reports parse and carry the run manifest
        for name in ("robustness.json", "eval.json", "confounders.json",
                     "relation.json", "tsne.json"):
            payload = json.loads((out1 / name).read_text())
            assert "run" in payload and "run_id" in payload["run"]


def test_criterion_10_permutation_nulls():
    with criterion(10, "permuted labels match chance counts; trustworthiness of "
                       "random coords matches its shuffle null"):
        # index denominator under a conf-label permutation
        ds = er.generate(er.SynthSpec(
            n_bio=5, n_conf=5, per_cell=40, dim=32, bio_strength=1.0,
            conf_strength=1.0, noise_sigma=0.3, seed=10))
        rng = np.random.default_rng(4242)
        permuted = er.EmbeddingDataset.from_arrays(
            ds.ids, ds.vectors, ds.bio_labels,
            [ds.conf_labels[p] for p in rng.permutation(ds.n)])
        k = 20
        rep = er.robustness_index(permuted, er.build_neighbor_table(permuted), k)
        _, p_conf = er.chance_levels(permuted)
        expected = permuted.n * k * p_conf
        sigma = np.sqrt(permuted.n * k * p_conf * (1.0 - p_conf))
        assert abs(rep.denominator - expected) <= 3.0 * sigma

        # trustworthiness of random coords vs its permutation null
        X = rng.normal(size=(200, 12))
        coords = rng.normal(size=(200, 2))
        nt = table_of(X, "euclidean")
        observed = er.trustworthiness(nt, coords, 12)
        null = np.array([
            er.trustworthiness(nt, coords[np.random.default_rng(s).permutation(200)], 12)
            for s in range(100)])
        assert abs(observed - null.mean()) <= 3.0 * null.std()
