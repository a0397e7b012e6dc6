"""t-SNE: calibration, affinities, gradient, convergence, diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from embrobust import (AnalysisError, EmbeddingDataset, TsneConfig,
                       assign_folds, build_neighbor_table, knn_predict,
                       perplexity_calibration, trustworthiness, tsne)
from embrobust import neighbors
from embrobust.neighbors import pairwise_distances
from embrobust.projection import joint_affinities, kl_divergence_and_grad

from conftest import make_random_dataset


def two_arc_clusters(seed=10, n_per=50, dim=50):
    """Two antipodal clusters whose within-cluster spread is essentially
    one-dimensional, so a faithful 2D projection exists."""
    rng = np.random.default_rng(seed)
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[1] = 1.0
    a1 = rng.normal(scale=0.35, size=n_per)
    a2 = rng.normal(scale=0.35, size=n_per)
    X = np.vstack([
        u + a1[:, None] * v + 0.005 * rng.normal(size=(n_per, dim)),
        -u + a2[:, None] * v + 0.005 * rng.normal(size=(n_per, dim)),
    ])
    labels = ["a"] * n_per + ["b"] * n_per
    return EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(2 * n_per)], X, labels, labels)


def reference_tsne(X, cfg):
    """The exact loop written with a fresh array per step: the oracle the
    buffered kernel in ``tsne`` must match bit for bit."""
    n = X.shape[0]
    P = joint_affinities(pairwise_distances(X, "cosine") ** 2, cfg.perplexity)
    mask = P > 0
    entropy = float((P[mask] * np.log(P[mask])).sum())
    rng = np.random.default_rng(cfg.seed)
    Y = 1e-4 * rng.standard_normal((n, 2))
    velocity = np.zeros_like(Y)
    kl_trace = []
    for it in range(cfg.iterations):
        sq = (Y * Y).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
        num = 1.0 / (np.clip(d2, 0.0, None) + 1.0)
        np.fill_diagonal(num, 0.0)
        Q = num / num.sum()
        kl_trace.append(entropy - float((P[mask] * np.log(np.maximum(Q[mask], 1e-12))).sum()))
        exaggerate = it < cfg.early_exaggeration_iters
        M = ((P * cfg.early_exaggeration_factor if exaggerate else P) - Q) * num
        grad = 4.0 * (M.sum(axis=1)[:, None] * Y - M @ Y)
        momentum = (cfg.momentum_start if it < cfg.momentum_switch_iter
                    else cfg.momentum_final)
        velocity = momentum * velocity - cfg.learning_rate * grad
        Y = Y + velocity
        Y -= Y.mean(axis=0)
    return Y, np.array(kl_trace)


def reference_trustworthiness(X, Y, k):
    """Venna & Kaski's definition, one point at a time; ties go to the lower
    index in both spaces."""
    n = X.shape[0]
    penalty = 0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        dx = np.linalg.norm(X - X[i], axis=1)
        dy = np.linalg.norm(Y - Y[i], axis=1)
        high = sorted(others, key=lambda j: (dx[j], j))
        rank = {j: r + 1 for r, j in enumerate(high)}
        low_knn = sorted(others, key=lambda j: (dy[j], j))[:k]
        penalty += sum(rank[j] - k for j in low_knn if rank[j] > k)
    return 1.0 - 2.0 * penalty / (n * k * (2.0 * n - 3.0 * k - 1.0))


# ---------------------------------------------------------------------------
# perplexity calibration
# ---------------------------------------------------------------------------

def test_equidistant_row_is_uniform():
    row = np.full(3, 0.7)
    with pytest.warns(UserWarning, match="unreachable"):
        _, p = perplexity_calibration(row, 3.0)
    np.testing.assert_allclose(p, 1.0 / 3.0)


def test_calibration_hits_target():
    ds = make_random_dataset(seed=4, n=100, dim=10)
    d2 = pairwise_distances(ds.vectors, "cosine") ** 2
    for i in (0, 17, 63):
        row = np.delete(d2[i], i)
        sigma, p = perplexity_calibration(row, 10.0)
        assert sigma > 0 and np.isfinite(sigma)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        # independent entropy recomputation of the returned distribution
        nz = p[p > 0]
        achieved = 2.0 ** (-(nz * np.log2(nz)).sum())
        assert abs(achieved - 10.0) < 1e-3


def test_unreachable_target_falls_back_uniform():
    row = np.array([0.1, 0.5, 0.9, 1.4])
    with pytest.warns(UserWarning, match="unreachable"):
        _, p = perplexity_calibration(row, 4.0)  # target >= row length
    np.testing.assert_allclose(p, 0.25)


# ---------------------------------------------------------------------------
# affinities and gradient
# ---------------------------------------------------------------------------

def test_joint_affinities_invariants():
    ds = make_random_dataset(seed=2, n=30, dim=6)
    d2 = pairwise_distances(ds.vectors, "cosine") ** 2
    P = joint_affinities(d2, 8.0)
    assert P.shape == (30, 30)
    assert (P >= 0).all()
    assert np.array_equal(P, P.T)
    assert P.sum() == pytest.approx(1.0, abs=1e-12)
    assert (np.diag(P) == 0).all()


def test_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    n = 20
    X = rng.normal(size=(n, 8))
    d2 = pairwise_distances(X, "cosine") ** 2
    P = joint_affinities(d2, 5.0)
    Y = rng.normal(size=(n, 2))
    _, grad = kl_divergence_and_grad(P, Y)
    h = 1e-5
    fd = np.zeros_like(Y)
    for i in range(n):
        for j in range(2):
            Yp, Ym = Y.copy(), Y.copy()
            Yp[i, j] += h
            Ym[i, j] -= h
            fd[i, j] = (kl_divergence_and_grad(P, Yp)[0]
                        - kl_divergence_and_grad(P, Ym)[0]) / (2 * h)
    rel = np.abs(fd - grad) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-4


# ---------------------------------------------------------------------------
# the optimizer
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cluster_projection():
    ds = two_arc_clusters()
    result = tsne(ds, TsneConfig(perplexity=20, iterations=600, seed=0))
    return ds, result


def test_two_clusters_separate(cluster_projection):
    ds, result = cluster_projection
    Y = result.coords
    m_a, m_b = Y[:50].mean(axis=0), Y[50:].mean(axis=0)
    pred = np.linalg.norm(Y - m_b, axis=1) < np.linalg.norm(Y - m_a, axis=1)
    true = np.array([False] * 50 + [True] * 50)
    assert (pred == true).mean() == 1.0


def test_kl_trace_progress(cluster_projection):
    _, result = cluster_projection
    kl = result.kl_trace
    assert np.isfinite(kl).all() and (kl >= 0).all()
    end_of_exaggeration = result.config.early_exaggeration_iters - 1
    assert kl[-1] < kl[end_of_exaggeration]
    assert kl[-50:].mean() <= kl[300:350].mean()


def test_projection_trustworthiness(cluster_projection):
    ds, result = cluster_projection
    assert trustworthiness(ds, result.coords, 12) > 0.95


def test_tsne_deterministic(cluster_projection):
    ds, result = cluster_projection
    again = tsne(ds, TsneConfig(perplexity=20, iterations=600, seed=0))
    assert np.array_equal(result.coords, again.coords)
    assert np.array_equal(result.kl_trace, again.kl_trace)
    other = tsne(ds, TsneConfig(perplexity=20, iterations=300, seed=1))
    assert not np.array_equal(result.coords[:10], other.coords[:10])


def test_tsne_matches_reference_loop_bit_for_bit(cluster_projection):
    ds, result = cluster_projection
    coords, kl = reference_tsne(ds.vectors, result.config)
    assert result.coords.tobytes() == coords.tobytes()
    np.testing.assert_allclose(result.kl_trace, kl, rtol=1e-12, atol=0)

    X = make_random_dataset(seed=23, n=60, dim=12).vectors
    cfg = TsneConfig(perplexity=10, iterations=200, early_exaggeration_iters=60,
                     momentum_switch_iter=120, seed=4)
    result = tsne(X, cfg)
    coords, kl = reference_tsne(X, cfg)
    assert result.coords.tobytes() == coords.tobytes()
    np.testing.assert_allclose(result.kl_trace, kl, rtol=1e-12, atol=0)


def test_config_echoed(cluster_projection):
    _, result = cluster_projection
    assert result.config.perplexity == 20
    assert result.config.iterations == 600
    assert result.config.seed == 0


def test_tsne_preconditions():
    small = make_random_dataset(seed=1, n=8, dim=4)
    with pytest.raises(AnalysisError, match="at least 10"):
        tsne(small, TsneConfig())
    ds = make_random_dataset(seed=1, n=40, dim=4)
    with pytest.raises(AnalysisError, match="perplexity"):
        tsne(ds, TsneConfig(perplexity=13.0))
    with pytest.raises(AnalysisError, match="early exaggeration"):
        tsne(ds, TsneConfig(perplexity=5, iterations=100,
                            early_exaggeration_iters=200))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_trustworthiness_lossless_projection():
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(60, 2))
    X = np.hstack([coords, np.zeros((60, 4))])
    assert trustworthiness(X, coords, 10) == 1.0


def test_trustworthiness_matches_brute_force(cluster_projection):
    ds, result = cluster_projection
    assert trustworthiness(ds, result.coords, 12) == pytest.approx(
        reference_trustworthiness(ds.vectors, result.coords, 12), abs=1e-12)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 7))
    Y = rng.normal(size=(80, 2))
    assert trustworthiness(X, Y, 9) == pytest.approx(
        reference_trustworthiness(X, Y, 9), abs=1e-12)


def test_trustworthiness_tie_rule_on_integer_grid(monkeypatch):
    # integer points: distances are exact in both computations and tie
    # heavily (duplicate points included), so the lower-index rule decides
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMS", 2000)  # many row blocks
    rng = np.random.default_rng(23)
    X = rng.integers(0, 3, size=(90, 4)).astype(float)
    Y = rng.integers(0, 4, size=(90, 2)).astype(float)
    for k in (1, 5, 12, 44):
        assert trustworthiness(X, Y, k) == reference_trustworthiness(X, Y, k)


def test_trustworthiness_matches_sklearn(cluster_projection):
    sklearn_manifold = pytest.importorskip("sklearn.manifold")
    ds, result = cluster_projection
    ours = trustworthiness(ds, result.coords, 12)
    ref = sklearn_manifold.trustworthiness(ds.vectors, result.coords, n_neighbors=12)
    assert ours == pytest.approx(ref, abs=1e-12)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 7))
    Y = rng.normal(size=(80, 2))
    assert trustworthiness(X, Y, 9) == pytest.approx(
        sklearn_manifold.trustworthiness(X, Y, n_neighbors=9), abs=1e-12)


def test_trustworthiness_k_range():
    X = np.random.default_rng(0).normal(size=(20, 3))
    Y = X[:, :2]
    with pytest.raises(ValueError, match="k must satisfy"):
        trustworthiness(X, Y, 10)  # k >= n/2


def test_diagnostics_rigid_motion_invariant(cluster_projection):
    ds, result = cluster_projection
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    moved = result.coords @ rot.T + np.array([13.0, -4.5])
    assert trustworthiness(ds, moved, 12) == trustworthiness(ds, result.coords, 12)

    def knn_acc_on_coords(coords):
        probe = EmbeddingDataset.from_arrays(
            ds.ids, coords, ds.bio_labels, ds.conf_labels, require_nonzero=False)
        nt = build_neighbor_table(probe, metric="euclidean")
        folds = assign_folds(probe, 5, seed=0)
        return knn_predict(probe, nt, folds, "bio", 3).accuracy_mean

    assert knn_acc_on_coords(moved) == knn_acc_on_coords(result.coords)
