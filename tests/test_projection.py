"""t-SNE: calibration, affinities, gradient, convergence, diagnostics."""

from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from embrobust import (AnalysisError, EmbeddingDataset, TsneConfig,
                       assign_folds, build_neighbor_table, knn_predict,
                       perplexity_calibration, trustworthiness, tsne)
from embrobust import neighbors
from embrobust.neighbors import pairwise_distances
from embrobust.projection import (_entropy, _kl_step, joint_affinities,
                                  kl_divergence_and_grad)

from conftest import cosine_distance, make_random_dataset, table_of


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


def dense(P):
    """The sparse affinities ``P`` held as a dense symmetric matrix."""
    n = P.sigma.size
    D = np.zeros((n, n))
    D[P.i, P.j] = P.p
    D[P.j, P.i] = P.p
    return D


def reference_step(P, factor, Y):
    """KL(P || Q) and the gradient of KL(factor * P || Q) at Y for a dense
    P, written densely with a fresh array per operation."""
    mask = P > 0
    entropy = float((P[mask] * np.log(P[mask])).sum())
    sq = (Y * Y).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
    num = 1.0 / (np.clip(d2, 0.0, None) + 1.0)
    np.fill_diagonal(num, 0.0)
    Q = num / num.sum()
    kl = entropy - float((P[mask] * np.log(np.maximum(Q[mask], 1e-12))).sum())
    M = (P * factor - Q) * num
    return kl, 4.0 * (M.sum(axis=1)[:, None] * Y - M @ Y)


def sweep_reference_step(P, factor, Y):
    """``_kl_step``'s formulas in its order of operations, with a fresh array
    per operation: the repulsion from the whole n x n kernel at once, the
    attraction and sum(P log(1 + d^2)) over the pairs of the sparse ``P``."""
    n = Y.shape[0]
    sq = (Y * Y).sum(axis=1)
    one = np.ones(n)
    K = 1.0 / np.maximum(
        np.column_stack((Y, sq + 1.0, one)) @ np.vstack((-2.0 * Y.T, one, sq)), 1.0)
    np.fill_diagonal(K, 0.0)
    Z = K.sum()
    rep = (K * K) @ np.column_stack((Y, one))
    dy = (Y[P.i] - Y[P.j]).T
    t = dy[0] ** 2 + dy[1] ** 2 + 1.0
    f = dy * (P.p / t)
    attr = np.zeros((2, n))
    attr[:, P.i[P.starts]] = np.add.reduceat(f, P.starts, axis=1)
    attr -= np.stack([np.bincount(P.j, fc, n) for fc in f])
    kl = (2.0 * float(np.sum(P.p * np.log(P.p))) + 2.0 * float(np.sum(np.log(t) * P.p))
          + np.log(Z))
    return kl, 4.0 * (factor * attr.T - (Y * rep[:, 2:] - rep[:, :2]) / Z)


def reference_tsne(X, cfg):
    """The loop written with a fresh array per step: the oracle ``tsne``
    must match bit for bit while one block covers every row."""
    n = X.shape[0]
    P = joint_affinities(table_of(X), cfg.perplexity)
    lr = n / cfg.early_exaggeration_factor if cfg.learning_rate is None else cfg.learning_rate
    rng = np.random.default_rng(cfg.seed)
    Y = 1e-4 * rng.standard_normal((n, 2))
    velocity = np.zeros_like(Y)
    kl_trace = []
    for it in range(cfg.iterations):
        exaggerate = it < cfg.early_exaggeration_iters
        kl, grad = sweep_reference_step(
            P, cfg.early_exaggeration_factor if exaggerate else 1.0, Y)
        kl_trace.append(kl)
        momentum = (cfg.momentum_start if it < cfg.momentum_switch_iter
                    else cfg.momentum_final)
        velocity = momentum * velocity - lr * grad
        Y = Y + velocity
        Y -= Y.mean(axis=0)
    return Y, np.array(kl_trace)


def high_distances(X, i, metric):
    """Distances from X[i] to every row of X, one pair at a time."""
    if metric == "euclidean":
        return np.linalg.norm(X - X[i], axis=1)
    return np.array([cosine_distance(X[i], x) for x in X])


def reference_trustworthiness(X, Y, k, metric="euclidean"):
    """Venna & Kaski's definition, one point at a time, the high space under
    ``metric`` (euclidean or cosine), the projection under euclidean
    distance; ties go to the lower index in both spaces."""
    n = X.shape[0]
    penalty = 0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        dx = high_distances(X, i, metric)
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


@pytest.mark.parametrize("target", [0.5, 0.99])
def test_target_below_one_is_unreachable_at_once(target):
    # a perplexity 2^H is at least 1: no bisection, one warning
    row = np.array([0.1, 0.5, 0.9, 1.4])
    with pytest.warns(UserWarning) as record:
        sigma, p = perplexity_calibration(row, target)
    assert [str(w.message) for w in record] == [
        f"perplexity {target} unreachable for row of 4 neighbors; using uniform affinities"]
    assert sigma == np.inf
    np.testing.assert_allclose(p, 0.25)


# ---------------------------------------------------------------------------
# affinities and gradient
# ---------------------------------------------------------------------------

def brute_force_affinities(sq_dists, perplexity):
    """Dense P, one row at a time: each row calibrated on its k nearest
    others in (distance, index) order, then (C + C.T) / 2n."""
    n = len(sq_dists)
    k = min(int(3 * perplexity), n - 1)
    C, sigma = np.zeros((n, n)), np.empty(n)
    for i in range(n):
        nearest = sorted((j for j in range(n) if j != i), key=lambda j: (sq_dists[i, j], j))[:k]
        sigma[i], C[i, nearest] = perplexity_calibration(sq_dists[i, nearest], perplexity)
    return (C + C.T) / (2 * n), sigma


def test_joint_affinities_invariants():
    ds = make_random_dataset(seed=2, n=30, dim=6)
    nt = build_neighbor_table(ds)
    P = joint_affinities(nt, 8.0)
    assert P.neighbors == 24
    assert (P.i < P.j).all() and (P.p > 0).all()
    assert (np.diff(P.i * 30 + P.j) > 0).all()  # in (i, j) order, each pair once
    D = dense(P)
    assert np.array_equal(D, D.T) and (D >= 0).all() and (np.diag(D) == 0).all()
    assert D.sum() == pytest.approx(1.0, abs=1e-12)
    ref, sigma = brute_force_affinities(nt.distances ** 2, 8.0)
    assert np.array_equal(D, ref)
    assert np.array_equal(P.sigma, sigma)


def test_joint_affinities_tie_rule_and_uniform_rows():
    """Integer points, five of them one point: ties go to the lower index,
    and a row with more than k lower-index others at its own distance 0
    keeps k of them. Rows whose k neighbors are all equidistant cannot be
    calibrated and fall back to uniform, with sigma inf."""
    rng = np.random.default_rng(4)
    X = np.vstack([np.zeros((5, 2)), rng.integers(0, 4, size=(25, 2))]).astype(float)
    nt = table_of(X, "euclidean")
    # integer points: every distance is the square root of an exact integer
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(nt.distances, np.sqrt(d2) + np.diag(np.full(30, np.inf)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        P = joint_affinities(nt, 1.0)
        ref, sigma = brute_force_affinities(nt.distances ** 2, 1.0)
    assert P.neighbors == 3
    assert np.array_equal(dense(P), ref)
    assert np.array_equal(P.sigma, sigma)
    assert np.isinf(P.sigma[:5]).all() and np.isfinite(P.sigma).sum() > 0


def test_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    n = 20
    X = rng.normal(size=(n, 8))
    P = joint_affinities(table_of(X), 5.0)
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


def _step_inputs(scale, n=60):
    P = joint_affinities(build_neighbor_table(make_random_dataset(seed=31, n=n, dim=12)),
                         10.0)
    return P, scale * np.random.default_rng(3).standard_normal((n, 2))


# the largest error of the step against the dense formulas, relative to the
# largest gradient entry, measured on these inputs in every block layout
# below: 1.6e-15 at scale 1e-4, and 1.3e-13 at scale 40, where 1 + d^2 from
# the product of [y, |y|^2 + 1, 1] and [-2y, 1, |y|^2] loses the digits that
# |y|^2 ~ 1e4 takes; each bound leaves a margin of about 8
_STEP_TOL = {1e-4: 1e-14, 40.0: 1e-12}


@pytest.mark.parametrize("scale, n", [
    pytest.param(1e-4, 60, id="0.0001"), pytest.param(40.0, 60, id="40.0"),
    pytest.param(40.0, 57, id="40.0-one_row_last_strip"),
])
@pytest.mark.parametrize("factor", [1.0, 12.0])
def test_kl_step_in_row_blocks_matches_dense_reference(monkeypatch, factor, scale, n):
    """The one-sweep step on the sparse P against the dense formulas on the
    same P held densely."""
    monkeypatch.setattr(neighbors, "_TASK_ELEMS", 1000)  # 8-row blocks at n = 57 and 60
    blocks = neighbors._row_blocks(n, 2 * n)
    # the last strip is narrower than the first one's diagonal square
    assert len(blocks) >= 5 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
    P, Y = _step_inputs(scale, n)
    kl, grad = _kl_step(P, factor, _entropy(P), Y)
    ref_kl, ref_grad = reference_step(dense(P), factor, Y)
    assert np.abs(grad - ref_grad).max() <= _STEP_TOL[scale] * np.abs(ref_grad).max()
    np.testing.assert_allclose(kl, ref_kl, rtol=1e-13, atol=0)


def test_strip_state_and_one_step_memory():
    """One step at n = 600 allocates no n x n array: it traces 0.53 * 8n^2
    bytes, its 0.5 MB strip buffer and temporaries of P's 28 456 pairs."""
    n = 600
    Y = np.random.default_rng(1).standard_normal((n, 2))
    P = joint_affinities(build_neighbor_table(make_random_dataset(seed=5, n=n, dim=16)), 30.0)
    entropy = _entropy(P)
    tracemalloc.start()
    try:
        _kl_step(P, 12.0, entropy, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


def test_tsne_traced_peak_at_n_2400():
    """A table build and a tsne call on it hold one n x n array, the
    table's distances; tsne allocates none: at n = 2400, d = 768 the two
    trace under 1.5 * 8n^2 (1.32 * 8n^2: the n x n matrix beside
    pairwise_distances' unit vectors). The dense-P loop took 2.1 * 8n^2."""
    n = 2400
    ds = make_random_dataset(seed=6, n=n, dim=768)
    tracemalloc.start()
    try:
        tsne(build_neighbor_table(ds), TsneConfig(iterations=30, early_exaggeration_iters=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n


@pytest.mark.parametrize("factor", [1.0, 12.0])
def test_kl_step_in_one_block_rounds_as_the_dense_reference(factor):
    """While one strip covers every row, the step rounds exactly as its
    formulas written densely in its order of operations do."""
    assert len(neighbors._row_blocks(60, 2 * 60)) == 1
    P, Y = _step_inputs(1.0)
    kl, grad = _kl_step(P, factor, _entropy(P), Y)
    ref_kl, ref_grad = sweep_reference_step(P, factor, Y)
    assert np.array_equal(grad, ref_grad)
    assert kl == ref_kl


def test_kl_gradient_matches_finite_differences_in_row_blocks(monkeypatch):
    monkeypatch.setattr(neighbors, "_TASK_ELEMS", 120)  # 3-row blocks at n = 20
    blocks = neighbors._row_blocks(20, 2 * 20)
    assert len(blocks) >= 5 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
    test_kl_gradient_matches_finite_differences()


# ---------------------------------------------------------------------------
# the optimizer
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cluster_projection():
    ds = two_arc_clusters()
    nt = build_neighbor_table(ds)
    result = tsne(nt, TsneConfig(perplexity=20, iterations=600, seed=0))
    return ds, nt, result


def test_two_clusters_separate(cluster_projection):
    _, _, result = cluster_projection
    Y = result.coords
    m_a, m_b = Y[:50].mean(axis=0), Y[50:].mean(axis=0)
    pred = np.linalg.norm(Y - m_b, axis=1) < np.linalg.norm(Y - m_a, axis=1)
    true = np.array([False] * 50 + [True] * 50)
    assert (pred == true).mean() == 1.0


def test_kl_trace_progress(cluster_projection):
    _, _, result = cluster_projection
    kl = result.kl_trace
    assert np.isfinite(kl).all() and (kl >= 0).all()
    end_of_exaggeration = result.config.early_exaggeration_iters - 1
    assert kl[-1] < kl[end_of_exaggeration]
    assert kl[-50:].mean() <= kl[300:350].mean()


def test_projection_trustworthiness(cluster_projection):
    _, nt, result = cluster_projection
    assert trustworthiness(nt, result.coords, 12) > 0.95


def test_tsne_deterministic(cluster_projection):
    _, nt, result = cluster_projection
    again = tsne(nt, TsneConfig(perplexity=20, iterations=600, seed=0))
    assert np.array_equal(result.coords, again.coords)
    assert np.array_equal(result.kl_trace, again.kl_trace)
    other = tsne(nt, TsneConfig(perplexity=20, iterations=300, seed=1))
    assert not np.array_equal(result.coords[:10], other.coords[:10])


def test_tsne_matches_reference_loop_bit_for_bit(cluster_projection):
    ds, _, result = cluster_projection
    coords, kl = reference_tsne(ds.vectors, result.config)
    assert result.coords.tobytes() == coords.tobytes()
    assert result.kl_trace.tobytes() == kl.tobytes()

    X = make_random_dataset(seed=23, n=60, dim=12).vectors
    cfg = TsneConfig(perplexity=10, iterations=200, early_exaggeration_iters=60,
                     momentum_switch_iter=120, seed=4)
    result = tsne(table_of(X), cfg)
    coords, kl = reference_tsne(X, cfg)
    assert result.coords.tobytes() == coords.tobytes()
    assert result.kl_trace.tobytes() == kl.tobytes()


def test_learning_rate_defaults_to_n_over_exaggeration():
    nt = build_neighbor_table(make_random_dataset(seed=1, n=40, dim=4))
    cfg = TsneConfig(perplexity=5, iterations=20, early_exaggeration_iters=5,
                     early_exaggeration_factor=8.0)
    auto = tsne(nt, cfg)
    assert cfg.learning_rate is None and auto.learning_rate == 5.0
    given = tsne(nt, replace(cfg, learning_rate=5.0))
    assert given.coords.tobytes() == auto.coords.tobytes()
    assert tsne(nt, replace(cfg, learning_rate=7.0)).learning_rate == 7.0


def test_tsne_starts_from_init():
    nt = build_neighbor_table(make_random_dataset(seed=1, n=40, dim=4))
    cfg = TsneConfig(perplexity=5, iterations=20, early_exaggeration_iters=5, seed=3)
    seeded = 1e-4 * np.random.default_rng(3).standard_normal((40, 2))
    assert tsne(nt, cfg, init=seeded).coords.tobytes() == tsne(nt, cfg).coords.tobytes()
    for bad in (seeded[:-1], seeded[:, :1], np.where(seeded > 0, np.nan, seeded)):
        with pytest.raises(ValueError, match=r"^init must be a finite \(40, 2\) array$"):
            tsne(nt, cfg, init=bad)


def test_config_echoed(cluster_projection):
    _, _, result = cluster_projection
    assert result.config.perplexity == 20
    assert result.config.iterations == 600
    assert result.config.seed == 0


def test_tsne_preconditions():
    small = build_neighbor_table(make_random_dataset(seed=1, n=8, dim=4))
    with pytest.raises(AnalysisError, match="at least 10"):
        tsne(small, TsneConfig())
    nt = build_neighbor_table(make_random_dataset(seed=1, n=40, dim=4))
    with pytest.raises(AnalysisError, match="perplexity"):
        tsne(nt, TsneConfig(perplexity=13.0))
    with pytest.raises(AnalysisError, match="early exaggeration"):
        tsne(nt, TsneConfig(perplexity=5, iterations=100,
                            early_exaggeration_iters=200))


@pytest.mark.parametrize("value", [0.5, 0.0, -3.0, float("nan"), float("inf")])
def test_tsne_rejects_perplexity_below_one(value):
    nt = build_neighbor_table(make_random_dataset(seed=1, n=40, dim=4))
    message = f"^perplexity must be a finite number >= 1, got {value}$"
    with pytest.raises(ValueError, match=message):
        tsne(nt, TsneConfig(perplexity=value, iterations=20, early_exaggeration_iters=5))


@pytest.mark.parametrize("field, name", [
    ("learning_rate", "learning rate"),
    ("early_exaggeration_factor", "early exaggeration factor"),
])
@pytest.mark.parametrize("value", [0.0, -200.0, float("nan"), float("inf")])
def test_tsne_rejects_step_settings_that_are_not_positive_and_finite(field, name, value):
    nt = build_neighbor_table(make_random_dataset(seed=1, n=40, dim=4))
    with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0, got {value}$"):
        tsne(nt, TsneConfig(perplexity=5, iterations=20, early_exaggeration_iters=5,
                            **{field: value}))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_trustworthiness_lossless_projection():
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(60, 2))
    X = np.hstack([coords, np.zeros((60, 4))])
    assert trustworthiness(table_of(X, "euclidean"), coords, 10) == 1.0


def test_trustworthiness_matches_brute_force(cluster_projection):
    ds, _, result = cluster_projection
    nt = table_of(ds.vectors, "euclidean")
    assert trustworthiness(nt, result.coords, 12) == pytest.approx(
        reference_trustworthiness(ds.vectors, result.coords, 12), abs=1e-12)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 7))
    Y = rng.normal(size=(80, 2))
    assert trustworthiness(table_of(X, "euclidean"), Y, 9) == pytest.approx(
        reference_trustworthiness(X, Y, 9), abs=1e-12)


def test_trustworthiness_of_a_cosine_table_matches_brute_force():
    """The high space is ranked in the table's geometry: on vectors of
    spread norms, a cosine table gives the cosine definition's value, which
    is not the euclidean one."""
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 7)) * rng.uniform(0.5, 2.0, size=(80, 1))
    Y = rng.normal(size=(80, 2))
    # no two of a row's pair-at-a-time distances within 1e-9 of each other,
    # so the table's rounding cannot reorder them
    for i in range(80):
        gaps = np.diff(np.sort(np.delete(high_distances(X, i, "cosine"), i)))
        assert gaps.min() > 1e-9
    expected = reference_trustworthiness(X, Y, 9, "cosine")
    assert trustworthiness(table_of(X), Y, 9) == expected
    assert expected != reference_trustworthiness(X, Y, 9, "euclidean")


def test_trustworthiness_tie_rule_on_integer_grid(monkeypatch):
    # integer points: distances are exact in both computations and tie
    # heavily (duplicate points included), so the lower-index rule decides,
    # whichever worker runs each row block
    monkeypatch.setattr(neighbors, "_TASK_ELEMS", 2000)  # many row blocks
    rng = np.random.default_rng(23)
    X = rng.integers(0, 3, size=(90, 4)).astype(float)
    Y = rng.integers(0, 4, size=(90, 2)).astype(float)
    nt = table_of(X, "euclidean")
    for k in (1, 5, 12, 44):
        expected = reference_trustworthiness(X, Y, k)
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(neighbors, "_workers", lambda: workers)
            assert trustworthiness(nt, Y, k) == expected


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_trustworthiness_matches_sklearn(cluster_projection, metric):
    sklearn_manifold = pytest.importorskip("sklearn.manifold")
    ds, _, result = cluster_projection
    ours = trustworthiness(table_of(ds.vectors, metric), result.coords, 12)
    ref = sklearn_manifold.trustworthiness(ds.vectors, result.coords, n_neighbors=12,
                                           metric=metric)
    assert ours == pytest.approx(ref, abs=1e-12)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 7))
    Y = rng.normal(size=(80, 2))
    assert trustworthiness(table_of(X, metric), Y, 9) == pytest.approx(
        sklearn_manifold.trustworthiness(X, Y, n_neighbors=9, metric=metric), abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda nt: joint_affinities(nt, 5.0),
    lambda nt: tsne(nt, TsneConfig(perplexity=5, iterations=20, early_exaggeration_iters=5)),
    lambda nt: trustworthiness(nt, np.zeros((nt.n, 2)), 5),
], ids=["joint_affinities", "tsne", "trustworthiness"])
def test_group_excluded_table_is_refused(call):
    """Affinities and trustworthiness rank all n - 1 others of each row."""
    ds = make_random_dataset(seed=1, n=40, dim=4)
    grouped = EmbeddingDataset.from_arrays(ds.ids, ds.vectors, ds.bio_labels, ds.conf_labels,
                                           [f"g{i // 2}" for i in range(ds.n)])
    with pytest.raises(ValueError, match="must not exclude same-group pairs"):
        call(build_neighbor_table(grouped, exclude_same_group=True))


def test_trustworthiness_k_range():
    X = np.random.default_rng(0).normal(size=(20, 3))
    Y = X[:, :2]
    with pytest.raises(ValueError, match="k must satisfy"):
        trustworthiness(table_of(X), Y, 10)  # k >= n/2


def test_diagnostics_rigid_motion_invariant(cluster_projection):
    ds, nt, result = cluster_projection
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    moved = result.coords @ rot.T + np.array([13.0, -4.5])
    assert trustworthiness(nt, moved, 12) == trustworthiness(nt, result.coords, 12)

    def knn_acc_on_coords(coords):
        probe = EmbeddingDataset.from_arrays(
            ds.ids, coords, ds.bio_labels, ds.conf_labels, require_nonzero=False)
        nt = build_neighbor_table(probe, metric="euclidean")
        folds = assign_folds(probe, 5, seed=0)
        return knn_predict(probe, nt, folds, "bio", 3).accuracy_mean

    assert knn_acc_on_coords(moved) == knn_acc_on_coords(result.coords)
