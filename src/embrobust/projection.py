"""Exact 2D t-SNE with perplexity calibration, plus projection diagnostics.

The projection is unsupervised: affinities come only from pairwise
distances in the embedding space (squared cosine distances, consistent with
the toolkit-wide metric). Exact O(n^2) gradients keep the implementation
small and make the finite-difference gradient check meaningful.

Each gradient iteration works on the upper strips ``P[rows, rows.start:]``
of the row blocks of ``neighbors._row_blocks``, since d^2, the Student-t
kernel K = 1/(1 + d^2), P and the gradient's weights are all symmetric:
each pair's kernel is computed once. ``tsne`` packs the strips of P into
contiguous arrays once per run and frees the dense P; the strips of K share
that layout. A first sweep writes each strip of K, a second builds the
gradient from it and adds each strip's part right of its diagonal square to
the mirrored rows as well, in two strip temporaries of about 1 MB together.
The loop holds P and K in strips, about 8n^2 bytes (32.5 MB at n = 2000),
and allocates no n x n array. Before it, a run holds at most two n x n
arrays at a time: ``joint_affinities`` symmetrizes P in place beside the
squared distances, and ``_entropy`` forms P log P in place in a copy of P's
positive entries. The divergence is sum(P log P) + sum(P log(1 + d^2)) +
log Z with Z = sum(K). While one block covers every row (n <= 256) the one
strip is the whole matrix and a step rounds exactly as the dense formulas
do; above that, every block product is small enough that OpenBLAS runs it
on one thread, so the trajectory does not depend on the BLAS thread count.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import EmbeddingDataset
from .evaluation import AnalysisError
from .neighbors import _map_blocks, _rank_rows, _row_blocks, pairwise_distances

@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    early_exaggeration_factor: float = 12.0
    early_exaggeration_iters: int = 250
    learning_rate: float = 200.0
    momentum_start: float = 0.5
    momentum_final: float = 0.8
    momentum_switch_iter: int = 250
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    coords: np.ndarray    # (n, 2)
    kl_trace: np.ndarray  # KL divergence (true affinities) per iteration
    config: TsneConfig


# a row's perplexity is accepted within this of the target, after at most
# this many bisection steps
_PERPLEXITY_TOL = 1e-4
_BISECTION_STEPS = 64


def perplexity_calibration(
    sq_dists_row: np.ndarray,
    target_perplexity: float,
) -> tuple[float, np.ndarray]:
    """Find the Gaussian bandwidth whose conditional distribution has the
    requested perplexity.

    ``sq_dists_row`` holds squared distances to all other samples (self
    excluded). Returns (sigma, p_row) with p_row summing to 1, at the first
    bisection step whose perplexity is within ``_PERPLEXITY_TOL`` of the
    target. When the target is unreachable (degenerate rows, a target below
    1 or one >= the row length) the row falls back to uniform with a warning.
    """
    d = np.asarray(sq_dists_row, dtype=np.float64)
    m = d.size
    if m < 1:
        raise ValueError("empty distance row")
    uniform = np.full(m, 1.0 / m)
    if not 1 <= target_perplexity < m:
        warnings.warn(
            f"perplexity {target_perplexity} unreachable for row of {m} neighbors; "
            "using uniform affinities")
        return float("inf"), uniform

    shifted = d - d.min()

    def entropy_probs(beta: float) -> tuple[float, np.ndarray]:
        p = np.exp(-beta * shifted)
        p /= p.sum()  # at least 1: ``shifted`` holds a 0
        nz = p[p > 0]
        return float(-(nz * np.log2(nz)).sum()), p

    target_entropy = np.log2(target_perplexity)
    beta, beta_lo, beta_hi = 1.0, 0.0, np.inf
    # the last pass only checks the step the one before it took
    for _ in range(_BISECTION_STEPS + 1):
        h, p = entropy_probs(beta)
        if abs(2.0 ** h - target_perplexity) <= _PERPLEXITY_TOL:
            return float(np.sqrt(0.5 / beta)), p
        if h > target_entropy:  # too spread out: sharpen
            beta_lo = beta
            beta = beta * 2.0 if beta_hi == np.inf else 0.5 * (beta + beta_hi)
        else:
            beta_hi = beta
            beta = beta / 2.0 if beta_lo == 0.0 else 0.5 * (beta + beta_lo)
    warnings.warn("perplexity calibration did not converge; using uniform affinities")
    return float("inf"), uniform


def joint_affinities(sq_dists: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized affinity matrix P from squared distances: non-negative,
    zero diagonal, sums to 1.

    The conditional affinities are symmetrized in place, over the upper
    strips of the row blocks: P_ij = P_ji = (c_ij + c_ji) / (2n) is computed
    once per pair, in a strip temporary of about 1 MB, so the calibration
    holds one n x n array beside ``sq_dists``.
    """
    n = sq_dists.shape[0]
    cond = np.zeros((n, n))
    for i, row in enumerate(sq_dists):
        _, p_row = perplexity_calibration(np.concatenate((row[:i], row[i + 1:])), perplexity)
        cond[i, :i] = p_row[:i]
        cond[i, i + 1:] = p_row[i:]
    for rows in _row_blocks(n, 2 * n):
        cols = slice(rows.start, n)
        strip = cond[rows, cols] + cond[cols, rows].T
        strip /= 2.0 * n
        cond[rows, cols] = strip
        cond[cols, rows] = strip.T
    return cond


def _upper_strips(P: np.ndarray) -> list[np.ndarray]:
    """Copies of the upper strips ``P[rows, rows.start:]`` of the step's row
    blocks, each contiguous and none a view of P: the layout ``_kl_step``
    reads."""
    n = P.shape[0]
    return [P[rows, rows.start:].copy() for rows in _row_blocks(n, 2 * n)]


def _kl_step(P: list[np.ndarray], factor: float, entropy: float, Y: np.ndarray,
             K: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """KL(P || Q) and the gradient of KL(factor * P || Q) at Y, over the
    upper strips of the row blocks.

    ``P`` is ``_upper_strips`` of the symmetric affinities and ``entropy``
    is sum(P log P) over P > 0. ``K`` holds a caller-owned float64 array of
    each strip's shape, overwritten with the kernel 1/(1+d^2) (zero
    diagonal); Q = K / Z. A strip starts at its block's first row, so its
    first b columns are the block's diagonal square and the rest mirror the
    rows below it. The first sweep writes each strip of K and adds its sum
    and its sum of P log(1 + d^2) to Z and the KL, the square once and the
    rest twice, every log finite as 1 + d^2 >= 1. The second builds
    M = (factor * P - K / Z) * K per strip and adds its row sums and M @ Y
    to the strip's rows, and its column sums right of the square and their
    products with the strip's rows of Y to the mirrored rows. In one strip
    each element rounds as ``num = 1 / (1 + max(d^2, 0))``,
    ``M = (factor * P - num / sum(num)) * num`` and ``M @ Y`` do.
    """
    n = Y.shape[0]
    work, M = np.empty(P[0].size), np.empty(P[0].size)
    strips = []  # each strip's P, K, rows, columns and two work views of its shape
    for p, k in zip(P, K):
        (b, w), start = p.shape, n - p.shape[1]
        strips.append((p, k, slice(start, start + b), slice(start, n),
                       work[:p.size].reshape(b, w), M[:p.size].reshape(b, w)))
    sq = (Y * Y).sum(axis=1)
    total = cross = 0.0
    for p, k, rows, cols, t, g in strips:
        b = len(p)
        t[...] = sq[cols]
        t += sq[rows, None]  # sq_i + sq_j
        np.matmul(Y[rows], Y[cols].T, out=g)
        g *= 2.0
        t -= g
        np.clip(t, 0.0, None, out=t)
        t += 1.0
        np.reciprocal(t, out=k)
        np.fill_diagonal(k, 0.0)
        total += k[:, :b].sum() + 2.0 * k[:, b:].sum()
        np.log(t, out=t)
        t *= p
        cross += t[:, :b].sum() + 2.0 * t[:, b:].sum()
    row_sums, MY = np.zeros(n), np.zeros((n, 2))
    for p, k, rows, cols, q, m in strips:
        np.divide(k, total, out=q)
        np.multiply(p, factor, out=m)  # exact for factor 1
        m -= q
        m *= k
        row_sums[rows] += m.sum(axis=1)
        MY[rows] += m @ Y[cols]
        mirror = m[:, len(p):]  # M[j, i] for the rows j below the block
        row_sums[rows.stop:] += mirror.sum(axis=0)
        MY[rows.stop:] += mirror.T @ Y[rows]
    grad = 4.0 * (row_sums[:, None] * Y - MY)
    return float(entropy + cross + np.log(total)), grad


def _entropy(P: np.ndarray) -> float:
    """sum(P log P) over P > 0, with P log P formed in place a task-sized
    part at a time, so P and its positive entries are the only n x n arrays."""
    p = P[P > 0]
    for part in _row_blocks(p.size, 1):
        p[part] *= np.log(p[part])
    return float(p.sum())


def kl_divergence_and_grad(P: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(P || Q) under the Student-t low-dimensional kernel, with its gradient."""
    strips = _upper_strips(P)
    return _kl_step(strips, 1.0, _entropy(P), Y, [np.empty_like(s) for s in strips])


def tsne(ds: EmbeddingDataset | np.ndarray, cfg: TsneConfig = TsneConfig()) -> ProjectionResult:
    """Project to 2D by gradient descent on the Kullback-Leibler objective.

    Deterministic given the seed: initial coordinates are a small isotropic
    Gaussian cloud from a seeded generator. The kl_trace always records the
    divergence against the true (non-exaggerated) affinities. Raises
    ``ValueError`` for a perplexity that is not a finite number >= 1 (no
    distribution has a perplexity 2^H below 1), a learning rate or
    early-exaggeration factor that is not a finite number > 0, fewer than
    one iteration or a negative early-exaggeration length.
    """
    if not (np.isfinite(cfg.perplexity) and cfg.perplexity >= 1):
        raise ValueError(f"perplexity must be a finite number >= 1, got {cfg.perplexity}")
    for name, value in (("learning rate", cfg.learning_rate),
                        ("early exaggeration factor", cfg.early_exaggeration_factor)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value}")
    if cfg.iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {cfg.iterations}")
    if cfg.early_exaggeration_iters < 0:
        raise ValueError(
            f"early exaggeration iterations must be >= 0, got {cfg.early_exaggeration_iters}")
    vectors = ds.vectors if isinstance(ds, EmbeddingDataset) else np.asarray(ds)
    n = vectors.shape[0]
    if n < 10:
        raise AnalysisError(f"t-SNE needs at least 10 samples, got {n}")
    if cfg.perplexity >= (n - 1) / 3:
        raise AnalysisError(
            f"perplexity {cfg.perplexity} too large for n={n}; needs < (n-1)/3")
    if cfg.iterations < cfg.early_exaggeration_iters:
        raise AnalysisError("iterations must cover the early exaggeration phase")

    P = joint_affinities(pairwise_distances(vectors, metric="cosine") ** 2, cfg.perplexity)

    rng = np.random.default_rng(cfg.seed)
    Y = 1e-4 * rng.standard_normal((n, 2))
    velocity = np.zeros_like(Y)
    kl_trace = np.empty(cfg.iterations)
    entropy = _entropy(P)
    P = _upper_strips(P)  # frees the dense matrix
    K = [np.empty_like(p) for p in P]
    for it in range(cfg.iterations):
        factor = cfg.early_exaggeration_factor if it < cfg.early_exaggeration_iters else 1.0
        # trace is always against the true affinities, also while exaggerating
        kl_true, grad = _kl_step(P, factor, entropy, Y, K)
        if not np.isfinite(kl_true):
            raise AnalysisError(f"non-finite divergence at iteration {it}")
        kl_trace[it] = kl_true
        momentum = (cfg.momentum_start if it < cfg.momentum_switch_iter
                    else cfg.momentum_final)
        velocity = momentum * velocity - cfg.learning_rate * grad
        Y = Y + velocity
        Y -= Y.mean(axis=0)

    Y.flags.writeable = False
    kl_trace.flags.writeable = False
    return ProjectionResult(coords=Y, kl_trace=kl_trace, config=cfg)


def trustworthiness(
    ds: EmbeddingDataset | np.ndarray,
    coords: np.ndarray,
    k: int = 12,
) -> float:
    """Rank-based projection fidelity in [0, 1].

    Penalizes points that are k-nearest neighbors in the projection but not
    in the original space, weighted by how far down the original ranking
    they sit. Both spaces are ranked under Euclidean distance, so the score
    is invariant to rigid motions of the coordinates. Each row-block task on
    the ranking pool returns its rows' penalty, an exact integer, so the
    score is the same for any worker count.
    """
    X = ds.vectors if isinstance(ds, EmbeddingDataset) else np.asarray(ds)
    coords = np.asarray(coords, dtype=np.float64)
    n = X.shape[0]
    if coords.shape[0] != n:
        raise ValueError("coords row count differs from dataset")
    if not 1 <= k < n / 2:
        raise ValueError(f"k must satisfy 1 <= k < n/2, got k={k}, n={n}")

    dh = pairwise_distances(X, metric="euclidean")
    dl = pairwise_distances(coords, metric="euclidean")
    np.fill_diagonal(dh, np.inf)
    np.fill_diagonal(dl, np.inf)
    # high-space rank of each of the k low-space neighbors j of i, under the
    # tie rule: 1 + #{m : dh[i, m] < dh[i, j], or equal with m < j}
    cols = np.arange(n)

    def block_penalty(rows: slice) -> int:
        low = _rank_rows(dl[rows], k)[:, :, None]
        high = dh[rows][:, None, :]
        at = np.take_along_axis(high, low, axis=2)
        before = (high < at) | ((high == at) & (cols < low))
        ranks = before.sum(axis=2) + 1
        return int(np.maximum(ranks - k, 0).sum())

    # a task allocates its rows' (k, n) comparison arrays
    penalty = sum(_map_blocks(block_penalty, _row_blocks(n, n * k)))
    return float(1.0 - 2.0 * penalty / (n * k * (2.0 * n - 3.0 * k - 1.0)))
