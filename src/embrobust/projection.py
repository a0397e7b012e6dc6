"""2D t-SNE on kNN-sparse affinities with an exact repulsion, plus
projection diagnostics.

The projection is unsupervised: affinities come only from pairwise
distances in the embedding space, read from the caller's
``neighbors.NeighborTable`` (the cosine table every other analysis takes,
so the geometry is whichever table the caller built). As in Barnes-Hut SNE
(van der Maaten 2014), each row is calibrated on the squared distances of
its k = floor(3 * perplexity) nearest others, ranked by the table, and P
is the symmetrization of those conditional affinities over the union of
the kNN graphs: a list of pairs i < j (104 852 on criterion 9's n = 2000
set, at perplexity 30). The table holds the embeddings' one n x n array:
``tsne`` allocates none, and ``trustworthiness`` only the 2D coordinates'.

Each gradient step is one sweep over the upper strips ``rows x rows.start:``
of the row blocks of ``neighbors._row_blocks``, in one reused buffer of
about 0.5 MB. A (b x 4) @ (4 x w) product gives a strip's 1 + d^2, and its
reciprocal the Student-t kernel K, computed once per pair; K^2 times
[Y, 1] gives the repulsion of the strip's rows and, right of its diagonal
square, of the mirrored rows. The attraction and sum(P log(1 + d^2)) run
over P's pairs only. The divergence is sum(P log P) + sum(P log(1 + d^2))
+ log Z with Z = sum(K). Every strip product is small enough that OpenBLAS
runs it on one thread, and every sum over pairs is an ``np.sum``,
``np.add.reduceat`` or ``np.bincount``, never a BLAS dot, so the trajectory
does not depend on the BLAS thread count.

The learning rate defaults to n / early-exaggeration factor (Belkina et
al. 2019): each point's gradient shrinks as 1/n, and a fixed rate leaves
the result to the draw of the start.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .evaluation import AnalysisError
from .neighbors import NeighborTable, _map_blocks, _rank_rows, _row_blocks, pairwise_distances

@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    early_exaggeration_factor: float = 12.0
    early_exaggeration_iters: int = 250
    # None: n / early_exaggeration_factor (Belkina et al. 2019)
    learning_rate: float | None = None
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
    config: TsneConfig    # as given
    learning_rate: float  # the one that took effect
    neighbors: int        # k: the nearest others each row's affinities are calibrated on
    pairs: int            # pairs i < j with P_ij > 0
    uniform_rows: int     # rows whose calibration fell back to uniform affinities


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

    ``sq_dists_row`` holds squared distances to the other samples the row
    is calibrated on (``joint_affinities`` gives its k nearest). Returns
    (sigma, p_row) with p_row summing to 1, at the first bisection step
    whose perplexity is within ``_PERPLEXITY_TOL`` of the target. When
    the target is unreachable (degenerate rows, a target below 1 or one >=
    the row length) the row falls back to uniform with a warning.
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


@dataclass(frozen=True, eq=False)
class Affinities:
    """The symmetric joint affinities P, over the union of the rows' kNN graphs.

    ``p[e]`` is P_ij = P_ji for the pair i = ``i[e]`` < j = ``j[e]``. The
    pairs are in (i, j) order, every p is > 0, and P sums to 1 over both
    directions. ``starts`` holds the first pair of each run of equal i.
    ``sigma[r]`` is row r's Gaussian bandwidth, inf where its calibration
    fell back to uniform affinities.
    """

    i: np.ndarray       # (m,) intp
    j: np.ndarray       # (m,) intp
    p: np.ndarray       # (m,) float64
    starts: np.ndarray  # (r,) intp
    neighbors: int      # k: the nearest others each row is calibrated on
    sigma: np.ndarray   # (n,) float64


def joint_affinities(nt: NeighborTable, perplexity: float) -> Affinities:
    """Symmetrized affinities from the squared distances of a neighbor table.

    Each row's k = floor(3 * perplexity) nearest others (at most n - 1;
    ties to the lower index) are ``nt.ranked``, and the row is calibrated
    on their squared distances with one ``perplexity_calibration`` call.
    Then P_ij = P_ji = (c_ij + c_ji) / (2n) over every pair where one of the
    two rows holds the other, c being the conditional affinities (0 off a
    row's neighbors), as in Barnes-Hut SNE (van der Maaten 2014). Raises
    ``ValueError`` for a table built with ``exclude_same_group``: a row's
    neighbors are ranked among all n - 1 others.
    """
    if nt.groups is not None:
        raise ValueError("joint affinities rank all n - 1 others: "
                         "the table must not exclude same-group pairs")
    n = nt.n
    k = min(int(3 * perplexity), n - 1)
    # each row's squared distances to its neighbors, then its affinities
    nbrs = nt.ranked(slice(None), k)
    cond = np.take_along_axis(nt.distances, nbrs, axis=1)
    np.square(cond, out=cond)
    sigma = np.empty(n)
    for r in range(n):
        sigma[r], cond[r] = perplexity_calibration(cond[r], perplexity)
    # each pair once, keyed i * n + j with i < j, summing its one or two
    # directed entries
    row = np.arange(n)[:, None]
    key = np.minimum(row, nbrs)
    key *= n
    key += np.maximum(row, nbrs)
    del nbrs
    order = np.argsort(key.ravel(), kind="stable")
    key = key.ravel()[order]
    cond = cond.ravel()[order]
    del order
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    p = np.add.reduceat(cond, first)
    p /= 2.0 * n
    keep = p > 0
    i, j = np.divmod(key[first][keep], n)
    p = p[keep]
    starts = np.flatnonzero(np.r_[True, i[1:] != i[:-1]])
    return Affinities(i, j, p, starts, k, sigma)


def _kl_step(P: Affinities, factor: float, entropy: float,
             Y: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(P || Q) and the gradient of KL(factor * P || Q) at Y, in one sweep
    over the upper strips of the row blocks.

    ``entropy`` is sum(P log P) over both directions. Q = K / Z with the
    kernel K = 1/(1 + d^2) (zero diagonal) and Z = sum(K). A strip
    ``rows x rows.start:`` starts at its block's first row, so its first b
    columns are the block's diagonal square and the rest mirror the rows
    below it. One (b x 4) @ (4 x w) product of [y, |y|^2 + 1, 1] and
    [-2y, 1, |y|^2] gives its 1 + d^2, clamped at 1 and inverted in place
    to K, which adds its part of Z, the square once and the rest twice.
    Squared in place, K^2 @ [Y, 1] gives the strip's rows their repulsion
    sums and K^2[:, b:].T @ [Y[rows], 1] the mirrored rows theirs. The
    attraction and sum(P log(1 + d^2)) run over P's pairs only, with
    gathers, ``np.sum`` and ``np.bincount``: no reduction goes through BLAS.
    The gradient is 4 (factor * F_attr - F_rep / Z), with
    F_attr,i = sum_j P_ij K_ij (y_i - y_j) and F_rep,i = sum_j K_ij^2 (y_i - y_j).
    """
    n = Y.shape[0]
    sq = (Y * Y).sum(axis=1)
    ones = np.ones(n)
    left = np.column_stack((Y, sq + 1.0, ones))
    right = np.vstack((-2.0 * Y.T, ones, sq))
    charges = np.column_stack((Y, ones))
    rep = np.zeros((n, 3))  # K^2 @ [Y, 1], row by row
    blocks = _row_blocks(n, 2 * n)
    buf = np.empty(blocks[0].stop * n)  # the first strip is the largest
    total = 0.0
    for rows in blocks:
        b, w = rows.stop - rows.start, n - rows.start
        k = buf[:b * w].reshape(b, w)
        np.matmul(left[rows], right[:, rows.start:], out=k)
        np.maximum(k, 1.0, out=k)
        np.reciprocal(k, out=k)
        np.fill_diagonal(k, 0.0)
        total += 2.0 * k.sum() - k[:, :b].sum()
        k *= k
        rep[rows] += k @ charges[rows.start:]
        rep[rows.stop:] += k[:, b:].T @ charges[rows]

    yt = np.ascontiguousarray(Y.T)
    dy = np.take(yt, P.i, axis=1)
    dy -= np.take(yt, P.j, axis=1)  # y_i - y_j on each pair
    t = dy[0] * dy[0]
    t += dy[1] * dy[1]
    t += 1.0
    dy *= P.p / t
    # each pair's P_ij K_ij (y_i - y_j) goes to row i, and its negative to
    # row j; i runs in order, so its sums are one pass (a bincount over i
    # made the step at n = 800 take 2.4-2.8 ms instead of 2.0)
    attr = np.zeros((2, n))
    attr[:, P.i[P.starts]] = np.add.reduceat(dy, P.starts, axis=1)
    for c in range(2):
        attr[c] -= np.bincount(P.j, dy[c], n)
    np.log(t, out=t)
    t *= P.p
    cross = 2.0 * float(np.sum(t))
    grad = factor * attr.T
    grad -= (Y * rep[:, 2:] - rep[:, :2]) / total
    grad *= 4.0
    return float(entropy + cross + np.log(total)), grad


def _entropy(P: Affinities) -> float:
    """sum(P log P) over both directions."""
    return 2.0 * float(np.sum(P.p * np.log(P.p)))


def kl_divergence_and_grad(P: Affinities, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(P || Q) under the Student-t low-dimensional kernel, with its gradient."""
    return _kl_step(P, 1.0, _entropy(P), Y)


def tsne(nt: NeighborTable, cfg: TsneConfig = TsneConfig(),
         init: np.ndarray | None = None) -> ProjectionResult:
    """Project the table's samples to 2D by gradient descent on the
    Kullback-Leibler objective, with ``joint_affinities(nt, cfg.perplexity)``.

    Deterministic given the seed: initial coordinates are a small isotropic
    Gaussian cloud from a seeded generator, unless ``init`` gives them as an
    (n, 2) array. The learning rate is ``cfg.learning_rate``, or n divided by
    the early-exaggeration factor when that is None (Belkina et al. 2019):
    the gradient of each point shrinks as 1/n, so a fixed rate takes ever
    smaller steps as n grows. The kl_trace always records the divergence
    against the true (non-exaggerated) affinities. Raises ``ValueError``
    for a perplexity that is not a finite number >= 1 (no distribution has
    a perplexity 2^H below 1), a learning rate or early-exaggeration factor
    that is not a finite number > 0, fewer than one iteration, a negative
    early-exaggeration length, an ``init`` that is not n x 2 and finite, or
    a table built with ``exclude_same_group``.
    """
    if not (np.isfinite(cfg.perplexity) and cfg.perplexity >= 1):
        raise ValueError(f"perplexity must be a finite number >= 1, got {cfg.perplexity}")
    for name, value in (("learning rate", cfg.learning_rate),
                        ("early exaggeration factor", cfg.early_exaggeration_factor)):
        if value is not None and not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value}")
    if cfg.iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {cfg.iterations}")
    if cfg.early_exaggeration_iters < 0:
        raise ValueError(
            f"early exaggeration iterations must be >= 0, got {cfg.early_exaggeration_iters}")
    n = nt.n
    if n < 10:
        raise AnalysisError(f"t-SNE needs at least 10 samples, got {n}")
    if cfg.perplexity >= (n - 1) / 3:
        raise AnalysisError(
            f"perplexity {cfg.perplexity} too large for n={n}; needs < (n-1)/3")
    if cfg.iterations < cfg.early_exaggeration_iters:
        raise AnalysisError("iterations must cover the early exaggeration phase")
    if init is not None:
        init = np.asarray(init, dtype=np.float64)
        if init.shape != (n, 2) or not np.isfinite(init).all():
            raise ValueError(f"init must be a finite ({n}, 2) array")
    lr = (n / cfg.early_exaggeration_factor if cfg.learning_rate is None
          else cfg.learning_rate)

    P = joint_affinities(nt, cfg.perplexity)

    Y = 1e-4 * np.random.default_rng(cfg.seed).standard_normal((n, 2)) if init is None else init
    velocity = np.zeros_like(Y)
    kl_trace = np.empty(cfg.iterations)
    entropy = _entropy(P)
    for it in range(cfg.iterations):
        factor = cfg.early_exaggeration_factor if it < cfg.early_exaggeration_iters else 1.0
        # trace is always against the true affinities, also while exaggerating
        kl_true, grad = _kl_step(P, factor, entropy, Y)
        if not np.isfinite(kl_true):
            raise AnalysisError(f"non-finite divergence at iteration {it}")
        kl_trace[it] = kl_true
        momentum = (cfg.momentum_start if it < cfg.momentum_switch_iter
                    else cfg.momentum_final)
        velocity = momentum * velocity - lr * grad
        Y = Y + velocity
        Y -= Y.mean(axis=0)

    Y.flags.writeable = False
    kl_trace.flags.writeable = False
    return ProjectionResult(coords=Y, kl_trace=kl_trace, config=cfg, learning_rate=lr,
                            neighbors=P.neighbors, pairs=P.p.size,
                            uniform_rows=int(np.isinf(P.sigma).sum()))


def trustworthiness(nt: NeighborTable, coords: np.ndarray, k: int = 12) -> float:
    """Rank-based projection fidelity in [0, 1].

    Penalizes points that are k-nearest neighbors in the projection but not
    in the original space, weighted by how far down the original ranking
    they sit. The original space is ranked by the table's distances, so the
    geometry is the table's (cosine for the CLI's, as t-SNE's affinities);
    the projection under Euclidean distance, so the score is invariant to
    rigid motions of the coordinates. Each row-block task on the ranking
    pool returns its rows' penalty, an exact integer, so the score is the
    same for any worker count. Raises ``ValueError`` for a table built with
    ``exclude_same_group``: the definition ranks all n - 1 others.
    """
    if nt.groups is not None:
        raise ValueError("trustworthiness ranks all n - 1 others: "
                         "the table must not exclude same-group pairs")
    coords = np.asarray(coords, dtype=np.float64)
    n = nt.n
    if coords.shape[0] != n:
        raise ValueError("coords row count differs from the table's")
    if not 1 <= k < n / 2:
        raise ValueError(f"k must satisfy 1 <= k < n/2, got k={k}, n={n}")

    dl = pairwise_distances(coords, metric="euclidean")
    np.fill_diagonal(dl, np.inf)
    # high-space rank of each of the k low-space neighbors j of i, under the
    # tie rule: 1 + #{m : dh[i, m] < dh[i, j], or equal with m < j}, dh
    # being the table's distances (+inf on the diagonal)
    cols = np.arange(n)

    def block_penalty(rows: slice) -> int:
        low = _rank_rows(dl[rows], k)[:, :, None]
        high = nt.distances[rows][:, None, :]
        at = np.take_along_axis(high, low, axis=2)
        before = (high < at) | ((high == at) & (cols < low))
        ranks = before.sum(axis=2) + 1
        return int(np.maximum(ranks - k, 0).sum())

    # a task allocates its rows' (k, n) comparison arrays
    penalty = sum(_map_blocks(block_penalty, _row_blocks(n, n * k)))
    return float(1.0 - 2.0 * penalty / (n * k * (2.0 * n - 3.0 * k - 1.0)))
