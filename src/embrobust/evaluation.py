"""Cross-validated probes and confounder attribution.

Implements the downstream analyses: stratified fold assignment, kNN and
multinomial logistic regression validation predictions on either label
axis, the same-center-confounder fractions for misclassified samples, and
the relation between center-related kNN errors and regression errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dataset import EmbeddingDataset, class_count_matrix
from .neighbors import NeighborTable

# 9 log-spaced neighbor counts from 1 to 250
DEFAULT_K_GRID = (1, 2, 4, 8, 16, 32, 63, 125, 250)
DEFAULT_LAMBDA = 1e-3
# curvature pairs kept by the logistic-regression L-BFGS recursion
LBFGS_HISTORY = 10


class AnalysisError(ValueError):
    """An analysis precondition does not hold for the given data."""


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    fold_of: np.ndarray  # (n,) intp in [0, n_folds)
    n_folds: int


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Validation predictions of one probe configuration.

    Every sample is predicted exactly once, by the model trained on the
    folds not containing it.
    """

    target: str                    # "bio" | "conf"
    accuracy_mean: float
    accuracy_std: float
    fold_accuracy: tuple[float, ...]
    predictions: tuple[str, ...]
    correct: np.ndarray            # (n,) bool


@dataclass(frozen=True, eq=False)
class ConfounderReport:
    """Same-center fractions of confounding neighbors, per neighbor count k.

    ``frac_same_center[k]`` averages, over repetitions and misclassified
    samples, the fraction of the neighbors that voted for the wrong class
    which share the sample's confounder label. NaN marks grid points where
    no sample was misclassified. Accuracy curves are computed on the same
    (restricted) dataset as the fractions.
    """

    k_grid: tuple[int, ...]
    frac_same_center: np.ndarray
    acc_bio: np.ndarray
    acc_conf: np.ndarray
    chance_level: float
    n_misclassified: np.ndarray
    bio_classes: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class CenterErrorRelation:
    """Per-sample center-related kNN error rates vs regression errors.

    A kNN run is one (repetition seed, k) pair; a run makes a center-related
    error on a sample iff it misclassifies it and strictly more than half of
    the k training neighbors simultaneously carry a wrong label and the
    sample's confounder label.
    """

    fraction_center_error: np.ndarray  # (n,) fraction of runs, in [0, 1]
    logreg_wrong: np.ndarray           # (n,) bool
    bin_edges: np.ndarray              # (11,)
    bin_counts: np.ndarray             # (10,)
    bin_logreg_error: np.ndarray       # (10,) NaN for empty bins


def assign_folds(ds: EmbeddingDataset, n_folds: int = 5, seed: int = 0) -> FoldAssignment:
    """Stratified fold assignment: each (bio, conf) cell is dealt round-robin.

    Cell members are shuffled and dealt starting from a random fold, so cell
    counts per fold differ by at most 1. Deterministic given the seed.
    """
    if n_folds < 2:
        raise AnalysisError(f"need at least 2 folds, got {n_folds}")
    if n_folds > ds.n:
        raise AnalysisError(f"{n_folds} folds exceed {ds.n} samples")
    rng = np.random.default_rng(seed)
    cell_key = ds.bio_codes * len(ds.conf_classes) + ds.conf_codes
    fold_of = np.empty(ds.n, dtype=np.intp)
    for cell in np.unique(cell_key):
        members = np.nonzero(cell_key == cell)[0]
        rng.shuffle(members)
        start = int(rng.integers(n_folds))
        fold_of[members] = (start + np.arange(len(members))) % n_folds
    fold_of.flags.writeable = False
    return FoldAssignment(fold_of, n_folds)


def _target_codes(ds: EmbeddingDataset, target: str) -> tuple[np.ndarray, tuple[str, ...]]:
    if target == "bio":
        return ds.bio_codes, ds.bio_classes
    if target == "conf":
        return ds.conf_codes, ds.conf_classes
    raise ValueError(f"target must be 'bio' or 'conf', got {target!r}")


def knn_table_depth(k: int, n_folds: int) -> int:
    """Neighbor-table depth that holds k training-fold neighbors of nearly
    every sample.

    About (n_folds-1)/n_folds of a sample's neighbors lie outside its fold,
    so k of them are expected within k*n_folds/(n_folds-1) ranks; a quarter
    more plus 8 leaves room for the spread. Rows that still come up short
    are ranked deeper (see ``_training_neighbor_prefix``), so the depth
    changes speed, never results.
    """
    return -(-5 * k * n_folds // (4 * max(n_folds - 1, 1))) + 8


def _take_training(sub: np.ndarray, ok: np.ndarray, depth: int) -> np.ndarray:
    """The first ``depth`` entries of each row of ``sub`` where ``ok`` holds."""
    keep = ok & (np.cumsum(ok, axis=1) <= depth)
    return sub[keep].reshape(-1, depth)


def _training_neighbor_prefix(nt: NeighborTable, folds: FoldAssignment, depth: int) -> np.ndarray:
    """(n, depth) indices of each sample's nearest training-fold neighbors.

    Row i holds the ``depth`` nearest neighbors of i among samples outside
    i's own fold, in rank order. Rows whose stored ranking holds fewer are
    ranked in full. Raises if any sample has too few.
    """
    n = nt.n
    if depth < 1:
        raise AnalysisError(f"k must be >= 1, got {depth}")
    out = np.empty((n, depth), dtype=np.intp)

    def usable(rows: np.ndarray, sub: np.ndarray, training: np.ndarray) -> np.ndarray:
        cols = np.arange(sub.shape[1])
        return training[sub] & (cols[None, :] < nt.limit[rows][:, None])

    for f in range(folds.n_folds):
        rows = np.nonzero(folds.fold_of == f)[0]
        if len(rows) == 0:
            continue
        training = folds.fold_of != f
        sub = nt.order[rows]
        ok = usable(rows, sub, training)
        short = ok.sum(axis=1) < depth
        if short.any():
            deep_rows = rows[short]
            deep = nt.ranked(deep_rows, n - 1)
            deep_ok = usable(deep_rows, deep, training)
            avail = deep_ok.sum(axis=1)
            if avail.min() < depth:
                raise AnalysisError(
                    f"k={depth} exceeds training-fold size ({int(avail.min())} "
                    f"training neighbors available for some sample in fold {f})")
            out[deep_rows] = _take_training(deep, deep_ok, depth)
            rows, sub, ok = rows[~short], sub[~short], ok[~short]
        out[rows] = _take_training(sub, ok, depth)
    return out


def _grid_counts(codes: np.ndarray, n_classes: int, ks: np.ndarray,
                 where: np.ndarray | None = None) -> np.ndarray:
    """(n, len(ks), n_classes) class counts over the first k columns, every k.

    ``codes`` is (n, ks[-1]) and ``ks`` strictly ascending; with ``where``,
    only the columns where it holds are counted. One bincount over
    (row, grid segment, class), summed cumulatively over the segments.
    """
    n, width = codes.shape
    segment = np.searchsorted(ks, np.arange(width), side="right")
    key = (np.arange(n)[:, None] * len(ks) + segment) * n_classes + codes
    if where is not None:
        key = key[where]
    counts = np.bincount(key.ravel(), minlength=n * len(ks) * n_classes)
    return counts.reshape(n, len(ks), n_classes).cumsum(axis=1)


def _grid_vote(codes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(n, len(ks)) majority class among the first k neighbors, every k.

    ``counts`` is ``_grid_counts`` of ``codes``. Ties go to the class of the
    nearest neighbor holding a tied class: a class tied at the top has at
    least one neighbor within k, so its first column over the whole prefix
    is its first column within k.
    """
    n, width = codes.shape
    first = np.full((n, counts.shape[2]), width, dtype=np.intp)
    np.minimum.at(first, (np.arange(n)[:, None], codes), np.arange(width))
    best = counts.max(axis=2, keepdims=True)
    tie_key = np.where(counts == best, first[:, None, :], width + 1)
    return tie_key.argmin(axis=2)


def _fold_accuracy(correct: np.ndarray, folds: FoldAssignment) -> tuple[float, ...]:
    accs = []
    for f in range(folds.n_folds):
        rows = folds.fold_of == f
        if rows.any():
            accs.append(float(correct[rows].mean()))
    return tuple(accs)


def _make_result(ds, target, pred_codes, classes, folds) -> EvalResult:
    true_codes, _ = _target_codes(ds, target)
    correct = pred_codes == true_codes
    fold_acc = _fold_accuracy(correct, folds)
    correct.flags.writeable = False
    return EvalResult(
        target=target,
        accuracy_mean=float(np.mean(fold_acc)),
        accuracy_std=float(np.std(fold_acc)),
        fold_accuracy=fold_acc,
        predictions=tuple(classes[c] for c in pred_codes),
        correct=correct)


def knn_predict(ds: EmbeddingDataset, nt: NeighborTable, folds: FoldAssignment,
                target: str, k: int = 3) -> EvalResult:
    """Cross-validated kNN probe: majority label of the k nearest training samples."""
    codes, classes = _target_codes(ds, target)
    nb = codes[_training_neighbor_prefix(nt, folds, k)]
    pred = _grid_vote(nb, _grid_counts(nb, len(classes), np.array([k])))[:, 0]
    return _make_result(ds, target, pred, classes, folds)


# ---------------------------------------------------------------------------
# multinomial logistic regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LogRegModel:
    classes: tuple[str, ...]
    mean: np.ndarray       # (d,) standardization offsets from the training data
    inv_scale: np.ndarray  # (d,) 1/std, 0 for constant features
    weights: np.ndarray    # (d, C)
    bias: np.ndarray       # (C,)
    loss_trace: np.ndarray
    n_iter: int
    converged: bool


def softmax_loss_grad(Xs: np.ndarray, y: np.ndarray, W: np.ndarray, b: np.ndarray,
                      lam: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of the softmax model plus lam/2 * ||W||^2.

    Returns (loss, grad_W, grad_b). The bias is unpenalized.
    """
    n = Xs.shape[0]
    logits = Xs @ W + b
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    Z = expl.sum(axis=1)
    logp = logits - np.log(Z)[:, None]
    loss = -logp[np.arange(n), y].mean() + 0.5 * lam * float((W * W).sum())
    P = expl / Z[:, None]
    P[np.arange(n), y] -= 1.0
    grad_W = Xs.T @ P / n + lam * W
    grad_b = P.mean(axis=0)
    return float(loss), grad_W, grad_b


def _lbfgs_direction(g: np.ndarray, pairs: list[tuple[np.ndarray, np.ndarray, float]]
                     ) -> np.ndarray:
    """-H g by the L-BFGS two-loop recursion over (s, y, 1/y's) pairs, oldest first.

    The initial inverse Hessian is s'y/y'y of the newest pair times I.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


def _remember_pair(pairs: list[tuple[np.ndarray, np.ndarray, float]],
                   s: np.ndarray, y: np.ndarray) -> None:
    """Append the curvature pair (s, y) unless y's <= 0 (rounding on a flat
    stretch); keep the newest ``LBFGS_HISTORY``."""
    sy = float(y @ s)
    if sy > 0.0:
        pairs.append((s, y, 1.0 / sy))
        del pairs[:-LBFGS_HISTORY]


def logreg_fit(X: np.ndarray, y: Sequence, lam: float = DEFAULT_LAMBDA,
               max_iter: int = 5000, grad_tol: float = 1e-6) -> LogRegModel:
    """Fit a multinomial softmax model by L-BFGS with Armijo backtracking.

    Features are standardized internally (constant features zeroed out);
    optimization starts from zero weights. Each iteration takes the L-BFGS
    direction over the last ``LBFGS_HISTORY`` curvature pairs (steepest
    descent when that is not a descent direction, which also clears the
    history) and halves a unit step until the Armijo condition holds, so
    the objective never increases. ``converged`` means max |grad| fell
    below ``grad_tol``; a line search that finds no descent step stops the
    fit unconverged. The zero-initialized full-batch optimizer is
    deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise AnalysisError("non-finite feature value")
    labels = [str(v) for v in y]
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise AnalysisError("logistic regression needs at least 2 classes")
    index = {c: i for i, c in enumerate(classes)}
    yc = np.array([index[v] for v in labels], dtype=np.intp)

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    inv_scale = np.where(std > 0.0, 1.0 / np.where(std > 0.0, std, 1.0), 0.0)
    Xs = (X - mean) * inv_scale

    d, C = X.shape[1], len(classes)

    def unpack(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the parameters as one flat vector: W row-major, then b
        return theta[:d * C].reshape(d, C), theta[d * C:]

    theta = np.zeros(d * C + C)
    loss, gW, gb = softmax_loss_grad(Xs, yc, *unpack(theta), lam)
    g = np.concatenate((gW.ravel(), gb))
    trace = [loss]
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    converged = False
    it = 0
    while it < max_iter:
        if np.abs(g).max() < grad_tol:
            converged = True
            break
        p = _lbfgs_direction(g, pairs)
        slope = float(g @ p)
        if not slope < 0.0:
            pairs.clear()
            p = -g
            slope = -float(g @ g)
        step = 1.0
        for _ in range(80):
            theta_new = theta + step * p
            new_loss, gW, gb = softmax_loss_grad(Xs, yc, *unpack(theta_new), lam)
            if not np.isfinite(new_loss):
                raise AnalysisError(f"non-finite loss at iteration {it + 1}, step {step}")
            if new_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            # step underflow: no representable descent step remains
            break
        it += 1
        if new_loss > loss:
            raise AnalysisError(f"objective increased at iteration {it}")
        g_new = np.concatenate((gW.ravel(), gb))
        _remember_pair(pairs, theta_new - theta, g_new - g)
        theta, loss, g = theta_new, new_loss, g_new
        trace.append(loss)

    return LogRegModel(classes, mean, inv_scale, *unpack(theta),
                       np.array(trace), it, converged)


def logreg_predict(model: LogRegModel, X: np.ndarray) -> list[str]:
    Xs = (np.asarray(X, dtype=np.float64) - model.mean) * model.inv_scale
    logits = Xs @ model.weights + model.bias
    return [model.classes[i] for i in logits.argmax(axis=1)]


def logreg_cv(ds: EmbeddingDataset, folds: FoldAssignment, target: str,
              lam: float = DEFAULT_LAMBDA, max_iter: int = 5000) -> EvalResult:
    """Cross-validated regression probe; standardization is fit per training fold."""
    codes, classes = _target_codes(ds, target)
    labels = np.array([classes[c] for c in codes], dtype=object)
    pred = np.empty(ds.n, dtype=np.intp)
    index = {c: i for i, c in enumerate(classes)}
    for f in range(folds.n_folds):
        val = folds.fold_of == f
        if not val.any():
            continue
        train = ~val
        train_classes = set(labels[train])
        if len(train_classes) < 2:
            only = next(iter(train_classes))
            pred[val] = index[only]
            continue
        model = logreg_fit(ds.vectors[train], labels[train], lam=lam, max_iter=max_iter)
        pred[val] = [index[p] for p in logreg_predict(model, ds.vectors[val])]
    return _make_result(ds, target, pred, classes, folds)


# ---------------------------------------------------------------------------
# confounder attribution
# ---------------------------------------------------------------------------

def restrict_for_confounders(ds: EmbeddingDataset) -> EmbeddingDataset:
    """Keep only biological classes that have samples in every confounder class.

    This equalizes the number of confounder groups available to every
    retained sample, making 1/len(conf_classes) the chance level for the
    same-center fraction.
    """
    counts = class_count_matrix(ds)
    full_rows = (counts.counts > 0).all(axis=1)
    if not full_rows.any():
        raise AnalysisError(
            "no biological class has samples in every confounder class; "
            "restrict the dataset manually to a comparable subset")
    if full_rows.all():
        return ds
    return ds.subset(np.nonzero(full_rows[ds.bio_codes])[0])


def _grid_columns(k_grid: Sequence[int]) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The grid as ints, its distinct values ascending, and each k's column
    among those."""
    k_grid = tuple(int(k) for k in k_grid)
    if not k_grid or min(k_grid) < 1:
        raise AnalysisError("k grid values must be >= 1")
    ks, cols = np.unique(k_grid, return_inverse=True)
    return k_grid, ks, cols


@dataclass(frozen=True, eq=False)
class _KnnRun:
    """One repetition of the kNN-run ensemble, with every k of the grid voted.

    Column g stands for k = ks[g]: ``pred[:, g]`` is each sample's kNN vote
    on the bio target, ``bio_counts[:, g, c]`` how many of its k nearest
    training neighbors carry bio class c, and ``same_center[:, g, c]`` how
    many of those also share the sample's confounder label.
    """

    folds: FoldAssignment
    nb_conf: np.ndarray      # (n, max k) confounder codes of the training neighbors
    pred: np.ndarray         # (n, G)
    bio_counts: np.ndarray   # (n, G, n_bio)
    same_center: np.ndarray  # (n, G, n_bio)


def _knn_ensemble(ds: EmbeddingDataset, nt: NeighborTable, n_folds: int,
                  ks: np.ndarray, seeds: Sequence[int]) -> Iterator[_KnnRun]:
    """Per repetition seed: fresh folds, the training-neighbor prefix of
    depth max(ks) and the bio votes at every k in ``ks`` (strictly
    ascending), all from one cumulative per-class count."""
    if len(seeds) == 0:
        raise AnalysisError("the kNN-run ensemble needs at least one seed")
    for seed in seeds:
        folds = assign_folds(ds, n_folds, seed)
        prefix = _training_neighbor_prefix(nt, folds, int(ks[-1]))
        nb_bio = ds.bio_codes[prefix]
        nb_conf = ds.conf_codes[prefix]
        n_bio = len(ds.bio_classes)
        counts = _grid_counts(nb_bio, n_bio, ks)
        same_center = _grid_counts(nb_bio, n_bio, ks,
                                   where=nb_conf == ds.conf_codes[:, None])
        yield _KnnRun(folds, nb_conf, _grid_vote(nb_bio, counts), counts, same_center)


def confounder_analysis(
    ds: EmbeddingDataset,
    nt: NeighborTable,
    seeds: Sequence[int],
    n_folds: int = 5,
    k_grid: Sequence[int] = DEFAULT_K_GRID,
) -> ConfounderReport:
    """Fraction of wrong-class neighbor votes that share the sample's confounder.

    ``nt`` is the neighbor table of ``ds``; any depth gives the same result,
    and ``knn_table_depth(max(k_grid), n_folds)`` is the fast one. Each seed
    is one repetition: the dataset is re-folded with that seed, and for
    each k the kNN bio probe runs and, for every misclassified sample, the
    neighbors carrying the predicted (wrong) class are inspected for
    confounder agreement. Companion accuracy curves for both targets come
    from the same folds. ``ds`` should normally be the output of
    ``restrict_for_confounders``.
    """
    k_grid, ks, cols = _grid_columns(k_grid)
    n_conf = len(ds.conf_classes)

    fractions: list[list[np.ndarray]] = [[] for _ in k_grid]
    acc_bio = np.zeros((len(seeds), len(k_grid)))
    acc_conf = np.zeros((len(seeds), len(k_grid)))
    for r, run in enumerate(_knn_ensemble(ds, nt, n_folds, ks, seeds)):
        pred_conf = _grid_vote(run.nb_conf, _grid_counts(run.nb_conf, n_conf, ks))
        for ki, g in enumerate(cols):
            pred = run.pred[:, g]
            correct = pred == ds.bio_codes
            acc_bio[r, ki] = np.mean(_fold_accuracy(correct, run.folds))
            acc_conf[r, ki] = np.mean(
                _fold_accuracy(pred_conf[:, g] == ds.conf_codes, run.folds))
            wrong = np.nonzero(~correct)[0]
            if len(wrong) == 0:
                continue
            # the neighbors that voted for the wrong class, and those of
            # them sharing the sample's confounder
            totals = run.bio_counts[wrong, g, pred[wrong]]
            fractions[ki].append(run.same_center[wrong, g, pred[wrong]] / totals)

    frac = np.array([np.mean(np.concatenate(f)) if f else np.nan for f in fractions])
    n_mis = np.array([sum(len(a) for a in f) for f in fractions], dtype=np.int64)
    return ConfounderReport(
        k_grid=k_grid,
        frac_same_center=frac,
        acc_bio=acc_bio.mean(axis=0), acc_conf=acc_conf.mean(axis=0),
        chance_level=1.0 / n_conf,
        n_misclassified=n_mis,
        bio_classes=ds.bio_classes)


def center_error_relation(
    ds: EmbeddingDataset,
    nt: NeighborTable,
    seeds: Sequence[int],
    k_grid: Sequence[int] = DEFAULT_K_GRID,
    lam: float = DEFAULT_LAMBDA,
    n_folds: int = 5,
    logreg_max_iter: int = 5000,
) -> CenterErrorRelation:
    """Relate per-sample center-related kNN error rates to regression errors.

    ``nt`` is the neighbor table of ``ds``, as for ``confounder_analysis``.
    The kNN-run ensemble is the full (seed, k) product, one repetition per
    seed. Regression errors come from the bio-target CV probe using the
    first seed's folds. Samples are binned into 10 equal-width bins on
    their center-related error fraction; each bin reports its regression
    error rate.
    """
    k_grid, ks, cols = _grid_columns(k_grid)
    rows = np.arange(ds.n)

    center_err_runs = np.zeros(ds.n, dtype=np.int64)
    first_folds: FoldAssignment | None = None
    for run in _knn_ensemble(ds, nt, n_folds, ks, seeds):
        if first_folds is None:
            first_folds = run.folds
        miss = run.pred != ds.bio_codes[:, None]
        # neighbors carrying a wrong label and the sample's confounder label
        both = run.same_center.sum(axis=2) - run.same_center[rows, :, ds.bio_codes]
        center_err = miss & (both * 2 > ks)
        center_err_runs += center_err[:, cols].sum(axis=1)

    fraction = center_err_runs / (len(seeds) * len(k_grid))

    logreg = logreg_cv(ds, first_folds, "bio", lam=lam, max_iter=logreg_max_iter)
    logreg_wrong = ~logreg.correct

    edges = np.linspace(0.0, 1.0, 11)
    bin_idx = np.minimum((fraction * 10).astype(np.intp), 9)
    counts = np.bincount(bin_idx, minlength=10)
    wrong = np.bincount(bin_idx, weights=logreg_wrong, minlength=10)
    rates = np.divide(wrong, counts, out=np.full(10, np.nan), where=counts > 0)

    for arr in (fraction, counts, rates):
        arr.flags.writeable = False
    return CenterErrorRelation(
        fraction_center_error=fraction, logreg_wrong=logreg_wrong,
        bin_edges=edges, bin_counts=counts, bin_logreg_error=rates)
