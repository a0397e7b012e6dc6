"""Folds, kNN probe, logistic regression, confounder attribution, error relation."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from embrobust import (AnalysisError, EmbeddingDataset, LogRegModel, SynthSpec,
                       assign_folds, build_neighbor_table,
                       center_error_relation, confounder_analysis, generate,
                       knn_predict, logreg_cv, logreg_fit, logreg_predict,
                       restrict_for_confounders, robustness_index)
from embrobust import evaluation, neighbors
from embrobust.evaluation import (FoldAssignment, _check_training_size,
                                  _grid_counts, _grid_vote,
                                  _training_neighbor_prefix, knn_table_depth,
                                  softmax_loss_grad)

from conftest import make_random_dataset, make_synth, oracle_knn_predictions


# ---------------------------------------------------------------------------
# fold assignment
# ---------------------------------------------------------------------------

def test_single_cell_even_folds():
    ds = make_random_dataset(seed=0, n=10, dim=3, n_bio=1, n_conf=1)
    folds = assign_folds(ds, 5, seed=3)
    sizes = np.bincount(folds.fold_of, minlength=5)
    assert sizes.tolist() == [2, 2, 2, 2, 2]


def test_stratification_per_cell(table_shaped_ds):
    ds = table_shaped_ds  # 20 cells of 10 samples
    folds = assign_folds(ds, 5, seed=1)
    # brute-force per (cell, fold) count
    for b in set(ds.bio_labels):
        for c in set(ds.conf_labels):
            members = [i for i in range(ds.n)
                       if ds.bio_labels[i] == b and ds.conf_labels[i] == c]
            if not members:
                continue
            per_fold = np.bincount(folds.fold_of[members], minlength=5)
            assert per_fold.tolist() == [2, 2, 2, 2, 2]


def test_fold_determinism_and_seed_sensitivity(small_random_ds):
    a = assign_folds(small_random_ds, 4, seed=9)
    b = assign_folds(small_random_ds, 4, seed=9)
    c = assign_folds(small_random_ds, 4, seed=10)
    assert np.array_equal(a.fold_of, b.fold_of)
    assert not np.array_equal(a.fold_of, c.fold_of)
    # stratification invariant holds for any seed
    for folds in (a, c):
        key = small_random_ds.bio_codes * 10 + small_random_ds.conf_codes
        for cell in np.unique(key):
            sizes = np.bincount(folds.fold_of[key == cell], minlength=4)
            assert sizes.max() - sizes.min() <= 1


def test_fold_errors(small_random_ds):
    with pytest.raises(AnalysisError):
        assign_folds(small_random_ds, 1, seed=0)
    with pytest.raises(AnalysisError):
        assign_folds(small_random_ds, small_random_ds.n + 1, seed=0)


# ---------------------------------------------------------------------------
# kNN probe
# ---------------------------------------------------------------------------

def oracle_training_ranking(ds, folds, i):
    """Samples outside i's fold sorted by (distance to i, index), with the
    distances recomputed for this query alone. A sample in i's group (a
    non-empty group id) is skipped, as in an ``exclude_same_group`` table."""
    vi = ds.vectors[i]
    ni = float(np.sqrt(np.dot(vi, vi)))
    cand = []
    for j in range(ds.n):
        if folds.fold_of[j] == folds.fold_of[i]:
            continue
        if ds.group_ids[i] and ds.group_ids[i] == ds.group_ids[j]:
            continue
        vj = ds.vectors[j]
        d = 1.0 - float(np.dot(vi, vj)) / (ni * float(np.sqrt(np.dot(vj, vj))))
        cand.append((min(max(d, 0.0), 2.0), j))
    return [j for _, j in sorted(cand)]


def oracle_vote(labels):
    """Majority label; ties go to the tied label met first."""
    votes: dict[str, int] = {}
    first_rank: dict[str, int] = {}
    for rank, lab in enumerate(labels):
        votes[lab] = votes.get(lab, 0) + 1
        first_rank.setdefault(lab, rank)
    best = max(votes.values())
    return min((first_rank[lab], lab) for lab, v in votes.items() if v == best)[1]


def oracle_fold_mean(correct, folds):
    accs = []
    for f in range(folds.n_folds):
        rows = [i for i in range(len(correct)) if folds.fold_of[i] == f]
        if rows:
            accs.append(sum(correct[i] for i in rows) / len(rows))
    return np.mean(accs)


def reference_vote(neighbor_codes, k, n_classes):
    """The per-k vote the grid vote replaced: majority label among the first
    k columns; ties go to the class of the nearest neighbor holding a tied
    class."""
    lab = neighbor_codes[:, :k]
    onehot = lab[:, :, None] == np.arange(n_classes)[None, None, :]
    counts = onehot.sum(axis=1)
    first = np.where(onehot.any(axis=1), onehot.argmax(axis=1), k)
    best = counts.max(axis=1)
    tie_key = np.where(counts == best[:, None], first, k + 1)
    return tie_key.argmin(axis=1)


def test_grid_vote_equals_per_k_vote():
    rng = np.random.default_rng(61)
    ks = np.array([1, 2, 3, 4, 7, 8, 31, 64])
    for n_classes in (2, 3, 7, 90):  # more classes than columns too
        codes = rng.integers(n_classes, size=(400, 64))
        grid = _grid_vote(codes, _grid_counts(codes, n_classes, ks), ks)
        for g, k in enumerate(ks):
            np.testing.assert_array_equal(grid[:, g], reference_vote(codes, k, n_classes))


def brute_force_vote(row, k: int) -> int:
    """One row's vote over its first k codes: the most frequent class, ties
    to the tied class met first along the row."""
    counts: dict[int, int] = {}
    for c in row[:k]:
        counts[c] = counts.get(c, 0) + 1
    best = max(counts.values())
    return next(c for c in row[:k] if counts[c] == best)


def test_grid_vote_equals_brute_force_on_many_ties():
    rng = np.random.default_rng(62)
    ks = np.array([1, 2, 4, 6, 9, 10, 24])
    for n_classes in (2, 3, 5):
        codes = rng.integers(n_classes, size=(300, 24))
        counts = _grid_counts(codes, n_classes, ks)
        grid = _grid_vote(codes, counts, ks)
        tied = 0
        for g, k in enumerate(ks):
            top = counts[:, g].max(axis=1, keepdims=True)
            tied += int(((counts[:, g] == top).sum(axis=1) > 1).sum())
            expected = [brute_force_vote(row.tolist(), k) for row in codes]
            assert grid[:, g].tolist() == expected
        assert tied > 300  # rows whose vote a tie decides


def rank_depth(monkeypatch, depth: int) -> None:
    """Make the kNN analyses rank ``depth`` columns, whatever their k."""
    monkeypatch.setattr(evaluation, "knn_table_depth", lambda k, n_folds: depth)


def test_training_prefix_ranks_deeper_when_stored_prefix_is_short(monkeypatch):
    ds = make_random_dataset(seed=41, n=60, dim=5)
    nt = build_neighbor_table(ds)
    full = nt.ranked(slice(None), ds.n - 1)
    # sample 0 and its 12 nearest neighbors share fold 0, so a 10-deep
    # ranking holds no training neighbor of sample 0
    fold_of = np.arange(ds.n) % 3
    fold_of[full[0, :12]] = 0
    fold_of[0] = 0
    folds = FoldAssignment(fold_of, 3)
    shallow = nt.ranked(slice(None), 10)
    assert (fold_of[shallow[0]] == 0).all()
    rows = np.arange(ds.n)
    for k in (1, 5, 20):
        expected = [oracle_training_ranking(ds, folds, i)[:k] for i in range(ds.n)]
        for ranked in (shallow, full):
            assert _training_neighbor_prefix(nt, ranked, folds, rows, k).tolist() == expected
        predictions = []
        for ranked in (shallow, full):
            rank_depth(monkeypatch, ranked.shape[1])
            predictions.append(knn_predict(ds, nt, folds, k)["bio"].predictions)
        assert predictions[0] == predictions[1]
    messages = []
    for ranked in (shallow, full):
        rank_depth(monkeypatch, ranked.shape[1])
        with pytest.raises(AnalysisError, match="exceeds training-fold size") as exc:
            knn_predict(ds, nt, folds, 40)["bio"]
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_short_rows_rank_only_to_their_deepest_limit(monkeypatch):
    """Rows short of training neighbors are re-ranked as deep as the largest
    ``limit`` among them, not n-1, with the prefix the n-1 ranking gives."""
    base = make_random_dataset(seed=43, n=60, dim=5)
    sizes = [9, 6, 4, 3, 2, 2, 1, 1]  # groups of mixed size, then ungrouped samples
    groups = [f"g{g}" for g, size in enumerate(sizes) for _ in range(size)]
    groups += [""] * (base.n - len(groups))
    ds = EmbeddingDataset.from_arrays(base.ids, base.vectors, base.bio_labels,
                                      base.conf_labels, groups)
    nt = build_neighbor_table(ds, exclude_same_group=True)
    fold_of = np.arange(ds.n) % 3
    folds = FoldAssignment(fold_of, 3)
    full = nt.ranked(slice(None), ds.n - 1)
    ok = (fold_of[full] != fold_of[:, None]) & (np.arange(ds.n - 1) < nt.limit[:, None])
    shallow = nt.ranked(slice(None), 3)
    calls = count_rankings(monkeypatch)
    # every row, then the 9-sample group's alone: their limit is n - 9
    for rows in (np.arange(ds.n), np.arange(9)):
        for k in (2, 5, 20):
            calls.clear()
            got = _training_neighbor_prefix(nt, shallow, folds, rows, k)
            assert got.tolist() == [full[i][ok[i]][:k].tolist() for i in rows]
            short = (ok[rows, :3].sum(axis=1) < k)
            assert short.any()
            assert calls == [(int(short.sum()), int(nt.limit[rows[short]].max()))]
    assert calls == [(9, ds.n - 9)]


def test_knn_perfect_on_tight_clusters():
    ds = make_synth(seed=4, n_bio=3, n_conf=1, per_cell=12, dim=16,
                    bio_strength=1.0, conf_strength=0.0, noise_sigma=0.02)
    nt = build_neighbor_table(ds)
    folds = assign_folds(ds, 4, seed=0)
    res = knn_predict(ds, nt, folds, 3)["bio"]
    assert res.accuracy_mean == 1.0
    assert res.accuracy_std == 0.0
    assert res.correct.all()


def test_knn_matches_per_query_oracle():
    ds = make_random_dataset(seed=8, n=30, dim=6, n_bio=3, n_conf=2)
    nt = build_neighbor_table(ds)
    folds = assign_folds(ds, 5, seed=2)
    for target in ("bio", "conf"):
        res = knn_predict(ds, nt, folds, 3)[target]
        assert list(res.predictions) == oracle_knn_predictions(ds, folds, target, 3)


def test_knn_tie_breaks_to_nearest_tied_class():
    # query s0 sits between one 'a' (nearest) and one 'b': tie at k=2
    vectors = np.array([
        [1.0, 0.0],
        [np.cos(0.1), np.sin(0.1)],   # label a, closest
        [np.cos(0.2), np.sin(0.2)],   # label b
        [np.cos(1.2), np.sin(1.2)],   # fillers in a third fold
        [np.cos(1.3), np.sin(1.3)],
    ])
    ds = EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(5)], vectors,
        ["b", "a", "b", "a", "b"], ["c"] * 5)
    folds = assign_folds(ds, 3, seed=0)
    object.__setattr__(folds, "fold_of", np.array([0, 1, 1, 2, 2]))
    nt = build_neighbor_table(ds)
    res = knn_predict(ds, nt, folds, 2)["bio"]
    assert res.predictions[0] == "a"


def test_knn_every_sample_predicted_once(small_random_ds):
    nt = build_neighbor_table(small_random_ds)
    folds = assign_folds(small_random_ds, 4, seed=5)
    res = knn_predict(small_random_ds, nt, folds, 3)["bio"]
    assert len(res.predictions) == small_random_ds.n
    assert all(p in small_random_ds.bio_classes for p in res.predictions)


def test_knn_k1_accuracy_equals_nearest_training_agreement(small_random_ds):
    ds = small_random_ds
    nt = build_neighbor_table(ds)
    folds = assign_folds(ds, 4, seed=1)
    res = knn_predict(ds, nt, folds, 1)["bio"]
    # direct recount: nearest neighbor outside the sample's own fold
    order = nt.ranked(slice(None), ds.n - 1)
    hits = []
    for i in range(ds.n):
        for j in order[i]:
            if folds.fold_of[j] != folds.fold_of[i]:
                hits.append(ds.bio_labels[j] == ds.bio_labels[i])
                break
    assert res.correct.tolist() == hits


def test_knn_k_exceeds_training_fold(monkeypatch):
    ds = make_random_dataset(seed=3, n=12, dim=3)
    nt = build_neighbor_table(ds)
    folds = assign_folds(ds, 2, seed=0)
    with pytest.raises(AnalysisError, match="exceeds training-fold size"):
        knn_predict(ds, nt, folds, 10)["bio"]
    # with group exclusion and folds of 12, 24 and 36 samples, some samples
    # of fold 1 and all of fold 2 are short of k = 48 training neighbors;
    # the message names the first such fold and the fewest any of its
    # samples has, whichever row blocks and threads found them
    ds = grouped_confounded_ds()
    nt = build_neighbor_table(ds, exclude_same_group=True)
    groups = np.array(ds.group_ids, dtype=object)

    def available(folds):
        return np.array([
            sum(1 for j in range(ds.n) if folds.fold_of[j] != folds.fold_of[i]
                and not (groups[i] != "" and groups[j] == groups[i]))
            for i in range(ds.n)])

    def message(k, folds):
        avail = available(folds)
        fold = int(folds.fold_of[avail < k].min())
        return (f"k={k} exceeds training-fold size ({avail[folds.fold_of == fold].min()} "
                f"training neighbors available for some sample in fold {fold})")

    uneven = FoldAssignment(np.resize([0, 1, 1, 2, 2, 2], ds.n), 3)
    assert message(48, uneven) == ("k=48 exceeds training-fold size (46 training "
                                   "neighbors available for some sample in fold 1)")
    assert available(uneven).min() == 35
    cases = [(lambda: knn_predict(ds, nt, uneven, 48)["bio"], message(48, uneven)),
             (lambda: confounder_analysis(ds, nt, (3,), n_folds=4, k_grid=(1, 54)),
              message(54, assign_folds(ds, 4, 3)))]
    monkeypatch.setattr(neighbors, "_TASK_ELEMS", 100)
    for workers in (1, 2, 3):
        monkeypatch.setattr(neighbors, "_workers", lambda: workers)
        for run, expected in cases:
            with pytest.raises(AnalysisError) as exc:
                run()
            assert str(exc.value) == expected


def training_neighbor_counts(ds, folds, grouped):
    """Each sample's training neighbors, counted pair by pair: the samples
    of other folds, less those sharing its group id under group exclusion."""
    f, g = folds.fold_of, ds.group_ids
    return np.array([sum(1 for j in range(ds.n) if f[j] != f[i]
                         and not (grouped and g[i] and g[j] == g[i]))
                     for i in range(ds.n)])


def test_training_size_check_equals_brute_force_count():
    """``_check_training_size`` counts each sample's training neighbors in
    closed form; a brute-force count gives the same pass or message, on
    grouped and ungrouped data with uneven and empty folds and a random k,
    and so does ``knn_predict``."""
    rng = np.random.default_rng(29)
    raised = 0
    for case in range(80):
        n = int(rng.integers(4, 30))
        ds = make_random_dataset(seed=case, n=n, dim=3)
        grouped = case % 2 == 1
        if grouped:  # ungrouped samples and groups of uneven sizes
            groups = ["" if g < 0 else f"g{g}" for g in rng.integers(-1, n // 3 + 1, size=n)]
            ds = EmbeddingDataset.from_arrays(ds.ids, ds.vectors, ds.bio_labels,
                                              ds.conf_labels, groups)
        nt = build_neighbor_table(ds, exclude_same_group=grouped)
        n_folds = int(rng.integers(2, 7))
        used = rng.choice(n_folds, size=int(rng.integers(1, n_folds + 1)), replace=False)
        folds = FoldAssignment(rng.choice(used, size=n), n_folds)
        k = int(rng.integers(1, n))
        fold_of = folds.fold_of
        avail = training_neighbor_counts(ds, folds, grouped)
        expected = None
        if (avail < k).any():
            fold = int(fold_of[avail < k].min())
            expected = (f"k={k} exceeds training-fold size ({avail[fold_of == fold].min()} "
                        f"training neighbors available for some sample in fold {fold})")
        for check in (lambda: _check_training_size(nt, folds, k),
                      lambda: knn_predict(ds, nt, folds, k)["bio"]):
            if expected is None:
                check()
            else:
                with pytest.raises(AnalysisError) as exc:
                    check()
                assert str(exc.value) == expected
        raised += expected is not None
    assert 20 < raised < 60


def test_training_shortfall_raises_before_ranking(monkeypatch):
    """A kNN analysis short of training neighbors under any seed's folds
    ranks nothing, also when the first seed has enough."""
    ds = grouped_confounded_ds()
    nt = build_neighbor_table(ds, exclude_same_group=True)
    fewest = [training_neighbor_counts(ds, assign_folds(ds, 5, seed), True).min()
              for seed in (7, 3)]
    assert fewest == [55, 54]

    def no_ranking(*args):
        raise AssertionError("rows were ranked")

    monkeypatch.setattr(neighbors, "_rank", no_ranking)
    runs = [lambda: knn_predict(ds, nt, assign_folds(ds, 5, 3), 55)["bio"],
            lambda: confounder_analysis(ds, nt, (7, 3), k_grid=(1, 55)),
            lambda: center_error_relation(ds, nt, (7, 3), bio_probe(ds, 7, max_iter=200),
                                          k_grid=(1, 55))]
    for run in runs:
        with pytest.raises(AnalysisError, match="^k=55 exceeds training-fold size"):
            run()


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def test_logreg_separable_toy_trains_to_full_accuracy():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(20, 2)),
                   rng.normal(loc=(2.0, 0.0), scale=0.3, size=(20, 2))])
    y = ["neg"] * 20 + ["pos"] * 20
    model = logreg_fit(X, y, lam=1e-3)
    assert logreg_predict(model, X) == y


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    n, d, C = 40, 10, 5
    Xs = rng.normal(size=(n, d))
    y = rng.integers(C, size=n)
    W = rng.normal(scale=0.5, size=(d, C))
    b = rng.normal(scale=0.5, size=C)
    lam = 1e-3
    _, gW, gb = softmax_loss_grad(Xs, y, W, b, lam)
    h = 1e-5
    fd_W = np.zeros_like(W)
    for i in range(d):
        for j in range(C):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            fd_W[i, j] = (softmax_loss_grad(Xs, y, Wp, b, lam)[0]
                          - softmax_loss_grad(Xs, y, Wm, b, lam)[0]) / (2 * h)
    fd_b = np.zeros_like(b)
    for j in range(C):
        bp, bm = b.copy(), b.copy()
        bp[j] += h
        bm[j] -= h
        fd_b[j] = (softmax_loss_grad(Xs, y, W, bp, lam)[0]
                   - softmax_loss_grad(Xs, y, W, bm, lam)[0]) / (2 * h)
    rel_W = np.abs(fd_W - gW) / np.maximum(np.abs(fd_W), 1e-8)
    rel_b = np.abs(fd_b - gb) / np.maximum(np.abs(fd_b), 1e-8)
    assert rel_W.max() < 1e-4
    assert rel_b.max() < 1e-4


def test_logreg_zero_weight_loss_is_log_c():
    rng = np.random.default_rng(1)
    for C in (2, 3, 5):
        Xs = rng.normal(size=(4 * C, 6))
        y = np.repeat(np.arange(C), 4)
        loss, _, _ = softmax_loss_grad(Xs, y, np.zeros((6, C)), np.zeros(C), 0.0)
        assert loss == pytest.approx(np.log(C), abs=1e-12)


def test_logreg_loss_non_increasing():
    ds = make_random_dataset(seed=17, n=60, dim=8, n_bio=4)
    model = logreg_fit(ds.vectors, ds.bio_labels, lam=1e-3, max_iter=400)
    assert (np.diff(model.loss_trace) <= 0).all()


def test_logreg_cv_perfect_clusters():
    ds = make_synth(seed=6, n_bio=3, n_conf=1, per_cell=10, dim=12,
                    bio_strength=1.0, conf_strength=0.0, noise_sigma=0.02)
    folds = assign_folds(ds, 5, seed=0)
    res = logreg_cv(ds, folds, "bio")
    assert res.accuracy_mean == 1.0
    assert res.accuracy_std == 0.0


def test_logreg_cv_single_class_target():
    ds = make_random_dataset(seed=2, n=20, dim=4, n_bio=1, n_conf=2)
    folds = assign_folds(ds, 4, seed=0)
    res = logreg_cv(ds, folds, "bio")
    assert res.accuracy_mean == 1.0
    assert res.accuracy_std == 0.0


def test_logreg_needs_two_classes():
    with pytest.raises(AnalysisError, match="at least 2 classes"):
        logreg_fit(np.ones((4, 2)) + np.arange(4)[:, None], ["x"] * 4)


@pytest.mark.parametrize("settings, message", [
    ({"lam": -1.0}, "lambda must be"), ({"lam": np.nan}, "lambda must be"),
    ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
    ({"max_iter": -5}, "max_iter must be >= 1, got -5"),
])
def test_logreg_rejects_bad_settings(settings, message):
    X = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ValueError, match=message):
        logreg_fit(X, ["a", "b", "a", "b"], **settings)


def test_standardization_ignores_validation_rows(small_random_ds):
    ds = small_random_ds
    folds = assign_folds(ds, 4, seed=3)
    train = folds.fold_of != 0
    model = logreg_fit(ds.vectors[train], [ds.bio_labels[i] for i in np.nonzero(train)[0]])
    # corrupt the validation rows: the training-fold fit must be unchanged
    corrupted = ds.vectors.copy()
    corrupted[~train] = 1e9
    model2 = logreg_fit(corrupted[train], [ds.bio_labels[i] for i in np.nonzero(train)[0]])
    assert np.array_equal(model.mean, model2.mean)
    assert np.array_equal(model.inv_scale, model2.inv_scale)
    assert np.array_equal(model.weights, model2.weights)


def test_logreg_cv_matches_manual_fold_loop(small_random_ds):
    ds = small_random_ds
    folds = assign_folds(ds, 4, seed=6)
    res = logreg_cv(ds, folds, "bio", lam=1e-3, max_iter=300)
    for f in range(4):
        val = folds.fold_of == f
        train_idx = np.nonzero(~val)[0]
        model = logreg_fit(ds.vectors[~val],
                           [ds.bio_labels[i] for i in train_idx],
                           lam=1e-3, max_iter=300)
        preds = logreg_predict(model, ds.vectors[val])
        assert [res.predictions[i] for i in np.nonzero(val)[0]] == preds


def test_constant_feature_standardized_to_zero():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    X[:, 1] = 7.0  # constant column
    y = ["a" if v < 0 else "b" for v in X[:, 0]]
    model = logreg_fit(X, y, lam=1e-3, max_iter=200)
    assert model.inv_scale[1] == 0.0


def reference_logreg_fit(X, y, lam, max_iter=5000, grad_tol=1e-6):
    """The steepest-descent fit that logreg_fit replaced: each step starts at
    twice the last step size and halves it until the Armijo condition holds.
    Its ``converged`` flag is not compared and always reads False."""
    X = np.asarray(X, dtype=np.float64)
    labels = [str(v) for v in y]
    classes = tuple(sorted(set(labels)))
    index = {c: i for i, c in enumerate(classes)}
    yc = np.array([index[v] for v in labels], dtype=np.intp)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    inv_scale = np.where(std > 0.0, 1.0 / np.where(std > 0.0, std, 1.0), 0.0)
    Xs = (X - mean) * inv_scale
    d, C = X.shape[1], len(classes)
    W = np.zeros((d, C))
    b = np.zeros(C)
    loss, gW, gb = softmax_loss_grad(Xs, yc, W, b, lam)
    trace = [loss]
    step = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        if max(np.abs(gW).max(), np.abs(gb).max()) < grad_tol:
            it -= 1
            break
        g2 = float((gW * gW).sum() + (gb * gb).sum())
        step = min(step * 2.0, 1e6)
        for _ in range(80):
            W_new = W - step * gW
            b_new = b - step * gb
            new_loss, gW_new, gb_new = softmax_loss_grad(Xs, yc, W_new, b_new, lam)
            if new_loss <= loss - 1e-4 * step * g2:
                break
            step *= 0.5
        else:
            it -= 1
            break
        W, b, loss, gW, gb = W_new, b_new, new_loss, gW_new, gb_new
        trace.append(loss)
    return LogRegModel(classes, mean, inv_scale, W, b, np.array(trace), it, False)


def _five_class_d64():
    ds = make_synth(seed=3, n_bio=5, n_conf=2, per_cell=20, dim=64, noise_sigma=1.0)
    return ds.vectors, list(ds.bio_labels)


def _separable_toy():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(20, 2)),
                   rng.normal(loc=(2.0, 0.0), scale=0.3, size=(20, 2))])
    return X, ["neg"] * 20 + ["pos"] * 20


def _constant_feature():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    X[:, 1] = 7.0
    return X, ["a" if v < 0 else "b" for v in X[:, 0]]


@pytest.mark.parametrize("lam", [1e-2, 1e-3])
@pytest.mark.parametrize("make", [_five_class_d64, _separable_toy, _constant_feature])
def test_logreg_lbfgs_matches_steepest_descent_reference(make, lam):
    X, y = make()
    model = logreg_fit(X, y, lam=lam)
    ref = reference_logreg_fit(X, y, lam)
    assert model.converged
    Xs = (X - model.mean) * model.inv_scale
    yc = np.array([model.classes.index(v) for v in y])
    loss, gW, gb = softmax_loss_grad(Xs, yc, model.weights, model.bias, lam)
    assert max(np.abs(gW).max(), np.abs(gb).max()) < 1e-6
    assert loss == model.loss_trace[-1]
    assert loss <= ref.loss_trace[-1] + 1e-9
    assert logreg_predict(model, X) == logreg_predict(ref, X)
    assert model.n_iter < ref.n_iter


def test_logreg_unregularized_separable_stays_monotone():
    # lam = 0 on separable data has no minimizer; the fit must still stop
    # cleanly with a non-increasing trace
    X, y = _separable_toy()
    model = logreg_fit(X, y, lam=0.0, max_iter=50)
    assert len(model.loss_trace) == model.n_iter + 1
    assert (np.diff(model.loss_trace) <= 0).all()


def test_logreg_skips_nonpositive_curvature_pairs(monkeypatch):
    # driven past grad_tol on separable data, the loss bottoms out near
    # 1e-17 and y's of later steps is rounding noise, often <= 0
    real_remember, real_direction = evaluation._remember_pair, evaluation._lbfgs_direction
    seen_sy, stored_rho = [], []

    def remember(pairs, s, yv):
        seen_sy.append(float(yv @ s))
        real_remember(pairs, s, yv)

    def direction(g, pairs):
        stored_rho.extend(rho for _, _, rho in pairs)
        return real_direction(g, pairs)

    monkeypatch.setattr(evaluation, "_remember_pair", remember)
    monkeypatch.setattr(evaluation, "_lbfgs_direction", direction)
    X, y = _five_class_d64()
    model = logreg_fit(X, y, lam=0.0, max_iter=80, grad_tol=0.0)
    assert min(seen_sy) <= 0.0
    assert all(0.0 < rho < np.inf for rho in stored_rho)
    assert len(model.loss_trace) == model.n_iter + 1
    assert (np.diff(model.loss_trace) <= 0).all()


def test_logreg_uphill_direction_falls_back_to_steepest_descent(monkeypatch):
    real = evaluation._lbfgs_direction
    history = []

    def direction(g, pairs):
        history.append(len(pairs))
        p = real(g, pairs)
        return -p if len(history) == 5 else p  # the fifth direction points uphill

    monkeypatch.setattr(evaluation, "_lbfgs_direction", direction)
    X, y = _five_class_d64()
    model = logreg_fit(X, y, lam=1e-2)
    assert model.converged
    # the fallback cleared the history: only its own step's pair is left
    assert history[4] == 4 and history[5] == 1
    assert (np.diff(model.loss_trace) <= 0).all()


def test_logreg_line_search_exhaustion_is_not_converged(monkeypatch):
    real = evaluation.softmax_loss_grad
    calls = []

    def stalls_after_five(Xs, y, W, b, lam):
        loss, gW, gb = real(Xs, y, W, b, lam)
        calls.append(loss)
        return (loss if len(calls) <= 5 else loss + 1.0), gW, gb

    monkeypatch.setattr(evaluation, "softmax_loss_grad", stalls_after_five)
    X, y = _five_class_d64()
    model = logreg_fit(X, y, lam=1e-3)
    assert not model.converged
    assert model.n_iter == len(model.loss_trace) - 1
    assert 1 <= model.n_iter < 5
    assert len(calls) == 5 + 80  # the last search tried all 80 halvings


# ---------------------------------------------------------------------------
# confounder restriction and attribution
# ---------------------------------------------------------------------------

def test_restrict_keeps_fully_covered_classes(table_shaped_ds):
    restricted = restrict_for_confounders(table_shaped_ds)
    assert set(restricted.bio_classes) == {"bio00", "bio01"}
    assert len(restricted.conf_classes) == 5
    assert restricted.n == 100
    assert 1.0 / len(restricted.conf_classes) == pytest.approx(0.2)


def test_restrict_no_op_when_all_cells_populated():
    ds = make_synth(seed=1, n_bio=3, n_conf=3, per_cell=5)
    assert restrict_for_confounders(ds) is ds


def test_restrict_single_covered_class():
    cells = np.array([[2, 2], [2, 0]])
    ds = generate(SynthSpec(n_bio=2, n_conf=2, per_cell=cells, dim=8, seed=3))
    restricted = restrict_for_confounders(ds)
    assert restricted.bio_classes == ("bio00",)
    assert restricted.n == 4


def test_restrict_error_when_nothing_covered():
    cells = np.array([[3, 0], [0, 3]])
    ds = generate(SynthSpec(n_bio=2, n_conf=2, per_cell=cells, dim=8, seed=3))
    with pytest.raises(AnalysisError, match="no biological class"):
        restrict_for_confounders(ds)


def test_confounder_analysis_center_blind():
    # biological clusters only; confounder labels carry no signal
    ds = generate(SynthSpec(n_bio=4, n_conf=5, per_cell=25, dim=16,
                            bio_strength=1.0, conf_strength=0.0,
                            noise_sigma=1.2, seed=9))  # n = 500
    report = confounder_analysis(ds, build_neighbor_table(ds), seeds=(0, 1, 2),
                                 n_folds=5, k_grid=(1, 4, 16, 64))
    assert report.chance_level == pytest.approx(0.2)
    for ki, k in enumerate(report.k_grid):
        assert report.n_misclassified[ki] > 30
        assert abs(report.frac_same_center[ki] - 0.2) < 0.07


def test_confounder_analysis_adversarial_clusters():
    # confounder determines the cluster; biological labels are noise
    rng = np.random.default_rng(14)
    n_conf, per_cluster, dim = 4, 30, 12
    centers = np.linalg.qr(rng.normal(size=(dim, n_conf)))[0].T
    vectors, bio, conf = [], [], []
    for c in range(n_conf):
        vectors.append(centers[c] + 0.01 * rng.normal(size=(per_cluster, dim)))
        conf += [f"c{c}"] * per_cluster
        bio += [f"b{v}" for v in rng.integers(2, size=per_cluster)]
    ds = EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(n_conf * per_cluster)],
        np.vstack(vectors), bio, conf)
    report = confounder_analysis(ds, build_neighbor_table(ds), seeds=(5, 6),
                                 n_folds=5, k_grid=(1, 2, 4, 8))
    assert report.n_misclassified.min() > 0
    # all confounding neighbors come from the sample's own cluster
    np.testing.assert_allclose(report.frac_same_center, 1.0)


def test_confounder_analysis_undefined_when_no_errors():
    ds = make_synth(seed=5, n_bio=2, n_conf=2, per_cell=20, dim=12,
                    bio_strength=1.0, conf_strength=0.0, noise_sigma=0.01)
    report = confounder_analysis(ds, build_neighbor_table(ds), seeds=(0, 1),
                                 n_folds=4, k_grid=(1, 3))
    assert np.isnan(report.frac_same_center).all()
    assert (report.n_misclassified == 0).all()
    assert (report.acc_bio == 1.0).all()


def test_confounder_analysis_permuted_labels_hit_chance():
    ds = generate(SynthSpec(n_bio=3, n_conf=4, per_cell=30, dim=16,
                            bio_strength=1.0, conf_strength=0.8,
                            noise_sigma=1.0, seed=20))
    rng = np.random.default_rng(77)
    permuted = EmbeddingDataset.from_arrays(
        ds.ids, ds.vectors, ds.bio_labels,
        [ds.conf_labels[p] for p in rng.permutation(ds.n)])
    seeds = (0, 1, 2)
    report = confounder_analysis(permuted, build_neighbor_table(permuted), seeds,
                                 n_folds=4, k_grid=(2, 8, 32))
    p = report.chance_level
    for ki in range(len(report.k_grid)):
        n_mis = report.n_misclassified[ki]
        assert n_mis > 0
        # reps reuse the permuted labels, so the independent draw count is
        # per repetition, not the pooled total
        sigma = np.sqrt(p * (1 - p) / (n_mis / len(seeds)))
        assert abs(report.frac_same_center[ki] - p) <= 3 * sigma


def test_ensemble_needs_a_seed():
    ds = make_synth(seed=0, per_cell=8)
    nt = build_neighbor_table(ds)
    with pytest.raises(AnalysisError, match="at least one seed"):
        confounder_analysis(ds, nt, seeds=(), k_grid=(1, 2))
    with pytest.raises(AnalysisError, match="at least one seed"):
        center_error_relation(ds, nt, seeds=(), logreg=bio_probe(ds, 0, max_iter=200),
                              k_grid=(1, 2))


def test_ensemble_votes_confounders_only_when_asked():
    # relation reads only the bio votes, so its ensemble makes no others
    ds = make_synth(seed=4, n_bio=3, n_conf=4, per_cell=9, dim=12)
    nt = build_neighbor_table(ds)
    ks = np.array([1, 2, 5])
    folds = [assign_folds(ds, 5, 3)]
    assert next(evaluation._knn_ensemble(ds, nt, folds, ks)).pred_conf is None
    run = next(evaluation._knn_ensemble(ds, nt, folds, ks, conf_votes=True))
    assert run.pred_conf.shape == (ds.n, len(ks))


# ---------------------------------------------------------------------------
# center-error relation
# ---------------------------------------------------------------------------

def bio_probe(ds, seed, n_folds=5, lam=1e-3, max_iter=5000):
    """The regression probe ``center_error_relation`` reads: bio target, on
    the folds of the first repetition seed."""
    return logreg_cv(ds, assign_folds(ds, n_folds, seed), "bio", lam=lam, max_iter=max_iter)


def test_relation_fits_nothing_and_rejects_other_probes(monkeypatch):
    ds = make_synth(seed=2, per_cell=8)
    nt = build_neighbor_table(ds)
    probe = bio_probe(ds, 0, max_iter=200)

    def no_fit(*args, **kwargs):
        raise AssertionError("a regression was fit")

    monkeypatch.setattr(evaluation, "logreg_fit", no_fit)
    rel = center_error_relation(ds, nt, (0, 1), probe, k_grid=(1, 2))
    assert rel.logreg_wrong.tolist() == (~probe.correct).tolist()
    monkeypatch.undo()
    conf = logreg_cv(ds, assign_folds(ds, 5, 0), "conf", max_iter=200)
    with pytest.raises(ValueError, match="^need the bio probe of 72 samples, got the "
                                         "'conf' probe of 72$"):
        center_error_relation(ds, nt, (0,), conf, k_grid=(1,))
    short = ds.subset(np.arange(ds.n - 1))
    with pytest.raises(ValueError, match="^need the bio probe of 72 samples, got the "
                                         "'bio' probe of 71$"):
        center_error_relation(ds, nt, (0,), bio_probe(short, 0, max_iter=200), k_grid=(1,))


def test_relation_all_zero_on_perfect_data():
    ds = make_synth(seed=7, n_bio=3, n_conf=3, per_cell=12, dim=16,
                    bio_strength=1.0, conf_strength=0.0, noise_sigma=0.02)
    rel = center_error_relation(ds, build_neighbor_table(ds), seeds=(0, 1),
                                logreg=bio_probe(ds, 0, max_iter=300), k_grid=(1, 3))
    assert (rel.fraction_center_error == 0.0).all()
    assert not rel.logreg_wrong.any()
    assert rel.bin_counts[0] == ds.n
    assert rel.bin_logreg_error[0] == 0.0
    assert np.isnan(rel.bin_logreg_error[1:]).all()


def test_relation_planted_confounded_subpopulation():
    # bio classes A/B, conf classes X/Y. A few A+X samples are planted inside
    # the B+X cluster: their neighbors carry a wrong label and the same
    # confounder, so every kNN run makes a center-related error on them.
    rng = np.random.default_rng(3)
    dim = 10
    base = np.linalg.qr(rng.normal(size=(dim, 3)))[0].T
    blocks, bio, conf = [], [], []
    for mean, b_lab, c_lab, m in [
        (base[0], "A", "X", 30),
        (base[1], "B", "X", 30),
        (base[2], "B", "Y", 30),
        (base[1], "A", "X", 6),   # planted: sits in the B+X cluster
    ]:
        blocks.append(mean + 0.02 * rng.normal(size=(m, dim)))
        bio += [b_lab] * m
        conf += [c_lab] * m
    ds = EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(96)], np.vstack(blocks), bio, conf)
    planted = np.arange(90, 96)
    rel = center_error_relation(ds, build_neighbor_table(ds), seeds=(0, 1),
                                logreg=bio_probe(ds, 0, max_iter=500), k_grid=(5, 7))
    # every run misclassifies every planted sample with a same-center majority
    assert (rel.fraction_center_error[planted] == 1.0).all()
    assert rel.bin_counts[9] >= len(planted)
    # a handful of host-cluster points adjacent to the planted ones may get
    # confounded too; the bulk of clean samples must not
    clean = np.setdiff1d(np.arange(96), planted)
    assert (rel.fraction_center_error[clean] >= 0.5).sum() <= 5
    # regression also misclassifies the planted subpopulation, so the bin
    # curve climbs from the bottom bin to the top bin
    assert rel.logreg_wrong[planted].all()
    assert rel.bin_logreg_error[0] == 0.0
    assert rel.bin_logreg_error[9] == 1.0
    assert rel.bin_counts.sum() == ds.n


def test_relation_majority_is_strict():
    # with k=2, one wrong-label same-conf neighbor is not a strict majority
    vectors = np.array([
        [1.0, 0.0], [np.cos(0.05), np.sin(0.05)], [np.cos(0.10), np.sin(0.10)],
        [np.cos(1.5), np.sin(1.5)], [np.cos(1.55), np.sin(1.55)],
        [np.cos(1.6), np.sin(1.6)],
    ])
    bio = ["A", "B", "A", "B", "B", "A"]
    conf = ["X"] * 6
    ds = EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(6)], vectors, bio, conf)
    rel = center_error_relation(ds, build_neighbor_table(ds), seeds=(0,),
                                logreg=bio_probe(ds, 0, n_folds=2, max_iter=100),
                                k_grid=(2,), n_folds=2)
    # sample 0's two training neighbors alternate labels: one wrong-label
    # same-conf neighbor out of two is not > k/2
    assert rel.fraction_center_error.max() <= 1.0
    counted = rel.bin_counts.sum()
    assert counted == ds.n


# ---------------------------------------------------------------------------
# per-query oracles for the kNN-run ensemble
# ---------------------------------------------------------------------------

ENSEMBLE_GRID = (4, 1, 16, 4, 2)  # unsorted, with a repeated k


def confounded_ds():
    return generate(SynthSpec(n_bio=3, n_conf=3, per_cell=8, dim=12,
                              bio_strength=0.6, conf_strength=1.0,
                              noise_sigma=0.7, seed=13))


def grouped_confounded_ds():
    """``confounded_ds`` in groups of 3 samples, every fourth sample ungrouped."""
    ds = confounded_ds()
    groups = ["" if i % 4 == 3 else f"g{i // 4}" for i in range(ds.n)]
    return EmbeddingDataset.from_arrays(ds.ids, ds.vectors, ds.bio_labels,
                                        ds.conf_labels, groups)


def ensemble_cases(monkeypatch):
    """(dataset, its neighbor table twice) without and with group exclusion.
    The analyses rank at their own depth with the first copy and 3 columns
    deep with the second, which makes every row rank deeper."""
    for grouped, ds in ((False, confounded_ds()), (True, grouped_confounded_ds())):
        yield ds, at_own_depth_then_shallow(
            build_neighbor_table(ds, exclude_same_group=grouped), monkeypatch)


def at_own_depth_then_shallow(nt, monkeypatch):
    yield nt
    rank_depth(monkeypatch, 3)
    yield nt
    monkeypatch.undo()


def oracle_confounders(ds, n_folds, k_grid, seeds):
    """(frac_same_center, acc_bio, acc_conf, n_misclassified), one query at a time."""
    fractions = [[] for _ in k_grid]
    acc_bio = np.zeros((len(seeds), len(k_grid)))
    acc_conf = np.zeros((len(seeds), len(k_grid)))
    for r, seed in enumerate(seeds):
        folds = assign_folds(ds, n_folds, seed)
        ranked = [oracle_training_ranking(ds, folds, i) for i in range(ds.n)]
        for ki, k in enumerate(k_grid):
            bio_ok, conf_ok = [], []
            for i in range(ds.n):
                near = ranked[i][:k]
                pred = oracle_vote([ds.bio_labels[j] for j in near])
                bio_ok.append(pred == ds.bio_labels[i])
                conf_ok.append(oracle_vote([ds.conf_labels[j] for j in near])
                               == ds.conf_labels[i])
                if pred != ds.bio_labels[i]:
                    voters = [j for j in near if ds.bio_labels[j] == pred]
                    same = [j for j in voters if ds.conf_labels[j] == ds.conf_labels[i]]
                    fractions[ki].append(len(same) / len(voters))
            acc_bio[r, ki] = oracle_fold_mean(bio_ok, folds)
            acc_conf[r, ki] = oracle_fold_mean(conf_ok, folds)
    frac = np.array([np.mean(f) if f else np.nan for f in fractions])
    return (frac, acc_bio.mean(axis=0), acc_conf.mean(axis=0),
            np.array([len(f) for f in fractions]))


def oracle_center_error_fraction(ds, n_folds, k_grid, seeds):
    runs = np.zeros(ds.n, dtype=np.int64)
    for seed in seeds:
        folds = assign_folds(ds, n_folds, seed)
        for i in range(ds.n):
            ranked = oracle_training_ranking(ds, folds, i)
            for k in k_grid:
                near = ranked[:k]
                if oracle_vote([ds.bio_labels[j] for j in near]) == ds.bio_labels[i]:
                    continue
                both = sum(1 for j in near if ds.bio_labels[j] != ds.bio_labels[i]
                           and ds.conf_labels[j] == ds.conf_labels[i])
                runs[i] += 2 * both > k
    return runs / (len(seeds) * len(k_grid))


def test_confounder_analysis_matches_per_query_oracle(monkeypatch):
    fractions = []
    for ds, tables in ensemble_cases(monkeypatch):
        frac, acc_bio, acc_conf, n_mis = oracle_confounders(ds, 4, ENSEMBLE_GRID, (3, 4))
        assert n_mis.min() > 0
        for nt in tables:
            report = confounder_analysis(ds, nt, seeds=(3, 4), n_folds=4,
                                         k_grid=ENSEMBLE_GRID)
            assert report.frac_same_center.tobytes() == frac.tobytes()
            assert report.acc_bio.tobytes() == acc_bio.tobytes()
            assert report.acc_conf.tobytes() == acc_conf.tobytes()
            assert report.n_misclassified.tolist() == n_mis.tolist()
        fractions.append(frac.tobytes())
    # group exclusion changes which neighbors vote
    assert fractions[0] != fractions[1]


def test_center_error_relation_matches_per_query_oracle(monkeypatch):
    fractions = []
    for ds, tables in ensemble_cases(monkeypatch):
        expected = oracle_center_error_fraction(ds, 4, ENSEMBLE_GRID, (3, 4))
        assert 0 < (expected > 0).sum() < ds.n
        bins = np.minimum((expected * 10).astype(int), 9)
        probe = bio_probe(ds, 3, n_folds=4, lam=1e-2, max_iter=200)
        for nt in tables:
            rel = center_error_relation(ds, nt, seeds=(3, 4), logreg=probe,
                                        k_grid=ENSEMBLE_GRID, n_folds=4)
            assert rel.fraction_center_error.tobytes() == expected.tobytes()
            rates = [rel.logreg_wrong[bins == b].mean() if (bins == b).any() else np.nan
                     for b in range(10)]
            assert rel.bin_logreg_error.tobytes() == np.array(rates).tobytes()
        fractions.append(expected.tobytes())
    assert fractions[0] != fractions[1]


def count_rankings(monkeypatch) -> list[tuple[int, int]]:
    """(rows, depth) of every ``neighbors._rank`` call from now on."""
    calls = []
    rank = neighbors._rank

    def counted(d, rows, depth):
        calls.append((len(rows), depth))
        return rank(d, rows, depth)

    monkeypatch.setattr(neighbors, "_rank", counted)
    return calls


@pytest.mark.parametrize("grouped", [False, True], ids=["plain", "grouped"])
@pytest.mark.parametrize("analysis", ["index", "knn", "confounders", "relation"])
def test_each_analysis_ranks_its_rows_once(monkeypatch, grouped, analysis):
    # with 4 folds of 18 out of 72 samples, 35 ranks hold at least 18
    # training neighbors of every sample, so no row has to rank deeper
    ds = grouped_confounded_ds() if grouped else confounded_ds()
    nt = build_neighbor_table(ds, exclude_same_group=grouped)
    seeds, grid = (3, 4, 5), ENSEMBLE_GRID
    runs = {
        "index": (lambda: robustness_index(ds, nt, 10), 10),
        "knn": (lambda: knn_predict(ds, nt, assign_folds(ds, 4, 3), 16)["bio"],
                knn_table_depth(16, 4)),
        "confounders": (lambda: confounder_analysis(ds, nt, seeds, n_folds=4, k_grid=grid),
                        knn_table_depth(max(grid), 4)),
        "relation": (lambda: center_error_relation(
            ds, nt, seeds, bio_probe(ds, 3, n_folds=4, lam=1e-2, max_iter=200),
            k_grid=grid, n_folds=4),
                     knn_table_depth(max(grid), 4)),
    }
    run, depth = runs[analysis]
    assert depth == (10 if analysis == "index" else 35)
    calls = count_rankings(monkeypatch)
    run()
    assert calls == [(ds.n, depth)]


def test_knn_analyses_identical_for_any_worker_count(monkeypatch):
    # rank 3 columns deep in blocks of one row, so every row is re-ranked
    # in full and each ranking runs as many tasks
    monkeypatch.setattr(neighbors, "_TASK_ELEMS", 100)
    rank_depth(monkeypatch, 3)
    calls = count_rankings(monkeypatch)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(neighbors, "_workers", lambda: workers)
        for grouped, ds in ((False, confounded_ds()), (True, grouped_confounded_ds())):
            nt = build_neighbor_table(ds, exclude_same_group=grouped)
            knn = knn_predict(ds, nt, assign_folds(ds, 4, 3), 5)["bio"]
            conf = confounder_analysis(ds, nt, (3, 4), n_folds=4, k_grid=ENSEMBLE_GRID)
            results.append((grouped, knn.predictions, conf.frac_same_center.tobytes(),
                            conf.acc_bio.tobytes(), conf.acc_conf.tobytes()))
    assert results[0::2] == [results[0]] * 3
    assert results[1::2] == [results[1]] * 3
    assert {depth for _, depth in calls} == {3, confounded_ds().n - 1}


def test_deep_reranks_inside_ensemble_tasks_equal_serial(monkeypatch):
    """Grouped data ranked 3 columns deep: every ensemble and kNN task ranks
    its rows in full from a pool thread, with more tasks than workers. The
    results equal the 1-worker ones; a task that waited on its own pool
    fails this test at the timeout instead of hanging it."""
    monkeypatch.setattr(neighbors, "_TASK_ELEMS", 20)
    rank_depth(monkeypatch, 3)
    ds = grouped_confounded_ds()
    nt = build_neighbor_table(ds, exclude_same_group=True)
    deep_threads = set()
    rank = neighbors._rank

    def recorded(d, rows, depth):
        if depth == ds.n - 1:
            deep_threads.add(threading.current_thread().name)
        return rank(d, rows, depth)

    monkeypatch.setattr(neighbors, "_rank", recorded)

    def analyses():
        conf = confounder_analysis(ds, nt, (3, 4), n_folds=4, k_grid=ENSEMBLE_GRID)
        rel = center_error_relation(ds, nt, (3, 4),
                                    bio_probe(ds, 3, n_folds=4, lam=1e-2, max_iter=200),
                                    k_grid=ENSEMBLE_GRID, n_folds=4)
        knn = knn_predict(ds, nt, assign_folds(ds, 4, 3), 5)["bio"]
        return (conf.frac_same_center.tobytes(), conf.acc_bio.tobytes(),
                conf.acc_conf.tobytes(), rel.fraction_center_error.tobytes(),
                rel.bin_logreg_error.tobytes(), knn.predictions)

    results = {}
    for workers in (1, 2, 8):
        monkeypatch.setattr(neighbors, "_workers", lambda: workers)
        deep_threads.clear()
        done = []
        runner = threading.Thread(target=lambda: done.append(analyses()), daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), f"the analyses hung with {workers} workers"
        results[workers] = done[0]
        on_pool = {name for name in deep_threads if name.startswith("embrobust-rank")}
        assert bool(on_pool) == (workers > 1)
    assert len(evaluation._row_blocks(ds.n, 2 * 3)) > 8  # ensemble tasks
    assert results[2] == results[1]
    assert results[8] == results[1]
