"""Neighbor table exactness, tie handling, and frequency curves."""

from __future__ import annotations

import multiprocessing
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embrobust import (EmbeddingDataset, SynthSpec, build_neighbor_table,
                       frequency_curves, generate, neighbors)

from conftest import cosine_distance, make_random_dataset


def oracle_table(vectors: np.ndarray):
    """Independent quadratic recomputation: own normalization expressions,
    lexsort instead of stable argsort, explicit per-row bookkeeping."""
    v = np.asarray(vectors, dtype=np.float64)
    n = v.shape[0]
    unit = v / np.sqrt(np.square(v).sum(axis=1))[:, None]
    gram = unit @ unit.T
    dmat = np.clip(1.0 - gram, 0.0, 2.0)
    order = np.empty((n, n - 1), dtype=np.intp)
    dist = np.empty((n, n - 1))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        # lexsort: last key is primary
        keys = np.lexsort((np.array(others), dmat[i, others]))
        ranked = [others[t] for t in keys]
        order[i] = ranked
        dist[i] = dmat[i, ranked]
    return order, dist


def table_arrays(nt, depth=None):
    """(order, dist): every row of ``nt`` ranked ``depth`` columns deep (all
    n-1 by default), and the distances at those ranks."""
    order = nt.ranked(slice(None), nt.n - 1 if depth is None else depth)
    return order, np.take_along_axis(nt.distances, order, axis=1)


def test_cosine_distance_trivial_cases():
    assert cosine_distance(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 0.0
    assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert cosine_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 2.0
    with pytest.raises(ValueError, match="zero-norm"):
        cosine_distance(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="shape mismatch"):
        cosine_distance(np.ones(3), np.ones(4))


def test_three_points_on_known_angles():
    angles = {"A": 0.0, "B": np.radians(10.0), "C": np.radians(90.0)}
    vectors = np.array([[np.cos(a), np.sin(a)] for a in angles.values()])
    ds = EmbeddingDataset.from_arrays(list(angles), vectors, ["t"] * 3, ["c"] * 3)
    order, _ = table_arrays(build_neighbor_table(ds))
    assert order[0].tolist() == [1, 2]  # A: B then C
    assert order[2].tolist() == [1, 0]  # C: B (80 deg) then A (90 deg)


def test_matches_independent_recomputation():
    ds = make_random_dataset(seed=21, n=50, dim=8)
    nt_order, nt_dist = table_arrays(build_neighbor_table(ds))
    order, dist = oracle_table(ds.vectors)
    np.testing.assert_array_equal(nt_order, order)
    np.testing.assert_array_equal(nt_dist, dist)


def test_matches_oracle_at_larger_sizes():
    for seed, n, d in [(1, 120, 5), (2, 200, 16)]:
        ds = make_random_dataset(seed=seed, n=n, dim=d)
        nt_order, nt_dist = table_arrays(build_neighbor_table(ds))
        order, dist = oracle_table(ds.vectors)
        np.testing.assert_array_equal(nt_order, order)
        np.testing.assert_array_equal(nt_dist, dist)


def test_duplicate_vectors_tie_break_by_index():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    ds = EmbeddingDataset.from_arrays(list("abcd"), vectors, ["t"] * 4, ["c"] * 4)
    order, _ = table_arrays(build_neighbor_table(ds))
    # sample 3 is at distance 0 from samples 0 and 2: lower index first
    assert order[3].tolist() == [0, 2, 1]
    assert order[0].tolist() == [2, 3, 1]


def test_rows_are_permutations_and_sorted(small_random_ds):
    nt = build_neighbor_table(small_random_ds)
    order, dist = table_arrays(nt)
    n = small_random_ds.n
    for i in range(n):
        assert sorted(order[i].tolist()) == [j for j in range(n) if j != i]
        assert (np.diff(dist[i]) >= 0).all()
    assert dist.min() >= 0.0 and dist.max() <= 2.0
    assert nt.max_rank == n - 1


def test_power_of_two_scaling_bit_identical(small_random_ds):
    ds = small_random_ds
    order, dist = table_arrays(build_neighbor_table(ds))
    for scale in (0.5, 2.0, 1024.0):
        scaled = EmbeddingDataset.from_arrays(
            ds.ids, ds.vectors * scale, ds.bio_labels, ds.conf_labels)
        order2, dist2 = table_arrays(build_neighbor_table(scaled))
        np.testing.assert_array_equal(order2, order)
        np.testing.assert_array_equal(dist2, dist)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3,
                       allow_nan=False, allow_infinity=False))
def test_positive_scaling_preserves_ranking(scale):
    ds = make_random_dataset(seed=77, n=25, dim=6)
    order, dist = table_arrays(build_neighbor_table(ds))
    scaled = EmbeddingDataset.from_arrays(
        ds.ids, ds.vectors * scale, ds.bio_labels, ds.conf_labels)
    order2, dist2 = table_arrays(build_neighbor_table(scaled))
    np.testing.assert_array_equal(order2, order)
    np.testing.assert_allclose(dist2, dist, atol=1e-12)


def test_table_distances_match_scalar_function(small_random_ds):
    ds = small_random_ds
    order, dist = table_arrays(build_neighbor_table(ds))
    for i in (0, 7, 23):
        for j_rank in (0, 5, 30):
            j = order[i, j_rank]
            expected = cosine_distance(ds.vectors[i], ds.vectors[j])
            assert dist[i, j_rank] == pytest.approx(expected, abs=1e-12)


def test_euclidean_metric_option():
    vectors = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [1.0, 0.0]])
    ds = EmbeddingDataset.from_arrays(
        list("abcd"), vectors, ["t"] * 4, ["c"] * 4, require_nonzero=False)
    order, dist = table_arrays(build_neighbor_table(ds, metric="euclidean"))
    assert order[0].tolist() == [3, 1, 2]
    assert dist[0].tolist() == [1.0, 3.0, 4.0]


@pytest.mark.parametrize("n, d", [(40, 3), (800, 2), (700, 64)])
def test_euclidean_distances_match_dense_formula_bit_for_bit(n, d):
    """The row blocks that form (sq_i + sq_j) - 2 v_i.v_j in place round as
    the whole-matrix expression does; n = 800 and 700 span several blocks."""
    v = np.random.default_rng(n).normal(size=(n, d)) * 3.0
    sq = (v * v).sum(axis=1)
    want = sq[:, None] + sq[None, :] - 2.0 * (v @ v.T)
    np.clip(want, 0.0, None, out=want)
    np.sqrt(want, out=want)
    np.fill_diagonal(want, 0.0)
    assert neighbors.pairwise_distances(v, "euclidean").tobytes() == want.tobytes()


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_overflowing_vectors_raise_naming_the_row(metric):
    """Float64 vectors whose distances would overflow raise ``ValueError``
    before any numpy warning; with exclusion, such inf or NaN distances had
    ranked row 0 as [0, 1, 3] though ``limit[0]`` is 2."""
    vectors = np.array([[1e200, 1e200], [-1e200, -1e200], [1e200, -1e200], [-1e200, 1e200]])
    ds = EmbeddingDataset.from_arrays(list("abcd"), vectors, ["t"] * 4, ["c"] * 4,
                                      ["g", "g", "", ""])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="row 0"):
            build_neighbor_table(ds, metric=metric, exclude_same_group=True)
        with pytest.raises(ValueError, match="row 2"):
            neighbors.pairwise_distances(np.vstack([[1.0, 2.0], [3.0, 1.0], vectors]), metric)


def test_euclidean_accepts_squared_norms_up_to_a_quarter_of_the_range():
    edge = np.sqrt(np.finfo(np.float64).max / 4) / np.sqrt(2.0)
    vectors = np.array([[edge, edge], [-edge, -edge], [edge, -edge], [0.0, 0.0]])
    assert ((vectors * vectors).sum(axis=1)[:3] <= np.finfo(np.float64).max / 4).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = neighbors.pairwise_distances(vectors, "euclidean")
    assert np.isfinite(d).all()
    assert d[0, 3] == d[2, 3] > 0.0
    with pytest.raises(ValueError, match="row 1: its squared norm exceeds"):
        neighbors.pairwise_distances(vectors * [[1.0], [1.0 + 1e-15], [1.0], [1.0]],
                                     "euclidean")


def test_frequency_curve_single_bio_class():
    ds = make_random_dataset(seed=3, n=30, dim=5, n_bio=1, n_conf=3)
    nt = build_neighbor_table(ds)
    curves = frequency_curves(ds, nt)
    assert (curves.f_bio == 1.0).all()
    assert len(curves.f_bio) == 29
    assert curves.ranks[0] == 1 and curves.ranks[-1] == 29


def test_frequency_curve_tight_conf_clusters():
    # 5 tight clusters of 20, cluster = conf class, single bio class
    ds = generate(SynthSpec(n_bio=1, n_conf=5, per_cell=20, dim=16,
                            bio_strength=0.0, conf_strength=1.0,
                            noise_sigma=0.01, seed=8))
    nt = build_neighbor_table(ds)
    curves = frequency_curves(ds, nt)
    assert (curves.f_conf[:19] == 1.0).all()
    assert (curves.f_conf[19:] == 0.0).all()
    # independent recount of a few ranks straight from the table
    order, _ = table_arrays(nt)
    for j in (0, 10, 19, 40):
        same = sum(ds.conf_labels[order[i, j]] == ds.conf_labels[i]
                   for i in range(ds.n))
        assert curves.f_conf[j] == pytest.approx(same / ds.n, abs=1e-12)


def test_cluster_conf_above_bio_curve():
    # conf signal dominant: confounder curve must sit above the bio curve early
    ds = generate(SynthSpec(n_bio=4, n_conf=4, per_cell=15, dim=24,
                            bio_strength=0.3, conf_strength=1.0,
                            noise_sigma=0.3, seed=12))
    nt = build_neighbor_table(ds)
    curves = frequency_curves(ds, nt)
    assert curves.f_conf[:10].mean() > curves.f_bio[:10].mean()


def test_exclude_same_group():
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(12, 6))
    groups = ["g1"] * 4 + ["g2"] * 4 + ["", "", "", ""]
    ds = EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(12)], vectors, ["t"] * 12, ["c"] * 12, groups)
    nt = build_neighbor_table(ds, exclude_same_group=True)
    order, dist = table_arrays(nt)
    for i in range(12):
        row = order[i].tolist()
        allowed = row[: nt.limit[i]]
        assert sorted(allowed) == [j for j in range(12) if j != i
                                   and not (groups[i] and groups[j] == groups[i])]
        if groups[i]:
            assert nt.limit[i] == 12 - 1 - 3  # three same-group others
        else:
            assert nt.limit[i] == 11  # ungrouped samples exclude nothing
        # the allowed prefix is distance-sorted
        assert (np.diff(dist[i][: nt.limit[i]]) >= 0).all()
        # past it, no neighbors: the row's +inf entries (itself and its
        # same-group others) in ascending index order, cut at n-1 columns
        infs = [j for j in range(12) if j == i or (groups[i] and groups[j] == groups[i])]
        assert row[nt.limit[i]:] == infs[: 11 - nt.limit[i]]
        assert np.isinf(dist[i][nt.limit[i]:]).all()
    assert nt.max_rank == 8


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("exclude", [False, True])
def test_every_table_array_is_read_only(metric, exclude):
    """A table may be shared by several analyses, so none can change it."""
    ds = make_random_dataset(seed=5, n=12, dim=3)
    ds = EmbeddingDataset.from_arrays(ds.ids, ds.vectors, ds.bio_labels, ds.conf_labels,
                                      [f"g{i % 4}" for i in range(ds.n)])
    nt = build_neighbor_table(ds, metric=metric, exclude_same_group=exclude)
    arrays = [v for v in vars(nt).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == (3 if exclude else 2)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


# ---------------------------------------------------------------------------
# bounded-depth engine
# ---------------------------------------------------------------------------

@pytest.fixture
def small_blocks(monkeypatch):
    """Rank a few rows per task, so every table below spans many tasks."""
    monkeypatch.setattr(neighbors, "_TASK_ELEMS", 300)


def reference_partitioned_table(ds, exclude_same_group):
    """The full-depth table as one stable argsort of every row, with
    same-group neighbors stably moved behind the allowed ones."""
    n = ds.n
    d = neighbors.pairwise_distances(ds.vectors)
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")[:, : n - 1]
    dist = np.take_along_axis(d, order, axis=1)
    limit = np.full(n, n - 1, dtype=np.intp)
    if exclude_same_group:
        groups = np.array(ds.group_ids, dtype=object)
        grouped = groups != ""
        excluded = (groups[order] == groups[:, None]) & grouped[:, None] & grouped[order]
        part = np.argsort(excluded, axis=1, kind="stable")
        order = np.take_along_axis(order, part, axis=1)
        dist = np.take_along_axis(dist, part, axis=1)
        limit = (n - 1) - excluded.sum(axis=1)
    return order, dist, limit


def duplicated_dataset(seed: int, n_distinct: int, copies: int, dim: int,
                       groups=None) -> EmbeddingDataset:
    """Small-integer vectors, each repeated ``copies`` times at shuffled
    positions, so whole blocks of distances tie exactly."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-2, 3, size=(n_distinct, dim)).astype(float)
    base[(base == 0).all(axis=1), 0] = 1.0
    vectors = base[rng.permutation(np.repeat(np.arange(n_distinct), copies))]
    n = len(vectors)
    return EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(n)], vectors, ["t"] * n, ["c"] * n, groups)


def test_truncated_tables_equal_oracle_prefix(small_blocks):
    cases = [make_random_dataset(seed=5, n=120, dim=6),
             duplicated_dataset(seed=6, n_distinct=17, copies=7, dim=3)]
    for ds in cases:
        order, dist = oracle_table(ds.vectors)
        n = ds.n
        nt = build_neighbor_table(ds)
        # both kernel paths: partition below n/8, full argsort from there
        for depth in (0, 1, 2, 5, n // 8 - 1, n // 8, n // 2, n - 2, n - 1):
            nt_order, nt_dist = table_arrays(nt, depth)
            assert nt_order.shape == (n, depth)
            np.testing.assert_array_equal(nt_order, order[:, :depth])
            np.testing.assert_array_equal(nt_dist, dist[:, :depth])
        assert table_arrays(nt, 10 * n)[0].shape == (n, n - 1)
    # the duplicates really do tie across the depth boundaries tried above
    dist = oracle_table(cases[1].vectors)[1]
    for depth in (2, 5, 14):
        assert (dist[:, depth - 1] == dist[:, depth]).sum() > 10


def test_tie_only_across_the_depth_boundary(small_blocks):
    # one duplicated vector among random ones: cut each row between its two
    # copies, and the only tie in the row straddles the depth boundary
    rng = np.random.default_rng(12)
    vectors = rng.normal(size=(120, 4))
    vectors[77] = vectors[30]
    ds = EmbeddingDataset.from_arrays([f"s{i}" for i in range(120)], vectors,
                                      ["t"] * 120, ["c"] * 120)
    order, dist = oracle_table(vectors)
    depths = set()
    for i in set(range(120)) - {30, 77}:
        r = order[i].tolist().index(30)
        assert order[i, r + 1] == 77 and dist[i, r] == dist[i, r + 1]
        depths.add(r + 1)
    assert min(depths) < 15 <= max(depths)  # both kernel paths
    nt = build_neighbor_table(ds)
    for depth in sorted(depths):
        np.testing.assert_array_equal(nt.ranked(slice(None), depth), order[:, :depth])


def test_ranked_deeper_equals_table_prefix(small_blocks):
    ds = duplicated_dataset(seed=7, n_distinct=12, copies=6, dim=3)
    nt = build_neighbor_table(ds)
    full, _ = table_arrays(nt)
    rows = np.array([0, 5, 17, 40, 71])
    for depth in (2, 3, 4, 9, 30, ds.n - 1):
        np.testing.assert_array_equal(nt.ranked(rows, depth), full[rows, :depth])


def test_bounded_exclude_same_group_is_prefix_of_full_partition(small_blocks):
    groups = [f"g{i // 4}" if i % 9 else "" for i in range(96)]
    cases = [duplicated_dataset(seed=9, n_distinct=16, copies=6, dim=3, groups=groups)]
    rng = np.random.default_rng(10)
    cases.append(EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(96)], rng.normal(size=(96, 5)), ["t"] * 96, ["c"] * 96,
        [f"g{v}" for v in rng.integers(12, size=96)]))
    for ds in cases:
        order, dist, limit = reference_partitioned_table(ds, exclude_same_group=True)
        nt = build_neighbor_table(ds, exclude_same_group=True)
        np.testing.assert_array_equal(nt.limit, limit)
        # depths below, at and beyond the smallest usable prefix; each row
        # agrees with the reference on its first limit[i] (its neighbors)
        for depth in (1, 4, 11, 12, 40, int(limit.min()), int(limit.max()), ds.n - 1):
            nt_order, nt_dist = table_arrays(nt, depth)
            assert nt_order.shape == (ds.n, depth)
            for i in range(ds.n):
                m = min(depth, limit[i])
                np.testing.assert_array_equal(nt_order[i, :m], order[i, :m])
                np.testing.assert_array_equal(nt_dist[i, :m], dist[i, :m])
        rows = np.arange(0, ds.n, 7)
        deep = nt.ranked(rows, ds.n - 1)
        for r, i in enumerate(rows):
            np.testing.assert_array_equal(deep[r, :limit[i]], order[i, :limit[i]])


def test_streamed_curves_equal_full_table_curves(small_blocks):
    groups = [f"g{i // 5}" for i in range(300)]
    ds = generate(SynthSpec(n_bio=4, n_conf=5, per_cell=15, dim=12,
                            bio_strength=0.6, conf_strength=1.0,
                            noise_sigma=0.4, seed=31))
    ds = EmbeddingDataset.from_arrays(ds.ids, ds.vectors, ds.bio_labels,
                                      ds.conf_labels, groups)
    for exclude in (False, True):
        order, _, limit = reference_partitioned_table(ds, exclude)
        depth = int(limit.min())
        neigh = order[:, :depth]
        f_bio = (ds.bio_codes[neigh] == ds.bio_codes[:, None]).mean(axis=0)
        f_conf = (ds.conf_codes[neigh] == ds.conf_codes[:, None]).mean(axis=0)
        nt = build_neighbor_table(ds, exclude_same_group=exclude)
        curves = frequency_curves(ds, nt)
        assert curves.f_bio.tobytes() == f_bio.tobytes()
        assert curves.f_conf.tobytes() == f_conf.tobytes()


# ---------------------------------------------------------------------------
# ranking on several worker threads
# ---------------------------------------------------------------------------

@pytest.fixture
def switch_often():
    """Switch threads every microsecond, so a lost or doubled block shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def by_worker_count(monkeypatch, rank, counts=(1, 2, 3, 8)):
    """``rank()`` with each worker count; 8 is more threads than cores."""
    results = []
    for workers in counts:
        monkeypatch.setattr(neighbors, "_workers", lambda: workers)
        results.append(rank())
    return results


def test_ranks_identical_for_any_worker_count(small_blocks, monkeypatch, switch_often):
    groups = [f"g{i // 4}" if i % 9 else "" for i in range(96)]
    cases = [
        # plain: exact ties across every depth below
        (duplicated_dataset(seed=6, n_distinct=17, copies=7, dim=3), False),
        # group exclusion: depths past the usable prefix of every row
        (duplicated_dataset(seed=9, n_distinct=16, copies=6, dim=3, groups=groups), True),
    ]
    for ds, exclude in cases:
        order, _, limit = reference_partitioned_table(ds, exclude)
        nt = build_neighbor_table(ds, exclude_same_group=exclude)
        assert len(neighbors._row_blocks(ds.n, ds.n)) > 8
        for depth in (1, 5, 14, int(limit.min()) + 1, ds.n - 1):
            for rows in (slice(None), np.arange(3, ds.n, 5), np.arange(10, 50)):
                serial, *threaded = by_worker_count(monkeypatch,
                                                    lambda: nt.ranked(rows, depth))
                # the reference's order inside each row's neighbors
                for r, i in enumerate(np.arange(ds.n)[rows]):
                    m = min(depth, limit[i])
                    np.testing.assert_array_equal(serial[r, :m], order[i, :m])
                for ranks in threaded:
                    np.testing.assert_array_equal(ranks, serial)


def test_ranking_task_error_reaches_the_caller(small_blocks, monkeypatch):
    nt = build_neighbor_table(make_random_dataset(seed=3, n=60, dim=4))

    def failing(d, rows, depth):
        if 30 in rows:
            raise MemoryError("the block of row 30")
        return rank_block(d, rows, depth)

    rank_block = neighbors._rank_block
    monkeypatch.setattr(neighbors, "_rank_block", failing)
    monkeypatch.setattr(neighbors, "_workers", lambda: 3)
    with pytest.raises(MemoryError, match="the block of row 30"):
        nt.ranked(slice(None), 10)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_ranking_in_a_forked_child(monkeypatch):
    """A child forked after the parent's pool threads started ranks on
    threads of its own instead of waiting on the parent's."""
    monkeypatch.setattr(neighbors, "_workers", lambda: 2)
    nt = build_neighbor_table(make_random_dataset(seed=3, n=200, dim=4))
    expected = nt.ranked(slice(None), 5)  # starts the pool threads here
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        child = ctx.Process(target=lambda: queue.put(nt.ranked(slice(None), 5)))
        child.start()
    try:
        ranks = queue.get(timeout=30)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert not child.is_alive()
    np.testing.assert_array_equal(ranks, expected)
