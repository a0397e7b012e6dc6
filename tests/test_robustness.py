"""Robustness index: counting oracle, bounds, symmetry, cross-module checks."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from embrobust import (EmbeddingDataset, SynthSpec, UndefinedIndexError,
                       build_neighbor_table, chance_levels, frequency_curves,
                       generate, robustness_bounds, robustness_index)

from conftest import SPARSE_CELLS, make_random_dataset


def brute_force_counts(vectors, bio_labels, conf_labels, k):
    """Double-loop counting oracle straight off the raw vectors.

    Shares no code with the neighbor table: per-query distances via the
    unnormalized cosine formula, ranking via sorted() on (distance, index).
    """
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


def test_identical_labels_give_unit_index():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(120, 6))
    labels = [f"g{v}" for v in rng.integers(3, size=120)]
    ds = EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(120)], vectors, labels, labels)
    nt = build_neighbor_table(ds)
    for k in (1, 10, 50):
        rep = robustness_index(ds, nt, k)
        assert rep.r_k == 1.0
        assert rep.numerator == rep.denominator


def test_counts_match_brute_force_oracle():
    ds = make_random_dataset(seed=31, n=60, dim=7, n_bio=3, n_conf=3)
    nt = build_neighbor_table(ds)
    rep = robustness_index(ds, nt, 10)
    num, den = brute_force_counts(ds.vectors, ds.bio_labels, ds.conf_labels, 10)
    assert rep.numerator == num
    assert rep.denominator == den
    assert rep.r_k == num / den


def test_bounds_balanced_five_by_five():
    ds = generate(SynthSpec(n_bio=5, n_conf=5, per_cell=80, dim=16, seed=0))
    r_min, r_max = robustness_bounds(ds)
    p = Fraction(5 * 400 * 399, 2000 * 1999)
    assert r_min == pytest.approx(float(p), rel=1e-14)
    assert r_max == pytest.approx(float(1 / p), rel=1e-14)
    assert r_max == pytest.approx(5.010025062656641, rel=1e-12)


def test_bounds_sparse_table_composition():
    # 20-cell composition at 100 per populated cell: class sizes
    # {500, 500, 300, 300, 400} on both axes
    ds = generate(SynthSpec(n_bio=5, n_conf=5, per_cell=SPARSE_CELLS * 100,
                            dim=16, seed=0))
    assert ds.n == 2000
    r_min, r_max = robustness_bounds(ds)
    p = Fraction(2 * 500 * 499 + 2 * 300 * 299 + 400 * 399, 2000 * 1999)
    assert r_min == pytest.approx(float(p), rel=1e-14)
    assert r_max == pytest.approx(float(1 / p), rel=1e-14)
    # recorded exact values for this composition
    assert r_min == pytest.approx(0.2096048024012006, abs=1e-13)
    assert r_max == pytest.approx(4.770883054892601, rel=1e-12)


def test_bounds_single_conf_class():
    ds = make_random_dataset(seed=1, n=20, dim=4, n_bio=3, n_conf=1)
    _, r_max = robustness_bounds(ds)
    assert r_max == 1.0


def test_label_swap_inverts_index(small_random_ds):
    ds = small_random_ds
    nt = build_neighbor_table(ds)
    rep = robustness_index(ds, nt, 7)
    swapped = EmbeddingDataset.from_arrays(
        ds.ids, ds.vectors, ds.conf_labels, ds.bio_labels)
    rep_sw = robustness_index(swapped, build_neighbor_table(swapped), 7)
    assert rep_sw.numerator == rep.denominator
    assert rep_sw.denominator == rep.numerator
    assert rep_sw.r_k == pytest.approx(1.0 / rep.r_k, rel=1e-12)


def test_index_matches_frequency_curves(small_random_ds):
    """R_k's counts are exactly the sums of the curves' first k per-rank
    counts, with and without group exclusion."""
    ds = small_random_ds
    # groups of four samples beside ungrouped ones
    grouped = EmbeddingDataset.from_arrays(
        ds.ids, ds.vectors, ds.bio_labels, ds.conf_labels,
        group_ids=[f"g{i % 8}" if i % 5 else "" for i in range(ds.n)])
    for data, exclude in ((ds, False), (grouped, True)):
        nt = build_neighbor_table(data, exclude_same_group=exclude)
        curves = frequency_curves(data, nt)
        for k in (1, 5, nt.max_rank):
            rep = robustness_index(data, nt, k)
            assert rep.numerator == np.rint(curves.f_bio[:k] * data.n).sum()
            assert rep.denominator == np.rint(curves.f_conf[:k] * data.n).sum()


def test_scaling_leaves_counts_unchanged(small_random_ds):
    ds = small_random_ds
    rep = robustness_index(ds, build_neighbor_table(ds), 5)
    for scale in (2.0, 3.7):
        scaled = EmbeddingDataset.from_arrays(
            ds.ids, ds.vectors * scale, ds.bio_labels, ds.conf_labels)
        rep2 = robustness_index(scaled, build_neighbor_table(scaled), 5)
        assert (rep2.numerator, rep2.denominator) == (rep.numerator, rep.denominator)


def test_conf_permutation_matches_chance_expectation():
    ds = generate(SynthSpec(n_bio=5, n_conf=5, per_cell=20, dim=16,
                            bio_strength=1.0, conf_strength=1.0,
                            noise_sigma=0.4, seed=2))  # n = 500
    rng = np.random.default_rng(123)
    perm = rng.permutation(ds.n)
    permuted = EmbeddingDataset.from_arrays(
        ds.ids, ds.vectors, ds.bio_labels,
        [ds.conf_labels[p] for p in perm])
    nt = build_neighbor_table(permuted)
    k = 20
    rep = robustness_index(permuted, nt, k)
    _, p_conf = chance_levels(permuted)
    expected = permuted.n * k * p_conf
    sigma = np.sqrt(permuted.n * k * p_conf * (1.0 - p_conf))
    assert abs(rep.denominator - expected) <= 3.0 * sigma


def test_k_out_of_range_errors(small_random_ds):
    nt = build_neighbor_table(small_random_ds)
    with pytest.raises(ValueError, match="k must be >= 1"):
        robustness_index(small_random_ds, nt, 0)
    with pytest.raises(ValueError, match="exceeds usable neighbor depth"):
        robustness_index(small_random_ds, nt, small_random_ds.n)


def test_undefined_index_reports_numerator():
    # every sample its own confounder class: the denominator is always zero
    rng = np.random.default_rng(6)
    vectors = rng.normal(size=(8, 4))
    ds = EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(8)], vectors,
        ["t"] * 8, [f"c{i}" for i in range(8)])
    nt = build_neighbor_table(ds)
    with pytest.raises(UndefinedIndexError, match="no same-confounder neighbors") as err:
        robustness_index(ds, nt, 3)
    assert err.value.numerator == 8 * 3  # single bio class: all neighbors match


def test_report_serialization(small_random_ds):
    rep = robustness_index(small_random_ds, build_neighbor_table(small_random_ds), 5)
    payload = rep.to_dict()
    assert set(payload) == {"k", "numerator", "denominator", "r_k", "r_min", "r_max"}
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped["numerator"] == rep.numerator
    assert round_tripped["r_k"] == rep.r_k


def test_display_form_two_significant_digits():
    ds = make_random_dataset(seed=2, n=30, dim=4)
    rep = robustness_index(ds, build_neighbor_table(ds), 5)
    assert rep.r_k_display == f"{rep.r_k:.2g}"
    assert len(rep.r_k_display) <= 4
