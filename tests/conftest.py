"""Shared fixtures and dataset builders for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from embrobust import (EmbeddingDataset, NeighborTable, SynthSpec, build_neighbor_table,
                       cli, generate)

# HYPOTHESIS_PROFILE=ci (set in CI) fixes the example sequence and prints a
# reproduction blob with any failure, so a fuzz failure there reruns here.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Five-class / five-center composition mirroring the evaluation table of the
# domain: rows = bio classes, cols = conf classes, 20 populated cells. The
# first two bio classes cover every conf class; the others have gaps.
SPARSE_CELLS = np.array([
    [1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1],
    [1, 0, 1, 1, 0],
    [1, 0, 1, 0, 1],
    [1, 1, 1, 1, 0],
])


@pytest.fixture(autouse=True)
def _cold_cli():
    """Each test starts with no neighbor table or regression probe held from
    an earlier test's CLI calls; the calls within a test share them as a
    process would."""
    cli._drop_held()


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cos(u, v), clamped to [0, 2], one pair at a time: the oracle for
    the neighbor table's distances. Raises on zero-norm input."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    nu = np.sqrt((u * u).sum())
    nv = np.sqrt((v * v).sum())
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine distance undefined for zero-norm vector")
    d = 1.0 - (u * v).sum() / (nu * nv)
    return float(min(max(d, 0.0), 2.0))


def oracle_knn_predictions(ds, folds, target, k):
    """From-scratch per-query recomputation: distances rebuilt per query,
    sorted with Python's sort, same majority/tie contract."""
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
        first_rank: dict[str, int] = {}
        for rank, (_, j) in enumerate(cand[:k]):
            lab = labels[j]
            votes[lab] = votes.get(lab, 0) + 1
            first_rank.setdefault(lab, rank)
        best = max(votes.values())
        winner = min((first_rank[lab], lab) for lab, v in votes.items()
                     if v == best)[1]
        out.append(winner)
    return out


def table_of(vectors: np.ndarray, metric: str = "cosine") -> NeighborTable:
    """The neighbor table of bare vectors under ``metric``, for the calls that
    take a table (``tsne``, ``trustworthiness``); the labels are placeholders."""
    n = len(vectors)
    return build_neighbor_table(EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(n)], vectors, ["a"] * n, ["a"] * n,
        require_nonzero=False), metric=metric)


def make_random_dataset(seed: int, n: int, dim: int, n_bio: int = 3,
                        n_conf: int = 4) -> EmbeddingDataset:
    """Unstructured dataset: standard normal vectors, random labels."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    bio = [f"b{v}" for v in rng.integers(n_bio, size=n)]
    conf = [f"c{v}" for v in rng.integers(n_conf, size=n)]
    ids = [f"s{i:04d}" for i in range(n)]
    return EmbeddingDataset.from_arrays(ids, vectors, bio, conf)


def make_synth(seed=0, n_bio=3, n_conf=3, per_cell=10, dim=24,
               bio_strength=1.0, conf_strength=1.0, noise_sigma=0.3):
    return generate(SynthSpec(
        n_bio=n_bio, n_conf=n_conf, per_cell=per_cell, dim=dim,
        bio_strength=bio_strength, conf_strength=conf_strength,
        noise_sigma=noise_sigma, seed=seed))


@pytest.fixture
def small_random_ds() -> EmbeddingDataset:
    return make_random_dataset(seed=11, n=40, dim=8)


@pytest.fixture
def table_shaped_ds() -> EmbeddingDataset:
    """200 samples over the sparse 20-cell composition, 10 per populated cell."""
    return generate(SynthSpec(
        n_bio=5, n_conf=5, per_cell=SPARSE_CELLS * 10, dim=32,
        bio_strength=1.0, conf_strength=0.8, noise_sigma=0.4, seed=42))
