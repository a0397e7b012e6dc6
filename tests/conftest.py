"""Shared fixtures and dataset builders for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from embrobust import EmbeddingDataset, SynthSpec, cli, generate

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
