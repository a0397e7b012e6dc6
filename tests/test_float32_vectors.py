"""Embeddings held once, as float32: the same bits as a float64 copy, less memory.

Loaded and synthesized vectors stay float32; the analysis widens them to
float64 inside each operation. Casting float32 to float64 is exact, so
every result must be byte-identical to the one computed from a float64
copy of the same values.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from embrobust import (EmbeddingDataset, TsneConfig, build_neighbor_table, load_dataset,
                       logreg_fit, save_dataset, trustworthiness, tsne)
from embrobust import neighbors
from embrobust.neighbors import pairwise_distances

from conftest import make_synth, table_of

SHAPES = [(300, 64), (40, 768)]


def _float32(n: int, d: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, d)).astype(np.float32)


@pytest.mark.parametrize("n, d", SHAPES)
@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_pairwise_distances_float32_matches_float64_copy(n, d, metric):
    v32 = _float32(n, d)
    got = pairwise_distances(v32, metric)
    want = pairwise_distances(v32.astype(np.float64), metric)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, d", SHAPES)
def test_logreg_fit_float32_matches_float64_copy(n, d):
    v32 = _float32(n, d, seed=1)
    labels = [f"c{i % 3}" for i in range(n)]
    got = logreg_fit(v32, labels, lam=1e-2, max_iter=200)
    want = logreg_fit(v32.astype(np.float64), labels, lam=1e-2, max_iter=200)
    for name in ("mean", "inv_scale", "weights", "bias", "loss_trace"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.n_iter == want.n_iter


def _spy_on_distances(monkeypatch) -> list:
    """The dtype of every array that a table build passes to
    ``pairwise_distances``, in call order."""
    seen = []

    def spy(vectors, metric="cosine"):
        seen.append(vectors.dtype)
        return pairwise_distances(vectors, metric)

    monkeypatch.setattr(neighbors, "pairwise_distances", spy)
    return seen


@pytest.mark.parametrize("n, d", [(120, 64), (40, 768)])
def test_tsne_float32_matches_float64_copy(n, d, monkeypatch):
    """n <= 256, where one row block covers every row. The float32 array
    reaches ``pairwise_distances`` unwidened, as a dataset's vectors do."""
    seen = _spy_on_distances(monkeypatch)
    v32 = _float32(n, d, seed=2)
    cfg = TsneConfig(perplexity=10.0, iterations=60, early_exaggeration_iters=20, seed=3)
    got = tsne(table_of(v32), cfg)
    want = tsne(table_of(v32.astype(np.float64)), cfg)
    assert seen == [np.float32, np.float64]
    assert got.coords.tobytes() == want.coords.tobytes()
    assert got.kl_trace.tobytes() == want.kl_trace.tobytes()


def test_trustworthiness_float32_matches_float64_copy(monkeypatch):
    seen = _spy_on_distances(monkeypatch)
    v32 = _float32(120, 64, seed=4)
    coords = np.random.default_rng(5).normal(size=(120, 2))
    got = trustworthiness(table_of(v32, "euclidean"), coords)
    want = trustworthiness(table_of(v32.astype(np.float64), "euclidean"), coords)
    assert seen[0] == np.float32
    assert got == want


@pytest.mark.parametrize("fmt, name", [("binary", "e.bin"), ("csv", "e.csv")])
def test_loaded_vectors_are_read_only_float32(tmp_path, fmt, name):
    ds = make_synth(seed=4, per_cell=3, dim=10)
    assert ds.vectors.dtype == np.float32
    save_dataset(ds, tmp_path / "m.csv", tmp_path / name, fmt=fmt)
    loaded = load_dataset(tmp_path / "m.csv", tmp_path / name)
    assert loaded.vectors.dtype == np.float32
    assert loaded.vectors.nbytes == 4 * loaded.n * loaded.dim
    assert not loaded.vectors.flags.writeable
    assert np.array_equal(loaded.vectors, ds.vectors)


def test_from_arrays_keeps_float64_as_float64():
    coords = np.random.default_rng(5).normal(size=(6, 2))
    ds = EmbeddingDataset.from_arrays([f"s{i}" for i in range(6)], coords,
                                      ["a", "b"] * 3, ["x"] * 6)
    assert ds.vectors.dtype == np.float64
    assert ds.vectors.tobytes() == coords.tobytes()


def test_load_and_table_hold_one_float32_copy(tmp_path):
    """The file's float32 bytes (4nd), the unit vectors (8nd) and the n x n
    matrix (8n^2) are the peak; a float64 copy of the vectors (8nd more)
    would exceed the bound."""
    n, d = 500, 2048
    ds = make_synth(seed=6, n_bio=5, n_conf=5, per_cell=20, dim=d)
    assert ds.n == n
    save_dataset(ds, tmp_path / "m.csv", tmp_path / "e.bin")
    del ds
    tracemalloc.start()
    try:
        loaded = load_dataset(tmp_path / "m.csv", tmp_path / "e.bin")
        table = build_neighbor_table(loaded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n == n
    assert peak < 12 * n * d + 8 * n * n + 2 ** 20
