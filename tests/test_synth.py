"""Synthetic generator: determinism, orthogonality, signal-strength behavior."""

from __future__ import annotations

import numpy as np
import pytest

from embrobust import (SynthSpec, build_neighbor_table, generate,
                       load_dataset, robustness_bounds, robustness_index,
                       save_dataset)
from embrobust.synth import signal_directions

from conftest import SPARSE_CELLS


def _r50(ds):
    return robustness_index(ds, build_neighbor_table(ds), 50).r_k


def test_deterministic_bit_identical():
    spec = SynthSpec(n_bio=3, n_conf=4, per_cell=6, dim=16, seed=99)
    a = generate(spec)
    b = generate(spec)
    assert a.ids == b.ids
    assert a.bio_labels == b.bio_labels
    assert np.array_equal(a.vectors, b.vectors)
    c = generate(SynthSpec(n_bio=3, n_conf=4, per_cell=6, dim=16, seed=100))
    assert not np.array_equal(a.vectors, c.vectors)


def test_cell_counts_and_labels():
    counts = np.array([[2, 0], [1, 3]])
    ds = generate(SynthSpec(n_bio=2, n_conf=2, per_cell=counts, dim=8, seed=0))
    assert ds.n == 6
    observed = {}
    for b, c in zip(ds.bio_labels, ds.conf_labels):
        observed[(b, c)] = observed.get((b, c), 0) + 1
    assert observed == {("bio00", "conf00"): 2, ("bio01", "conf00"): 1,
                        ("bio01", "conf01"): 3}
    assert all(g == "" for g in ds.group_ids)


def test_sparse_composition():
    ds = generate(SynthSpec(n_bio=5, n_conf=5, per_cell=SPARSE_CELLS * 3,
                            dim=16, seed=1))
    assert ds.n == 60
    assert len(ds.bio_classes) == 5 and len(ds.conf_classes) == 5


def test_direction_orthogonality():
    spec = SynthSpec(n_bio=4, n_conf=5, per_cell=2, dim=32, seed=7)
    bio_dirs, conf_dirs = signal_directions(spec, np.random.default_rng(spec.seed))
    all_dirs = np.vstack([bio_dirs, conf_dirs])
    gram = all_dirs @ all_dirs.T
    np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-10


def test_errors():
    with pytest.raises(ValueError, match="too small to orthogonalize"):
        generate(SynthSpec(n_bio=5, n_conf=5, per_cell=2, dim=6))
    with pytest.raises(ValueError, match="noise_sigma"):
        generate(SynthSpec(n_bio=2, n_conf=2, per_cell=2, dim=8, noise_sigma=0.0))
    with pytest.raises(ValueError, match="strengths"):
        generate(SynthSpec(n_bio=2, n_conf=2, per_cell=2, dim=8, bio_strength=-1.0))
    with pytest.raises(ValueError, match="per_cell shape"):
        generate(SynthSpec(n_bio=2, n_conf=2, per_cell=np.ones((3, 2), dtype=int), dim=8))
    with pytest.raises(ValueError, match="at least 2 samples"):
        generate(SynthSpec(n_bio=2, n_conf=2,
                           per_cell=np.array([[1, 0], [0, 0]]), dim=8))


def test_pure_bio_signal_hits_upper_bound():
    spec = SynthSpec(n_bio=5, n_conf=5, per_cell=40, dim=32,
                     bio_strength=1.0, conf_strength=0.0,
                     noise_sigma=0.02, seed=5)
    ds = generate(spec)
    _, r_max = robustness_bounds(ds)
    r50 = _r50(ds)
    assert abs(r50 - r_max) / r_max < 0.05


def test_pure_conf_signal_hits_lower_bound():
    spec = SynthSpec(n_bio=5, n_conf=5, per_cell=40, dim=32,
                     bio_strength=0.0, conf_strength=1.0,
                     noise_sigma=0.02, seed=5)
    ds = generate(spec)
    r_min, _ = robustness_bounds(ds)
    r50 = _r50(ds)
    assert abs(r50 - r_min) / r_min < 0.05


def test_balanced_signals_near_one():
    values = []
    for seed in range(10):
        ds = generate(SynthSpec(n_bio=4, n_conf=4, per_cell=16, dim=24,
                                bio_strength=1.0, conf_strength=1.0,
                                noise_sigma=0.5, seed=seed))
        values.append(robustness_index(ds, build_neighbor_table(ds), 15).r_k)
    assert all(0.8 <= v <= 1.25 for v in values)


def test_conf_strength_monotonicity():
    medians = []
    for beta in (0.0, 0.5, 2.0):
        vals = [
            _r50(generate(SynthSpec(n_bio=5, n_conf=5, per_cell=25, dim=32,
                                    bio_strength=1.0, conf_strength=beta,
                                    noise_sigma=0.3, seed=seed)))
            for seed in range(10)
        ]
        medians.append(float(np.median(vals)))
    assert medians[0] >= medians[1] >= medians[2]


def test_write_load_round_trip(tmp_path):
    ds = generate(SynthSpec(n_bio=2, n_conf=3, per_cell=4, dim=8, seed=13))
    save_dataset(ds, tmp_path / "m.csv", tmp_path / "e.bin")
    loaded = load_dataset(tmp_path / "m.csv", tmp_path / "e.bin")
    # float32 quantization at generation makes the round trip exact
    assert np.array_equal(loaded.vectors, ds.vectors)
    assert loaded.ids == ds.ids
    assert loaded.bio_labels == ds.bio_labels
    assert loaded.conf_labels == ds.conf_labels
