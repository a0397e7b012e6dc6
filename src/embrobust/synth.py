"""Synthetic embeddings with independently tunable biological and confounder signal.

Each sample vector is alpha * mu_bio(b) + beta * mu_conf(c) + noise, with the
direction sets drawn once from the seed and orthogonalized against each
other. Because the two signal families live in orthogonal subspaces, the
expected neighbor statistics are analyzable in closed form, which is what
makes this generator usable as a ground-truth oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import EmbeddingDataset


@dataclass
class SynthSpec:
    """Recipe for one synthetic dataset.

    ``per_cell`` is either a single int (every (bio, conf) cell gets that
    many samples) or an (n_bio, n_conf) array of counts; zero cells are
    allowed to mimic sparse label compositions.
    """

    n_bio: int
    n_conf: int
    per_cell: int | np.ndarray | list
    dim: int
    bio_strength: float = 1.0
    conf_strength: float = 1.0
    noise_sigma: float = 0.1
    seed: int = 0

    def cell_counts(self) -> np.ndarray:
        if np.isscalar(self.per_cell):
            counts = np.full((self.n_bio, self.n_conf), int(self.per_cell), dtype=np.int64)
        else:
            counts = np.asarray(self.per_cell, dtype=np.int64)
            if counts.shape != (self.n_bio, self.n_conf):
                raise ValueError(
                    f"per_cell shape {counts.shape} != ({self.n_bio}, {self.n_conf})")
        if (counts < 0).any():
            raise ValueError("negative cell count")
        return counts


def signal_directions(spec: SynthSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw the unit direction sets, orthogonalized jointly via QR."""
    n_dirs = spec.n_bio + spec.n_conf
    if spec.dim < n_dirs:
        raise ValueError(
            f"dim={spec.dim} too small to orthogonalize {n_dirs} signal directions")
    basis, _ = np.linalg.qr(rng.normal(size=(spec.dim, n_dirs)))
    return basis[:, : spec.n_bio].T, basis[:, spec.n_bio :].T


def generate(spec: SynthSpec) -> EmbeddingDataset:
    """Deterministically generate the dataset described by ``spec``.

    Vectors are quantized to float32 at generation time so that writing the
    dataset to disk and loading it back reproduces it bit-exactly.
    """
    if spec.dim < 2:
        raise ValueError(f"dim must be >= 2, got {spec.dim}")
    # written so that NaN fails too
    if not (math.isfinite(spec.noise_sigma) and spec.noise_sigma > 0):
        raise ValueError(f"noise_sigma must be a finite number > 0, got {spec.noise_sigma}")
    for name in ("bio_strength", "conf_strength"):
        value = getattr(spec, name)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"signal strengths must be finite and >= 0, got {name}={value}")
    counts = spec.cell_counts()
    if counts.sum() < 2:
        raise ValueError("need at least 2 samples in total")

    rng = np.random.default_rng(spec.seed)
    bio_dirs, conf_dirs = signal_directions(spec, rng)

    bio_names = [f"bio{b:02d}" for b in range(spec.n_bio)]
    conf_names = [f"conf{c:02d}" for c in range(spec.n_conf)]

    ids: list[str] = []
    bio_labels: list[str] = []
    conf_labels: list[str] = []
    blocks: list[np.ndarray] = []
    idx = 0
    for b in range(spec.n_bio):
        for c in range(spec.n_conf):
            m = int(counts[b, c])
            if m == 0:
                continue
            noise = rng.normal(scale=spec.noise_sigma, size=(m, spec.dim))
            mean = spec.bio_strength * bio_dirs[b] + spec.conf_strength * conf_dirs[c]
            blocks.append(mean[None, :] + noise)
            for _ in range(m):
                ids.append(f"s{idx:05d}")
                bio_labels.append(bio_names[b])
                conf_labels.append(conf_names[c])
                idx += 1

    vectors = np.vstack(blocks).astype(np.float32)
    return EmbeddingDataset.from_arrays(ids, vectors, bio_labels, conf_labels)
