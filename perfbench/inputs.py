"""Seeded benchmark inputs, written with the benchmark's own generator.

The recipe follows the toolkit's documented confounded setting (5
biological x 5 confounder classes, signal strengths 0.7 / 1.0, noise 0.15)
but does not call ``embrobust.synth``: a change to the toolkit's generator
must not change what the benchmark measures. Every file is written
deterministically from the seed, and its sha256 is returned so that two
sets of runs can show they read the same bytes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_BIO = 5
N_CONF = 5
BIO_STRENGTH = 0.7
CONF_STRENGTH = 1.0
NOISE_SIGMA = 0.15
GROUP_SIZE = 4
COORDS_RADIUS = 10.0
COORDS_SIGMA = 3.0


@dataclass(frozen=True)
class InputSpec:
    n: int
    dim: int
    fmt: str            # "binary" or "csv"
    grouped: bool       # group_id = GROUP_SIZE consecutive samples
    coords: bool        # also write a 2D coords CSV, one cluster per bio class


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _labels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-major (bio, conf) codes with equal cell sizes."""
    cells = N_BIO * N_CONF
    if n % (cells * GROUP_SIZE):
        raise ValueError(f"n={n} must be a multiple of {cells * GROUP_SIZE}")
    cell = np.repeat(np.arange(cells), n // cells)
    return cell // N_CONF, cell % N_CONF


def _embeddings(rng: np.random.Generator, bio: np.ndarray, conf: np.ndarray,
                dim: int) -> np.ndarray:
    if dim < N_BIO + N_CONF:
        raise ValueError(f"dim={dim} cannot hold {N_BIO + N_CONF} orthogonal directions")
    basis, _ = np.linalg.qr(rng.standard_normal((dim, N_BIO + N_CONF)))
    mean = BIO_STRENGTH * basis[:, bio].T + CONF_STRENGTH * basis[:, N_BIO + conf].T
    noise = rng.standard_normal((len(bio), dim)) * NOISE_SIGMA
    return (mean + noise).astype("<f4")


def write_inputs(spec: InputSpec, seed: int, out: Path) -> dict[str, Path]:
    """Write manifest, embeddings and optional coords into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    bio, conf = _labels(spec.n)
    ids = [f"x{i:05d}" for i in range(spec.n)]
    groups = ([f"g{i // GROUP_SIZE:05d}" for i in range(spec.n)] if spec.grouped
              else [""] * spec.n)

    paths = {"manifest": out / "manifest.csv"}
    with open(paths["manifest"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_id,bio_label,conf_label,group_id\n")
        for i in range(spec.n):
            fh.write(f"{ids[i]},bio{bio[i]},conf{conf[i]},{groups[i]}\n")

    vectors = _embeddings(rng, bio, conf, spec.dim)
    if spec.fmt == "binary":
        paths["embeddings"] = out / "embeddings.bin"
        with open(paths["embeddings"], "wb") as fh:
            fh.write(b"EMB1" + struct.pack("<IQQ", 1, spec.n, spec.dim))
            fh.write(vectors.tobytes())
    elif spec.fmt == "csv":
        paths["embeddings"] = out / "embeddings.csv"
        # 9 significant digits round-trip float32 exactly. Fixed width keeps
        # the file the same size for every seed: with variable-width numbers
        # the heap layout of the CSV parse, and with it the peak resident
        # set, moved in steps of one n x d matrix from seed to seed.
        np.savetxt(paths["embeddings"], vectors, fmt="%+.8e", delimiter=",")
    else:
        raise ValueError(f"unknown embeddings format {spec.fmt!r}")

    if spec.coords:
        angle = 2.0 * np.pi * bio / N_BIO
        centers = COORDS_RADIUS * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        xy = centers + COORDS_SIGMA * rng.standard_normal((spec.n, 2))
        paths["coords"] = out / "coords.csv"
        with open(paths["coords"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("sample_id,x,y\n")
            for sid, (x, y) in zip(ids, xy.tolist()):
                fh.write(f"{sid},{x:+.15e},{y:+.15e}\n")
    return paths
