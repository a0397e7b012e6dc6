"""Labeled-embedding data model: loading, validation, serialization.

A dataset is a fixed table of n samples, each carrying a d-dimensional
embedding vector, a biological label (e.g. cancer type), a confounder label
(e.g. medical center) and an optional group id (e.g. source slide). All
analysis modules consume this one immutable structure.

Embeddings are stored as little-endian float32 on disk and held as that
float32 in memory, once: a loaded binary file's vectors are a read-only
view of its bytes. Analysis arithmetic widens them to float64 inside each
operation, which is exact, so it rounds as on a float64 copy.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

MANIFEST_HEADER = ("sample_id", "bio_label", "conf_label", "group_id")
BINARY_MAGIC = b"EMB1"
BINARY_VERSION = 1


class DatasetError(ValueError):
    """Raised when dataset files or constructed contents violate the format."""


@dataclass(frozen=True, eq=False)
class EmbeddingDataset:
    """Immutable collection of labeled embedding vectors.

    Attributes
    ----------
    ids : tuple of str
        Unique sample identifiers, in load order.
    vectors : ndarray of shape (n, dim)
        Embedding matrix, float32 when built from float32 (as every loaded
        or synthesized dataset is) and float64 otherwise; marked read-only.
    bio_labels, conf_labels, group_ids : tuple of str
        Per-sample labels, aligned with ``ids``. Empty group id = ungrouped.
    bio_classes, conf_classes : tuple of str
        Sorted distinct label values.
    bio_codes, conf_codes : ndarray of shape (n,)
        Integer index of each sample's label within the class tuples.
    """

    ids: tuple[str, ...]
    vectors: np.ndarray
    bio_labels: tuple[str, ...]
    conf_labels: tuple[str, ...]
    group_ids: tuple[str, ...]
    bio_classes: tuple[str, ...]
    conf_classes: tuple[str, ...]
    bio_codes: np.ndarray
    conf_codes: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @classmethod
    def from_arrays(
        cls,
        ids: Sequence[str],
        vectors: np.ndarray,
        bio_labels: Sequence[str],
        conf_labels: Sequence[str],
        group_ids: Sequence[str] | None = None,
        require_nonzero: bool = True,
    ) -> "EmbeddingDataset":
        """Validate raw columns and build a dataset.

        ``require_nonzero`` may be disabled for vectors consumed only under
        Euclidean distance (e.g. 2D projection coordinates), where zero rows
        are harmless.
        """
        vectors = np.asarray(vectors)
        vectors = np.ascontiguousarray(
            vectors, dtype=np.float32 if vectors.dtype == np.float32 else np.float64)
        if vectors.ndim != 2:
            raise DatasetError(f"embedding matrix must be 2-D, got shape {vectors.shape}")
        n = vectors.shape[0]
        if n < 2:
            raise DatasetError(f"dataset needs at least 2 samples, got {n}")
        ids = tuple(str(s) for s in ids)
        bio_labels = tuple(str(s) for s in bio_labels)
        conf_labels = tuple(str(s) for s in conf_labels)
        if group_ids is None:
            group_ids = ("",) * n
        else:
            group_ids = tuple(str(s) for s in group_ids)
        for name, col in (("ids", ids), ("bio_labels", bio_labels),
                          ("conf_labels", conf_labels), ("group_ids", group_ids)):
            if len(col) != n:
                raise DatasetError(f"{name} has {len(col)} entries, expected {n}")

        seen: dict[str, int] = {}
        for i, sid in enumerate(ids):
            if sid in seen:
                raise DatasetError(f"duplicate sample id {sid!r} at rows {seen[sid]} and {i}")
            seen[sid] = i

        finite = np.isfinite(vectors)
        if not finite.all():
            bad = int(np.nonzero(~finite.all(axis=1))[0][0])
            raise DatasetError(f"non-finite value in embedding row {bad}")
        if require_nonzero:
            nonzero = (vectors != 0.0).any(axis=1)
            if not nonzero.all():
                bad = int(np.nonzero(~nonzero)[0][0])
                raise DatasetError(f"all-zero embedding vector at row {bad}")

        bio_classes = tuple(sorted(set(bio_labels)))
        conf_classes = tuple(sorted(set(conf_labels)))
        bio_index = {lab: j for j, lab in enumerate(bio_classes)}
        conf_index = {lab: j for j, lab in enumerate(conf_classes)}
        bio_codes = np.array([bio_index[lab] for lab in bio_labels], dtype=np.intp)
        conf_codes = np.array([conf_index[lab] for lab in conf_labels], dtype=np.intp)

        vectors.flags.writeable = False
        bio_codes.flags.writeable = False
        conf_codes.flags.writeable = False
        return cls(ids, vectors, bio_labels, conf_labels, group_ids,
                   bio_classes, conf_classes, bio_codes, conf_codes)

    def subset(self, indices: np.ndarray) -> "EmbeddingDataset":
        """New dataset keeping ``indices`` rows, classes recomputed."""
        indices = np.asarray(indices)
        return EmbeddingDataset.from_arrays(
            [self.ids[i] for i in indices],
            self.vectors[indices],
            [self.bio_labels[i] for i in indices],
            [self.conf_labels[i] for i in indices],
            [self.group_ids[i] for i in indices])


@dataclass(frozen=True)
class ClassCountMatrix:
    """Sample counts per (bio class, conf class) cell."""

    bio_classes: tuple[str, ...]
    conf_classes: tuple[str, ...]
    counts: np.ndarray  # (len(bio_classes), len(conf_classes)) int64

    def total(self) -> int:
        return int(self.counts.sum())

    def populated_cells(self) -> list[tuple[str, str]]:
        rows, cols = np.nonzero(self.counts)
        return [(self.bio_classes[b], self.conf_classes[c]) for b, c in zip(rows, cols)]


def class_count_matrix(ds: EmbeddingDataset) -> ClassCountMatrix:
    counts = np.zeros((len(ds.bio_classes), len(ds.conf_classes)), dtype=np.int64)
    np.add.at(counts, (ds.bio_codes, ds.conf_codes), 1)
    counts.flags.writeable = False
    return ClassCountMatrix(ds.bio_classes, ds.conf_classes, counts)


def chance_levels(ds: EmbeddingDataset) -> tuple[float, float]:
    """Probability that a uniformly random other sample shares the label.

    Returns ``(p_bio, p_conf)`` where
    ``p = sum_c m_c (m_c - 1) / (n (n - 1))`` over class sizes ``m_c``.
    """
    n = ds.n
    p_bio = sum(m * (m - 1) for m in np.bincount(ds.bio_codes)) / (n * (n - 1))
    p_conf = sum(m * (m - 1) for m in np.bincount(ds.conf_codes)) / (n * (n - 1))
    return float(p_bio), float(p_conf)


def _read_manifest(manifest_path: Path) -> list[tuple[str, str, str, str]]:
    try:
        with open(manifest_path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"{manifest_path}: empty manifest") from None
            if tuple(header) != MANIFEST_HEADER:
                raise DatasetError(
                    f"{manifest_path}: bad header {header!r}, expected {list(MANIFEST_HEADER)}")
            rows = []
            for i, row in enumerate(reader):
                if len(row) != 4:
                    raise DatasetError(f"{manifest_path}: row {i} has {len(row)} fields, expected 4")
                if not row[0]:
                    raise DatasetError(f"{manifest_path}: row {i} has an empty sample_id")
                rows.append((row[0], row[1], row[2], row[3]))
    except OSError as exc:
        raise DatasetError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except UnicodeDecodeError:
        raise DatasetError(f"{manifest_path}: manifest is not UTF-8 text") from None
    except csv.Error as exc:  # e.g. a field over csv's 128 KiB limit
        raise DatasetError(f"{manifest_path}: {exc}") from None
    return rows


def _read_embeddings_binary(data: bytes, path: Path) -> np.ndarray:
    if len(data) < 24:
        raise DatasetError(f"{path}: truncated binary header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != BINARY_VERSION:
        raise DatasetError(f"{path}: unsupported version {version}")
    n, d = struct.unpack_from("<QQ", data, 8)
    if n == 0 or d == 0:
        raise DatasetError(f"{path}: empty {n}x{d} embedding matrix")
    expected = 24 + 4 * n * d
    if len(data) != expected:
        raise DatasetError(f"{path}: size {len(data)} bytes, expected {expected} for {n}x{d}")
    # a view of the file's bytes, read-only, not a copy
    return np.frombuffer(data, dtype="<f4", count=n * d, offset=24).reshape(n, d)


def _read_embeddings_csv(text: str, path: Path) -> np.ndarray:
    rows: list[np.ndarray] = []
    dim: int | None = None
    # a value beyond float32's range casts to inf, which from_arrays reports
    with np.errstate(over="ignore"):
        for i, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            parts = line.split(",")
            if dim is None:
                dim = len(parts)
            elif len(parts) != dim:
                raise DatasetError(
                    f"{path}: row {i} has {len(parts)} values, expected {dim}")
            try:
                values = np.array([float(p) for p in parts], dtype=np.float64)
            except ValueError as exc:
                raise DatasetError(f"{path}: row {i}: {exc}") from exc
            # float32 is the canonical on-disk precision for both formats
            rows.append(values.astype(np.float32))
    if not rows:
        raise DatasetError(f"{path}: no embedding rows")
    return np.array(rows)


def load_embeddings(embeddings_path: str | Path) -> np.ndarray:
    """Read an embedding matrix from binary (magic ``EMB1``) or CSV format."""
    path = Path(embeddings_path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read embeddings {path}: {exc}") from exc
    if data[:4] == BINARY_MAGIC:
        return _read_embeddings_binary(data, path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: not an EMB1 binary file and not UTF-8 CSV") from None
    return _read_embeddings_csv(text, path)


def load_dataset(manifest_path: str | Path, embeddings_path: str | Path) -> EmbeddingDataset:
    """Load and validate a dataset from a manifest CSV plus embedding file.

    Row i of the embedding file binds to manifest row i.
    """
    rows = _read_manifest(Path(manifest_path))
    vectors = load_embeddings(embeddings_path)
    if len(rows) != vectors.shape[0]:
        raise DatasetError(
            f"row count mismatch ({len(rows)} vs {vectors.shape[0]})")
    return EmbeddingDataset.from_arrays(
        [r[0] for r in rows], vectors,
        [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows])


def write_manifest(ds: EmbeddingDataset, manifest_path: str | Path) -> None:
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for i in range(ds.n):
            writer.writerow([ds.ids[i], ds.bio_labels[i], ds.conf_labels[i], ds.group_ids[i]])


def write_embeddings_binary(vectors: np.ndarray, embeddings_path: str | Path) -> None:
    v32 = np.ascontiguousarray(vectors, dtype="<f4")
    n, d = v32.shape
    with open(embeddings_path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<I", BINARY_VERSION))
        fh.write(struct.pack("<QQ", n, d))
        fh.write(v32.tobytes())


def write_embeddings_csv(vectors: np.ndarray, embeddings_path: str | Path) -> None:
    v32 = np.asarray(vectors, dtype=np.float32)
    with open(embeddings_path, "w", encoding="utf-8", newline="\n") as fh:
        for row in v32:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def save_dataset(ds: EmbeddingDataset, manifest_path: str | Path,
                 embeddings_path: str | Path, fmt: str = "binary") -> None:
    """Write manifest + embeddings; ``fmt`` is ``binary`` or ``csv``."""
    write_manifest(ds, manifest_path)
    if fmt == "binary":
        write_embeddings_binary(ds.vectors, embeddings_path)
    elif fmt == "csv":
        write_embeddings_csv(ds.vectors, embeddings_path)
    else:
        raise ValueError(f"unknown embeddings format {fmt!r}")
