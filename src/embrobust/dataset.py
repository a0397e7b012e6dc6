"""Labeled-embedding data model: loading, validation, serialization.

This module reads every input file: the manifest, the embeddings and the
2D coordinates, the two CSV tables through one reader.

A dataset is a fixed table of n samples, each carrying a d-dimensional
embedding vector, a biological label (e.g. cancer type), a confounder label
(e.g. medical center) and an optional group id (e.g. source slide). All
analysis modules consume this one immutable structure.

Embeddings are stored as little-endian float32 on disk and held as that
float32 in memory, once: a loaded binary file's vectors are a read-only
view of its bytes, and a CSV file is parsed by numpy's C parser straight
from the open file into one float32 array, with no copy of its text.
Analysis arithmetic widens them to float64 inside each operation, which
is exact, so it rounds as on a float64 copy.
"""

from __future__ import annotations

import csv
import io
import re
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

MANIFEST_HEADER = ("sample_id", "bio_label", "conf_label", "group_id")
COORDS_HEADER = ("sample_id", "x", "y")
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


def _read_table(path: str | Path, header: tuple[str, ...],
                what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(i, row)``, i from 0, for each row after ``header`` of the
    UTF-8 CSV file ``path`` (a ``what``), checking each as it is read, so
    the first defect in the file is the one reported, as a one-line
    ``DatasetError``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise DatasetError(f"{path}: empty {what}")
            if tuple(first) != header:
                raise DatasetError(f"{path}: bad header {first!r}, expected {list(header)}")
            for i, row in enumerate(reader):
                if len(row) != len(header):
                    raise DatasetError(
                        f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
                yield i, row
    except OSError as exc:
        raise DatasetError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: {what} is not UTF-8 text") from None
    except csv.Error as exc:  # e.g. a field over csv's 128 KiB limit
        raise DatasetError(f"{path}: {exc}") from None


def _read_manifest(manifest_path: Path) -> list[list[str]]:
    rows = []
    for i, row in _read_table(manifest_path, MANIFEST_HEADER, "manifest"):
        if not row[0]:
            raise DatasetError(f"{manifest_path}: row {i} has an empty sample_id")
        rows.append(row)
    return rows


# within it, squared distances and the probes' sums of n squared deviations,
# at most n·(2e150)², stay finite while an n×n matrix fits in memory
_COORD_BOUND = 1e150


def _coordinate(text: str) -> float:
    """``float(text)`` under the embeddings CSV's value grammar: digit
    separators (``1_0``) and non-ASCII digits (``１``), which ``float``
    takes, raise ``ValueError``."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return float(text)


def load_coords(path: str | Path, ds: EmbeddingDataset) -> np.ndarray:
    """Read a ``sample_id,x,y`` CSV holding one point per id of ``ds``, in
    any order, each coordinate finite and at most ``_COORD_BOUND`` in
    magnitude; returns the (n, 2) float64 points in ``ds.ids`` order."""
    known = set(ds.ids)
    points: dict[str, tuple[float, float]] = {}
    for i, (sid, *xy_text) in _read_table(path, COORDS_HEADER, "coords file"):
        where = f"{path}: row {i}"
        try:
            xy = tuple(_coordinate(text) for text in xy_text)
        except ValueError:
            raise DatasetError(f"{where}: non-numeric coordinate in {xy_text!r}") from None
        if not (abs(xy[0]) <= _COORD_BOUND and abs(xy[1]) <= _COORD_BOUND):
            raise DatasetError(f"{where}: non-finite coordinate, or one over "
                               f"{_COORD_BOUND:g} in magnitude, in {xy_text!r}")
        if sid in points:
            raise DatasetError(f"{where}: duplicate sample id {sid!r}")
        if sid not in known:
            raise DatasetError(f"{where}: sample id {sid!r} is not in the manifest")
        points[sid] = xy
    missing = [i for i in ds.ids if i not in points]
    if missing:
        raise DatasetError(f"{path}: missing coords for {len(missing)} samples "
                           f"(first: {missing[0]!r})")
    return np.array([points[i] for i in ds.ids], dtype=np.float64)


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


_COLUMNS_CHANGED = re.compile(r"the number of columns changed from (\d+) to (\d+) at row (\d+)")
_NOT_A_FLOAT = re.compile(r"could not convert string (.*) to float32 at row (\d+), column (\d+)",
                          re.S)


def _field_repr(text: str) -> str:
    """loadtxt's repr of a field, which it cuts at 100 characters, closed:
    a cut one ends at its last whole character or escape, and says so."""
    q = text[:1]
    whole = re.match(rf"{q}(?:\\(?:x..|u....|U........|[^xuU])|[^\\{q}])*", text, re.S)[0]
    return text if text == whole + q else f"starting {whole}{q}"


def _csv_error(exc: ValueError) -> str:
    """loadtxt's message with its row (and column) counted from 0, as every
    other embedding-row message counts them; loadtxt counts a column-count
    error's row from 1 and a conversion error's column from 1."""
    msg = str(exc)
    if m := _COLUMNS_CHANGED.match(msg):
        expected, got, row = map(int, m.groups())
        return f"row {row - 1} has {got} values, expected {expected}"
    if m := _NOT_A_FLOAT.match(msg):
        return (f"row {m[2]}, column {int(m[3]) - 1}: could not convert string "
                f"{_field_repr(m[1])} to float32")
    return msg


def _read_embeddings_csv(text: TextIO, path: Path) -> np.ndarray:
    # each field goes to a double, then float32: beyond float32's range that
    # is inf, with no warning, and from_arrays reports it
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as no rows, not as a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            vectors = np.loadtxt(text, delimiter=",", dtype=np.float32, ndmin=2, comments=None)
    except UnicodeDecodeError:  # a ValueError too, so caught first
        raise DatasetError(f"{path}: not an EMB1 binary file and not UTF-8 CSV") from None
    except ValueError as exc:
        raise DatasetError(f"{path}: {_csv_error(exc)}") from None
    if vectors.shape[0] == 0:
        raise DatasetError(f"{path}: no embedding rows")
    return vectors


def load_embeddings(embeddings_path: str | Path) -> np.ndarray:
    """Read an embedding matrix from binary (magic ``EMB1``) or CSV format.

    The file is opened once and its first four bytes pick the format. A
    binary file is read into one allocation and its vectors are a
    read-only view of those bytes. A CSV file is parsed by ``np.loadtxt``
    straight from the open file into one float32 array; each value is
    rounded to the nearest double and that to float32, as ``float()`` and
    a cast would round it.

    CSV grammar: UTF-8 text, one sample per row, every row with the same
    number of comma-separated values. A row ends at LF, CRLF or CR; empty
    lines are skipped. A value is a decimal float in ASCII digits, with an
    optional sign and exponent, or ``nan``, ``inf`` or ``infinity`` in any
    case, with optional surrounding whitespace (``str.isspace``). There are
    no comments, quotes or header. An empty value (as a trailing comma
    makes), a whitespace-only line, ``#``, quotes, ``1_0`` and non-ASCII
    digits are errors. Error messages count rows and columns from 0, rows
    over the non-empty lines, as the manifest's rows bind to them.
    """
    path = Path(embeddings_path)
    try:
        # unbuffered: after the peek a read of the whole file is one
        # allocation, not the buffer's first block joined to the rest
        with open(path, "rb", buffering=0) as fh:
            magic = fh.read(4)
            fh.seek(0)
            if magic == BINARY_MAGIC:
                return _read_embeddings_binary(fh.read(), path)
            # universal newlines: a row ends at LF, CRLF or CR
            with io.TextIOWrapper(fh, encoding="utf-8") as text:
                return _read_embeddings_csv(text, path)
    except OSError as exc:
        raise DatasetError(f"cannot read embeddings {path}: {exc}") from exc


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
