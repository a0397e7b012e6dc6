"""Fuzzed input boundary: any value of a numeric flag parses or exits 2 with
one line, the embedding reader raises nothing but DatasetError, and a
malformed manifest or ``--coords`` file exits 2 with one line."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import shutil
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from embrobust import EmbeddingDataset, cli
from embrobust.cli import build_parser, main
from embrobust.dataset import (BINARY_MAGIC, MANIFEST_HEADER, DatasetError, load_embeddings,
                               save_dataset)


def _numeric_flags() -> list[tuple[str, str]]:
    """(subcommand, flag) for every flag whose value is converted by a ``type``."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, parser in sub.choices.items()
            for action in parser._actions if action.type is not None]


NUMERIC_FLAGS = _numeric_flags()

FLAG_VALUES = st.one_of(
    st.text(), st.integers().map(str), st.floats().map(str),
    st.lists(st.integers(-2, 10 ** 6), max_size=4).map(lambda ks: ",".join(map(str, ks))))


def test_every_numeric_flag_is_fuzzed():
    assert len(NUMERIC_FLAGS) == 32  # the --seed of all seven subcommands among them
    assert ("relation", "--k-grid") in NUMERIC_FLAGS


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "out"


def _sentinel(*args, **kwargs):
    raise DatasetError("sentinel: the run got past its flags")


@pytest.mark.parametrize("sub, flag", NUMERIC_FLAGS, ids=[f"{s}{f}" for s, f in NUMERIC_FLAGS])
@given(value=FLAG_VALUES)
@example(value="9" * 400)
@example(value="nan")
@example(value="inf")
@example(value="3.5e38")
def test_flag_value_parses_or_exits_2_with_one_line(out_dir, sub, flag, value):
    """With loading and generation replaced by a sentinel error, every value
    either fails its flag's rule or reaches the sentinel: exit 2, one stderr
    line, no out-dir."""
    data = [] if sub == "synth" else ["--manifest", "m.csv", "--embeddings", "e.bin"]
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(io.StringIO()) as err:
        mp.setattr(cli, "load_dataset", _sentinel)
        mp.setattr(cli, "generate", _sentinel)
        rc = main([sub, *data, flag, value, "--out-dir", str(out_dir)])
    text = err.getvalue()
    assert rc == 2
    assert text.count("\n") == 1 and text.endswith("\n")
    assert (text.startswith(f"error: argument {flag}: ") or "sentinel" in text
            or "--tsne-iters must cover --tsne-early-iters" in text), text
    assert not out_dir.exists()


@pytest.fixture(scope="module")
def emb_path(tmp_path_factory):
    return tmp_path_factory.mktemp("emb") / "embeddings"


def _load_raises_only_dataset_error(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        load_embeddings(path)
    except DatasetError:
        pass


@given(data=st.binary(max_size=256))
@example(data=BINARY_MAGIC)
@example(data=BINARY_MAGIC + b"\x01\x00\x00\x00")
def test_arbitrary_bytes(emb_path, data):
    _load_raises_only_dataset_error(emb_path, data)


SIZES = st.one_of(st.integers(0, 6), st.integers(0, 2 ** 64 - 1))


@st.composite
def emb1_files(draw) -> bytes:
    """An EMB1 header with any version, n and d, and a payload that is the
    size the header declares, when that is small, or any other size."""
    version = draw(st.one_of(st.just(1), st.integers(0, 2 ** 32 - 1)))
    n, d = draw(SIZES), draw(SIZES)
    lengths = st.integers(0, 512)
    if 4 * n * d <= 4096:
        lengths = st.one_of(st.just(4 * n * d), lengths)
    length = draw(lengths)
    payload = draw(st.binary(min_size=length, max_size=length))
    return BINARY_MAGIC + struct.pack("<IQQ", version, n, d) + payload


@given(data=emb1_files())
@example(data=BINARY_MAGIC + struct.pack("<IQQ", 1, 0, 2 ** 64 - 1))
@example(data=BINARY_MAGIC + struct.pack("<IQQ", 1, 2 ** 62, 4))
@example(data=BINARY_MAGIC + struct.pack("<IQQI", 1, 1, 1, 0x7F810000))  # signalling NaN
def test_emb1_headers(emb_path, data):
    _load_raises_only_dataset_error(emb_path, data)


CSV_CELLS = st.one_of(st.floats().map(str), st.integers().map(str),
                      st.text(alphabet="0123456789.-+eEinfa _", max_size=8))
CSV_TEXT = st.lists(st.lists(CSV_CELLS, max_size=4).map(",".join), max_size=6).map("\n".join)


def _float_reference(text: str) -> np.ndarray | None:
    """The per-line parser the CSV reader replaced: ``float()`` on each
    comma-separated value, rounded to float32, whitespace-only lines
    skipped; None where it rejects the text."""
    rows = []
    for line in text.splitlines():
        if line.strip():
            try:
                rows.append([float(p) for p in line.split(",")])
            except ValueError:
                return None
    if not rows or len({len(r) for r in rows}) != 1:
        return None
    with np.errstate(over="ignore"):
        return np.array(rows).astype(np.float32)


@given(text=CSV_TEXT)
@example(text="1.0," + "9" * 400 + "\n2.0,1.0")
@example(text="nan,1.0\n2.0,inf")
@example(text="1.0,2.0\n3.5e38,1.0")
def test_csv_text(emb_path, text):
    """Any text loads or raises DatasetError; what loads, the float()
    reference accepts too, with the same bits. (Over this alphabet: the
    reference also ends a line at the separators str.splitlines knows, such
    as FF and RS, which the CSV reader takes for whitespace.)"""
    emb_path.write_bytes(text.encode("utf-8"))
    try:
        got = load_embeddings(emb_path)
    except DatasetError:
        return
    want = _float_reference(text)
    assert want is not None
    assert got.tobytes() == want.tobytes()


VALUES = st.one_of(
    st.floats().map(repr),
    st.floats(width=32).map(lambda x: format(x, ".9g")),
    st.tuples(st.floats(allow_nan=False), st.integers(0, 30)).map(
        lambda t: format(t[0], f".{t[1]}e")),
    st.integers(-10 ** 40, 10 ** 40).map(str),
    st.sampled_from(["NaN", "-nan", "+Inf", "-infinity", "1e999", "-1e-999", "3.5e38",
                     "1.", ".5", "-0", "1E+05"]))
PADDING = st.sampled_from(["", " ", "\t", " \t ", "\xa0", "\u3000"])


@st.composite
def csv_files(draw) -> str:
    """Text in the CSV grammar: rows of one width, values with any float
    spelling and padding, any line ending, empty lines anywhere."""
    width = draw(st.integers(1, 5))
    cell = st.tuples(PADDING, VALUES, PADDING).map("".join)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width).map(",".join),
                         min_size=1, max_size=6))
    lines = [line for row in rows for line in [""] * draw(st.integers(0, 1)) + [row]]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@given(text=csv_files())
@example(text="3.4028235677973366e38,1.401298464324817e-45\n-1.1754943508222875e-38,1")
def test_csv_values_match_float_reference(emb_path, text):
    """numpy's parser rounds each value to float32 as float() then a cast
    did: the same bits, for every spelling of a float."""
    emb_path.write_bytes(text.encode("utf-8"))
    want = _float_reference(text)
    assert want is not None
    assert load_embeddings(emb_path).tobytes() == want.tobytes()


# manifests and --coords files: every malformed one exits 2 with one line

IDS = [f"s{i}" for i in range(8)]
FIELD_LIMIT = 131072  # csv's default field_size_limit
HUGE_FIELD = st.integers(FIELD_LIMIT + 1, FIELD_LIMIT + 64).map(lambda k: "x" * k)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding an 8 x 3 EMB1 file, which the fuzzed manifests are
    read against, and a valid manifest for it, which the fuzzed coords are
    read against; each case writes its file there."""
    root = tmp_path_factory.mktemp("inputs")
    vectors = np.random.default_rng(0).normal(size=(len(IDS), 3))
    ds = EmbeddingDataset.from_arrays(IDS, vectors, ["a", "b"] * 4, ["c", "c", "d", "d"] * 2)
    save_dataset(ds, root / "manifest.csv", root / "embeddings.bin")
    return root


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _exits_2_with_one_line(argv: list[str], out_dir) -> None:
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main([*argv, "--out-dir", str(out_dir)])
    text, created = err.getvalue(), out_dir.exists()
    shutil.rmtree(out_dir, ignore_errors=True)  # so one failure does not fail the next case
    assert rc == 2, text
    assert text.startswith("input error: ") and text.count("\n") == 1, text
    assert not created


LABELS = st.text(max_size=6)


@st.composite
def bad_manifests(draw) -> str:
    """Manifest text for the 8-row embedding file with one defect: a bad
    header, an empty or repeated sample id, too few or too many rows, a row
    with other than four fields, or a field over csv's limit."""
    rows = [[sid, draw(LABELS), draw(LABELS), draw(LABELS)] for sid in IDS]
    header = list(MANIFEST_HEADER)
    i = draw(st.integers(0, len(rows) - 1))
    defect = draw(st.sampled_from(
        ["header", "empty_id", "duplicate_id", "row_count", "field_count", "huge_field"]))
    if defect == "header":
        header = draw(st.lists(st.text(max_size=12), max_size=5)
                      .filter(lambda h: tuple(h) != MANIFEST_HEADER))
    elif defect == "empty_id":
        rows[i][0] = ""
    elif defect == "duplicate_id":
        rows[i][0] = rows[(i + 1) % len(rows)][0]
    elif defect == "row_count":
        keep = draw(st.integers(0, 2 * len(rows)).filter(lambda m: m != len(rows)))
        rows = (rows + [[f"extra{j}", "a", "c", ""] for j in range(len(rows))])[:keep]
    elif defect == "field_count":
        rows[i] = rows[i][:1] + draw(st.lists(LABELS, max_size=6).filter(lambda f: len(f) != 3))
    else:
        rows[i][draw(st.integers(0, 3))] = draw(HUGE_FIELD)
    return _csv_text([header, *rows])


@given(text=bad_manifests())
@example(text="")
@example(text="﻿" + ",".join(MANIFEST_HEADER) + "\n")
def test_manifest_defects_exit_2_with_one_line(files, text):
    manifest = files / "fuzzed.csv"
    manifest.write_text(text, encoding="utf-8")
    _exits_2_with_one_line(["curves", "--manifest", str(manifest),
                            "--embeddings", str(files / "embeddings.bin")], files / "out")


def _not_a_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


COORD = st.floats(-1e6, 1e6).map(repr)
NON_NUMERIC = st.text(max_size=8).filter(_not_a_float)
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "1e999", "-2e400"])


@st.composite
def bad_coords(draw) -> str:
    """A ``sample_id,x,y`` file for the 8-sample manifest with one defect: a
    bad header, a missing, repeated or unknown id, a non-numeric or
    non-finite coordinate, a row with other than three fields, or a field
    over csv's limit."""
    rows = [[sid, draw(COORD), draw(COORD)] for sid in IDS]
    header = ["sample_id", "x", "y"]
    i = draw(st.integers(0, len(rows) - 1))
    defect = draw(st.sampled_from(
        ["header", "missing_id", "duplicate_id", "unknown_id", "non_numeric", "non_finite",
         "field_count", "huge_field"]))
    if defect == "header":
        header = draw(st.lists(st.text(max_size=12), max_size=4)
                      .filter(lambda h: h != ["sample_id", "x", "y"]))
    elif defect == "missing_id":
        rows = draw(st.lists(st.sampled_from(rows), unique_by=lambda r: r[0],
                             max_size=len(rows) - 1))
    elif defect == "duplicate_id":
        rows.insert(draw(st.integers(0, len(rows))), [rows[i][0], draw(COORD), draw(COORD)])
    elif defect == "unknown_id":
        rows[i][0] = draw(st.text(max_size=8).filter(lambda s: s not in IDS))
    elif defect in ("non_numeric", "non_finite"):
        rows[i][draw(st.integers(1, 2))] = draw(NON_NUMERIC if defect == "non_numeric"
                                                 else NON_FINITE)
    elif defect == "field_count":
        rows[i] = rows[i][:1] + draw(st.lists(COORD, max_size=5).filter(lambda f: len(f) != 2))
    else:
        rows[i][draw(st.integers(0, 2))] = draw(HUGE_FIELD)
    return _csv_text([header, *rows])


@given(text=bad_coords())
@example(text="")
@example(text="sample_id,x,y\n")
def test_coords_defects_exit_2_with_one_line(files, text):
    coords = files / "coords.csv"
    coords.write_text(text, encoding="utf-8")
    _exits_2_with_one_line(["eval", "--manifest", str(files / "manifest.csv"),
                            "--embeddings", str(files / "embeddings.bin"),
                            "--coords", str(coords)], files / "out")
