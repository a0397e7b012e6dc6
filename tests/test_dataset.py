"""Dataset loading, validation, serialization and composition statistics."""

from __future__ import annotations

import ast
import struct
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embrobust import (DatasetError, EmbeddingDataset, chance_levels,
                       class_count_matrix, load_dataset, save_dataset)
from embrobust.cli import main
from embrobust.dataset import (BINARY_MAGIC, _field_repr, load_embeddings,
                               write_embeddings_binary, write_embeddings_csv, write_manifest)

from conftest import SPARSE_CELLS, make_random_dataset, make_synth


def _write_files(tmp_path, manifest_rows, embedding_lines):
    man = tmp_path / "manifest.csv"
    emb = tmp_path / "emb.csv"
    man.write_text("sample_id,bio_label,conf_label,group_id\n"
                   + "\n".join(manifest_rows) + "\n")
    emb.write_text("\n".join(embedding_lines) + "\n")
    return man, emb


def test_basic_load(tmp_path):
    man, emb = _write_files(
        tmp_path,
        ["a,T1,C1,", "b,T1,C2,w1", "c,T2,C1,w1", "d,T2,C2,"],
        ["1,0,0", "0,1,0", "0,0,1", "1,1,1"])
    ds = load_dataset(man, emb)
    assert ds.n == 4
    assert ds.dim == 3
    assert ds.bio_classes == ("T1", "T2")
    assert ds.conf_classes == ("C1", "C2")
    assert ds.ids == ("a", "b", "c", "d")
    assert ds.group_ids == ("", "w1", "w1", "")
    assert ds.bio_labels[1] == "T1"
    np.testing.assert_array_equal(ds.vectors[3], [1.0, 1.0, 1.0])


def test_row_count_mismatch(tmp_path):
    man, emb = _write_files(
        tmp_path,
        [f"s{i},T,C," for i in range(5)],
        ["1,0", "0,1", "1,1", "2,2"])
    with pytest.raises(DatasetError, match=r"row count mismatch \(5 vs 4\)"):
        load_dataset(man, emb)


def test_dimension_mismatch_row_reported(tmp_path):
    man, emb = _write_files(
        tmp_path, ["a,T,C,", "b,T,C,", "c,T,C,"], ["1,0", "0,1", "1,1,1"])
    with pytest.raises(DatasetError, match="row 2"):
        load_dataset(man, emb)


def test_duplicate_id(tmp_path):
    man, emb = _write_files(tmp_path, ["a,T,C,", "a,T,C,"], ["1,0", "0,1"])
    with pytest.raises(DatasetError, match="duplicate sample id"):
        load_dataset(man, emb)


def test_non_finite_and_zero_vector(tmp_path):
    man, emb = _write_files(tmp_path, ["a,T,C,", "b,T,C,"], ["1,0", "nan,1"])
    with pytest.raises(DatasetError, match="non-finite value in embedding row 1"):
        load_dataset(man, emb)
    man, emb = _write_files(tmp_path, ["a,T,C,", "b,T,C,"], ["0,0", "1,1"])
    with pytest.raises(DatasetError, match="all-zero embedding vector at row 0"):
        load_dataset(man, emb)


def test_csv_value_beyond_float32_is_non_finite(tmp_path):
    """3.5e38 casts to float32 inf without a numpy overflow warning (which this
    suite turns into an error); the finite check alone reports it."""
    man, emb = _write_files(tmp_path, ["a,T,C,", "b,T,C,"], ["1,0", "3.5e38,1"])
    with pytest.raises(DatasetError, match="non-finite value in embedding row 1"):
        load_dataset(man, emb)


def test_manifest_that_is_not_utf8_names_the_file(tmp_path):
    man, emb = _write_files(tmp_path, ["a,T,C,", "b,T,C,"], ["1,0", "0,1"])
    man.write_bytes(man.read_bytes().replace(b"b,T", b"\xff,T"))
    with pytest.raises(DatasetError, match="manifest is not UTF-8 text") as err:
        load_dataset(man, emb)
    assert str(err.value).startswith(f"{man}: ")


def test_bad_header(tmp_path):
    man = tmp_path / "manifest.csv"
    man.write_text("id,bio,conf,group\na,T,C,\nb,T,C,\n")
    emb = tmp_path / "emb.csv"
    emb.write_text("1,0\n0,1\n")
    with pytest.raises(DatasetError, match="bad header"):
        load_dataset(man, emb)


def test_crlf_manifest_accepted(tmp_path):
    man = tmp_path / "manifest.csv"
    man.write_bytes(b"sample_id,bio_label,conf_label,group_id\r\na,T,C,\r\nb,U,C,\r\n")
    emb = tmp_path / "emb.csv"
    emb.write_text("1,0\n0,1\n")
    ds = load_dataset(man, emb)
    assert ds.bio_labels == ("T", "U")


def test_binary_format_errors(tmp_path):
    path = tmp_path / "emb.bin"
    # no EMB1 magic: detected as CSV, fails with a row-indexed parse error
    path.write_bytes(b"NOPE" + b"\x00" * 24)
    with pytest.raises(DatasetError, match="row 0"):
        load_embeddings(path)
    # neither the magic nor UTF-8 text: the error names the file
    path.write_bytes(b"\xff\xfe\x00\x01" + b"\x00" * 24)
    with pytest.raises(DatasetError, match="not an EMB1 binary file and not UTF-8 CSV") as err:
        load_embeddings(path)
    assert str(path) in str(err.value)
    # valid magic, truncated payload
    import struct
    path.write_bytes(b"EMB1" + struct.pack("<I", 1) + struct.pack("<QQ", 3, 2)
                     + b"\x00" * 8)
    with pytest.raises(DatasetError, match="expected"):
        load_embeddings(path)
    # wrong version
    path.write_bytes(b"EMB1" + struct.pack("<I", 9) + struct.pack("<QQ", 1, 1)
                     + b"\x00" * 4)
    with pytest.raises(DatasetError, match="unsupported version"):
        load_embeddings(path)


@pytest.mark.parametrize("n, d", [(0, 2 ** 64 - 1), (2 ** 63, 0), (0, 0)])
def test_binary_without_rows_or_columns(tmp_path, n, d):
    """numpy cannot even shape (0, 2**64 - 1); the header check names the file."""
    path = tmp_path / "emb.bin"
    path.write_bytes(BINARY_MAGIC + struct.pack("<IQQ", 1, n, d))
    with pytest.raises(DatasetError, match=f"empty {n}x{d} embedding matrix") as err:
        load_embeddings(path)
    assert str(path) in str(err.value)


def test_binary_signalling_nan_exits_2_without_a_warning(tmp_path, capsys):
    """The loaded vectors are the file's float32 values, not a cast of them, so
    a signalling NaN raises no "invalid value" RuntimeWarning on the way to
    the finite check, which names its row."""
    bits = np.full((3, 4), 0x3F800000, dtype="<u4")  # 1.0
    bits[1, 2] = 0x7F810000
    man = tmp_path / "manifest.csv"
    man.write_text("sample_id,bio_label,conf_label,group_id\na,T,C,\nb,T,C,\nc,U,C,\n")
    emb = tmp_path / "emb.bin"
    emb.write_bytes(BINARY_MAGIC + struct.pack("<IQQ", 1, 3, 4) + bits.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["index", "--manifest", str(man), "--embeddings", str(emb),
                     "--out-dir", str(tmp_path / "out"), "--k", "1"]) == 2
    assert capsys.readouterr().err == "input error: non-finite value in embedding row 1\n"


def test_binary_layout_is_little_endian_float32(tmp_path):
    vectors = np.array([[1.5, -2.0], [0.25, 8.0]])
    path = tmp_path / "emb.bin"
    write_embeddings_binary(vectors, path)
    raw = path.read_bytes()
    assert raw[:4] == b"EMB1"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 2
    assert np.frombuffer(raw, dtype="<f4", offset=24).tolist() == [1.5, -2.0, 0.25, 8.0]


def test_round_trip_binary_bit_exact(tmp_path):
    ds = make_synth(seed=3, per_cell=5)
    save_dataset(ds, tmp_path / "m.csv", tmp_path / "e.bin")
    ds2 = load_dataset(tmp_path / "m.csv", tmp_path / "e.bin")
    assert ds2.ids == ds.ids
    assert ds2.bio_labels == ds.bio_labels
    assert ds2.conf_labels == ds.conf_labels
    assert ds2.group_ids == ds.group_ids
    assert np.array_equal(ds2.vectors, ds.vectors)
    # second round trip reproduces identical bytes
    save_dataset(ds2, tmp_path / "m2.csv", tmp_path / "e2.bin")
    assert (tmp_path / "m2.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()
    assert (tmp_path / "e2.bin").read_bytes() == (tmp_path / "e.bin").read_bytes()


def test_csv_embeddings_match_binary(tmp_path):
    ds = make_synth(seed=9, per_cell=4, dim=7)
    write_manifest(ds, tmp_path / "m.csv")
    write_embeddings_binary(ds.vectors, tmp_path / "e.bin")
    write_embeddings_csv(ds.vectors, tmp_path / "e.csv")
    from_bin = load_dataset(tmp_path / "m.csv", tmp_path / "e.bin")
    from_csv = load_dataset(tmp_path / "m.csv", tmp_path / "e.csv")
    assert np.array_equal(from_bin.vectors, from_csv.vectors)


@pytest.mark.parametrize("text, expected", [
    (" 1 ,\t-2\n3 , 4\n", [[1, -2], [3, 4]]),      # whitespace around a value
    ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),           # CRLF
    ("1,2\r3,4", [[1, 2], [3, 4]]),                 # CR, no final line end
    ("\n1,2\n\n\n3,4\n\n", [[1, 2], [3, 4]]),       # empty lines skipped
    ("+1.,.5e1\n-0,1E-3\n", [[1, 5], [-0.0, 0.001]]),
    ("1e999,1e-999\n", [[np.inf, 0]]),              # overflow to inf, underflow to 0
    ("NaN,-Infinity\n", [[np.nan, -np.inf]]),
])
def test_csv_grammar_accepts(tmp_path, text, expected):
    path = tmp_path / "emb.csv"
    path.write_bytes(text.encode("utf-8"))
    got = load_embeddings(path)
    assert got.dtype == np.float32
    assert got.tobytes() == np.array(expected, dtype=np.float32).tobytes()


CSV_REJECTIONS = [
    ("1,2,\n3,4,\n", "row 0, column 2: could not convert string '' to float32"),
    ("# header\n1,2\n", "row 0, column 0: could not convert string '# header' to float32"),
    ('"1",2\n3,4\n', "row 0, column 0: could not convert string '\"1\"' to float32"),
    ("1_0,2\n3,4\n", "row 0, column 0: could not convert string '1_0' to float32"),
    ("1,2\n3,４\n", "row 1, column 1: could not convert string '４' to float32"),
    ("1,2\n\n\n3,x\n", "row 1, column 1: could not convert string 'x' to float32"),
    # loadtxt cuts a field's repr at 100 characters: the message closes its
    # quote, after the last whole character, and says the field is cut
    ("x" * 150 + ",2\n3,4\n",
     f"row 0, column 0: could not convert string starting '{'x' * 99}' to float32"),
    ("NOPE" + "\0" * 24 + ",2\n3,4\n",
     "row 0, column 0: could not convert string starting 'NOPE" + r"\x00" * 23
     + "' to float32"),
    ("1,2\n \n3,4\n", "row 1 has 1 values, expected 2"),  # whitespace-only row
    ("1,2\n3\n", "row 1 has 1 values, expected 2"),
    ("", "no embedding rows"),
    ("\n\r\n\n", "no embedding rows"),
    ("1,2\n\udcff,4\n", "not an EMB1 binary file and not UTF-8 CSV"),
]


@pytest.mark.parametrize("text, message", CSV_REJECTIONS)
def test_rejected_csv_exits_2_with_one_line(tmp_path, capsys, text, message):
    """Every rejection names the file and counts rows and columns from 0 over
    the non-empty lines, as the manifest binds them; no out-dir is made."""
    man = tmp_path / "manifest.csv"
    man.write_text("sample_id,bio_label,conf_label,group_id\na,T,C,\nb,U,C,\n")
    emb = tmp_path / "emb.csv"
    emb.write_bytes(text.encode("utf-8", "surrogateescape"))  # \udcff: the byte 0xff
    out = tmp_path / "out"
    assert main(["index", "--manifest", str(man), "--embeddings", str(emb),
                 "--out-dir", str(out), "--k", "1"]) == 2
    assert capsys.readouterr().err == f"input error: {emb}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["NOPE" + "\0" * 24, "a'b\\c\td\x7f\u2028e\U0001f600",
                                   'say "hi"\n', "q'\"" * 5, "x" * 3])
def test_cut_field_repr_closes_its_quote(field):
    """Every prefix of a field's repr, as loadtxt cuts it, reads back as a
    whole quoted prefix of the field, on one line."""
    full = repr(field)
    assert _field_repr(full) == full
    for cut in range(1, len(full)):
        shown = _field_repr(full[:cut])
        assert shown.startswith("starting ") and "\n" not in shown
        assert field.startswith(ast.literal_eval(shown.removeprefix("starting ")))


def _traced_load(path) -> tuple[np.ndarray, int]:
    """The loaded embeddings and the traced peak of loading them, in bytes."""
    tracemalloc.start()
    try:
        return load_embeddings(path), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_load_peak_is_about_the_array(tmp_path):
    """loadtxt parses the open file into one float32 array, so the traced peak
    stays under twice the array (4nd bytes) plus 1 MiB. Holding the file's
    text or a Python float per value exceeds that: the per-line parser this
    reader replaced peaked at 16 times the array here."""
    n, d = 400, 512
    vectors = np.random.default_rng(7).normal(size=(n, d)).astype(np.float32)
    path = tmp_path / "emb.csv"
    write_embeddings_csv(vectors, path)
    loaded, peak = _traced_load(path)
    assert loaded.tobytes() == vectors.tobytes()
    assert peak < 2 * 4 * n * d + 2 ** 20


def test_binary_load_holds_one_copy_of_the_file(tmp_path):
    """The format is picked from the first four bytes, then the file is read
    in one allocation: a buffered read after that peek would join the
    buffer's first block to the rest, a second copy of the file."""
    vectors = np.random.default_rng(8).normal(size=(500, 1024)).astype(np.float32)
    path = tmp_path / "emb.bin"
    write_embeddings_binary(vectors, path)
    loaded, peak = _traced_load(path)
    assert loaded.tobytes() == vectors.tobytes()
    assert peak < path.stat().st_size + 2 ** 16


def test_table_shaped_synthetic_classes(table_shaped_ds):
    ds = table_shaped_ds
    # brute-force class counting straight off the label columns
    assert ds.n == int(SPARSE_CELLS.sum()) * 10 == 200
    assert len(set(ds.bio_labels)) == 5
    assert len(set(ds.conf_labels)) == 5
    assert ds.bio_classes == tuple(sorted(set(ds.bio_labels)))


def test_class_count_matrix_two_samples():
    ds = EmbeddingDataset.from_arrays(
        ["x", "y"], np.array([[1.0, 0.0], [0.0, 1.0]]), ["A", "A"], ["X", "Y"])
    m = class_count_matrix(ds)
    assert m.counts[0, 0] == 1 and m.counts[0, 1] == 1
    assert m.counts.sum() == 2


def test_class_count_matrix_matches_histogram_oracle():
    ds = make_random_dataset(seed=5, n=150, dim=4, n_bio=4, n_conf=5)
    m = class_count_matrix(ds)
    # independent single-pass counter over the raw label columns
    expected = {}
    for b, c in zip(ds.bio_labels, ds.conf_labels):
        expected[(b, c)] = expected.get((b, c), 0) + 1
    for i, b in enumerate(m.bio_classes):
        for j, c in enumerate(m.conf_classes):
            assert m.counts[i, j] == expected.get((b, c), 0)
    assert m.counts.sum() == ds.n
    # row/column sums equal per-class counts computed independently
    for i, b in enumerate(m.bio_classes):
        assert m.counts[i].sum() == sum(1 for lab in ds.bio_labels if lab == b)
    for j, c in enumerate(m.conf_classes):
        assert m.counts[:, j].sum() == sum(1 for lab in ds.conf_labels if lab == c)


def test_table_composition_populated_cells(table_shaped_ds):
    m = class_count_matrix(table_shaped_ds)
    assert (m.counts > 0).sum() == 20
    np.testing.assert_array_equal((m.counts > 0).astype(int), SPARSE_CELLS)
    # first two classes cover every conf class; class 3 has two gaps
    assert (m.counts[0] > 0).all() and (m.counts[1] > 0).all()
    assert (m.counts[3] == 0).sum() == 2


def test_chance_levels_closed_forms():
    ds = EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(4)], np.eye(4) + 1.0,
        ["A", "A", "B", "B"], ["X", "Y", "X", "Y"])
    p_bio, p_conf = chance_levels(ds)
    assert p_bio == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p_conf == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_chance_levels_balanced_five_by_five():
    # frozen from the closed form: 5 * 400 * 399 / (2000 * 1999)
    expected = Fraction(5 * 400 * 399, 2000 * 1999)
    assert float(expected) == pytest.approx(0.19959979989995, abs=1e-14)
    ds = make_synth(seed=1, n_bio=5, n_conf=5, per_cell=80, dim=16)
    p_bio, p_conf = chance_levels(ds)
    assert p_bio == pytest.approx(float(expected), rel=1e-14)
    assert p_conf == pytest.approx(float(expected), rel=1e-14)


def test_chance_levels_pair_enumeration_oracle():
    ds = make_synth(seed=2, n_bio=5, n_conf=5, per_cell=4, dim=16)  # n = 100
    p_bio, p_conf = chance_levels(ds)
    hits_bio = hits_conf = pairs = 0
    for i in range(ds.n):
        for j in range(ds.n):
            if i == j:
                continue
            pairs += 1
            hits_bio += ds.bio_labels[i] == ds.bio_labels[j]
            hits_conf += ds.conf_labels[i] == ds.conf_labels[j]
    assert p_bio == pytest.approx(hits_bio / pairs, abs=1e-12)
    assert p_conf == pytest.approx(hits_conf / pairs, abs=1e-12)


def test_chance_level_single_class():
    ds = EmbeddingDataset.from_arrays(
        ["a", "b", "c"], np.eye(3) + 0.5, ["T", "T", "T"], ["X", "Y", "Z"])
    p_bio, p_conf = chance_levels(ds)
    assert p_bio == 1.0
    assert p_conf < 1.0


@settings(max_examples=40, deadline=None)
@given(labels=st.lists(st.sampled_from("abcd"), min_size=2, max_size=30))
def test_chance_level_bounds_property(labels):
    n = len(labels)
    ds = EmbeddingDataset.from_arrays(
        [f"s{i}" for i in range(n)],
        np.arange(1, n + 1, dtype=float).reshape(n, 1),
        labels, ["c"] * n)
    p_bio, p_conf = chance_levels(ds)
    assert 0.0 <= p_bio <= 1.0
    assert p_conf == 1.0
    assert (p_bio == 1.0) == (len(set(labels)) == 1)
    # zero only in the degenerate all-distinct case
    assert (p_bio > 0.0) == (len(set(labels)) < n)


def test_vectors_are_read_only(small_random_ds):
    with pytest.raises(ValueError):
        small_random_ds.vectors[0, 0] = 5.0


def test_min_two_samples():
    with pytest.raises(DatasetError, match="at least 2"):
        EmbeddingDataset.from_arrays(["a"], np.ones((1, 2)), ["T"], ["C"])
