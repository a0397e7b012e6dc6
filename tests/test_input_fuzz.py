"""Fuzzed input boundary: any value of a numeric flag parses or exits 2 with
one line, and the embedding reader raises nothing but DatasetError."""

from __future__ import annotations

import argparse
import contextlib
import io
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from embrobust import cli
from embrobust.cli import build_parser, main
from embrobust.dataset import BINARY_MAGIC, DatasetError, load_embeddings


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


@given(text=CSV_TEXT)
@example(text="1.0," + "9" * 400 + "\n2.0,1.0")
@example(text="nan,1.0\n2.0,inf")
@example(text="1.0,2.0\n3.5e38,1.0")
def test_csv_text(emb_path, text):
    _load_raises_only_dataset_error(emb_path, text.encode("utf-8"))
