import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsignal import embeddings
from ggsignal.embeddings import EmbeddingTable, atomic_open, cosine, load_table, save_table
from ggsignal.errors import FormatError, MissingWordsError, ZeroVectorError


def test_load_two_entry_file(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
    table = load_table(path)
    assert len(table) == 2
    assert table.dimension == 3
    assert list(table.words) == ["a", "b"]


def test_vocab_limit_prefix_semantics(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
    table = load_table(path, vocab_limit=1)
    assert list(table.words) == ["a"]


def test_vocab_limit_beyond_file_count(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
    table = load_table(path, vocab_limit=10)
    assert len(table) == 2


def test_required_words_loaded_past_limit(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("4 2\na 1 0\nb 0 1\nc 1 1\nd 2 2\n", encoding="utf-8")
    table = load_table(path, vocab_limit=2, required_words=["d", "ghost"])
    assert list(table.words) == ["a", "b", "d"]
    assert table.missing_required == ("ghost",)


def test_duplicates_keep_first(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("3 2\na 1 0\na 9 9\nb 0 1\n", encoding="utf-8")
    table = load_table(path)
    assert list(table.words) == ["a", "b"]
    assert np.allclose(table.vector("a"), [1, 0])


def test_crlf_and_trailing_newline_tolerated(tmp_path):
    path = tmp_path / "t.vec"
    path.write_bytes(b"2 2\r\na 1 0\r\nb 0 1")
    table = load_table(path)
    assert list(table.words) == ["a", "b"]


@pytest.mark.parametrize("content", [
    "not a header\na 1 0\n",
    "2\na 1 0\n",
    "2 2\na 1\n",            # wrong value count
    "1 2\na 1 zebra\n",      # non-numeric
    "1 2\na 1 inf\n",        # non-finite
    "",
])
def test_malformed_files_abort(tmp_path, content):
    path = tmp_path / "bad.vec"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(FormatError):
        load_table(path)


def test_case_sensitive_lookup(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("1 2\nword 1 0\n", encoding="utf-8")
    table = load_table(path)
    with pytest.raises(MissingWordsError):
        table.vector("Word")


def test_cosine_trivial_values():
    assert cosine([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-12)
    assert cosine([1, 0], [2, 0]) == pytest.approx(1.0, abs=1e-9)
    assert cosine([1, 1], [1, 0]) == pytest.approx(math.sqrt(2) / 2, abs=1e-6)


def test_cosine_self_is_one():
    rng = np.random.default_rng(3)
    v = rng.normal(size=17)
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)


def test_cosine_zero_vector_raises():
    with pytest.raises(ZeroVectorError):
        cosine([0.0, 0.0], [1.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=1e6),
       seed=st.integers(min_value=0, max_value=1000))
def test_cosine_positive_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    assert cosine(a * scale, b) == pytest.approx(cosine(a, b), abs=1e-9)
    assert cosine(a, b * scale) == pytest.approx(cosine(a, b), abs=1e-9)


def test_round_trip_preserves_vocabulary_and_cosines(tmp_path):
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(40)]
    table = EmbeddingTable(words, rng.normal(size=(40, 25)))
    out = tmp_path / "round.vec"
    save_table(table, out)
    back = load_table(out)
    assert back.words == table.words
    for i in range(0, 40, 7):
        for j in range(1, 40, 11):
            before = cosine(table.vector(words[i]), table.vector(words[j]))
            after = cosine(back.vector(words[i]), back.vector(words[j]))
            assert after == pytest.approx(before, abs=1e-5)


def test_save_header_format(tmp_path):
    table = EmbeddingTable(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    out = tmp_path / "t.vec"
    save_table(table, out)
    assert out.read_text(encoding="utf-8").splitlines()[0] == "2 2"


def test_interrupted_save_keeps_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "t.vec"
    save_table(EmbeddingTable(["a", "b"], np.eye(2)), path)
    earlier = path.read_bytes()

    class FailsAfterFirstRow(str):
        calls = 0

        def __mod__(self, value):
            FailsAfterFirstRow.calls += 1
            if FailsAfterFirstRow.calls > 3:
                raise OSError("disk full")
            return str.__mod__(self, value)

    monkeypatch.setattr(embeddings, "_SAVE_FORMAT", FailsAfterFirstRow("%.6g"))
    with pytest.raises(OSError, match="disk full"):
        save_table(EmbeddingTable(["x", "y", "z"], np.ones((3, 3))), path)
    assert path.read_bytes() == earlier
    assert list(tmp_path.iterdir()) == [path]


def test_overlapping_atomic_writes_use_separate_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_open(path) as outer:
        outer.write("outer\n")
        with atomic_open(path) as inner:
            inner.write("inner\n")
        assert path.read_text(encoding="utf-8") == "inner\n"
    assert path.read_text(encoding="utf-8") == "outer\n"
    assert list(tmp_path.iterdir()) == [path]


def test_table_rejects_duplicates_and_nonfinite():
    with pytest.raises(FormatError):
        EmbeddingTable(["a", "a"], [[1.0], [2.0]])
    with pytest.raises(FormatError):
        EmbeddingTable(["a"], [[float("nan")]])


def test_rows_names_missing_words(fixture_table):
    with pytest.raises(MissingWordsError, match="nothere"):
        fixture_table.rows(["x1", "nothere"])
