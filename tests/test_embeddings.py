import io
import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsignal import embeddings
from ggsignal.disentangler import load_stack
from ggsignal.embeddings import EmbeddingTable, atomic_open, load_table, save_table
from ggsignal.errors import DataError, FormatError, MissingWordsError, ZeroVectorError
from ggsignal.lexicon import (load_analogies, load_gender_lexicon, load_similarity_pairs,
                              load_stimuli, load_valence_norms)


def cosine(a, b) -> float:
    """Cosine of two vectors through the table's unit rows."""
    unit = EmbeddingTable(["a", "b"], np.array([a, b], dtype=np.float64)).unit_rows(["a", "b"])
    return float(unit[0] @ unit[1])


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
    assert np.allclose(table.rows(["a"])[0], [1, 0])


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
        table.rows(["Word"])
    assert table.index_of("word") == 0
    assert table.index_of("Word") is None


def test_zero_norm_words_in_table_order():
    matrix = np.ones((7, 3))
    matrix[0] = [0.0, -0.0, 0.0]
    matrix[3] = 0.0
    matrix[5] = -0.0
    matrix[6] = 1e-170  # non-zero values whose squares underflow: no direction
    table = EmbeddingTable([f"w{i}" for i in range(7)], matrix)
    assert table.zero_norm_words() == ["w0", "w3", "w5", "w6"]
    assert [table.usable(w) for w in ("w1", "w6", "ghost")] == [True, False, False]


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
            before = cosine(table.rows([words[i]])[0], table.rows([words[j]])[0])
            after = cosine(back.rows([words[i]])[0], back.rows([words[j]])[0])
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
    real_atomic_open = embeddings.atomic_open
    written = []

    class DiskFullAfterFirstRow:
        def __init__(self, handle):
            self.handle = handle

        def write(self, text):
            if len(written) == 2:  # the header and one row are in
                raise OSError("disk full")
            written.append(text)
            return self.handle.write(text)

    @contextmanager
    def failing_atomic_open(target):
        with real_atomic_open(target) as handle:
            yield DiskFullAfterFirstRow(handle)

    monkeypatch.setattr(embeddings, "atomic_open", failing_atomic_open)
    with pytest.raises(OSError, match="disk full"):
        save_table(EmbeddingTable(["x", "y", "z"], np.ones((3, 3))), path)
    assert written == ["3 3\n", "x 1 1 1\n"]
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
    with pytest.raises(FormatError):  # finite values whose squared norm overflows
        EmbeddingTable(["a"], [[1e200, 1e200]])


def test_with_matrix_shares_vocabulary_and_checks_the_matrix():
    table = EmbeddingTable(["a", "b"], [[1.0, 0.0], [0.0, 2.0]], missing_required=("z",))
    out = table.with_matrix(np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert out.words is table.words
    assert out._index is table._index  # the word-to-row dict is not rebuilt
    assert out.index_of("b") == 1 and "a" in out
    assert out.norms.tolist() == [5.0, 0.0]
    assert table.norms.tolist() == [1.0, 2.0]
    assert out.missing_required == ()
    assert not out.matrix.flags.writeable
    for bad in ([[1.0, float("nan")], [0.0, 1.0]], [[1e200, 1e200], [0.0, 1.0]],
                [[1.0, 0.0]], [1.0, 0.0], np.zeros((0, 2))):
        with pytest.raises(FormatError):
            table.with_matrix(np.array(bad))


def test_rows_names_missing_words(fixture_table):
    with pytest.raises(MissingWordsError, match="nothere"):
        fixture_table.rows(["x1", "nothere"])


# ------------------------------------------------------------ reference oracles
#
# The per-row parser and the per-value formatter that load_table and
# save_table replaced. The block parser and the row formatter must agree with
# them bit for bit and byte for byte on every file both accept.

def reference_load(path, vocab_limit=None, required_words=None, stops=None):
    """The per-row load; appends the line where it stops early to `stops`."""
    required = set(required_words or ())
    words, vectors, seen, pending = [], [], set(), set(required)
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        if not header:
            raise FormatError(f"{path}: empty file")
        _, dim = embeddings._parse_header(header.rstrip("\r\n"), path)
        for lineno, raw in enumerate(handle, start=2):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            tokens = [t for t in line.split(" ") if t]
            if len(tokens) != dim + 1:
                raise FormatError(
                    f"{path}:{lineno}: expected {dim + 1} fields, got {len(tokens)}")
            word = tokens[0]
            in_prefix = vocab_limit is None or len(words) < vocab_limit
            if word in seen:
                continue
            if not in_prefix and word not in required:
                continue
            try:
                vec = np.asarray(tokens[1:], dtype=np.float64)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric value") from None
            if not np.all(np.isfinite(vec)):
                raise FormatError(f"{path}:{lineno}: non-finite value")
            words.append(word)
            vectors.append(vec)
            seen.add(word)
            pending.discard(word)
            if vocab_limit is not None and len(words) >= vocab_limit and not pending:
                if stops is not None:
                    stops.append(lineno)
                break
    if not words:
        raise FormatError(f"{path}: no entries loaded")
    try:
        return EmbeddingTable(words, np.vstack(vectors), missing_required=tuple(sorted(pending)))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def reference_save_bytes(table):
    lines = [f"{len(table)} {table.dimension}\n"]
    for i, word in enumerate(table.words):
        lines.append(word + " " + " ".join("%.6g" % v for v in table.matrix[i]) + "\n")
    return "".join(lines).encode("utf-8")


def _outcome(load, path, **kwargs):
    try:
        return load(path, **kwargs)
    except FormatError as exc:
        return str(exc)


WORDS = ["a", "b", "c", "d", "é", "x\ty", "\xa0", "\x0c", "w\x1c"]
GOOD_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-10, max_value=10).map(lambda v: f"{v:.4f}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.6g" % v),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0", "+1", ".5", "5.", "1e-400", "1E5", "1\t", "\t2", "3\xa0",
                     " 4", "5\x0c", "6\x85"]))
BAD_VALUES = st.sampled_from(["zebra", "inf", "-Infinity", "nan", "1e500", "1,5", "0x10",
                              "\t", "\x0c", "1\x1c", "\x1f2", "1\t2", "1e", ""])


@st.composite
def vector_files(draw):
    dim = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "", "", "", " ", "  "])))
            continue
        n_values = dim + draw(st.sampled_from([0] * 40 + [-1, 1]))
        values = draw(st.lists(GOOD_VALUES, min_size=n_values, max_size=n_values))
        if values and draw(st.integers(0, 14)) == 0:
            values[draw(st.integers(0, len(values) - 1))] = draw(BAD_VALUES)
        fields = [draw(st.sampled_from(WORDS)), *values]
        gaps = draw(st.lists(st.sampled_from([" "] * 6 + ["  ", "   "]),
                             min_size=len(fields), max_size=len(fields)))
        line = "".join(g + f for g, f in zip(gaps, fields))
        line = line[draw(st.sampled_from([1, 1, 1, 0])):]  # sometimes a leading space
        lines.append(line + draw(st.sampled_from(["", "", " ", "  "])))
    count = sum(1 for line in lines if line)
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]),
                         min_size=len(lines) + 1, max_size=len(lines) + 1))
    text = f"{max(count, 1)} {dim}" + "".join(e + line for e, line in zip(ends, lines))
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None)
@given(text=vector_files(),
       vocab_limit=st.one_of(st.none(), st.integers(1, 13)),
       required=st.lists(st.sampled_from(WORDS + ["ghost"]), max_size=4))
def test_load_matches_per_row_reference(tmp_path_factory, text, vocab_limit, required):
    path = tmp_path_factory.mktemp("diff") / "t.vec"
    path.write_bytes(text.encode("utf-8"))
    kwargs = {"vocab_limit": vocab_limit, "required_words": required}
    expected = _outcome(reference_load, path, **kwargs)
    actual = _outcome(load_table, path, **kwargs)
    if isinstance(expected, str):
        # A file with no data lines now fails the header count check first.
        assert actual == expected.replace("no entries loaded",
                                          "header promises 1 rows, file holds 0")
        return
    assert not isinstance(actual, str), actual
    assert actual.words == expected.words
    assert actual.missing_required == expected.missing_required
    assert actual.matrix.shape == expected.matrix.shape
    assert np.array_equal(actual.matrix.view(np.int64), expected.matrix.view(np.int64))


def _zeroed(text: str, named: set[str]) -> str:
    """`text` with every value of each row whose word is not `named` replaced
    by 0: the rows that a `required_only` load counts but never parses."""
    lines = io.StringIO(text, newline="").readlines()  # ends at LF, CRLF or CR
    dim = int(lines[0].split()[1])
    out = lines[:1]
    for line in lines[1:]:
        body = line.rstrip("\r\n")
        tokens = [t for t in body.split(" ") if t]
        if len(tokens) == dim + 1 and tokens[0] not in named:
            body = " ".join([tokens[0]] + ["0"] * dim)
        out.append(body + line[len(line.rstrip("\r\n")):])
    return "".join(out)


def _with_line(text: str, lineno: int, line: str) -> str:
    """`text` with `line` inserted as its line `lineno` (the header is line 1)."""
    lines = io.StringIO(text, newline="").readlines()
    if lineno > len(lines) and not lines[-1].endswith(("\n", "\r")):
        lines[-1] += "\n"
    return "".join(lines[:lineno - 1] + [line + "\n"] + lines[lineno - 1:])


def _assert_named_load_matches_zeroed_reference(path, text, vocab_limit, named):
    """The `required_only` load of `text` is `reference_load` of `_zeroed(text)`
    restricted to the named words, or raises its message. Returns None when
    they raise, else a list of the line where the reference stopped early,
    if it did."""
    kwargs = {"vocab_limit": vocab_limit, "required_words": named}
    stops: list[int] = []
    path.write_bytes(_zeroed(text, set(named)).encode("utf-8"))
    expected = _outcome(reference_load, path, stops=stops, **kwargs)
    path.write_bytes(text.encode("utf-8"))
    actual = _outcome(load_table, path, required_only=True, **kwargs)
    if isinstance(expected, str):
        # A file with no data lines fails the header count check first.
        assert actual == expected.replace("no entries loaded",
                                          "header promises 1 rows, file holds 0")
        return None
    assert not isinstance(actual, str), actual
    kept = [i for i, word in enumerate(expected.words) if word in named]
    assert actual.words == tuple(expected.words[i] for i in kept)
    assert actual.missing_required == expected.missing_required
    assert actual.matrix.shape == (len(kept), expected.dimension)
    assert np.array_equal(actual.matrix.view(np.int64), expected.matrix[kept].view(np.int64))
    return stops


@settings(max_examples=400, deadline=None)
@given(text=vector_files(),
       vocab_limit=st.one_of(st.none(), st.integers(1, 13)),
       named=st.lists(st.sampled_from(WORDS + ["ghost"]), max_size=4))
def test_named_row_load_matches_reference_of_zeroed_file(tmp_path_factory, text, vocab_limit,
                                                         named):
    path = tmp_path_factory.mktemp("named") / "t.vec"
    stops = _assert_named_load_matches_zeroed_reference(path, text, vocab_limit, named)
    if stops is None:
        return
    # Both loads stop at the same line: a malformed line put in the place of
    # the last line the reference reads is read by both, and one put right
    # after it by neither.
    last = stops[0] if stops else len(io.StringIO(text, newline="").readlines()) + 1
    for lineno in (last, last + 1) if stops else (last,):
        _assert_named_load_matches_zeroed_reference(
            path, _with_line(text, lineno, "x"), vocab_limit, named)


# Values stay within +-1e150 because a table rejects a row whose squared norm
# overflows; test_table_rejects_duplicates_and_nonfinite covers that.
@settings(max_examples=100, deadline=None)
@given(matrix=st.integers(1, 5).flatmap(lambda dim: st.lists(
           st.lists(st.floats(min_value=-1e150, max_value=1e150), min_size=dim,
                    max_size=dim), min_size=1, max_size=6)),
       names=st.lists(st.text(alphabet="abcé\xa0", min_size=1, max_size=4),
                      min_size=6, max_size=6, unique=True))
def test_save_matches_per_value_reference(tmp_path_factory, matrix, names):
    table = EmbeddingTable(names[:len(matrix)], np.array(matrix))
    path = tmp_path_factory.mktemp("save") / "t.vec"
    save_table(table, path)
    assert path.read_bytes() == reference_save_bytes(table)


def test_block_boundaries_match_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "_BLOCK_ROWS", 3)
    rng = np.random.default_rng(5)
    table = EmbeddingTable([f"w{i}" for i in range(11)], rng.normal(size=(11, 4)))
    path = tmp_path / "t.vec"
    save_table(table, path)
    for limit, required in ((None, None), (3, None), (4, ["w9", "w10"]), (6, ["w7"])):
        expected = reference_load(path, limit, required)
        actual = load_table(path, limit, required)
        assert actual.words == expected.words
        assert np.array_equal(actual.matrix.view(np.int64), expected.matrix.view(np.int64))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[8] = lines[8].rsplit(" ", 1)[0] + " zebra"  # a bad value in the third block
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=rf"{path}:9: non-numeric value"):
        load_table(path)


def _assert_loads_like_reference(path, vocab_limit=None, required_words=None):
    """load_table gives reference_load's table bit for bit, or its message;
    text-mode reading's UnicodeDecodeError is load_table's invalid UTF-8."""
    kwargs = {"vocab_limit": vocab_limit, "required_words": required_words}
    try:
        expected = _outcome(reference_load, path, **kwargs)
    except UnicodeDecodeError:
        expected = f"{path}:{embeddings._first_invalid_line(path)}: invalid UTF-8"
    actual = _outcome(load_table, path, **kwargs)
    if isinstance(expected, str):
        assert actual == expected
        return
    assert not isinstance(actual, str), actual
    assert actual.words == expected.words
    assert actual.missing_required == expected.missing_required
    assert np.array_equal(actual.matrix.view(np.int64), expected.matrix.view(np.int64))


def _fasttext_lines(rows: int, dim: int) -> list[str]:
    """Lines as fastText writes them: UTF-8 words and a space before the end."""
    rng = np.random.default_rng(rows)
    stems = ["köln", "straße", "żółw", "中文", "ñandú", "word"]
    return [f"{stems[i % len(stems)]}{i} " + " ".join(f"{v:.4f}" for v in rng.normal(size=dim))
            + " " for i in range(rows)]


@pytest.mark.parametrize("block_rows", [3, 1])
@pytest.mark.parametrize("final_newline", [True, False], ids=["newline", "no-final-newline"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_chunk_edges_match_reference(tmp_path, monkeypatch, block_rows, final_newline, newline):
    # Chunks of a few lines, then of less than one, so lines straddle their edges.
    monkeypatch.setattr(embeddings, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "t.vec"
    text = ("40 6" + newline + newline.join(_fasttext_lines(40, 6))
            + (newline if final_newline else ""))
    path.write_bytes(text.encode("utf-8"))
    for limit, required in ((None, None), (5, ["中文33", "ghost"]), (2, None), (39, None)):
        _assert_loads_like_reference(path, limit, required)


def test_crlf_lines_are_regular_and_lone_crs_are_not():
    buf = bytearray(b"a 1 2\r\nb 3 4 \r\nc 5\r6\nd 7 8\r\r\n\r\ne 9 0\n")
    ends, flags = embeddings._regular_lines(buf, 0, len(buf), 2)
    assert ends == [6, 14, 20, 28, 30, 36]
    assert flags == [True, True, False, False, False, True]


LATE = 350  # index of the irregular line among 400, some chunks in


def _with_irregular_line(kind: str) -> bytes:
    lines = [line.encode("utf-8") for line in _fasttext_lines(400, 8)]
    ends = [b"\n"] * len(lines)
    if kind == "run of spaces":
        lines[LATE] = lines[LATE].replace(b" ", b"   ", 3)
    elif kind == "run of spaces, one value short":  # as many spaces as a whole line
        lines[LATE] = lines[LATE].replace(b" ", b"  ", 1).rsplit(b" ", 2)[0] + b" "
    elif kind == "lone CR":
        ends[LATE] = b"\r"
    elif kind == "blank line":
        ends[LATE] = b"\n\n"
    elif kind == "invalid UTF-8":
        lines[LATE] = b"\xff" + lines[LATE]
    else:
        lines[LATE] = lines[LATE].rsplit(b" ", 2)[0]  # one value short
    return b"400 8\n" + b"".join(line + end for line, end in zip(lines, ends))


@pytest.mark.parametrize("kind", ["run of spaces", "run of spaces, one value short", "lone CR",
                                  "blank line", "invalid UTF-8", "wrong field count"])
def test_irregular_line_in_a_late_chunk_matches_reference(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(embeddings, "_BLOCK_ROWS", 16)
    path = tmp_path / "t.vec"
    path.write_bytes(_with_irregular_line(kind))
    assert path.stat().st_size > 30 * embeddings._BLOCK_ROWS * embeddings._CHUNK_FIELD_BYTES * 9
    cases = [(None, None), (10, [f"word{LATE + 5}"]), (10, None)]
    if kind != "invalid UTF-8":  # a load that stops just before a bad byte may have read it
        cases.append((LATE - 2, None))
    for limit, required in cases:
        _assert_loads_like_reference(path, limit, required)


def test_load_that_stops_early_fails_on_a_bad_byte_it_has_read(tmp_path, monkeypatch):
    # The reader reads at least the first byte after the last line a load
    # takes, and about one chunk of lines (576 bytes here) at most.
    monkeypatch.setattr(embeddings, "_BLOCK_ROWS", 16)
    lines = [line.encode("utf-8") + b"\n" for line in _fasttext_lines(400, 8)]
    limit = 200  # the load takes lines[:limit]
    clean = tmp_path / "clean.vec"
    clean.write_bytes(b"400 8\n" + b"".join(lines))
    for bad, loads in ((limit, False), (limit + 100, True)):
        path = tmp_path / f"bad{bad}.vec"
        path.write_bytes(b"400 8\n" + b"".join(
            (b"\xff" if i == bad else b"") + line for i, line in enumerate(lines)))
        outcome = _outcome(load_table, path, vocab_limit=limit)
        if loads:
            assert outcome.words == load_table(clean, vocab_limit=limit).words
        else:
            assert outcome == f"{path}:{bad + 2}: invalid UTF-8"


class _Trickle:
    """A binary handle that reads at most `most` bytes at a time."""

    def __init__(self, data: bytes, most: int):
        self.data, self.most, self.pos = data, most, 0

    def readinto(self, view) -> int:
        n = min(len(view), self.most, len(self.data) - self.pos)
        view[:n] = self.data[self.pos:self.pos + n]
        self.pos += n
        return n


@pytest.mark.parametrize("most", [97, 4096])
def test_line_reader_fails_on_a_bad_byte_however_the_bytes_arrive(tmp_path, most):
    lines = [line.encode("utf-8") + b"\n" for line in _fasttext_lines(400, 8)]
    lines[300] = b"\xff" + lines[300]
    path = tmp_path / "t.vec"
    path.write_bytes(b"400 8\n" + b"".join(lines))
    reader = embeddings._LineReader(_Trickle(path.read_bytes(), most), path)
    returned = 0
    with pytest.raises(FormatError, match=r"t.vec:302: invalid UTF-8$"):
        while end := reader.next(200):
            returned += end
    assert 0 < returned <= len(b"400 8\n" + b"".join(lines[:300]))


def test_crlf_split_by_a_chunk_edge_is_one_line_end(tmp_path, monkeypatch):
    path = tmp_path / "t.vec"
    path.write_bytes(b"9 2\r\n" + b"".join(b"w%d 1.5 -2.5\r\n" % i for i in range(8))
                     + b"w8 1.5 zebra\r\n")
    for block_rows in range(1, 12):
        monkeypatch.setattr(embeddings, "_BLOCK_ROWS", block_rows)
        with pytest.raises(FormatError, match=r"t.vec:10: non-numeric value$"):
            load_table(path)


@pytest.mark.parametrize("content", [
    b"2 10000000000000000000\na 1\nb 2\n",  # past int64
    b"2 1000000000000000\na " + b"1 " * 10_000 + b"\nb 2\n",  # first line past 16 KiB
    b"2 70000\na " + b"0 " * 70_000 + b"\nb" + b" 1" * 70_000,  # lines too long to be regular
], ids=["dimension-past-int64", "long-first-line", "loads"])
def test_huge_dimension_matches_reference(tmp_path, content):
    path = tmp_path / "t.vec"
    path.write_bytes(content)
    _assert_loads_like_reference(path)


def test_resolve_keeps_order_and_names_every_unusable_word(caplog):
    table = EmbeddingTable(["a", "z1", "b", "z2", "c"],
                           [[1.0, 0.0], [0.0, 0.0], [0.0, 2.0], [1e-170, 1e-170], [3.0, 4.0]])
    assert table.resolve(["c", "a", "b"], "ctx", "error") == ["c", "a", "b"]
    words = ["c", "x", "z2", "a", "y", "z1", "b"]
    with pytest.raises(MissingWordsError, match="^ctx: unresolvable words: x, y$"):
        table.resolve(words, "ctx", "error")
    with pytest.raises(ZeroVectorError, match="^ctx: zero-norm vectors for: z2, z1$"):
        table.resolve(["c", "z2", "a", "z1"], "ctx", "error")
    with caplog.at_level("WARNING"):
        assert table.resolve(words, "ctx", "drop") == ["c", "a", "b"]
    assert [r.getMessage() for r in caplog.records] == [
        "ctx: dropping 2 missing words: x, y",
        "ctx: dropping zero-norm vectors (annihilated words): z2, z1"]
    with pytest.raises(ValueError, match="unknown on_missing policy"):
        table.resolve(words, "ctx", "skip")


DIGIT_VALUES = ["1_0", "1e1_0", "١", "１", "1٢"]
# Scores and valences follow the same rules, and also reject these: the
# information separators around a number are not stripped as whitespace.
FIELD_VALUES = [*DIGIT_VALUES, "nan", "", "1\x1c", "\x1f1"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("loader, value", [
    *[pytest.param("table", v, id=v) for v in DIGIT_VALUES],
    *[pytest.param("stack", v, id=f"stack-{v}") for v in DIGIT_VALUES],
    *[pytest.param("pairs", v, id=f"pairs-{v}") for v in FIELD_VALUES],
    *[pytest.param("norms", v, id=f"norms-{v}") for v in FIELD_VALUES]])
def test_digit_separators_and_non_ascii_digits_rejected(tmp_path, loader, value):
    # float() reads these; tables, stacks, scores and valences accept ASCII digits only.
    path = tmp_path / "t.vec"
    if loader == "table":
        path.write_text(f"2 2\na 1 0\nb 0 {value}\n", encoding="utf-8")
        assert reference_load(path).words == ("a", "b")
        load = load_table
    elif loader == "stack":
        path.write_text(f"2 2\n1 0\n0 {value}\n", encoding="utf-8")
        load = load_stack
    elif loader == "pairs":
        path.write_text(f"# pairs\na\tb\t7.5\nc\td\t{value}\n", encoding="utf-8")
        load = load_similarity_pairs
    else:
        path.write_text(f"# norms\na\t7.5\nb\t{value}\n", encoding="utf-8")
        load = load_valence_norms
    reason = "non-finite" if value == "nan" else "non-numeric"
    with pytest.raises(FormatError, match=rf"{path}:3: {reason} value"):
        load(path)


@pytest.mark.parametrize("count, rows", [(3, "a 1 0\nb 0 1\n"),
                                         (1, "a 1 0\nb 0 1\n"),
                                         (2, "a 1 0\n\n\n")])
def test_header_count_mismatch_raises_when_read_to_end(tmp_path, count, rows):
    path = tmp_path / "t.vec"
    path.write_text(f"{count} 2\n{rows}", encoding="utf-8")
    with pytest.raises(FormatError, match=f"header promises {count} rows"):
        load_table(path)
    with pytest.raises(FormatError, match="header promises"):
        load_table(path, vocab_limit=5, required_words=["b"])
    with pytest.raises(FormatError, match=f"header promises {count} rows"):
        _load_named_a(path)


def test_overlong_file_fails_at_first_extra_kept_row(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("2 2\na 1 0\na 2 2\nb 0 1\nc 3 3\nd 4 4\n", encoding="utf-8")
    message = rf"{path}:5: header promises 2 rows, file holds at least 3$"
    with pytest.raises(FormatError, match=message):
        load_table(path)
    # A load that would stop early fails too once it keeps a row too many.
    with pytest.raises(FormatError, match=message):
        load_table(path, vocab_limit=2, required_words=["c"])
    assert load_table(path, vocab_limit=2).words == ("a", "b")
    # A named-row load fails there too: "c" is the third row it counts.
    for vocab_limit, named in ((None, ["a"]), (2, ["c"]), (5, [])):
        with pytest.raises(FormatError, match=message):
            load_table(path, vocab_limit, named, required_only=True)
    assert load_table(path, 2, ["b"], required_only=True).words == ("b",)


def test_named_load_checks_values_of_kept_rows_only(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("4 2\na 1 0\nb zebra 1\nc inf 1\nd 0 1e200\n", encoding="utf-8")
    table = load_table(path, vocab_limit=3, required_words=["a"], required_only=True)
    assert table.words == ("a",)
    with pytest.raises(FormatError, match=rf"{path}:3: non-numeric value$"):
        load_table(path, vocab_limit=3, required_words=["a"])
    with pytest.raises(FormatError, match="row whose norm overflows$"):
        load_table(path, required_words=["a", "d"], required_only=True)
    # A file holding none of the named words gives an empty table.
    empty = load_table(path, required_words=["ghost"], required_only=True)
    assert (len(empty), empty.dimension, empty.missing_required) == (0, 2, ("ghost",))


@pytest.mark.parametrize("vocab_limit", [None, 2, 5])
def test_huge_header_count_allocates_only_what_the_file_holds(tmp_path, vocab_limit):
    path = tmp_path / "t.vec"
    path.write_text("999999999999 2\na 1 0\nb 0 1\nc 1 1\n", encoding="utf-8")
    tracemalloc.start()
    try:
        if vocab_limit == 2:
            assert load_table(path, vocab_limit=vocab_limit).words == ("a", "b")
        else:
            with pytest.raises(FormatError,
                               match=rf"{path}: header promises 999999999999 rows, "
                                     "file holds 3$"):
                load_table(path, vocab_limit=vocab_limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_peak_memory_is_one_matrix_plus_one_block(tmp_path, monkeypatch):
    # 64-row blocks: the table spans many blocks, so holding the parsed blocks
    # beside the matrix would exceed the bound.
    monkeypatch.setattr(embeddings, "_BLOCK_ROWS", 64)
    rng = np.random.default_rng(3)
    table = EmbeddingTable([f"w{i}" for i in range(2000)], rng.normal(size=(2000, 300)))
    path = tmp_path / "t.vec"
    save_table(table, path)
    line_bytes = path.stat().st_size / len(table)
    tracemalloc.start()
    try:
        loaded = load_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.matrix.shape == table.matrix.shape
    block = embeddings._BLOCK_ROWS * (line_bytes + table.matrix.itemsize * table.dimension)
    assert peak <= 1.1 * loaded.matrix.nbytes + block


def _mutations(content: bytes):
    """One of: truncate at a byte, replace a byte, insert a byte-order mark,
    a NUL or a bare CR."""
    at = st.integers(0, len(content))
    return st.one_of(
        at.map(lambda i: content[:i]),
        st.tuples(st.integers(0, len(content) - 1), st.integers(1, 255)).map(
            lambda m: content[:m[0]] + bytes([content[m[0]] ^ m[1]]) + content[m[0] + 1:]),
        st.tuples(at, st.sampled_from(["\ufeff".encode("utf-8"), b"\0", b"\r"])).map(
            lambda m: content[:m[0]] + m[1] + content[m[0]:]))


TABLE_BYTES = b"5 3\nde 0.5 -1.25e-05 3\nder 1 0 0\ndie -0.25 2 1e3\nde 7 7 7\nhaus 0 0 0\n"
MUTATED_READERS = {
    "table": (TABLE_BYTES, load_table),
    "table-limit": (TABLE_BYTES, lambda path: load_table(path, vocab_limit=2)),
    "table-required": (TABLE_BYTES,
                       lambda path: load_table(path, vocab_limit=1, required_words=["die"])),
    "stack": (b"2 3\n0.6 0.8 0\n-0.8 0.6 0\n", load_stack),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), reader=st.sampled_from(sorted(MUTATED_READERS)))
def test_mutated_inputs_load_or_raise_format_error_naming_path(tmp_path_factory, data,
                                                               reader):
    content, load = MUTATED_READERS[reader]
    path = tmp_path_factory.mktemp("mutated") / "input.txt"
    path.write_bytes(data.draw(_mutations(content)))
    try:
        load(path)
    except FormatError as exc:
        assert str(exc).startswith(str(path)), exc


NOUNS_BYTES = "casa\tF\nmesa\tF\nluna\tF\n# comment\nlibro\tM\ngatto\tM\nsole\tM\n".encode()


def _lexicon_with_animacy(path):
    nouns = path.with_name("nouns.tsv")
    nouns.write_bytes(NOUNS_BYTES)
    return load_gender_lexicon(nouns, path)


MUTATED_LEXICON_READERS = {
    "lexicon-nouns": (NOUNS_BYTES, load_gender_lexicon),
    "lexicon-animacy": ("casa\nsole\n".encode(), _lexicon_with_animacy),
    "stimuli": ("# sets\n[en.a]\nuno\ndue\n\n[en.b]\ntre\nquattro\n".encode(), load_stimuli),
    "pairs": ("casa\tmesa\t7.5\nluna\tsole\t2\tF\tM\n".encode(), load_similarity_pairs),
    "norms": ("amore\t8.72\nguerra\t1.5e0\n".encode(), load_valence_norms),
    "analogies": (": family\nking queen man woman\n: capital\nrome italy paris france\n".encode(),
                  load_analogies),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), reader=st.sampled_from(sorted(MUTATED_LEXICON_READERS)))
def test_mutated_lexicon_inputs_load_or_raise_data_error_naming_path(tmp_path_factory, data,
                                                                     reader):
    # Truncation can legitimately empty a lexicon or a list, which is a data
    # error (exit 2) rather than a format error, so DataError is the rule here.
    content, load = MUTATED_LEXICON_READERS[reader]
    path = tmp_path_factory.mktemp("mutated") / "input.txt"
    path.write_bytes(data.draw(_mutations(content)))
    try:
        load(path)
    except DataError as exc:
        assert str(exc).startswith(str(path)), exc


def test_header_count_counts_skipped_and_duplicate_lines(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("4 2\na 1 0\n\na 2 2\nb 0 1\nc 3 3\r\n", encoding="utf-8")
    assert load_table(path, vocab_limit=1, required_words=["c"]).words == ("a", "c")


def test_early_stop_by_vocab_limit_accepts_short_file(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("9 2\na 1 0\nb 0 1\nc 1 1\n", encoding="utf-8")
    assert load_table(path, vocab_limit=2).words == ("a", "b")
    assert load_table(path, vocab_limit=1, required_words=["c"]).words == ("a", "c")
    with pytest.raises(FormatError, match="header promises 9 rows, file holds 3"):
        load_table(path, vocab_limit=2, required_words=["ghost"])


def _load_named_a(path):
    """A named-row load of the word "a" alone, with no vocab limit."""
    return load_table(path, required_words=["a"], required_only=True)


def _bad_byte_files():
    long_table = "2001 1\n" + "".join(f"w{i} 1\n" for i in range(2000)) + "w\xff 1\n"
    return {
        "table": (load_table, b"3 2\na 1 0\nb\xff 0 1\nc 1 1\n", 3),
        "table-crlf": (load_table, b"3 2\r\na 1 0\r\nb 0 1\r\nc\xfe 1 1\r\n", 4),
        "table-named": (_load_named_a, b"3 2\na 1 0\nb 0 1\xff\nc 1 1\n", 3),
        "table-lone-cr": (load_table, b"3 2\ra 1 0\rb 0 1\rc 1\xc3\r", 4),
        "table-past-first-chunk": (load_table, long_table.encode("latin-1"), 2002),
        "table-truncated-sequence": (load_table, b"1 1\n\xc3", 2),
        "table-after-a-malformed-line": (load_table, b"3 2\na 1\nb 0 1\nc\xff 1 1\n", 4),
        "stack": (load_stack, b"2 2\n1 0\n0 1\x80\n", 3),
        # The bad byte lies past the 8 KiB that text reading decodes at once.
        "stack-after-a-malformed-line": (load_stack, b"3 2\n1 0\n0\n0" + b" " * 10_000
                                         + b"1\x80\n", 4),
        "pairs": (load_similarity_pairs, b"a\tb\t1\nc\td\xff\t2\n", 2),
    }


@pytest.mark.parametrize("name", sorted(_bad_byte_files()))
def test_invalid_utf8_is_a_format_error_naming_the_line(tmp_path, name):
    reader, content, line = _bad_byte_files()[name]
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=f"input.txt:{line}: invalid UTF-8$"):
        reader(path)


@pytest.mark.parametrize("reader, content", [
    (load_table, "2 2\na 1 0\nb 0 1\n"),
    (_load_named_a, "2 2\na 1 0\nb 0 1\n"),
    (load_stack, "1 2\n1 0\n"),
    (load_similarity_pairs, "a\tb\t1\n"),
    (load_valence_norms, "a\t1\n"),
], ids=["table", "table-named", "stack", "pairs", "norms"])
def test_leading_byte_order_mark_is_a_format_error(tmp_path, reader, content):
    path = tmp_path / "input.txt"
    path.write_text("\ufeff" + content, encoding="utf-8")
    with pytest.raises(FormatError, match="input.txt: starts with a byte-order mark"):
        reader(path)
    path.write_text(content, encoding="utf-8")
    reader(path)
