import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsignal import embeddings
from ggsignal.disentangler import load_stack
from ggsignal.embeddings import EmbeddingTable, atomic_open, load_table, save_table
from ggsignal.errors import FormatError, MissingWordsError, ZeroVectorError
from ggsignal.lexicon import load_similarity_pairs, load_valence_norms


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


def test_rows_names_missing_words(fixture_table):
    with pytest.raises(MissingWordsError, match="nothere"):
        fixture_table.rows(["x1", "nothere"])


# ------------------------------------------------------------ reference oracles
#
# The per-row parser and the per-value formatter that load_table and
# save_table replaced. The block parser and the row formatter must agree with
# them bit for bit and byte for byte on every file both accept.

def reference_load(path, vocab_limit=None, required_words=None):
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
                break
    if not words:
        raise FormatError(f"{path}: no entries loaded")
    return EmbeddingTable(words, np.vstack(vectors), missing_required=tuple(sorted(pending)))


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
# Scores and valences follow the same rules, and also reject these two.
FIELD_VALUES = [*DIGIT_VALUES, "nan", ""]


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
