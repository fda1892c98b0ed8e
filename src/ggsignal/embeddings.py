"""Word-embedding tables: loading, saving, lookup, row norms and unit rows,
and the one rule (`EmbeddingTable.resolve`) that drops or reports words
without a usable vector.

The on-disk format is the plain text vector format: a header line
``<count> <dimension>`` followed by one ``<word> v1 ... vD`` line per word,
UTF-8, space separated. Vectors are stored exactly as loaded; nothing is
pre-normalized, because the projection step operates on raw vectors. A table
computes its row norms once, and `unit_rows` divides by them for every cosine.
Every output file of the package is written through `atomic_open`, so an
interrupted write never leaves a partial file under the final name.
"""

from __future__ import annotations

import logging
import math
import os
import uuid
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, MissingWordsError, ZeroVectorError

log = logging.getLogger(__name__)

# Serialization precision for save_table: six significant digits, the common
# precision of public vector files. Round-tripping preserves cosines to ~1e-6.
_SAVE_FORMAT = "%.6g"

# Kept rows are converted to float64, and table rows normed, this many at a
# time, which bounds the value text and the squares held in memory.
_BLOCK_ROWS = 4096

# loadtxt strips the information separators U+001C..U+001F around a number as
# whitespace; float() does not, and a value carrying them is not a number of
# this format.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


class EmbeddingTable:
    """Vocabulary-indexed dense vectors of one fixed dimension.

    Immutable after construction; the disentangler produces transformed
    copies rather than mutating in place, so tables are safe to share
    across threads for reads. A row whose values are not finite, or whose
    squares overflow, is rejected.
    """

    def __init__(self, words: Sequence[str], matrix: np.ndarray,
                 missing_required: tuple[str, ...] = ()):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise FormatError("embedding table needs at least one entry")
        if len(words) != matrix.shape[0]:
            raise FormatError("word list and matrix row count disagree")
        norms = np.empty(matrix.shape[0])
        with np.errstate(over="ignore"):
            for start in range(0, len(norms), _BLOCK_ROWS):
                norms[start:start + _BLOCK_ROWS] = np.linalg.norm(
                    matrix[start:start + _BLOCK_ROWS], axis=1)
        # A norm is inf or nan exactly when its row holds one or its squares overflow.
        if not np.isfinite(norms).all():
            raise FormatError("embedding table contains non-finite values "
                              "or a row whose norm overflows")
        index: dict[str, int] = {}
        for i, w in enumerate(words):
            if w in index:
                raise FormatError(f"duplicate word in table: {w!r}")
            index[w] = i
        self._words = tuple(words)
        self._index = index
        self._matrix = matrix
        self._matrix.setflags(write=False)
        self._norms = norms
        self._norms.setflags(write=False)
        self.missing_required = missing_required

    @property
    def dimension(self) -> int:
        return self._matrix.shape[1]

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    @property
    def matrix(self) -> np.ndarray:
        """Read-only (n, dimension) float64 view of all vectors, row per word."""
        return self._matrix

    @property
    def norms(self) -> np.ndarray:
        """Read-only norm of each row, computed once; 0 for a row without a
        direction, all-zero or with squares that underflow."""
        return self._norms

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index_of(self, word: str) -> int | None:
        """Row of `word` in `matrix` (case-sensitive), or None when absent."""
        return self._index.get(word)

    def usable(self, word: str) -> bool:
        """True when `word` is in the table and its norm is > 0, so that its
        cosine with another vector is defined."""
        i = self._index.get(word)
        return i is not None and self._norms[i] > 0.0

    def resolve(self, words: Sequence[str], context: str, on_missing: str) -> list[str]:
        """Subsequence of `words` that are `usable`, original order kept.

        Under "error", absent words raise MissingWordsError and then zero-norm
        words raise ZeroVectorError, each naming every such word; under "drop"
        both kinds are dropped with a warning. `context` leads each message.
        """
        if on_missing not in ("error", "drop"):
            raise ValueError(f"unknown on_missing policy {on_missing!r}")
        absent = [w for w in words if w not in self._index]
        if absent and on_missing == "error":
            raise MissingWordsError(context, absent)
        zero = [w for w in words if w in self._index and not self.usable(w)]
        if zero and on_missing == "error":
            raise ZeroVectorError(f"{context}: zero-norm vectors for: {', '.join(zero)}")
        if absent:
            log.warning("%s: dropping %d missing words: %s", context, len(absent),
                        ", ".join(absent))
        if zero:
            log.warning("%s: dropping zero-norm vectors (annihilated words): %s",
                        context, ", ".join(zero))
        return [w for w in words if self.usable(w)]

    def _indices(self, words: Sequence[str]) -> list[int]:
        absent = [w for w in words if w not in self._index]
        if absent:
            raise MissingWordsError("row gather", absent)
        return [self._index[w] for w in words]

    def rows(self, words: Sequence[str]) -> np.ndarray:
        """Stack of vectors for `words` (case-sensitive); raises naming any absent word."""
        return self._matrix[self._indices(words)]

    def unit_rows(self, words: Sequence[str]) -> np.ndarray:
        """Stack of the vectors of `words` divided by their norms.

        The dot product of two unit rows is the cosine of their words. Raises
        MissingWordsError naming absent words and ZeroVectorError naming
        words whose vector has norm zero.
        """
        idx = self._indices(words)
        norms = self._norms[idx]
        if not norms.all():
            zero = [w for w, norm in zip(words, norms) if norm == 0.0]
            raise ZeroVectorError(f"zero-norm vectors for: {', '.join(zero)}")
        return self._matrix[idx] / norms[:, None]

    def zero_norm_words(self) -> list[str]:
        """Words whose vector has norm zero (e.g. annihilated by projection)."""
        return [self._words[i] for i in np.flatnonzero(self._norms == 0.0)]

    def with_matrix(self, matrix: np.ndarray) -> "EmbeddingTable":
        """Same vocabulary over a replacement matrix (bulk transform result)."""
        return EmbeddingTable(self._words, matrix)


def _parse_header(line: str, path: Path, min_count: int = 1) -> tuple[int, int]:
    """`<count> <dimension>` of a text vector or stack file."""
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"{path}: malformed header {line!r}, expected '<count> <dimension>'")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"{path}: non-integer header {line!r}") from None
    if count < min_count or dim <= 0:
        raise FormatError(f"{path}: header needs count >= {min_count} and a positive "
                          f"dimension, got {line!r}")
    return count, dim


@contextmanager
def atomic_open(path):
    """Text handle whose content replaces `path` only when the block completes.

    Writes go to a temporary file with a unique name beside `path`, so
    concurrent writers never share one; it is renamed over `path` on success
    and deleted on any exception.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_table(path, vocab_limit: int | None = None,
               required_words: Iterable[str] | None = None) -> EmbeddingTable:
    """Load a text vector file.

    Keeps the first `vocab_limit` entries (all of them when None) plus every
    word from `required_words` found anywhere in the file. Required words not
    present in the file are reported on the returned table's
    `missing_required` and logged, never invented. Duplicate words keep their
    first occurrence. Any malformed line aborts the load with a FormatError
    naming its line number: silent skipping would hide data corruption.

    Fields are separated by single or repeated spaces; leading and trailing
    spaces, CRLF line ends and blank lines are ignored. Every non-blank line,
    kept or skipped, must hold the word plus `dimension` fields. Values are
    finite decimal numbers in ASCII digits (`1.5`, `-2e-3`, `.5`); digit
    separators such as `1_0` and non-ASCII digits are rejected. A load that
    reads to the end of the file checks that the number of non-blank data
    lines equals the header's count, so a truncated or overlong file fails.
    A load that stops early, because `vocab_limit` entries and every required
    word are in, does not read the rest and cannot check it.
    """
    path = Path(path)
    if vocab_limit is not None and vocab_limit <= 0:
        raise ValueError("vocab_limit must be positive")
    limit = math.inf if vocab_limit is None else vocab_limit
    required = set(required_words or ())
    words: list[str] = []
    seen: set[str] = set()
    pending = set(required)
    blocks: list[np.ndarray] = []
    texts: list[str] = []      # value fields of kept rows not yet converted
    linenos: list[int] = []

    def convert() -> None:
        if texts:
            blocks.append(_parse_block(path, texts, linenos, dim))
            texts.clear()
            linenos.clear()

    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        if not header:
            raise FormatError(f"{path}: empty file")
        count, dim = _parse_header(header.rstrip("\r\n"), path)
        rows = 0
        for lineno, raw in enumerate(handle, start=2):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            rows += 1
            line = line.strip(" ")
            if "  " in line:
                line = " ".join([t for t in line.split(" ") if t])
            fields = line.count(" ") + 1 if line else 0
            if fields != dim + 1:
                convert()  # an earlier bad value is reported first
                raise FormatError(
                    f"{path}:{lineno}: expected {dim + 1} fields, got {fields}")
            word = line[:line.index(" ")]
            if word in seen or (len(words) >= limit and word not in required):
                continue
            words.append(word)
            seen.add(word)
            pending.discard(word)
            texts.append(line[len(word) + 1:])
            linenos.append(lineno)
            if len(texts) == _BLOCK_ROWS:
                convert()
            if len(words) >= limit and not pending:
                break
        else:
            if rows != count:
                raise FormatError(f"{path}: header promises {count} rows, "
                                  f"file holds {rows}")
    convert()
    missing = tuple(sorted(pending))
    if missing:
        log.warning("%s: %d required words absent from file: %s",
                    path, len(missing), ", ".join(missing[:10]))
    return EmbeddingTable(words, np.concatenate(blocks), missing_required=missing)


def _parse_values(texts: list[str], dim: int) -> np.ndarray:
    """(len(texts), dim) float64 rows from single-space separated value texts.

    Raises ValueError naming what is wrong when any row is not `dim` finite
    numbers.
    """
    if any(ch in text for text in texts for ch in _SEPARATORS):
        raise ValueError("non-numeric value")
    try:
        rows = np.loadtxt(texts, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        raise ValueError("non-numeric value") from None
    if rows.shape != (len(texts), dim):
        raise ValueError("non-numeric value")
    if not np.isfinite(rows).all():
        raise ValueError("non-finite value")
    return rows


def _parse_block(path: Path, texts: list[str], linenos: list[int], dim: int) -> np.ndarray:
    """`_parse_values` of a block; on failure, FormatError for its first bad line."""
    try:
        return _parse_values(texts, dim)
    except ValueError:
        pass
    rows = []
    for text, lineno in zip(texts, linenos):
        try:
            rows.append(_parse_values([text], dim))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return np.concatenate(rows)


def save_table(table: EmbeddingTable, path) -> None:
    """Write `table` in the same text format load_table accepts.

    Values carry six significant digits (`%.6g`), one row per line, written
    through `atomic_open`; load(save(t)) reproduces the vocabulary exactly and
    every cosine similarity within 1e-5.
    """
    row_format = " ".join([_SAVE_FORMAT] * table.dimension)
    with atomic_open(path) as handle:
        handle.write(f"{len(table)} {table.dimension}\n")
        for word, row in zip(table.words, table.matrix):
            handle.write(f"{word} {row_format % tuple(row.tolist())}\n")
