"""Word-embedding tables: loading, saving, lookup, cosine similarity.

The on-disk format is the plain text vector format: a header line
``<count> <dimension>`` followed by one ``<word> v1 ... vD`` line per word,
UTF-8, space separated. Vectors are stored exactly as loaded; nothing is
pre-normalized, because the projection step operates on raw vectors and
cosine normalizes on the fly. Every output file of the package is written
through `atomic_open`, so an interrupted write never leaves a partial file
under the final name.
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


class EmbeddingTable:
    """Vocabulary-indexed dense vectors of one fixed dimension.

    Immutable after construction; the disentangler produces transformed
    copies rather than mutating in place, so tables are safe to share
    across threads for reads.
    """

    def __init__(self, words: Sequence[str], matrix: np.ndarray,
                 missing_required: tuple[str, ...] = ()):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise FormatError("embedding table needs at least one entry")
        if len(words) != matrix.shape[0]:
            raise FormatError("word list and matrix row count disagree")
        if not np.all(np.isfinite(matrix)):
            raise FormatError("embedding table contains non-finite values")
        index: dict[str, int] = {}
        for i, w in enumerate(words):
            if w in index:
                raise FormatError(f"duplicate word in table: {w!r}")
            index[w] = i
        self._words = tuple(words)
        self._index = index
        self._matrix = matrix
        self._matrix.setflags(write=False)
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

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def vector(self, word: str) -> np.ndarray:
        """Vector for `word`. Lookup is case-sensitive, as stimuli are."""
        i = self._index.get(word)
        if i is None:
            raise MissingWordsError("vector lookup", [word])
        return self._matrix[i]

    def missing(self, words: Iterable[str]) -> list[str]:
        """Subsequence of `words` that have no entry, original order kept."""
        return [w for w in words if w not in self._index]

    def rows(self, words: Sequence[str]) -> np.ndarray:
        """Stack of vectors for `words`; raises naming any absent word."""
        absent = self.missing(words)
        if absent:
            raise MissingWordsError("row gather", absent)
        return self._matrix[[self._index[w] for w in words]]

    def zero_norm_words(self) -> list[str]:
        """Words whose vector is all-zero (e.g. annihilated by projection)."""
        return [w for i, w in enumerate(self._words) if not np.any(self._matrix[i])]

    def with_matrix(self, matrix: np.ndarray) -> "EmbeddingTable":
        """Same vocabulary over a replacement matrix (bulk transform result)."""
        return EmbeddingTable(self._words, matrix)


def cosine(a, b) -> float:
    """Cosine similarity of two array-like vectors.

    Raises ZeroVectorError for an all-zero argument: a zero norm signals a
    word annihilated by projection and must not pass silently as 0.0.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    na = math.sqrt(float(va @ va))
    nb = math.sqrt(float(vb @ vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("zero-norm vector in cosine")
    return float(va @ vb) / (na * nb)


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
    first occurrence. Any malformed line aborts the load: silent skipping
    would hide data corruption.
    """
    path = Path(path)
    if vocab_limit is not None and vocab_limit <= 0:
        raise ValueError("vocab_limit must be positive")
    required = set(required_words or ())
    words: list[str] = []
    vectors: list[np.ndarray] = []
    seen: set[str] = set()
    pending = set(required)
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        if not header:
            raise FormatError(f"{path}: empty file")
        _, dim = _parse_header(header.rstrip("\r\n"), path)
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
                pending.discard(word)
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
    missing = tuple(sorted(pending))
    if missing:
        log.warning("%s: %d required words absent from file: %s",
                    path, len(missing), ", ".join(missing[:10]))
    return EmbeddingTable(words, np.vstack(vectors), missing_required=missing)


def save_table(table: EmbeddingTable, path) -> None:
    """Write `table` in the same text format load_table accepts.

    Values carry six significant digits; load(save(t)) reproduces the
    vocabulary exactly and every cosine similarity within 1e-5.
    """
    with atomic_open(path) as handle:
        handle.write(f"{len(table)} {table.dimension}\n")
        matrix = table.matrix
        for i, word in enumerate(table.words):
            values = " ".join(_SAVE_FORMAT % v for v in matrix[i])
            handle.write(f"{word} {values}\n")
