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

import codecs
import copy
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
# time, which bounds the value text, the parsed floats and the squares held in
# memory beside the table's one matrix.
_BLOCK_ROWS = 1024

# load_table reads its file a chunk of whole lines at a time, this many bytes
# per field of a block's rows: about _BLOCK_ROWS / 2 lines of 8-byte values
# (`-0.0123 `). A chunk's uint16 space counts take twice its bytes, so the
# chunk and its counts hold about as much memory as a block of floats.
_CHUNK_FIELD_BYTES = 4

# Bytes checked as UTF-8 per call, bounding the text decoded at once, and read
# per `_read_lines` chunk.
_CHECK_BYTES = 1 << 16

# loadtxt strips the information separators U+001C..U+001F around a number as
# whitespace; float() does not, and a value carrying them is not a number of
# this format.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


class EmbeddingTable:
    """Vocabulary-indexed dense vectors of one fixed dimension.

    Immutable after construction; the disentangler produces transformed
    copies rather than mutating in place, so tables are safe to share
    across threads for reads. A row whose values are not finite, or whose
    squares overflow, is rejected. A table may have no rows: a load that
    keeps only the words a command names gives one when the file holds none
    of them, and lookups then report every word missing.
    """

    def __init__(self, words: Sequence[str], matrix: np.ndarray,
                 missing_required: tuple[str, ...] = ()):
        self._matrix, self._norms = _checked_matrix(matrix, len(words))
        index: dict[str, int] = {}
        for i, w in enumerate(words):
            if w in index:
                raise FormatError(f"duplicate word in table: {w!r}")
            index[w] = i
        self._words = tuple(words)
        self._index = index
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
        rows = self._matrix[idx]
        rows /= norms[:, None]
        return rows

    def zero_norm_words(self) -> list[str]:
        """Words whose vector has norm zero (e.g. annihilated by projection)."""
        return [self._words[i] for i in np.flatnonzero(self._norms == 0.0)]

    def with_matrix(self, matrix: np.ndarray) -> "EmbeddingTable":
        """Same vocabulary over a replacement matrix (bulk transform result).

        The word tuple and word-to-row index are shared with this table, not
        rebuilt; the matrix is checked and normed as the constructor does.
        """
        table = copy.copy(self)
        table._matrix, table._norms = _checked_matrix(matrix, len(self._words))
        table.missing_required = ()
        return table


def _checked_matrix(matrix: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 `matrix` and its row norms, computed in blocks.

    Raises FormatError unless `matrix` is 2-d with `rows` rows, every value
    finite and no row's squares overflowing.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise FormatError("embedding matrix must be 2-d")
    if rows != matrix.shape[0]:
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
    matrix.setflags(write=False)
    norms.setflags(write=False)
    return matrix, norms


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


def _invalid_utf8(path) -> FormatError:
    return FormatError(f"{path}:{_first_invalid_line(path)}: invalid UTF-8")


def _first_invalid_line(path) -> int:
    """Line number of the first byte of `path` that is not UTF-8, with lines
    ended by LF, CRLF or a lone CR as text reading ends them."""
    lineno = 1
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return lineno + len((raw[:exc.start] + b"x").splitlines()) - 1
            lineno += len((raw + b"x").splitlines()) - 1
    return lineno


class _LineReader:
    """A file read in chunks of whole lines, each into the same buffer.

    Lines end as text-mode reading ends them, at LF, CRLF or a lone CR, and
    the last one may have no end. The reader checks the bytes as UTF-8 as it
    reads them: a byte that is not UTF-8 anywhere in what it has read, or a
    character cut short by the end of the file, raises FormatError naming
    the line of the file's first bad byte, and so does a byte-order mark at
    the start of the first chunk.
    """

    def __init__(self, handle, path):
        self.buf = bytearray()
        self._handle = handle
        self._path = path
        self._held = 0      # bytes of the file in buf
        self._taken = 0     # bytes of buf returned as lines
        self._checked = 0   # bytes of buf that are whole UTF-8 characters
        self._eof = False
        self._first = True

    def next(self, size: int) -> int:
        """End of the next chunk, which starts at buf[0]: the whole lines in
        its first `size` bytes, or one longer line. 0 once the file is read."""
        buf = self.buf
        rest = self._held - self._taken
        buf[:rest] = buf[self._taken:self._held]
        self._checked -= self._taken
        self._held, self._taken = rest, 0
        while True:
            # A line may end at the last byte read only at the end of the
            # file: a CR there may be the first half of a CRLF.
            ready = self._held if self._eof else self._held - 1
            if self._eof and ready <= size or ready <= 0:
                end = ready
            else:
                end = _lines_end(buf, min(ready, size))
                if not end:  # a line longer than `size`
                    lf = buf.find(b"\n", size, ready)
                    end = lf + 1 if lf >= 0 else ready if self._eof else _lines_end(buf, ready)
            if end > 0:
                if self._first and buf.startswith(codecs.BOM_UTF8, 0, end):
                    raise FormatError(f"{self._path}: starts with a byte-order mark")
                self._first = False
                self._taken = end
                return end
            if self._eof:
                return 0
            self._fill(size)

    def _fill(self, size: int) -> None:
        """Fills the buffer, made `size` + 1 bytes or twice as long when it
        is full, and checks the bytes read."""
        buf = self.buf
        room = max(size + 1, 2 * len(buf) if self._held == len(buf) else 0)
        if room > len(buf):
            buf.extend(bytes(room - len(buf)))
        got = self._handle.readinto(memoryview(buf)[self._held:])
        self._held += got
        self._eof = not got
        pos = stop = self._checked
        try:
            while stop < self._held:
                stop = min(pos + _CHECK_BYTES, self._held)
                pos += codecs.utf_8_decode(memoryview(buf)[pos:stop], "strict", False)[1]
        except UnicodeDecodeError:
            raise _invalid_utf8(self._path) from None
        self._checked = pos
        if self._eof and self._checked < self._held:
            raise _invalid_utf8(self._path)


def _read_lines(path) -> list[tuple[int, str]]:
    """Every line of a UTF-8 text file, numbered from 1 and without its end,
    read through `_LineReader`, so under the rules of `load_table`."""
    lines: list[str] = []
    with open(path, "rb") as handle:
        reader = _LineReader(handle, path)
        while end := reader.next(_CHECK_BYTES):
            # bytes.splitlines ends lines at LF, CRLF and a lone CR, as text
            # mode does; str.splitlines also ends them at U+001C..U+001F,
            # U+0085 and U+2028.
            lines += [line.decode() for line in reader.buf[:end].splitlines()]
    return list(enumerate(lines, start=1))


def _lines_end(buf: bytearray, end: int) -> int:
    """Position after the last line end in buf[:end], 0 when there is none.
    buf[end] is known, so a CR at end - 1 ends a line unless an LF follows."""
    lf = buf.rfind(b"\n", 0, end)
    cr = buf.rfind(b"\r", 0, end)
    if cr == end - 1 > lf and buf[end] == 10:
        cr = buf.rfind(b"\r", 0, cr)
    return max(lf, cr) + 1


def _regular_lines(buf: bytearray, start: int, end: int, dim: int) -> tuple[list, list]:
    """Line ends in buf[start:end], each with whether its line is regular.

    The ends are the positions of the LFs, then `end` when the last line has
    none. A regular line is not blank, starts with no space, holds no CR but
    one right before its LF and no two spaces in a row, and has `dim` spaces
    besides one before its line end: it is a word and `dim` single-space
    separated fields.
    """
    data = np.frombuffer(buf, np.uint8, end - start, start)
    lf = np.flatnonzero(data == 10)
    ends = (lf + start).tolist()
    if end > start and buf[end - 1] != 10:  # a last line without an LF
        ends.append(end)
    # No line below the 65536-byte cap has 65535 spaces, so with so many
    # fields every line is irregular.
    if not len(lf) or dim >= 65535:
        return ends, [False] * len(ends)
    starts = np.concatenate(([0], lf[:-1] + 1))
    # Spaces are counted in uint16, which holds the count of a line shorter
    # than 65536 bytes and needs no copy: a longer line is not regular.
    spaces = np.equal(data[:lf[-1] + 1], 32, out=np.empty(lf[-1] + 1, np.uint16),
                      casting="unsafe")
    spaces = np.add.reduceat(spaces, starts, dtype=np.uint16)
    # Two spaces in a row are a uint16 0x2020 at an even or an odd offset.
    irregular = [np.flatnonzero(data[i:i + (len(data) - i) // 2 * 2].view(np.uint16) == 0x2020)
                 * 2 + i for i in (0, 1)]
    last = lf  # where each line's fields end: its LF, or the CR of a CRLF
    if buf.find(b"\r", start, end) >= 0:
        last = lf - (data[lf - 1] == 13)
        cr = np.flatnonzero(data == 13)
        irregular.append(cr[data[np.minimum(cr + 1, len(data) - 1)] != 10])  # lone CRs
    regular = ((spaces == dim + (data[last - 1] == 32)) & (data[starts] != 32)
               & (last > starts) & (lf - starts < 65536))
    lines = np.searchsorted(lf, np.concatenate(irregular))
    regular[lines[lines < len(lf)]] = False
    return ends, regular.tolist() + [False] * (len(ends) - len(lf))


def _split_row(line: str) -> tuple[int, str, str]:
    """Field count, word and single-space separated value text of a line
    whose fields are separated by runs of spaces."""
    line = line.strip(" ")
    if "  " in line:
        line = " ".join([t for t in line.split(" ") if t])
    word, _, text = line.partition(" ")
    return line.count(" ") + 1 if line else 0, word, text


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
               required_words: Iterable[str] | None = None, *,
               required_only: bool = False) -> EmbeddingTable:
    """Load a text vector file.

    Counts the first `vocab_limit` entries (all of them when None) plus every
    word from `required_words` found anywhere in the file, and keeps them
    all; with `required_only`, it keeps only the required words among them,
    for a caller that looks up nothing else. A counted row that is not kept
    is never parsed, but it counts toward `vocab_limit` as a kept one does,
    so both kinds of load read the same lines and stop at the same one.
    Required words not present in the file are reported on the returned
    table's `missing_required` and logged, never invented. Duplicate words
    count and keep their first occurrence. Any malformed line aborts the
    load with a FormatError naming its line number: silent skipping would
    hide data corruption.

    Fields are separated by single or repeated spaces; leading and trailing
    spaces, CRLF line ends and blank lines are ignored. Every non-blank line
    the load reads, kept or not, must hold the word plus `dimension` fields.
    The values of a kept row are finite decimal numbers in ASCII digits
    (`1.5`, `-2e-3`, `.5`); digit separators such as `1_0` and non-ASCII
    digits are rejected. No other row's values are parsed or checked. A
    load that reads to the end of the file checks that the number of
    non-blank data lines equals the header's count, so a truncated or
    overlong file fails; a file that counts more rows than its header
    promises fails at the first extra counted row. A load that stops early,
    because `vocab_limit` entries and every required word are in, does not
    read the rest and cannot check it. A `required_only` load of a file
    that holds none of the required words gives an empty table.

    Reading: the file is read one bounded chunk of whole lines at a time,
    about `_BLOCK_ROWS / 2` lines, into one reused buffer (`_LineReader`).
    Each chunk is checked as UTF-8 once, and one numpy pass over it finds
    its lines and the regular ones: a word and `dimension` fields, each
    after a single space, with one more space allowed before the line end,
    as fastText writes, and an LF or CRLF end. A regular line costs a search
    for its word and one lookup; only a kept row's values are decoded. Every
    other line (blank, with a lone CR, a run of spaces, a leading space or a
    wrong field count) takes the per-line rule above, so tables, messages,
    line numbers and the line where a load stops are those of reading the
    file line by line in text mode. One exception: a byte that is not UTF-8 fails the load as soon as
    the chunk holding it is read, past the line where the load would stop
    and before a malformed line earlier in the chunk.

    Memory: the matrix is allocated once, for the fewest rows the header,
    the file's size and `vocab_limit` plus the required words allow, or the
    required words alone under `required_only`, and filled `_BLOCK_ROWS`
    kept rows at a time; the load peaks at about the matrix's bytes plus one
    block of value text and floats plus one chunk with its space counts,
    plus the counted words. A header that claims more rows than the file
    can hold allocates no more than the file allows.
    """
    path = Path(path)
    if vocab_limit is not None and vocab_limit <= 0:
        raise ValueError("vocab_limit must be positive")
    limit = math.inf if vocab_limit is None else vocab_limit
    required = set(required_words or ())
    words: list[str] = []      # kept rows
    seen: set[str] = set()     # counted rows
    pending = set(required)
    texts: list[str] = []      # value fields of kept rows not yet converted
    linenos: list[int] = []

    def convert() -> None:
        if texts:
            matrix[len(words) - len(texts):len(words)] = _parse_block(path, texts, linenos, dim)
            texts.clear()
            linenos.clear()

    def wanted(word: str) -> bool:
        return word not in seen and (len(seen) < limit or word in required)

    def counted(word: str, lineno: int) -> bool:
        """Counts a wanted row; True once every row the load wants is in."""
        if len(seen) == count:
            convert()  # an earlier bad value is reported first
            raise FormatError(f"{path}:{lineno}: header promises {count} rows, "
                              f"file holds at least {count + 1}")
        seen.add(word)
        pending.discard(word)
        return len(seen) >= limit and not pending

    def keep(word: str, text: str, lineno: int) -> bool:
        """Counts and keeps a wanted row; True as `counted`."""
        done = counted(word, lineno)
        words.append(word)
        texts.append(text)
        linenos.append(lineno)
        if len(texts) == _BLOCK_ROWS:
            convert()
        return done

    with open(path, "rb") as handle:
        reader = _LineReader(handle, path)
        buf = reader.buf
        end = reader.next(_BLOCK_ROWS * _CHUNK_FIELD_BYTES)
        if not end:
            raise FormatError(f"{path}: empty file")
        header = buf[:end].splitlines(keepends=True)[0]
        count, dim = _parse_header(header.decode().rstrip("\r\n"), path)
        # A data line takes dim + 1 fields of a byte or more, dim separators
        # and a line end (which the header's four or more bytes cover for a
        # last line without one), so the file holds at most this many rows.
        size = os.fstat(handle.fileno()).st_size
        file_rows = size // (2 * (dim + 1))
        # Kept rows never outnumber the required words under required_only,
        # nor the counted rows, which a load stops counting at `count`.
        capacity = min(count, len(required) if required_only else limit + len(required),
                       file_rows)
        # A file with no room for a row may claim a dimension no array can have.
        matrix = np.empty((capacity, dim if capacity else 0))
        # No line of 65535 fields or more is regular (`_regular_lines`), so
        # chunks are sized for at most that many; none outgrows the file.
        chunk = min(_BLOCK_ROWS * _CHUNK_FIELD_BYTES * (min(dim, 65535) + 1), size)
        rows = 0
        lineno = 1
        pos = len(header)
        done = False
        while end and not done:
            for stop, regular in zip(*_regular_lines(buf, pos, end, dim)):
                if regular:
                    lineno += 1
                    rows += 1
                    space = buf.find(b" ", pos, stop)
                    word = buf[pos:space].decode()
                    if wanted(word):
                        if required_only and word not in required:
                            done = counted(word, lineno)
                        else:
                            last = stop - (buf[stop - 1] == 13)  # the CR of a CRLF
                            last -= buf[last - 1] == 32  # fastText ends lines with a space
                            done = keep(word, buf[space + 1:last].decode(), lineno)
                else:
                    # Blank, irregular and malformed lines take the per-line
                    # rule; lone CRs split the text before an LF into lines.
                    line = buf[pos:stop]
                    for raw in line.splitlines() if b"\r" in line else (line,):
                        lineno += 1
                        if not raw:
                            continue
                        rows += 1
                        fields, word, text = _split_row(raw.decode())
                        if fields != dim + 1:
                            convert()  # an earlier bad value is reported first
                            raise FormatError(
                                f"{path}:{lineno}: expected {dim + 1} fields, got {fields}")
                        if not wanted(word):
                            continue
                        if required_only and word not in required:
                            done = counted(word, lineno)
                        else:
                            done = keep(word, text, lineno)
                        if done:
                            break
                if done:
                    break
                pos = stop + 1
            if not done:
                end = reader.next(chunk)
                pos = 0
        if not done and rows != count:
            raise FormatError(f"{path}: header promises {count} rows, "
                              f"file holds {rows}")
    del reader, buf  # the chunk buffer goes before the last block is parsed
    convert()
    matrix.resize((len(words), dim), refcheck=False)
    missing = tuple(sorted(pending))
    if missing:
        log.warning("%s: %d required words absent from file: %s",
                    path, len(missing), ", ".join(missing[:10]))
    try:
        return EmbeddingTable(words, matrix, missing_required=missing)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_values(texts: list[str], dim: int) -> np.ndarray:
    """(len(texts), dim) float64 rows from single-space separated value texts.

    Raises ValueError naming what is wrong when any row is not `dim` finite
    numbers.
    """
    # One scan of the block's joined text, which is freed before loadtxt runs.
    if any(map("".join(texts).__contains__, _SEPARATORS)):
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
