#!/usr/bin/env python3
"""Time the table I/O layers of ggsignal on a scratch N x 300 text table.

The table goes into a temporary directory and is laid out like the
benchmark's desk fixture (`perfbench/fixtures.py`): 3000 lexicon nouns per
class spread evenly through filler words down to the last row, values with
four decimals. With `--fasttext`, every line ends with a space, as in
fastText's `cc.<lang>.300.vec` files. The script then prints:

* us per skipped row: a load that keeps the first row and the last noun,
  so that it scans the whole file, over the rows it scans;
* us per kept row: a load that keeps every row;
* lexicon load s: a load that keeps 3000 rows plus every noun, as the
  commands that need the lexicon load;
* cli._digest s: the SHA-256 digest of the file;
* save_table us per row: writing the whole table.

The program timed is the `src/ggsignal` of the checkout holding this
script. Example:

    python scripts/time_table_io.py --rows 200000 --fasttext
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ggsignal import cli  # noqa: E402
from ggsignal.embeddings import load_table, save_table  # noqa: E402

DIMENSION = 300
NOUNS = 6000       # 3000 per class
VOCAB_LIMIT = 3000
BLOCK = 4096


def write_table(path: Path, rows: int, fasttext: bool) -> list[str]:
    """Writes the table and returns its nouns, in file order."""
    nouns = min(NOUNS, rows // 2)
    noun_at = set(((np.arange(nouns) * rows) // nouns + rows // nouns - 1).tolist())
    words = [f"n{i:05d}" for i in range(nouns)]
    fillers = iter(f"w{i:07d}" for i in range(rows))
    nouns_left = iter(words)
    end = " \n" if fasttext else "\n"
    row_format = " ".join(["%.4f"] * DIMENSION)
    rng = np.random.default_rng(0)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{rows} {DIMENSION}\n")
        for start in range(0, rows, BLOCK):
            values = rng.standard_normal((min(BLOCK, rows - start), DIMENSION)).tolist()
            handle.write("".join(
                (next(nouns_left) if start + i in noun_at else next(fillers))
                + " " + row_format % tuple(row) + end
                for i, row in enumerate(values)))
    return words


def timed(call) -> tuple[float, object]:
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=200_000)
    parser.add_argument("--fasttext", action="store_true",
                        help="end every line with a space, as fastText does")
    args = parser.parse_args()
    if args.rows < 2:
        parser.error("--rows must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "table.vec")
        nouns = write_table(path, args.rows, args.fasttext)
        print(f"table: {args.rows} x {DIMENSION}, {path.stat().st_size} bytes, "
              f"{len(nouns)} nouns to the last row, fasttext={args.fasttext}")
        seconds, table = timed(lambda: load_table(path, vocab_limit=1,
                                                  required_words=nouns[-1:]))
        assert len(table) == 2
        print(f"us per skipped row: {1e6 * seconds / args.rows:.2f}")
        seconds, table = timed(lambda: load_table(path, vocab_limit=VOCAB_LIMIT,
                                                  required_words=nouns))
        print(f"lexicon load s: {seconds:.3f} ({len(table)} rows kept)")
        del table
        seconds, _ = timed(lambda: cli._digest(path))
        print(f"cli._digest s: {seconds:.3f}")
        seconds, table = timed(lambda: load_table(path))
        print(f"us per kept row: {1e6 * seconds / len(table):.2f}")
        seconds, _ = timed(lambda: save_table(table, Path(tmp, "saved.vec")))
        print(f"save_table us per row: {1e6 * seconds / len(table):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
