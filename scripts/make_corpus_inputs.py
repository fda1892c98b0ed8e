#!/usr/bin/env python3
"""Write the inputs of the frozen results corpus (tests/test_corpus.py).

The inputs are checked in under tests/data/corpus, so that a later change to
a generator cannot move them; this script records how they were made and is
run only to replace them:

* desk/: the toy desk fixture of the benchmark (`perfbench/fixtures.py`
  `build_desk` at the toy scale of `perfbench/workloads.py`), without its
  path manifest and planted direction, which no command reads;
* oracle-single.* and oracle-two.*: a single-direction and a two-direction
  20-d synthetic oracle (`ggsignal.synthetic.generate`), written with four
  decimals as the benchmark writes its oracles;
* corpus.json: the seeds and sizes the corpus test passes to the commands.

Example:
    python scripts/make_corpus_inputs.py tests/data/corpus
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fixtures  # noqa: E402  (perfbench/fixtures.py)
import workloads  # noqa: E402
from ggsignal.synthetic import SynthConfig, generate  # noqa: E402

DESK_SEED = 14
DESK_FILES = ("table.vec", "english.vec", "lexicon.tsv", "animate.txt", "stimuli.txt",
              "simlex.tsv", "simlex_english.tsv", "valence.tsv", "analogy.txt")
ORACLES = {
    "oracle-single": dict(dimension=20, per_class=300, signal_strength=5.0, noise_scale=0.5,
                          seed=10),
    "oracle-two": dict(dimension=20, per_class=300, signal_strength=5.0, noise_scale=0.5,
                       second_direction_strength=4.0, seed=11),
}


def main() -> int:
    out = Path(sys.argv[1])
    (out / "desk").mkdir(parents=True, exist_ok=True)
    size = workloads.TOY.desk
    with tempfile.TemporaryDirectory() as scratch:
        desk = fixtures.build_desk(Path(scratch), DESK_SEED, size)
        for name in DESK_FILES:
            shutil.copyfile(Path(desk.root, name), out / "desk" / name)
    for stem, fields in ORACLES.items():
        table, lexicon, _, _ = generate(SynthConfig(**fields))
        fixtures.write_vec(out / f"{stem}.vec", list(table.words), table.matrix)
        lines = [f"{w}\tF" for w in lexicon.feminine] + [f"{w}\tM" for w in lexicon.masculine]
        (out / f"{stem}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = {
        "desk": {"seed": DESK_SEED, "vocab_limit": size.vocab_limit,
                 "per_class": size.per_class, "sweep_per_gender": size.sweep_per_gender,
                 "pca_per_gender": size.pca_per_gender},
        "oracles": ORACLES,
    }
    (out / "corpus.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
