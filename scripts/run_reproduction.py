#!/usr/bin/env python3
"""Run the full measurement pipeline for one language against real data.

Drives the ggsignal CLI end to end: disentangle the embeddings, then run
every measurement command before/after, leaving all JSON reports and CSV
side files in the output directory. Expects the data layout described in
REPRODUCING.md. Every stimulus set the commands name is checked against
the packaged stimulus file before the first command runs; `valnorm` is
skipped, with a message, when the valence file or the language's
pleasant/unpleasant sets are absent.

Example:
    python scripts/run_reproduction.py --data-dir ~/ggdata --lang es --out runs/es
"""

import argparse
import sys
from pathlib import Path

from ggsignal.cli import _default_stimuli_path, main as ggsignal_main
from ggsignal.lexicon import load_stimuli

# Flags whose value names a stimulus set of the packaged stimulus file.
SET_FLAGS = ("--targets-x", "--targets-y", "--attributes-a", "--attributes-b",
             "--attributes-f", "--attributes-m", "--pleasant", "--unpleasant")


def invoke(argv: list[str]) -> None:
    print("+ ggsignal " + " ".join(argv))
    code = ggsignal_main(argv)
    if code != 0:
        raise SystemExit(f"command failed with exit code {code}")


def unpackaged_sets(argv: list[str], packaged) -> list[str]:
    """Values of SET_FLAGS in `argv` that name no set in `packaged`."""
    return [value for flag, value in zip(argv, argv[1:])
            if flag in SET_FLAGS and value not in packaged]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--lang", required=True, choices=("fr", "de", "it", "pl", "es"))
    parser.add_argument("--out", required=True, help="output directory for reports")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vocab-limit", type=int, default=200_000)
    args = parser.parse_args()

    data = Path(args.data_dir)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lang = args.lang
    seed = str(args.seed)
    limit = str(args.vocab_limit)

    raw = data / f"embeddings/cc.{lang}.300.vec"
    english = data / "embeddings/cc.en.300.vec"
    lexicon = data / f"lexicon/{lang}.tsv"
    animacy = data / f"lexicon/{lang}_animate.txt"
    simlex = data / f"simlex/{lang}.tsv"
    simlex_en = data / f"simlex/{lang}_english.tsv"
    disentangled = out / f"cc.{lang}.300.disentangled.vec"

    before_after = ["--before", str(raw), "--after", str(disentangled),
                    "--vocab-limit", limit, "--seed", seed, "--language", lang]
    loose = ["--on-missing", "drop", "--min-set-size", "5", "--trim-to-equal"]
    commands = [
        ["disentangle", "--embeddings", str(raw), "--lexicon", str(lexicon),
         "--animacy", str(animacy), "--vocab-limit", limit,
         "--seed", seed, "--language", lang,
         "--out-embeddings", str(disentangled),
         "--out-stack", str(out / "stack.txt"),
         "--report", str(out / "disentangle.json")],
        ["weat", "--targets-x", f"{lang}.gens.science",
         "--targets-y", f"{lang}.gens.humanities",
         "--attributes-a", f"{lang}.gens.men", "--attributes-b", f"{lang}.gens.women",
         *before_after, *loose, "--report", str(out / "gens.json")],
        ["weat", "--targets-x", f"{lang}.genc.men", "--targets-y", f"{lang}.genc.women",
         "--attributes-a", f"{lang}.genc.career", "--attributes-b", f"{lang}.genc.family",
         *before_after, *loose, "--report", str(out / "genc.json")],
        ["gg-weat", "--pairs", str(simlex), "--lexicon", str(lexicon),
         "--animacy", str(animacy),
         "--attributes-a", f"{lang}.gens.women", "--attributes-b", f"{lang}.gens.men",
         *before_after, *loose, "--report", str(out / "gg_weat.json")],
        ["sweep", "--lexicon", str(lexicon), "--animacy", str(animacy),
         "--attributes-f", f"{lang}.gens.women", "--attributes-m", f"{lang}.gens.men",
         "--per-gender", "2000", *before_after, *loose,
         "--out-csv", str(out / "sweep.csv"), "--report", str(out / "sweep.json")],
        ["pairdist", "--pairs-gendered", str(simlex), "--pairs-english", str(simlex_en),
         "--lexicon", str(lexicon), "--animacy", str(animacy),
         "--raw", str(raw), "--disentangled", str(disentangled),
         "--english", str(english), "--vocab-limit", limit,
         "--seed", seed, "--language", lang,
         "--report", str(out / "pairdist.json")],
        ["pca-coords", "--embeddings", str(raw), "--lexicon", str(lexicon),
         "--animacy", str(animacy), "--vocab-limit", limit, "--per-gender", "500",
         "--seed", seed, "--out-csv", str(out / "pca_before.csv"),
         "--report", str(out / "pca_before.json")],
        ["pca-coords", "--embeddings", str(disentangled), "--lexicon", str(lexicon),
         "--animacy", str(animacy), "--per-gender", "500",
         "--seed", seed, "--out-csv", str(out / "pca_after.csv"),
         "--report", str(out / "pca_after.json")],
    ]

    packaged = load_stimuli(_default_stimuli_path())
    valence = data / f"valence/{lang}.tsv"
    valnorm = ["valnorm", "--norms", str(valence),
               "--pleasant", f"{lang}.base.pleasant",
               "--unpleasant", f"{lang}.base.unpleasant",
               *before_after, *loose, "--report", str(out / "valnorm.json")]
    unpackaged = unpackaged_sets(valnorm, packaged)
    if not valence.exists():
        print(f"skipping valnorm: {valence} not found")
    elif unpackaged:
        print(f"skipping valnorm: packaged stimuli lack {', '.join(unpackaged)}")
    else:
        commands.append(valnorm)
    analogy = data / f"analogy/{lang}.txt"
    if analogy.exists():
        commands.append(["analogy", "--questions", str(analogy),
                         "--sections", "family,capital-common-countries",
                         *before_after, "--report", str(out / "analogy.json")])

    unpackaged = [key for argv in commands for key in unpackaged_sets(argv, packaged)]
    if unpackaged:
        raise SystemExit(f"packaged stimuli lack sets: {', '.join(unpackaged)}")
    for argv in commands:
        invoke(argv)
    print(f"all reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
