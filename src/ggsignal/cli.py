"""Command-line entry point.

Every subcommand handler loads its inputs, writes any side outputs (tables,
stacks, CSV files) and returns its result payload; `main` then writes one
JSON report that echoes the full configuration, the seed, and a digest of
every input file, so any run can be reproduced from its own report. The
report goes to --report when given, to stdout otherwise; exit status is 0
exactly when the full report was written.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every flag that names an input file has the type `_input`: a relative path
missing from the working directory is also tried under $GGSIGNAL_DATA, and
the report echoes and digests the path as resolved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import re
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Callable

from . import __version__
from .association import PermutationConfig, sc_weat, weat
from .classifier import TrainConfig
from .disentangler import (DisentangleConfig, HyperplaneStack, run as run_disentangle,
                           save_stack)
from .embeddings import EmbeddingTable, atomic_open, load_table, save_table
from .errors import NumericError, PipelineError
from .evaluations import (GG_MIN_TARGETS, GgWeatSpec, build_gg_targets, gg_weat,
                          analogy_accuracy, pairwise_gap, principal_coordinates,
                          sc_gg_sweep, valnorm)
from .lexicon import (GenderLexicon, StimulusSet, balanced_sample, load_analogies,
                      load_gender_lexicon, load_similarity_pairs, load_stimuli,
                      load_valence_norms, require_sets)
from .seeding import derive_seed
from .synthetic import SynthConfig, generate

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

ENV_DATA_DIR = "GGSIGNAL_DATA"


class UsageError(Exception):
    pass


# Every negative decimal, exponent, inf and nan literal: argparse's own
# pattern takes only `-1` and `-.5`, and reads `-1e-4` or `-inf` as an option
# name. A value it matches reaches the flag's type or configuration check.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)


def _at_least(minimum: int) -> Callable[[str], int]:
    """Argument type: an integer no smaller than `minimum`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _finite(text: str) -> float:
    """Argument type: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _input(text: str) -> Path:
    """Argument type of a flag that names a file the command reads: the
    path, or the relative path under $GGSIGNAL_DATA when only that exists."""
    path = Path(text)
    if not path.exists() and not path.is_absolute():
        base = os.environ.get(ENV_DATA_DIR)
        if base and (Path(base) / path).exists():
            return Path(base) / path
    return path


def _config(factory: Callable, **fields):
    """`factory(**fields)`; a field value the configuration rejects is a usage
    error, reported in the configuration's words."""
    try:
        return factory(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _atomic_write_text(path, text: str) -> None:
    with atomic_open(path) as handle:
        handle.write(text)


def _write_report(args, argv: list[str], results: dict) -> None:
    config = {k: (str(v) if isinstance(v, Path) else v)
              for k, v in vars(args).items() if k != "handler"}
    report = {
        "command": args.command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "argv": argv,
        "config": config,
        "inputs": {str(v): _digest(v) for v in vars(args).values() if isinstance(v, Path)},
        "results": results,
    }
    text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    if args.report is None:
        sys.stdout.write(text)
    else:
        _atomic_write_text(args.report, text)
        log.info("report written to %s", args.report)


def _default_stimuli_path() -> Path:
    return Path(str(resources.files("ggsignal").joinpath("data/stimuli_weat.txt")))


def _table(args, flag: str, required: list[str], vocabulary: bool = False) -> EmbeddingTable:
    # The words a command names load even when ranked below --vocab-limit. A
    # command that reads the `vocabulary` (disentangle writes every row,
    # analogy scores candidates over all of them) keeps every row inside the
    # limit too; every other command looks up only the words it names, so
    # only their rows are kept and parsed. Both kinds read the same lines.
    return load_table(getattr(args, flag), vocab_limit=args.vocab_limit,
                      required_words=required, required_only=not vocabulary)


def _lexicon(args) -> GenderLexicon:
    return load_gender_lexicon(args.lexicon, args.animacy, language=args.language)


def _stimulus_sets(args, *keys: str) -> list[StimulusSet]:
    return require_sets(load_stimuli(args.stimuli), *keys)


def _gender_sample(args, lexicon: GenderLexicon, tables: tuple[EmbeddingTable, ...],
                   label: str) -> tuple[list[str], list[str]]:
    """Seeded balanced draw of --per-gender lexicon words per gender among
    those in every one of `tables`, reduced to the lexicon's coverage there."""
    usable = lexicon.restricted_to(w for w in lexicon.words if all(w in t for t in tables))
    per_gender = min(args.per_gender, len(usable.feminine), len(usable.masculine))
    if per_gender < args.per_gender:
        log.warning("per-gender sample reduced to %d by lexicon coverage", per_gender)
    return balanced_sample(usable, per_gender, derive_seed(args.seed, label))


def _perm_config(args) -> PermutationConfig:
    return PermutationConfig(samples=args.p_samples, seed=args.seed)


def _add_vocab_limit(parser: _Parser) -> None:
    parser.add_argument("--vocab-limit", type=_at_least(1), default=None,
                        help="read only the first N vocabulary entries, plus the words "
                             "the command names wherever they are (disentangle and "
                             "analogy keep all of them, other commands only the named "
                             "words); recorded in the report")


def _add_lexicon_args(parser: _Parser) -> None:
    parser.add_argument("--lexicon", type=_input, required=True,
                        help="gendered-noun TSV (word<TAB>F|M)")
    parser.add_argument("--animacy", type=_input, help="animate words to exclude, one per line")


def _add_table_args(parser: _Parser) -> None:
    parser.add_argument("--embeddings", type=_input, help="single table to evaluate")
    parser.add_argument("--before", type=_input, help="table before disentanglement")
    parser.add_argument("--after", type=_input, help="table after disentanglement")
    _add_vocab_limit(parser)


def _add_perm_args(parser: _Parser) -> None:
    parser.add_argument("--p-samples", type=_at_least(1), default=PermutationConfig().samples,
                        help="Monte Carlo sample count, for p-values not counted exactly")
    _add_set_args(parser)


def _add_set_args(parser: _Parser) -> None:
    parser.add_argument("--stimuli", type=_input, default=_default_stimuli_path(),
                        help="stimulus file (packaged default)")
    parser.add_argument("--min-set-size", type=_at_least(1), default=8,
                        help="minimum usable words per set (default 8)")
    parser.add_argument("--on-missing", choices=("error", "drop"), default="error",
                        help="abort on unresolvable stimulus words (default) or drop them")
    parser.add_argument("--trim-to-equal", action="store_true",
                        help="randomly trim the larger target set instead of erroring")


def _set_options(args) -> dict:
    return {"on_missing": args.on_missing, "min_words": args.min_set_size,
            "trim_to_equal": args.trim_to_equal}


def _per_condition(args, required: list[str], measure: Callable[[EmbeddingTable], dict],
                   key: str = "effect_size", vocabulary: bool = False) -> dict:
    """`measure` of the --embeddings table, or of --before and --after plus
    the after-minus-before delta of `key`."""
    have_single = args.embeddings is not None
    have_pair = args.before is not None or args.after is not None
    if have_single == have_pair:
        raise UsageError("give either --embeddings or both --before and --after")
    if have_single:
        return {"table": measure(_table(args, "embeddings", required, vocabulary))}
    if args.before is None or args.after is None:
        raise UsageError("--before and --after must be given together")
    tables = {name: _table(args, name, required, vocabulary) for name in ("before", "after")}
    results = {name: measure(table) for name, table in tables.items()}
    results["delta"] = {key: results["after"][key] - results["before"][key]}
    return results


# ---------------------------------------------------------------- disentangle

def _cmd_disentangle(args) -> dict:
    config = _config(
        DisentangleConfig,
        max_iterations=args.iterations,
        stop_accuracy=args.stop_accuracy,
        per_class=args.per_class,
        classifier=_config(TrainConfig, regularization_strength=args.regularization,
                           epochs=args.epochs, holdout_fraction=args.holdout,
                           seed=derive_seed(args.seed, "classifier")),
        seed=args.seed,
    )
    lexicon = _lexicon(args)
    table = _table(args, "embeddings", list(lexicon.words), vocabulary=True)
    transformed, stack = run_disentangle(table, lexicon, config)

    results = {
        "iterations": len(stack),
        "accuracy_trace": list(stack.accuracy_trace),
        "final_accuracy": stack.final_accuracy,
        "per_class": args.per_class,
        "model_weight_norms": list(stack.model_weight_norms),
        "annihilated_words": transformed.zero_norm_words(),
        "lexicon_words": {"feminine": len(lexicon.feminine),
                          "masculine": len(lexicon.masculine)},
        "missing_lexicon_words": len(table.missing_required),
        "table_words": len(table),
        "dimension": table.dimension,
    }
    if args.out_embeddings:
        save_table(transformed, args.out_embeddings)
    if args.out_stack:
        save_stack(stack, args.out_stack)
    return results


# ------------------------------------------------------------- measurements

def _cmd_weat(args) -> dict:
    x_set, y_set, a_set, b_set = _stimulus_sets(
        args, args.targets_x, args.targets_y, args.attributes_a, args.attributes_b)
    required = [*x_set.words, *y_set.words, *a_set.words, *b_set.words]
    return {
        "sets": {"targets_x": args.targets_x, "targets_y": args.targets_y,
                 "attributes_a": args.attributes_a, "attributes_b": args.attributes_b},
        **_per_condition(args, required, lambda table: weat(
            x_set, y_set, a_set, b_set, table, _perm_config(args),
            **_set_options(args)).to_json()),
    }


def _cmd_sc_weat(args) -> dict:
    a_set, b_set = _stimulus_sets(args, args.attributes_a, args.attributes_b)
    return {
        "word": args.word,
        "sets": {"attributes_a": args.attributes_a, "attributes_b": args.attributes_b},
        **_per_condition(args, [args.word, *a_set.words, *b_set.words], lambda table: sc_weat(
            args.word, a_set, b_set, table, _perm_config(args), **_set_options(args)).to_json()),
    }


def _cmd_gg_weat(args) -> dict:
    pairs = load_similarity_pairs(args.pairs)
    lexicon = _lexicon(args)
    a_set, b_set = _stimulus_sets(args, args.attributes_a, args.attributes_b)
    fem_targets, masc_targets = build_gg_targets(pairs, lexicon, args.min_score,
                                                 args.max_per_set)
    spec = GgWeatSpec(fem_targets, masc_targets, a_set, b_set)
    required = [*fem_targets.words, *masc_targets.words, *a_set.words, *b_set.words]
    return {
        "min_score": args.min_score,
        "feminine_targets": list(fem_targets.words),
        "masculine_targets": list(masc_targets.words),
        "attributes": {"feminine": args.attributes_a, "masculine": args.attributes_b},
        **_per_condition(args, required, lambda table: gg_weat(
            spec, table, _perm_config(args), **_set_options(args)).to_json()),
    }


def _cmd_valnorm(args) -> dict:
    norms = load_valence_norms(args.norms)
    pleasant, unpleasant = _stimulus_sets(args, args.pleasant, args.unpleasant)
    required = [n.word for n in norms] + [*pleasant.words, *unpleasant.words]

    def measure(table):
        r, n_used = valnorm(norms, pleasant, unpleasant, table,
                            on_missing=args.on_missing, min_words=args.min_set_size)
        return {"pearson_r": r, "n_used": n_used}

    return {
        "sets": {"pleasant": args.pleasant, "unpleasant": args.unpleasant},
        "n_norm_words": len(norms),
        **_per_condition(args, required, measure, key="pearson_r"),
    }


def _cmd_analogy(args) -> dict:
    questions = load_analogies(args.questions)
    sections = set(args.sections.split(",")) if args.sections else None
    pool = [q for q in questions if sections is None or q.section in sections]
    required = sorted({w for q in pool for w in (q.a, q.b, q.c, q.d)})

    def measure(table):
        acc, n = analogy_accuracy(questions, table, sections)
        return {"accuracy": acc, "n_attempted": n, "n_questions": len(pool)}

    return {
        "sections": sorted(sections) if sections else None,
        **_per_condition(args, required, measure, key="accuracy", vocabulary=True),
    }


def _cmd_pairdist(args) -> dict:
    pairs_gendered = load_similarity_pairs(args.pairs_gendered)
    pairs_english = load_similarity_pairs(args.pairs_english)
    lexicon = _lexicon(args)
    gendered_words = [w for p in pairs_gendered for w in (p.word_a, p.word_b)]
    english_words = [w for p in pairs_english for w in (p.word_a, p.word_b)]
    table_raw = _table(args, "raw", gendered_words)
    table_dis = _table(args, "disentangled", gendered_words)
    table_en = _table(args, "english", english_words)
    return pairwise_gap(pairs_gendered, pairs_english, lexicon,
                        table_raw, table_dis, table_en).to_json()


def _cmd_sweep(args) -> dict:
    lexicon = _lexicon(args)
    fem_attrs, masc_attrs = _stimulus_sets(args, args.attributes_f, args.attributes_m)
    required = [*lexicon.words, *fem_attrs.words, *masc_attrs.words]
    table_before = _table(args, "before", required)
    table_after = _table(args, "after", required)

    fem_words, masc_words = _gender_sample(args, lexicon, (table_before, table_after),
                                           "sweep-sample")
    sweep = sc_gg_sweep(fem_words, masc_words, fem_attrs, masc_attrs,
                        table_before, table_after, on_missing=args.on_missing,
                        min_words=args.min_set_size)
    results = {"per_gender": len(fem_words),
               "attributes": {"feminine": args.attributes_f, "masculine": args.attributes_m},
               **sweep.to_json()}
    if args.out_csv:
        lines = ["word,gender,d_before,d_after,weakened,weakened_loose"]
        for r in sweep.records:
            lines.append(f"{r.word},{r.gender},{r.d_before!r},{r.d_after!r},"
                         f"{int(r.weakened)},{int(r.weakened_loose)}")
        _atomic_write_text(args.out_csv, "\n".join(lines) + "\n")
    return results


def _cmd_synth(args) -> dict:
    config = _config(SynthConfig, dimension=args.dimension, per_class=args.per_class,
                     signal_strength=args.signal, noise_scale=args.noise,
                     class_imbalance=args.imbalance,
                     second_direction_strength=args.second_signal, seed=args.seed)
    table, lexicon, direction, base_table = generate(config)
    save_table(table, args.out_embeddings)
    if args.out_base:
        save_table(base_table, args.out_base)
    if args.out_lexicon:
        lines = [f"{w}\tF" for w in lexicon.feminine] + \
                [f"{w}\tM" for w in lexicon.masculine]
        _atomic_write_text(args.out_lexicon, "\n".join(lines) + "\n")
    if args.out_direction:
        save_stack(HyperplaneStack(directions=direction.reshape(1, -1)), args.out_direction)
    return {"words": len(table), "dimension": table.dimension}


def _cmd_pca_coords(args) -> dict:
    lexicon = _lexicon(args)
    table = _table(args, "embeddings", list(lexicon.words))
    fem_words, masc_words = _gender_sample(args, lexicon, (table,), "pca-sample")
    words = fem_words + masc_words
    genders = ["F"] * len(fem_words) + ["M"] * len(masc_words)
    coords = principal_coordinates(table.rows(words), n_components=2)
    lines = ["word,gender,pc1,pc2"]
    for word, gender, (pc1, pc2) in zip(words, genders, coords):
        lines.append(f"{word},{gender},{float(pc1)!r},{float(pc2)!r}")
    _atomic_write_text(args.out_csv, "\n".join(lines) + "\n")
    return {"n_words": len(words), "per_gender": len(fem_words)}


# ------------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(prog="ggsignal",
                     description="Disentangle grammatical-gender signals from word "
                                 "embeddings and measure gender associations")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, handler: Callable[..., dict], help: str) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
        p.add_argument("--report", help="write the JSON report here (stdout if omitted)")
        p.add_argument("--language", default="", help="language code recorded in reports")
        p.set_defaults(handler=handler)
        return p

    p = command("disentangle", _cmd_disentangle, "iteratively remove the gender hyperplane")
    p.add_argument("--embeddings", type=_input, required=True)
    _add_lexicon_args(p)
    _add_vocab_limit(p)
    p.add_argument("--iterations", type=int, default=15, help="projection cap (0 = measure only)")
    p.add_argument("--stop-accuracy", type=_finite, default=0.52)
    p.add_argument("--per-class", type=int, default=3000)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--regularization", type=_finite, default=1e-4)
    p.add_argument("--holdout", type=_finite, default=0.1)
    p.add_argument("--out-embeddings", help="write the transformed table here")
    p.add_argument("--out-stack", help="write the extracted directions here")

    p = command("weat", _cmd_weat, "two-target association test")
    p.add_argument("--targets-x", required=True)
    p.add_argument("--targets-y", required=True)
    p.add_argument("--attributes-a", required=True)
    p.add_argument("--attributes-b", required=True)
    _add_table_args(p)
    _add_perm_args(p)

    p = command("sc-weat", _cmd_sc_weat, "single-word association test")
    p.add_argument("--word", required=True)
    p.add_argument("--attributes-a", required=True)
    p.add_argument("--attributes-b", required=True)
    _add_table_args(p)
    _add_perm_args(p)

    p = command("gg-weat", _cmd_gg_weat, "grammatical-gender association test with "
                                         "targets built from similarity pairs")
    p.add_argument("--pairs", type=_input, required=True,
                   help="similarity pair TSV with genders")
    _add_lexicon_args(p)
    p.add_argument("--attributes-a", required=True, help="semantically feminine set key")
    p.add_argument("--attributes-b", required=True, help="semantically masculine set key")
    p.add_argument("--min-score", type=_finite, default=6.0,
                   help="similarity threshold for target pairs")
    p.add_argument("--max-per-set", type=_at_least(GG_MIN_TARGETS), default=None)
    _add_table_args(p)
    _add_perm_args(p)

    p = command("valnorm", _cmd_valnorm, "valence-norm correlation")
    p.add_argument("--norms", type=_input, required=True, help="valence TSV (word<TAB>score)")
    p.add_argument("--pleasant", required=True)
    p.add_argument("--unpleasant", required=True)
    _add_table_args(p)
    _add_set_args(p)

    p = command("analogy", _cmd_analogy, "offset-analogy accuracy")
    p.add_argument("--questions", type=_input, required=True)
    p.add_argument("--sections", help="comma-separated section filter")
    _add_table_args(p)

    p = command("pairdist", _cmd_pairdist, "pairwise-distance gap reduction")
    p.add_argument("--pairs-gendered", type=_input, required=True)
    p.add_argument("--pairs-english", type=_input, required=True,
                   help="index-aligned translations")
    _add_lexicon_args(p)
    p.add_argument("--raw", type=_input, required=True)
    p.add_argument("--disentangled", type=_input, required=True)
    p.add_argument("--english", type=_input, required=True)
    _add_vocab_limit(p)

    p = command("sweep", _cmd_sweep, "per-word association sweep before/after")
    _add_lexicon_args(p)
    p.add_argument("--attributes-f", required=True, help="semantically feminine set key")
    p.add_argument("--attributes-m", required=True, help="semantically masculine set key")
    p.add_argument("--per-gender", type=_at_least(1), default=2000)
    p.add_argument("--before", type=_input, required=True)
    p.add_argument("--after", type=_input, required=True)
    _add_vocab_limit(p)
    p.add_argument("--out-csv")
    _add_set_args(p)

    p = command("synth", _cmd_synth, "generate a synthetic oracle fixture")
    p.add_argument("--dimension", type=int, default=300)
    p.add_argument("--per-class", type=int, default=3000)
    p.add_argument("--signal", type=_finite, default=5.0)
    p.add_argument("--noise", type=_finite, default=0.5)
    p.add_argument("--imbalance", type=_finite, default=1.0)
    p.add_argument("--second-signal", type=_finite, default=0.0)
    p.add_argument("--out-embeddings", required=True)
    p.add_argument("--out-base")
    p.add_argument("--out-lexicon")
    p.add_argument("--out-direction")

    p = command("pca-coords", _cmd_pca_coords, "two-component coordinates of gendered nouns")
    p.add_argument("--embeddings", type=_input, required=True)
    _add_lexicon_args(p)
    _add_vocab_limit(p)
    p.add_argument("--per-gender", type=_at_least(1), default=500)
    p.add_argument("--out-csv", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        _write_report(args, argv, args.handler(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PipelineError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
