"""Command-line entry point.

Every subcommand handler loads its inputs, writes any side outputs (tables,
stacks, CSV files) and returns its result payload; `main` then writes one
JSON report that echoes the full configuration, the seed, and a digest of
every input file named by a flag in INPUT_FLAGS, so any run can be
reproduced from its own report. The report goes to --report when given, to
stdout otherwise; exit status is 0 exactly when the full report was written.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Relative input paths are also tried under $GGSIGNAL_DATA when they do not
exist in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
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
from .errors import DataError, NumericError, PipelineError
from .evaluations import (GgWeatSpec, build_gg_targets, gg_weat, analogy_accuracy,
                          pairwise_gap, principal_coordinates, sc_gg_sweep, valnorm)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    if not p.exists() and not p.is_absolute():
        base = os.environ.get(ENV_DATA_DIR)
        if base and (Path(base) / p).exists():
            return Path(base) / p
    return p


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _atomic_write_text(path, text: str) -> None:
    with atomic_open(path) as handle:
        handle.write(text)


# Flags that name a file a command reads: the report digests each one given.
INPUT_FLAGS = ("embeddings", "before", "after", "raw", "disentangled", "english",
               "lexicon", "animacy", "pairs", "pairs_gendered", "pairs_english",
               "norms", "questions", "stimuli")


def _write_report(args, argv: list[str], results: dict) -> None:
    config = {k: (str(v) if isinstance(v, Path) else v)
              for k, v in vars(args).items() if k not in ("handler",)}
    inputs = [_resolve(getattr(args, flag)) for flag in INPUT_FLAGS
              if getattr(args, flag, None) is not None]
    report = {
        "command": args.command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "argv": argv,
        "config": config,
        "inputs": {str(p): _digest(p) for p in inputs},
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


def _table(args, flag: str, required: list[str]) -> EmbeddingTable:
    # With a vocabulary cutoff, words the command is about to test must stay
    # loadable even when ranked below the cutoff.
    return load_table(_resolve(getattr(args, flag)), vocab_limit=args.vocab_limit,
                      required_words=required if args.vocab_limit else None)


def _lexicon(args) -> GenderLexicon:
    return load_gender_lexicon(_resolve(args.lexicon), _resolve(args.animacy),
                               language=args.language)


def _stimulus_sets(args, *keys: str) -> list[StimulusSet]:
    return require_sets(load_stimuli(_resolve(args.stimuli)), *keys)


def _gender_sample(args, lexicon: GenderLexicon, tables: tuple[EmbeddingTable, ...],
                   label: str) -> tuple[list[str], list[str]]:
    """Seeded balanced draw of --per-gender lexicon words per gender among
    those in every one of `tables`, reduced to the lexicon's coverage there."""
    if args.per_gender < 1:
        raise UsageError("--per-gender must be positive")
    usable = lexicon.restricted_to(w for w in lexicon.words if all(w in t for t in tables))
    per_gender = min(args.per_gender, len(usable.feminine), len(usable.masculine))
    if per_gender < args.per_gender:
        log.warning("per-gender sample reduced to %d by lexicon coverage", per_gender)
    return balanced_sample(usable, per_gender, derive_seed(args.seed, label))


def _perm_config(args) -> PermutationConfig:
    return PermutationConfig(exact_limit=args.exact_limit, samples=args.p_samples,
                             seed=args.seed)


def _add_table_args(parser: _Parser) -> None:
    parser.add_argument("--embeddings", help="single table to evaluate")
    parser.add_argument("--before", help="table before disentanglement")
    parser.add_argument("--after", help="table after disentanglement")
    parser.add_argument("--vocab-limit", type=int, default=None,
                        help="keep only the first N vocabulary entries (test words "
                             "are force-loaded); recorded in the report")


def _add_perm_args(parser: _Parser) -> None:
    defaults = PermutationConfig()
    parser.add_argument("--p-samples", type=int, default=defaults.samples,
                        help="Monte Carlo sample count when enumeration is infeasible")
    parser.add_argument("--exact-limit", type=int, default=defaults.exact_limit,
                        help="max partition count for exact enumeration")
    _add_set_args(parser)


def _add_set_args(parser: _Parser) -> None:
    parser.add_argument("--min-set-size", type=int, default=8,
                        help="minimum usable words per set (default 8)")
    parser.add_argument("--on-missing", choices=("error", "drop"), default="error",
                        help="abort on unresolvable stimulus words (default) or drop them")
    parser.add_argument("--trim-to-equal", action="store_true",
                        help="randomly trim the larger target set instead of erroring")


def _set_options(args) -> dict:
    return {"on_missing": args.on_missing, "min_words": args.min_set_size,
            "trim_to_equal": args.trim_to_equal}


def _per_condition(args, required: list[str], measure: Callable[[EmbeddingTable], dict],
                   key: str = "effect_size") -> dict:
    """`measure` of the --embeddings table, or of --before and --after plus
    the after-minus-before delta of `key`."""
    have_single = args.embeddings is not None
    have_pair = args.before is not None or args.after is not None
    if have_single == have_pair:
        raise UsageError("give either --embeddings or both --before and --after")
    if have_single:
        return {"table": measure(_table(args, "embeddings", required))}
    if args.before is None or args.after is None:
        raise UsageError("--before and --after must be given together")
    tables = {name: _table(args, name, required) for name in ("before", "after")}
    results = {name: measure(table) for name, table in tables.items()}
    results["delta"] = {key: results["after"][key] - results["before"][key]}
    return results


# ---------------------------------------------------------------- disentangle

def _cmd_disentangle(args) -> dict:
    lexicon = _lexicon(args)
    table = _table(args, "embeddings", list(lexicon.words))
    config = DisentangleConfig(
        max_iterations=args.iterations,
        stop_accuracy=args.stop_accuracy,
        per_class=args.per_class,
        classifier=TrainConfig(regularization_strength=args.regularization,
                               epochs=args.epochs, holdout_fraction=args.holdout,
                               seed=derive_seed(args.seed, "classifier")),
        seed=args.seed,
    )
    transformed, stack = run_disentangle(table, lexicon, config)

    missing_lexicon = [w for w in lexicon.words if w not in table]
    results = {
        "iterations": len(stack),
        "accuracy_trace": list(stack.accuracy_trace),
        "final_accuracy": stack.final_accuracy,
        "per_class": args.per_class,
        "model_weight_norms": list(stack.model_weight_norms),
        "consecutive_direction_cosines": list(stack.consecutive_cosines),
        "annihilated_words": transformed.zero_norm_words(),
        "lexicon_words": {"feminine": len(lexicon.feminine),
                          "masculine": len(lexicon.masculine)},
        "missing_lexicon_words": len(missing_lexicon),
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
    pairs = load_similarity_pairs(_resolve(args.pairs))
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
    norms = load_valence_norms(_resolve(args.norms))
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
    questions = load_analogies(_resolve(args.questions))
    sections = set(args.sections.split(",")) if args.sections else None
    pool = [q for q in questions if sections is None or q.section in sections]
    required = sorted({w for q in pool for w in (q.a, q.b, q.c, q.d)})

    def measure(table):
        acc, n = analogy_accuracy(questions, table, sections)
        return {"accuracy": acc, "n_attempted": n, "n_questions": len(pool)}

    return {
        "sections": sorted(sections) if sections else None,
        **_per_condition(args, required, measure, key="accuracy"),
    }


def _cmd_pairdist(args) -> dict:
    pairs_gendered = load_similarity_pairs(_resolve(args.pairs_gendered))
    pairs_english = load_similarity_pairs(_resolve(args.pairs_english))
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
    config = SynthConfig(dimension=args.dimension, per_class=args.per_class,
                         signal_strength=args.signal, noise_scale=args.noise,
                         class_imbalance=args.imbalance,
                         second_direction_strength=args.second_signal,
                         seed=args.seed)
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
    stimuli = str(_default_stimuli_path())

    def common(p: _Parser) -> None:
        p.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
        p.add_argument("--report", help="write the JSON report here (stdout if omitted)")
        p.add_argument("--language", default="", help="language code recorded in reports")

    p = sub.add_parser("disentangle", help="iteratively remove the gender hyperplane")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--lexicon", required=True, help="gendered-noun TSV (word<TAB>F|M)")
    p.add_argument("--animacy", help="animate words to exclude, one per line")
    p.add_argument("--vocab-limit", type=int, default=None)
    p.add_argument("--iterations", type=int, default=15, help="projection cap (0 = measure only)")
    p.add_argument("--stop-accuracy", type=float, default=0.52)
    p.add_argument("--per-class", type=int, default=3000)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--regularization", type=float, default=1e-4)
    p.add_argument("--holdout", type=float, default=0.1)
    p.add_argument("--out-embeddings", help="write the transformed table here")
    p.add_argument("--out-stack", help="write the extracted directions here")
    common(p)
    p.set_defaults(handler=_cmd_disentangle)

    p = sub.add_parser("weat", help="two-target association test")
    p.add_argument("--stimuli", default=stimuli, help="stimulus file (packaged default)")
    p.add_argument("--targets-x", required=True)
    p.add_argument("--targets-y", required=True)
    p.add_argument("--attributes-a", required=True)
    p.add_argument("--attributes-b", required=True)
    _add_table_args(p)
    _add_perm_args(p)
    common(p)
    p.set_defaults(handler=_cmd_weat)

    p = sub.add_parser("sc-weat", help="single-word association test")
    p.add_argument("--stimuli", default=stimuli)
    p.add_argument("--word", required=True)
    p.add_argument("--attributes-a", required=True)
    p.add_argument("--attributes-b", required=True)
    _add_table_args(p)
    _add_perm_args(p)
    common(p)
    p.set_defaults(handler=_cmd_sc_weat)

    p = sub.add_parser("gg-weat", help="grammatical-gender association test with "
                                       "targets built from similarity pairs")
    p.add_argument("--pairs", required=True, help="similarity pair TSV with genders")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--animacy")
    p.add_argument("--stimuli", default=stimuli)
    p.add_argument("--attributes-a", required=True, help="semantically feminine set key")
    p.add_argument("--attributes-b", required=True, help="semantically masculine set key")
    p.add_argument("--min-score", type=float, default=6.0,
                   help="similarity threshold for target pairs")
    p.add_argument("--max-per-set", type=int, default=None)
    _add_table_args(p)
    _add_perm_args(p)
    common(p)
    p.set_defaults(handler=_cmd_gg_weat)

    p = sub.add_parser("valnorm", help="valence-norm correlation")
    p.add_argument("--norms", required=True, help="valence TSV (word<TAB>score)")
    p.add_argument("--stimuli", default=stimuli)
    p.add_argument("--pleasant", required=True)
    p.add_argument("--unpleasant", required=True)
    _add_table_args(p)
    _add_set_args(p)
    common(p)
    p.set_defaults(handler=_cmd_valnorm)

    p = sub.add_parser("analogy", help="offset-analogy accuracy")
    p.add_argument("--questions", required=True)
    p.add_argument("--sections", help="comma-separated section filter")
    _add_table_args(p)
    common(p)
    p.set_defaults(handler=_cmd_analogy)

    p = sub.add_parser("pairdist", help="pairwise-distance gap reduction")
    p.add_argument("--pairs-gendered", required=True)
    p.add_argument("--pairs-english", required=True, help="index-aligned translations")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--animacy")
    p.add_argument("--raw", required=True)
    p.add_argument("--disentangled", required=True)
    p.add_argument("--english", required=True)
    p.add_argument("--vocab-limit", type=int, default=None)
    common(p)
    p.set_defaults(handler=_cmd_pairdist)

    p = sub.add_parser("sweep", help="per-word association sweep before/after")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--animacy")
    p.add_argument("--stimuli", default=stimuli)
    p.add_argument("--attributes-f", required=True, help="semantically feminine set key")
    p.add_argument("--attributes-m", required=True, help="semantically masculine set key")
    p.add_argument("--per-gender", type=int, default=2000)
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--vocab-limit", type=int, default=None)
    p.add_argument("--out-csv")
    _add_set_args(p)
    common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic oracle fixture")
    p.add_argument("--dimension", type=int, default=300)
    p.add_argument("--per-class", type=int, default=3000)
    p.add_argument("--signal", type=float, default=5.0)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--imbalance", type=float, default=1.0)
    p.add_argument("--second-signal", type=float, default=0.0)
    p.add_argument("--out-embeddings", required=True)
    p.add_argument("--out-base")
    p.add_argument("--out-lexicon")
    p.add_argument("--out-direction")
    common(p)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("pca-coords", help="two-component coordinates of gendered nouns")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--animacy")
    p.add_argument("--vocab-limit", type=int, default=None)
    p.add_argument("--per-gender", type=int, default=500)
    p.add_argument("--out-csv", required=True)
    common(p)
    p.set_defaults(handler=_cmd_pca_coords)

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
    except (UsageError, ValueError) as exc:
        # ValueError: an option value the configuration objects reject.
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, PipelineError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
