"""Trace targets and the per-layer metrics computed from their spans.

Each function is wrapped at the name its caller looks it up by, not where it
is defined: `ggsignal.cli` imported `load_table`, `weat`, ... into its own
namespace, `weat` and `sc_weat` find `permutation_p` in the globals of
`ggsignal.association`, and `gg_weat` finds `weat` in those of
`ggsignal.evaluations`. `ggsignal.cli._digest` is the only place where input
hashing can be timed on its own.

Counts come from each call's arguments and return value, so they repeat
exactly for the same inputs. Counts that need a file's row layout are
computed after the timed section, from the files themselves.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracer import Tracer

EVALUATIONS = ("gg_weat", "sc_gg_sweep", "valnorm", "analogy_accuracy", "pairwise_gap",
               "principal_coordinates")
SUBCOMMANDS = ("disentangle", "weat", "gg-weat", "sweep", "pairdist", "pca-coords",
               "valnorm", "analogy")
LEXICON_LOADERS = ("load_gender_lexicon", "load_stimuli", "load_similarity_pairs",
                   "load_valence_norms", "load_analogies")


def _load_info(args, kwargs, table) -> dict:
    limit = kwargs.get("vocab_limit", args[1] if len(args) > 1 else None)
    return {"path": str(args[0]), "limit": limit, "kept": len(table),
            "last": table.words[-1], "missing": len(table.missing_required)}


def _save_info(args, kwargs, _) -> dict:
    return {"path": str(args[1]), "rows": len(args[0])}


def _path_info(args, kwargs, _) -> dict:
    return {"path": str(args[0])}


def _train_info(args, kwargs, _) -> dict:
    from ggsignal.classifier import TrainConfig
    config = args[2] if len(args) > 2 else kwargs.get("config", TrainConfig())
    rows = sum(len(m) - max(1, round(len(m) * config.holdout_fraction)) for m in args[:2])
    return {"steps": rows * config.epochs}


def _run_info(args, kwargs, result) -> dict:
    return {"rounds": len(result[1]) + 1}


def _permutation_info(args, kwargs, result) -> dict:
    method = result[1]
    exact = method.kind == "exact"
    return {"exact": method.partitions if exact else 0, "mc": 0 if exact else method.samples}


def _analogy_info(args, kwargs, result) -> dict:
    return {"scores": result[1] * len(args[1])}


# (module, attribute, span name, info)
MEASURE_TARGETS = [
    ("ggsignal.cli", "load_table", "embeddings.load_table", _load_info),
    ("ggsignal.cli", "save_table", "embeddings.save_table", _save_info),
    ("ggsignal.cli", "_digest", "cli.digest", _path_info),
    ("ggsignal.cli", "run_disentangle", "disentangler.run", _run_info),
    ("ggsignal.cli", "balanced_sample", "lexicon.balanced_sample", None),
    ("ggsignal.disentangler", "balanced_sample", "lexicon.balanced_sample", None),
    ("ggsignal.disentangler", "train", "classifier.train", _train_info),
    ("ggsignal.association", "permutation_p", "association.permutation_p", _permutation_info),
    ("ggsignal.association", "weat", "association.weat", None),
    ("ggsignal.association", "sc_weat", "association.sc_weat", None),
    ("ggsignal.cli", "weat", "association.weat", None),
    ("ggsignal.cli", "sc_weat", "association.sc_weat", None),
    ("ggsignal.evaluations", "weat", "association.weat", None),
    *(("ggsignal.cli", name, "lexicon.load", None) for name in LEXICON_LOADERS),
    *((module, name, f"evaluations.{name}",
       _analogy_info if name == "analogy_accuracy" else None)
      for name in EVALUATIONS for module in ("ggsignal.cli", "ggsignal.evaluations")),
]

SETUP_TARGETS = [("ggsignal.synthetic", "generate", "synthetic.generate", None)]


def install(tracer: Tracer, targets) -> None:
    for module, attr, name, info in targets:
        tracer.wrap(module, attr, name, info)


class _Layout:
    """Row index and line end offsets of a text vector file."""

    def __init__(self, path: str):
        with open(path, "rb") as handle:
            data = handle.read()
        lines = data.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        self.row_of = {}
        self.end_of = []   # byte offset just past row i's newline
        offset = len(lines[0]) + 1
        for i, line in enumerate(lines[1:]):
            offset += len(line) + 1
            self.row_of.setdefault(line.split(b" ", 1)[0].decode("utf-8"), i)
            self.end_of.append(offset)
        self.rows = len(self.end_of)
        self.size = len(data)

    def scanned(self, load: dict) -> tuple[int, int]:
        """Rows and bytes a load read: to the end of the file unless it
        stopped at its last kept word (the vocab limit reached, every
        required word found)."""
        limit = load["limit"]
        if load["missing"] or limit is None or load["kept"] < limit:
            return self.rows, self.size
        row = self.row_of[load["last"]]
        return row + 1, self.end_of[row]


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced timed section (every name, 0 when the
    workload does not reach that layer)."""
    m: dict[str, float] = {}
    busy = defaultdict(float)
    calls = defaultdict(int)
    for span in tracer.spans:
        busy[span.name] += span.duration
        calls[span.name] += 1
    selfs = tracer.self_times()
    infos = defaultdict(list)
    for span in tracer.spans:
        if span.info is not None:
            infos[span.name].append(span.info)

    layouts: dict[str, _Layout] = {}
    kept = scanned = read = repeats = 0
    seen = set()
    for load in infos["embeddings.load_table"]:
        if load["path"] not in layouts:
            layouts[load["path"]] = _Layout(load["path"])
        layout = layouts[load["path"]]
        rows, nbytes = layout.scanned(load)
        kept += load["kept"]
        scanned += rows
        read += nbytes
        repeats += load["path"] in seen
        seen.add(load["path"])
    name = "embeddings.load_table"
    m.update({f"{name}.calls": calls[name], f"{name}.busy_s": busy[name],
              f"{name}.rows_kept": kept, f"{name}.rows_scanned": scanned,
              f"{name}.kept_ratio": kept / scanned if scanned else 0.0,
              f"{name}.repeat_loads": repeats,
              f"{name}.us_per_row": 1e6 * busy[name] / scanned if scanned else 0.0,
              f"{name}.bytes": read})

    saves = infos["embeddings.save_table"]
    name = "embeddings.save_table"
    m.update({f"{name}.calls": calls[name], f"{name}.busy_s": busy[name],
              f"{name}.rows": sum(s["rows"] for s in saves),
              f"{name}.bytes": sum(os.path.getsize(s["path"]) for s in saves)})

    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = busy[f"cli.{sub}"]
    name = "cli.digest"
    m.update({f"{name}.calls": calls[name], f"{name}.busy_s": busy[name],
              f"{name}.bytes": sum(os.path.getsize(d["path"]) for d in infos[name])})
    m["cli.self_s"] = sum(selfs.get(f"cli.{sub}", 0.0) for sub in SUBCOMMANDS)

    m["lexicon.load.busy_s"] = busy["lexicon.load"]
    m["lexicon.balanced_sample.busy_s"] = busy["lexicon.balanced_sample"]

    name = "classifier.train"
    steps = sum(t["steps"] for t in infos[name])
    m.update({f"{name}.calls": calls[name], f"{name}.busy_s": busy[name],
              f"{name}.steps": steps,
              f"{name}.ns_per_step": 1e9 * busy[name] / steps if steps else 0.0})

    m["disentangler.run.busy_s"] = busy["disentangler.run"]
    m["disentangler.run.self_s"] = selfs.get("disentangler.run", 0.0)
    m["disentangler.rounds"] = sum(r["rounds"] for r in infos["disentangler.run"])

    name = "association.permutation_p"
    exact = sum(p["exact"] for p in infos[name])
    mc = sum(p["mc"] for p in infos[name])
    m.update({f"{name}.calls": calls[name], f"{name}.busy_s": busy[name],
              f"{name}.exact_partitions": exact, f"{name}.mc_samples": mc,
              f"{name}.ns_per_partition": 1e9 * busy[name] / (exact + mc) if exact + mc else 0.0})
    m["association.weat.self_s"] = selfs.get("association.weat", 0.0)
    m["association.sc_weat.self_s"] = selfs.get("association.sc_weat", 0.0)

    m["evaluations.analogy_accuracy.busy_s"] = busy["evaluations.analogy_accuracy"]
    m["evaluations.analogy_accuracy.candidate_scores"] = sum(
        a["scores"] for a in infos["evaluations.analogy_accuracy"])
    for fn in EVALUATIONS:
        if fn != "analogy_accuracy":
            m[f"evaluations.{fn}.busy_s"] = busy[f"evaluations.{fn}"]

    total = busy["pass"]
    for name in ("embeddings.load_table", "classifier.train", "association.permutation_p"):
        m[f"{name}.self_share"] = selfs.get(name, 0.0) / total if total else 0.0
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("us_per_row", "us"), ("ns_per_step", "ns"),
                         ("ns_per_partition", "ns"), ("_s", "s"), (".bytes", "bytes"),
                         ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def top_self_times(tracer: Tracer, count: int = 5) -> list[tuple[str, float]]:
    """Layers by self time, the harness's own root span left out."""
    ranked = sorted(((n, s) for n, s in tracer.self_times().items() if n != "pass"),
                    key=lambda item: -item[1])
    return ranked[:count]
