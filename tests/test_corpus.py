"""Frozen results corpus: every subcommand's `results` on checked-in inputs.

The inputs under data/corpus (a toy desk fixture and two 20-d oracles) were
written once by scripts/make_corpus_inputs.py. The test runs the reproduce
command list of perfbench/workloads.py on the desk fixture, plus `sc-weat` by
exact counting and by Monte Carlo, `synth`, and `disentangle` on each oracle,
and compares every report's `results` with data/golden_results.json.

Integers, strings, booleans and lists compare exactly. Floats compare bitwise
when the platform recorded in the corpus (numpy version, BLAS build, machine)
is this one, and within 1e-9 relative otherwise. On a mismatch the test
prints each moved path with its old and new value and writes the new corpus
to its `tmp_path`; a change that moves results copies that file over the
golden one and names the moved paths.
"""

import json
import math
import platform
import struct
import sys
from contextlib import nullcontext
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from ggsignal import association
from ggsignal.cli import main

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import fixtures  # noqa: E402  (perfbench/fixtures.py)
import workloads  # noqa: E402

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "corpus"
GOLDEN = DATA / "golden_results.json"
RELATIVE_TOLERANCE = 1e-9


def _platform() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _commands(out: Path) -> list[list[str]]:
    """The benchmark's reproduce command list over the desk fixture, then the
    sc-weat, synth and oracle runs; each argv names its report."""
    manifest = json.loads((CORPUS / "corpus.json").read_text(encoding="utf-8"))
    desk = CORPUS / "desk"
    sizes = {k: v for k, v in manifest["desk"].items() if k != "seed"}
    fx = fixtures.DeskFixture(
        root=str(desk), table=str(desk / "table.vec"), english=str(desk / "english.vec"),
        lexicon=str(desk / "lexicon.tsv"), animacy=str(desk / "animate.txt"),
        stimuli=str(desk / "stimuli.txt"), pairs=str(desk / "simlex.tsv"),
        pairs_english=str(desk / "simlex_english.tsv"), valence=str(desk / "valence.tsv"),
        analogy=str(desk / "analogy.txt"), planted="", rows=0, dimension=0, bytes=0, **sizes)
    commands = workloads.reproduce_commands(fx, out, 0)
    lang = fixtures.LANG
    sc_weat = ["sc-weat", "--stimuli", fx.stimuli, "--word", "val000",
               "--attributes-a", f"{lang}.genc.career", "--attributes-b", f"{lang}.genc.family",
               "--before", fx.table, "--after", str(out / "table.disentangled.vec"),
               "--vocab-limit", str(fx.vocab_limit), "--seed", "0", "--language", lang]
    commands.append([*sc_weat, "--report", str(out / "sc_weat_exact.json")])
    commands.append([*sc_weat, "--p-samples", "5000", "--report", str(out / "sc_weat_mc.json")])
    two = manifest["oracles"]["oracle-two"]
    commands.append(["synth", "--dimension", str(two["dimension"]),
                     "--per-class", str(two["per_class"]),
                     "--signal", str(two["signal_strength"]), "--noise", str(two["noise_scale"]),
                     "--second-signal", str(two["second_direction_strength"]),
                     "--seed", str(two["seed"]), "--out-embeddings", str(out / "synth.vec"),
                     "--report", str(out / "synth.json")])
    for stem, oracle in manifest["oracles"].items():
        commands.append(["disentangle", "--embeddings", str(CORPUS / f"{stem}.vec"),
                         "--lexicon", str(CORPUS / f"{stem}.tsv"),
                         "--per-class", str(oracle["per_class"]), "--seed", "0",
                         "--out-stack", str(out / f"{stem}.stack"),
                         "--report", str(out / f"{stem}.json")])
    return commands


def _run_corpus(out: Path) -> dict:
    results = {}
    for argv in _commands(out):
        report = Path(argv[argv.index("--report") + 1])
        # sc_weat_mc samples its 16 attribute scores rather than count them.
        sampled = report.stem == "sc_weat_mc"
        with patch.object(association, "_EXACT_MAX_ITEMS", 0) if sampled else nullcontext():
            assert main(argv) == 0, argv
        results[report.stem] = json.loads(report.read_text(encoding="utf-8"))["results"]
    return {"platform": _platform(), "results": results}


def _float_moved(old: float, new: float, bitwise: bool) -> bool:
    if bitwise:
        return struct.pack("<d", old) != struct.pack("<d", new)
    if math.isnan(old) or math.isnan(new):
        return not (math.isnan(old) and math.isnan(new))
    return not math.isclose(old, new, rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0)


def moved_paths(old, new, bitwise: bool, path: str = ""):
    """(path, old, new) for every leaf where `new` differs from `old`."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved_paths(old.get(key, "<absent>"), new.get(key, "<absent>"),
                                   bitwise, f"{path}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from moved_paths(a, b, bitwise, f"{path}/{i}")
    elif type(old) is float and type(new) is float:
        if _float_moved(old, new, bitwise):
            yield path, old, new
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def test_results_match_the_frozen_corpus(tmp_path):
    corpus = _run_corpus(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bitwise = golden["platform"] == corpus["platform"]
    moved = list(moved_paths(golden["results"], corpus["results"], bitwise))
    if moved:
        written = tmp_path / GOLDEN.name
        written.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
        for path, old, new in moved:
            print(f"moved {path}: {old!r} -> {new!r}")
        pytest.fail(f"{len(moved)} results moved ({'bitwise' if bitwise else 'relative'} "
                    f"comparison); the new corpus is at {written}")


def test_moved_paths_names_each_leaf():
    old = {"a": [1.0, 2, "x"], "b": {"c": 0.5}, "d": 1}
    new = {"a": [1.0 + 1e-15, 2, "x"], "b": {"c": 0.5}, "e": 1}
    assert [p for p, _, _ in moved_paths(old, new, bitwise=True)] == ["/a/0", "/d", "/e"]
    assert [p for p, _, _ in moved_paths(old, new, bitwise=False)] == ["/d", "/e"]
    assert list(moved_paths({"x": -0.0}, {"x": 0.0}, bitwise=True))
    assert list(moved_paths({"x": 1}, {"x": 1.0}, bitwise=False))
