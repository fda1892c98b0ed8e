"""The command lines of scripts/run_reproduction.py, recorded instead of run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ggsignal.cli import _default_stimuli_path, build_parser
from ggsignal.lexicon import load_stimuli

SCRIPT = Path(__file__).parents[1] / "scripts" / "run_reproduction.py"
SET_OPTIONS = ("targets_x", "targets_y", "attributes_a", "attributes_b",
               "attributes_f", "attributes_m", "pleasant", "unpleasant")


@pytest.mark.parametrize("lang", ["fr", "de", "it", "pl", "es"])
def test_commands_parse_and_name_only_packaged_sets(tmp_path, monkeypatch, capsys, lang):
    for name in (f"valence/{lang}.tsv", f"analogy/{lang}.txt"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("", encoding="utf-8")
    spec = importlib.util.spec_from_file_location("run_reproduction", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recorded = []
    monkeypatch.setattr(script, "ggsignal_main", lambda argv: recorded.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", ["run_reproduction.py", "--data-dir", str(tmp_path),
                                      "--lang", lang, "--out", str(tmp_path / "out")])
    assert script.main() == 0

    packaged = load_stimuli(_default_stimuli_path())
    parser = build_parser()
    for argv in recorded:
        args = parser.parse_args(argv)
        named = [getattr(args, option) for option in SET_OPTIONS if hasattr(args, option)]
        assert all(key in packaged for key in named), argv
    assert [argv[0] for argv in recorded] == [
        "disentangle", "weat", "weat", "gg-weat", "sweep", "pairdist", "pca-coords",
        "pca-coords", "analogy"]
    assert (f"skipping valnorm: packaged stimuli lack {lang}.base.pleasant, "
            f"{lang}.base.unpleasant") in capsys.readouterr().out
