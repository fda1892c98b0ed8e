import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import ggsignal
from ggsignal import association, embeddings
from ggsignal.cli import _default_stimuli_path, main
from ggsignal.disentangler import load_stack
from ggsignal.embeddings import EmbeddingTable, load_table, save_table
from ggsignal.lexicon import load_stimuli
from ggsignal.synthetic import SynthConfig, generate

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Synthetic pipeline artifacts shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    table = root / "table.vec"
    lexicon = root / "lexicon.tsv"
    base = root / "base.vec"
    direction = root / "direction.txt"
    assert main(["synth", "--dimension", "25", "--per-class", "60",
                 "--signal", "6.0", "--noise", "0.2", "--seed", "5",
                 "--out-embeddings", str(table), "--out-base", str(base),
                 "--out-lexicon", str(lexicon), "--out-direction", str(direction),
                 "--report", str(root / "synth.json")]) == 0

    genders = dict(line.split("\t") for line in lexicon.read_text().splitlines())
    fem = [w for w, g in genders.items() if g == "F"]
    masc = [w for w, g in genders.items() if g == "M"]
    stimuli = root / "stimuli.txt"
    blocks = {
        "syn.targets.f": fem[:10], "syn.targets.m": masc[:10],
        "syn.attrs.f": fem[10:20], "syn.attrs.m": masc[10:20],
        "syn.small": fem[20:27],
    }
    stimuli.write_text("".join(f"[{k}]\n" + "\n".join(ws) + "\n\n"
                               for k, ws in blocks.items()), encoding="utf-8")

    out_table = root / "disentangled.vec"
    stack = root / "stack.txt"
    report = root / "disentangle.json"
    assert main(["disentangle", "--embeddings", str(table), "--lexicon", str(lexicon),
                 "--per-class", "40", "--regularization", "0.1", "--epochs", "30",
                 "--seed", "5", "--out-embeddings", str(out_table),
                 "--out-stack", str(stack), "--report", str(report)]) == 0
    return {
        "root": root, "table": table, "lexicon": lexicon, "stimuli": stimuli,
        "disentangled": out_table, "stack": stack, "disentangle_report": report,
        "base": base, "direction": direction, "fem": fem, "masc": masc,
    }


def read(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def test_disentangle_report_contents(env):
    report = read(env["disentangle_report"])
    results = report["results"]
    assert results["iterations"] >= 1
    trace = results["accuracy_trace"]
    assert len(trace) == results["iterations"] + 1
    assert trace[0] > 0.9
    assert trace[-1] <= 0.52
    assert report["inputs"]
    assert all(d.startswith("sha256:") for d in report["inputs"].values())


def test_disentangle_accuracy_drops_on_output_table(env):
    before = read(env["disentangle_report"])["results"]["accuracy_trace"]
    rerun_report = env["root"] / "rerun.json"
    assert main(["disentangle", "--embeddings", str(env["disentangled"]),
                 "--lexicon", str(env["lexicon"]), "--per-class", "40",
                 "--regularization", "0.1", "--epochs", "30", "--seed", "5",
                 "--iterations", "0", "--report", str(rerun_report)]) == 0
    measured = read(rerun_report)["results"]["accuracy_trace"]
    assert measured[0] <= before[0]
    assert measured[0] <= 0.65


def test_disentangle_zero_iterations_round_trips_table(env, tmp_path):
    out = tmp_path / "untouched.vec"
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(env["lexicon"].read_text(encoding="utf-8") + "ghostf\tF\nghostm\tM\n",
                       encoding="utf-8")
    report = tmp_path / "r.json"
    assert main(["disentangle", "--embeddings", str(env["table"]),
                 "--lexicon", str(lexicon), "--per-class", "40",
                 "--iterations", "0", "--seed", "1",
                 "--out-embeddings", str(out), "--report", str(report)]) == 0
    assert read(report)["results"]["missing_lexicon_words"] == 2
    original = load_table(env["table"])
    resaved = tmp_path / "resaved.vec"
    save_table(original, resaved)
    assert out.read_bytes() == resaved.read_bytes()


def test_disentangle_does_not_depend_on_the_blas_thread_count(tmp_path):
    package_root = str(Path(ggsignal.__file__).parents[1])

    def cli(argv, threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-m", "ggsignal.cli", *argv], env=env, check=True,
                       capture_output=True)

    table, lexicon = tmp_path / "synth.vec", tmp_path / "synth.tsv"
    cli(["synth", "--dimension", "300", "--per-class", "400", "--second-signal", "4",
         "--seed", "7", "--out-embeddings", str(table), "--out-lexicon", str(lexicon),
         "--report", str(tmp_path / "synth.json")], "1")
    results, outputs = [], []
    for threads in ("1", "2"):
        stack, report = tmp_path / f"stack{threads}.txt", tmp_path / f"report{threads}.json"
        after = tmp_path / f"after{threads}.vec"
        cli(["disentangle", "--embeddings", str(table), "--lexicon", str(lexicon),
             "--per-class", "400", "--seed", "3", "--out-stack", str(stack),
             "--out-embeddings", str(after), "--report", str(report)], threads)
        results.append(read(report)["results"])
        outputs.append((stack.read_bytes(), after.read_bytes()))
    assert results[0]["iterations"] >= 2
    assert results[0] == results[1]
    assert outputs[0] == outputs[1]


def test_weat_before_after_reports_delta(env, tmp_path):
    report = tmp_path / "weat.json"
    assert main(["weat", "--stimuli", str(env["stimuli"]),
                 "--targets-x", "syn.targets.f", "--targets-y", "syn.targets.m",
                 "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
                 "--before", str(env["table"]), "--after", str(env["disentangled"]),
                 "--seed", "3", "--report", str(report)]) == 0
    results = read(report)["results"]
    assert results["before"]["effect_size"] > 1.0
    assert abs(results["after"]["effect_size"]) < 0.6
    assert results["delta"]["effect_size"] == pytest.approx(
        results["after"]["effect_size"] - results["before"]["effect_size"])
    assert results["before"]["p_method"]["kind"] == "exact"


def test_weat_undersized_set_is_a_data_error(env, tmp_path, capsys):
    code = main(["weat", "--stimuli", str(env["stimuli"]),
                 "--targets-x", "syn.targets.f", "--targets-y", "syn.targets.m",
                 "--attributes-a", "syn.small", "--attributes-b", "syn.attrs.m",
                 "--embeddings", str(env["table"]),
                 "--report", str(tmp_path / "never.json")])
    assert code == 2
    assert "syn.small" in capsys.readouterr().err
    assert not (tmp_path / "never.json").exists()


def test_weat_usage_error_exit_code(env, capsys):
    assert main(["weat", "--targets-x", "syn.targets.f"]) == 1
    assert main(["weat", "--stimuli", str(env["stimuli"]),
                 "--targets-x", "syn.targets.f", "--targets-y", "syn.targets.m",
                 "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m"]) == 1
    # Valid set keys, so the stimulus check passes and the condition check runs.
    capsys.readouterr()
    assert main(["weat", "--stimuli", str(env["stimuli"]),
                 "--targets-x", "syn.targets.f", "--targets-y", "syn.targets.m",
                 "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
                 "--before", str(env["table"])]) == 1
    assert "usage error: --before and --after must be given together" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    (["synth", "--per-class", "5"], "per_class must be at least 16"),
    (["disentangle", "--stop-accuracy", "0.4"], "stop_accuracy must be in"),
    (["disentangle", "--vocab-limit", "0"], "argument --vocab-limit: must be"),
    (["synth", "--dimension", "1"], "dimension must be at least 2"),
    (["synth", "--imbalance", "0"], "class_imbalance must be positive"),
    (["disentangle", "--per-class", "0"], "per_class must be positive"),
    (["disentangle", "--iterations", "-1"], "max_iterations must be >= 0"),
    (["disentangle", "--epochs", "0"], "epochs must be a positive integer"),
    (["disentangle", "--regularization", "0"], "regularization_strength must be positive"),
    (["disentangle", "--holdout", "1.5"], "holdout_fraction must be in (0, 1)"),
    (["disentangle", "--regularization", "nan"],
     "argument --regularization: must be a finite number, got 'nan'"),
    (["disentangle", "--stop-accuracy", "nan"], "argument --stop-accuracy: must be a finite"),
    (["disentangle", "--holdout", "inf"], "argument --holdout: must be a finite"),
    (["synth", "--second-signal", "nan"], "argument --second-signal: must be a finite"),
    (["synth", "--signal", "nan"], "argument --signal: must be a finite"),
    (["synth", "--noise", "inf"], "argument --noise: must be a finite"),
    (["synth", "--imbalance", "NaN"], "argument --imbalance: must be a finite"),
    (["synth", "--signal", "strong"], "argument --signal: must be a finite number, got 'strong'"),
    (["gg-weat", "--min-score", "nan"], "argument --min-score: must be a finite"),
    (["synth", "--signal", "-1e-4"], "signal_strength and noise_scale must be >= 0"),
    (["synth", "--noise", "-inf"], "argument --noise: must be a finite number, got '-inf'"),
])
def test_rejected_option_values_are_usage_errors(env, tmp_path, capsys, extra, message):
    command, *options = extra
    inputs = {"synth": ["--out-embeddings", str(tmp_path / "x.vec")],
              "disentangle": ["--embeddings", str(env["table"]),
                              "--lexicon", str(env["lexicon"])],
              # --pairs is never read: the bad value fails the parse first.
              "gg-weat": ["--pairs", str(env["lexicon"]), "--lexicon", str(env["lexicon"]),
                          "--stimuli", str(env["stimuli"]), "--attributes-a", "syn.attrs.f",
                          "--attributes-b", "syn.attrs.m", "--embeddings", str(env["table"])],
              }[command]
    report = tmp_path / "r.json"
    assert main([command, *inputs, *options, "--report", str(report)]) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [
    ("--p-samples", "-5"), ("--p-samples", "0"), ("--p-samples", "many")])
def test_permutation_option_values_are_usage_errors_naming_the_flag(env, tmp_path, capsys,
                                                                    flag, value):
    report = tmp_path / "r.json"
    assert main(["weat", "--stimuli", str(env["stimuli"]),
                 "--targets-x", "syn.targets.f", "--targets-y", "syn.targets.m",
                 "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
                 "--embeddings", str(env["table"]), flag, value, "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "usage error:" in err and flag in err
    assert not report.exists()


def test_smallest_permutation_option_values_run(env, tmp_path, monkeypatch):
    monkeypatch.setattr(association, "_EXACT_MAX_ITEMS", 0)
    report = tmp_path / "r.json"
    assert main(["weat", "--stimuli", str(env["stimuli"]),
                 "--targets-x", "syn.targets.f", "--targets-y", "syn.targets.m",
                 "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
                 "--embeddings", str(env["table"]),
                 "--p-samples", "1", "--report", str(report)]) == 0
    result = read(report)["results"]["table"]
    assert result["p_method"] == {"kind": "monte-carlo", "samples": 1, "seed": 0}
    assert result["p_value"] in (0.5, 1.0)


def test_value_error_outside_option_validation_is_not_a_usage_error(tmp_path, capsys,
                                                                     monkeypatch):
    from ggsignal import cli

    def broken(args):
        raise ValueError("internal fault")
    monkeypatch.setattr(cli, "_cmd_synth", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["synth", "--out-embeddings", str(tmp_path / "x.vec")])
    assert "usage error" not in capsys.readouterr().err


def test_invalid_utf8_table_is_a_data_error(env, tmp_path, capsys):
    content = env["table"].read_bytes()
    second = content.index(b"\n", content.index(b"\n") + 1) + 1
    table = tmp_path / "bad.vec"
    table.write_bytes(content[:second + 2] + b"\xff" + content[second + 2:])
    assert main(["disentangle", "--embeddings", str(table), "--lexicon", str(env["lexicon"]),
                 "--per-class", "40", "--report", str(tmp_path / "r.json")]) == 2
    assert f"data error: {table}:3: invalid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_lexicon_with_byte_order_mark_is_a_data_error(env, tmp_path, capsys):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_bytes(b"\xef\xbb\xbf" + env["lexicon"].read_bytes())
    assert main(["disentangle", "--embeddings", str(env["table"]), "--lexicon", str(lexicon),
                 "--per-class", "40", "--report", str(tmp_path / "r.json")]) == 2
    assert (f"data error: {lexicon}: starts with a byte-order mark"
            in capsys.readouterr().err)
    assert not (tmp_path / "r.json").exists()


def test_nonexistent_input_is_a_data_error(env, tmp_path):
    assert main(["weat", "--stimuli", str(tmp_path / "ghost.txt"),
                 "--targets-x", "a", "--targets-y", "b",
                 "--attributes-a", "c", "--attributes-b", "d",
                 "--embeddings", str(env["table"])]) == 2


def test_sc_weat_runs_per_condition(env, tmp_path):
    report = tmp_path / "sc.json"
    word = env["fem"][0]
    assert main(["sc-weat", "--stimuli", str(env["stimuli"]), "--word", word,
                 "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
                 "--before", str(env["table"]), "--after", str(env["disentangled"]),
                 "--report", str(report)]) == 0
    results = read(report)["results"]
    assert results["before"]["effect_size"] > 0.5
    assert abs(results["after"]["effect_size"]) < abs(results["before"]["effect_size"])


def test_sc_weat_word_without_direction_is_numeric_failure(tmp_path, capsys):
    # 1e-170 is non-zero, but its square underflows: the vector has norm zero.
    vec = tmp_path / "tiny.vec"
    header, *rows = (DATA / "fixture_2d.vec").read_text(encoding="utf-8").splitlines()
    count, dim = header.split()
    vec.write_text("\n".join([f"{int(count) + 1} {dim}", *rows, "tiny 1e-170 1e-170"]) + "\n",
                   encoding="utf-8")
    report = tmp_path / "r.json"
    assert main(["sc-weat", "--stimuli", str(DATA / "fixture_2d_stimuli.txt"),
                 "--word", "tiny", "--attributes-a", "fixture.sc.a",
                 "--attributes-b", "fixture.sc.b", "--min-set-size", "5",
                 "--embeddings", str(vec), "--report", str(report)]) == 3
    assert "tiny" in capsys.readouterr().err
    assert not report.exists()


def test_gg_weat_command_builds_targets(env, tmp_path):
    fem, masc = env["fem"], env["masc"]
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("".join(f"{f}\t{m}\t{7.0 + i / 100}\n"
                             for i, (f, m) in enumerate(zip(fem[20:40], masc[20:40]))),
                     encoding="utf-8")
    report = tmp_path / "gg.json"
    assert main(["gg-weat", "--pairs", str(pairs), "--lexicon", str(env["lexicon"]),
                 "--stimuli", str(env["stimuli"]),
                 "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
                 "--before", str(env["table"]), "--after", str(env["disentangled"]),
                 "--min-score", "6.0", "--report", str(report)]) == 0
    results = read(report)["results"]
    assert len(results["feminine_targets"]) == 20
    assert results["before"]["effect_size"] > 1.0
    assert results["delta"]["effect_size"] < 0.0


def test_valnorm_command(env, tmp_path):
    norms = tmp_path / "norms.tsv"
    words = env["fem"][:6] + env["masc"][:6]
    norms.write_text("".join(f"{w}\t{i / 2}\n" for i, w in enumerate(words)),
                     encoding="utf-8")
    report = tmp_path / "val.json"
    assert main(["valnorm", "--norms", str(norms), "--stimuli", str(env["stimuli"]),
                 "--pleasant", "syn.attrs.f", "--unpleasant", "syn.attrs.m",
                 "--embeddings", str(env["table"]), "--report", str(report)]) == 0
    results = read(report)["results"]
    assert results["table"]["n_used"] == 12
    assert -1.0 <= results["table"]["pearson_r"] <= 1.0


def test_analogy_command(tmp_path):
    e = np.eye(4)
    table = EmbeddingTable(
        ["alpha", "beta", "gamma", "delta", "decoy"],
        np.vstack([e[0], e[1], e[2], (e[1] + e[2]) / math.sqrt(2.0), e[3]]))
    vec = tmp_path / "toy.vec"
    save_table(table, vec)
    questions = tmp_path / "q.txt"
    questions.write_text(": family\nalpha beta gamma delta\n", encoding="utf-8")
    report = tmp_path / "analogy.json"
    assert main(["analogy", "--questions", str(questions), "--sections", "family",
                 "--embeddings", str(vec), "--report", str(report)]) == 0
    results = read(report)["results"]
    assert results["table"] == {"accuracy": 1.0, "n_attempted": 1, "n_questions": 1}


def test_pairdist_command(tmp_path):
    rng = np.random.default_rng(8)
    gendered = EmbeddingTable(["luna", "casa", "sol", "rio"], rng.normal(size=(4, 6)))
    disen = EmbeddingTable(["luna", "casa", "sol", "rio"], rng.normal(size=(4, 6)))
    english = EmbeddingTable(["moon", "house", "sun", "river"], rng.normal(size=(4, 6)))
    paths = {}
    for name, tab in [("raw", gendered), ("dis", disen), ("en", english)]:
        paths[name] = tmp_path / f"{name}.vec"
        save_table(tab, paths[name])
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("luna\tF\ncasa\tF\nsol\tM\nrio\tM\n", encoding="utf-8")
    gp = tmp_path / "gp.tsv"
    gp.write_text("luna\tcasa\t5.0\nsol\trio\t5.0\nluna\tsol\t5.0\ncasa\trio\t5.0\n",
                  encoding="utf-8")
    ep = tmp_path / "ep.tsv"
    ep.write_text("moon\thouse\t5.0\nsun\triver\t5.0\nmoon\tsun\t5.0\nhouse\triver\t5.0\n",
                  encoding="utf-8")
    report = tmp_path / "gap.json"
    assert main(["pairdist", "--pairs-gendered", str(gp), "--pairs-english", str(ep),
                 "--lexicon", str(lexicon), "--raw", str(paths["raw"]),
                 "--disentangled", str(paths["dis"]), "--english", str(paths["en"]),
                 "--report", str(report)]) == 0
    results = read(report)["results"]
    assert results["n_same"] == 2 and results["n_diff"] == 2
    assert "reduction_percent" in results


def test_sweep_command_emits_csv(env, tmp_path):
    report = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--lexicon", str(env["lexicon"]),
                 "--stimuli", str(env["stimuli"]),
                 "--attributes-f", "syn.attrs.f", "--attributes-m", "syn.attrs.m",
                 "--per-gender", "25", "--before", str(env["table"]),
                 "--after", str(env["disentangled"]), "--seed", "4",
                 "--out-csv", str(out_csv), "--report", str(report)]) == 0
    results = read(report)["results"]
    assert results["weakened_fraction"]["overall"] >= 0.9
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "word,gender,d_before,d_after,weakened,weakened_loose"
    assert len(lines) == 1 + 50


def test_results_do_not_depend_on_output_paths(env, tmp_path):
    def results(out: Path) -> list[dict]:
        out.mkdir()
        assert main(["disentangle", "--embeddings", str(env["table"]),
                     "--lexicon", str(env["lexicon"]), "--per-class", "40",
                     "--regularization", "0.1", "--epochs", "30", "--seed", "5",
                     "--out-embeddings", str(out / "dis.vec"),
                     "--out-stack", str(out / "stack.txt"),
                     "--report", str(out / "disentangle.json")]) == 0
        assert main(["sweep", "--lexicon", str(env["lexicon"]),
                     "--stimuli", str(env["stimuli"]),
                     "--attributes-f", "syn.attrs.f", "--attributes-m", "syn.attrs.m",
                     "--per-gender", "25", "--before", str(env["table"]),
                     "--after", str(out / "dis.vec"), "--seed", "4",
                     "--out-csv", str(out / "sweep.csv"),
                     "--report", str(out / "sweep.json")]) == 0
        return [read(out / name)["results"] for name in ("disentangle.json", "sweep.json")]

    assert results(tmp_path / "one") == results(tmp_path / "two")


def test_pca_coords_command(env, tmp_path):
    out_csv = tmp_path / "coords.csv"
    report = tmp_path / "pca.json"
    assert main(["pca-coords", "--embeddings", str(env["table"]),
                 "--lexicon", str(env["lexicon"]), "--per-gender", "30",
                 "--seed", "2", "--out-csv", str(out_csv),
                 "--report", str(report)]) == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "word,gender,pc1,pc2"
    assert len(lines) == 61
    values = np.array([line.split(",")[2:] for line in lines[1:]], dtype=float)
    assert np.all(np.isfinite(values))


def test_pca_coords_zero_variance_is_numeric_failure(env, tmp_path):
    words = env["fem"][:5] + env["masc"][:5]
    flat = EmbeddingTable(words, np.ones((10, 4)))
    vec = tmp_path / "flat.vec"
    save_table(flat, vec)
    code = main(["pca-coords", "--embeddings", str(vec),
                 "--lexicon", str(env["lexicon"]), "--per-gender", "5",
                 "--out-csv", str(tmp_path / "c.csv"),
                 "--report", str(tmp_path / "r.json")])
    assert code == 3
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "c.csv").exists()


def test_failed_run_writes_nothing(env, tmp_path):
    out = tmp_path / "out.vec"
    report = tmp_path / "report.json"
    code = main(["disentangle", "--embeddings", str(env["table"]),
                 "--lexicon", str(env["lexicon"]), "--per-class", "10000",
                 "--out-embeddings", str(out), "--report", str(report)])
    assert code == 2
    assert not out.exists()
    assert not report.exists()


def test_report_argv_reproduces_identical_results(env, tmp_path, monkeypatch):
    monkeypatch.setattr(association, "_EXACT_MAX_ITEMS", 0)
    first = tmp_path / "first.json"
    argv = ["weat", "--stimuli", str(env["stimuli"]),
            "--targets-x", "syn.targets.f", "--targets-y", "syn.targets.m",
            "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
            "--embeddings", str(env["table"]),
            "--p-samples", "5000",
            "--seed", "42", "--report", str(first)]
    assert main(argv) == 0
    report = read(first)
    assert report["results"]["table"]["p_method"]["kind"] == "monte-carlo"
    second = tmp_path / "second.json"
    replay = [a if a != str(first) else str(second) for a in report["argv"]]
    assert main(replay) == 0
    again = read(second)
    assert json.dumps(report["results"], sort_keys=True) == \
        json.dumps(again["results"], sort_keys=True)
    assert report["inputs"] == again["inputs"]


def test_packaged_stimuli_are_the_default(tmp_path):
    stimuli = load_stimuli(_default_stimuli_path())
    words = [*stimuli["en.gens.science"].words, *stimuli["en.gens.humanities"].words,
             *stimuli["en.gens.men"].words, *stimuli["en.gens.women"].words]
    rng = np.random.default_rng(0)
    vec = tmp_path / "en_toy.vec"
    save_table(EmbeddingTable(words, rng.normal(size=(len(words), 16))), vec)
    report = tmp_path / "weat.json"
    assert main(["weat", "--targets-x", "en.gens.science",
                 "--targets-y", "en.gens.humanities",
                 "--attributes-a", "en.gens.men", "--attributes-b", "en.gens.women",
                 "--embeddings", str(vec), "--report", str(report)]) == 0
    assert read(report)["results"]["table"]["set_sizes"] == [18, 18, 8, 8]


def test_env_data_dir_resolves_relative_paths(env, tmp_path, monkeypatch):
    data_dir = tmp_path / "datadir"
    data_dir.mkdir()
    (data_dir / "relative_stimuli.txt").write_text(
        Path(env["stimuli"]).read_text(encoding="utf-8"), encoding="utf-8")
    monkeypatch.setenv("GGSIGNAL_DATA", str(data_dir))
    report = tmp_path / "weat.json"
    assert main(["weat", "--stimuli", "relative_stimuli.txt",
                 "--targets-x", "syn.targets.f", "--targets-y", "syn.targets.m",
                 "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
                 "--embeddings", str(env["table"]), "--report", str(report)]) == 0
    assert str(data_dir / "relative_stimuli.txt") in read(report)["inputs"]


def test_report_goes_to_stdout_when_unset(env, capsys):
    assert main(["sc-weat", "--stimuli", str(env["stimuli"]),
                 "--word", env["fem"][0],
                 "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
                 "--embeddings", str(env["table"])]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "sc-weat"
    assert "effect_size" in payload["results"]["table"]


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_synth_direction_file_is_the_planted_stack(env):
    _, _, planted, _ = generate(SynthConfig(dimension=25, per_class=60, signal_strength=6.0,
                                            noise_scale=0.2, seed=5))
    text = env["direction"].read_text(encoding="utf-8")
    assert text == "1 25\n" + " ".join("%.17g" % v for v in planted) + "\n"
    assert np.array_equal(load_stack(env["direction"]).directions[0], planted)


@pytest.fixture(scope="module")
def files(env, tmp_path_factory):
    """Every kind of input file, built over the shared synthetic table."""
    root = tmp_path_factory.mktemp("inputs")
    fem, masc = env["fem"], env["masc"]

    def write(name: str, text: str) -> Path:
        (root / name).write_text(text, encoding="utf-8")
        return root / name

    stimuli = load_stimuli(_default_stimuli_path())
    en_words = [w for key in ("en.gens.science", "en.gens.humanities", "en.gens.men",
                              "en.gens.women") for w in stimuli[key].words]
    en_table = root / "en.vec"
    save_table(EmbeddingTable(en_words, np.random.default_rng(0).normal(
        size=(len(en_words), 16))), en_table)
    return {
        **env,
        "animacy": write("animate.txt", fem[59] + "\n"),
        "pairs": write("pairs.tsv", "".join(f"{f}\t{m}\t7.0\n"
                                            for f, m in zip(fem[20:40], masc[20:40]))),
        "pair_list": write("pair_list.tsv", f"{fem[0]}\t{fem[1]}\t5.0\n{masc[0]}\t{masc[1]}\t5.0\n"
                                             f"{fem[2]}\t{masc[2]}\t5.0\n{fem[3]}\t{masc[3]}\t5.0\n"),
        "norms": write("norms.tsv", "".join(f"{w}\t{i / 2}\n"
                                            for i, w in enumerate(fem[:6] + masc[:6]))),
        "questions": write("q.txt", f": family\n{fem[0]} {fem[1]} {masc[0]} {masc[1]}\n"),
        "en_table": en_table,
    }


# One valid command line per subcommand, without --report; outputs go to `out`.
COMMANDS = {
    "disentangle": lambda f, out: [
        "disentangle", "--embeddings", str(f["table"]), "--lexicon", str(f["lexicon"]),
        "--animacy", str(f["animacy"]), "--per-class", "40", "--iterations", "0"],
    "weat": lambda f, out: [
        "weat", "--stimuli", str(f["stimuli"]), "--targets-x", "syn.targets.f",
        "--targets-y", "syn.targets.m", "--attributes-a", "syn.attrs.f",
        "--attributes-b", "syn.attrs.m", "--before", str(f["table"]),
        "--after", str(f["disentangled"])],
    "weat-packaged-stimuli": lambda f, out: [
        "weat", "--targets-x", "en.gens.science", "--targets-y", "en.gens.humanities",
        "--attributes-a", "en.gens.men", "--attributes-b", "en.gens.women",
        "--embeddings", str(f["en_table"])],
    "sc-weat": lambda f, out: [
        "sc-weat", "--stimuli", str(f["stimuli"]), "--word", f["fem"][0],
        "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
        "--embeddings", str(f["table"])],
    "gg-weat": lambda f, out: [
        "gg-weat", "--pairs", str(f["pairs"]), "--lexicon", str(f["lexicon"]),
        "--animacy", str(f["animacy"]), "--stimuli", str(f["stimuli"]),
        "--attributes-a", "syn.attrs.f", "--attributes-b", "syn.attrs.m",
        "--before", str(f["table"]), "--after", str(f["disentangled"])],
    "valnorm": lambda f, out: [
        "valnorm", "--norms", str(f["norms"]), "--stimuli", str(f["stimuli"]),
        "--pleasant", "syn.attrs.f", "--unpleasant", "syn.attrs.m",
        "--before", str(f["table"]), "--after", str(f["disentangled"])],
    "analogy": lambda f, out: [
        "analogy", "--questions", str(f["questions"]), "--embeddings", str(f["table"])],
    "pairdist": lambda f, out: [
        "pairdist", "--pairs-gendered", str(f["pair_list"]),
        "--pairs-english", str(f["pair_list"]), "--lexicon", str(f["lexicon"]),
        "--animacy", str(f["animacy"]), "--raw", str(f["table"]),
        "--disentangled", str(f["disentangled"]), "--english", str(f["base"])],
    "sweep": lambda f, out: [
        "sweep", "--lexicon", str(f["lexicon"]), "--animacy", str(f["animacy"]),
        "--stimuli", str(f["stimuli"]), "--attributes-f", "syn.attrs.f",
        "--attributes-m", "syn.attrs.m", "--per-gender", "25",
        "--before", str(f["table"]), "--after", str(f["disentangled"]),
        "--out-csv", str(out / "sweep.csv")],
    "pca-coords": lambda f, out: [
        "pca-coords", "--embeddings", str(f["table"]), "--lexicon", str(f["lexicon"]),
        "--animacy", str(f["animacy"]), "--per-gender", "20",
        "--out-csv", str(out / "coords.csv")],
    "synth": lambda f, out: [
        "synth", "--dimension", "4", "--per-class", "16",
        "--out-embeddings", str(out / "synth.vec")],
}
STIMULI_COMMANDS = {"weat", "sc-weat", "gg-weat", "valnorm", "sweep"}


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_report_inputs_are_the_files_named_on_the_command_line(files, tmp_path, case):
    argv = COMMANDS[case](files, tmp_path)
    expected = {arg for arg in argv if Path(arg).is_file()}
    if argv[0] in STIMULI_COMMANDS and "--stimuli" not in argv:
        expected.add(str(_default_stimuli_path()))
    report = tmp_path / "report.json"
    assert main([*argv, "--report", str(report)]) == 0
    assert set(read(report)["inputs"]) == expected


@pytest.mark.parametrize("flag", ["--p-samples"])
@pytest.mark.parametrize("command", ["valnorm", "sweep"])
def test_permutation_flags_are_usage_errors_where_unread(files, tmp_path, command, flag):
    assert main([*COMMANDS[command](files, tmp_path), flag, "1000"]) == 1


def test_exact_limit_is_not_an_option(files, tmp_path, capsys):
    # The number of pooled scores alone decides exact or Monte Carlo p-values.
    report = tmp_path / "r.json"
    assert main([*COMMANDS["weat"](files, tmp_path), "--exact-limit", "5",
                 "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "usage error:" in err and "--exact-limit" in err
    assert not report.exists()


# disentangle's declaration is checked in test_rejected_option_values_are_usage_errors.
@pytest.mark.parametrize("command", ["weat", "pairdist", "sweep", "pca-coords"])
def test_vocab_limit_below_one_is_a_usage_error_naming_the_flag(files, tmp_path, capsys,
                                                                 command):
    report = tmp_path / "r.json"
    assert main([*COMMANDS[command](files, tmp_path), "--vocab-limit", "0",
                 "--report", str(report)]) == 1
    assert "usage error: argument --vocab-limit: must be at least 1, got 0" in \
        capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("weat", "--min-set-size", "-4"), ("sc-weat", "--min-set-size", "0"),
    ("valnorm", "--min-set-size", "0"), ("sweep", "--min-set-size", "-1"),
    ("gg-weat", "--min-set-size", "0"), ("gg-weat", "--max-per-set", "0"),
    ("gg-weat", "--max-per-set", "-2"), ("gg-weat", "--max-per-set", "7")])
def test_set_size_values_below_their_floor_are_usage_errors_naming_the_flag(
        files, tmp_path, capsys, command, flag, value):
    report = tmp_path / "r.json"
    assert main([*COMMANDS[command](files, tmp_path), flag, value,
                 "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "usage error:" in err and flag in err
    assert not report.exists()


def test_smallest_set_size_values_run(files, tmp_path):
    report = tmp_path / "r.json"
    assert main([*COMMANDS["gg-weat"](files, tmp_path), "--max-per-set", "8",
                 "--min-set-size", "1", "--report", str(report)]) == 0
    assert len(read(report)["results"]["feminine_targets"]) == 8


@pytest.mark.parametrize("command", ["sweep", "pca-coords"])
def test_non_positive_per_gender_is_a_usage_error(files, tmp_path, command):
    assert main([*COMMANDS[command](files, tmp_path), "--per-gender", "0"]) == 1


@pytest.mark.parametrize("command", ["valnorm", "sweep"])
def test_trim_to_equal_still_accepted(files, tmp_path, command):
    report = tmp_path / "report.json"
    assert main([*COMMANDS[command](files, tmp_path), "--trim-to-equal",
                 "--report", str(report)]) == 0


def test_sweep_zero_norm_words_are_a_numeric_failure(files, tmp_path, capsys):
    zeroed = [files["fem"][40], files["masc"][45]]
    table = load_table(files["disentangled"])
    matrix = table.matrix.copy()
    matrix[[table.index_of(w) for w in zeroed]] = 0.0
    after = tmp_path / "after.vec"
    save_table(table.with_matrix(matrix), after)
    argv = COMMANDS["sweep"](files, tmp_path)
    argv[argv.index("--after") + 1] = str(after)
    assert main([*argv, "--per-gender", "60", "--report", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: sweep sample: zero-norm vectors for: " in err
    assert all(w in err for w in zeroed)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["disentangle", "sweep", "pca-coords"])
def test_lexicon_sampling_builds_no_vocabulary_set(files, tmp_path, monkeypatch, command):
    # Reading a table's whole word list is what building a set of it takes.
    def refuse(self):
        raise AssertionError("whole vocabulary read")

    monkeypatch.setattr(EmbeddingTable, "words", property(refuse))
    assert main([*COMMANDS[command](files, tmp_path),
                 "--report", str(tmp_path / "r.json")]) == 0


def _named_words(f, command: str) -> set[str]:
    """The words `COMMANDS[command]` names, from how `files` are built."""
    fem, masc = f["fem"], f["masc"]
    lexicon = set(fem + masc) - {fem[59]}   # fem[59] is on the animacy list
    attrs = set(fem[10:20] + masc[10:20])
    return {
        "disentangle": lexicon,
        "weat": set(fem[:20] + masc[:20]),
        "sc-weat": {fem[0]} | attrs,
        "gg-weat": set(fem[20:40] + masc[20:40]) | attrs,
        "valnorm": set(fem[:6] + masc[:6]) | attrs,
        "analogy": {fem[0], fem[1], masc[0], masc[1]},
        "pairdist": set(fem[:4] + masc[:4]),
        "sweep": lexicon | attrs,
        "pca-coords": lexicon,
    }[command]


def _spy_parsed_words(monkeypatch) -> dict[str, set[str]]:
    """{path: words} of the table rows whose values `_parse_block` converts."""
    parsed = defaultdict(set)
    parse = embeddings._parse_block

    def spy(path, texts, linenos, dim):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        parsed[str(path)].update(lines[n - 1].split(" ", 1)[0] for n in linenos)
        return parse(path, texts, linenos, dim)

    monkeypatch.setattr(embeddings, "_parse_block", spy)
    return parsed


def _file_words(path) -> list[str]:
    return [line.split(" ", 1)[0]
            for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]]


NAMED_ROW_COMMANDS = ["weat", "sc-weat", "gg-weat", "valnorm", "pairdist", "sweep",
                      "pca-coords"]


@pytest.mark.parametrize("vocab_limit", [None, 50])
@pytest.mark.parametrize("command", NAMED_ROW_COMMANDS + ["disentangle", "analogy"])
def test_only_disentangle_and_analogy_parse_the_vocabulary(files, tmp_path, monkeypatch,
                                                          command, vocab_limit):
    argv = COMMANDS[command](files, tmp_path)
    if vocab_limit is not None:
        argv += ["--vocab-limit", str(vocab_limit)]
    parsed = _spy_parsed_words(monkeypatch)
    assert main([*argv, "--report", str(tmp_path / "r.json")]) == 0
    assert set(parsed) == {arg for arg in argv if arg.endswith(".vec")}
    named = _named_words(files, command)
    for path, words in parsed.items():
        vocabulary = _file_words(path)
        if command in NAMED_ROW_COMMANDS:
            # Only the named words present, wherever they are in the file.
            assert words == named & set(vocabulary), path
        else:
            assert words == set(vocabulary[:vocab_limit]) | (named & set(vocabulary)), path


def _with_bad_value(path, word: str, out) -> int:
    """Copy of table `path` with a non-numeric value in `word`'s row; its line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(word + " "))
    lines[row] = f"{word} zebra " + lines[row].split(" ", 2)[2]
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return row + 1


def test_values_of_rows_a_command_does_not_keep_are_not_checked(files, tmp_path, capsys):
    # masc[50] is named by neither command, and lies inside the limit.
    bad = tmp_path / "bad.vec"
    line = _with_bad_value(files["table"], files["masc"][50], bad)
    limit = ["--vocab-limit", str(len(_file_words(bad)))]
    weat = COMMANDS["weat"](files, tmp_path)
    weat[weat.index("--before"):] = ["--embeddings", str(bad)]
    assert main([*weat, *limit, "--report", str(tmp_path / "weat.json")]) == 0
    analogy = ["analogy", "--questions", str(files["questions"]), "--embeddings", str(bad)]
    assert main([*analogy, *limit, "--report", str(tmp_path / "analogy.json")]) == 2
    assert f"data error: {bad}:{line}: non-numeric value" in capsys.readouterr().err
    assert not (tmp_path / "analogy.json").exists()


def test_weat_with_a_vocab_limit_allocates_the_named_rows_not_the_limit(tmp_path):
    # 50,040 rows of 100 values, all inside the limit: a load that kept them
    # would hold a 40 MB matrix. The 40 words weat names are spread through.
    rows, dim = 50_000, 100
    sets = {key: [f"{key[0]}{i}" for i in range(10)] for key in ("xs", "ys", "as", "bs")}
    named = [w for words in sets.values() for w in words]
    rng = np.random.default_rng(0)
    filler = " 0.1" * dim
    lines = [f"{rows + len(named)} {dim}"]
    step = rows // len(named)
    for i in range(rows):
        if i % step == 0:
            values = " ".join(f"{v:.4f}" for v in rng.normal(size=dim))
            lines.append(f"{named[i // step]} {values}")
        lines.append(f"w{i}{filler}")
    table = tmp_path / "big.vec"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stimuli = tmp_path / "stimuli.txt"
    stimuli.write_text("".join(f"[{key}]\n" + "\n".join(words) + "\n"
                               for key, words in sets.items()), encoding="utf-8")
    argv = ["weat", "--stimuli", str(stimuli), "--targets-x", "xs", "--targets-y", "ys",
            "--attributes-a", "as", "--attributes-b", "bs", "--embeddings", str(table),
            "--vocab-limit", str(rows + len(named)), "--report", str(tmp_path / "r.json")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
        # What the load holds beside its rows: one word per counted row.
        before = tracemalloc.get_traced_memory()[0]
        counted = set(_file_words(table))
        words_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del counted
    line_bytes = table.stat().st_size / (rows + len(named))
    block = embeddings._BLOCK_ROWS * (line_bytes + 8 * dim)
    # A chunk's bytes and their uint16 space counts.
    chunk = 3 * embeddings._BLOCK_ROWS * embeddings._CHUNK_FIELD_BYTES * (dim + 1)
    digest = 1 << 20   # cli._digest reads the file 1 MiB at a time
    assert peak <= 8 * dim * len(named) + block + chunk + words_bytes + digest
    assert peak < 0.25 * 8 * dim * rows
