"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 4 (desk-scale reproduction on downloaded public vectors) lives in
test_reproduction.py and is skipped unless real data is present; the stub
here reports its status so the gate always prints five lines.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from ggsignal import association
from ggsignal.association import PermutationConfig, weat
from ggsignal.classifier import TrainConfig
from ggsignal.cli import main
from ggsignal.disentangler import DisentangleConfig, HyperplaneStack, apply_stack, run
from ggsignal.embeddings import EmbeddingTable
from ggsignal.evaluations import pairwise_gap
from ggsignal.lexicon import GenderLexicon, SimilarityPair, StimulusSet
from ggsignal.synthetic import SynthConfig, generate

DATA = Path(__file__).parent / "data"
REAL_DATA_ENV = "GGSIGNAL_REAL_DATA"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {description}: FAIL", flush=True)
        raise
    print(f"[criterion {number}] {description}: PASS", flush=True)


def project(v, d):
    """`v` with the unit direction `d` removed, by a one-direction stack."""
    table = EmbeddingTable(["v"], v[None, :])
    return apply_stack(table, HyperplaneStack(directions=d[None, :])).matrix[0]


# -------------------------------------------------------------- criterion 1

def test_criterion_1_projection_and_property_suite(fixture_table, fixture_stimuli):
    started = time.monotonic()
    with criterion(1, "projection/property suite"):
        rng = np.random.default_rng(101)

        # projection identities on random vectors
        for _ in range(200):
            v = rng.normal(size=12) * rng.uniform(0.1, 50)
            d = rng.normal(size=12)
            d /= np.linalg.norm(d)
            once = project(v, d)
            assert abs(float(once @ d)) <= 1e-9 * max(1.0, float(np.linalg.norm(v)))
            twice = project(once, d)
            assert np.max(np.abs(twice - once)) <= 1e-9 * max(1.0, float(np.linalg.norm(v)))
            assert np.linalg.norm(once) <= np.linalg.norm(v) + 1e-12

        # empty stack is the identity
        table = EmbeddingTable(["a", "b"], rng.normal(size=(2, 12)))
        assert apply_stack(table, HyperplaneStack(directions=np.zeros((0, 12)))) is table

        # antisymmetry and scaling invariance of the association test
        x, y = fixture_stimuli["fixture.targets.x"], fixture_stimuli["fixture.targets.y"]
        a, b = fixture_stimuli["fixture.attributes.a"], fixture_stimuli["fixture.attributes.b"]
        base = weat(x, y, a, b, fixture_table)
        assert weat(y, x, a, b, fixture_table).effect_size == -base.effect_size
        assert weat(x, y, b, a, fixture_table).effect_size == -base.effect_size
        scaled_table = EmbeddingTable(fixture_table.words, fixture_table.matrix * 512.0)
        assert weat(x, y, a, b, scaled_table).effect_size == pytest.approx(
            base.effect_size, abs=1e-9)

        # exact enumeration vs Monte Carlo on 8+8 targets
        with patch.object(association, "_EXACT_MAX_ITEMS", 0):
            monte = weat(x, y, a, b, fixture_table, PermutationConfig(samples=100_000, seed=7))
        assert abs(monte.p_value - base.p_value) <= 0.01

        # null calibration: rejection rate at alpha=0.05 over 200 null draws
        rejections = 0
        for _ in range(200):
            words = [f"t{i}" for i in range(32)]
            null_table = EmbeddingTable(words, rng.normal(size=(32, 20)))
            quarters = [words[i * 8:(i + 1) * 8] for i in range(4)]
            sets = [StimulusSet(n, tuple(q))
                    for n, q in zip(("x", "y", "a", "b"), quarters)]
            rejections += weat(*sets, null_table).p_value < 0.05
        assert rejections / 200 == pytest.approx(0.05, abs=0.03)

        assert time.monotonic() - started < 10.0


# -------------------------------------------------------------- criterion 2

def _pure_python_weat(xx, yy, aa, bb):
    def cos(u, v):
        dot = sum(p * q for p, q in zip(u, v))
        return dot / (math.sqrt(sum(p * p for p in u)) * math.sqrt(sum(q * q for q in v)))

    def mean(s):
        return sum(s) / len(s)

    def pstd(s):
        m = mean(s)
        return math.sqrt(sum((v - m) ** 2 for v in s) / len(s))

    s = lambda w: mean([cos(w, p) for p in aa]) - mean([cos(w, q) for q in bb])
    sx, sy = [s(x) for x in xx], [s(y) for y in yy]
    d = (mean(sx) - mean(sy)) / pstd(sx + sy)
    stat = sum(sx) - sum(sy)
    pooled = sx + sy
    greater = total = 0
    for chosen in combinations(range(len(pooled)), len(xx)):
        inside = set(chosen)
        si = sum(pooled[i] for i in inside) - sum(
            pooled[i] for i in range(len(pooled)) if i not in inside)
        total += 1
        greater += si > stat
    return d, stat, greater / total


def test_criterion_2_fixture_oracle_suite(fixture_table, fixture_stimuli):
    started = time.monotonic()
    with criterion(2, "fixture oracle suite"):
        # frozen spreadsheet-oracle values, recomputed live by pure python
        vec = lambda w: tuple(fixture_table.rows([w])[0])
        xx = [vec(f"x{i}") for i in range(1, 9)]
        yy = [vec(f"y{i}") for i in range(1, 9)]
        aa = [vec(f"a{i}") for i in range(1, 9)]
        bb = [vec(f"b{i}") for i in range(1, 9)]
        oracle_d, oracle_stat, oracle_p = _pure_python_weat(xx, yy, aa, bb)
        assert oracle_d == pytest.approx(1.0524982847198139, abs=1e-12)

        result = weat(fixture_stimuli["fixture.targets.x"],
                      fixture_stimuli["fixture.targets.y"],
                      fixture_stimuli["fixture.attributes.a"],
                      fixture_stimuli["fixture.attributes.b"], fixture_table)
        assert result.effect_size == pytest.approx(oracle_d, abs=1e-9)
        assert result.statistic == pytest.approx(oracle_stat, abs=1e-9)
        assert result.p_value == pytest.approx(oracle_p, abs=1e-12)

        from ggsignal.association import sc_weat
        sc = sc_weat("w0", fixture_stimuli["fixture.sc.a"],
                     fixture_stimuli["fixture.sc.b"], fixture_table, min_words=5)
        assert sc.effect_size == pytest.approx(1.9034882109072848, abs=1e-9)
        assert sc.p_value == 0.0

        # pairwise-gap l-values against a brute-force pair loop
        rng = np.random.default_rng(55)
        lexicon = GenderLexicon("xx", ("fa", "fb", "fc"), ("ma", "mb", "mc"))
        gendered_words = ["fa", "fb", "fc", "ma", "mb", "mc"]
        english_words = ["ea", "eb", "ec", "ed", "ee", "ef"]
        table_raw = EmbeddingTable(gendered_words, rng.normal(size=(6, 9)))
        table_dis = EmbeddingTable(gendered_words, rng.normal(size=(6, 9)))
        table_en = EmbeddingTable(english_words, rng.normal(size=(6, 9)))
        pairs_g = [SimilarityPair("fa", "fb", 5.0), SimilarityPair("ma", "mb", 5.0),
                   SimilarityPair("fc", "mc", 5.0), SimilarityPair("fb", "ma", 5.0)]
        pairs_e = [SimilarityPair("ea", "eb", 5.0), SimilarityPair("ec", "ed", 5.0),
                   SimilarityPair("ee", "ef", 5.0), SimilarityPair("ea", "ef", 5.0)]
        gap = pairwise_gap(pairs_g, pairs_e, lexicon, table_raw, table_dis, table_en)

        def loop_gap(table, pairs, kinds):
            sums = {"same": [], "diff": []}
            for p, kind in zip(pairs, kinds):
                u = [float(v) for v in table.rows([p.word_a])[0]]
                w = [float(v) for v in table.rows([p.word_b])[0]]
                dot = sum(ui * wi for ui, wi in zip(u, w))
                nu = math.sqrt(sum(ui * ui for ui in u))
                nw = math.sqrt(sum(wi * wi for wi in w))
                sums[kind].append(dot / (nu * nw))
            return (sum(sums["same"]) / len(sums["same"])
                    - sum(sums["diff"]) / len(sums["diff"]))

        kinds = ["same", "same", "diff", "diff"]
        assert gap.gap_raw == pytest.approx(loop_gap(table_raw, pairs_g, kinds), abs=1e-12)
        assert gap.gap_disentangled == pytest.approx(loop_gap(table_dis, pairs_g, kinds), abs=1e-12)
        assert gap.gap_english == pytest.approx(loop_gap(table_en, pairs_e, kinds), abs=1e-12)

        assert time.monotonic() - started < 10.0


# -------------------------------------------------------------- criterion 3

def test_criterion_3_synthetic_end_to_end():
    started = time.monotonic()
    with criterion(3, "synthetic end-to-end"):
        config = SynthConfig(dimension=300, per_class=3000, signal_strength=5.0,
                             noise_scale=0.5, seed=11)
        table, lexicon, planted, base = generate(config)
        out, stack = run(table, lexicon,
                         DisentangleConfig(per_class=3000, seed=11,
                                           classifier=TrainConfig(seed=11)))

        trace = stack.accuracy_trace
        assert trace[0] >= 0.95
        assert stack.final_accuracy <= 0.52
        assert len(stack) <= 15
        assert abs(float(stack.directions[0] @ planted)) >= 0.90

        # association of planted classes after disentanglement
        fem, masc = list(lexicon.feminine), list(lexicon.masculine)
        spec_sets = (StimulusSet("xf", tuple(fem[:30])),
                     StimulusSet("ym", tuple(masc[:30])),
                     StimulusSet("af", tuple(fem[30:60])),
                     StimulusSet("bm", tuple(masc[30:60])))
        after = weat(*spec_sets, out)
        assert abs(after.effect_size) <= 0.2

        # cosine structure of the gender-free content is preserved
        rng = np.random.default_rng(0)
        idx = rng.choice(len(out.words), 400, replace=False)
        def cosines(matrix):
            unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]
            return unit @ unit.T
        upper = np.triu_indices(400, k=1)
        deviation = np.abs(cosines(out.matrix[idx])[upper]
                           - cosines(base.matrix[idx])[upper])
        assert float(deviation.mean()) <= 0.02

        # two-direction mode needs at least two rounds
        table2, lexicon2, _, _ = generate(SynthConfig(
            dimension=300, per_class=3000, signal_strength=5.0, noise_scale=0.5,
            second_direction_strength=5.0, seed=11))
        _, stack2 = run(table2, lexicon2,
                        DisentangleConfig(per_class=3000, seed=11,
                                          classifier=TrainConfig(seed=11)))
        assert len(stack2) >= 2
        assert stack2.final_accuracy <= 0.52

        assert time.monotonic() - started < 60.0


# -------------------------------------------------------------- criterion 4

def test_criterion_4_desk_scale_reproduction_status():
    data_dir = os.environ.get(REAL_DATA_ENV)
    if not data_dir:
        print(f"[criterion 4] desk-scale paper reproduction: SKIP "
              f"(set {REAL_DATA_ENV}; see REPRODUCING.md)", flush=True)
        pytest.skip(f"{REAL_DATA_ENV} not set; reproduction tier needs "
                    "downloaded public vectors")
    with criterion(4, "desk-scale paper reproduction"):
        # the point-value and trend checks live in test_reproduction.py;
        # here we only assert the tier is runnable when data is present
        assert Path(data_dir).is_dir()


# -------------------------------------------------------------- criterion 5

def test_criterion_5_determinism_from_report_echo(tmp_path, fixture_stimuli):
    with criterion(5, "determinism from the report's config echo"):
        first = tmp_path / "first.json"
        argv = ["weat", "--stimuli", str(DATA / "fixture_2d_stimuli.txt"),
                "--targets-x", "fixture.targets.x", "--targets-y", "fixture.targets.y",
                "--attributes-a", "fixture.attributes.a",
                "--attributes-b", "fixture.attributes.b",
                "--embeddings", str(DATA / "fixture_2d.vec"),
                "--p-samples", "20000",
                "--seed", "97", "--report", str(first)]
        # 16 pooled scores, sampled rather than counted exactly
        with patch.object(association, "_EXACT_MAX_ITEMS", 0):
            assert main(argv) == 0
            report = json.loads(first.read_text(encoding="utf-8"))
            assert report["results"]["table"]["p_method"]["kind"] == "monte-carlo"

            second = tmp_path / "second.json"
            replay = [arg if arg != str(first) else str(second) for arg in report["argv"]]
            assert main(replay) == 0
        rerun = json.loads(second.read_text(encoding="utf-8"))
        assert json.dumps(report["results"], sort_keys=True) == \
            json.dumps(rerun["results"], sort_keys=True)

        # the disentangle pipeline is deterministic end to end as well
        synth = tmp_path / "synth.vec"
        lexicon = tmp_path / "lex.tsv"
        assert main(["synth", "--dimension", "20", "--per-class", "40",
                     "--signal", "5.0", "--noise", "0.3", "--seed", "3",
                     "--out-embeddings", str(synth), "--out-lexicon", str(lexicon),
                     "--report", str(tmp_path / "s.json")]) == 0
        reports = []
        for name in ("d1.json", "d2.json"):
            path = tmp_path / name
            assert main(["disentangle", "--embeddings", str(synth),
                         "--lexicon", str(lexicon), "--per-class", "30",
                         "--regularization", "0.1", "--epochs", "30",
                         "--seed", "3", "--report", str(path)]) == 0
            reports.append(json.loads(path.read_text(encoding="utf-8"))["results"])
        assert json.dumps(reports[0], sort_keys=True) == \
            json.dumps(reports[1], sort_keys=True)
