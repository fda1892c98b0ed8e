from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsignal.disentangler import load_stack
from ggsignal.errors import DataError, FormatError
from ggsignal.lexicon import (GenderLexicon, StimulusSet, balanced_sample,
                              load_analogies, load_gender_lexicon,
                              load_similarity_pairs, load_stimuli,
                              load_valence_norms)

PACKAGED_STIMULI = Path(__file__).parents[1] / "src" / "ggsignal" / "data" / "stimuli_weat.txt"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_basic_lexicon(tmp_path):
    nouns = write(tmp_path, "n.tsv", "luna\tF\nsol\tM\n")
    lex = load_gender_lexicon(nouns)
    assert lex.feminine == ("luna",)
    assert lex.masculine == ("sol",)


def test_animacy_filtering(tmp_path):
    nouns = write(tmp_path, "n.tsv", "luna\tF\nsol\tM\nmadre\tF\n")
    animacy = write(tmp_path, "a.txt", "madre\n")
    lex = load_gender_lexicon(nouns, animacy)
    assert lex.feminine == ("luna",)
    assert lex.masculine == ("sol",)


def test_animacy_filtering_idempotent(tmp_path):
    nouns = write(tmp_path, "n.tsv", "luna\tF\ncasa\tF\nsol\tM\nrey\tM\n")
    animacy = write(tmp_path, "a.txt", "rey\n")
    once = load_gender_lexicon(nouns, animacy)
    refiltered = write(tmp_path, "n2.tsv",
                       "".join(f"{w}\tF\n" for w in once.feminine)
                       + "".join(f"{w}\tM\n" for w in once.masculine))
    twice = load_gender_lexicon(refiltered, animacy)
    assert twice.feminine == once.feminine
    assert twice.masculine == once.masculine


def test_gender_conflict_dropped(tmp_path):
    nouns = write(tmp_path, "n.tsv", "casa\tF\ncasa\tM\nluna\tF\nsol\tM\n")
    lex = load_gender_lexicon(nouns)
    assert "casa" not in lex.feminine
    assert "casa" not in lex.masculine


def test_lexicon_word_sets_leave_equality_and_hash_alone():
    lex = GenderLexicon("it", ("luna", "casa"), ("sol",))
    before = hash(lex)
    assert [lex.gender_of(w) for w in ("casa", "sol", "cane")] == ["F", "M", None]
    fresh = GenderLexicon("it", ("luna", "casa"), ("sol",))
    assert lex == fresh and hash(lex) == before == hash(fresh)


def test_unparseable_tag_errors(tmp_path):
    nouns = write(tmp_path, "n.tsv", "luna\tX\n")
    with pytest.raises(FormatError):
        load_gender_lexicon(nouns)


def test_empty_after_filtering_errors(tmp_path):
    nouns = write(tmp_path, "n.tsv", "madre\tF\nsol\tM\n")
    animacy = write(tmp_path, "a.txt", "madre\n")
    with pytest.raises(DataError):
        load_gender_lexicon(nouns, animacy)


def test_balanced_sample_trivial():
    lex = GenderLexicon("xx", ("luna",), ("sol",))
    fem, masc = balanced_sample(lex, 1, seed=0)
    assert fem == ["luna"]
    assert masc == ["sol"]


def test_balanced_sample_deterministic():
    lex = GenderLexicon("xx", tuple(f"f{i}" for i in range(50)),
                        tuple(f"m{i}" for i in range(50)))
    assert balanced_sample(lex, 10, seed=7) == balanced_sample(lex, 10, seed=7)
    assert balanced_sample(lex, 10, seed=7) != balanced_sample(lex, 10, seed=8)


def test_balanced_sample_insufficient():
    lex = GenderLexicon("xx", ("a", "b"), ("c",))
    with pytest.raises(DataError):
        balanced_sample(lex, 2, seed=0)


@settings(max_examples=30, deadline=None)
@given(per_class=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=10_000))
def test_balanced_sample_disjoint_subsets(per_class, seed):
    lex = GenderLexicon("xx", tuple(f"f{i}" for i in range(40)),
                        tuple(f"m{i}" for i in range(40)))
    fem, masc = balanced_sample(lex, per_class, seed)
    assert len(fem) == len(masc) == per_class
    assert set(fem).isdisjoint(masc)
    assert set(fem) <= set(lex.feminine)
    assert set(masc) <= set(lex.masculine)
    assert len(set(fem)) == per_class and len(set(masc)) == per_class


def test_packaged_stimuli_genc_names():
    stimuli = load_stimuli(PACKAGED_STIMULI)
    assert stimuli["en.genc.men"].words == ("Ben", "Paul", "Daniel", "John", "Jeffrey")


def test_packaged_stimuli_gens_science_size():
    stimuli = load_stimuli(PACKAGED_STIMULI)
    assert len(stimuli["en.gens.science"]) == 18
    assert len(stimuli["en.gens.humanities"]) == 18


def test_packaged_stimuli_cover_six_languages():
    stimuli = load_stimuli(PACKAGED_STIMULI)
    for lang in ("en", "fr", "de", "it", "pl", "es"):
        for key in ("science", "humanities", "men", "women"):
            assert f"{lang}.gens.{key}" in stimuli, f"{lang}.gens.{key}"
        for key in ("career", "family", "men", "women"):
            assert f"{lang}.genc.{key}" in stimuli


def test_duplicate_word_in_set_flagged_and_dropped(tmp_path, caplog):
    path = write(tmp_path, "s.txt", "[k.a]\nfoo\nbar\nfoo\n")
    with caplog.at_level("WARNING"):
        stimuli = load_stimuli(path)
    assert stimuli["k.a"].words == ("foo", "bar")
    assert any("duplicate" in r.message for r in caplog.records)


def test_small_set_accepted_at_load(tmp_path, caplog):
    path = write(tmp_path, "s.txt", "[k.small]\na\nb\nc\n")
    with caplog.at_level("WARNING"):
        stimuli = load_stimuli(path)
    assert len(stimuli["k.small"]) == 3
    assert any("only 3 words" in r.message for r in caplog.records)


def test_stimulus_set_rejects_duplicates():
    with pytest.raises(DataError):
        StimulusSet("x", ("a", "a"))


def test_similarity_pairs_round_trip(tmp_path):
    path = write(tmp_path, "p.tsv", "luna\tsole\t7.5\tF\tM\ncasa\ttetto\t3.25\n")
    pairs = load_similarity_pairs(path)
    assert pairs[0].gender_a == "F" and pairs[0].gender_b == "M"
    assert pairs[0].score == 7.5
    assert pairs[1].gender_a is None


def test_similarity_pairs_reject_identical_words(tmp_path):
    path = write(tmp_path, "p.tsv", "luna\tluna\t7.5\n")
    with pytest.raises(FormatError):
        load_similarity_pairs(path)


def test_valence_norms(tmp_path):
    path = write(tmp_path, "v.tsv", "joy\t8.2\ngrief\t1.7\n")
    norms = load_valence_norms(path)
    assert [n.word for n in norms] == ["joy", "grief"]
    with pytest.raises(FormatError):
        load_valence_norms(write(tmp_path, "bad.tsv", "joy\tnan\n"))


def test_valence_norms_reject_a_repeated_word(tmp_path):
    # Loaded twice, the word would weigh twice in the correlation.
    path = write(tmp_path, "v.tsv", "joy\t8.2\n# note\ngrief\t1.7\n\njoy\t8.4\n")
    with pytest.raises(FormatError, match=r"v\.tsv:5: word 'joy' already rated on line 1$"):
        load_valence_norms(path)


def test_analogies_sections_and_shape(tmp_path):
    path = write(tmp_path, "q.txt",
                 ": family\nman woman king queen\n: capitals\nparis france rome italy\n")
    questions = load_analogies(path)
    assert questions[0].section == "family"
    assert questions[1].section == "capitals"
    with pytest.raises(FormatError):
        load_analogies(write(tmp_path, "bad.txt", ": s\na b c\n"))
    with pytest.raises(FormatError):
        load_analogies(write(tmp_path, "bad2.txt", ": s\na b c a\n"))


# Per reader: a valid text, a text with a malformed line, and the message
# naming that line. Most valid texts hold U+001C, U+0085 or U+2028 inside a
# line: text reading does not end lines there, str.splitlines does.
LINE_END_FILES = {
    "lexicon": (load_gender_lexicon, "# nouns\nluna\tF\n\nsol\tM\nc\u2028d\tF\n",
                "luna\tF\nsol\tM\nluz F\n", ":3: expected 'word<TAB>F|M'"),
    "animacy": (lambda path: load_gender_lexicon(write(path.parent, "n.tsv", NOUNS), path),
                "madre\n\nrey\n", None, None),
    "stimuli": (load_stimuli, "[a\x1cb]\nx\ny\n# note\n\n[c]\nw\u2028v\n",
                "[a]\nx\n\n[ ]\n", ":4: empty set key"),
    "pairs": (load_similarity_pairs, "# pairs\na\tb\t7.5\n\nc\x85\td\t6\tF\tM\n",
              "a\tb\t7.5\nc\td\n", ":2: expected 3 or 5 tab-separated fields"),
    "norms": (load_valence_norms, "a\t1.5\n\nb\x1c\t-2\n",
              "a\t1.5\nb\t2\t3\n", ":2: expected 'word<TAB>valence'"),
    "analogies": (load_analogies, ": s\na b c d\n\ne\u2028 f g h\n",
                  ": s\na b c d\ne f g\n", ":3: expected four words per question"),
    "stack": (lambda path: load_stack(path).directions.tolist(), "2 2\n1 0\n\n0 1\n",
              "2 2\n1 0\n0\n", ":3: expected 2 values"),
}
NOUNS = "madre\tF\nluna\tF\nrey\tM\nsol\tM\n"


@pytest.mark.parametrize("name", sorted(LINE_END_FILES))
def test_lf_crlf_and_lone_cr_files_load_alike(tmp_path, name):
    load, text, malformed, message = LINE_END_FILES[name]
    path = tmp_path / "input.txt"
    loaded = []
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(text.replace("\n", end).encode("utf-8"))
        loaded.append(load(path))
        if malformed is not None:
            path.write_bytes(malformed.replace("\n", end).encode("utf-8"))
            with pytest.raises(FormatError) as exc:
                load(path)
            assert str(exc.value) == f"{path}{message}"
    assert loaded[0] == loaded[1] == loaded[2]
