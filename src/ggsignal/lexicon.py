"""Word-list datasets: gendered-noun lexicons, stimulus sets, similarity
pairs, valence norms, and analogy questions.

File formats (all UTF-8 without a byte-order mark, lines ended by LF, CRLF
or a lone CR, and read as vector tables are read):

* gendered nouns  — TSV ``word<TAB>F|M``
* animacy list    — one word per line, may be empty or omitted
* stimuli         — ``[key]`` section headers, one word per line, ``#`` comments
* similarity TSV  — ``word_a<TAB>word_b<TAB>score[<TAB>gender_a<TAB>gender_b]``
* valence TSV     — ``word<TAB>valence``
* analogies       — ``: section`` headers, then four space-separated words per line

All loaded objects are immutable and freely shareable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .embeddings import _parse_block, _read_lines
from .errors import DataError, FormatError
from .seeding import rng_for

log = logging.getLogger(__name__)

FEMININE = "F"
MASCULINE = "M"

# Minimum words per target/attribute set for a valid association test.
MIN_SET_WORDS = 8


@dataclass(frozen=True)
class GenderLexicon:
    """Inanimate nouns labeled with a binary grammatical gender class."""

    language: str
    feminine: tuple[str, ...]
    masculine: tuple[str, ...]

    def __post_init__(self):
        if not self.feminine or not self.masculine:
            raise DataError("gender lexicon needs both classes non-empty")

    def gender_of(self, word: str) -> str | None:
        if word in self._feminine_set:
            return FEMININE
        if word in self._masculine_set:
            return MASCULINE
        return None

    @property
    def words(self) -> tuple[str, ...]:
        """The feminine words, then the masculine words."""
        return self.feminine + self.masculine

    @cached_property
    def _feminine_set(self) -> frozenset[str]:
        return frozenset(self.feminine)

    @cached_property
    def _masculine_set(self) -> frozenset[str]:
        return frozenset(self.masculine)

    def restricted_to(self, available: Iterable[str]) -> "GenderLexicon":
        """Lexicon restricted to words present in `available` (e.g. a table)."""
        pool = set(available)
        return GenderLexicon(
            self.language,
            tuple(w for w in self.feminine if w in pool),
            tuple(w for w in self.masculine if w in pool),
        )


@dataclass(frozen=True)
class StimulusSet:
    """A named word list representing one concept in an association test."""

    name: str
    words: tuple[str, ...]

    def __post_init__(self):
        if not self.words:
            raise DataError(f"stimulus set {self.name!r} is empty")
        if len(set(self.words)) != len(self.words):
            raise DataError(f"stimulus set {self.name!r} contains duplicates")

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class SimilarityPair:
    word_a: str
    word_b: str
    score: float
    gender_a: str | None = None
    gender_b: str | None = None


@dataclass(frozen=True)
class ValenceNorm:
    word: str
    valence: float


@dataclass(frozen=True)
class AnalogyQuestion:
    a: str
    b: str
    c: str
    d: str
    section: str


def load_gender_lexicon(nouns_path, animacy_path=None, language: str = "") -> GenderLexicon:
    """Load a gendered-noun TSV, dropping animate words and gender conflicts.

    Words on the animacy list are removed so the lexicon carries grammatical
    gender only. A word tagged with both genders is contradictory data: both
    rows are dropped and the conflict logged. Per-class counts are logged.
    """
    animate: set[str] = set()
    if animacy_path is not None:
        for _, line in _read_lines(animacy_path):
            word = line.strip()
            if word:
                animate.add(word)

    by_word: dict[str, set[str]] = {}
    order: list[str] = []
    for lineno, line in _read_lines(nouns_path):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{nouns_path}:{lineno}: expected 'word<TAB>F|M'")
        word, tag = parts[0].strip(), parts[1].strip()
        if tag not in (FEMININE, MASCULINE):
            raise FormatError(f"{nouns_path}:{lineno}: unparseable gender tag {tag!r}")
        if word not in by_word:
            by_word[word] = set()
            order.append(word)
        by_word[word].add(tag)

    conflicts = [w for w in order if len(by_word[w]) == 2]
    if conflicts:
        log.warning("%s: %d words tagged with both genders dropped: %s",
                    nouns_path, len(conflicts), ", ".join(conflicts[:10]))
    feminine = [w for w in order if by_word[w] == {FEMININE} and w not in animate]
    masculine = [w for w in order if by_word[w] == {MASCULINE} and w not in animate]
    if not feminine or not masculine:
        raise DataError(f"{nouns_path}: lexicon empty after filtering "
                        f"({len(feminine)} feminine, {len(masculine)} masculine)")
    log.info("%s: %d feminine, %d masculine nouns after filtering",
             nouns_path, len(feminine), len(masculine))
    return GenderLexicon(language, tuple(feminine), tuple(masculine))


def balanced_sample(lexicon: GenderLexicon, per_class: int, seed: int) -> tuple[list[str], list[str]]:
    """Seeded draw of `per_class` feminine and `per_class` masculine words.

    Deterministic for a fixed seed; the two lists are disjoint because the
    classes are. Class balance keeps the chance-level stopping criterion of
    the disentangler meaningful.
    """
    if per_class <= 0:
        raise ValueError("per_class must be positive")
    if len(lexicon.feminine) < per_class or len(lexicon.masculine) < per_class:
        raise DataError(
            f"lexicon too small for per_class={per_class}: "
            f"{len(lexicon.feminine)} feminine, {len(lexicon.masculine)} masculine")
    rng = rng_for(seed, "balanced-sample")
    fem = [lexicon.feminine[i] for i in rng.choice(len(lexicon.feminine), per_class, replace=False)]
    masc = [lexicon.masculine[i] for i in rng.choice(len(lexicon.masculine), per_class, replace=False)]
    return fem, masc


def load_stimuli(path) -> dict[str, StimulusSet]:
    """Load named stimulus sets from a keyed text file.

    Duplicate words inside a set are flagged and dropped. Sets smaller than
    MIN_SET_WORDS load fine (with a flag in the log) but are rejected at test
    time by the association tests.
    """
    sets: dict[str, StimulusSet] = {}
    key: str | None = None
    words: list[str] = []

    def close():
        if key is None:
            return
        unique: list[str] = []
        seen: set[str] = set()
        for w in words:
            if w in seen:
                log.warning("%s: duplicate word %r inside set %s dropped", path, w, key)
                continue
            seen.add(w)
            unique.append(w)
        if not unique:
            raise FormatError(f"{path}: set {key!r} is empty")
        if len(unique) < MIN_SET_WORDS:
            log.warning("%s: set %s has only %d words (< %d); usable only with an "
                        "explicit lower minimum", path, key, len(unique), MIN_SET_WORDS)
        if key in sets:
            raise FormatError(f"{path}: set {key!r} defined twice")
        sets[key] = StimulusSet(key, tuple(unique))

    for lineno, line in _read_lines(path):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith("[") and text.endswith("]"):
            close()
            key = text[1:-1].strip()
            if not key:
                raise FormatError(f"{path}:{lineno}: empty set key")
            words = []
        elif key is None:
            raise FormatError(f"{path}:{lineno}: word outside any [key] section")
        else:
            words.append(text)
    close()
    if not sets:
        raise FormatError(f"{path}: no stimulus sets found")
    return sets


def require_sets(stimuli: Mapping[str, StimulusSet], *keys: str) -> list[StimulusSet]:
    """Fetch sets by key, raising a single error naming all absentees."""
    missing = [k for k in keys if k not in stimuli]
    if missing:
        raise DataError(f"stimulus file lacks required sets: {', '.join(missing)}")
    return [stimuli[k] for k in keys]


def _parse_number(path, lineno: int, field: str) -> float:
    """One numeric field, under the value rules of vector tables."""
    text = field.strip(" ")
    if not text:  # checked here: loadtxt would warn that it read no data
        raise FormatError(f"{path}:{lineno}: non-numeric value")
    return float(_parse_block(path, [text], [lineno], 1)[0, 0])


def load_similarity_pairs(path) -> list[SimilarityPair]:
    pairs: list[SimilarityPair] = []
    for lineno, line in _read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 5):
            raise FormatError(f"{path}:{lineno}: expected 3 or 5 tab-separated fields")
        word_a, word_b = parts[0].strip(), parts[1].strip()
        if word_a == word_b:
            raise FormatError(f"{path}:{lineno}: pair words must be distinct")
        score = _parse_number(path, lineno, parts[2])
        gender_a = gender_b = None
        if len(parts) == 5:
            gender_a, gender_b = parts[3].strip(), parts[4].strip()
            for g in (gender_a, gender_b):
                if g not in (FEMININE, MASCULINE):
                    raise FormatError(f"{path}:{lineno}: bad gender tag {g!r}")
        pairs.append(SimilarityPair(word_a, word_b, score, gender_a, gender_b))
    if not pairs:
        raise FormatError(f"{path}: no similarity pairs found")
    return pairs


def load_valence_norms(path) -> list[ValenceNorm]:
    """Load valence norms; a word rated twice is a format error, since the
    correlation would weigh it twice."""
    norms: list[ValenceNorm] = []
    rated_on: dict[str, int] = {}
    for lineno, line in _read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'word<TAB>valence'")
        word = parts[0].strip()
        if word in rated_on:
            raise FormatError(f"{path}:{lineno}: word {word!r} already rated on line "
                              f"{rated_on[word]}")
        rated_on[word] = lineno
        norms.append(ValenceNorm(word, _parse_number(path, lineno, parts[1])))
    if not norms:
        raise FormatError(f"{path}: no valence norms found")
    return norms


def load_analogies(path) -> list[AnalogyQuestion]:
    """Load analogy questions; ``: section`` lines name the section."""
    questions: list[AnalogyQuestion] = []
    section = ""
    for lineno, line in _read_lines(path):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith(":"):
            section = text[1:].strip()
            continue
        parts = text.split()
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected four words per question")
        if len(set(parts)) != 4:
            raise FormatError(f"{path}:{lineno}: question words must be distinct")
        questions.append(AnalogyQuestion(*parts, section=section))
    if not questions:
        raise FormatError(f"{path}: no analogy questions found")
    return questions
