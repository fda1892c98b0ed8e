"""Seeded fixtures for the benchmark, each with a result known from construction.

The desk fixture imitates the layout of a public 300-d vector file for one
gendered language: frequent words (stimulus sets, valence words, analogy
words, animate nouns) come first, and the inanimate nouns of the gender
lexicon are spread evenly through filler vocabulary down to the end of the
file. A vocabulary limit below the row count therefore keeps the frequent
words, and every command that needs the lexicon scans to the end of the file,
keeping the nouns and skipping the filler.

Planted structure, and the result each part guarantees:

* nouns come from `ggsignal.synthetic.generate`: +/- `signal` along the
  planted gender direction g, so round-0 accuracy is near 1 and
  disentanglement must find g;
* the semantically gendered attribute sets sit at +/- `signal` along g, so
  the targets built from opposite-gender similarity pairs associate with
  them strongly before disentanglement and not after;
* valence words carry (rating - 5) along a valence direction orthogonal to
  g, and the pleasant/unpleasant sets sit at +/- 5 along it, so the valence
  correlation is high before and after;
* analogy pairs differ by a per-section offset orthogonal to g, so offset
  analogies are answerable before and after;
* English translations of the similarity pairs carry no gender, so the
  same/different-gender cosine gap of the English table is near zero.

Every array comes from `numpy.random.default_rng` seeded with the fixture
seed and a fixed stream label, so the same seed gives the same files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ggsignal import synthetic

LANG = "xx"
STREAMS = {"desk": 1, "oracle": 2}

# Per-word base vectors match the noun generator: unit Gaussian base plus
# 0.5-scale Gaussian noise, so every word has the same expected norm.
BASE_SCALE = float(np.sqrt(1.25))
SIGNAL = 5.0


@dataclass(frozen=True)
class DeskSize:
    per_class: int        # inanimate nouns per gender class
    filler: int           # filler rows interleaved with the nouns
    vocab_limit: int      # --vocab-limit passed to every command
    english_filler: int   # filler rows of the English reference table
    sweep_per_gender: int
    pca_per_gender: int
    stimulus_words: int = 10   # words per gens/base stimulus set
    career_words: int = 8      # words per genc set
    valence_words: int = 120
    analogy_pairs: int = 20    # pairs per analogy section
    opposite_pairs: int = 20   # opposite-gender similarity pairs (gg-weat targets)
    same_pairs: int = 20       # same-gender similarity pairs
    animate_words: int = 40
    dimension: int = 300


@dataclass(frozen=True)
class DeskFixture:
    """Paths of one desk fixture plus its construction facts."""

    root: str
    table: str
    english: str
    lexicon: str
    animacy: str
    stimuli: str
    pairs: str
    pairs_english: str
    valence: str
    analogy: str
    planted: str
    rows: int
    dimension: int
    bytes: int
    vocab_limit: int
    per_class: int
    sweep_per_gender: int
    pca_per_gender: int

    def save(self) -> None:
        Path(self.root, "fixture.json").write_text(json.dumps(asdict(self)), encoding="utf-8")

    @classmethod
    def load(cls, root) -> "DeskFixture":
        return cls(**json.loads(Path(root, "fixture.json").read_text(encoding="utf-8")))


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), STREAMS[stream]])


def write_vec(path: Path, words: list[str], matrix: np.ndarray) -> int:
    """Write a text vector file with four decimals, as public .vec files do.
    Returns the file size in bytes."""
    fmt = " ".join(["%.4f"] * matrix.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix.tolist()):
            handle.write(word + " " + fmt % tuple(row) + "\n")
    return path.stat().st_size


def _orthonormal_to(rng: np.random.Generator, against: list[np.ndarray], dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    for u in against:
        v -= (v @ u) * u
    return v / np.linalg.norm(v)


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_desk(root: Path, seed: int, size: DeskSize) -> DeskFixture:
    """Write the desk fixture for `seed` under `root` and describe it."""
    root.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, "desk")
    dimension = size.dimension
    table, lexicon, g, _ = synthetic.generate(synthetic.SynthConfig(
        dimension=dimension, per_class=size.per_class, signal_strength=SIGNAL,
        noise_scale=0.5, seed=seed))
    v = _orthonormal_to(rng, [g], dimension)
    offsets = {}
    for section in ("family", "capital-common-countries"):
        offsets[section] = _orthonormal_to(rng, [g, v, *offsets.values()], dimension)

    def base(n: int) -> np.ndarray:
        return BASE_SCALE * rng.standard_normal((n, dimension))

    front_words: list[str] = []
    front_rows: list[np.ndarray] = []

    def add(words: list[str], rows: np.ndarray) -> None:
        front_words.extend(words)
        front_rows.append(rows)

    # stimulus sets: key -> words
    sets: dict[str, list[str]] = {}
    n, k = size.stimulus_words, size.career_words
    for key, count, along, sign in (
            ("gens.women", n, g, 1.0), ("gens.men", n, g, -1.0),
            ("genc.women", k, g, 1.0), ("genc.men", k, g, -1.0),
            ("base.pleasant", n, v, 1.0), ("base.unpleasant", n, v, -1.0),
            ("gens.science", n, None, 0.0), ("gens.humanities", n, None, 0.0),
            ("genc.career", k, None, 0.0), ("genc.family", k, None, 0.0)):
        members = [f"{key.replace('.', '_')}{i:02d}" for i in range(count)]
        rows = base(count)
        if along is not None:
            rows += sign * SIGNAL * along
        add(members, rows)
        sets[f"{LANG}.{key}"] = members

    ratings = np.round(rng.uniform(1.0, 9.0, size.valence_words), 2)
    valence_words = [f"val{i:03d}" for i in range(size.valence_words)]
    add(valence_words, base(size.valence_words) + (ratings - 5.0)[:, None] * BASE_SCALE * v)

    analogy_lines: list[str] = []
    for section, offset in offsets.items():
        stem = section.split("-")[0][:3]
        a_words = [f"{stem}a{i:02d}" for i in range(size.analogy_pairs)]
        b_words = [f"{stem}b{i:02d}" for i in range(size.analogy_pairs)]
        a_rows = base(size.analogy_pairs)
        add(a_words, a_rows)
        add(b_words, a_rows + np.sqrt(dimension) * BASE_SCALE * offset)
        analogy_lines.append(f": {section}")
        for i in range(size.analogy_pairs):
            for j in range(size.analogy_pairs):
                if i != j:
                    analogy_lines.append(f"{a_words[i]} {b_words[i]} {a_words[j]} {b_words[j]}")

    half = size.animate_words // 2
    animate_fem = [f"anif{i:02d}" for i in range(half)]
    animate_masc = [f"anim{i:02d}" for i in range(half)]
    add(animate_fem, base(half) + SIGNAL * g)
    add(animate_masc, base(half) - SIGNAL * g)

    front_matrix = np.vstack(front_rows)
    order = rng.permutation(len(front_words))
    front_words = [front_words[i] for i in order]
    front_matrix = front_matrix[order]

    # nouns spread evenly through the filler, down to the last row
    nouns = list(table.words)
    noun_order = rng.permutation(len(nouns))
    body_rows = len(nouns) + size.filler
    noun_at = (np.arange(len(nouns)) * body_rows) // len(nouns) + (body_rows // len(nouns)) - 1
    is_noun = np.zeros(body_rows, dtype=bool)
    is_noun[noun_at] = True
    body_words = [""] * body_rows
    body_matrix = np.empty((body_rows, dimension))
    for slot, j in zip(noun_at, noun_order):
        body_words[slot] = nouns[j]
    body_matrix[noun_at] = table.matrix[noun_order]
    filler_slots = np.flatnonzero(~is_noun)
    for i, slot in enumerate(filler_slots):
        body_words[slot] = f"w{i:07d}"
    body_matrix[filler_slots] = base(len(filler_slots))

    words = front_words + body_words
    matrix = np.vstack([front_matrix, body_matrix])
    table_path = root / "table.vec"
    table_bytes = write_vec(table_path, words, matrix)

    # similarity pairs: opposite-gender pairs score high, same-gender low
    fem, masc = list(lexicon.feminine), list(lexicon.masculine)
    picks_f = rng.choice(len(fem), size.opposite_pairs + size.same_pairs, replace=False)
    picks_m = rng.choice(len(masc), size.opposite_pairs + size.same_pairs, replace=False)
    pair_lines, english_lines, english_words = [], [], []
    for i in range(size.opposite_pairs):
        score = rng.uniform(6.5, 9.5)
        fword, mword = fem[picks_f[i]], masc[picks_m[i]]
        tagged = "\tF\tM" if i % 2 == 0 else ""
        pair_lines.append(f"{fword}\t{mword}\t{score:.2f}{tagged}")
    for i in range(size.same_pairs):
        score = rng.uniform(1.0, 5.5)
        j = size.opposite_pairs + i
        if i % 2 == 0:
            pair_lines.append(f"{fem[picks_f[j]]}\t{fem[picks_f[j - 1]]}\t{score:.2f}")
        else:
            pair_lines.append(f"{masc[picks_m[j]]}\t{masc[picks_m[j - 1]]}\t{score:.2f}")
    for i, line in enumerate(pair_lines):
        ea, eb = f"en{i:03d}a", f"en{i:03d}b"
        english_words += [ea, eb]
        english_lines.append(f"{ea}\t{eb}\t{line.split(chr(9))[2]}")
    english_all = english_words + [f"enw{i:06d}" for i in range(size.english_filler)]
    english_path = root / "english.vec"
    write_vec(english_path, english_all, base(len(english_all)))

    _write_lines(root / "lexicon.tsv",
                 [f"{w}\tF" for w in fem + animate_fem] + [f"{w}\tM" for w in masc + animate_masc])
    _write_lines(root / "animate.txt", animate_fem + animate_masc)
    stimuli_lines = []
    for key, members in sets.items():
        stimuli_lines.append(f"[{key}]")
        stimuli_lines.extend(members)
    _write_lines(root / "stimuli.txt", stimuli_lines)
    _write_lines(root / "simlex.tsv", pair_lines)
    _write_lines(root / "simlex_english.tsv", english_lines)
    _write_lines(root / "valence.tsv", [f"{w}\t{r:.2f}" for w, r in zip(valence_words, ratings)])
    _write_lines(root / "analogy.txt", analogy_lines)
    np.save(root / "planted.npy", g)

    fixture = DeskFixture(
        root=str(root), table=str(table_path), english=str(english_path),
        lexicon=str(root / "lexicon.tsv"), animacy=str(root / "animate.txt"),
        stimuli=str(root / "stimuli.txt"), pairs=str(root / "simlex.tsv"),
        pairs_english=str(root / "simlex_english.tsv"), valence=str(root / "valence.tsv"),
        analogy=str(root / "analogy.txt"), planted=str(root / "planted.npy"),
        rows=len(words), dimension=dimension, bytes=table_bytes,
        vocab_limit=size.vocab_limit, per_class=size.per_class,
        sweep_per_gender=size.sweep_per_gender, pca_per_gender=size.pca_per_gender)
    fixture.save()
    return fixture


@dataclass(frozen=True)
class OracleTable:
    name: str
    table: str
    lexicon: str
    planted: str
    per_class: int     # --per-class for disentangle: the smaller class size
    rows: int
    bytes: int


# (name, class_imbalance, second_direction_strength)
ORACLE_SETTINGS = (("single", 1.0, 0.0), ("two-direction", 1.0, SIGNAL), ("imbalanced", 0.6, 0.0))


def build_oracle(root: Path, seed: int, per_class: int, seeds_per_setting: int,
                 dimension: int = 300) -> list[OracleTable]:
    """Write one synthetic oracle table per (setting, seed) and describe them."""
    root.mkdir(parents=True, exist_ok=True)
    table_seeds = _rng(seed, "oracle").integers(0, 2**31, size=seeds_per_setting)
    out = []
    for name, imbalance, second in ORACLE_SETTINGS:
        for table_seed in table_seeds.tolist():
            table, lexicon, g, _ = synthetic.generate(synthetic.SynthConfig(
                dimension=dimension, per_class=per_class, signal_strength=SIGNAL,
                noise_scale=0.5, class_imbalance=imbalance,
                second_direction_strength=second, seed=table_seed))
            stem = f"{name}-{table_seed}"
            table_path = root / f"{stem}.vec"
            size = write_vec(table_path, list(table.words), table.matrix)
            _write_lines(root / f"{stem}.tsv",
                         [f"{w}\tF" for w in lexicon.feminine] + [f"{w}\tM" for w in lexicon.masculine])
            np.save(root / f"{stem}.npy", g)
            out.append(OracleTable(name, str(table_path), str(root / f"{stem}.tsv"),
                                   str(root / f"{stem}.npy"),
                                   min(len(lexicon.feminine), len(lexicon.masculine)),
                                   len(table), size))
    Path(root, "oracle.json").write_text(json.dumps([asdict(t) for t in out]), encoding="utf-8")
    return out


def load_oracle(root) -> list[OracleTable]:
    return [OracleTable(**t) for t in json.loads(Path(root, "oracle.json").read_text(encoding="utf-8"))]


def planted_capture(directions: np.ndarray, planted: np.ndarray) -> float:
    """Norm of the planted unit direction's projection onto the span of the
    extracted directions: 1 when the stack captures it fully."""
    if directions.shape[0] == 0:
        return 0.0
    q, _ = np.linalg.qr(directions.T)
    return float(np.linalg.norm(q.T @ planted))


def read_stack(path) -> np.ndarray:
    """Directions of a stack file: header '<count> <dimension>', one row each."""
    with open(path, encoding="utf-8") as handle:
        count, dim = (int(x) for x in handle.readline().split())
        rows = [np.array(line.split(), dtype=np.float64) for line in handle if line.strip()]
    if len(rows) != count:
        raise ValueError(f"{path}: header promises {count} directions, found {len(rows)}")
    return np.vstack(rows) if rows else np.zeros((0, dim))
