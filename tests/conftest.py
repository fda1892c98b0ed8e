from pathlib import Path

import numpy as np
import pytest

from ggsignal import classifier
from ggsignal.embeddings import EmbeddingTable, load_table
from ggsignal.lexicon import load_stimuli
from ggsignal.seeding import rng_for

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def fixture_table() -> EmbeddingTable:
    return load_table(DATA / "fixture_2d.vec")


@pytest.fixture(scope="session")
def fixture_stimuli():
    return load_stimuli(DATA / "fixture_2d_stimuli.txt")


@pytest.fixture
def write_vec(tmp_path):
    """Write a vector file from {word: vector} and return its path."""

    def _write(entries: dict, name: str = "table.vec") -> Path:
        dim = len(next(iter(entries.values())))
        path = tmp_path / name
        lines = [f"{len(entries)} {dim}"]
        for word, values in entries.items():
            lines.append(word + " " + " ".join(repr(float(v)) for v in values))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return _write


@pytest.fixture
def training_split():
    """Rows and labels that `train(pos, neg, config)` trains on: the samples
    its holdout split keeps, positives first."""

    def _split(pos, neg, config):
        rng = rng_for(config.seed, "holdout")
        pos_idx, _ = classifier._stratified_split(len(pos), config.holdout_fraction, rng)
        neg_idx, _ = classifier._stratified_split(len(neg), config.holdout_fraction, rng)
        return (np.vstack([pos[pos_idx], neg[neg_idx]]),
                np.concatenate([np.ones(len(pos_idx)), -np.ones(len(neg_idx))]))

    return _split


def table_from(words, matrix) -> EmbeddingTable:
    return EmbeddingTable(list(words), np.asarray(matrix, dtype=np.float64))
