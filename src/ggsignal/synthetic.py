"""Synthetic embedding tables with a planted gender direction.

The generator is the ground-truth oracle for the disentanglement claims:
the planted direction is known, so direction recovery, signal removal, and
semantic preservation can be checked against construction rather than
against another measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .lexicon import GenderLexicon
from .seeding import rng_for


@dataclass(frozen=True)
class SynthConfig:
    """Controls for one generated table.

    Each word vector is ``base + sign * strength * g + noise_scale * eps``
    with `base` and `eps` seeded isotropic Gaussians (scale 1), `g` a seeded
    random unit direction, and sign +1 for the feminine class. The masculine
    class holds ``round(per_class * class_imbalance)`` words, modelling
    unequal signal rates between the classes.

    `second_direction_strength > 0` switches on two-direction mode: every
    third word of each class carries its signal along an orthogonal second
    direction instead, at this strength. The uneven split keeps the first
    learned hyperplane dominated by the primary direction, so the minority
    signal survives the first projection and reaching chance takes at least
    two rounds.
    """

    dimension: int = 300
    per_class: int = 3000
    signal_strength: float = 5.0
    noise_scale: float = 0.5
    class_imbalance: float = 1.0
    second_direction_strength: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        if self.per_class < 16:
            raise ValueError("per_class must be at least 16")
        if not (self.signal_strength >= 0 and self.noise_scale >= 0):
            raise ValueError("signal_strength and noise_scale must be >= 0")
        if not self.class_imbalance > 0:
            raise ValueError("class_imbalance must be positive")
        if round(self.per_class * self.class_imbalance) < 16:
            raise ValueError("class_imbalance leaves the masculine class below 16 words")
        if not self.second_direction_strength >= 0:
            raise ValueError("second_direction_strength must be >= 0")


def generate(config: SynthConfig) -> tuple[EmbeddingTable, GenderLexicon, np.ndarray, EmbeddingTable]:
    """Build (composite table, lexicon, planted direction, gender-free table).

    The gender-free table holds the same vectors without the planted gender
    component (base plus noise); comparing cosine structure against it
    isolates the distortion added by disentanglement itself. Deterministic
    per seed.
    """
    rng = rng_for(config.seed, "synthetic")
    dim = config.dimension
    n_fem = config.per_class
    n_masc = round(config.per_class * config.class_imbalance)

    primary = rng.standard_normal(dim)
    primary /= np.linalg.norm(primary)
    secondary = rng.standard_normal(dim)
    secondary -= (secondary @ primary) * primary
    secondary /= np.linalg.norm(secondary)

    words = [f"fem{i:05d}" for i in range(n_fem)] + [f"masc{i:05d}" for i in range(n_masc)]
    signs = np.concatenate([np.ones(n_fem), -np.ones(n_masc)])

    base = rng.standard_normal((n_fem + n_masc, dim))
    noise = config.noise_scale * rng.standard_normal((n_fem + n_masc, dim))
    gender_free = base + noise

    if config.second_direction_strength > 0:
        axis_is_second = np.concatenate([np.arange(n_fem) % 3 == 2,
                                         np.arange(n_masc) % 3 == 2])
        strengths = np.where(axis_is_second, config.second_direction_strength,
                             config.signal_strength)
        axes = np.where(axis_is_second[:, None], secondary[None, :], primary[None, :])
        signal = (signs * strengths)[:, None] * axes
    else:
        signal = (signs * config.signal_strength)[:, None] * primary[None, :]

    composite = EmbeddingTable(words, gender_free + signal)
    base_table = EmbeddingTable(words, gender_free)
    lexicon = GenderLexicon("synthetic", tuple(words[:n_fem]), tuple(words[n_fem:]))
    return composite, lexicon, primary, base_table
