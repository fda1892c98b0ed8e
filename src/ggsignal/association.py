"""Association statistics between word sets: two-target tests, their
single-category variant, and one-sided permutation p-values.

Conventions pinned here and relied on by every caller:

* "std-dev" in the effect-size denominator is the POPULATION standard
  deviation (divide by n). Sample std-dev would shift the effect size by a
  visible factor on small sets.
* The p-value permutes the pooled per-item scores, first set first, over
  equal-size partitions. It counts partitions whose first-set score sum is
  STRICTLY greater than the observed first set's; both tests' statistics
  increase strictly with that sum, so this counts the partitions with a
  larger statistic. In exact mode the denominator is the number of all
  equal-size partitions, identity partition included.
* Exact enumeration runs while the partition count is at most
  `exact_limit`; beyond that a seeded Monte Carlo estimate with
  ``p = (count + 1) / (samples + 1)`` is used and recorded as such.

All functions are pure over immutable inputs. Monte Carlo sampling is
vectorized and consumes a single seeded stream, so results do not depend on
thread counts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError, NumericError, UndersizedSetError
from .lexicon import MIN_SET_WORDS, StimulusSet
from .seeding import rng_for

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PermutationConfig:
    exact_limit: int = 200_000
    samples: int = 100_000
    seed: int = 0


@dataclass(frozen=True)
class PValueMethod:
    kind: str  # "exact" or "monte-carlo"
    partitions: int | None = None
    samples: int | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        if self.kind == "exact":
            return {"kind": "exact", "partitions": self.partitions}
        return {"kind": "monte-carlo", "samples": self.samples, "seed": self.seed}


@dataclass(frozen=True)
class AssociationResult:
    effect_size: float
    statistic: float
    p_value: float
    p_method: PValueMethod
    set_sizes: tuple[int, int, int, int]

    def to_json(self) -> dict:
        return {
            "effect_size": self.effect_size,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "p_method": self.p_method.to_json(),
            "set_sizes": list(self.set_sizes),
        }


def _resolve_set(table: EmbeddingTable, stimulus: StimulusSet, *, on_missing: str,
                 min_words: int) -> list[str]:
    """Usable words of a stimulus set under the missing-word policy of
    `EmbeddingTable.resolve`. Either way a set below `min_words` is rejected:
    too few words cannot represent a concept.
    """
    words = table.resolve(stimulus.words, f"set {stimulus.name}", on_missing)
    if not words:
        raise UndersizedSetError(f"set {stimulus.name}: no resolvable words")
    if len(words) < min_words:
        raise UndersizedSetError(
            f"set {stimulus.name} has {len(words)} usable words, minimum is {min_words}")
    return words


def sc_effect_sizes(table: EmbeddingTable, words: list[str], attributes_a: StimulusSet,
                    attributes_b: StimulusSet, *, on_missing: str = "error",
                    min_words: int = MIN_SET_WORDS) -> np.ndarray:
    """Single-category effect size of each of `words` against two attribute sets.

    The attribute sets are resolved under the missing-word policy, as in
    `weat`. Every word must be in the table with a non-zero vector; callers
    filter their words first. Per word: the mean-cosine difference to the
    two sets over the population std-dev of the cosines to the pooled
    attributes.
    """
    a_words, b_words = (_resolve_set(table, attributes, on_missing=on_missing,
                                     min_words=min_words)
                        for attributes in (attributes_a, attributes_b))
    a_mat, b_mat = table.unit_rows(a_words), table.unit_rows(b_words)
    units = table.unit_rows(words)
    cos_a = units @ a_mat.T
    cos_b = units @ b_mat.T
    pooled = np.hstack([cos_a, cos_b])
    spread = pooled.std(axis=1)
    if np.any(spread == 0.0):
        raise NumericError("zero variance of attribute cosines; effect size undefined")
    return (cos_a.mean(axis=1) - cos_b.mean(axis=1)) / spread


@lru_cache(maxsize=4)
def _exact_index_matrix(n_items: int, group_size: int) -> np.ndarray:
    flat = np.fromiter((i for c in combinations(range(n_items), group_size) for i in c),
                       dtype=np.intp)
    matrix = flat.reshape(-1, group_size)
    matrix.setflags(write=False)
    return matrix


def permutation_p(scores: np.ndarray, config: PermutationConfig = PermutationConfig()
                  ) -> tuple[float, PValueMethod]:
    """One-sided p-value over equal-size two-set partitions of pooled scores.

    `scores` holds one score per item, the observed first set's in its first
    half. A partition counts when its first-set sum is strictly greater than
    the identity partition's, which goes through the same gather and sum so
    that it never counts itself. Exact mode enumerates every partition when
    their count is at most `config.exact_limit`; otherwise a seeded Monte
    Carlo estimate is drawn.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or len(scores) < 2 or len(scores) % 2:
        raise DataError(f"permutation needs an even number of at least 2 pooled scores, "
                        f"got shape {scores.shape}")
    n_items = len(scores)
    group = n_items // 2
    observed = scores[np.arange(group)[None, :]].sum(axis=1)[0]
    total = comb(n_items, group)
    if total <= config.exact_limit:
        idx = _exact_index_matrix(n_items, group)
        count = 0
        for start in range(0, total, 65536):
            count += int(np.sum(scores[idx[start:start + 65536]].sum(axis=1) > observed))
        return count / total, PValueMethod("exact", partitions=total)
    rng = rng_for(config.seed, "permutation")
    count = 0
    remaining = config.samples
    while remaining > 0:
        batch = min(remaining, 4096)
        keys = rng.random((batch, n_items))
        idx = np.argpartition(keys, group - 1, axis=1)[:, :group]
        count += int(np.sum(scores[idx].sum(axis=1) > observed))
        remaining -= batch
    p = (count + 1) / (config.samples + 1)
    return p, PValueMethod("monte-carlo", samples=config.samples, seed=config.seed)


def _equalize_targets(x_words: list[str], y_words: list[str], trim_to_equal: bool,
                      seed: int, min_words: int) -> tuple[list[str], list[str]]:
    """Enforce equal target sizes; optionally trim the larger set at random."""
    if len(x_words) == len(y_words):
        return x_words, y_words
    if not trim_to_equal:
        raise DataError(
            f"target sets must be the same size for the permutation test "
            f"({len(x_words)} vs {len(y_words)}); pass trim_to_equal to trim")
    size = min(len(x_words), len(y_words))
    if size < min_words:
        raise UndersizedSetError(f"trimming would leave {size} words, minimum is {min_words}")
    rng = rng_for(seed, "trim-to-equal")
    if len(x_words) > size:
        keep = np.sort(rng.choice(len(x_words), size, replace=False))
        x_words = [x_words[i] for i in keep]
    else:
        keep = np.sort(rng.choice(len(y_words), size, replace=False))
        y_words = [y_words[i] for i in keep]
    log.warning("trimmed larger target set to %d words (seeded)", size)
    return x_words, y_words


def weat(targets_x: StimulusSet, targets_y: StimulusSet, attributes_a: StimulusSet,
         attributes_b: StimulusSet, table: EmbeddingTable,
         p_config: PermutationConfig = PermutationConfig(), *,
         on_missing: str = "error", min_words: int = MIN_SET_WORDS,
         trim_to_equal: bool = False) -> AssociationResult:
    """Two-target association test.

    Effect size: difference of the mean per-word differential associations of
    the two target sets, over the population std-dev across the pooled
    targets. Test statistic: the corresponding difference of sums. The
    p-value permutes equal-size partitions of the pooled targets, attributes
    fixed.
    """
    x_words, y_words, a_words, b_words = (
        _resolve_set(table, stimulus, on_missing=on_missing, min_words=min_words)
        for stimulus in (targets_x, targets_y, attributes_a, attributes_b))
    overlap = set(x_words) & set(y_words)
    if overlap:
        raise DataError(f"target sets overlap: {', '.join(sorted(overlap))}")
    x_words, y_words = _equalize_targets(x_words, y_words, trim_to_equal, p_config.seed,
                                         min_words)
    x_mat, y_mat, a_mat, b_mat = map(table.unit_rows, (x_words, y_words, a_words, b_words))

    s_x = (x_mat @ a_mat.T).mean(axis=1) - (x_mat @ b_mat.T).mean(axis=1)
    s_y = (y_mat @ a_mat.T).mean(axis=1) - (y_mat @ b_mat.T).mean(axis=1)
    pooled = np.concatenate([s_x, s_y])
    spread = float(pooled.std())
    if spread == 0.0:
        raise NumericError("zero variance of differential associations")
    effect = float((s_x.mean() - s_y.mean()) / spread)
    statistic = float(s_x.sum() - s_y.sum())
    p, method = permutation_p(pooled, p_config)
    return AssociationResult(effect, statistic, p, method,
                             (len(x_words), len(y_words), a_mat.shape[0], b_mat.shape[0]))


def sc_weat(word: str, attributes_a: StimulusSet, attributes_b: StimulusSet,
            table: EmbeddingTable, p_config: PermutationConfig = PermutationConfig(), *,
            on_missing: str = "error", min_words: int = MIN_SET_WORDS,
            trim_to_equal: bool = False) -> AssociationResult:
    """Single-category association of one word with two attribute sets.

    Effect size: mean-cosine difference over the population std-dev of the
    cosines to the pooled attributes. The p-value permutes the attribute
    partition, the word fixed.
    """
    unit_w = table.unit_rows([word])[0]
    a_words, b_words = (_resolve_set(table, attributes, on_missing=on_missing,
                                     min_words=min_words)
                        for attributes in (attributes_a, attributes_b))
    a_words, b_words = _equalize_targets(a_words, b_words, trim_to_equal, p_config.seed,
                                         min_words)
    a_mat, b_mat = table.unit_rows(a_words), table.unit_rows(b_words)

    cos_a = a_mat @ unit_w
    cos_b = b_mat @ unit_w
    pooled = np.concatenate([cos_a, cos_b])
    spread = float(pooled.std())
    if spread == 0.0:
        raise NumericError("zero variance of attribute cosines")
    effect = float((cos_a.mean() - cos_b.mean()) / spread)
    statistic = float(cos_a.mean() - cos_b.mean())
    p, method = permutation_p(pooled, p_config)
    return AssociationResult(effect, statistic, p, method,
                             (1, 1, len(a_words), len(b_words)))
