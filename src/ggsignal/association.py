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
* Exact counting runs for at most `_EXACT_MAX_ITEMS` pooled scores; beyond
  that a seeded Monte Carlo estimate with ``p = (count + 1) / (samples + 1)``
  is used and recorded as such.

All functions are pure over immutable inputs. Both modes decide each
partition as gathering and summing its sorted index row would, and differ
only in the partitions they count:

* exact mode counts every partition, by meet-in-the-middle subset sums
  (`_exact_count`);
* Monte Carlo mode counts the draws of the seeded stream
  ``rng_for(seed, "permutation")``, cached once per process as one byte of
  membership bits per 8 items (`_monte_carlo_masks`), so calls with the same
  seed and sizes count over the same partitions. Each sample's sum is looked
  up from per-byte subset-sum tables (`_monte_carlo_count`).

In both, a rounding bound (`_rounding_delta`) certifies the fast sums, and
only the rare partitions it leaves undecided are gathered and summed, over
their items in ascending order, as the identity partition is: it never counts
itself.
Results depend on neither thread counts nor call order.
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

# Most partition rows gathered and summed at once.
_CHUNK = 65536

# Most pooled scores whose partitions are all counted, C(20, 10) = 184,756 of
# them: up to here that is cheaper than the default 100,000 samples. Another
# value changes which p-values are exact.
_EXACT_MAX_ITEMS = 20


@dataclass(frozen=True)
class PermutationConfig:
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


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


def _index_dtype(n_items: int) -> np.dtype:
    """The smallest unsigned type that holds every item index."""
    return np.min_scalar_type(n_items - 1)


@lru_cache(maxsize=64)
def _subset_rows(n_items: int, first: int, size: int) -> np.ndarray:
    """Every `size`-subset of the half `range(first, first + n_items // 2)`,
    one per row in lexicographic order."""
    half = n_items // 2
    rows = np.array(list(combinations(range(first, first + half), size)),
                    dtype=_index_dtype(n_items)).reshape(comb(half, size), size)
    rows.setflags(write=False)
    return rows


def _rounding_delta(scores: np.ndarray) -> float:
    """A margin that decides a first-set sum against `observed` as the rule
    does: when a float sum of the same `n // 2` scores, in any order, lies
    above `observed + delta` the rule's sum is strictly greater than
    `observed`, and when it lies below `observed - delta` it is not.

    Any order of summing m terms is within gamma_{m-1} * S of their real sum
    (gamma_m = m*u / (1 - m*u), u = eps / 2, S = sum(|scores|)), so two orders
    differ by under 2 * gamma_{n/2} * S, about n*u*S. Rounding the sums and
    bounds that the callers form adds at most u * (4S + delta). That is under
    (n + 6)*u*S in all, against delta = 8*(n + 1)*u*S. Additions with a
    subnormal result are exact, and forming `delta` loses at most 2**-1075 to
    underflow: a small part of it unless S is subnormal, and then every sum is
    exact. When the bound overflows `delta` is infinite, and callers decide
    every partition by the rule.
    """
    with np.errstate(over="ignore"):
        bound = 4 * (len(scores) + 1) * np.abs(scores).sum()
    return bound * np.finfo(np.float64).eps


def _exact_count(scores: np.ndarray, observed: float) -> int:
    """How many equal-size partitions have a first-set sum, taken as
    `scores[rows].sum(axis=1)` over their sorted index rows, strictly greater
    than `observed`: what enumerating every partition counts.

    Meet in the middle (Horowitz & Sahni, J. ACM 1974): for each split of a
    first set into `size` items of the first half and the rest from the
    second, every left subset sum `a` meets the sorted right subset sums `b`.
    Pairs with `b` above `observed - a + delta` count, pairs below
    `observed - a - delta` do not (`_rounding_delta`), and only the undecided
    ones in between are rebuilt as index rows and summed by the rule,
    `_CHUNK` rows at a time.
    """
    n_items = len(scores)
    group = n_items // 2
    delta = _rounding_delta(scores)
    count = 0
    for size in range(group + 1):
        left = _subset_rows(n_items, 0, size)
        right = _subset_rows(n_items, group, group - size)
        a = scores.take(left).sum(axis=1)
        b = scores.take(right).sum(axis=1)
        order = np.argsort(b, kind="stable")
        b = b[order]
        if np.isfinite(delta):
            lo = np.searchsorted(b, observed - a - delta, "left")
            hi = np.searchsorted(b, observed - a + delta, "right")
        else:
            lo, hi = np.zeros(len(a), np.intp), np.full(len(a), len(b))
        count += int((len(b) - hi).sum())
        # Undecided pairs are numbered run by run: left subset i owns numbers
        # edges[i] to edges[i + 1] - 1, for sorted positions lo[i] to hi[i] - 1.
        edges = np.concatenate(([0], np.cumsum(hi - lo)))
        for start in range(0, int(edges[-1]), _CHUNK):
            stop = min(start + _CHUNK, int(edges[-1]))
            i = np.repeat(np.arange(len(a)), np.diff(np.clip(edges, start, stop)))
            rows = np.empty((stop - start, group), dtype=left.dtype)
            rows[:, :size] = left.take(i, axis=0)
            rows[:, size:] = right.take(order[np.arange(start, stop) - edges[i] + lo[i]], axis=0)
            count += int(np.count_nonzero(scores[rows].sum(axis=1) > observed))
    return count


@lru_cache(maxsize=4)
def _monte_carlo_masks(n_items: int, samples: int, seed: int) -> np.ndarray:
    """`samples` random first halves of `n_items`, as membership bits.

    Drawn from `rng_for(seed, "permutation")` in batches of 4096 rows: each
    row marks the items of its `n_items // 2` smallest of `n_items` uniform
    keys, and of keys tied with the last one marked, the lowest items. Item i
    is bit i % 8 of byte i // 8, and byte j of every sample is row j of the
    mask array, so each byte's samples lie contiguous.
    """
    group = n_items // 2
    masks = np.empty((-(-n_items // 8), samples), dtype=np.uint8)
    rng = rng_for(seed, "permutation")
    for start in range(0, samples, 4096):
        keys = rng.random((min(4096, samples - start), n_items))
        member = keys <= np.partition(keys, group - 1, axis=1)[:, group - 1:group]
        for row in np.flatnonzero(np.count_nonzero(member, axis=1) != group):
            member[row] = False
            member[row, np.argsort(keys[row], kind="stable")[:group]] = True
        masks[:, start:start + len(keys)] = np.packbits(member, axis=1, bitorder="little").T
    masks.setflags(write=False)
    return masks


def _monte_carlo_count(scores: np.ndarray, observed: float, samples: int, seed: int) -> int:
    """How many of the seeded samples (`_monte_carlo_masks`) have a first-set
    sum, taken as `scores[row].sum()` over their members in ascending order,
    strictly greater than `observed`: what summing every sample counts.

    Each sample's sum is looked up from its membership bytes: byte j's 256
    subset sums of items 8j to 8j + 7 are built by doubling, one new item at
    a time. Samples above `observed + delta` count and samples below
    `observed - delta` do not (`_rounding_delta`); the undecided ones are
    unpacked into ascending member rows and summed by the rule, `_CHUNK` rows
    at a time. The identity partition is summed as `observed` is, so it never
    counts itself.
    """
    n_items = len(scores)
    masks = _monte_carlo_masks(n_items, samples, seed)
    delta = _rounding_delta(scores)
    if np.isfinite(delta):
        items = np.zeros(8 * len(masks))
        items[:n_items] = scores
        tables = np.zeros((len(masks), 1))
        for item in items.reshape(len(masks), 8).T:
            tables = np.hstack([tables, tables + item[:, None]])
        sums = tables[0].take(masks[0])
        for table, mask in zip(tables[1:], masks[1:]):
            sums += table.take(mask)
        count = int(np.count_nonzero(sums > observed + delta))
        rows = np.flatnonzero((sums <= observed + delta) & (sums >= observed - delta))
    else:
        count, rows = 0, np.arange(samples)
    for start in range(0, len(rows), _CHUNK):
        bits = np.unpackbits(masks[:, rows[start:start + _CHUNK]].T, axis=1, count=n_items,
                             bitorder="little")
        members = np.nonzero(bits)[1].reshape(len(bits), n_items // 2)
        count += int(np.count_nonzero(scores[members].sum(axis=1) > observed))
    return count


def permutation_p(scores: np.ndarray, config: PermutationConfig = PermutationConfig()
                  ) -> tuple[float, PValueMethod]:
    """One-sided p-value over equal-size two-set partitions of pooled scores.

    `scores` holds one finite score per item, the observed first set's in its
    first half. A partition counts when its first-set sum, gathered and summed
    over its sorted index row, is strictly greater than the identity
    partition's, which is summed the same way so that it never counts itself.
    With at most `_EXACT_MAX_ITEMS` scores every partition is counted
    (`_exact_count`); with more, `config.samples` seeded random partitions
    are (`_monte_carlo_count`), and p = (count + 1) / (samples + 1).
    Either count equals what gathering and summing each partition's row gives,
    while only the partitions within a rounding bound of the identity's sum
    are summed that way.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or len(scores) < 2 or len(scores) % 2:
        raise DataError(f"permutation needs an even number of at least 2 pooled scores, "
                        f"got shape {scores.shape}")
    n_items = len(scores)
    not_finite = n_items - int(np.count_nonzero(np.isfinite(scores)))
    if not_finite:
        raise NumericError(f"{not_finite} of {n_items} pooled scores are not finite; "
                           f"no p-value")
    group = n_items // 2
    observed = scores.take(np.arange(group)[None, :]).sum(axis=1)[0]
    if n_items <= _EXACT_MAX_ITEMS:
        total = comb(n_items, group)
        return _exact_count(scores, observed) / total, PValueMethod("exact", partitions=total)
    count = _monte_carlo_count(scores, observed, config.samples, config.seed)
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
