"""Iterative removal of the grammatical-gender hyperplane.

Each round samples balanced gendered nouns, trains the linear classifier on
the current vectors, and, while held-out accuracy stays above the stop
threshold, projects the unit decision direction out of EVERY vector in the
table. Accuracy recorded for round k is measured on embeddings already
projected k times, so the recorded trace lines up with an
accuracy-per-round curve starting at the raw table.

`run` and `apply_stack` share one kernel, `_project`: it projects one working
copy of the table in place, block by block, so its only temporary is one block.

Successive directions are not re-orthogonalized: after a projection the
data lives in the previous direction's orthogonal complement, so new
directions come out near-orthogonal up to training noise. The cosine
between consecutive directions is recorded and a warning logged when its
magnitude exceeds 0.1, rather than forcing orthogonality.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifier import TrainConfig, decision_direction, train
from .embeddings import EmbeddingTable, _parse_block, _parse_header, atomic_open
from .errors import DataError, FormatError
from .lexicon import GenderLexicon, balanced_sample

log = logging.getLogger(__name__)

CONSECUTIVE_COSINE_WARN = 0.1

# Rows projected per block. A multiple of 4, because the BLAS matrix-vector
# kernel handles rows in groups of 4: block edges that split a group change
# the rounding of the per-row products, and with it the results' last bits.
_PROJECT_ROWS = 4096


@dataclass(frozen=True)
class DisentangleConfig:
    """Loop controls.

    `stop_accuracy` defaults slightly above 0.5 because held-out accuracy
    fluctuates around chance; a strict 0.5 test may never trigger.
    `max_iterations` caps the number of projections; 0 means measure once
    and leave the table untouched.
    """

    max_iterations: int = 15
    stop_accuracy: float = 0.52
    per_class: int = 3000
    classifier: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not 0.5 <= self.stop_accuracy < 1.0 + 1e-12:
            raise ValueError("stop_accuracy must be in [0.5, 1]")
        if self.per_class <= 0:
            raise ValueError("per_class must be positive")


@dataclass(frozen=True)
class HyperplaneStack:
    """Ordered unit directions, one per completed projection round.

    `per_iteration_accuracy[k]` is the held-out accuracy that triggered the
    extraction of `directions[k]`. `final_accuracy` is the last measured
    accuracy, the one at or below the stop threshold (or at the round cap);
    it has no paired direction. `model_weight_norms` holds the un-normalized
    weight norm of each round's classifier for audit (the weights themselves
    are not kept). Stacks loaded from the text format carry directions only,
    so the accuracy fields are None there.
    """

    directions: np.ndarray
    per_iteration_accuracy: tuple[float, ...] | None = None
    final_accuracy: float | None = None
    consecutive_cosines: tuple[float, ...] = ()
    model_weight_norms: tuple[float, ...] = ()

    def __post_init__(self):
        directions = np.asarray(self.directions, dtype=np.float64)
        if directions.ndim != 2:
            raise ValueError("directions must be a (count, dimension) array")
        if not np.all(np.isfinite(directions)):
            raise ValueError("stack directions must be finite")
        if directions.shape[0]:
            norms = np.linalg.norm(directions, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError("stack directions must be unit-norm within 1e-9")
        directions.setflags(write=False)
        object.__setattr__(self, "directions", directions)
        if self.per_iteration_accuracy is not None:
            if len(self.per_iteration_accuracy) != directions.shape[0]:
                raise ValueError("one accuracy per direction required")

    def __len__(self) -> int:
        return self.directions.shape[0]

    @property
    def dimension(self) -> int:
        return self.directions.shape[1]

    @property
    def accuracy_trace(self) -> tuple[float, ...]:
        """Accuracy per round including the final stopping measurement."""
        if self.per_iteration_accuracy is None or self.final_accuracy is None:
            raise ValueError("this stack carries no recorded accuracies")
        return self.per_iteration_accuracy + (self.final_accuracy,)


def _project(matrix: np.ndarray, directions: np.ndarray) -> None:
    """Remove each unit direction in turn from every row of `matrix`, in
    place, `_PROJECT_ROWS` rows at a time."""
    for start in range(0, matrix.shape[0], _PROJECT_ROWS):
        block = matrix[start:start + _PROJECT_ROWS]
        for direction in directions:
            block -= np.outer(block @ direction, direction)


def run(table: EmbeddingTable, lexicon: GenderLexicon,
        config: DisentangleConfig = DisentangleConfig()) -> tuple[EmbeddingTable, HyperplaneStack]:
    """Disentangle until held-out accuracy reaches the stop threshold.

    Lexicon words absent from the table are reported and excluded before
    sampling. Returns the transformed table and the stack of extracted
    directions with their accuracy trace. Words whose vectors end up
    all-zero are retained in the table but flagged in the log.
    """
    missing = [w for w in lexicon.words if w not in table]
    if missing:
        log.warning("lexicon: %d words not in the embedding table excluded: %s%s",
                    len(missing), ", ".join(missing[:10]),
                    "..." if len(missing) > 10 else "")
    usable = lexicon.restricted_to(w for w in lexicon.words if w in table)

    work = np.array(table.matrix, dtype=np.float64, copy=True)
    directions: list[np.ndarray] = []
    accuracies: list[float] = []
    neighbor_cosines: list[float] = []
    weight_norms: list[float] = []

    round_index = 0
    while True:
        feminine, masculine = balanced_sample(usable, config.per_class,
                                              config.seed + round_index)
        fem_rows = work[[table.index_of(w) for w in feminine]]
        masc_rows = work[[table.index_of(w) for w in masculine]]
        round_config = replace(config.classifier, seed=config.classifier.seed + round_index)
        model = train(fem_rows, masc_rows, round_config)
        acc = model.holdout_accuracy
        log.info("round %d: holdout accuracy %.4f", round_index, acc)
        if acc <= config.stop_accuracy or round_index >= config.max_iterations:
            final_accuracy = acc
            break
        direction = decision_direction(model)
        if directions:
            neighbor = float(direction @ directions[-1])
            neighbor_cosines.append(neighbor)
            if abs(neighbor) > CONSECUTIVE_COSINE_WARN:
                log.warning("round %d: |cos| to previous direction is %.3f (> %.2f)",
                            round_index, abs(neighbor), CONSECUTIVE_COSINE_WARN)
        _project(work, direction[None, :])
        directions.append(direction)
        accuracies.append(acc)
        weight_norms.append(float(np.linalg.norm(model.weights)))
        round_index += 1

    result = table.with_matrix(work)
    annihilated = result.zero_norm_words()
    if annihilated:
        log.warning("%d words annihilated to zero vectors (retained, excluded from "
                    "cosine-based tests): %s", len(annihilated), ", ".join(annihilated[:10]))
    stack = HyperplaneStack(
        directions=np.vstack(directions) if directions else np.zeros((0, table.dimension)),
        per_iteration_accuracy=tuple(accuracies),
        final_accuracy=final_accuracy,
        consecutive_cosines=tuple(neighbor_cosines),
        model_weight_norms=tuple(weight_norms),
    )
    return result, stack


def apply_stack(table: EmbeddingTable, stack: HyperplaneStack) -> EmbeddingTable:
    """Replay the stacked projections, in order, onto another table.

    The empty stack is the identity. Applying a stack twice equals applying
    it once: the vectors are already orthogonal to every direction. The table
    is copied once and projected in place, block by block, by `run`'s kernel.
    """
    if len(stack) == 0:
        return table
    if stack.dimension != table.dimension:
        raise DataError(f"dimension mismatch: stack {stack.dimension}, table {table.dimension}")
    work = np.array(table.matrix, dtype=np.float64, copy=True)
    _project(work, stack.directions)
    return table.with_matrix(work)


def save_stack(stack: HyperplaneStack, path) -> None:
    """Write directions as text: header '<count> <dimension>', one direction
    per line, full float64 precision so round-trips are exact."""
    with atomic_open(path) as handle:
        handle.write(f"{len(stack)} {stack.dimension}\n")
        for row in stack.directions:
            handle.write(" ".join("%.17g" % v for v in row) + "\n")


def load_stack(path) -> HyperplaneStack:
    """Read a stack written by `save_stack`.

    Fields and values follow the rules of vector tables (`load_table`), with
    no word in front; a bad line raises FormatError naming `path:line`.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        count, dim = _parse_header(handle.readline().rstrip("\r\n"), path, min_count=0)
        texts, linenos = [], []
        for lineno, raw in enumerate(handle, start=2):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            values = [t for t in line.split(" ") if t]
            if len(values) != dim:
                raise FormatError(f"{path}:{lineno}: expected {dim} values")
            texts.append(" ".join(values))
            linenos.append(lineno)
    if len(texts) != count:
        raise FormatError(f"{path}: header promises {count} directions, found {len(texts)}")
    directions = _parse_block(path, texts, linenos, dim) if texts else np.zeros((0, dim))
    try:
        return HyperplaneStack(directions=directions)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
