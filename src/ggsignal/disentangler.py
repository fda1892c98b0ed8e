"""Iterative removal of the grammatical-gender hyperplane.

Each round samples balanced gendered nouns, trains the linear classifier on
their current vectors, and, while held-out accuracy stays above the stop
threshold, removes the unit decision direction. Accuracy recorded for round k
is measured on vectors already projected k times, so the recorded trace lines
up with an accuracy-per-round curve starting at the raw table.

The classifier reads lexicon rows only, so `run` gathers the usable lexicon
rows once and projects only those, round by round. Each new direction is
re-orthogonalized against the stack before it is projected out: a round's
weights are a sum of rows already projected off every earlier direction, but
the projections leave a rounding residue along those directions that follows
the classes, and later classifiers amplify it, by about 50x a round on 20-d
synthetic oracles. A stack is therefore orthonormal up to rounding, and
replaying it is one projection onto the intersection of the hyperplanes, as
in INLP (Ravfogel et al., ACL 2020). Every "after" table comes from
`apply_stack`, `run`'s included; its kernel, `_project`, projects one copy
of the table in place, block by block, so its only temporary is one block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifier import TrainConfig, decision_direction, train
from .embeddings import EmbeddingTable, _parse_block, _parse_header, _read_lines, atomic_open
from .errors import DataError, FormatError
from .lexicon import GenderLexicon, balanced_sample

log = logging.getLogger(__name__)

# Rows projected per block, which bounds the one temporary to a block. Both
# products are `np.einsum` loops rather than BLAS calls: they sum each row's
# terms in one fixed order, so neither block edges nor BLAS thread counts move
# a bit, where a BLAS rank-k product moves last bits with both.
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
    """Ordered orthonormal directions, one per completed projection round.

    The directions must be orthonormal within 1e-9 (max |D D^T - I|), so
    that replaying the stack is a projection. `per_iteration_accuracy[k]` is
    the held-out accuracy that triggered the extraction of `directions[k]`.
    `final_accuracy` is the last measured accuracy, the one at or below the
    stop threshold (or at the round cap); it has no paired direction.
    `model_weight_norms` holds the un-normalized weight norm of each round's
    classifier for audit (the weights themselves are not kept). Stacks loaded
    from the text format carry directions only, so the accuracy fields are
    None there.
    """

    directions: np.ndarray
    per_iteration_accuracy: tuple[float, ...] | None = None
    final_accuracy: float | None = None
    model_weight_norms: tuple[float, ...] = ()

    def __post_init__(self):
        directions = np.asarray(self.directions, dtype=np.float64)
        if directions.ndim != 2:
            raise ValueError("directions must be a (count, dimension) array")
        if not np.all(np.isfinite(directions)):
            raise ValueError("stack directions must be finite")
        gram = directions @ directions.T
        error = np.abs(gram - np.eye(len(gram)))
        if error.size:
            i, j = np.unravel_index(np.argmax(error), error.shape)
            if not error[i, j] <= 1e-9:
                worst = (f"row {i} has squared norm" if i == j
                         else f"rows {i} and {j} have dot product")
                raise ValueError(f"stack directions must be orthonormal within 1e-9: "
                                 f"{worst} {gram[i, j]:.17g}")
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
    """Remove the span of the orthonormal `directions` from every row of
    `matrix`, in place, `_PROJECT_ROWS` rows at a time: one rank-k step,
    block -= (block D^T) D, per block."""
    for start in range(0, matrix.shape[0], _PROJECT_ROWS):
        block = matrix[start:start + _PROJECT_ROWS]
        block -= np.einsum("ik,kj->ij", np.einsum("ij,kj->ik", block, directions), directions)


def run(table: EmbeddingTable, lexicon: GenderLexicon,
        config: DisentangleConfig = DisentangleConfig()) -> tuple[EmbeddingTable, HyperplaneStack]:
    """Disentangle until held-out accuracy reaches the stop threshold.

    Lexicon words absent from the table are reported and excluded before
    sampling. The usable lexicon rows are gathered once; each round trains on
    a balanced sample of them and projects the new direction, made
    orthonormal to the stack by two Gram-Schmidt passes, out of them only.
    Returns `apply_stack(table, stack)` and the stack of extracted directions
    with its accuracy trace. Words whose vectors end up all-zero are retained
    in the table but flagged in the log.
    """
    missing = [w for w in lexicon.words if w not in table]
    if missing:
        log.warning("lexicon: %d words not in the embedding table excluded: %s%s",
                    len(missing), ", ".join(missing[:10]),
                    "..." if len(missing) > 10 else "")
    usable = lexicon.restricted_to(w for w in lexicon.words if w in table)
    position = {w: i for i, w in enumerate(usable.words)}
    rows = table.rows(usable.words)
    directions = np.zeros((0, table.dimension))
    accuracies: list[float] = []
    weight_norms: list[float] = []

    round_index = 0
    while True:
        feminine, masculine = balanced_sample(usable, config.per_class,
                                              config.seed + round_index)
        round_config = replace(config.classifier, seed=config.classifier.seed + round_index)
        model = train(rows[[position[w] for w in feminine]],
                      rows[[position[w] for w in masculine]], round_config)
        acc = model.holdout_accuracy
        log.info("round %d: holdout accuracy %.4f", round_index, acc)
        if acc <= config.stop_accuracy or round_index >= config.max_iterations:
            final_accuracy = acc
            break
        direction = decision_direction(model)
        for _ in range(2):
            direction = direction - (directions @ direction) @ directions
        direction /= np.linalg.norm(direction)
        _project(rows, direction[None, :])
        directions = np.vstack([directions, direction])
        accuracies.append(acc)
        weight_norms.append(float(np.linalg.norm(model.weights)))
        round_index += 1
    del rows, model

    stack = HyperplaneStack(directions=directions, per_iteration_accuracy=tuple(accuracies),
                            final_accuracy=final_accuracy,
                            model_weight_norms=tuple(weight_norms))
    result = apply_stack(table, stack)
    annihilated = result.zero_norm_words()
    if annihilated:
        log.warning("%d words annihilated to zero vectors (retained, excluded from "
                    "cosine-based tests): %s", len(annihilated), ", ".join(annihilated[:10]))
    return result, stack


def apply_stack(table: EmbeddingTable, stack: HyperplaneStack) -> EmbeddingTable:
    """Project `table` off every direction of `stack`: the one producer of a
    disentangled table.

    The empty stack is the identity. The stack is orthonormal, so this is a
    projection: applying it twice equals applying it once up to rounding. The
    table is copied once and projected in place, block by block.
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
    lines = _read_lines(path) or [(1, "")]
    count, dim = _parse_header(lines[0][1], path, min_count=0)
    texts, linenos = [], []
    for lineno, line in lines[1:]:
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
