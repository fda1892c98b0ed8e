"""Binary linear max-margin classifier trained by seeded stochastic
subgradient descent on the L2-regularized hinge loss (Pegasos schedule).

The learned hyperplane direction is the object of interest downstream:
`decision_direction` returns the unit normal, oriented so the positive side
is the class passed as `positives` (the feminine class in the pipeline).

Inputs are preconditioned by a single dataset-wide scale constant (the root
mean squared vector norm) that is folded back into the reported weights.
This makes the learned direction invariant to uniform rescaling of the
input vectors while leaving their geometry untouched; the regularization
strength is therefore expressed per unit of mean squared norm.

Training runs on pre-signed rows `y * [x / scale, 1]`, built once. With
labels of +1 and -1 this is exact: negation is exact and IEEE rounding is
symmetric in sign, so `u . row` equals `y * (u . x)` and `u += row` adds
`y * x` bit for bit. Each step of the per-sample loop then costs one dot
product, one division and, on a margin violation, one in-place add, and
the model equals the one the textbook loop over (x, y) pairs produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .seeding import rng_for

# Training rows gathered per step of `_signed_rows`: the one temporary beside
# the signed training matrix.
_GATHER_ROWS = 1024


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    The step size follows the inverse-t Pegasos schedule
    ``eta_t = 1 / (regularization_strength * t)``; it has no independent
    knob because the schedule is fully determined by the regularization.
    """

    regularization_strength: float = 1e-4
    epochs: int = 20
    holdout_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not self.regularization_strength > 0:
            raise ValueError("regularization_strength must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be a positive integer")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    holdout_accuracy: float


def _as_matrix(vectors, name: str) -> np.ndarray:
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise DataError(f"{name}: need a non-empty 2-d array of vectors")
    return matrix


def _stratified_split(n: int, fraction: float, rng: np.random.Generator):
    hold = max(1, round(n * fraction))
    if hold >= n:
        raise DataError(f"holdout split leaves no training samples (n={n})")
    order = rng.permutation(n)
    return order[hold:], order[:hold]


def _signed_rows(pos: np.ndarray, pos_idx: np.ndarray, neg: np.ndarray,
                 neg_idx: np.ndarray, scale: float) -> np.ndarray:
    """Training rows `y * [x / scale, 1]` of `pos[pos_idx]` then
    `neg[neg_idx]`, built in one array.

    Rows are gathered `_GATHER_ROWS` at a time straight into that array, so
    no gathered copy of a whole class is made. Dividing by `-scale` equals
    negating `x / scale` bit for bit, because IEEE rounding is symmetric in
    sign.
    """
    signed = np.empty((len(pos_idx) + len(neg_idx), pos.shape[1] + 1))
    offset = 0
    for rows, idx, sign in ((pos, pos_idx, 1.0), (neg, neg_idx, -1.0)):
        for start in range(0, len(idx), _GATHER_ROWS):
            block = idx[start:start + _GATHER_ROWS]
            np.divide(rows[block], sign * scale,
                      out=signed[offset + start:offset + start + len(block), :-1])
        signed[offset:offset + len(idx), -1] = sign
        offset += len(idx)
    return signed


def _pegasos(signed: np.ndarray, lam: float, epochs: int,
             rng: np.random.Generator) -> np.ndarray:
    """Augmented weights after `epochs` shuffled passes over the signed rows.

    With the inverse-t schedule the Pegasos iterate has the closed form
    w_t = u / (lam * t) after t steps, where u sums the signed rows of the
    margin violations; tracking u avoids per-step vector shrinkage. A row's
    margin is y * (u . x) / (lam * t) = (u . row) / (lam * t), so each step
    costs one dot product. The signed matrix and its row views die on
    return, before the caller's holdout pass allocates.
    """
    rows = list(signed)
    u = np.zeros(signed.shape[1])
    dot = u.dot
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(rows)).tolist():
            if t == 0 or dot(rows[i]) / (lam * t) < 1.0:
                u += rows[i]
            t += 1
    return u / (lam * t)


def train(positives, negatives, config: TrainConfig = TrainConfig()) -> LinearModel:
    """Train on labeled vectors; positives get label +1.

    Deterministic for a fixed seed and input order: the holdout split and
    every epoch shuffle come from generators derived from `config.seed`.
    Training is single-threaded by construction.
    """
    pos = _as_matrix(positives, "positives")
    neg = _as_matrix(negatives, "negatives")
    if pos.shape[1] != neg.shape[1]:
        raise DataError(f"dimension mismatch: {pos.shape[1]} vs {neg.shape[1]}")
    if pos.shape[0] < 2 or neg.shape[0] < 2:
        raise DataError("need at least 2 samples per class for a holdout split")

    scale = float(np.sqrt(np.mean(np.concatenate([
        np.einsum("ij,ij->i", pos, pos),
        np.einsum("ij,ij->i", neg, neg),
    ]))))
    if scale == 0.0:
        raise NumericError("all training vectors are zero")

    rng_split = rng_for(config.seed, "holdout")
    pos_train_idx, pos_hold_idx = _stratified_split(pos.shape[0], config.holdout_fraction, rng_split)
    neg_train_idx, neg_hold_idx = _stratified_split(neg.shape[0], config.holdout_fraction, rng_split)

    w_aug = _pegasos(_signed_rows(pos, pos_train_idx, neg, neg_train_idx, scale),
                     config.regularization_strength, config.epochs,
                     rng_for(config.seed, "epochs"))
    weights = w_aug[:-1] / scale
    bias = float(w_aug[-1])
    if not np.any(weights):
        raise NumericError("training produced a zero weight vector")

    model = LinearModel(weights=weights, bias=bias, holdout_accuracy=0.0)
    hold_vecs = np.vstack([pos[pos_hold_idx], neg[neg_hold_idx]])
    hold_labels = np.concatenate([np.ones(len(pos_hold_idx)), -np.ones(len(neg_hold_idx))])
    return LinearModel(weights=weights, bias=bias,
                       holdout_accuracy=accuracy(model, hold_vecs, hold_labels))


def accuracy(model: LinearModel, vectors, labels) -> float:
    """Fraction of correct sign(w.x + b) predictions.

    A score of exactly 0 counts as the negative class, deterministically.
    """
    matrix = _as_matrix(vectors, "samples")
    y = np.asarray(labels, dtype=np.float64)
    if matrix.shape[0] != y.shape[0]:
        raise DataError("sample and label counts disagree")
    if matrix.shape[1] != model.weights.shape[0]:
        raise DataError(f"dimension mismatch: {matrix.shape[1]} vs {model.weights.shape[0]}")
    scores = matrix @ model.weights + model.bias
    predictions = np.where(scores > 0.0, 1.0, -1.0)
    return float(np.mean(predictions == y))


def decision_direction(model: LinearModel) -> np.ndarray:
    """Unit-norm hyperplane normal; positive side is the positives class."""
    norm = float(np.linalg.norm(model.weights))
    if norm == 0.0:
        raise NumericError("zero weight vector has no direction")
    return model.weights / norm
