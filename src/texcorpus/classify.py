"""Binary subject classifier over document features.

Plain logistic regression fitted by damped Newton steps on the
L2-regularized log loss. No learned-model dependency: the loss, gradient,
Hessian and step rule are spelled out here, and training is deterministic
given the same inputs and configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import Diagnostic, TexcorpusError
from .features import FeatureVector

FEATURE_NAMES = (
    "multi_file",
    "comment_word_count",
    "word_count",
    "package_count",
    "newcommand_count",
    "theorem_count",
    "figure_count",
    "author_count",
)


class SingleClass(TexcorpusError):
    """Training labels contain only one class."""


class DegenerateFeatures(TexcorpusError):
    """Every feature column is constant, so nothing can be learned."""


class ShapeMismatch(TexcorpusError):
    """A feature matrix does not match the model's feature count."""


def features_matrix(features: Sequence[FeatureVector]) -> np.ndarray:
    """Feature vectors as a float matrix with FEATURE_NAMES columns."""
    rows = [[float(getattr(fv, name)) for name in FEATURE_NAMES] for fv in features]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))


def labels_for(features: Sequence[FeatureVector], positive: str) -> np.ndarray:
    return np.asarray(
        [1.0 if fv.category == positive else 0.0 for fv in features],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 1e-3
    max_epochs: int = 5000
    tol: float = 1e-8


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Regularized logistic loss and its analytic gradient.

    Loss is mean(log(1 + e^z) - y z) + l2/2 ||w||^2 with z = Xw + b,
    computed through logaddexp so large |z| cannot overflow.
    """
    z = X @ weights + bias
    m = len(y)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(
        weights @ weights
    )
    p = _sigmoid(z)
    dz = (p - y) / m
    grad_w = X.T @ dz + l2 * weights
    grad_b = float(np.sum(dz))
    return loss, grad_w, grad_b


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # evaluate each branch only where it is stable
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# After 60 halvings a Newton step moves the weights by less than rounding.
_MAX_HALVINGS = 60


@dataclass
class LogisticModel:
    """A trained classifier: standardization constants plus weights."""

    feature_names: tuple[str, ...]
    weights: np.ndarray
    bias: float
    means: np.ndarray
    stds: np.ndarray
    positive_category: str
    config: TrainConfig
    epochs_run: int
    final_loss: float
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """1 where the positive-class probability is at least 0.5, else 0."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ShapeMismatch(
                f"expected {len(self.feature_names)} feature columns, "
                f"got shape {X.shape}"
            )
        Xs = (X - self.means) / self.stds
        return (_sigmoid(Xs @ self.weights + self.bias) >= 0.5).astype(np.int64)

    def weight_report(self) -> list[tuple[str, float]]:
        """(feature, weight) pairs, largest magnitude first."""
        pairs = list(zip(self.feature_names, (float(w) for w in self.weights)))
        return sorted(pairs, key=lambda kv: (-abs(kv[1]), kv[0]))


def fit(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: tuple[str, ...] = FEATURE_NAMES,
    positive_category: str = "",
    config: TrainConfig = TrainConfig(),
) -> LogisticModel:
    """Train by damped Newton steps from zero-initialized weights.

    Features are standardized to zero mean and unit variance first.
    Constant columns get a unit divisor instead; being identically zero
    after centering, they keep weight zero and a diagnostic records them.
    Each iteration solves for the Newton step over the other columns and
    the bias, whose weight is not penalized, and halves the step until the
    loss does not rise. Stops after ``config.max_epochs`` iterations, when
    an accepted step improves the loss by less than ``config.tol``, or when
    no halving lowers the loss.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise ShapeMismatch(
            f"expected {len(feature_names)} feature columns, got shape {X.shape}"
        )
    if len(y) != X.shape[0]:
        raise ShapeMismatch(f"{X.shape[0]} rows but {len(y)} labels")
    classes = np.unique(y)
    if len(classes) < 2:
        raise SingleClass(
            f"labels contain only {classes[0]:g}" if len(classes) else "there are no labels"
        )

    diagnostics: list[Diagnostic] = []
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    constant = stds == 0.0
    if constant.all():
        raise DegenerateFeatures("every feature column is constant")
    if constant.any():
        names = [name for name, c in zip(feature_names, constant) if c]
        diagnostics.append(
            Diagnostic(
                "fit",
                "constant feature columns carry no signal: " + ", ".join(names),
            )
        )
        stds = np.where(constant, 1.0, stds)
    Xs = (X - means) / stds

    # Newton runs over the non-constant columns and the bias; with l2 = 0
    # a constant column would make the Hessian singular.
    Xf = Xs[:, ~constant]
    A = np.column_stack([Xf, np.ones(len(y))])
    penalty = np.diag([config.l2] * Xf.shape[1] + [0.0])
    w = np.zeros(Xf.shape[1], dtype=np.float64)
    bias = 0.0
    loss, grad_w, grad_b = loss_and_gradient(w, bias, Xf, y, config.l2)
    epochs = 0
    # a trial step whose loss overflows is rejected like one whose loss rises
    with np.errstate(over="ignore", invalid="ignore"):
        while epochs < config.max_epochs:
            p = _sigmoid(Xf @ w + bias)
            hessian = (A.T * (p * (1.0 - p) / len(y))) @ A + penalty
            # least squares, not solve: with l2 = 0 the Hessian is singular
            # when there are fewer rows than columns or columns are collinear
            step = np.linalg.lstsq(hessian, np.append(grad_w, grad_b), rcond=None)[0]
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                trial_w = w - t * step[:-1]
                trial_b = bias - t * float(step[-1])
                trial = loss_and_gradient(trial_w, trial_b, Xf, y, config.l2)
                if trial[0] <= loss:
                    break
                t *= 0.5
            else:
                break
            epochs += 1
            improved = loss - trial[0]
            w, bias = trial_w, trial_b
            loss, grad_w, grad_b = trial
            if improved < config.tol:
                break

    weights = np.zeros(X.shape[1], dtype=np.float64)
    weights[~constant] = w
    return LogisticModel(
        feature_names=tuple(feature_names),
        weights=weights,
        bias=bias,
        means=means,
        stds=stds,
        positive_category=positive_category,
        config=config,
        epochs_run=epochs,
        final_loss=loss,
        diagnostics=diagnostics,
    )


def train_classifier(
    features: Sequence[FeatureVector],
    positive_category: str,
    config: TrainConfig = TrainConfig(),
) -> LogisticModel:
    """Fit a model predicting membership in ``positive_category``.

    Raises SingleClass, naming the category, when the training split is
    empty or holds one category, or holds no ``positive_category`` document.
    """
    present = sorted({fv.category for fv in features})
    if not present:
        raise SingleClass("the training split is empty")
    if len(present) == 1:
        raise SingleClass(f"the training split holds only category {present[0]!r}")
    if positive_category not in present:
        raise SingleClass(
            f"the training split holds no document of category {positive_category!r}"
        )
    X = features_matrix(features)
    y = labels_for(features, positive_category)
    return fit(
        X,
        y,
        feature_names=FEATURE_NAMES,
        positive_category=positive_category,
        config=config,
    )


def train_test_split(
    features: Sequence[FeatureVector], test_fraction: float = 0.25, seed: int = 0
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Deterministic shuffled split; the test side gets the ceiling."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be strictly between 0 and 1")
    order = np.random.default_rng(seed).permutation(len(features))
    n_test = max(1, int(round(len(features) * test_fraction)))
    test_idx = set(order[:n_test].tolist())
    train = [fv for i, fv in enumerate(features) if i not in test_idx]
    test = [fv for i, fv in enumerate(features) if i in test_idx]
    return train, test


@dataclass(frozen=True)
class EvalReport:
    """Held-out performance of a model."""

    accuracy: float
    true_positive: int
    true_negative: int
    false_positive: int
    false_negative: int
    majority_fraction: float
    n: int
    weight_report: tuple[tuple[str, float], ...]


def evaluate(
    model: LogisticModel, features: Sequence[FeatureVector]
) -> EvalReport:
    """Score the model on labeled feature vectors."""
    if not features:
        raise ValueError("nothing to evaluate")
    X = features_matrix(features)
    y = labels_for(features, model.positive_category)
    predicted = model.predict(X)
    actual = y.astype(np.int64)
    tp = int(np.sum((predicted == 1) & (actual == 1)))
    tn = int(np.sum((predicted == 0) & (actual == 0)))
    fp = int(np.sum((predicted == 1) & (actual == 0)))
    fn = int(np.sum((predicted == 0) & (actual == 1)))
    n = len(features)
    positives = int(actual.sum())
    majority = max(positives, n - positives) / n
    return EvalReport(
        accuracy=(tp + tn) / n,
        true_positive=tp,
        true_negative=tn,
        false_positive=fp,
        false_negative=fn,
        majority_fraction=majority,
        n=n,
        weight_report=tuple(model.weight_report()),
    )


MODEL_SCHEMA = "texcorpus.model.v2"


def save_model(model: LogisticModel, path: str | Path) -> None:
    """Write the model as deterministic JSON."""
    payload = {
        "schema": MODEL_SCHEMA,
        "feature_names": list(model.feature_names),
        "weights": [float(w) for w in model.weights],
        "bias": float(model.bias),
        "means": [float(v) for v in model.means],
        "stds": [float(v) for v in model.stds],
        "positive_category": model.positive_category,
        "config": {
            "l2": model.config.l2,
            "max_epochs": model.config.max_epochs,
            "tol": model.config.tol,
        },
        "epochs_run": model.epochs_run,
        "final_loss": float(model.final_loss),
        "diagnostics": [str(d) for d in model.diagnostics],
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

