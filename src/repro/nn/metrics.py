"""Classification metrics beyond accuracy.

Used by the examples and the extended evaluation utilities: per-class
precision / recall / F1, their macro averages, and the confusion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def confusion_matrix(
    predictions: np.ndarray, targets: np.ndarray, num_classes: Optional[int] = None
) -> np.ndarray:
    """``M[i, j]`` counts nodes of true class ``i`` predicted as ``j``."""
    predictions = np.asarray(predictions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs "
            f"targets {targets.shape}"
        )
    if num_classes is None:
        num_classes = int(max(predictions.max(initial=0), targets.max(initial=0))) + 1
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (targets, predictions), 1)
    return matrix


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class and macro-averaged precision / recall / F1."""

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float

    @property
    def macro_precision(self) -> float:
        """Unweighted mean of the per-class precisions."""
        return float(self.precision.mean())

    @property
    def macro_recall(self) -> float:
        """Unweighted mean of the per-class recalls."""
        return float(self.recall.mean())

    @property
    def macro_f1(self) -> float:
        """Unweighted mean of the per-class F1 scores."""
        return float(self.f1.mean())

    def summary(self) -> str:
        """A plain-text table: one row per class, a macro row, then the
        accuracy."""
        lines = [f"{'class':>6} {'prec':>7} {'recall':>7} {'f1':>7} {'n':>6}"]
        for c in range(len(self.precision)):
            lines.append(
                f"{c:>6} {self.precision[c]:>7.3f} {self.recall[c]:>7.3f} "
                f"{self.f1[c]:>7.3f} {self.support[c]:>6d}"
            )
        lines.append(
            f"{'macro':>6} {self.macro_precision:>7.3f} "
            f"{self.macro_recall:>7.3f} {self.macro_f1:>7.3f} "
            f"{int(self.support.sum()):>6d}"
        )
        lines.append(f"accuracy: {self.accuracy:.3f}")
        return "\n".join(lines)


def classification_report(
    logits: np.ndarray,
    targets: np.ndarray,
    mask: Optional[np.ndarray] = None,
    num_classes: Optional[int] = None,
) -> ClassificationReport:
    """Compute a full per-class report from logits."""
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype == bool:
            mask = np.flatnonzero(mask)
        logits = logits[mask]
        targets = targets[mask]
    if num_classes is None:
        num_classes = logits.shape[1]
    predictions = logits.argmax(axis=-1)
    matrix = confusion_matrix(predictions, targets, num_classes)

    true_pos = np.diag(matrix).astype(np.float64)
    predicted = matrix.sum(axis=0).astype(np.float64)
    actual = matrix.sum(axis=1).astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(predicted > 0, true_pos / predicted, 0.0)
        recall = np.where(actual > 0, true_pos / actual, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)

    total = matrix.sum()
    accuracy = float(true_pos.sum() / total) if total else 0.0
    return ClassificationReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=actual.astype(np.int64),
        accuracy=accuracy,
    )
