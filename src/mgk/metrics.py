"""Confusion-matrix accumulation and the three headline metrics.

Rows index the true class, columns the predicted class. Overall accuracy
(OA) and average accuracy (AA, the mean per-class recall) are reported in
percent; Cohen's kappa is the usual chance-corrected agreement in [-1, 1].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, MgkError, ShapeError


class UndefinedKappaError(MgkError):
    """Expected agreement is 1, so kappa has no defined value."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square integer counts; rows true, columns predicted."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ShapeError(f"confusion matrix must be square, got {c.shape}")
        if c.size and c.min() < 0:
            raise ContractError("confusion counts must be >= 0")
        object.__setattr__(self, "counts", c)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accumulate(y_true, y_pred, num_classes: int) -> ConfusionMatrix:
    """Count (true, predicted) pairs; class ids must lie in [0, num_classes)."""
    y_true = np.asarray(y_true, dtype=np.int64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.int64).ravel()
    if y_true.shape != y_pred.shape:
        raise ShapeError(
            f"y_true {y_true.shape} and y_pred {y_pred.shape} differ"
        )
    if num_classes < 1:
        raise ContractError(f"num_classes must be >= 1, got {num_classes}")
    for name, arr in (("true", y_true), ("predicted", y_pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            bad = arr[(arr < 0) | (arr >= num_classes)][0]
            raise ContractError(
                f"{name} label {int(bad)} outside [0, {num_classes})"
            )
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts=counts)


def merge(a: ConfusionMatrix, b: ConfusionMatrix) -> ConfusionMatrix:
    if a.num_classes != b.num_classes:
        raise ShapeError(
            f"cannot merge {a.num_classes}-class and {b.num_classes}-class "
            "matrices"
        )
    return ConfusionMatrix(counts=a.counts + b.counts)


def overall_accuracy(cm: ConfusionMatrix) -> float:
    """Percent of samples on the diagonal."""
    if cm.total == 0:
        raise ContractError("confusion matrix is empty")
    return 100.0 * float(np.trace(cm.counts)) / cm.total


def per_class_accuracy(cm: ConfusionMatrix) -> np.ndarray:
    """Recall per class in percent; classes with no samples are NaN."""
    row = cm.counts.sum(axis=1).astype(np.float64)
    diag = np.diag(cm.counts).astype(np.float64)
    out = np.full(cm.num_classes, np.nan)
    live = row > 0
    out[live] = 100.0 * diag[live] / row[live]
    return out


def average_accuracy(cm: ConfusionMatrix) -> float:
    """Mean per-class recall over classes that have samples."""
    acc = per_class_accuracy(cm)
    live = ~np.isnan(acc)
    if not live.any():
        raise ContractError("confusion matrix is empty")
    return float(acc[live].mean())


def kappa(cm: ConfusionMatrix) -> float:
    """Cohen's kappa (p_o - p_e) / (1 - p_e)."""
    total = cm.total
    if total == 0:
        raise ContractError("confusion matrix is empty")
    p_o = float(np.trace(cm.counts)) / total
    row = cm.counts.sum(axis=1).astype(np.float64)
    col = cm.counts.sum(axis=0).astype(np.float64)
    p_e = float(row @ col) / (total * total)
    if p_e >= 1.0:
        raise UndefinedKappaError(
            "expected agreement is 1; kappa is undefined"
        )
    return (p_o - p_e) / (1.0 - p_e)


def report_text(cm: ConfusionMatrix, class_names=None) -> str:
    """Human-readable per-class table plus the three summary metrics."""
    acc = per_class_accuracy(cm)
    rows = cm.counts.sum(axis=1)
    if class_names is None:
        class_names = [f"class {i + 1}" for i in range(cm.num_classes)]
    lines = [f"{'class':<18}{'samples':>9}{'recall %':>10}"]
    for name, n, a in zip(class_names, rows, acc):
        shown = "n/a" if np.isnan(a) else f"{a:.2f}"
        lines.append(f"{name:<18}{int(n):>9}{shown:>10}")
    lines.append("")
    lines.append(f"overall accuracy   {overall_accuracy(cm):.2f}")
    lines.append(f"average accuracy   {average_accuracy(cm):.2f}")
    try:
        lines.append(f"kappa              {kappa(cm):.4f}")
    except UndefinedKappaError:
        lines.append("kappa              undefined")
    return "\n".join(lines) + "\n"


REPORT_CSV_FIELDS = ("class_id", "samples", "recall_pct")


def write_report_csv(cm: ConfusionMatrix, fh) -> None:
    """Per-class rows then summary rows (class_id oa/aa/kappa)."""
    writer = csv.writer(fh)
    writer.writerow(REPORT_CSV_FIELDS)
    acc = per_class_accuracy(cm)
    rows = cm.counts.sum(axis=1)
    for i in range(cm.num_classes):
        shown = "" if np.isnan(acc[i]) else repr(float(acc[i]))
        writer.writerow([i + 1, int(rows[i]), shown])
    writer.writerow(["oa", cm.total, repr(overall_accuracy(cm))])
    writer.writerow(["aa", cm.total, repr(average_accuracy(cm))])
    try:
        writer.writerow(["kappa", cm.total, repr(kappa(cm))])
    except UndefinedKappaError:
        writer.writerow(["kappa", cm.total, ""])
