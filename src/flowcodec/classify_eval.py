"""Multi-class classification scoring and the original-vs-compressed
comparison built on top of it.

Undefined quantities (zero-support recall, zero-prediction precision) are
reported as 0.0 with an explicit flag instead of NaN so reports stay valid
JSON, and zero-support classes are left out of the macro averages.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ._fsutil import undefined_as_none, write_json, write_table
from .errors import DataError


@dataclass
class ClassMetrics:
    name: str
    support: int
    true_positives: int
    precision: float
    recall: float
    f1: float
    precision_undefined: bool = False
    recall_undefined: bool = False

    @property
    def misclassified(self) -> int:
        return self.support - self.true_positives


@dataclass
class ClassificationReport:
    class_names: tuple[str, ...]
    accuracy: float
    per_class: list[ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    confusion: np.ndarray
    total: int
    total_misclassified: int
    zero_support_classes: tuple[str, ...] = ()
    warnings: list[str] = field(default_factory=list)

    def confusion_normalized(self) -> np.ndarray:
        """Rows divided by their support; zero-support rows come back NaN."""
        support = self.confusion.sum(axis=1, keepdims=True).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(support > 0, self.confusion / support, np.nan)

    def misclassification_ranking(self, top: int | None = None) -> list[tuple[str, int]]:
        """Classes by misclassified count, highest first; ties sort by name.
        Perfectly classified classes are omitted."""
        ranked = sorted(
            ((m.name, m.misclassified) for m in self.per_class if m.misclassified > 0),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked if top is None else ranked[:top]

    def to_json_dict(self) -> dict:
        return {
            "class_names": list(self.class_names),
            "accuracy": self.accuracy,
            "total": self.total,
            "total_misclassified": self.total_misclassified,
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "weighted": {
                "precision": self.weighted_precision,
                "recall": self.weighted_recall,
                "f1": self.weighted_f1,
            },
            "per_class": [asdict(m) for m in self.per_class],
            "confusion": self.confusion.tolist(),
            "zero_support_classes": list(self.zero_support_classes),
            "warnings": list(self.warnings),
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict(), indent=2, sort_keys=True)

    def save_confusion_csv(self, path: str | Path, normalized: bool = False) -> None:
        matrix = undefined_as_none(self.confusion_normalized() if normalized else self.confusion)
        write_table(
            path,
            ["true\\predicted", *self.class_names],
            ([name, *row] for name, row in zip(self.class_names, matrix)),
        )

    def text_table(self) -> str:
        width = max(len(n) for n in self.class_names + ("class",))
        lines = [
            f"{'class':<{width}}  {'precision':>9}  {'recall':>9}  {'f1':>9}  {'support':>8}"
        ]
        for m in self.per_class:
            lines.append(
                f"{m.name:<{width}}  {m.precision:>9.6f}  {m.recall:>9.6f}"
                f"  {m.f1:>9.6f}  {m.support:>8d}"
            )
        lines.append("")
        lines.append(f"{'accuracy':<{width}}  {self.accuracy:.6f}  ({self.total} rows)")
        lines.append(
            f"{'macro avg':<{width}}  {self.macro_precision:>9.6f}  {self.macro_recall:>9.6f}"
            f"  {self.macro_f1:>9.6f}  {self.total:>8d}"
        )
        lines.append(
            f"{'weighted avg':<{width}}  {self.weighted_precision:>9.6f}"
            f"  {self.weighted_recall:>9.6f}  {self.weighted_f1:>9.6f}  {self.total:>8d}"
        )
        return "\n".join(lines) + "\n"


def score(y_true: np.ndarray, y_pred: np.ndarray, class_names: tuple[str, ...]) -> ClassificationReport:
    """Confusion matrix and derived metrics for integer class ids."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.ndim != 1 or y_true.shape != y_pred.shape:
        raise DataError(f"label vectors must be 1-D and equal length, got {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise DataError("cannot score an empty label vector")
    k = len(class_names)
    if k < 2:
        raise DataError("need at least 2 classes")
    for vec, which in ((y_true, "true"), (y_pred, "predicted")):
        if vec.min() < 0 or vec.max() >= k:
            raise DataError(f"{which} label ids must lie in [0, {k})")

    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)

    n = int(y_true.size)
    accuracy = float(np.trace(confusion)) / n
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)

    per_class: list[ClassMetrics] = []
    warnings: list[str] = []
    for c, name in enumerate(class_names):
        tp = int(confusion[c, c])
        prec_undef = predicted[c] == 0
        rec_undef = support[c] == 0
        precision = 0.0 if prec_undef else tp / int(predicted[c])
        recall = 0.0 if rec_undef else tp / int(support[c])
        f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
        per_class.append(
            ClassMetrics(
                name=name,
                support=int(support[c]),
                true_positives=tp,
                precision=float(precision),
                recall=float(recall),
                f1=float(f1),
                precision_undefined=bool(prec_undef),
                recall_undefined=bool(rec_undef),
            )
        )

    zero_support = tuple(name for c, name in enumerate(class_names) if support[c] == 0)
    if zero_support:
        warnings.append(
            "zero-support classes excluded from macro averages: " + ", ".join(zero_support)
        )
    scored = [m for m in per_class if m.support > 0]
    macro_p = float(np.mean([m.precision for m in scored]))
    macro_r = float(np.mean([m.recall for m in scored]))
    macro_f = float(np.mean([m.f1 for m in scored]))
    weighted_p = float(sum(m.precision * m.support for m in scored)) / n
    weighted_r = float(sum(m.recall * m.support for m in scored)) / n
    weighted_f = float(sum(m.f1 * m.support for m in scored)) / n

    return ClassificationReport(
        class_names=tuple(class_names),
        accuracy=accuracy,
        per_class=per_class,
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f1=macro_f,
        weighted_precision=weighted_p,
        weighted_recall=weighted_r,
        weighted_f1=weighted_f,
        confusion=confusion,
        total=n,
        total_misclassified=n - int(np.trace(confusion)),
        zero_support_classes=zero_support,
        warnings=warnings,
    )


@dataclass
class ComparisonReport:
    """Compressed-features run measured against the original-features run.
    Deltas are compressed minus original, so degradation shows up negative."""

    original: ClassificationReport
    compressed: ClassificationReport
    accuracy_delta: float
    macro_f1_delta: float
    weighted_f1_delta: float
    misclassification_ratio: float | None

    def to_json_dict(self) -> dict:
        return {
            "original": self.original.to_json_dict(),
            "compressed": self.compressed.to_json_dict(),
            "deltas": {
                "accuracy": self.accuracy_delta,
                "macro_f1": self.macro_f1_delta,
                "weighted_f1": self.weighted_f1_delta,
            },
            "misclassification_ratio": self.misclassification_ratio,
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict(), indent=2, sort_keys=True)

    def text_table(self, top: int = 5) -> str:
        label = 24
        col = 14
        lines = [
            f"{'metric':<{label}}  {'original':>{col}}  {'compressed':>{col}}  {'difference':>{col}}",
            f"{'accuracy':<{label}}  {self.original.accuracy:>{col}.6f}"
            f"  {self.compressed.accuracy:>{col}.6f}  {self.accuracy_delta:>+{col}.6f}",
            f"{'macro avg f1':<{label}}  {self.original.macro_f1:>{col}.6f}"
            f"  {self.compressed.macro_f1:>{col}.6f}  {self.macro_f1_delta:>+{col}.6f}",
            f"{'weighted avg f1':<{label}}  {self.original.weighted_f1:>{col}.6f}"
            f"  {self.compressed.weighted_f1:>{col}.6f}  {self.weighted_f1_delta:>+{col}.6f}",
            "",
            f"{'misclassified flows':<{label}}  {self.original.total_misclassified:>{col}d}"
            f"  {self.compressed.total_misclassified:>{col}d}"
            + (
                f"  {'x' + format(self.misclassification_ratio, '.2f'):>{col}}"
                if self.misclassification_ratio is not None
                else f"  {'n/a':>{col}}"
            ),
        ]
        orig_rank = self.original.misclassification_ranking(top)
        comp_rank = self.compressed.misclassification_ranking(top)
        if orig_rank or comp_rank:
            lines.append("")
            lines.append(f"most misclassified (top {top}):")
            for i in range(max(len(orig_rank), len(comp_rank))):
                left = f"{orig_rank[i][0]} ({orig_rank[i][1]})" if i < len(orig_rank) else ""
                right = f"{comp_rank[i][0]} ({comp_rank[i][1]})" if i < len(comp_rank) else ""
                lines.append(f"  {i + 1}. {left:<34}  {right}")
        return "\n".join(lines) + "\n"


def compare(original: ClassificationReport, compressed: ClassificationReport) -> ComparisonReport:
    """Pair two reports over the same class set.

    The misclassification ratio is compressed count over original count: 1.0
    when both are zero, None (unrepresentable) when only the original is.
    """
    if original.class_names != compressed.class_names:
        raise DataError("reports cover different class sets and cannot be compared")
    if original.total != compressed.total:
        raise DataError(
            f"reports cover different row counts: {original.total} vs {compressed.total}"
        )
    if original.total_misclassified == 0:
        ratio = 1.0 if compressed.total_misclassified == 0 else None
    else:
        ratio = compressed.total_misclassified / original.total_misclassified
    return ComparisonReport(
        original=original,
        compressed=compressed,
        accuracy_delta=compressed.accuracy - original.accuracy,
        macro_f1_delta=compressed.macro_f1 - original.macro_f1,
        weighted_f1_delta=compressed.weighted_f1 - original.weighted_f1,
        misclassification_ratio=ratio,
    )
