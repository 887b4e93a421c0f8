"""Document scanning and model evaluation.

detect() classifies the leading fraction of a document's pages with
classify(), which checks every value. evaluate() and leave_one_out() tally
confusion matrices (TOC positive) on a Dataset's rows, taken as checked.
leave_one_out() grows each fold's tree only along the held-out row's path.
The page model is imported for type checking alone, so evaluating a CSV never
loads the XML parser.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING

from .dataset import Dataset
from .errors import ColumnMismatch, EmptyDataset
from .features import extract_features
from .record import Frozen
from .schema import ClassLabel
from .tree import TrainedModel, _build, _Table, _walk, classify

if TYPE_CHECKING:
    from .docmodel import DocumentModel


class DetectionResult(Frozen):
    _fields = ("document_id", "scanned_pages", "toc_pages", "prefix_fraction")

    def __init__(self, document_id: str, scanned_pages: tuple[int, ...],
                 toc_pages: tuple[tuple[int, tuple[int, int]], ...],  # (page index, leaf counts)
                 prefix_fraction: float):
        self._set(document_id, scanned_pages, toc_pages, prefix_fraction)

    def to_json_dict(self) -> dict:
        return {
            "document_id": self.document_id,
            "prefix_fraction": self.prefix_fraction,
            "scanned_pages": list(self.scanned_pages),
            "toc_pages": [
                {"page": page, "counts": {"TOC": c[0], "NON-TOC": c[1]}}
                for page, c in self.toc_pages
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"document:        {self.document_id}",
            f"prefix fraction: {self.prefix_fraction}",
            f"scanned pages:   {', '.join(map(str, self.scanned_pages))}",
        ]
        if self.toc_pages:
            for page, (toc, non) in self.toc_pages:
                lines.append(f"TOC page:        {page} (leaf counts {toc}/{non})")
        else:
            lines.append("TOC page:        none detected")
        return "\n".join(lines) + "\n"


class EvaluationReport(Frozen):
    _fields = ("tp", "fp", "fn", "tn")

    def __init__(self, tp: int, fp: int, fn: int, tn: int):
        self._set(tp, fp, fn, tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        d = self.tp + self.fp
        return self.tp / d if d else 0.0

    @property
    def recall(self) -> float:
        d = self.tp + self.fn
        return self.tp / d if d else 0.0

    @property
    def f1(self) -> float:
        d = self.precision + self.recall
        return 2 * self.precision * self.recall / d if d else 0.0

    def to_json_dict(self) -> dict:
        return {
            "confusion": {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn},
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }

    def to_text(self) -> str:
        return "\n".join(
            [
                "                 predicted TOC   predicted NON-TOC",
                f"actual TOC       {self.tp:>13d}   {self.fn:>17d}",
                f"actual NON-TOC   {self.fp:>13d}   {self.tn:>17d}",
                "",
                f"accuracy  {self.accuracy:.4f}",
                f"precision {self.precision:.4f}",
                f"recall    {self.recall:.4f}",
                f"f1        {self.f1:.4f}",
            ]
        ) + "\n"


def scan_count(page_count: int, prefix_fraction: float) -> int:
    """Pages to scan: max(1, ceil(fraction * page_count)), computed exactly."""
    from fractions import Fraction  # only detect needs it, and it is slow to import

    # Fraction-of-str avoids float fuzz like ceil(0.3 * 10) == 4.
    return max(1, math.ceil(Fraction(str(prefix_fraction)) * page_count))


def detect(
    doc: DocumentModel,
    model: TrainedModel,
    prefix_fraction: float = 0.3,
) -> DetectionResult:
    """Classify the leading pages of a document; TOC pages in ascending order.

    Features are extracted with the feature config the model was trained with.
    """
    # a bool is an int, but scan_count cannot read "True"; other numbers do not serialize
    if (isinstance(prefix_fraction, bool) or not isinstance(prefix_fraction, (int, float))
            or not 0 < prefix_fraction <= 1):
        raise ValueError(f"prefix_fraction must be a number in (0, 1], got {prefix_fraction!r}")
    pages = doc.pages[: scan_count(len(doc.pages), prefix_fraction)]
    toc_pages = []
    for page in pages:
        label, counts = classify(model, extract_features(page, model.config_echo).as_dict())
        if label is ClassLabel.TOC:
            toc_pages.append((page.index, counts))
    return DetectionResult(
        document_id=doc.id,
        scanned_pages=tuple(page.index for page in pages),
        toc_pages=tuple(toc_pages),
        prefix_fraction=prefix_fraction,
    )


def _tally(pairs) -> EvaluationReport:
    c = Counter(pairs)
    toc, non = ClassLabel.TOC, ClassLabel.NON_TOC
    return EvaluationReport(tp=c[toc, toc], fp=c[non, toc], fn=c[toc, non], tn=c[non, non])


def evaluate(model: TrainedModel, data: Dataset) -> EvaluationReport:
    """Confusion matrix and metrics of a model against labeled rows."""
    if not data.rows:
        raise EmptyDataset("nothing to evaluate")
    missing = [c for c in model.columns if c not in data.columns]
    if missing:
        raise ColumnMismatch(f"dataset lacks model columns: {', '.join(missing)}")
    return _tally((gold, _walk(model.root, dict(zip(data.columns, values)))[0])
                  for values, gold in data.rows)


def leave_one_out(
    data: Dataset, max_depth: int | None = None, min_rows: int = 1
) -> EvaluationReport:
    """Hold out each row in turn, train on the rest, classify the held-out row.

    Each fold grows only the held-out row's path through the tree learn would give, so a
    fold fails as too deep (DatasetError) only where that path passes MAX_TREE_DEPTH.
    """
    if len(data.rows) < 2:
        raise EmptyDataset("leave-one-out needs at least 2 rows")
    table = _Table(data, max_depth, min_rows)  # the folds share it: a fold is its row positions
    positions = list(range(len(data.rows)))
    return _tally((gold, _build(table, positions[:i] + positions[i + 1:], list(table.columns),
                                0, only=i).label)
                  for i, (_, gold) in enumerate(data.rows))
