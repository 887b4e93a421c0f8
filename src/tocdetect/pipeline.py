"""Document scanning and model evaluation.

detect() scans the leading fraction of a document's pages, extracts
features, and classifies each page. evaluate() and leave_one_out() tally
confusion matrices against gold labels, with TOC as the positive class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dataset import Dataset
from .docmodel import DocumentModel
from .errors import ColumnMismatch, EmptyDataset
from .features import FeatureConfig, extract_features
from .schema import ClassLabel
from .tree import TrainedModel, classify, learn


@dataclass(frozen=True)
class DetectionResult:
    document_id: str
    scanned_pages: tuple[int, ...]
    toc_pages: tuple[tuple[int, tuple[int, int]], ...]  # (page index, leaf counts)
    prefix_fraction: float

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


@dataclass(frozen=True)
class EvaluationReport:
    tp: int
    fp: int
    fn: int
    tn: int

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
    # Fraction-of-str avoids float fuzz like ceil(0.3 * 10) == 4.
    return max(1, math.ceil(Fraction(str(prefix_fraction)) * page_count))


def detect(
    doc: DocumentModel,
    model: TrainedModel,
    cfg: FeatureConfig | None = None,
    prefix_fraction: float = 0.3,
) -> DetectionResult:
    """Classify the leading pages of a document; TOC pages in ascending order.

    cfg defaults to the feature config the model was trained with.
    """
    if not 0 < prefix_fraction <= 1:
        raise ValueError(f"prefix_fraction {prefix_fraction} outside (0, 1]")
    cfg = cfg or model.config_echo
    pages = doc.pages[: scan_count(len(doc.pages), prefix_fraction)]
    toc_pages = []
    for page in pages:
        label, counts = classify(model, extract_features(page, cfg).as_dict())
        if label is ClassLabel.TOC:
            toc_pages.append((page.index, counts))
    return DetectionResult(
        document_id=doc.id,
        scanned_pages=tuple(page.index for page in pages),
        toc_pages=tuple(toc_pages),
        prefix_fraction=prefix_fraction,
    )


def _tally(pairs) -> EvaluationReport:
    tp = fp = fn = tn = 0
    for gold, predicted in pairs:
        if gold is ClassLabel.TOC:
            if predicted is ClassLabel.TOC:
                tp += 1
            else:
                fn += 1
        else:
            if predicted is ClassLabel.TOC:
                fp += 1
            else:
                tn += 1
    return EvaluationReport(tp=tp, fp=fp, fn=fn, tn=tn)


def evaluate(model: TrainedModel, data: Dataset) -> EvaluationReport:
    """Confusion matrix and metrics of a model against labeled rows."""
    if not data.rows:
        raise EmptyDataset("nothing to evaluate")
    missing = [c for c in model.columns if c not in data.columns]
    if missing:
        raise ColumnMismatch(f"dataset lacks model columns: {', '.join(missing)}")
    pairs = []
    for values, gold in data.rows:
        vector = dict(zip(data.columns, values))
        predicted, _ = classify(model, vector)
        pairs.append((gold, predicted))
    return _tally(pairs)


def leave_one_out(
    data: Dataset, max_depth: int | None = None, min_rows: int = 1
) -> EvaluationReport:
    """Hold out each row in turn, train on the rest, classify the held-out row."""
    if len(data.rows) < 2:
        raise EmptyDataset("leave-one-out needs at least 2 rows")
    pairs = []
    for i, (values, gold) in enumerate(data.rows):
        rest = Dataset(
            columns=data.columns,
            rows=tuple(row for j, row in enumerate(data.rows) if j != i),
        )
        model = learn(rest, max_depth=max_depth, min_rows=min_rows)
        predicted, _ = classify(model, dict(zip(data.columns, values)))
        pairs.append((gold, predicted))
    return _tally(pairs)
