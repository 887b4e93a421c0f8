"""TOC-page detection: XML page model, layout/term features, decision tree."""

from .dataset import Dataset, load_csv, table1_fixture, write_csv
from .docmodel import DocumentModel, Line, Page, Token, parse_document
from .features import FeatureConfig, FeatureVector, extract_features, write_feature_csv
from .pipeline import DetectionResult, EvaluationReport, detect, evaluate, leave_one_out
from .schema import ClassLabel
from .tree import (
    TrainedModel,
    best_split,
    classify,
    entropy,
    export_dot,
    export_text,
    learn,
    load_model,
    save_model,
)

__all__ = [
    "ClassLabel",
    "Dataset",
    "DetectionResult",
    "DocumentModel",
    "EvaluationReport",
    "FeatureConfig",
    "FeatureVector",
    "Line",
    "Page",
    "Token",
    "TrainedModel",
    "best_split",
    "classify",
    "detect",
    "entropy",
    "evaluate",
    "export_dot",
    "export_text",
    "extract_features",
    "learn",
    "leave_one_out",
    "load_csv",
    "load_model",
    "parse_document",
    "save_model",
    "table1_fixture",
    "write_csv",
    "write_feature_csv",
]

__version__ = "0.1.0"
