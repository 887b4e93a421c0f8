"""TOC-page detection: XML page model, layout/term features, decision tree.

The names in __all__, and the submodules, are imported on first use, so a
command loads only the modules it runs: `train` and `eval` never load the XML parser.
"""

import importlib

_NAMES = {  # submodule -> the public names it defines
    "dataset": ("Dataset", "load_csv", "table1_fixture", "write_csv"),
    "docmodel": ("DocumentModel", "Line", "Page", "Token", "parse_document"),
    "features": ("FeatureConfig", "FeatureVector", "extract_features", "write_feature_csv"),
    "pipeline": ("DetectionResult", "EvaluationReport", "detect", "evaluate", "leave_one_out"),
    "schema": ("ClassLabel",),
    "tree": ("TrainedModel", "classify", "entropy", "export_dot", "export_text", "learn",
             "load_model", "save_model"),
    "errors": (),
}
_HOMES = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _NAMES:  # importing a submodule binds it here as well
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():  # the lazy names too, before any is first read
    return sorted({*globals(), *__all__, *_NAMES})
