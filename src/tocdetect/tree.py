"""Decision tree induction over mixed categorical/boolean/numeric features.

Splits are chosen by information gain (Shannon entropy, base 2).
Categorical and boolean columns split multiway by value; numeric columns
split binary at midpoints between consecutive distinct values. Everything
is deterministic: ties resolve by gain, then canonical column order, then
smaller threshold; leaf-label ties resolve to TOC. No pruning.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Optional, Sequence, Union

from . import schema
from .errors import (
    CorruptModel,
    DatasetError,
    EmptyDataset,
    MissingFeature,
    UnsupportedVersion,
)
from .dataset import Dataset
from .features import FeatureConfig
from .schema import ClassLabel

Counts = tuple[int, int]  # (n_TOC, n_NON_TOC)

#: Deepest tree learn returns. Building, saving and loading each recurse about two frames
#: per level, so this keeps them within half of Python's default recursion limit (1000).
MAX_TREE_DEPTH = 256


@dataclass(frozen=True)
class _Node:
    counts: Counts  # class counts of the training rows that reached this node

    @property
    def label(self) -> ClassLabel:
        # tie -> TOC
        return ClassLabel.TOC if self.counts[0] >= self.counts[1] else ClassLabel.NON_TOC


@dataclass(frozen=True)
class Leaf(_Node):
    pass


@dataclass(frozen=True)
class NumericNode(_Node):
    feature: str
    threshold: float
    le: "TreeNode"  # value <= threshold
    gt: "TreeNode"


@dataclass(frozen=True)
class CategoricalNode(_Node):
    feature: str
    branches: dict  # value -> TreeNode, insertion-ordered by serialized value


TreeNode = Union[Leaf, NumericNode, CategoricalNode]


@dataclass(frozen=True)
class TrainedModel:
    root: TreeNode
    columns: tuple[str, ...]
    config_echo: FeatureConfig = field(default_factory=FeatureConfig)


@dataclass(frozen=True)
class SplitCandidate:
    feature: str
    threshold: Optional[float]  # None for a categorical multiway split
    gain: float


def entropy(counts: Sequence[int]) -> float:
    """Shannon entropy (base 2) of a count distribution; 0 for empty or pure."""
    total = sum(counts)
    if total == 0:
        return 0.0
    result = 0.0
    for c in counts:
        if c:
            p = c / total
            result -= p * math.log2(p)
    return result


def _count(rows) -> Counts:
    c = Counter(label for _, label in rows)
    return (c[ClassLabel.TOC], c[ClassLabel.NON_TOC])


def _groups(rows, column, threshold):
    """How a split divides rows: (value <= threshold, value > threshold), or for a
    categorical split (threshold None) a dict value -> rows in serialized value order."""
    if threshold is not None:
        return ([r for r in rows if r[0][column] <= threshold],
                [r for r in rows if r[0][column] > threshold])
    groups = {}
    for values, label in rows:
        groups.setdefault(values[column], []).append((values, label))
    # a fixed order, so row permutations cannot perturb the float gain summed over groups
    return {v: groups[v] for v in sorted(groups, key=lambda v: schema.format_value(column, v))}


def _candidates(rows, column):
    """Yield (threshold or None, class counts of each group) for every split on column."""
    if not schema.is_numeric(schema.CANONICAL_COLUMNS[column]):
        groups = _groups(rows, column, None)
        if len(groups) > 1:
            yield None, [_count(g) for g in groups.values()]
        return
    ordered = sorted(rows, key=lambda r: r[0][column])
    keys = [values[column] for values, _ in ordered]
    tocs = list(accumulate((label is ClassLabel.TOC for _, label in ordered), initial=0))
    n_toc, n_non = _count(rows)
    distinct = sorted(set(keys))
    for lo, hi in zip(distinct, distinct[1:]):
        t = (lo + hi) / 2
        n_le = bisect_right(keys, t)  # rows <= t, which include hi when t rounds up to it
        le = (tocs[n_le], n_le - tocs[n_le])
        yield t, [le, (n_toc - le[0], n_non - le[1])]


def best_split(rows, columns) -> Optional[SplitCandidate]:
    """Highest-gain split over the given columns, or None if no gain > 0.

    rows: sequence of (value mapping, ClassLabel). Ties break by canonical
    column order, then by smaller threshold.
    """
    total = len(rows)
    parent = entropy(_count(rows))
    best = None
    best_key = None
    for column in columns:
        for t, parts in _candidates(rows, column):
            gain = parent - sum(sum(c) / total * entropy(c) for c in parts)
            key = (-gain, schema.canonical_index(column), -math.inf if t is None else t)
            if gain > 0 and (best_key is None or key < best_key):
                best, best_key = SplitCandidate(column, t, gain), key
    return best


def _build(rows, available, depth, max_depth, min_rows) -> TreeNode:
    if depth > MAX_TREE_DEPTH:
        raise DatasetError(f"tree deeper than {MAX_TREE_DEPTH} levels; limit it with max_depth")
    counts = _count(rows)
    if (
        0 in counts
        or len(rows) < 2 * min_rows
        or (max_depth is not None and depth >= max_depth)
    ):
        return Leaf(counts)
    cand = best_split(rows, available)
    if cand is None:
        return Leaf(counts)
    groups = _groups(rows, cand.feature, cand.threshold)
    if cand.threshold is None:
        remaining = [c for c in available if c != cand.feature]
        branches = {
            value: _build(group, remaining, depth + 1, max_depth, min_rows)
            for value, group in groups.items()
        }
        return CategoricalNode(counts, cand.feature, branches)
    le, gt = (_build(part, available, depth + 1, max_depth, min_rows) for part in groups)
    return NumericNode(counts, cand.feature, cand.threshold, le, gt)


def _counts_json(counts: Counts) -> dict:
    return {"TOC": counts[0], "NON-TOC": counts[1]}


def learn(
    data: Dataset,
    max_depth: int | None = None,
    min_rows: int = 1,
    config: FeatureConfig | None = None,
) -> TrainedModel:
    """Induce a decision tree from a labeled dataset. Deterministic; DatasetError if too deep."""
    if not data.rows:
        raise EmptyDataset("cannot learn from an empty dataset")
    if min_rows < 1:
        raise ValueError("min_rows must be >= 1")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    rows = [(dict(zip(data.columns, values)), label) for values, label in data.rows]
    root = _build(rows, list(data.columns), 0, max_depth, min_rows)
    return TrainedModel(
        root=root,
        columns=tuple(data.columns),
        config_echo=config or FeatureConfig(),
    )


def classify(model: TrainedModel, vector: Mapping) -> tuple[ClassLabel, Counts]:
    """Route a feature vector through the tree; returns (label, leaf counts).

    Categorical values match branches in the schema's normalized form. A
    categorical value unseen at a node ends the walk at that node, which
    answers with its own label and counts, as a leaf does.
    """
    values = {}
    for column in model.columns:
        if column not in vector:
            raise MissingFeature(column)
        values[column] = schema.check_value(column, vector[column])
    node = model.root
    while not isinstance(node, Leaf):
        value = values[node.feature]
        if isinstance(node, NumericNode):
            node = node.le if value <= node.threshold else node.gt
        elif value in node.branches:
            node = node.branches[value]
        else:
            break
    return node.label, node.counts


def _render_text(node: TreeNode, indent: str, prefix: str, out: list):
    if isinstance(node, Leaf):
        out.append(f"{indent}{prefix}→ {node.label} ({node.counts[0]}/{node.counts[1]})")
    elif isinstance(node, NumericNode):
        out.append(f"{indent}{prefix}{node.feature} <= {node.threshold!r}?")
        _render_text(node.le, indent + "    ", "yes: ", out)
        _render_text(node.gt, indent + "    ", "no: ", out)
    else:
        out.append(f"{indent}{prefix}{node.feature}?")
        for value, child in node.branches.items():
            tag = schema.format_value(node.feature, value)
            _render_text(child, indent + "    ", f"= {tag}: ", out)


def export_text(model: TrainedModel) -> str:
    """Indented if/else rendering: one condition per line, counts at leaves."""
    out: list = []
    _render_text(model.root, "", "", out)
    return "\n".join(out) + "\n"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_dot(node: TreeNode, counter: list, out: list) -> str:
    node_id = f"n{counter[0]}"
    counter[0] += 1
    if isinstance(node, Leaf):
        label = f"{node.label} ({node.counts[0]}/{node.counts[1]})"
        out.append(f"  {node_id} [label={_dot_quote(label)}];")
        return node_id
    out.append(f"  {node_id} [label={_dot_quote(node.feature)}, shape=box];")
    if isinstance(node, NumericNode):
        edges = [(f"<= {node.threshold!r}", node.le), (f"> {node.threshold!r}", node.gt)]
    else:
        edges = [
            (f"= {schema.format_value(node.feature, value)}", child)
            for value, child in node.branches.items()
        ]
    for condition, child in edges:
        child_id = _render_dot(child, counter, out)
        out.append(f"  {node_id} -> {child_id} [label={_dot_quote(condition)}];")
    return node_id


def export_dot(model: TrainedModel) -> str:
    """DOT digraph with split conditions on edges; deterministic output."""
    out = ["digraph decision_tree {", "  node [shape=ellipse];"]
    _render_dot(model.root, [0], out)
    out.append("}")
    return "\n".join(out) + "\n"


MODEL_FORMAT_VERSION = 1


def _node_to_json(node: TreeNode):
    if isinstance(node, Leaf):
        return {"leaf": {"label": str(node.label), "counts": _counts_json(node.counts)}}
    if isinstance(node, NumericNode):
        return {
            "num": {
                "feature": node.feature,
                "threshold": node.threshold,
                "le": _node_to_json(node.le),
                "gt": _node_to_json(node.gt),
                "majority": str(node.label),
            }
        }
    return {
        "cat": {
            "feature": node.feature,
            "branches": {
                schema.format_value(node.feature, value): _node_to_json(child)
                for value, child in node.branches.items()
            },
            "majority": str(node.label),
        }
    }


def _model_doc(model: TrainedModel) -> dict:
    cfg = model.config_echo
    counts = model.root.counts
    return {
        "version": MODEL_FORMAT_VERSION,
        "columns": list(model.columns),
        "feature_config": {
            "title_terms": list(cfg.title_terms),
            "section_keywords": sorted(cfg.section_keywords),
            "max_page_number_digits": cfg.max_page_number_digits,
        },
        "summary": {"rows": sum(counts), "labels": _counts_json(counts)},
        "root": _node_to_json(model.root),
    }


def save_model(model: TrainedModel) -> bytes:
    """Versioned JSON serialization; save -> load -> save is byte-identical."""
    return (json.dumps(_model_doc(model), indent=2) + "\n").encode("utf-8")


def _summed(children) -> Counts:
    return (sum(c.counts[0] for c in children), sum(c.counts[1] for c in children))


def _node_from_json(obj, columns) -> TreeNode:
    (tag, body), = obj.items()
    if tag == "leaf":
        counts = (body["counts"]["TOC"], body["counts"]["NON-TOC"])
        if not all(type(c) is int and c >= 0 for c in counts):
            raise CorruptModel(f"leaf counts {counts!r} are not non-negative integers")
        return Leaf(counts)
    feature = body["feature"]
    if feature not in columns:
        raise CorruptModel(f"node on feature {feature!r} outside the model columns")
    kind = schema.CANONICAL_COLUMNS[feature]
    if tag != ("num" if schema.is_numeric(kind) else "cat"):
        raise CorruptModel(f"{tag!r} node on {kind.value} feature {feature!r}")
    if tag == "num":
        threshold = float(body["threshold"])  # a non-float value fails load_model's final check
        if not math.isfinite(threshold):
            raise CorruptModel(f"threshold {threshold!r} is not a finite number")
        le = _node_from_json(body["le"], columns)
        gt = _node_from_json(body["gt"], columns)
        return NumericNode(_summed((le, gt)), feature, threshold, le, gt)
    branches = {
        schema.check_value(feature, schema.parse_value(feature, key)):
            _node_from_json(child, columns)
        for key, child in body["branches"].items()
    }
    if not branches:
        raise CorruptModel(f"categorical node on {feature!r} has no branches")
    return CategoricalNode(_summed(branches.values()), feature, branches)


def load_model(data: bytes) -> TrainedModel:
    """Inverse of save_model; raises CorruptModel for any invalid tree, or UnsupportedVersion.

    A file loads only if it holds exactly the document save_model writes for
    the model it describes, up to whitespace and key order.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or an over-long integer
        raise CorruptModel(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptModel("top-level JSON value is not an object")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise UnsupportedVersion(f"model format version {version!r} not supported")
    try:
        columns = Dataset(columns=tuple(doc["columns"]), rows=()).columns
        model = TrainedModel(
            root=_node_from_json(doc["root"], columns),
            columns=columns,
            config_echo=FeatureConfig(**doc["feature_config"]),
        )
        # JSON types count: true is not 1 and 1 is not 1.0
        if json.dumps(_model_doc(model), sort_keys=True) != json.dumps(doc, sort_keys=True):
            raise CorruptModel("model document differs from the one its tree saves as")
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError,
            DatasetError) as exc:
        raise CorruptModel(f"malformed model document: {exc}") from exc
    return model
