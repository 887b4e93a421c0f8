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
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from . import schema
from .errors import (
    CorruptModel,
    DataTypeError,
    EmptyDataset,
    MissingFeature,
    UnsupportedVersion,
)
from .dataset import Dataset
from .features import FeatureConfig
from .schema import ClassLabel

Counts = tuple[int, int]  # (n_TOC, n_NON_TOC)


@dataclass(frozen=True)
class Leaf:
    counts: Counts

    @property
    def label(self) -> ClassLabel:
        # tie -> TOC
        return ClassLabel.TOC if self.counts[0] >= self.counts[1] else ClassLabel.NON_TOC


@dataclass(frozen=True)
class NumericNode:
    feature: str
    threshold: float
    le: "TreeNode"  # value <= threshold
    gt: "TreeNode"
    majority: ClassLabel


@dataclass(frozen=True)
class CategoricalNode:
    feature: str
    branches: dict  # value -> TreeNode, insertion-ordered by serialized value
    majority: ClassLabel


TreeNode = Union[Leaf, NumericNode, CategoricalNode]


@dataclass(frozen=True)
class TrainedModel:
    root: TreeNode
    columns: tuple[str, ...]
    training_summary: dict
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


def _majority(counts: Counts) -> ClassLabel:
    return ClassLabel.TOC if counts[0] >= counts[1] else ClassLabel.NON_TOC


def _partition_gain(parent_entropy: float, total: int, groups) -> float:
    child = sum(len(g) / total * entropy(_count(g)) for g in groups)
    return parent_entropy - child


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
        kind = schema.CANONICAL_COLUMNS[column]
        if schema.is_numeric(kind):
            values = sorted({values[column] for values, _ in rows})
            for lo, hi in zip(values, values[1:]):
                t = (lo + hi) / 2
                le = [r for r in rows if r[0][column] <= t]
                gt = [r for r in rows if r[0][column] > t]
                gain = _partition_gain(parent, total, (le, gt))
                candidate = SplitCandidate(column, t, gain)
                key = (-gain, schema.canonical_index(column), t)
                if gain > 0 and (best_key is None or key < best_key):
                    best, best_key = candidate, key
        else:
            groups = {}
            for values, label in rows:
                groups.setdefault(values[column], []).append((values, label))
            if len(groups) < 2:
                continue
            # sum child entropies in value order so row permutations cannot
            # perturb the float gain
            ordered = [
                groups[v]
                for v in sorted(groups, key=lambda v: schema.format_value(column, v))
            ]
            gain = _partition_gain(parent, total, ordered)
            candidate = SplitCandidate(column, None, gain)
            key = (-gain, schema.canonical_index(column), -math.inf)
            if gain > 0 and (best_key is None or key < best_key):
                best, best_key = candidate, key
    return best


def _build(rows, available, depth, max_depth, min_rows) -> TreeNode:
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
    majority = _majority(counts)
    if cand.threshold is None:
        remaining = [c for c in available if c != cand.feature]
        groups = {}
        for values, label in rows:
            groups.setdefault(values[cand.feature], []).append((values, label))
        branches = {
            value: _build(groups[value], remaining, depth + 1, max_depth, min_rows)
            for value in sorted(groups, key=lambda v: schema.format_value(cand.feature, v))
        }
        return CategoricalNode(cand.feature, branches, majority)
    le = [r for r in rows if r[0][cand.feature] <= cand.threshold]
    gt = [r for r in rows if r[0][cand.feature] > cand.threshold]
    return NumericNode(
        cand.feature,
        cand.threshold,
        _build(le, available, depth + 1, max_depth, min_rows),
        _build(gt, available, depth + 1, max_depth, min_rows),
        majority,
    )


def learn(
    data: Dataset,
    max_depth: int | None = None,
    min_rows: int = 1,
    config: FeatureConfig | None = None,
) -> TrainedModel:
    """Induce a decision tree from a labeled dataset. Deterministic."""
    if not data.rows:
        raise EmptyDataset("cannot learn from an empty dataset")
    if min_rows < 1:
        raise ValueError("min_rows must be >= 1")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    rows = [
        ({c: schema.canonical_value(c, v) for c, v in zip(data.columns, values)}, label)
        for values, label in data.rows
    ]
    root = _build(rows, list(data.columns), 0, max_depth, min_rows)
    counts = data.label_counts()
    summary = {
        "rows": len(data.rows),
        "labels": {str(label): counts.get(label, 0) for label in ClassLabel},
    }
    return TrainedModel(
        root=root,
        columns=tuple(data.columns),
        training_summary=summary,
        config_echo=config or FeatureConfig(),
    )


def aggregate_counts(node: TreeNode) -> Counts:
    """Summed leaf counts of a subtree."""
    if isinstance(node, Leaf):
        return node.counts
    if isinstance(node, NumericNode):
        children = (node.le, node.gt)
    else:
        children = node.branches.values()
    toc = non = 0
    for child in children:
        t, n = aggregate_counts(child)
        toc += t
        non += n
    return (toc, non)


def classify(model: TrainedModel, vector: Mapping) -> tuple[ClassLabel, Counts]:
    """Route a feature vector through the tree; returns (label, leaf counts).

    Categorical values match branches in the schema's normalized form. A
    categorical value unseen at a node falls back to that node's majority
    label with the node's aggregate counts.
    """
    values = {}
    for column in model.columns:
        if column not in vector:
            raise MissingFeature(column)
        values[column] = schema.canonical_value(column, schema.check_value(column, vector[column]))
    node = model.root
    while not isinstance(node, Leaf):
        value = values[node.feature]
        if isinstance(node, NumericNode):
            node = node.le if value <= node.threshold else node.gt
        else:
            child = node.branches.get(value)
            if child is None:
                return node.majority, aggregate_counts(node)
            node = child
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
        return {
            "leaf": {
                "label": str(node.label),
                "counts": {"TOC": node.counts[0], "NON-TOC": node.counts[1]},
            }
        }
    if isinstance(node, NumericNode):
        return {
            "num": {
                "feature": node.feature,
                "threshold": node.threshold,
                "le": _node_to_json(node.le),
                "gt": _node_to_json(node.gt),
                "majority": str(node.majority),
            }
        }
    return {
        "cat": {
            "feature": node.feature,
            "branches": {
                schema.format_value(node.feature, value): _node_to_json(child)
                for value, child in node.branches.items()
            },
            "majority": str(node.majority),
        }
    }


def save_model(model: TrainedModel) -> bytes:
    """Versioned JSON serialization; save -> load -> save is byte-identical."""
    cfg = model.config_echo
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "columns": list(model.columns),
        "feature_config": {
            "title_terms": list(cfg.title_terms),
            "section_keywords": sorted(cfg.section_keywords),
            "max_page_number_digits": cfg.max_page_number_digits,
        },
        "summary": model.training_summary,
        "root": _node_to_json(model.root),
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _node_from_json(obj, columns) -> TreeNode:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise CorruptModel(f"bad node object: {obj!r}")
    (tag, body), = obj.items()
    if tag == "leaf":
        counts = (body["counts"]["TOC"], body["counts"]["NON-TOC"])
        if not all(type(c) is int and c >= 0 for c in counts):
            raise CorruptModel(f"leaf counts {counts!r} are not non-negative integers")
        node = Leaf(counts)
        if str(node.label) != body["label"]:
            raise CorruptModel("leaf label inconsistent with counts")
        return node
    if tag not in ("num", "cat"):
        raise CorruptModel(f"unknown node tag {tag!r}")
    feature = body["feature"]
    if feature not in columns:
        raise CorruptModel(f"node on feature {feature!r} outside the model columns")
    kind = schema.CANONICAL_COLUMNS[feature]
    if (tag == "num") != schema.is_numeric(kind):
        raise CorruptModel(f"{tag!r} node on {kind.value} feature {feature!r}")
    majority = schema.parse_label(body["majority"])
    if tag == "num":
        threshold = body["threshold"]
        if type(threshold) not in (int, float) or not math.isfinite(threshold):
            raise CorruptModel(f"threshold {threshold!r} is not a finite number")
        return NumericNode(
            feature=feature,
            threshold=float(threshold),
            le=_node_from_json(body["le"], columns),
            gt=_node_from_json(body["gt"], columns),
            majority=majority,
        )
    branches = {
        schema.parse_value(feature, key): _node_from_json(child, columns)
        for key, child in body["branches"].items()
    }
    if not branches:
        raise CorruptModel(f"categorical node on {feature!r} has no branches")
    return CategoricalNode(feature=feature, branches=branches, majority=majority)


def load_model(data: bytes) -> TrainedModel:
    """Inverse of save_model; raises CorruptModel for any invalid tree, or UnsupportedVersion."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptModel(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptModel("top-level JSON value is not an object")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise UnsupportedVersion(f"model format version {version!r} not supported")
    try:
        cfg = FeatureConfig(
            title_terms=tuple(doc["feature_config"]["title_terms"]),
            section_keywords=frozenset(doc["feature_config"]["section_keywords"]),
            max_page_number_digits=int(doc["feature_config"]["max_page_number_digits"]),
        )
        columns = tuple(doc["columns"])
        for column in columns:
            if column not in schema.CANONICAL_COLUMNS:
                raise CorruptModel(f"unknown column {column!r}")
        root = _node_from_json(doc["root"], columns)
        summary = doc["summary"]
    except (KeyError, TypeError, ValueError, AttributeError, DataTypeError) as exc:
        raise CorruptModel(f"malformed model document: {exc}") from exc
    return TrainedModel(root=root, columns=columns, training_summary=summary, config_echo=cfg)
