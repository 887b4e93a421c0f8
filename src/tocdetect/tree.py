"""Decision tree induction over mixed categorical/boolean/numeric features.

Splits are chosen by information gain (Shannon entropy, base 2).
Categorical and boolean columns split multiway by value; numeric columns
split binary at midpoints between consecutive distinct values. Everything
is deterministic: among equal gains the search keeps the first it meets, in
canonical column order, then ascending threshold; leaf-label ties resolve to
TOC. No pruning.

Every node is one Node: its counts and, for a split, its feature, threshold
(None for a categorical split) and branches, key -> child. A leaf has no
branches. A numeric split's keys are True (value <= threshold) and False; a
categorical split's keys are its normalized values, in serialized value order.

One grower (_build) makes every tree. learn grows every node; leave-one-out
tells it which row is held out, so it grows only that row's path and returns
the node where the path ends: its label is all a fold needs. A node deeper
than MAX_TREE_DEPTH is a DatasetError in either, so leave-one-out fails only
where a held-out row's path passes it.

The grower works column-wise, as SLIQ does: a _Table holds each column's
checked values as one list, a node is its rows' positions (so leave-one-out's
folds share one table), and _search finds a node's split from those lists.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from typing import Mapping, Optional, Sequence

from . import schema
from .errors import (
    CorruptModel,
    DatasetError,
    EmptyDataset,
    MissingFeature,
    UnsupportedVersion,
)
from .dataset import Dataset
from .features import DEFAULT_CONFIG, FeatureConfig
from .record import Frozen
from .schema import ClassLabel

Counts = tuple[int, int]  # (n_TOC, n_NON_TOC)

#: Deepest tree learn returns. Building, saving, loading and rendering each recurse one to
#: two frames per level, so this keeps them within half of Python's default recursion limit
#: (1000). Node equality is a loop, so it compares trees of any depth.
MAX_TREE_DEPTH = 256


class Node(Frozen):
    _fields = ("counts", "feature", "threshold", "branches")

    def __init__(self, counts: Counts,  # class counts of the training rows that reached it
                 feature: Optional[str] = None,
                 threshold: Optional[float] = None,  # None for a leaf or a categorical split
                 branches: Optional[dict] = None):  # key -> Node; empty (the default) for a leaf
        self._set(counts, feature, threshold, {} if branches is None else branches)

    @property
    def label(self) -> ClassLabel:
        # tie -> TOC
        return ClassLabel.TOC if self.counts[0] >= self.counts[1] else ClassLabel.NON_TOC

    def __eq__(self, other):
        # a loop: comparing the fields would recurse through branches and overflow on deep trees
        if not isinstance(other, Node):
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if ((a.counts, a.feature, a.threshold) != (b.counts, b.feature, b.threshold)
                    or a.branches.keys() != b.branches.keys()):
                return False
            pending.extend((child, b.branches[key]) for key, child in a.branches.items())
        return True


class TrainedModel(Frozen):
    _fields = ("root", "columns", "config_echo")

    def __init__(self, root: Node, columns: tuple[str, ...],
                 config_echo: FeatureConfig = DEFAULT_CONFIG):
        self._set(root, columns, config_echo)


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


class _Entropies(dict):
    """(TOC rows, rows) of a group -> entropy of its class counts, each computed once."""

    def __missing__(self, key):
        toc, n = key
        value = self[key] = entropy((toc, n - toc))
        return value


class _Table:
    """A Dataset's rows as a tree grows from them: column -> checked value of each row, by
    position, in canonical column order, and whether each row is TOC, with the limits every
    node of the tree obeys. Nodes hold row positions, so leave-one-out's folds share one table."""

    def __init__(self, data: Dataset, max_depth: int | None, min_rows: int):
        if min_rows < 1:
            raise ValueError("min_rows must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth, self.min_rows = max_depth or math.inf, min_rows  # None: no depth limit
        values = zip(*(values for values, _ in data.rows))
        columns = {column: list(next(values, ())) for column in data.columns}
        self.columns = {c: columns[c] for c in schema.CANONICAL_COLUMNS if c in columns}
        self.is_toc = [label is ClassLabel.TOC for _, label in data.rows]
        self.entropies = _Entropies()


def _search(table, rows, toc, columns) -> Optional[tuple[str, Optional[float]]]:
    """(feature, threshold) of the highest-gain split over columns of the table's rows at
    positions rows, of which those at toc are TOC; threshold None for a categorical split, and
    None if no gain > 0. A candidate replaces the best only with a strictly higher gain, so
    among equal gains the first one searched wins: columns are searched in the order given
    (canonical, as the table holds them), and a numeric column's cuts in ascending order.

    A categorical column's one candidate counts its levels' rows and TOC rows with two
    Counters and adds the groups' weighted entropies left to right in sorted order: checked
    values sort as they serialize (NO before YES, and a level is its own CSV text), and a plain
    loop adds floats alike on every Python, where builtin sum compensates from 3.12 on. A
    numeric column's cuts are the midpoints (lo + hi) / 2 of its sorted distinct values; one
    loop bisects the node's sorted values, and its TOC rows', at each cut to count the rows
    <= it (hi's too, where a cut rounds up to hi), and scores it parent - (le + gt), each side
    (n / total) * entropy. Entropies are memoized by count pair.
    """
    total, n_toc = len(rows), len(toc)
    parent = entropy((n_toc, total - n_toc))
    entropies = table.entropies
    best, best_gain = None, 0.0
    for column in columns:
        value_of = table.columns[column].__getitem__
        if not schema.is_numeric(schema.CANONICAL_COLUMNS[column]):
            counts = Counter(map(value_of, rows))  # in first-seen row order
            if len(counts) < 2:
                continue
            tocs = Counter(map(value_of, toc))
            weighted = 0.0
            for v in sorted(counts):  # a fixed order, so row permutations cannot perturb it
                weighted += counts[v] / total * entropies[tocs[v], counts[v]]
            gain = parent - weighted
            if gain > best_gain:
                best, best_gain = (column, None), gain
            continue
        values = sorted(map(value_of, rows))
        distinct = sorted(set(values))  # 1 and 1.0 are one value
        if len(distinct) < 2:
            continue
        toc_values = sorted(map(value_of, toc))
        for lo, hi in zip(distinct, distinct[1:]):
            cut = (lo + hi) / 2
            le = bisect_right(values, cut)
            le_toc = bisect_right(toc_values, cut)
            gain = parent - (le / total * entropies[le_toc, le]
                             + (total - le) / total * entropies[n_toc - le_toc, total - le])
            if gain > best_gain:
                best, best_gain = (column, cut), gain
    return best


def _groups(table, rows, column, threshold):
    """How a split divides rows (positions), as its branch key -> positions: {True: value <=
    threshold, False: value > threshold}, or for a categorical split (threshold None) value ->
    positions in sorted value order, the order _search summed them in."""
    values = table.columns[column]
    if threshold is not None:
        return {True: [i for i in rows if values[i] <= threshold],
                False: [i for i in rows if values[i] > threshold]}
    groups = {}
    for i in rows:
        groups.setdefault(values[i], []).append(i)
    return {v: groups[v] for v in sorted(groups)}


def _build(table, rows, available, depth, only=None) -> Node:
    """The subtree learn grows from the table's rows at positions rows, at depth, within the
    table's limits. Given only, the position of a row outside rows, it grows just that row's
    path and returns, as a leaf of its counts, the node where _walk would stop: a leaf, or a
    split with no branch for it.

    Each node's split is _search's over the available columns, on the node's positions into
    the table's column lists; a categorical split's column is not searched again below it.
    Raises DatasetError at a node deeper than MAX_TREE_DEPTH, leaf or not."""
    if depth > MAX_TREE_DEPTH:
        raise DatasetError(f"tree deeper than {MAX_TREE_DEPTH} levels; limit it with max_depth")
    toc = list(filter(table.is_toc.__getitem__, rows))
    counts = (len(toc), len(rows) - len(toc))
    if 0 in counts or len(rows) < 2 * table.min_rows or depth >= table.max_depth:
        return Node(counts)
    split = _search(table, rows, toc, available)
    if split is None:
        return Node(counts)
    feature, threshold = split
    if threshold is None:  # every row below a categorical split shares its value
        available = [c for c in available if c != feature]
    groups = _groups(table, rows, feature, threshold)
    if only is not None:
        value = table.columns[feature][only]
        key = value if threshold is None else value <= threshold
        if key not in groups:
            return Node(counts)
        return _build(table, groups[key], available, depth + 1, only)
    branches = {key: _build(table, group, available, depth + 1)
                for key, group in groups.items()}
    return Node(counts, feature, threshold, branches)


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
    table = _Table(data, max_depth, min_rows)
    root = _build(table, list(range(len(data.rows))), list(table.columns), 0)
    config = config or DEFAULT_CONFIG
    return TrainedModel(root=root, columns=tuple(data.columns), config_echo=config)


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
    return _walk(model.root, values)


def _walk(node: Node, values: Mapping) -> tuple[ClassLabel, Counts]:
    """classify() on values already checked: column -> value as check_value returns it."""
    while node.branches:
        value = values[node.feature]
        key = value if node.threshold is None else value <= node.threshold
        if key not in node.branches:
            break
        node = node.branches[key]
    return node.label, node.counts


def _render_text(node: Node, indent: str, prefix: str, out: list):
    if not node.branches:
        out.append(f"{indent}{prefix}→ {node.label} ({node.counts[0]}/{node.counts[1]})")
        return
    test = "" if node.threshold is None else f" <= {node.threshold!r}"
    out.append(f"{indent}{prefix}{node.feature}{test}?")
    for key, child in node.branches.items():
        if node.threshold is None:
            tag = f"= {schema.format_value(node.feature, key)}: "
        else:
            tag = "yes: " if key else "no: "
        _render_text(child, indent + "    ", tag, out)


def export_text(model: TrainedModel) -> str:
    """Indented if/else rendering: one condition per line, counts at leaves."""
    out: list = []
    _render_text(model.root, "", "", out)
    return "\n".join(out) + "\n"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_dot(node: Node, counter: list, out: list) -> str:
    node_id = f"n{counter[0]}"
    counter[0] += 1
    if not node.branches:
        label = f"{node.label} ({node.counts[0]}/{node.counts[1]})"
        out.append(f"  {node_id} [label={_dot_quote(label)}];")
        return node_id
    out.append(f"  {node_id} [label={_dot_quote(node.feature)}, shape=box];")
    for key, child in node.branches.items():
        if node.threshold is None:
            condition = f"= {schema.format_value(node.feature, key)}"
        else:
            condition = f"{'<=' if key else '>'} {node.threshold!r}"
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


def _node_to_json(node: Node):
    if not node.branches:
        return {"leaf": {"label": str(node.label), "counts": _counts_json(node.counts)}}
    if node.threshold is not None:
        return {
            "num": {
                "feature": node.feature,
                "threshold": node.threshold,
                "le": _node_to_json(node.branches[True]),
                "gt": _node_to_json(node.branches[False]),
                "majority": str(node.label),
            }
        }
    return {
        "cat": {
            "feature": node.feature,
            "branches": {
                schema.format_value(node.feature, key): _node_to_json(child)
                for key, child in node.branches.items()
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


def _node_from_json(obj, columns) -> Node:
    (tag, body), = obj.items()
    if tag == "leaf":
        counts = (body["counts"]["TOC"], body["counts"]["NON-TOC"])
        if not all(type(c) is int and c >= 0 for c in counts):
            raise CorruptModel(f"leaf counts {counts!r} are not non-negative integers")
        return Node(counts)
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
        branches = {True: _node_from_json(body["le"], columns),
                    False: _node_from_json(body["gt"], columns)}
    else:
        threshold = None
        branches = {
            schema.check_value(feature, schema.parse_value(feature, key)):
                _node_from_json(child, columns)
            for key, child in body["branches"].items()
        }
    children = branches.values()
    counts = (sum(c.counts[0] for c in children), sum(c.counts[1] for c in children))
    return Node(counts, feature, threshold, branches)


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
