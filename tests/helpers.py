"""Shared builders and independent oracles for the test suite."""

import codecs
import csv
import io
import logging
import math
import xml.etree.ElementTree as ET
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

from tocdetect.dataset import Dataset
from tocdetect.docmodel import DocumentModel, Line, Page, Token
from tocdetect.errors import (
    DatasetError,
    EmptyDataset,
    MalformedXml,
    MissingLabelColumn,
    SchemaViolation,
    UnknownColumn,
)
from tocdetect import tree
from tocdetect.pipeline import EvaluationReport
from tocdetect.schema import (
    CANONICAL_COLUMNS,
    ClassLabel,
    Kind,
    format_value,
    is_numeric,
    parse_label,
    parse_number,
    parse_value,
)

log = logging.getLogger("tocdetect.docmodel")  # the reference parser warns where docmodel does

# a column's place in the canonical order: the oracles' explicit tie key after gain, kept
# apart from the order the grower searches columns in
_CANONICAL_POSITION = {name: i for i, name in enumerate(CANONICAL_COLUMNS)}


# "billion laughs": nine levels of ten-fold entity references inside one token
ENTITY_BOMB = (
    '<?xml version="1.0"?><!DOCTYPE document [<!ENTITY l0 "lol">'
    + "".join(f'<!ENTITY l{i} "{f"&l{i - 1};" * 10}">' for i in range(1, 10))
    + ']><document id="d"><page index="1"><line><token>&l9;</token></line></page></document>'
).encode()


def tok(text, **kwargs):
    return Token(text=text, **kwargs)


def line(tokens, index):
    return Line(tokens=tuple(tok(t) if isinstance(t, str) else t for t in tokens), index=index)


def page(line_specs, index=1):
    """line_specs: list of lists; each inner item is a token text or Token."""
    return Page(index=index, lines=tuple(line(spec, i) for i, spec in enumerate(line_specs)))


def doc(pages, doc_id="doc"):
    return DocumentModel(id=doc_id, pages=tuple(pages))


def canonical_toc_page(index=1, with_links=False):
    """10 lines: title, 8 numbered entries with ascending page numbers, 1 blank."""
    entries = [
        ("1.", "Overview", "1"), ("2.", "Methods", "3"), ("3.", "Results", "7"),
        ("4.", "Discussion", "9"), ("5.", "Figures", "12"), ("6.", "Tables", "15"),
        ("7.", "Notes", "21"), ("8.", "Credits", "30"),
    ]
    lines = [[tok("Contents", font_family="Times New Roman", font_size=18.0, bold=True)]]
    for num, title, pageno in entries:
        link = f"page-{pageno}" if with_links else None
        lines.append([
            tok(num, font_size=12.0),
            tok(title, font_size=12.0, link_target=link),
            tok(pageno, font_size=12.0),
        ])
    lines.append([])
    return page(lines, index=index)


def add_left_to_right(terms):
    """The float sum of terms added one at a time, first to last, as the split search adds
    them: builtin sum compensates from Python 3.12 on, so it may round differently."""
    result = 0.0
    for term in terms:
        result += term
    return result


def brute_force_best_split(rows, columns):
    """Independent split enumerator mirroring the documented tie rules.

    rows: sequence of (value dict, label). Enumerates the one multiway
    partition per categorical/boolean column and every midpoint threshold
    per numeric column; returns (feature, threshold_or_None, gain) of the
    best positive-gain candidate, or None. A candidate's groups' weighted
    entropies are added left to right, a categorical column's in serialized
    level order.
    """

    def ent(labels):
        n = len(labels)
        if n == 0:
            return 0.0
        out = 0.0
        for lab in set(labels):
            p = labels.count(lab) / n
            out -= p * math.log2(p)
        return out

    total = len(rows)
    parent = ent([label for _, label in rows])
    candidates = []
    for column in columns:
        kind = CANONICAL_COLUMNS[column]
        if kind in (Kind.INT, Kind.REAL):
            values = sorted({v[column] for v, _ in rows})
            for lo, hi in zip(values, values[1:]):
                t = (lo + hi) / 2
                sides = (
                    [label for v, label in rows if v[column] <= t],
                    [label for v, label in rows if v[column] > t],
                )
                gain = parent - add_left_to_right(len(s) / total * ent(s) for s in sides)
                candidates.append((column, t, gain))
        else:
            groups = {}
            for v, label in rows:
                groups.setdefault(v[column], []).append(label)
            if len(groups) < 2:
                continue
            ordered = [groups[k] for k in sorted(groups, key=lambda k: format_value(column, k))]
            gain = parent - add_left_to_right(len(g) / total * ent(g) for g in ordered)
            candidates.append((column, None, gain))
    positive = [c for c in candidates if c[2] > 0]
    if not positive:
        return None
    return min(
        positive,
        key=lambda c: (-c[2], _CANONICAL_POSITION[c[0]], c[1] if c[1] is not None else -math.inf),
    )


def check_splits_by_brute_force(data, root, max_depth=None, min_rows=1):
    """Check a tree learned from data at every node against brute_force_best_split.

    Partitions data's rows down the tree. At an inner node, (feature, threshold) is the
    oracle's over the node's rows and the columns available there (a categorical split's
    column is not), and the gain recomputed from the node's and its children's counts, summed
    in branch order, is the oracle's within 1e-9. A leaf that could still split (mixed labels,
    at least 2 * min_rows rows, depth below max_depth) has no positive-gain split.
    """

    def ent(counts):
        n = sum(counts)
        return -sum(c / n * math.log2(c / n) for c in counts if c)

    pending = [(root, [(dict(zip(data.columns, values)), label) for values, label in data.rows],
                list(data.columns), 0)]
    while pending:
        node, rows, available, depth = pending.pop()
        n_toc = sum(label is ClassLabel.TOC for _, label in rows)
        assert node.counts == (n_toc, len(rows) - n_toc)
        oracle = brute_force_best_split(rows, available)
        if not node.branches:
            if (0 not in node.counts and len(rows) >= 2 * min_rows
                    and (max_depth is None or depth < max_depth)):
                assert oracle is None, (oracle, rows)
            continue
        feature, threshold = node.feature, node.threshold
        assert oracle is not None and (feature, threshold) == oracle[:2], (oracle, rows)
        gain = ent(node.counts) - sum(sum(child.counts) / len(rows) * ent(child.counts)
                                      for child in node.branches.values())
        assert abs(gain - oracle[2]) <= 1e-9
        if threshold is None:
            available = [c for c in available if c != feature]
        for key, child in node.branches.items():
            group = [(values, label) for values, label in rows
                     if (values[feature] if threshold is None else values[feature] <= threshold)
                     == key]
            pending.append((child, group, available, depth + 1))


def brute_force_title_line(page, cfg):
    """Independent word-window title-line finder.

    Slides every configured phrase, as a word list, over each line's
    lowercased words; longer phrases first per line, equal lengths in
    config order; the best line has the fewest tokens outside the match
    (ties: earliest line). Returns (line position in page.lines,
    contextual_count, matched_phrase) or None; Line.index is not read.
    """
    phrases = sorted((phrase.split() for phrase in cfg.title_terms), key=len, reverse=True)
    best = None
    for position, line in enumerate(page.lines):
        words, owners = [], []  # lowercased words; tokens may hold several words
        for ti, token in enumerate(line.tokens):
            for word in token.text.lower().split():
                words.append(word)
                owners.append(ti)
        for phrase_words in phrases:
            n = len(phrase_words)
            span = next((i for i in range(len(words) - n + 1) if words[i:i + n] == phrase_words),
                        None)
            if span is not None:
                contextual = len(line.tokens) - len(set(owners[span:span + n]))
                if best is None or (contextual, position) < (best[1], best[0]):
                    best = (position, contextual, " ".join(phrase_words))
                break
    return best


def reference_features(page, cfg):
    """Naive whole-vector reference, one README feature at a time, as a column dict.

    Each frequency counts lines meeting its rule and divides by the line count (0.0
    on a page with no lines). Lines are taken by position; Line.index is not read.
    """
    lines = page.lines
    n = len(lines)

    def frequency(rule):
        return sum(1 for ln in lines if rule(ln)) / n if n else 0.0

    def section_number(text):  # 1, 1.2, 1.2. : ASCII digit groups joined by dots
        parts = (text[:-1] if text.endswith(".") else text).split(".")
        return all(part.isascii() and part.isdigit() for part in parts)

    def page_number(ln):  # value of a trailing 1..max-digit ASCII number, or None
        text = ln.tokens[-1].text if ln.tokens else ""
        short = 1 <= len(text) <= cfg.max_page_number_digits
        return int(text) if short and text.isascii() and text.isdigit() else None

    title = brute_force_title_line(page, cfg)
    sizes = [t.font_size for ln in lines for t in ln.tokens]
    if title is None:
        style, font, contextual, position = "NA", "NA", 0, 1.0
    else:
        title_line = lines[title[0]]
        title_size = max(t.font_size for t in title_line.tokens)
        mode = max(set(sizes), key=lambda size: (sizes.count(size), size))
        style = ("LARGEST" if title_size == max(sizes)
                 else "MOST_FREQUENT" if title_size == mode else "INTERMEDIATE")
        font, contextual, position = title_line.tokens[0].font_family, title[1], title[0] / n
    numbers = [page_number(ln) for ln in lines if page_number(ln) is not None]
    return {
        "contains_title_term": title is not None,
        "title_term_style": style,
        "title_term_font_class": font,
        "contextual_term_count": contextual,
        "section_term_frequency": frequency(
            lambda ln: any(t.text.lower() in cfg.section_keywords for t in ln.tokens)),
        "title_term_line_position": position,
        "line_start_number_frequency": frequency(
            lambda ln: bool(ln.tokens) and section_number(ln.tokens[0].text)),
        "line_end_number_frequency": frequency(lambda ln: page_number(ln) is not None),
        "numbers_ascending": numbers == sorted(numbers),
        "outgoing_link_frequency": frequency(
            lambda ln: any(t.link_target is not None for t in ln.tokens)),
    }


def route_json_tree(node, vector):
    """Independent walker over a saved model's JSON root node.

    Returns (label string, (n_TOC, n_NON_TOC)). A categorical value that no branch
    names, once normalized, ends the walk at that node: its majority label and the
    counts summed over its leaves.
    """
    (tag, body), = node.items()
    if tag == "leaf":
        return body["label"], _json_leaf_counts(node)
    if tag == "num":
        branch = body["le"] if vector[body["feature"]] <= body["threshold"] else body["gt"]
        return route_json_tree(branch, vector)
    assert tag == "cat"
    child = body["branches"].get(format_value(body["feature"], vector[body["feature"]]))
    if child is not None:
        return route_json_tree(child, vector)
    return body["majority"], _json_leaf_counts(node)


def _json_leaf_counts(node):
    (tag, body), = node.items()
    if tag == "leaf":
        return body["counts"]["TOC"], body["counts"]["NON-TOC"]
    children = (body["le"], body["gt"]) if tag == "num" else body["branches"].values()
    summed = [_json_leaf_counts(child) for child in children]
    return sum(toc for toc, _ in summed), sum(non for _, non in summed)


def _parse_bool(raw: str, path: str, attr: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise SchemaViolation(f"attribute {attr}={raw!r} is not true/false", path)


_TOKEN_ATTRS = {"font", "size", "bold", "italic", "link"}


def _parse_token(elem: ET.Element, path: str) -> Token:
    if len(elem):  # elem.text stops at the first child, so the text after it would be lost
        raise SchemaViolation(f"unexpected element <{elem[0].tag}>", path)
    for attr in elem.attrib:
        if attr not in _TOKEN_ATTRS:
            log.warning("%s: ignoring unknown attribute %r", path, attr)
    text = (elem.text or "").strip()
    if not text:
        raise SchemaViolation("token has empty text", path)
    raw_size = elem.get("size", "0.0")
    try:
        size = parse_number(raw_size, float)
    except ValueError:
        raise SchemaViolation(f"size={raw_size!r} is not a decimal", path)
    if not (math.isfinite(size) and size >= 0.0):
        raise SchemaViolation(f"size={raw_size!r} is not a finite, non-negative decimal", path)
    font = elem.get("font", "")  # blank counts as absent, so no feature gets an empty level
    return Token(
        text=text,
        font_family=font if font.strip() else "unknown",
        font_size=size,
        bold=_parse_bool(elem.get("bold", "false"), path, "bold"),
        italic=_parse_bool(elem.get("italic", "false"), path, "italic"),
        link_target=elem.get("link"),
    )


def reference_parse_document(xml_bytes: bytes) -> DocumentModel:
    """The ElementTree parser that docmodel.parse_document replaced, kept as its reference.

    Parses the whole input with ElementTree, then walks the tree into the model;
    raises MalformedXml / SchemaViolation and logs warnings as the walk meets them.
    """
    if xml_bytes.startswith(codecs.BOM_UTF8):
        xml_bytes = xml_bytes[len(codecs.BOM_UTF8):]
    try:
        root = ET.fromstring(xml_bytes)
    except (ET.ParseError, LookupError, ValueError) as exc:  # the last two: unusable encoding="..."
        raise MalformedXml(str(exc)) from exc

    if root.tag != "document":
        raise SchemaViolation(f"root element is <{root.tag}>, expected <document>", root.tag)
    doc_id = root.get("id")
    if doc_id is None:
        raise SchemaViolation("missing id attribute", "document")

    pages = []
    prev_index = 0
    for p, page_elem in enumerate(root):
        path = f"document/page[{p + 1}]"
        if page_elem.tag != "page":
            raise SchemaViolation(f"unexpected element <{page_elem.tag}>", path)
        raw_index = page_elem.get("index")
        if raw_index is None:
            raise SchemaViolation("missing index attribute", path)
        try:
            index = parse_number(raw_index)
        except ValueError:
            raise SchemaViolation(f"index={raw_index!r} is not an integer", path)
        if index <= prev_index:
            raise SchemaViolation(
                f"page index {index} not strictly greater than {prev_index}", path
            )
        prev_index = index

        lines = []
        for l, line_elem in enumerate(page_elem):
            line_path = f"{path}/line[{l + 1}]"
            if line_elem.tag != "line":
                raise SchemaViolation(f"unexpected element <{line_elem.tag}>", line_path)
            tokens = []
            for t, tok_elem in enumerate(line_elem):
                if tok_elem.tag != "token":
                    log.warning("%s: ignoring unknown element <%s>", line_path, tok_elem.tag)
                    continue
                tokens.append(_parse_token(tok_elem, f"{line_path}/token[{t + 1}]"))
            lines.append(Line(tokens=tuple(tokens), index=len(lines)))
        pages.append(Page(index=index, lines=tuple(lines)))

    if not pages:
        raise SchemaViolation("document has no pages", "document")
    return DocumentModel(id=doc_id, pages=tuple(pages))


def reference_load_csv(data: bytes) -> Dataset:
    """dataset.load_csv as it was before it checked each distinct cell once, kept as its
    reference: every cell is parsed, then the public Dataset constructor checks every value."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"CSV is not UTF-8: {exc}") from exc
    reader = _csv_records(text)
    header = next(reader, None)
    if header is None:
        raise EmptyDataset("no header row")
    header = [cell.strip() for cell in header]
    if not header or header[-1] != "label":
        raise MissingLabelColumn("last column must be 'label'")
    feature_cols = header[:-1]
    if feature_cols and feature_cols[0] == "page":
        skip_page = True
        feature_cols = feature_cols[1:]
    else:
        skip_page = False
    Dataset(columns=tuple(feature_cols), rows=())  # column rules, before parse_value looks them up

    rows = []
    for r, cells in enumerate(filter(None, reader), start=1):
        if len(cells) != len(header):
            raise UnknownColumn(f"row {r} has {len(cells)} cells for {len(header)} columns")
        if skip_page:
            cells = cells[1:]
        values = tuple(
            parse_value(name, cell, row=r) for name, cell in zip(feature_cols, cells[:-1]))
        rows.append((values, parse_label(cells[-1], row=r)))
    if not rows:
        raise EmptyDataset("CSV contains a header but no data rows")
    return Dataset(columns=tuple(feature_cols), rows=tuple(rows))


def _csv_records(text: str):
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetError(f"CSV line {reader.line_num}: {exc}") from exc


# -- the row-dict grower that tree._build and tree._search replaced, kept as their reference --

def _count(rows):
    n_toc = sum(label is ClassLabel.TOC for _, label in rows)
    return (n_toc, len(rows) - n_toc)


def _reference_groups(rows, column, threshold):
    if threshold is not None:
        return {True: [r for r in rows if r[0][column] <= threshold],
                False: [r for r in rows if r[0][column] > threshold]}
    groups = {}
    for values, label in rows:
        groups.setdefault(values[column], []).append((values, label))
    return {v: groups[v] for v in sorted(groups, key=lambda v: format_value(column, v))}


def _reference_candidates(rows, column):
    if not is_numeric(CANONICAL_COLUMNS[column]):
        groups = _reference_groups(rows, column, None)
        if len(groups) > 1:
            yield None, [_count(g) for g in groups.values()]
        return
    ordered = sorted(rows, key=lambda r: r[0][column])
    keys = [values[column] for values, _ in ordered]
    tocs = list(accumulate((label is ClassLabel.TOC for _, label in ordered), initial=0))
    distinct = sorted(set(keys))
    for lo, hi in zip(distinct, distinct[1:]):
        t = (lo + hi) / 2
        n_le = bisect_right(keys, t)  # rows <= t, which include hi when t rounds up to it
        gt_toc = tocs[-1] - tocs[n_le]
        yield t, [(tocs[n_le], n_le - tocs[n_le]), (gt_toc, len(keys) - n_le - gt_toc)]


def reference_best_split(rows, columns):
    """tree._search as a loop over every candidate of rows of (value dict, label): (feature,
    threshold) of the highest-gain split, or None. Parts' weighted entropies add left to right."""
    total = len(rows)
    parent = tree.entropy(_count(rows))
    best = None
    best_key = None
    for column in columns:
        for t, parts in _reference_candidates(rows, column):
            gain = parent - add_left_to_right(sum(c) / total * tree.entropy(c) for c in parts)
            key = (-gain, _CANONICAL_POSITION[column], -math.inf if t is None else t)
            if gain > 0 and (best_key is None or key < best_key):
                best, best_key = (column, t), key
    return best


def _reference_build(rows, available, depth, max_depth, min_rows, only=None):
    if depth > tree.MAX_TREE_DEPTH:
        raise DatasetError(f"tree deeper than {tree.MAX_TREE_DEPTH} levels; "
                           "limit it with max_depth")
    counts = _count(rows)
    if 0 in counts or len(rows) < 2 * min_rows or (max_depth is not None and depth >= max_depth):
        return tree.Node(counts)
    split = reference_best_split(rows, available)
    if split is None:
        return tree.Node(counts)
    feature, threshold = split
    if threshold is None:
        available = [c for c in available if c != feature]
    groups = _reference_groups(rows, feature, threshold)
    if only is not None:
        value = only[feature]
        key = value if threshold is None else value <= threshold
        groups = {key: groups[key]} if key in groups else {}
    branches = {key: _reference_build(group, available, depth + 1, max_depth, min_rows, only)
                for key, group in groups.items()}
    return tree.Node(counts, feature, threshold, branches)


def reference_learn(data, max_depth=None, min_rows=1):
    """The root tree.learn grows, from row dicts, as before the grower took column lists."""
    rows = [(dict(zip(data.columns, values)), label) for values, label in data.rows]
    return _reference_build(rows, list(data.columns), 0, max_depth, min_rows)


def reference_leave_one_out(data, max_depth=None, min_rows=1):
    """pipeline.leave_one_out on row dicts: each fold grows the held-out row's path only."""
    rows = [(dict(zip(data.columns, values)), gold) for values, gold in data.rows]
    tally = Counter(
        (gold, tree._walk(_reference_build(rows[:i] + rows[i + 1:], data.columns, 0, max_depth,
                                           min_rows, vector), vector)[0])
        for i, (vector, gold) in enumerate(rows))
    toc, non = ClassLabel.TOC, ClassLabel.NON_TOC
    return EvaluationReport(tp=tally[toc, toc], fp=tally[non, toc], fn=tally[toc, non],
                            tn=tally[non, non])
