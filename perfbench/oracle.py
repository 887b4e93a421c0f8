"""Independent answers for every benchmark operation.

Nothing here calls tocdetect: answers come from the generator's planted
feature values, from the saved model JSON walked by this module's own
tree walker, and from the input CSVs read with the ``csv`` module. Each
``check_*`` function returns ``None`` when the output is right, else a
one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

FREQUENCY_COLUMNS = (
    "section_term_frequency",
    "line_start_number_frequency",
    "line_end_number_frequency",
    "outgoing_link_frequency",
)


def checked(check, *args) -> str | None:
    """Run a check; output it cannot read (bad JSON or CSV) is a wrong answer too."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _cell(value) -> str:
    """A feature value as the model file writes branch keys."""
    if isinstance(value, bool):
        return "YES" if value else "NO"
    return "_".join(value.upper().replace("-", "_").split())


def _children(tag, body):
    return (body["le"], body["gt"]) if tag == "num" else tuple(body["branches"].values())


def _leaf_counts(node) -> tuple[int, int]:
    (tag, body), = node.items()
    if tag == "leaf":
        return body["counts"]["TOC"], body["counts"]["NON-TOC"]
    toc = non = 0
    for child in _children(tag, body):
        t, n = _leaf_counts(child)
        toc, non = toc + t, non + n
    return toc, non


def walk(root: dict, values: dict) -> tuple[str, tuple[int, int]]:
    """Route planted feature values through a model-file tree.

    Returns (label, leaf counts). A categorical value with no branch takes
    the node's majority label and the counts summed over its subtree.
    """
    node = root
    while True:
        (tag, body), = node.items()
        if tag == "leaf":
            return body["label"], (body["counts"]["TOC"], body["counts"]["NON-TOC"])
        if tag == "num":
            node = body["le"] if values[body["feature"]] <= body["threshold"] else body["gt"]
            continue
        child = body["branches"].get(_cell(values[body["feature"]]))
        if child is None:
            return body["majority"], _leaf_counts(node)
        node = child


def count_nodes(root: dict) -> int:
    (tag, body), = root.items()
    if tag == "leaf":
        return 1
    return 1 + sum(count_nodes(child) for child in _children(tag, body))


def expected_detection(doc: dict, model_root: dict, prefix: float) -> dict:
    """The JSON ``predict`` (and ``detect(...).to_json_dict()``) must produce."""
    pages = doc["pages"]
    scanned = pages[: max(1, math.ceil(Fraction(str(prefix)) * len(pages)))]
    toc = []
    for page in scanned:
        label, (t, n) = walk(model_root, page["planted"])
        if label == "TOC":
            toc.append({"page": page["page"], "counts": {"TOC": t, "NON-TOC": n}})
    return {
        "document_id": doc["id"],
        "prefix_fraction": prefix,
        "scanned_pages": [page["page"] for page in scanned],
        "toc_pages": toc,
    }


def check_detection(output: bytes | dict, expected: dict) -> str | None:
    if isinstance(output, bytes):
        output = json.loads(output)
    if output == expected:
        return None
    keys = ([k for k in expected if output.get(k) != expected[k]]
            or sorted(set(output) - set(expected)))
    return f"{expected['document_id']}: {', '.join(keys)} differ from the planted answer"


def check_extract(output: bytes, doc: dict) -> str | None:
    """Page ids, labels, title presence and style, and the frequency columns."""
    rows = list(csv.DictReader(io.StringIO(output.decode("utf-8"))))
    if len(rows) != len(doc["pages"]):
        return f"{doc['id']}: {len(rows)} rows for {len(doc['pages'])} pages"
    for row, page in zip(rows, doc["pages"]):
        planted = page["planted"]
        where = f"{doc['id']} page {page['page']}"
        if row.get("page") != str(page["page"]):
            return f"{where}: page id {row.get('page')!r}"
        if row.get("label") != page["label"]:
            return f"{where}: label {row.get('label')!r}, expected {page['label']}"
        if row["contains_title_term"] != _cell(planted["contains_title_term"]):
            return f"{where}: contains_title_term {row['contains_title_term']}"
        if row["title_term_style"] != planted["title_term_style"]:
            return f"{where}: title_term_style {row['title_term_style']}"
        for column in FREQUENCY_COLUMNS:
            if float(row[column]) != planted[column]:
                return f"{where}: {column} {row[column]}, planted {planted[column]!r}"
    return None


def csv_label_counts(data: bytes) -> tuple[int, int]:
    """(TOC rows, NON-TOC rows) of a labeled CSV."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    toc = sum(row[-1] == "TOC" for row in rows if row)
    return toc, sum(1 for row in rows if row) - toc


def check_model(output: bytes, train_csv: bytes) -> str | None:
    """Summary row and label counts, and leaf counts summing to the rows."""
    model = json.loads(output)
    toc, non = csv_label_counts(train_csv)
    summary = model.get("summary", {})
    if summary.get("rows") != toc + non:
        return f"model summary rows {summary.get('rows')}, CSV has {toc + non}"
    if summary.get("labels") != {"TOC": toc, "NON-TOC": non}:
        return f"model summary labels {summary.get('labels')}, CSV has {toc}/{non}"
    if _leaf_counts(model["root"]) != (toc, non):
        return f"leaf counts {_leaf_counts(model['root'])} do not add up to {toc}/{non}"
    return None


def check_report(output: bytes | dict, data_csv: bytes) -> str | None:
    """Confusion-matrix totals of an ``eval`` report against the CSV's labels."""
    if isinstance(output, bytes):
        output = json.loads(output)
    c = output.get("confusion", {})
    toc, non = csv_label_counts(data_csv)
    if (c.get("tp", 0) + c.get("fn", 0), c.get("fp", 0) + c.get("tn", 0)) != (toc, non):
        return f"confusion {c} does not match {toc} TOC / {non} NON-TOC rows"
    return None
