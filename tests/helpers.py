"""Shared builders and independent oracles for the test suite."""

import math

from tocdetect.docmodel import DocumentModel, Line, Page, Token
from tocdetect.schema import CANONICAL_COLUMNS, Kind, canonical_index, format_value


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


def brute_force_best_split(rows, columns):
    """Independent split enumerator mirroring the documented tie rules.

    rows: sequence of (value dict, label). Enumerates the one multiway
    partition per categorical/boolean column and every midpoint threshold
    per numeric column; returns (feature, threshold_or_None, gain) of the
    best positive-gain candidate, or None.
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
                gain = parent - sum(len(s) / total * ent(s) for s in sides)
                candidates.append((column, t, gain))
        else:
            groups = {}
            for v, label in rows:
                groups.setdefault(v[column], []).append(label)
            if len(groups) < 2:
                continue
            ordered = [groups[k] for k in sorted(groups, key=lambda k: format_value(column, k))]
            gain = parent - sum(len(g) / total * ent(g) for g in ordered)
            candidates.append((column, None, gain))
    positive = [c for c in candidates if c[2] > 0]
    if not positive:
        return None
    return min(
        positive,
        key=lambda c: (-c[2], canonical_index(c[0]), c[1] if c[1] is not None else -math.inf),
    )


def brute_force_title_line(page, cfg):
    """Independent word-window title-line finder.

    Slides every configured phrase, as a word list, over each line's
    lowercased words; longer phrases first per line, equal lengths in
    config order; the best line has the fewest tokens outside the match
    (ties: earliest line). Returns (line_index, contextual_count,
    matched_phrase) or None.
    """
    phrases = sorted((phrase.split() for phrase in cfg.title_terms), key=len, reverse=True)
    best = None
    for line in page.lines:
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
                if best is None or (contextual, line.index) < (best[1], best[0]):
                    best = (line.index, contextual, " ".join(phrase_words))
                break
    return best


def route_json_tree(node, vector):
    """Independent walker over a saved model's JSON root node.

    Returns the predicted label string, honoring the majority fallback for
    unseen categorical values.
    """
    from tocdetect.schema import parse_value

    (tag, body), = node.items()
    if tag == "leaf":
        return body["label"]
    if tag == "num":
        branch = body["le"] if vector[body["feature"]] <= body["threshold"] else body["gt"]
        return route_json_tree(branch, vector)
    assert tag == "cat"
    for key, child in body["branches"].items():
        if parse_value(body["feature"], key) == vector[body["feature"]]:
            return route_json_tree(child, vector)
    return body["majority"]
