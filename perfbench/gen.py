"""Seeded input generator for the benchmark.

Documents are built as tocdetect ``DocumentModel`` objects and serialized
with ``docmodel.write_document_xml``. Every page is assembled from line
recipes whose effect on the features is known by construction, so each
page carries its *planted* feature values (computed here from the recipe,
never by the program) and its true label. The same workload and seed give
the same bytes.

Run as a script it writes one workload's inputs and ``expect.json`` (the
planted answers) into a directory:

    PYTHONPATH=src python3 perfbench/gen.py --workload predict-book --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from tocdetect import docmodel, features
from tocdetect.docmodel import DocumentModel, Line, Page, Token

# Pages per document and page-shape mixes are fixed per workload, so that a
# new seed changes the content but not the amount of work.
BOOK_PAGES = 1000
LIBRARY_DOCS, LIBRARY_PAGES = 8, 60
TRAIN_ROWS, TEST_ROWS, LOO_ROWS, HELD_OUT_PAGES = 1000, 5000, 60, 500
LABEL_NOISE = 0.15
PREFIX = {"predict-book": 0.3, "train-eval": 1.0, "scan-library": 1.0}

_BODY, _HEAD, _TITLE_FONT = "Serif", "Sans", "Sans"
_KEYWORDS = sorted(features.DEFAULT_SECTION_KEYWORDS)
_SYLLABLES = ("ka", "ro", "mi", "te", "lu", "sen", "dor", "vi", "pa", "nel",
              "qua", "bri", "fo", "gam", "zu", "hel", "tir", "wen", "ob", "ja")
_FORBIDDEN = {w for term in features.DEFAULT_TITLE_TERMS for w in term.split()}
_FORBIDDEN |= features.DEFAULT_SECTION_KEYWORDS


def _vocabulary() -> list[str]:
    words = []
    for a in _SYLLABLES:
        for b in _SYLLABLES:
            for word in (a + b, a + b + a[0]):
                if word not in _FORBIDDEN:
                    words.append(word)
    return words


VOCAB = _vocabulary()


class PageBuilder:
    """Collects token lines plus the per-line facts the features count."""

    def __init__(self):
        self.lines: list[list[Token]] = []
        self.start_num = self.section = self.link = 0
        self.trailing: list[int] = []
        self.title = None  # (line index, style)

    def add(self, tokens, *, start_num=False, trailing=None, section=False, link=False):
        self.lines.append(tokens)
        self.start_num += start_num
        self.section += section
        self.link += link
        if trailing is not None:
            self.trailing.append(trailing)

    def planted(self) -> dict:
        """The ten feature values this page was built to have."""
        total = len(self.lines)
        has_title = self.title is not None
        return {
            "contains_title_term": has_title,
            "title_term_style": self.title[1] if has_title else "NA",
            "title_term_font_class": _TITLE_FONT if has_title else "NA",
            "contextual_term_count": 0,
            "section_term_frequency": self.section / total,
            "title_term_line_position": self.title[0] / total if has_title else 1.0,
            "line_start_number_frequency": self.start_num / total,
            "line_end_number_frequency": len(self.trailing) / total,
            "numbers_ascending": all(a <= b for a, b in zip(self.trailing, self.trailing[1:])),
            "outgoing_link_frequency": self.link / total,
        }

    def page(self, index: int) -> Page:
        return Page(index=index, lines=tuple(
            Line(tokens=tuple(toks), index=i) for i, toks in enumerate(self.lines)))


def _t(text, size=10.0, font=_BODY, **kwargs):
    return Token(text, font_family=font, font_size=size, **kwargs)


def _words(rng, n, size=10.0, font=_BODY):
    return [_t(rng.choice(VOCAB).capitalize() if i == 0 else rng.choice(VOCAB), size, font)
            for i in range(n)]


def _numbered_share(rng, kind, entries, total):
    """Numbered entry lines for a TOC density class ('sparse', 'mid', 'dense').

    The shipped Table 1 tree cuts line_start_number_frequency at 0.035 and
    0.855: sparse and mid pages land between the cuts, dense ones above.
    """
    lo, hi = {"sparse": (0.06, 0.3), "mid": (0.35, 0.8), "dense": (0.9, 1.0)}[kind]
    n = rng.randint(int(lo * total) + 1, int(hi * total))
    return min(entries, n)


def toc_page(rng, kind, style, n_lines=None):
    b = PageBuilder()
    n_lines = n_lines or rng.randint(24, 36)
    title_size = {"LARGEST": 16.0, "MOST_FREQUENT": 10.0, "INTERMEDIATE": 12.0}[style]
    if style != "LARGEST":
        # a running header in a larger size makes the title not the largest
        b.add(_words(rng, 2, size=14.0, font=_HEAD))
    phrase = ["Contents"] if rng.random() < 0.5 else ["Table", "of", "Contents"]
    b.title = (len(b.lines), style)
    b.add([_t(w, title_size, _TITLE_FONT, bold=True) for w in phrase])
    entries = n_lines - len(b.lines)
    numbered = set(rng.sample(range(entries), _numbered_share(rng, kind, entries, n_lines)))
    page_no, chapter = rng.randint(1, 9), 0
    for e in range(entries):
        toks, start = [], e in numbered
        if start:
            chapter += 1
            label = str(chapter) if rng.random() < 0.6 else f"{chapter}.{rng.randint(1, 9)}"
            toks.append(_t(label))
        section = rng.random() < 0.25
        if section:
            toks.append(_t(rng.choice(_KEYWORDS).capitalize()))
        toks += _words(rng, rng.randint(2, 5))
        trailing = None
        if rng.random() < 0.85:
            page_no += rng.randint(1, 20)
            trailing = page_no
            toks.append(_t(str(page_no)))
        b.add(toks, start_num=start, trailing=trailing, section=section)
    return b


def prose_page(rng, n_lines=None):
    b = PageBuilder()
    for _ in range(n_lines or rng.randint(22, 30)):
        toks = _words(rng, rng.randint(4, 7))
        section = rng.random() < 0.05
        if section:
            toks.insert(rng.randint(1, len(toks) - 1), _t(rng.choice(_KEYWORDS)))
        b.add(toks, section=section)
    return b


def index_page(rng, n_lines=None):
    b = PageBuilder()
    b.add([_t("Index", 14.0, _HEAD)], section=True)
    for _ in range((n_lines or rng.randint(30, 40)) - 1):
        refs = [str(rng.randint(1, 999)) for _ in range(rng.randint(1, 3))]
        toks = _words(rng, rng.randint(1, 2))
        toks[-1] = _t(toks[-1].text + ",")
        toks += [_t(r + ",") for r in refs[:-1]] + [_t(refs[-1])]
        b.add(toks, trailing=int(refs[-1]))
    return b


def link_page(rng, n_lines=None):
    b = PageBuilder()
    for i in range(n_lines or rng.randint(20, 30)):
        toks = _words(rng, rng.randint(4, 8))
        link = rng.random() < 0.6
        if link:
            j = rng.randrange(len(toks))
            toks[j] = _t(toks[j].text,
                         link_target=f"https://example.org/r/{i}/{rng.randint(1, 9999)}")
        b.add(toks, link=link)
    return b


_STYLES = ("LARGEST", "MOST_FREQUENT", "INTERMEDIATE")
SHAPES = ("prose", "index", "link", "toc-sparse", "toc-mid", "toc-dense")


def _shape(rng, shape, n_lines=None):
    """A page builder of the given shape and its true label."""
    if shape.startswith("toc-"):
        return toc_page(rng, shape[4:], rng.choice(_STYLES), n_lines), "TOC"
    build = {"prose": prose_page, "index": index_page, "link": link_page}[shape]
    return build(rng, n_lines), "NON-TOC"


def _build(rng, shapes, small=False):
    """(page builder, true label) per shape; small pages have 8-14 lines."""
    return [_shape(rng, shape, rng.randint(8, 14) if small else None) for shape in shapes]


def book_shapes(rng, n=BOOK_PAGES):
    """Front matter with TOC pages on both sides of the 0.855 cut, then body."""
    front = ["prose", "toc-mid", "toc-dense", "toc-sparse", "toc-dense", "prose"]
    body = ["prose"] * (n - len(front) - 40) + ["link"] * 30
    rng.shuffle(body)
    return front + body + ["index"] * 10


def mixed_shapes(rng, n):
    """Fixed shares of prose, TOC of each density, index and link pages, shuffled."""
    per_toc = max(1, n // 20)
    shapes = (["toc-sparse"] * per_toc + ["toc-mid"] * per_toc + ["toc-dense"] * per_toc
              + ["index"] * (n // 6) + ["link"] * (n // 5))
    shapes += ["prose"] * (n - len(shapes))
    rng.shuffle(shapes)
    return shapes


def _even_shapes(rng, n):
    """n page shapes, every shape equally often, in random order."""
    shapes = [SHAPES[i % len(SHAPES)] for i in range(n)]
    rng.shuffle(shapes)
    return shapes


def _extracted(pages, built):
    """(vector, label) per page, the vectors extracted by the program."""
    return [(features.extract_features(page), label) for page, (_, label) in zip(pages, built)]


def _pool(rng, n):
    """(vector, label) pairs of n fresh small pages, every shape equally often."""
    built = _build(rng, _even_shapes(rng, n), small=True)
    return _extracted([builder.page(1) for builder, _ in built], built)


def _noisy_rows(rng, picks, first_id):
    """(page id, vector, label) rows with a share of labels flipped, so that
    the classes overlap and the unpruned tree grows to hundreds of nodes."""
    rows = []
    flipped = set(rng.sample(range(len(picks)), round(LABEL_NOISE * len(picks))))
    for k, (vector, label) in enumerate(picks):
        if k in flipped:
            label = "NON-TOC" if label == "TOC" else "TOC"
        rows.append((first_id + k, vector, label))
    return rows


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the inputs of one workload into ``out``; return the expectations."""
    rng = random.Random(f"{workload}:{seed}")
    expect = {"workload": workload, "seed": seed, "prefix": PREFIX[workload], "docs": []}

    def write_doc(name, built):
        pages = tuple(builder.page(i) for i, (builder, _) in enumerate(built, start=1))
        doc = DocumentModel(id=f"{name}-{seed}", pages=pages)
        path = os.path.join(out, f"{name}.xml")
        with open(path, "wb") as fh:
            fh.write(docmodel.write_document_xml(doc))
        labels = os.path.join(out, f"{name}.labels")
        with open(labels, "w", encoding="utf-8") as fh:
            fh.writelines(f"{i} {label}\n" for i, (_, label) in enumerate(built, start=1))
        expect["docs"].append({
            "id": doc.id, "xml": path, "labels": labels,
            "pages": [{"page": i, "label": label, "planted": builder.planted()}
                      for i, (builder, label) in enumerate(built, start=1)],
        })
        return doc

    if workload == "predict-book":
        write_doc("book", _build(rng, book_shapes(rng)))
    elif workload == "scan-library":
        for d in range(LIBRARY_DOCS):
            write_doc(f"library{d}", _build(rng, mixed_shapes(rng, LIBRARY_PAGES)))
    elif workload == "train-eval":
        # The training rows are extracted from the pages of one written
        # document. Test rows are drawn with replacement from a held-out pool
        # of pages, so 5000 rows cost no more set-up than the pool. Shape
        # shares and the number of flipped labels are fixed, so that the
        # tree's size, and so the learning time, varies little with the seed.
        built = _build(rng, _even_shapes(rng, TRAIN_ROWS), small=True)
        train = _extracted(write_doc("pages", built).pages, built)
        held = _pool(rng, HELD_OUT_PAGES)
        picks = {"train": train, "test": [rng.choice(held) for _ in range(TEST_ROWS)],
                 "loo": _pool(rng, LOO_ROWS)}
        for first, (name, rows) in enumerate(picks.items()):
            path = os.path.join(out, f"{name}.csv")
            with open(path, "wb") as fh:
                fh.write(features.write_feature_csv(_noisy_rows(rng, rows, first * 100000 + 1)))
            expect[name] = path
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return expect


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PREFIX))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    expect = generate(args.workload, args.seed, args.out)
    with open(os.path.join(args.out, "expect.json"), "w", encoding="utf-8") as fh:
        json.dump(expect, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
