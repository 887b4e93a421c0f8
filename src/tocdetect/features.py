"""Per-page feature extraction.

Ten features per page: title-term presence/style/font/context/position,
section-keyword and line-number frequencies, ascending-page-number check,
and outgoing-link frequency. Frequencies and the title line's position
(from 0) are divided by the page's total line count (empty lines
included). A line is taken by its position in `page.lines`, not `Line.index`.

A page is read as flat columns, not line by line: its tokens in reading
order, one list, and beside it each line's running token-count end, so
token i lies on line `bisect_right(ends, i)`. Keyword and link lines are
counted from per-token flags made by C-level `map` passes: each flagged
position is mapped to its line, and the distinct lines are counted.
Section and page numbers are read from the lists of each non-empty
line's first and last token texts. The title search runs only where a
configured phrase's first word occurs in the lowercased text, of the
page and then of the line; `_title_line` says why that skips no match.
The title style reads the same tokens; `dataset` writes feature CSVs.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, chain, compress, count, repeat
from operator import attrgetter, is_not, itemgetter, le
from typing import TYPE_CHECKING

from . import schema
from .dataset import _write_csv_rows
from .errors import MixedLabeling
from .record import Frozen
from .schema import ClassLabel

if TYPE_CHECKING:  # a feature CSV is read without the XML parser
    from .docmodel import Page

DEFAULT_TITLE_TERMS = (
    "table of contents",
    "table of content",
    "contents",
    "content",
)
DEFAULT_SECTION_KEYWORDS = frozenset(
    {"chapter", "section", "part", "appendix", "preface",
     "introduction", "bibliography", "index"}
)

_SECTION_NUMBER_RE = re.compile(r"\d+(\.\d+)*\.?$", re.ASCII)  # 1, 1.2, 1.2. and so on
_TOKENS, _TEXT, _LINK = attrgetter("tokens"), attrgetter("text"), attrgetter("link_target")


class FeatureConfig(Frozen):
    _fields = ("title_terms", "section_keywords", "max_page_number_digits")

    def __init__(self, title_terms: tuple[str, ...] = DEFAULT_TITLE_TERMS,
                 section_keywords: frozenset[str] = DEFAULT_SECTION_KEYWORDS,
                 max_page_number_digits: int = 4):
        # model files pass their JSON values straight in, so types are checked too
        if not isinstance(title_terms, (list, tuple)):
            raise ValueError(f"title_terms must be a list, got {title_terms!r}")
        if not title_terms:
            raise ValueError("title_terms has no terms")
        if not isinstance(section_keywords, (list, tuple, set, frozenset)):
            raise ValueError(f"section_keywords must be a collection, got {section_keywords!r}")
        for item in (*title_terms, *section_keywords):
            if not isinstance(item, str) or not item.strip():
                raise ValueError(f"title term or section keyword {item!r} must be a non-blank str")
        if type(max_page_number_digits) is not int or max_page_number_digits < 1:
            raise ValueError(
                f"max_page_number_digits must be an int >= 1, got {max_page_number_digits!r}")
        # stored in the form extraction compares: lowercased words, and lowercased whole tokens
        self._set(tuple(" ".join(term.lower().split()) for term in title_terms),
                  frozenset(keyword.strip().lower() for keyword in section_keywords),
                  max_page_number_digits)


DEFAULT_CONFIG = FeatureConfig()  # immutable, so every call without a config shares it


class FeatureVector(Frozen):
    """The ten feature values of a page; its fields are the canonical columns, in order."""
    _fields = tuple(schema.CANONICAL_COLUMNS)

    def __init__(self, contains_title_term: bool,
                 title_term_style: str,  # LARGEST | INTERMEDIATE | MOST_FREQUENT | NA
                 title_term_font_class: str, contextual_term_count: int,
                 section_term_frequency: float, title_term_line_position: float,
                 line_start_number_frequency: float, line_end_number_frequency: float,
                 numbers_ascending: bool, outgoing_link_frequency: float):
        self._set(contains_title_term, title_term_style, title_term_font_class,
                  contextual_term_count, section_term_frequency, title_term_line_position,
                  line_start_number_frequency, line_end_number_frequency, numbers_ascending,
                  outgoing_link_frequency)

    def as_dict(self) -> dict:
        """Values keyed by canonical column name."""
        return {name: getattr(self, name) for name in schema.CANONICAL_COLUMNS}


def _title_line(line_tokens, page_text: str, cfg: FeatureConfig):
    """Locate the best title-term line on a page, from its columns: each line's tokens, and all
    the page's token texts joined by spaces and lowercased.

    A line is a candidate if its token texts, joined, lowercased once and
    re-joined as single-spaced words with a space at each end, contain
    " phrase " for a configured phrase; one `str.find` per phrase finds it,
    and the spaces before the hit count the words before it. Longer phrases
    are tried first per line, equal lengths in config order. The contextual
    count is the number of the line's tokens outside the matched phrase.
    Returns (line position, contextual_count) for the candidate with the
    fewest contextual tokens (ties: earliest line), or None.

    Only lines that can hold a phrase are normalised and searched. A match
    puts the phrase's first word, whole, among the whitespace-free words of
    the line's lowercased text, so that text contains the word. So does the
    page text: lowercasing a line's characters reads no context beyond the
    space that joins it to the next line, as Python's final-sigma rule looks
    past case-ignorable characters only and a space is not one. A page whose
    lowercased text holds no first word, and a line whose lowercased text
    holds none, are skipped with nothing lost.
    """
    heads = {phrase.partition(" ")[0] for phrase in cfg.title_terms}  # each phrase's first word
    if not any(map(page_text.__contains__, heads)):
        return None
    phrases = sorted(cfg.title_terms, key=lambda phrase: phrase.count(" "), reverse=True)
    best = None
    for position, tokens in enumerate(line_tokens):
        lowered = " ".join(map(_TEXT, tokens)).lower()
        if not any(map(lowered.__contains__, heads)):
            continue
        text = f" {' '.join(lowered.split())} "
        for phrase in phrases:
            at = text.find(f" {phrase} ")
            if at != -1:
                # lowercasing keeps whitespace, so each token splits into as many words as above
                owners = [ti for ti, tok in enumerate(tokens) for _ in tok.text.split()]
                start = text.count(" ", 0, at)  # words before the hit
                used = owners[start:start + phrase.count(" ") + 1]
                contextual = len(tokens) - len(set(used))
                if best is None or contextual < best[1]:
                    best = (position, contextual)
                break
    return best


def _title_style(tokens, title_tokens) -> str:
    """Size rank of the title line: LARGEST, MOST_FREQUENT, or INTERMEDIATE.

    Compares the max size of the title line's tokens against the max and
    the modal size of all the page's tokens (mode by token count; tied
    modes resolve to the largest size). Sizes compare by exact equality.
    """
    counts = Counter(map(attrgetter("font_size"), tokens))
    s = max(tok.font_size for tok in title_tokens)
    if s == max(counts):
        return "LARGEST"
    if s == max(counts, key=lambda size: (counts[size], size)):
        return "MOST_FREQUENT"
    return "INTERMEDIATE"


def _count_lines(ends, flags) -> int:
    """Number of lines holding a flagged token; flags follow the tokens, ends the lines."""
    return len(set(map(bisect_right, repeat(ends), compress(count(), flags))))


def extract_features(page: Page, cfg: FeatureConfig | None = None) -> FeatureVector:
    """Compute the canonical ten-feature vector for one page. Pure function."""
    cfg = cfg or DEFAULT_CONFIG
    line_tokens = list(map(_TOKENS, page.lines))
    total = len(line_tokens) or 1  # an empty page has no counts, so every frequency is 0.0
    tokens = list(chain.from_iterable(line_tokens))
    texts = list(map(_TEXT, tokens))

    title = _title_line(line_tokens, " ".join(texts).lower(), cfg)
    if title is None:
        contains, style, font_class, contextual, position = False, "NA", "NA", 0, 1.0
    else:
        title_position, contextual = title
        contains = True
        style = _title_style(tokens, line_tokens[title_position])
        font_class = line_tokens[title_position][0].font_family
        position = title_position / total

    ends = list(accumulate(map(len, line_tokens)))  # token i lies on line bisect_right(ends, i)
    keyword_lines = _count_lines(ends, map(cfg.section_keywords.__contains__, map(str.lower, texts)))
    link_lines = _count_lines(ends, map(is_not, map(_LINK, tokens), repeat(None)))
    filled = list(filter(None, line_tokens))
    start_lines = sum(map(bool, map(_SECTION_NUMBER_RE.fullmatch,
                                    map(_TEXT, map(itemgetter(0), filled)))))
    digits = cfg.max_page_number_digits
    trailing = [int(text) for text in map(_TEXT, map(itemgetter(-1), filled))
                if text.isascii() and text.isdigit() and len(text) <= digits]
    return FeatureVector(
        contains_title_term=contains,
        title_term_style=style,
        title_term_font_class=font_class,
        contextual_term_count=contextual,
        section_term_frequency=keyword_lines / total,
        title_term_line_position=position,
        line_start_number_frequency=start_lines / total,
        line_end_number_frequency=len(trailing) / total,
        numbers_ascending=all(map(le, trailing, trailing[1:])),
        outgoing_link_frequency=link_lines / total,
    )


def write_feature_csv(rows) -> bytes:
    """Serialize (page_id, FeatureVector, label-or-None) rows as CSV bytes.

    Column order: page, the canonical feature columns, then label if any
    row is labeled. Raises MixedLabeling if only some rows carry labels.
    """
    rows = list(rows)
    labeled = sum(label is not None for _, _, label in rows)
    if labeled and labeled != len(rows):
        raise MixedLabeling(f"{labeled} of {len(rows)} rows carry labels")
    header = ["page", *schema.CANONICAL_COLUMNS]
    if labeled:
        header.append("label")
    body = []
    for page_id, vector, label in rows:
        cells = [str(page_id)]
        cells += [schema.format_value(name, value) for name, value in vector.as_dict().items()]
        if labeled:
            cells.append(str(ClassLabel(label)))
        body.append(cells)
    return _write_csv_rows(header, body)
