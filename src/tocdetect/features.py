"""Per-page feature extraction.

Ten features per page: title-term presence/style/font/context/position,
section-keyword and line-number frequencies, ascending-page-number check,
and outgoing-link frequency. Frequencies and the title line's position
(from 0) are divided by the page's total line count (empty lines
included). A line is taken by its position in `page.lines`, not `Line.index`.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from typing import TYPE_CHECKING

from . import schema
from .errors import MixedLabeling
from .record import Frozen
from .schema import ClassLabel

if TYPE_CHECKING:  # a feature CSV is read without the XML parser
    from .docmodel import Line, Page

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

_SECTION_NUMBER_RE = re.compile(r"\d+(\.\d+)*\.?$", re.ASCII)


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


def find_title_line(page: Page, cfg: FeatureConfig):
    """Locate the best title-term line on a page.

    A line is a candidate if its token texts, joined, lowercased once and
    re-joined as single-spaced words with a space at each end, contain
    " phrase " for a configured phrase; one `str.find` per phrase finds it,
    and the spaces before the hit count the words before it. Longer phrases
    are tried first per line, equal lengths in config order. The contextual
    count is the number of the line's tokens outside the matched phrase.
    Returns (line position, contextual_count, matched_phrase) for the
    candidate with the fewest contextual tokens (ties: earliest line), or None.
    """
    phrases = sorted(cfg.title_terms, key=lambda phrase: phrase.count(" "), reverse=True)
    best = None
    for position, line in enumerate(page.lines):
        text = f" {' '.join(' '.join(tok.text for tok in line.tokens).lower().split())} "
        for phrase in phrases:
            at = text.find(f" {phrase} ")
            if at != -1:
                # lowercasing keeps whitespace, so each token splits into as many words as above
                owners = [ti for ti, tok in enumerate(line.tokens) for _ in tok.text.split()]
                start = text.count(" ", 0, at)  # words before the hit
                used = owners[start:start + phrase.count(" ") + 1]
                contextual = len(line.tokens) - len(set(used))
                if best is None or contextual < best[1]:
                    best = (position, contextual, phrase)
                break
    return best


def title_style(page: Page, title_position: int) -> str:
    """Size rank of the title line: LARGEST, MOST_FREQUENT, or INTERMEDIATE.

    Compares the max token size of the line at `title_position` against the
    page-wide max and the page-wide modal size (mode by token count; tied
    modes resolve to the largest size). Sizes compare by exact equality.
    """
    counts = Counter(tok.font_size for ln in page.lines for tok in ln.tokens)
    s = max(tok.font_size for tok in page.lines[title_position].tokens)
    if s == max(counts):
        return "LARGEST"
    if s == max(counts, key=lambda size: (counts[size], size)):
        return "MOST_FREQUENT"
    return "INTERMEDIATE"


def starts_with_number(line: Line) -> bool:
    """True iff the first token is a section number like 1, 1.2, or 1.2. (trailing dot ok)."""
    if not line.tokens:
        return False
    return _SECTION_NUMBER_RE.fullmatch(line.tokens[0].text) is not None


def trailing_page_number(line: Line, cfg: FeatureConfig) -> int | None:
    """Integer value of the last token if it is 1..max digits, else None."""
    if not line.tokens:
        return None
    text = line.tokens[-1].text
    if text.isascii() and text.isdigit() and 1 <= len(text) <= cfg.max_page_number_digits:
        return int(text)
    return None


def extract_features(page: Page, cfg: FeatureConfig | None = None) -> FeatureVector:
    """Compute the canonical ten-feature vector for one page. Pure function."""
    cfg = cfg or DEFAULT_CONFIG
    total = len(page.lines) or 1  # an empty page has no counts, so every frequency is 0.0

    title = find_title_line(page, cfg)
    if title is None:
        contains, style, font_class, contextual, position = False, "NA", "NA", 0, 1.0
    else:
        title_position, contextual, _ = title
        contains = True
        style = title_style(page, title_position)
        font_class = page.lines[title_position].tokens[0].font_family
        position = title_position / total

    keyword_lines = start_lines = link_lines = 0
    trailing = []
    for line in page.lines:
        keyword_lines += any(tok.text.lower() in cfg.section_keywords for tok in line.tokens)
        start_lines += starts_with_number(line)
        link_lines += any(tok.link_target is not None for tok in line.tokens)
        number = trailing_page_number(line, cfg)
        if number is not None:
            trailing.append(number)
    return FeatureVector(
        contains_title_term=contains,
        title_term_style=style,
        title_term_font_class=font_class,
        contextual_term_count=contextual,
        section_term_frequency=keyword_lines / total,
        title_term_line_position=position,
        line_start_number_frequency=start_lines / total,
        line_end_number_frequency=len(trailing) / total,
        numbers_ascending=all(a <= b for a, b in zip(trailing, trailing[1:])),
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
    with_label = labeled > 0

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["page", *schema.CANONICAL_COLUMNS]
    if with_label:
        header.append("label")
    writer.writerow(header)
    for page_id, vector, label in rows:
        values = vector.as_dict()
        cells = [str(page_id)]
        cells += [schema.format_value(name, values[name]) for name in schema.CANONICAL_COLUMNS]
        if with_label:
            cells.append(str(ClassLabel(label)))
        writer.writerow(cells)
    return buf.getvalue().encode("utf-8")
