import pytest
from hypothesis import example, given, settings, strategies as st

from tocdetect import dataset as dataset_mod, schema
from tocdetect.cli import load_feature_config
from tocdetect.docmodel import Line, Page, Token
from tocdetect.errors import MixedLabeling
from tocdetect.features import (
    FeatureConfig,
    FeatureVector,
    _title_line,
    _title_style,
    extract_features,
    write_feature_csv,
)
from tocdetect.schema import ClassLabel

from helpers import (
    brute_force_title_line, canonical_toc_page, line, page, reference_features, tok,
)

CFG = FeatureConfig()


def title_line(p, cfg):
    """_title_line on a page's columns, built as extract_features builds them."""
    line_tokens = [ln.tokens for ln in p.lines]
    return _title_line(line_tokens, " ".join(t.text for ts in line_tokens for t in ts).lower(), cfg)


def title_style(p, position):
    """_title_style of the line at a position, among all the page's tokens."""
    return _title_style([t for ln in p.lines for t in ln.tokens], p.lines[position].tokens)


# -- title line search ---------------------------------------------------------

def test_title_line_exact():
    p = page([["Table", "of", "Contents"]])
    assert title_line(p, CFG) == (0, 0)


def test_title_line_prefers_fewest_contextual_tokens():
    p = page([
        ["Chapter", "2", "Contents", "of", "the", "cell"],
        ["Contents"],
    ])
    assert title_line(p, CFG) == (1, 0)


def test_title_line_contextual_count_is_uncovered_tokens():
    p = page([["Chapter", "2", "Contents", "of", "the", "cell"]])
    assert title_line(p, CFG) == (0, 5)  # six tokens, one covered by the matched phrase


def test_title_line_absent():
    assert title_line(page([["no", "match", "here"]]), CFG) is None


def test_title_line_case_insensitive():
    assert title_line(page([["CONTENTS"]]), CFG) == (0, 0)


def test_title_line_equal_length_phrases_keep_config_order():
    p = page([["Index", "Inhalt"]])
    assert title_line(p, FeatureConfig(title_terms=("inhalt", "index"))) == (0, 1)
    assert title_line(p, FeatureConfig(title_terms=("index", "inhalt"))) == (0, 1)
    # "table of" covers the first token only, "of contents" both: the first in order is taken
    p = page([["Table of", "Contents"]])
    fv = extract_features(p, FeatureConfig(title_terms=("table of", "of contents")))
    assert fv.contextual_term_count == 1
    fv = extract_features(p, FeatureConfig(title_terms=("of contents", "table of")))
    assert fv.contextual_term_count == 0


def test_title_line_tie_breaks_to_earlier_line():
    p = page([["Contents"], ["Contents"]])
    assert title_line(p, CFG)[0] == 0


def test_longest_phrase_matched_first():
    p = page([["Table", "of", "Contents"]])
    assert title_line(p, CFG) == (0, 0)  # "contents" alone would leave two contextual tokens


@given(st.booleans(), st.booleans(), st.sampled_from(["contents", "CONTENTS", "Contents"]))
def test_title_line_ignores_case_and_style_flags(bold, italic, text):
    p = page([[tok(text, bold=bold, italic=italic)]])
    assert title_line(p, CFG) == (0, 0)


# words that change under lower(), overlap each other or match the terms below
_TITLE_WORDS = st.sampled_from([
    "table", "Table", "TABLE", "of", "OF", "content", "Contents", "CONTENTS", "index", "inhalt",
    "\u0130", "i\u0307", "\u00df", "ss", "\u03a3", "\u0391\u03a3", "\u03b1\u03c2", "x",
    "table of", "of\u00a0contents", "TABLE OF CONTENT",
])
_SPACES = st.sampled_from([" ", "\u00a0", "\u2003", "\t", "  "])
# a token holds zero, one or several words; separators and padding are Unicode whitespace
_title_tokens = st.builds(
    lambda words, seps, pad: pad + "".join(w + s for w, s in zip(words, seps)).rstrip() + pad,
    st.lists(_TITLE_WORDS, max_size=4), st.lists(_SPACES, min_size=4, max_size=4),
    st.sampled_from(["", " ", "\u2003"]),
).map(tok)
_title_configs = st.lists(
    st.sampled_from(["content", "contents", "table of content", "table of contents", "of",
                     "Index", "inhalt", "\u0130", "\u00df", "SS", "\u03a3", "\u03b1\u03c2",
                     "table\u00a0 of\tcontents", "Of Contents"]),
    min_size=1, max_size=5,
).map(lambda terms: FeatureConfig(title_terms=tuple(terms)))


@settings(max_examples=300)
@given(st.lists(st.lists(_title_tokens, max_size=6), max_size=5), st.data(), _title_configs)
def test_title_line_matches_word_window_oracle(specs, data, cfg):
    # Line.index values are shuffled: both finders read positions, so the indexes must not matter
    order = data.draw(st.permutations(range(len(specs))))
    p = Page(index=1, lines=tuple(Line(tokens=tuple(t), index=i) for t, i in zip(specs, order)))
    expected = brute_force_title_line(p, cfg)
    assert title_line(p, cfg) == (expected[:2] if expected else None)


# -- title style -------------------------------------------------------------

def _styled_page(title_size, other_sizes):
    lines = [[tok("Contents", font_size=title_size)]]
    lines += [[tok(f"w{i}", font_size=s)] for i, s in enumerate(other_sizes)]
    return page(lines)


def test_style_largest():
    assert title_style(_styled_page(18, [12, 12, 18]), 0) == "LARGEST"


def test_style_most_frequent():
    assert title_style(_styled_page(12, [18, 12, 12]), 0) == "MOST_FREQUENT"


def test_style_intermediate():
    assert title_style(_styled_page(14, [18, 12, 12]), 0) == "INTERMEDIATE"


def test_style_modal_tie_takes_largest_size():
    # sizes: 12 x2, 18 x2 (incl. title) -> modal resolves to 18 = title size
    assert title_style(_styled_page(18, [12, 12, 18]), 0) == "LARGEST"


@given(st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
def test_style_scale_invariant(scale):
    base = _styled_page(14, [18, 12, 12])
    scaled = page(
        [[tok(t.text, font_size=t.font_size * scale) for t in ln.tokens] for ln in base.lines]
    )
    assert title_style(base, 0) == title_style(scaled, 0)


_sizes = st.sampled_from([0.0, 9.5, 12.0, 18.0, 24.0]) | st.floats(0.0, 1e6)


@given(st.lists(st.lists(_sizes, min_size=1, max_size=4), min_size=1, max_size=6), st.data())
def test_style_matches_max_and_mode_oracle(size_lines, data):
    p = page([[tok("w", font_size=s) for s in sizes] for sizes in size_lines])
    title = data.draw(st.integers(0, len(size_lines) - 1))
    every = [s for sizes in size_lines for s in sizes]
    top = max(every.count(s) for s in every)
    modal = max(s for s in every if every.count(s) == top)  # tied modes: the larger size
    s = max(size_lines[title])
    expected = "LARGEST" if s == max(every) else "MOST_FREQUENT" if s == modal else "INTERMEDIATE"
    assert title_style(p, title) == expected


# -- line number heuristics, on one-line pages ----------------------------------

@pytest.mark.parametrize(
    "first,expected",
    [("1.2", True), ("1.2.", True), ("7", True), ("1.2.3", True),
     ("Chapter", False), ("1a", False), (".2", False), ("1..2", False),
     ("\u0661.\u0662", False), ("1_0", False)],
)
def test_starts_with_number(first, expected):
    fv = extract_features(page([[first, "rest"]]), CFG)
    assert fv.line_start_number_frequency == (1.0 if expected else 0.0)


def test_starts_with_number_empty_line():
    p = Page(index=1, lines=(Line(tokens=(), index=0),))
    assert extract_features(p, CFG).line_start_number_frequency == 0.0


def _trailing_number(last, cfg):
    """The page number read from a one-line page ending in `last`, or None if none is read.

    The value shows through numbers_ascending: a following line ending in the value
    keeps the numbers ascending, and one ending in the value less one does not.
    """
    fv = extract_features(page([["Title", last]]), cfg)
    assert fv.line_end_number_frequency in (0.0, 1.0)
    if fv.line_end_number_frequency == 0.0:
        return None
    value = int(last)
    assert extract_features(page([["Title", last], ["t", str(value)]]), cfg).numbers_ascending
    if value > 1:
        assert not extract_features(page([["Title", last], ["t", str(value - 1)]]),
                                    cfg).numbers_ascending
    return value


@pytest.mark.parametrize(
    "last,expected",
    [("14", 14), ("1234", 1234), ("12345", None), ("14.", None), ("xiv", None)],
)
def test_trailing_page_number(last, expected):
    assert _trailing_number(last, CFG) == expected


def test_trailing_page_number_respects_digit_cap():
    cfg = FeatureConfig(max_page_number_digits=2)
    assert _trailing_number("99", cfg) == 99
    assert _trailing_number("100", cfg) is None


# -- FeatureConfig -------------------------------------------------------------

def test_feature_config_normalizes_like_config_file(tmp_path):
    path = tmp_path / "features.conf"
    path.write_text("title_terms = Table of  Contents\nsection_keywords =  Kapitel \n")
    cfg = FeatureConfig(title_terms=("Table of  Contents",), section_keywords={" Kapitel "})
    assert cfg == load_feature_config(str(path))
    assert cfg.title_terms == ("table of contents",)
    assert cfg.section_keywords == frozenset({"kapitel"})
    # inner spaces of a keyword stay: it is compared with a whole token's text
    assert FeatureConfig(section_keywords=["Teil  2"]).section_keywords == frozenset({"teil  2"})


@pytest.mark.parametrize("kwargs", [
    {"title_terms": ("contents", 3)},
    {"section_keywords": [b"kapitel"]},
    {"title_terms": ("contents", " ")},
    {"section_keywords": ["chapter", ""]},
    {"title_terms": ()},
    {"title_terms": "contents"},
    {"max_page_number_digits": True},
    {"max_page_number_digits": 0},
], ids=["non-str-term", "non-str-keyword", "blank-term", "blank-keyword", "empty-terms",
        "terms-string", "bool-digits", "zero-digits"])
def test_feature_config_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        FeatureConfig(**kwargs)


# -- extract_features ----------------------------------------------------------

def test_empty_page_conventions():
    fv = extract_features(Page(index=1, lines=()), CFG)
    assert fv == FeatureVector(
        contains_title_term=False,
        title_term_style="NA",
        title_term_font_class="NA",
        contextual_term_count=0,
        section_term_frequency=0.0,
        title_term_line_position=1.0,
        line_start_number_frequency=0.0,
        line_end_number_frequency=0.0,
        numbers_ascending=True,
        outgoing_link_frequency=0.0,
    )


def test_canonical_toc_page_features():
    fv = extract_features(canonical_toc_page(), CFG)
    assert fv.contains_title_term is True
    assert fv.title_term_style == "LARGEST"
    assert fv.title_term_font_class == "Times New Roman"
    assert fv.contextual_term_count == 0
    assert fv.title_term_line_position == 0.0
    assert fv.line_start_number_frequency == 0.8
    assert fv.line_end_number_frequency == 0.8
    assert fv.numbers_ascending is True
    assert fv.outgoing_link_frequency == 0.0


def test_descending_numbers_page():
    p = page([["a", "5"], ["b", "3"], ["c", "9"]])
    fv = extract_features(p, CFG)
    assert fv.numbers_ascending is False
    assert fv.line_end_number_frequency == 1.0


def test_equal_numbers_count_as_ascending():
    p = page([["a", "5"], ["b", "5"], ["c", "9"]])
    assert extract_features(p, CFG).numbers_ascending is True


def test_link_frequency():
    p = page([
        [tok("Intro", link_target="p3"), tok("3")],
        [tok("Scope", link_target="p5"), tok("5")],
        ["no", "links"],
        [],
    ])
    fv = extract_features(p, CFG)
    assert fv.outgoing_link_frequency == 0.5
    assert fv.line_end_number_frequency == 0.5


def test_section_term_frequency_whole_token_case_insensitive():
    p = page([["Chapter", "1"], ["APPENDIX"], ["chapters", "galore"], ["plain"]])
    assert extract_features(p, CFG).section_term_frequency == 0.25 * 2


@pytest.mark.parametrize("p, indexes", [
    (page([["Contents"]]), [1]),
    (canonical_toc_page(), range(10, 0, -1)),
    (page([["intro"], ["table", "of", "contents"], ["1.", "Intro", "3"]]), [7, 7, 0]),
], ids=["one-line-index-1", "reversed", "repeated"])
def test_line_index_is_not_read(p, indexes):
    # a title on the line at position 0 with Line.index 1 once indexed past the page's end
    renumbered = Page(index=p.index, lines=tuple(Line(tokens=ln.tokens, index=i)
                                                 for ln, i in zip(p.lines, indexes)))
    assert extract_features(renumbered, CFG) == extract_features(p, CFG)


def test_extraction_is_pure():
    p = canonical_toc_page()
    assert extract_features(p, CFG) == extract_features(p, CFG)


# -- randomized page properties -------------------------------------------------

_words = st.text(alphabet="abcdefg.0123456789", min_size=1, max_size=6).filter(
    lambda s: s.strip() == s and s
)
_tokens = st.builds(
    tok,
    _words,
    font_size=st.sampled_from([0.0, 10.0, 12.0, 18.0]),
    link_target=st.one_of(st.none(), st.just("t")),
)
_pages = st.lists(st.lists(_tokens, max_size=5), max_size=8).map(
    lambda specs: page(specs)
)


@given(_pages)
def test_frequency_features_within_unit_interval(p):
    fv = extract_features(p, CFG)
    for value in (
        fv.section_term_frequency,
        fv.title_term_line_position,
        fv.line_start_number_frequency,
        fv.line_end_number_frequency,
        fv.outgoing_link_frequency,
    ):
        assert 0.0 <= value <= 1.0


@given(_pages)
def test_appending_inert_line_never_increases_frequencies(p):
    inert = line(["inertword"], len(p.lines))
    bigger = Page(index=p.index, lines=p.lines + (inert,))
    fv, fv2 = extract_features(p, CFG), extract_features(bigger, CFG)
    assert fv2.section_term_frequency <= fv.section_term_frequency or not p.lines
    assert fv2.line_start_number_frequency <= fv.line_start_number_frequency or not p.lines
    assert fv2.line_end_number_frequency <= fv.line_end_number_frequency or not p.lines
    assert fv2.outgoing_link_frequency <= fv.outgoing_link_frequency or not p.lines
    if fv.numbers_ascending:
        assert fv2.numbers_ascending


_VECTOR_WORDS = st.sampled_from([
    "Contents", "table", "of", "CONTENTS", "Chapter", "SECTION", "index", "\u0130ndex",
    "\u0130", "\u00df", "SS", "\u03a3", "\u0391\u03a3", "\u03b1\u03c2",
    "1", "1.", "1.2", "1.2.", "1..2", ".", "12", "0007", "123456", "\u0663", "x",
    # keywords and title words inside longer words: substring tests pass, whole words do not
    "parts", "indexes", "Chapters", "tables", "CONTENTSX", "xof",
])
# as _SPACES, and line breaks inside a token
_VECTOR_SPACES = st.sampled_from([" ", "\u00a0", "\u2003", "\t", "  ", "\n", "\t\n"])
_STYLE = {
    "font_size": st.sampled_from([0.0, 10.0, 12.0, 18.0]),
    "font_family": st.sampled_from(["unknown", "Times New Roman", "\u00df"]),
    "link_target": st.sampled_from([None, "p1", ""]),
}
# multi-word tokens with Unicode whitespace and padding, or a bare number, often repeated
_vector_tokens = st.one_of(
    st.builds(
        lambda words, seps, pad, **style: tok(
            pad + "".join(w + s for w, s in zip(words, seps)).rstrip() + pad, **style),
        st.lists(_VECTOR_WORDS, min_size=1, max_size=3),
        st.lists(_VECTOR_SPACES, min_size=3, max_size=3), st.sampled_from(["", " ", "\t", "\n"]),
        **_STYLE),
    st.builds(tok, st.sampled_from(["3", "3", "12", "0007", "123456", "\u0663", "1.2."]), **_STYLE),
)
_vector_lines = st.lists(_vector_tokens, max_size=5)
# a title phrase's first word ends one line and its other words start the next, or a final
# capital sigma ends a line that a letter follows
_split_title = st.builds(
    lambda before, head, rest, after: [before + [tok(head)], [tok(rest)] + after],
    _vector_lines, st.sampled_from(["Table", "table of", "\u0391\u03a3"]),
    st.sampled_from(["of Contents", "CONTENT", "of\u00a0contents", "x"]), _vector_lines,
)
# lines, empty lines among them, and split titles: at most 12 lines
_vector_pages = st.lists(
    st.one_of(_vector_lines.map(lambda tokens: [tokens]), st.just([[]]), _split_title),
    max_size=6,
).map(lambda blocks: [tokens for block in blocks for tokens in block])
_vector_configs = st.builds(
    FeatureConfig,
    title_terms=_title_configs.map(lambda cfg: cfg.title_terms),
    section_keywords=st.sets(st.sampled_from(["chapter", "Section", " INDEX ", "\u0130", "part",
                                              "ss", "\u03c3", "teil 2"]), min_size=1),
    max_page_number_digits=st.integers(1, 5),
)


@settings(max_examples=300)
@given(_vector_pages, st.lists(st.integers(0, 9), min_size=12, max_size=12), _vector_configs)
# a final capital sigma lowercases to "\u03c2" alone on its line, to "\u03c3" before a letter
@example([[tok("\u0391\u03a3")], [tok("x")]], [0] * 12, FeatureConfig(title_terms=("\u03b1\u03c2",)))
def test_features_match_naive_reference(specs, indexes, cfg):
    # Line.index values are drawn apart from positions, which both sides must ignore
    p = Page(index=1, lines=tuple(Line(tokens=tuple(t), index=i) for t, i in zip(specs, indexes)))
    assert extract_features(p, cfg).as_dict() == reference_features(p, cfg)


# -- write_feature_csv -----------------------------------------------------------

def test_feature_csv_empty_input():
    assert write_feature_csv([]).decode().splitlines() == [
        "page,contains_title_term,title_term_style,title_term_font_class,"
        "contextual_term_count,section_term_frequency,title_term_line_position,"
        "line_start_number_frequency,line_end_number_frequency,numbers_ascending,"
        "outgoing_link_frequency"
    ]


def test_feature_csv_single_labeled_row():
    fv = extract_features(canonical_toc_page(), CFG)
    data = write_feature_csv([(1, fv, ClassLabel.TOC)])
    lines = data.decode().splitlines()
    assert len(lines) == 2
    assert lines[0].endswith(",label")
    assert lines[1].endswith(",TOC")


def test_feature_csv_mixed_labels_rejected():
    fv = extract_features(Page(index=1, lines=()), CFG)
    with pytest.raises(MixedLabeling):
        write_feature_csv([(1, fv, ClassLabel.TOC), (2, fv, None)])


def test_feature_csv_round_trips_through_dataset_loader():
    pages = [canonical_toc_page(index=1), page([["plain", "text"]], index=2)]
    rows = [
        (p.index, extract_features(p, CFG), label)
        for p, label in zip(pages, (ClassLabel.TOC, ClassLabel.NON_TOC))
    ]
    loaded = dataset_mod.load_csv(write_feature_csv(rows))
    assert len(loaded.columns) == 10
    assert len(loaded.rows) == 2
    assert [label for _, label in loaded.rows] == [ClassLabel.TOC, ClassLabel.NON_TOC]
    contains = loaded.columns.index("contains_title_term")
    assert loaded.rows[0][0][contains] is True
    assert loaded.rows[1][0][contains] is False


# font classes that need quoting, or that a spreadsheet would read as a formula or a comment
_font_classes = st.builds(
    str.__add__,
    st.sampled_from(["", "=", "#"]),
    st.text(st.sampled_from([",", '"', "\r", "\n", "\ufeff", " ", "a", "\u00e9", "\u03a3",
                             "\u00df"])
            | st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=8),
).filter(schema.normalize_categorical)  # a blank font class is read as "unknown" by the parser
_fractions = st.floats(0.0, 1.0)
_feature_vectors = st.builds(
    FeatureVector,
    contains_title_term=st.booleans(),
    title_term_style=st.sampled_from(schema.STYLE_LEVELS),
    title_term_font_class=_font_classes,
    contextual_term_count=st.integers(0, 2**53),
    section_term_frequency=_fractions,
    title_term_line_position=_fractions,
    line_start_number_frequency=_fractions,
    line_end_number_frequency=_fractions,
    numbers_ascending=st.booleans(),
    outgoing_link_frequency=_fractions,
)


@given(st.lists(st.tuples(st.integers(0, 10**6), _feature_vectors, st.sampled_from(ClassLabel)),
                min_size=1, max_size=6))
@example([(1, FeatureVector(True, "LARGEST", '=Sans,"Bold"\r\n\ufeff\u00e9', 0, 0.0, 0.0, 0.0,
                            0.0, True, 0.0), ClassLabel.TOC),
          (2, FeatureVector(False, "NA", "#x", 3, 1.0, 1.0, 0.5, 0.25, False, 1.0),
           ClassLabel.NON_TOC)])
def test_feature_csv_round_trips_every_cell(rows):
    loaded = dataset_mod.load_csv(write_feature_csv(rows))
    assert loaded.columns == tuple(schema.CANONICAL_COLUMNS)
    assert loaded.rows == tuple(
        (tuple(schema.check_value(name, value) for name, value in vector.as_dict().items()), label)
        for _, vector, label in rows)
