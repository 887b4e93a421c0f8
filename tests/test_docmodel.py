import codecs

import pytest
from hypothesis import given, strategies as st

from tocdetect.docmodel import (
    DocumentModel,
    Line,
    Page,
    Token,
    parse_document,
    write_document_xml,
)
from tocdetect.errors import MalformedXml, SchemaViolation

from helpers import ENTITY_BOMB

MINIMAL = b'<document id="d"><page index="1"><line><token>Contents</token></line></page></document>'


def test_parse_minimal_document():
    doc = parse_document(MINIMAL)
    assert doc.id == "d"
    assert len(doc.pages) == 1
    assert len(doc.pages[0].lines) == 1
    assert doc.pages[0].lines[0].tokens[0].text == "Contents"


def test_zero_pages_is_schema_violation():
    with pytest.raises(SchemaViolation) as exc:
        parse_document(b'<document id="d"></document>')
    assert "document" in str(exc.value)


def test_token_attribute_defaults():
    doc = parse_document(
        b'<document id="d"><page index="1"><line>'
        b'<token size="12.0" bold="true">Hello</token>'
        b"</line></page></document>"
    )
    token = doc.pages[0].lines[0].tokens[0]
    assert token.font_size == 12.0
    assert token.bold is True
    assert token.italic is False
    assert token.font_family == "unknown"
    assert token.link_target is None


def test_link_attribute():
    doc = parse_document(
        b'<document id="d"><page index="1"><line>'
        b'<token link="page-9">Intro</token></line></page></document>'
    )
    assert doc.pages[0].lines[0].tokens[0].link_target == "page-9"


def test_malformed_xml():
    with pytest.raises(MalformedXml):
        parse_document(b"<document id=")


def test_entity_expansion_bomb_is_malformed():
    with pytest.raises(MalformedXml, match="amplification"):
        parse_document(ENTITY_BOMB)


def test_non_increasing_page_indices():
    data = (
        b'<document id="d"><page index="2"><line/></page>'
        b'<page index="2"><line/></page></document>'
    )
    with pytest.raises(SchemaViolation) as exc:
        parse_document(data)
    assert "page[2]" in str(exc.value)


@pytest.mark.parametrize("size", ["-1", "nan", "inf"])
def test_negative_size_rejected_with_path(size):
    data = (
        b'<document id="d"><page index="1"><line>'
        b'<token size="%s">x</token></line></page></document>' % size.encode()
    )
    with pytest.raises(SchemaViolation) as exc:
        parse_document(data)
    assert "token[1]" in str(exc.value)


def test_empty_token_text_rejected():
    data = b'<document id="d"><page index="1"><line><token>  </token></line></page></document>'
    with pytest.raises(SchemaViolation):
        parse_document(data)


def test_token_text_is_trimmed():
    data = b'<document id="d"><page index="1"><line><token>  spaced  </token></line></page></document>'
    doc = parse_document(data)
    assert doc.pages[0].lines[0].tokens[0].text == "spaced"


def test_element_inside_token_rejected_with_path():
    data = (
        b'<document id="d"><page index="1"><line><token>x</token>'
        b"<token>Table of <i>Contents</i></token></line></page></document>"
    )
    with pytest.raises(SchemaViolation) as exc:
        parse_document(data)
    assert str(exc.value) == "document/page[1]/line[1]/token[2]: unexpected element <i>"


def test_unknown_elements_and_attributes_ignored(caplog):
    data = (
        b'<document id="d"><page index="1"><line>'
        b"<token color=\"red\">x</token><image src=\"a.png\"/>"
        b"</line></page></document>"
    )
    doc = parse_document(data)
    assert len(doc.pages[0].lines[0].tokens) == 1


def test_bom_tolerated():
    doc = parse_document(codecs.BOM_UTF8 + MINIMAL)
    assert doc.id == "d"


def test_empty_lines_preserved():
    data = b'<document id="d"><page index="1"><line/><line><token>x</token></line></page></document>'
    doc = parse_document(data)
    assert len(doc.pages[0].lines) == 2
    assert doc.pages[0].lines[0].tokens == ()
    assert [ln.index for ln in doc.pages[0].lines] == [0, 1]


def test_parse_is_deterministic():
    assert parse_document(MINIMAL) == parse_document(MINIMAL)


# -- randomized round-trip -------------------------------------------------

_token_st = st.builds(
    Token,
    text=st.text(
        alphabet=st.characters(whitelist_categories=("L", "N", "P", "S")),
        min_size=1,
        max_size=8,
    ),
    font_family=st.sampled_from(["unknown", "Times", "Helvetica Neue"]),
    font_size=st.floats(min_value=0.0, max_value=72.0, allow_nan=False),
    bold=st.booleans(),
    italic=st.booleans(),
    link_target=st.one_of(st.none(), st.text(alphabet="abc-123", max_size=6)),
)


@st.composite
def _documents(draw):
    n_pages = draw(st.integers(1, 4))
    pages = []
    index = 0
    for _ in range(n_pages):
        index += draw(st.integers(1, 3))
        lines = tuple(
            Line(tokens=tuple(draw(st.lists(_token_st, max_size=4))), index=i)
            for i in range(draw(st.integers(0, 4)))
        )
        pages.append(Page(index=index, lines=lines))
    return DocumentModel(id=draw(st.text(alphabet="abcXYZ09_", max_size=8)), pages=tuple(pages))


@given(_documents())
def test_write_parse_round_trip(doc):
    assert parse_document(write_document_xml(doc)) == doc


@given(_documents())
def test_parsed_tokens_satisfy_invariants(doc):
    reparsed = parse_document(write_document_xml(doc))
    for p in reparsed.pages:
        for ln in p.lines:
            assert p.lines[ln.index] is ln
            for token in ln.tokens:
                assert token.text == token.text.strip() and token.text
                assert token.font_size >= 0.0
