import codecs
import gc
import itertools
import logging
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from tocdetect.docmodel import (
    DocumentModel,
    Line,
    Page,
    Token,
    parse_document,
    write_document_xml,
)
from tocdetect.errors import MalformedXml, SchemaViolation

from helpers import ENTITY_BOMB, reference_parse_document

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


def _one_token(token: str, page_attrs: str = 'index="1"') -> bytes:
    return (f'<document id="d"><page {page_attrs}><line>{token}</line></page></document>'
            .encode())


@pytest.mark.parametrize("data, message", [
    (_one_token('<token bold="yes">x</token>'),
     "document/page[1]/line[1]/token[1]: attribute bold='yes' is not true/false"),
    (_one_token('<token size="big">x</token>'),
     "document/page[1]/line[1]/token[1]: size='big' is not a decimal"),
    (_one_token('<token size="1_2.5">x</token>'),
     "document/page[1]/line[1]/token[1]: size='1_2.5' is not a decimal"),
    (b'<document><page index="1"><line/></page></document>', "document: missing id attribute"),
    (b'<document id="d"><section/></document>', "document/page[1]: unexpected element <section>"),
    (_one_token("", page_attrs=""), "document/page[1]: missing index attribute"),
    (_one_token("", page_attrs='index="one"'), "document/page[1]: index='one' is not an integer"),
    (_one_token("", page_attrs='index="1_0"'), "document/page[1]: index='1_0' is not an integer"),
    (_one_token("", page_attrs='index="\u0661\u0661"'),
     "document/page[1]: index='\u0661\u0661' is not an integer"),
    (b'<document id="d"><page index="1"><row/></page></document>',
     "document/page[1]/line[1]: unexpected element <row>"),
], ids=["bold-yes", "size-word", "size-underscore", "no-document-id", "non-page-child",
        "no-page-index", "page-index-word", "page-index-underscore", "page-index-arabic-indic",
        "non-line-child"])
def test_schema_violation_names_element_path(data, message):
    with pytest.raises(SchemaViolation) as exc:
        parse_document(data)
    assert str(exc.value) == message


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


# -- values shared within a document, and checks of repeated token attributes ----------

def _two_lines(first: str, second: str) -> bytes:
    return (f'<document id="d"><page index="1"><line>{first}</line><line>{second}</line>'
            f"</page></document>").encode()


def test_repeated_unknown_attribute_warns_at_each_token(caplog):
    caplog.set_level(logging.WARNING, logger="tocdetect.docmodel")
    token = '<token color="red" size="9">x</token>'
    parse_document(_two_lines(token, token + token))
    assert [record.getMessage() for record in caplog.records] == [
        "document/page[1]/line[1]/token[1]: ignoring unknown attribute 'color'",
        "document/page[1]/line[2]/token[1]: ignoring unknown attribute 'color'",
        "document/page[1]/line[2]/token[2]: ignoring unknown attribute 'color'",
    ]


def test_empty_text_is_rejected_after_its_attributes_were_seen():
    with pytest.raises(SchemaViolation) as exc:
        parse_document(_two_lines('<token size="9">x</token>', '<token size="9"> </token>'))
    assert str(exc.value) == "document/page[1]/line[2]/token[1]: token has empty text"


def test_repeated_bad_size_is_rejected_at_its_first_token():
    with pytest.raises(SchemaViolation) as exc:
        parse_document(_two_lines('<token>a</token><token size="-1">x</token>',
                                  '<token size="-1">x</token>'))
    assert str(exc.value) == (
        "document/page[1]/line[1]/token[2]: size='-1' is not a finite, non-negative decimal")


def test_text_after_a_violation_is_not_read_as_an_entity():
    # the pass runs on to the end after a violation, and an entity there is not undefined
    with pytest.raises(SchemaViolation) as exc:
        parse_document(_two_lines('<token bold="yes">x</token>', "<token>a &amp; b</token>"))
    assert str(exc.value) == (
        "document/page[1]/line[1]/token[1]: attribute bold='yes' is not true/false")


def test_equal_token_values_are_one_object():
    token = '<token font="Serif" size="9.5" link="p2">{}</token>'
    doc = parse_document(_two_lines(token.format("Contents") + token.format("Index"),
                                    token.format("Contents")))
    (a, b), (c,) = (line.tokens for line in doc.pages[0].lines)
    assert a is c and a.text != b.text
    assert a.font_family is b.font_family is c.font_family
    assert a.font_size is b.font_size is c.font_size
    assert a.link_target is b.link_target is c.link_target


def test_equal_text_with_other_attributes_is_another_token():
    doc = parse_document(_two_lines('<token size="9">x</token><token size="9.0">x</token>',
                                    '<token size="9" bold="false">x</token><token>x</token>'))
    tokens = [token for line in doc.pages[0].lines for token in line.tokens]
    assert len({id(token) for token in tokens}) == 4
    assert [token.font_size for token in tokens] == [9.0, 9.0, 9.0, 0.0]


def test_parsed_document_holds_no_reference_cycles():
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        doc = parse_document(_two_lines('<token bold="true">x</token>', "<token>y</token>"))
        del doc
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


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


# -- parity with the ElementTree parser kept in tests/helpers.py -------------------

_UNKNOWN_THEN = (b'<document id="d"><page index="1"><line><x a="1"><token>z</token></x>'
                 b'<token color="red" xmlns:a="u" a:b="1">x</token></line></page>')


def test_warnings_are_logged_only_for_well_formed_input(caplog):
    caplog.set_level(logging.WARNING, logger="tocdetect.docmodel")
    parse_document(_UNKNOWN_THEN + b"</document>")
    assert [record.getMessage() for record in caplog.records] == [
        "document/page[1]/line[1]: ignoring unknown element <x>",
        "document/page[1]/line[1]/token[2]: ignoring unknown attribute 'color'",
        "document/page[1]/line[1]/token[2]: ignoring unknown attribute '{u}b'",
    ]
    caplog.clear()
    with pytest.raises(MalformedXml, match="not well-formed"):
        parse_document(_UNKNOWN_THEN + b"</document>\x00")
    assert caplog.records == []


@pytest.mark.parametrize("root, close", [
    (b'<document xmlns="urn:x" id="d">', b"</document>"),
    (b'<a:document xmlns:a="urn:x" id="d">', b"</a:document>"),
], ids=["default-namespace", "prefixed"])
def test_namespaced_root_is_named_as_elementtree_names_it(root, close):
    with pytest.raises(SchemaViolation) as exc:
        parse_document(root + b'<page index="1"><line/></page>' + close)
    assert str(exc.value) == (
        "{urn:x}document: root element is <{urn:x}document>, expected <document>")


@pytest.mark.parametrize("prolog, column", [
    (b'<!DOCTYPE document SYSTEM "x.dtd">', 80),  # expat skips the undeclared &foo;
    (b'<!DOCTYPE document [<!ENTITY foo SYSTEM "e.xml">]>', 96),  # nothing loads e.xml
], ids=["external-dtd", "external-entity"])
def test_unexpanded_entity_is_malformed(prolog, column):
    with pytest.raises(MalformedXml) as exc:
        parse_document(prolog + _one_token("<token>&foo;bar</token>"))
    assert str(exc.value) == f"undefined entity &foo;: line 1, column {column}"


_SPLICES = [b'<x a="1"><token>z</token></x>', b'size="nan" ', b'bold="yes" ', b'xmlns="u" ',
            b'xmlns:a="u" a:b="1" ', b"<![CDATA[x]]>", b"<!--c-->", codecs.BOM_UTF8, b"&foo;",
            b'<!DOCTYPE document SYSTEM "x.dtd">',
            b'<!DOCTYPE document [<!ENTITY foo "bar"><!ENTITY ext SYSTEM "e.xml">]>', b"&ext;",
            b"&#0;", b"<", b"&", b'"', b"\x00", b"\xff"]


@st.composite
def _mutated_documents(draw):
    data = write_document_xml(draw(_documents()))
    if draw(st.booleans()):  # so that a spliced size= or bold= is not a duplicate attribute
        data = re.sub(rb' (size|bold|italic)="[^"]*"', b"", data)
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        # any offset, or one after a '>' or after '<token ', where a splice can leave the
        # input well-formed
        spots = [[m.end() for m in re.finditer(pattern, data)] for pattern in (rb">", rb"<token ")]
        at = draw(st.one_of(*(st.sampled_from(s) for s in spots if s), st.integers(0, len(data))))
        op = draw(st.sampled_from(["splice", "replace", "delete"]))
        if op == "delete":
            del data[at:at + 1]
        else:  # a replace swaps the byte at the offset for the fragment
            data[at:at + 1 if op == "replace" else at] = draw(st.sampled_from(_SPLICES))
    return bytes(data)


def _outcome(parse, data):
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("tocdetect.docmodel")
    logger.addHandler(handler)
    try:
        result = parse(data)
    except (MalformedXml, SchemaViolation) as exc:
        result = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return result, [record.getMessage() for record in records]


@settings(max_examples=500, deadline=None)
@given(st.one_of(_mutated_documents(), _documents().map(write_document_xml)))
@example(codecs.BOM_UTF8 + codecs.BOM_UTF8 + MINIMAL)  # one BOM is stripped, expat reads the other
@example(_one_token('<token bold="yes">x</token>') + b"\x00")  # the malformed byte wins
def test_parse_matches_elementtree_reference(data):
    assert _outcome(parse_document, data) == _outcome(reference_parse_document, data)


class _Trickle:
    """A binary file whose reads return 1-7 bytes each, as a pipe may, cycling through sizes."""

    def __init__(self, data, sizes):
        self.data, self.sizes, self.at = data, itertools.cycle(sizes), 0

    def read(self, n):
        chunk = self.data[self.at:self.at + min(n, next(self.sizes))]
        self.at += len(chunk)
        return chunk


@st.composite
def _utf16_documents(draw):
    # junk after the root element whose characters hold a 3E byte in either half, so a '>'
    # byte may start or end a character, or pair with the next character's 00 byte
    codec, bom = draw(st.sampled_from([("utf-16-be", codecs.BOM_UTF16_BE),
                                       ("utf-16-le", codecs.BOM_UTF16_LE)]))
    junk = draw(st.text(st.sampled_from("ab=> \u3e00\u3e41\u413e\u4100\u0100"), max_size=6))
    text = (draw(st.sampled_from(['<?xml version="1.0" encoding="UTF-16"?>', ""]))
            + write_document_xml(draw(_documents())).decode() + junk)
    return draw(st.sampled_from([bom, b""])) + text.encode(codec)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_mutated_documents(), _documents().map(write_document_xml), _utf16_documents()),
       st.lists(st.integers(1, 7), min_size=1, max_size=8))
@example(codecs.BOM_UTF8 + MINIMAL, [1])  # the BOM comes in three reads
@example(codecs.BOM_UTF8 + codecs.BOM_UTF8 + MINIMAL, [2])
@example(_one_token("<token>caf\u00e9 &amp; \u4e2d&#x4e2d;</token>"), [1])
@example(_one_token('<token bold="yes">x</token>') + b"\x00", [7])  # the malformed byte wins
@example(MINIMAL + b'size="nan" ', [1])  # a name cut short after the root element
# a name after the root element holds 00 3E at an odd offset: half of U+0100, half of U+3E00
@example(codecs.BOM_UTF16_BE + (MINIMAL.decode() + "ab\u0100\u3e00c=").encode("utf-16-be"), [2])
def test_file_input_matches_bytes_input(data, sizes):
    # read boundaries fall inside names, entities, multi-byte characters and a leading BOM
    assert (_outcome(lambda data: parse_document(_Trickle(data, sizes)), data)
            == _outcome(parse_document, data))


def test_input_in_one_block_reaches_expat_whole():
    # in UTF-16 a '>' byte may sit inside another character: here a name after the root element
    text = '<?xml version="1.0" encoding="UTF-16"?>' + MINIMAL.decode() + "a\u3e00b="
    data = codecs.BOM_UTF16_BE + text.encode("utf-16-be")
    assert _outcome(parse_document, data) == _outcome(reference_parse_document, data)
    assert "not well-formed (invalid token)" in _outcome(parse_document, data)[0][1]
