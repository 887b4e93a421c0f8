"""Structured page model parsed from the documented XML schema.

The XML producer (an external PDF/OCR converter) supplies pre-segmented
tokens; this module only parses and validates:

    <document id="STRING">
      <page index="POSITIVE-INT">
        <line>
          <token font="STRING"? size="NON-NEG-DECIMAL"? bold="true|false"?
                 italic="true|false"? link="STRING"?>TEXT</token>
        </line>
      </page>
    </document>

Page index attributes must be strictly increasing in document order.
Unknown elements inside <line> and unknown <token> attributes are ignored
with a warning; other attributes on <document>, <page> and <line> are
ignored silently. A <token> holds text only. Input is UTF-8 unless an XML
declaration names another encoding; a leading UTF-8 BOM is tolerated.
"""

from __future__ import annotations

import codecs
import logging
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .errors import MalformedXml, SchemaViolation
from .schema import parse_number

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Token:
    """One token; parse_document guarantees trimmed, non-empty text and a finite size >= 0."""
    text: str
    font_family: str = "unknown"
    font_size: float = 0.0  # points; 0.0 means unknown
    bold: bool = False
    italic: bool = False
    link_target: str | None = None


@dataclass(frozen=True)
class Line:
    tokens: tuple[Token, ...]
    index: int  # zero-based position within the page


@dataclass(frozen=True)
class Page:
    index: int  # one-based page number
    lines: tuple[Line, ...]


@dataclass(frozen=True)
class DocumentModel:
    id: str
    pages: tuple[Page, ...]


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


def parse_document(xml_bytes: bytes) -> DocumentModel:
    """Parse and validate document XML; raises MalformedXml / SchemaViolation."""
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


def write_document_xml(doc: DocumentModel) -> bytes:
    """Debug writer: re-serialize a model on the supported schema subset.

    parse_document(write_document_xml(doc)) is structurally equal to doc.
    """
    # imported here: saxutils pulls in urllib.request and http.client, which no other path needs
    from xml.sax.saxutils import escape, quoteattr
    out = [f"<document id={quoteattr(doc.id)}>"]
    for page in doc.pages:
        out.append(f'  <page index="{page.index}">')
        for line in page.lines:
            out.append("    <line>")
            for tok in line.tokens:
                attrs = [f"font={quoteattr(tok.font_family)}", f'size="{tok.font_size!r}"']
                if tok.bold:
                    attrs.append('bold="true"')
                if tok.italic:
                    attrs.append('italic="true"')
                if tok.link_target is not None:
                    attrs.append(f"link={quoteattr(tok.link_target)}")
                out.append(f"      <token {' '.join(attrs)}>{escape(tok.text)}</token>")
            out.append("    </line>")
        out.append("  </page>")
    out.append("</document>")
    return ("\n".join(out) + "\n").encode("utf-8")
