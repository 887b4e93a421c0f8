"""Structured page model parsed from the documented XML schema.

The XML producer (an external PDF/OCR converter) supplies pre-segmented
tokens; this module parses and validates them in one expat pass:

    <document id="STRING">
      <page index="POSITIVE-INT">
        <line>
          <token font="STRING"? size="NON-NEG-DECIMAL"? bold="true|false"?
                 italic="true|false"? link="STRING"?>TEXT</token>
        </line>
      </page>
    </document>

Page indexes must strictly increase in document order. Unknown elements
inside <line> and unknown <token> attributes are ignored with a warning,
logged only for well-formed input; other attributes on <document>, <page>
and <line> are ignored silently. A <token> holds text only. Input is
UTF-8 unless an XML declaration names another encoding; a leading UTF-8
BOM is tolerated. Names read as in ElementTree: "{uri}local" if namespaced.

The input is bytes or a binary file. Expat reads a file as it parses, once
and to its end, so the whole input is never held and a pipe will do.

Equal tokens are shared within a document: tokens with equal text and the
same attributes, as written, are one Token object, so treat every Token as
read-only. Tokens with the same attributes hold one font, size and link.
Each distinct attribute set is checked once; every token still gets its own
warnings and its empty-text check. The model holds no reference cycles.
"""

from __future__ import annotations

import codecs
import io
import logging
import math
from xml.parsers import expat

from .errors import MalformedXml, SchemaViolation
from .record import Frozen, Record
from .schema import parse_number

log = logging.getLogger(__name__)
_TOKEN_ATTRS = {"font", "size", "bold", "italic", "link"}
_BLOCK = 1 << 16
# the '>' of UTF-16 input, told by its BOM or by its first '<'; expat's other encodings are
# UTF-8 and single-byte ones
_UTF16_GT = {codecs.BOM_UTF16_BE: b"\0>", b"\0<": b"\0>",
             codecs.BOM_UTF16_LE: b">\0", b"<\0": b">\0"}


class Token(Record):
    """One token; parse_document guarantees trimmed, non-empty text and a finite size >= 0.

    parse_document gives equal tokens of a document one shared object: do not mutate one.
    """
    __slots__ = _fields = ("text", "font_family", "font_size", "bold", "italic", "link_target")

    def __init__(self, text: str, font_family: str = "unknown", font_size: float = 0.0,
                 bold: bool = False, italic: bool = False, link_target: str | None = None):
        self.text = text
        self.font_family = font_family
        self.font_size = font_size  # points; 0.0 means unknown
        self.bold = bold
        self.italic = italic
        self.link_target = link_target


class Line(Frozen):
    __slots__ = _fields = ("tokens", "index")

    def __init__(self, tokens: tuple[Token, ...], index: int):  # index: zero-based, in the page
        object.__setattr__(self, "tokens", tokens)  # as _set does, unrolled: parsing builds many
        object.__setattr__(self, "index", index)


class Page(Frozen):
    __slots__ = _fields = ("index", "lines")

    def __init__(self, index: int, lines: tuple[Line, ...]):  # index: one-based page number
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "lines", lines)


class DocumentModel(Frozen):
    _fields = ("id", "pages")

    def __init__(self, id: str, pages: tuple[Page, ...]):
        self._set(id, pages)


def _et_name(name: str) -> str:
    """ElementTree's spelling of an expat name: expat's "uri}local" becomes "{uri}local"."""
    return "{" + name if "}" in name else name


def _check_token_attrs(attrs: dict, where: str) -> tuple:
    """(font, size, bold, italic, link) from a <token>'s attributes; raises SchemaViolation."""
    raw_size = attrs.get("size", "0.0")
    try:
        size = parse_number(raw_size, float)
    except ValueError:
        raise SchemaViolation(f"size={raw_size!r} is not a decimal", where)
    if not (math.isfinite(size) and size >= 0.0):
        raise SchemaViolation(f"size={raw_size!r} is not a finite, non-negative decimal", where)
    for attr in ("bold", "italic"):
        raw = attrs.get(attr, "false")
        if raw not in ("true", "false"):
            raise SchemaViolation(f"attribute {attr}={raw!r} is not true/false", where)
    font = attrs.get("font", "")  # blank counts as absent: no empty feature level
    return (font if font.strip() else "unknown", size, attrs.get("bold") == "true",
            attrs.get("italic") == "true", attrs.get("link"))


def parse_document(source) -> DocumentModel:
    """Parse and validate document XML from bytes or a binary file; raises MalformedXml /
    SchemaViolation. A file is read once, to its end, and never rewound, so a pipe will do."""
    fh = source if hasattr(source, "read") else io.BytesIO(source)
    head = b""
    while len(head) < 3 and (more := fh.read(3 - len(head))):  # a pipe may return fewer
        head += more
    pages, lines, tokens, chunks, warnings = [], [], [], [], []
    checked, shared = {}, {}  # token attributes -> their checked values; (text, attrs) -> Token
    doc_id = token_attrs = violation = None  # token_attrs: the open <token>'s, None elsewhere
    depth = prev_index = child = 0  # child: 1-based among the open <line>'s elements
    parser = expat.ParserCreate(namespace_separator="}")  # set up as ElementTree.fromstring sets it

    def path(level):  # of the open page (2), line (3) or token (4)
        steps = "document", f"page[{len(pages) + 1}]", f"line[{len(lines) + 1}]", f"token[{child}]"
        return "/".join(steps[:level])

    def stop_checking(exc):  # ElementTree parsed all input before any check: a malformed byte wins
        nonlocal violation
        violation = exc
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = lambda data: None  # text must not reach undefined_entity

    def start(name, attrs):
        nonlocal depth, doc_id, prev_index, child, token_attrs
        depth += 1
        try:
            if depth == 4:  # a child of <line>
                child += 1
                token_attrs = attrs if name == "token" else None
                if token_attrs is None:
                    warnings.append(("%s: ignoring unknown element <%s>", path(3), _et_name(name)))
                chunks.clear()
            elif depth == 5 and token_attrs is not None:
                raise SchemaViolation(f"unexpected element <{_et_name(name)}>", path(4))
            elif depth == 1:
                name = _et_name(name)
                if name != "document":
                    raise SchemaViolation(f"root element is <{name}>, expected <document>", name)
                doc_id = attrs.get("id")
                if doc_id is None:
                    raise SchemaViolation("missing id attribute", "document")
            elif depth < 4 and name != ("page" if depth == 2 else "line"):
                raise SchemaViolation(f"unexpected element <{_et_name(name)}>", path(depth))
            elif depth == 2:
                raw_index = attrs.get("index")
                if raw_index is None:
                    raise SchemaViolation("missing index attribute", path(2))
                try:
                    index = parse_number(raw_index)
                except ValueError:
                    raise SchemaViolation(f"index={raw_index!r} is not an integer", path(2))
                if index <= prev_index:
                    raise SchemaViolation(
                        f"page index {index} not strictly greater than {prev_index}", path(2))
                prev_index = index
        except SchemaViolation as exc:
            stop_checking(exc)

    def end(name):
        nonlocal depth, child
        depth -= 1
        if depth == 3 and token_attrs is not None:  # </token>
            key = tuple(token_attrs.items())
            known = checked.get(key)  # (unknown names, font, size, bold, italic, link)
            unknown = known[0] if known else [_et_name(a) for a in token_attrs
                                              if a not in _TOKEN_ATTRS]
            for attr in unknown:
                warnings.append(("%s: ignoring unknown attribute %r", path(4), attr))
            text = "".join(chunks).strip()
            try:
                if not text:
                    raise SchemaViolation("token has empty text", path(4))
                if known is None:
                    known = checked[key] = (unknown, *_check_token_attrs(token_attrs, path(4)))
            except SchemaViolation as exc:
                stop_checking(exc)
                return
            token = shared.get((text, key))
            if token is None:
                token = shared[text, key] = Token(text, *known[1:])
            tokens.append(token)
        elif depth == 2:  # </line>
            lines.append(Line(tokens=tuple(tokens), index=len(lines)))
            tokens.clear()
            child = 0
        elif depth == 1:  # </page>
            pages.append(Page(index=prev_index, lines=tuple(lines)))
            lines.clear()

    def undefined_entity(data):  # how ElementTree hears of a reference expat could not expand
        if data.startswith("&") and len(data) >= 2:
            name = data.encode()[:100].decode(errors="replace")  # ElementTree's 100-byte cut
            raise MalformedXml(f"undefined entity {name}: line {parser.CurrentLineNumber}, "
                               f"column {parser.CurrentColumnNumber}")

    parser.DefaultHandlerExpand = undefined_entity
    parser.CharacterDataHandler = chunks.append  # text may come in several chunks
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    # Expat gets the input up to a '>' in the last block read before more input, and the rest
    # at the end: a name cut short after the root element would read as junk there, where the
    # whole input gives another error. Only the last held block can hold a '>'. In UTF-16 a
    # '>' is a byte pair at an even offset; a 3E byte alone may be half of another character.
    gt = _UTF16_GT.get(head[:2], b">")
    held = [b"" if head == codecs.BOM_UTF8 else head]
    at = len(head) - len(held[0])  # input offset of held[-1]
    try:
        while block := fh.read(_BLOCK):
            last = held[-1]
            cut = last.rfind(gt)
            while cut >= 0 and (at + cut) % len(gt):
                cut = last.rfind(gt, 0, cut + len(gt) - 1)
            if cut >= 0:
                cut += len(gt)
                held[-1] = last[:cut]
                parser.Parse(b"".join(held), False)
                held = [last[cut:]]
            at += len(last)
            held.append(block)
        parser.Parse(b"".join(held), True)
    except (expat.ExpatError, LookupError, ValueError) as exc:  # the last two: bad encoding="..."
        raise MalformedXml(str(exc)) from exc
    finally:  # the parser and its handlers refer to each other: free the handlers now
        parser.DefaultHandlerExpand = parser.CharacterDataHandler = None
        parser.StartElementHandler = parser.EndElementHandler = None
    for warning in warnings:  # held until the whole input is known to be well-formed
        log.warning(*warning)
    if violation is not None:
        raise violation
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
