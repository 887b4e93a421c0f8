"""Bounded fuzz tests for every parser boundary: XML, CSV, model JSON, config, labels.

Each parser must return a value or raise TocDetectError; the CLI must exit
0-3 on the same inputs. Inputs are arbitrary bytes, or splices of format
fragments (and mutations of the golden model) that get past the first check.
A model file that loads must hold what save_model writes for it, up to
whitespace and key order.
"""

import json
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from tocdetect.cli import run
from tocdetect.dataset import load_csv, table1_csv_bytes
from tocdetect.docmodel import parse_document
from tocdetect.errors import TocDetectError
from tocdetect.schema import CANONICAL_COLUMNS
from tocdetect.tree import load_model, save_model

from helpers import reference_load_csv

GOLDEN_MODEL = (Path(__file__).parent / "goldens" / "table1_model.json").read_bytes()

_fuzz = settings(max_examples=300, deadline=None)
_fuzz_files = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _bytes_or_splice(fragments):
    return st.one_of(
        st.binary(max_size=300),
        st.lists(st.sampled_from(fragments), max_size=40).map(b"".join),
    )


_COMMON = [b" ", b"\n", b"\r", b"\r\n", b"#", b",", b"=", b"\xe9", b"\xef\xbb\xbf", b"\x00",
           b"0", b"1", b"-1", b"2.9", b"nan", b"1e400", b"9" * 5000]

_XML = _COMMON + [
    b'<document id="d">', b"</document>", b'<page index="1">', b'<page index="2">',
    b"<page>", b"</page>", b"<line>", b"</line>", b"<line/>", b"<token>", b"</token>",
    b'<token size="12.5" bold="true" font="Times" link="#p2">', b'<token size="nan">',
    b'<token italic="maybe" extra="x">', b"<other/>", b"Contents", b"&amp;", b"&undefined;",
    b'<?xml version="1.0" encoding="latin-1"?>', b'<?xml version="1.0" encoding="nope"?>',
    b'<!DOCTYPE document [<!ENTITY e "Contents">]>', b"&e;",
]

_CSV = _COMMON + [name.encode() for name in CANONICAL_COLUMNS] + [
    b"page", b"label", b"YES", b"NO", b"TOC", b"NON-TOC", b"LARGEST", b"Times New Roman",
    b"0.5", b'"', b'"a\nb"',
]

_CONFIG = _COMMON + [
    b"title_terms", b"section_keywords", b"max_page_number_digits", b"unknown_key",
    b"Table of Contents", b"Kapitel", b"\xc4\xb0",
]

_LABELS = _COMMON + [b"TOC", b"NON-TOC", b"non_toc", b"maybe", b"\xd9\xa1"]

_MODEL_KEYS = ["version", "columns", "feature_config", "summary", "root", "leaf", "num", "cat",
               "label", "counts", "TOC", "NON-TOC", "feature", "threshold", "le", "gt",
               "majority", "branches", "title_terms", "section_keywords",
               "max_page_number_digits", *CANONICAL_COLUMNS]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(_MODEL_KEYS + ["LARGEST", "YES", "contents", "Chapter", 10 ** 400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_MODEL_KEYS) | st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, child in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_models(draw):
    doc = json.loads(GOLDEN_MODEL)
    for _ in range(draw(st.integers(1, 3))):
        *parent, last = draw(st.sampled_from(list(_paths(doc))[1:]))
        container = doc
        for key in parent:
            container = container[key]
        container[last] = draw(_JSON_VALUES)
    return json.dumps(doc).encode()


@_fuzz
@given(_bytes_or_splice(_XML))
def test_parse_document_arbitrary_bytes(data):
    try:
        parse_document(data)
    except TocDetectError:
        pass


@_fuzz
@given(_bytes_or_splice(_CSV))
@example(table1_csv_bytes())
@example(b"section_term_frequency,label\n1.5,TOC\nabc,TOC\n")  # a parse error after a range error
@example(b"section_term_frequency,contextual_term_count,label\n0.5,-1,TOC\n1.5,-2,TOC\n")
@example(b"contextual_term_count,section_term_frequency,label\n1,0.5,TOC\n0.5,1,TOC\n")
def test_load_csv_arbitrary_bytes(data):
    # the same Dataset, or the same error, as parsing every cell and then checking every value
    assert _csv_outcome(load_csv, data) == _csv_outcome(reference_load_csv, data)


def _csv_outcome(load, data):
    try:
        return repr(load(data))  # not ==: 1 == 1.0 == True, but they are different cell values
    except TocDetectError as exc:
        return type(exc), str(exc)


@_fuzz
@given(st.one_of(st.binary(max_size=300), _mutated_models()))
@example(b'{"version": 1, "columns": ' + b"9" * 5000 + b"}")  # past int()'s digit limit
@example(GOLDEN_MODEL.replace(b'"version": 1', b'"version": true'))
def test_load_model_arbitrary_bytes(data):
    try:
        model = load_model(data)
    except TocDetectError:
        return
    saved = save_model(model)
    assert _canonical(saved) == _canonical(data)
    assert save_model(load_model(saved)) == saved


def _canonical(data: bytes) -> str:
    return json.dumps(json.loads(data.decode("utf-8")), sort_keys=True)


def _run_extract(tmp_path, flag, data) -> int:
    xml = tmp_path / "doc.xml"
    xml.write_bytes(b'<document id="d"><page index="1"><line><token>Contents</token></line>'
                    b'</page><page index="2"><line><token>1</token></line></page></document>')
    side = tmp_path / "side.txt"
    side.write_bytes(data)
    return run(["extract", str(xml), flag, str(side), "--out", str(tmp_path / "out.csv")])


@_fuzz_files
@given(data=_bytes_or_splice(_CONFIG))
def test_config_file_arbitrary_bytes(tmp_path, data):
    assert _run_extract(tmp_path, "--config", data) in (0, 1, 2, 3)


@_fuzz_files
@given(data=_bytes_or_splice(_LABELS))
def test_labels_file_arbitrary_bytes(tmp_path, data):
    assert _run_extract(tmp_path, "--labels", data) in (0, 1, 2, 3)
