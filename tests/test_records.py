"""The record classes' contract: constructors, equality, repr, immutability, hashing, slots,
pickling, and the checks and normalization FeatureConfig and Dataset apply."""

import copy
import pickle

import pytest

from tocdetect.dataset import Dataset
from tocdetect.docmodel import DocumentModel, Line, Page, Token
from tocdetect.errors import DataTypeError, UnknownColumn
from tocdetect.features import (
    DEFAULT_SECTION_KEYWORDS,
    DEFAULT_TITLE_TERMS,
    FeatureConfig,
    FeatureVector,
)
from tocdetect.pipeline import DetectionResult, EvaluationReport
from tocdetect.schema import ClassLabel
from tocdetect.tree import Node, TrainedModel

TOC, NON = ClassLabel.TOC, ClassLabel.NON_TOC
_TOKEN = Token("Contents", "Times", 18.0, True, False, "p2")
_LEAF = Node((1, 0))
_SPLIT = Node((1, 2), "contextual_term_count", 0.5, {True: _LEAF, False: Node((0, 2))})


class Spec:
    def __init__(self, cls, fields, values, defaults=None, other=None, frozen=True,
                 hashable=True, slots=False):
        self.cls, self.fields, self.values = cls, fields, values
        self.defaults = defaults or {}  # trailing fields' defaults
        self.other = other  # a value of the first field, unequal to values[0]
        self.frozen, self.hashable, self.slots = frozen, hashable, slots

    def __repr__(self):
        return self.cls.__name__


# values are already in the normalized form each constructor stores
SPECS = [
    Spec(Token, ("text", "font_family", "font_size", "bold", "italic", "link_target"),
         ("Contents", "Times", 18.0, True, False, "p2"),
         {"font_family": "unknown", "font_size": 0.0, "bold": False, "italic": False,
          "link_target": None}, "Index", frozen=False, hashable=False, slots=True),
    Spec(Line, ("tokens", "index"), ((), 0), other=(_TOKEN,), slots=True),
    Spec(Page, ("index", "lines"), (1, (Line((), 0),)), other=2, slots=True),
    Spec(DocumentModel, ("id", "pages"), ("d", (Page(1, ()),)), other="e"),
    Spec(FeatureConfig, ("title_terms", "section_keywords", "max_page_number_digits"),
         (("contents",), frozenset({"chapter"}), 3),
         {"title_terms": DEFAULT_TITLE_TERMS, "section_keywords": DEFAULT_SECTION_KEYWORDS,
          "max_page_number_digits": 4}, ("index",)),
    Spec(FeatureVector,
         ("contains_title_term", "title_term_style", "title_term_font_class",
          "contextual_term_count", "section_term_frequency", "title_term_line_position",
          "line_start_number_frequency", "line_end_number_frequency", "numbers_ascending",
          "outgoing_link_frequency"),
         (True, "LARGEST", "SANS", 0, 0.5, 0.0, 0.25, 0.75, True, 0.0), other=False),
    Spec(Dataset, ("columns", "rows"),
         (("contains_title_term",), (((True,), TOC), ((False,), NON))),
         other=("numbers_ascending",)),
    Spec(Node, ("counts", "feature", "threshold", "branches"),
         (_SPLIT.counts, _SPLIT.feature, _SPLIT.threshold, _SPLIT.branches),
         {"feature": None, "threshold": None, "branches": {}}, (2, 2), hashable=False),
    Spec(TrainedModel, ("root", "columns", "config_echo"),
         (_SPLIT, ("contextual_term_count",), FeatureConfig(max_page_number_digits=2)),
         {"config_echo": FeatureConfig()}, _LEAF, hashable=False),  # a Node does not hash
    Spec(DetectionResult, ("document_id", "scanned_pages", "toc_pages", "prefix_fraction"),
         ("d", (1, 2), ((1, (3, 0)),), 0.3), other="e"),
    Spec(EvaluationReport, ("tp", "fp", "fn", "tn"), (1, 2, 3, 4), other=0),
]


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_construction_by_position_and_keyword(spec):
    by_position = spec.cls(*spec.values)
    by_keyword = spec.cls(**dict(zip(spec.fields, spec.values)))
    for record in by_position, by_keyword:
        assert tuple(getattr(record, name) for name in spec.fields) == spec.values
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        spec.cls(*spec.values, None)  # one value too many


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_defaults(spec):
    required = len(spec.fields) - len(spec.defaults)
    record = spec.cls(*spec.values[:required])
    assert {name: getattr(record, name) for name in spec.defaults} == spec.defaults
    if required:
        with pytest.raises(TypeError):
            spec.cls(*spec.values[:required - 1])


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_equality_and_repr(spec):
    record = spec.cls(*spec.values)
    assert record == spec.cls(*spec.values)
    assert not record != spec.cls(*spec.values)
    assert record != spec.cls(spec.other, *spec.values[1:])
    assert record != spec.values and record != object()
    text = repr(record)
    assert text.startswith(f"{spec.cls.__name__}(")
    for name, value in zip(spec.fields, spec.values):
        assert f"{name}={value!r}" in text


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_frozen_hashed_and_slotted_as_before(spec):
    record = spec.cls(*spec.values)
    name = spec.fields[0]
    if spec.frozen:
        with pytest.raises(AttributeError):
            setattr(record, name, spec.other)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == spec.values[0]
    else:
        setattr(record, name, spec.other)
        assert getattr(record, name) == spec.other
    if spec.hashable:
        assert hash(record) == hash(spec.cls(*spec.values))
    else:
        with pytest.raises(TypeError):
            hash(record)
    assert hasattr(record, "__dict__") is not spec.slots


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_pickle_and_deepcopy_round_trip(spec):
    record = spec.cls(*spec.values)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_feature_config_checks_and_normalizes():
    cfg = FeatureConfig(title_terms=["Table  Of Contents"], section_keywords=[" Chapter "])
    assert cfg.title_terms == ("table of contents",)
    assert cfg.section_keywords == frozenset({"chapter"})
    for kwargs in ({"title_terms": []}, {"title_terms": "contents"}, {"title_terms": [" "]},
                   {"section_keywords": "chapter"}, {"max_page_number_digits": 0},
                   {"max_page_number_digits": 2.0}):
        with pytest.raises(ValueError):
            FeatureConfig(**kwargs)


def test_dataset_checks_and_normalizes():
    data = Dataset(columns=("title_term_style", "contextual_term_count"),
                   rows=((("most-frequent", 3), TOC),))
    assert data.rows == ((("MOST_FREQUENT", 3), TOC),)
    with pytest.raises(UnknownColumn):
        Dataset(columns=(), rows=())
    with pytest.raises(UnknownColumn):
        Dataset(columns=("nope",), rows=())
    with pytest.raises(UnknownColumn):
        Dataset(columns=("numbers_ascending", "numbers_ascending"), rows=())
    with pytest.raises(UnknownColumn):
        Dataset(columns=("numbers_ascending",), rows=(((True, False), TOC),))
    with pytest.raises(DataTypeError):
        Dataset(columns=("numbers_ascending",), rows=(((True,), "TOC"),))
    with pytest.raises(DataTypeError):
        Dataset(columns=("contextual_term_count",), rows=(((-1,), TOC),))
