import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tocdetect import schema, tree
from tocdetect.dataset import Dataset, load_csv, table1_fixture
from tocdetect.docmodel import DocumentModel, Line, Page, Token, parse_document, write_document_xml
from tocdetect.errors import ColumnMismatch, DatasetError, EmptyDataset
from tocdetect.features import FeatureConfig, extract_features, write_feature_csv
from tocdetect.pipeline import (
    DetectionResult,
    EvaluationReport,
    detect,
    evaluate,
    leave_one_out,
    scan_count,
)
from tocdetect.schema import ClassLabel
from tocdetect.tree import Node, TrainedModel, classify, learn, load_model, save_model

from helpers import canonical_toc_page, doc, page

TOC, NON = ClassLabel.TOC, ClassLabel.NON_TOC


def constant_model(label):
    counts = (1, 0) if label is TOC else (0, 1)
    return TrainedModel(root=Node(counts), columns=())


def plain_doc(n_pages, doc_id="doc"):
    return doc(
        [page([["plain", "prose", "line"]], index=i + 1) for i in range(n_pages)],
        doc_id=doc_id,
    )


# -- detect ---------------------------------------------------------------------

def test_detect_scans_three_of_ten_pages():
    result = detect(plain_doc(10), constant_model(NON), prefix_fraction=0.3)
    assert result.scanned_pages == (1, 2, 3)
    assert result.toc_pages == ()


def test_detect_single_page_minimum():
    result = detect(plain_doc(1), constant_model(NON), prefix_fraction=0.15)
    assert result.scanned_pages == (1,)


def test_detect_constant_toc_model_reports_all_scanned():
    result = detect(plain_doc(4), constant_model(TOC), prefix_fraction=1.0)
    assert [p for p, _ in result.toc_pages] == [1, 2, 3, 4]


def test_detect_rejects_bad_fraction():
    with pytest.raises(ValueError):
        detect(plain_doc(2), constant_model(NON), prefix_fraction=1.5)
    with pytest.raises(ValueError):
        detect(plain_doc(2), constant_model(NON), prefix_fraction=0.0)
    # True == 1 passes the range check, but is no fraction: detect's own check rejects it
    with pytest.raises(ValueError, match=r"must be a number in \(0, 1\], got True"):
        detect(plain_doc(2), constant_model(NON), prefix_fraction=True)
    # only int and float: a str cannot be compared, and these do not serialize as JSON
    for bad in ("0.5", Fraction(1, 3), Decimal("0.3")):
        with pytest.raises(ValueError, match=r"must be a number in \(0, 1\], got "):
            detect(plain_doc(2), constant_model(NON), prefix_fraction=bad)


def test_detect_matches_normalized_font_class_branch():
    # extraction keeps the raw font name, "Times New Roman"; detect normalizes it to match the
    # CSV-trained branch key
    data = load_csv(b"title_term_font_class,label\nTIMES_NEW_ROMAN,TOC\nARIAL,NON-TOC\n")
    result = detect(doc([canonical_toc_page()]), learn(data), prefix_fraction=1.0)
    assert result.toc_pages == ((1, (1, 0)),)


def test_scan_count_exact_arithmetic():
    # 0.3 * 10 must scan 3 pages despite float representation of 0.3
    assert scan_count(10, 0.3) == 3
    assert scan_count(10, 0.15) == 2
    assert scan_count(1, 0.15) == 1
    assert scan_count(40, 1.0) == 40


@given(st.integers(1, 40), st.sampled_from([0.15, 0.2, 0.3, 1.0]))
def test_detect_prefix_property(n_pages, fraction):
    result = detect(plain_doc(n_pages), constant_model(TOC), prefix_fraction=fraction)
    expected = max(1, math.ceil(Fraction(str(fraction)) * n_pages))
    assert len(result.scanned_pages) == expected
    assert result.scanned_pages == tuple(range(1, expected + 1))
    assert all(p in result.scanned_pages for p, _ in result.toc_pages)


def test_detection_result_renderings():
    result = detect(plain_doc(3, doc_id="book"), constant_model(NON), 1.0)
    text = result.to_text()
    assert "book" in text and "none detected" in text
    payload = result.to_json_dict()
    assert payload["document_id"] == "book"
    assert payload["scanned_pages"] == [1, 2, 3]
    assert payload["toc_pages"] == []


# -- evaluate -------------------------------------------------------------------

def test_evaluate_table1_model_on_table1():
    data = table1_fixture()
    report = evaluate(learn(data), data)
    assert (report.tp, report.fp, report.fn, report.tn) == (8, 0, 0, 2)
    assert report.accuracy == 1.0


def test_evaluate_all_toc_predictions_on_table1():
    report = evaluate(constant_model(TOC), table1_fixture())
    assert report.accuracy == pytest.approx(0.8)
    assert report.recall == 1.0
    assert report.precision == pytest.approx(0.8)


def test_evaluate_zero_denominator_conventions():
    data = Dataset(
        columns=("contains_title_term",),
        rows=(((True,), NON), ((False,), NON)),
    )
    report = evaluate(constant_model(NON), data)
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0


def test_evaluate_column_mismatch():
    model = learn(table1_fixture())
    data = Dataset(columns=("contains_title_term",), rows=(((True,), TOC),))
    with pytest.raises(ColumnMismatch):
        evaluate(model, data)


def test_evaluate_empty_dataset():
    with pytest.raises(EmptyDataset):
        evaluate(constant_model(TOC), Dataset(columns=("contains_title_term",), rows=()))


def test_confusion_cells_sum_and_metrics_recompute():
    data = table1_fixture()
    report = evaluate(constant_model(TOC), data)
    assert report.total == len(data.rows)
    assert report.accuracy == (report.tp + report.tn) / report.total
    assert report.to_json_dict()["confusion"] == {
        "tp": report.tp, "fp": report.fp, "fn": report.fn, "tn": report.tn
    }


def test_report_text_rendering():
    text = evaluate(constant_model(TOC), table1_fixture()).to_text()
    assert "accuracy  0.8000" in text
    assert "recall    1.0000" in text


def test_empty_report_reads_zero():
    # evaluate never builds one, but the class is public
    report = EvaluationReport(0, 0, 0, 0)
    assert (report.accuracy, report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0, 0.0)
    assert report.to_json_dict() == {"confusion": {"tp": 0, "fp": 0, "fn": 0, "tn": 0},
                                     "accuracy": 0.0, "precision": 0.0, "recall": 0.0, "f1": 0.0}
    assert "accuracy  0.0000" in report.to_text()


# -- leave_one_out -----------------------------------------------------------------

def test_loo_memorizes_duplicate_rows():
    data = Dataset(
        columns=("contains_title_term",),
        rows=(((True,), TOC), ((True,), TOC)),
    )
    assert leave_one_out(data).accuracy == 1.0


def test_loo_two_distinct_rows_cross_predict():
    data = Dataset(
        columns=("outgoing_link_frequency",),
        rows=(((0.9,), TOC), ((0.1,), NON)),
    )
    report = leave_one_out(data)
    assert report.accuracy == 0.0  # each fold trains on the other label only


def test_loo_table1_cells_sum_to_ten():
    report = leave_one_out(table1_fixture())
    assert report.total == 10


def test_loo_requires_two_rows():
    data = Dataset(columns=("contains_title_term",), rows=(((True,), TOC),))
    with pytest.raises(EmptyDataset):
        leave_one_out(data)
    with pytest.raises(EmptyDataset):  # before the limits are checked
        leave_one_out(data, max_depth=0)


@pytest.mark.parametrize("limits", [{"min_rows": 0}, {"max_depth": 0}],
                         ids=["min-rows-0", "max-depth-0"])
def test_loo_rejects_limits_below_one(limits):
    with pytest.raises(ValueError, match=f"{next(iter(limits))} must be >= 1"):
        leave_one_out(table1_fixture(), **limits)


# -- one check per value ------------------------------------------------------------

def test_evaluate_and_loo_check_no_value_a_dataset_holds(monkeypatch):
    data = table1_fixture()
    model = learn(data)
    checked = []
    check_value = schema.check_value

    def counting(column, value, row=None):
        checked.append(column)
        return check_value(column, value, row=row)

    monkeypatch.setattr(schema, "check_value", counting)
    evaluate(model, data)
    leave_one_out(data)
    leave_one_out(data, max_depth=1, min_rows=2)
    assert checked == []
    classify(model, dict(zip(data.columns, data.rows[0][0])))
    assert checked == list(model.columns)  # the public walk still checks its input


# training draws each categorical column from all levels but the last, so test rows
# may carry a level no node has a branch for; levels are given in unnormalized spellings
_LEVELS = {
    "title_term_style": ["largest", "Most-Frequent", "NA", "intermediate"],
    "title_term_font_class": ["Times New Roman", "ARIAL", "courier-new"],
}
_VALUES = {
    "contains_title_term": st.booleans(),
    "numbers_ascending": st.booleans(),
    "contextual_term_count": st.integers(0, 4),
    "section_term_frequency": st.floats(0, 1),
    "outgoing_link_frequency": st.sampled_from([i / 4 for i in range(5)]),
}


@st.composite
def _train_test(draw):
    columns = tuple(draw(st.lists(st.sampled_from(sorted({*_VALUES, *_LEVELS})),
                                  min_size=1, max_size=4, unique=True)))

    def dataset(min_size, seen_levels_only):
        def value(column):
            if column in _LEVELS:
                levels = _LEVELS[column][:-1] if seen_levels_only else _LEVELS[column]
                return draw(st.sampled_from(levels))
            return draw(_VALUES[column])

        n = draw(st.integers(min_size, 12))
        return Dataset(columns=columns, rows=tuple(
            (tuple(value(c) for c in columns), draw(st.sampled_from([TOC, NON])))
            for _ in range(n)))

    limits = draw(st.fixed_dictionaries({}, optional={
        "max_depth": st.integers(1, 3), "min_rows": st.integers(1, 3)}))
    return dataset(2, True), dataset(1, False), limits


def _tally_of(pairs):
    c = Counter(pairs)
    return EvaluationReport(tp=c[TOC, TOC], fp=c[NON, TOC], fn=c[TOC, NON], tn=c[NON, NON])


@settings(max_examples=200, deadline=None)
@given(_train_test())
def test_evaluate_and_loo_match_the_public_classify(train_test_limits):
    train, test, limits = train_test_limits
    model = learn(train, **limits)
    assert evaluate(model, test) == _tally_of(
        (gold, classify(model, dict(zip(test.columns, values)))[0]) for values, gold in test.rows)
    # reference: for each fold, learn from a newly checked Dataset and classify publicly
    folds = []
    for i, (values, gold) in enumerate(train.rows):
        rest = Dataset(columns=train.columns, rows=train.rows[:i] + train.rows[i + 1:])
        fold_model = learn(rest, **limits)
        folds.append((gold, classify(fold_model, dict(zip(train.columns, values)))[0]))
    assert leave_one_out(train, **limits) == _tally_of(folds)


# few values per column, so rows repeat, levels appear once, and a twin column ties every gain
_LOO_VALUES = {
    "contains_title_term": st.booleans(),
    "title_term_font_class": st.sampled_from(["A", "B", "C", "D", "E", "F"]),
    "contextual_term_count": st.integers(0, 9),
    "section_term_frequency": st.sampled_from([0.0, 0.25, 0.5, 1.0]),
}


@st.composite
def _loo_data(draw):
    columns = draw(st.lists(st.sampled_from(sorted(_LOO_VALUES)), min_size=1, unique=True))
    twin = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(2, 20))):
        values = {c: draw(_LOO_VALUES[c]) for c in columns}
        if twin:
            values["outgoing_link_frequency"] = values.get("section_term_frequency", 0.5)
        rows.append((tuple(values.values()), draw(st.sampled_from([TOC, NON]))))
    names = tuple(columns) + (("outgoing_link_frequency",) if twin else ())
    limits = draw(st.fixed_dictionaries({}, optional={
        "max_depth": st.integers(1, 5), "min_rows": st.integers(1, 4)}))
    return Dataset(columns=names, rows=tuple(rows)), limits


def _loo_reference(data, max_depth=None, min_rows=1):
    """Learn every fold's whole tree and walk the held-out row; also the depth of the deepest
    node that such a walk stops at."""
    pairs, deepest = [], 0
    for i, (values, gold) in enumerate(data.rows):
        fold = Dataset(columns=data.columns, rows=data.rows[:i] + data.rows[i + 1:])
        node = learn(fold, max_depth=max_depth, min_rows=min_rows).root
        vector = dict(zip(data.columns, values))
        pairs.append((gold, tree._walk(node, vector)[0]))
        depth = 0
        while node.branches:
            key = vector[node.feature]
            key = key if node.threshold is None else key <= node.threshold
            if key not in node.branches:
                break
            node, depth = node.branches[key], depth + 1
        deepest = max(deepest, depth)
    return _tally_of(pairs), deepest


_CHAIN = Dataset(columns=("contextual_term_count",),
                 rows=tuple(((i,), TOC if i % 2 else NON) for i in range(9)))


@settings(max_examples=300, deadline=None)
@given(_loo_data())
@example((_CHAIN, {}))  # chains: held-out rows stop at depths 1 to 7
def test_loo_matches_learning_every_fold(data_limits):
    data, limits = data_limits
    expected, deepest = _loo_reference(data, **limits)
    assert leave_one_out(data, **limits) == expected
    # with a lower depth limit, a fold fails only where its held-out row's walk passes it
    with mock.patch.object(tree, "MAX_TREE_DEPTH", 3):
        if deepest > 3:
            with pytest.raises(DatasetError, match="tree deeper than 3 levels"):
                leave_one_out(data, **limits)
        else:
            assert leave_one_out(data, **limits) == expected


def test_loo_grows_only_the_held_out_rows_paths():
    # growing each fold's whole tree searches 56 nodes' splits on the chain; learn searches 8
    with mock.patch.object(tree, "_search", wraps=tree._search) as spy:
        leave_one_out(_CHAIN)
    assert spy.call_count == 28


# -- the train/predict contract ------------------------------------------------------

# fonts that normalize alike, need CSV or XML quoting, or change length under case mapping
_FONTS = ["Times New Roman", "times-new roman", "a,b", 'q"uote', "\u00df", "\u01c5", "\u0130",
          "\ufb01", "\u03a9-\u03c9", "_", "-"]
_WORDS = ["Contents", "table of", "CONTENTS", "Inhalt", "Chapter", "KAPITEL", "\u00df", "\u0130",
          "1.", "2.1", "7", "7", "12", "345678", "prose"]
_doc_token = st.builds(
    Token, st.sampled_from(_WORDS), font_family=st.sampled_from(_FONTS),
    font_size=st.sampled_from([0.0, 9.5, 12.0, 18.0]), link_target=st.sampled_from([None, "p2"]))
_documents = st.lists(st.lists(st.lists(_doc_token, max_size=4), max_size=5), min_size=1,
                      max_size=6).map(lambda pages: DocumentModel(id="d", pages=tuple(
                          Page(index=p, lines=tuple(Line(tokens=tuple(tokens), index=i)
                                                    for i, tokens in enumerate(lines)))
                          for p, lines in enumerate(pages, start=1))))
_configs = st.builds(
    FeatureConfig,
    title_terms=st.lists(st.sampled_from(["contents", "table of contents", "Inhalt", "\u00df",
                                          "\u0130"]), min_size=1, max_size=3).map(tuple),
    section_keywords=st.sets(st.sampled_from(["chapter", "Kapitel", "SS", "\u0130"]), min_size=1),
    max_page_number_digits=st.integers(1, 6),
)


@settings(max_examples=150, deadline=None)
@given(_documents, _configs, st.data())
def test_train_and_predict_see_the_same_features_and_config(document, cfg, data):
    parsed = parse_document(write_document_xml(document))
    vectors = [extract_features(p, cfg) for p in parsed.pages]
    labels = data.draw(st.lists(st.sampled_from([TOC, NON]), min_size=len(vectors),
                                max_size=len(vectors)))
    loaded = load_csv(write_feature_csv(
        (p.index, vector, label) for p, vector, label in zip(parsed.pages, vectors, labels)))
    assert [values for values, _ in loaded.rows] == [
        tuple(schema.check_value(c, vector.as_dict()[c]) for c in loaded.columns)
        for vector in vectors]
    model = load_model(save_model(learn(loaded, config=cfg)))  # the config rides in the model
    assert model.config_echo == cfg
    trained_toc = [p.index for p, (values, _) in zip(parsed.pages, loaded.rows)
                   if classify(model, dict(zip(loaded.columns, values)))[0] is TOC]
    detected = detect(parsed, model, prefix_fraction=1.0)
    assert [index for index, _ in detected.toc_pages] == trained_toc


# -- detect walks extraction's values ----------------------------------------------

# training rows take the page fonts' spellings, and others of the same levels, so font
# branches match page fonts in every spelling
_MODEL_VALUES = {
    **_VALUES,
    "title_term_font_class": st.sampled_from(_FONTS + ["TIMES_NEW_ROMAN", "Times-New-Roman",
                                                       "SS", "Courier New"]),
    "title_term_style": st.sampled_from(schema.STYLE_LEVELS),
    "title_term_line_position": st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    "line_end_number_frequency": st.sampled_from([0.0, 0.25, 0.5, 1.0]),
}


@st.composite
def _models(draw):
    columns = draw(st.lists(st.sampled_from(sorted(_MODEL_VALUES)), min_size=1, max_size=4,
                            unique=True))
    rows = draw(st.lists(st.tuples(st.tuples(*(_MODEL_VALUES[c] for c in columns)),
                                   st.sampled_from([TOC, NON])), min_size=1, max_size=12))
    return learn(Dataset(columns=tuple(columns), rows=tuple(rows)), config=draw(_configs))


@settings(max_examples=200, deadline=None)
@given(_documents, _models())
@example(doc([canonical_toc_page(), page([["Contents"]], index=2)]),
         learn(load_csv(b"title_term_font_class,label\nTIMES-new roman,TOC\nunknown,NON-TOC\n")))
def test_detect_gives_what_classify_gives_for_extracted_values(document, model):
    expected = []
    for p in document.pages:
        label, counts = classify(model, extract_features(p, model.config_echo).as_dict())
        if label is TOC:
            expected.append((p.index, counts))
    assert detect(document, model, prefix_fraction=1.0).toc_pages == tuple(expected)
