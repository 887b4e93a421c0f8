import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tocdetect.dataset import Dataset, load_csv, table1_fixture
from tocdetect.errors import ColumnMismatch, EmptyDataset
from tocdetect.pipeline import (
    DetectionResult,
    EvaluationReport,
    detect,
    evaluate,
    leave_one_out,
    scan_count,
)
from tocdetect.schema import ClassLabel
from tocdetect.tree import Leaf, TrainedModel, learn

from helpers import canonical_toc_page, doc, page

TOC, NON = ClassLabel.TOC, ClassLabel.NON_TOC


def constant_model(label):
    counts = (1, 0) if label is TOC else (0, 1)
    return TrainedModel(root=Leaf(counts), columns=())


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


def test_detect_matches_normalized_font_class_branch():
    # extraction keeps the raw font name; the CSV-trained branch key is normalized
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
