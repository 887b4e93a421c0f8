import json
import os

import pytest

from tocdetect.cli import load_feature_config, run
from tocdetect.dataset import table1_csv_bytes
from tocdetect.docmodel import write_document_xml

from helpers import canonical_toc_page, doc, page

MINIMAL_XML = b'<document id="d"><page index="1"><line><token>Contents</token></line></page></document>'


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "table1.csv"
    path.write_bytes(table1_csv_bytes())
    return path


@pytest.fixture
def model_file(tmp_path, fixture_csv):
    path = tmp_path / "model.json"
    assert run(["train", str(fixture_csv), "--out", str(path)]) == 0
    return path


def synthetic_book(toc_page_index=2, n_pages=10):
    pages = []
    for i in range(1, n_pages + 1):
        if i == toc_page_index:
            pages.append(canonical_toc_page(index=i, with_links=True))
        else:
            pages.append(page([["prose", "on", "page"], ["more", "words"]], index=i))
    return doc(pages, doc_id="book")


# -- extract -------------------------------------------------------------------

def test_extract_minimal_doc(tmp_path, capsys):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(MINIMAL_XML)
    assert run(["extract", str(xml)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("page,contains_title_term,")
    assert "label" not in lines[0]


def test_extract_bad_xml_exit_2_no_partial_output(tmp_path, capsys):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(b"<document id=")
    out = tmp_path / "features.csv"
    assert run(["extract", str(xml), "--out", str(out)]) == 2
    assert not out.exists()
    assert "error[malformed-xml]" in capsys.readouterr().err
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tocdetect-")] == []


def test_extract_with_labels(tmp_path, capsys):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(write_document_xml(synthetic_book(n_pages=2)))
    labels = tmp_path / "labels.txt"
    labels.write_text("1 NON-TOC\n2 TOC\n")
    assert run(["extract", str(xml), "--labels", str(labels)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(",label")
    assert lines[1].endswith(",NON-TOC")
    assert lines[2].endswith(",TOC")


def test_extract_partial_labels_is_data_error(tmp_path, capsys):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(write_document_xml(synthetic_book(n_pages=2)))
    labels = tmp_path / "labels.txt"
    labels.write_text("1 TOC\n")
    assert run(["extract", str(xml), "--labels", str(labels)]) == 2
    assert "mixed-labeling" in capsys.readouterr().err


# -- train / eval -----------------------------------------------------------------

def test_train_then_eval_accuracy_one(tmp_path, fixture_csv, model_file, capsys):
    assert run(["eval", str(model_file), str(fixture_csv)]) == 0
    assert "accuracy  1.0000" in capsys.readouterr().out


def test_eval_json_format(fixture_csv, model_file, capsys):
    assert run(["eval", str(model_file), str(fixture_csv), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accuracy"] == 1.0
    assert payload["confusion"] == {"tp": 8, "fp": 0, "fn": 0, "tn": 2}


def test_eval_loo(fixture_csv, capsys):
    assert run(["eval", "--loo", str(fixture_csv), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    cells = payload["confusion"]
    assert cells["tp"] + cells["fp"] + cells["fn"] + cells["tn"] == 10


def test_eval_loo_rejects_two_paths(fixture_csv, model_file, capsys):
    assert run(["eval", "--loo", str(model_file), str(fixture_csv)]) == 1


@pytest.mark.parametrize("argv", [["train", "CSV", "--out", "m.json"], ["eval", "--loo", "CSV"]])
@pytest.mark.parametrize("flag", ["--max-depth", "--min-rows"])
def test_learner_limits_below_one_are_usage_errors(fixture_csv, capsys, argv, flag):
    argv = [str(fixture_csv) if arg == "CSV" else arg for arg in argv]
    assert run([*argv, flag, "0"]) == 1
    assert "must be >= 1" in capsys.readouterr().err


def test_train_is_deterministic(tmp_path, fixture_csv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["train", str(fixture_csv), "--out", str(a)]) == 0
    assert run(["train", str(fixture_csv), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_bad_csv_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("contains_title_term,label\nmaybe,TOC\n")
    assert run(["train", str(bad), "--out", str(tmp_path / "m.json")]) == 2


# -- predict -----------------------------------------------------------------------

def test_predict_detects_toc_page(tmp_path, model_file, capsys):
    xml = tmp_path / "book.xml"
    xml.write_bytes(write_document_xml(synthetic_book()))
    assert run(["predict", str(model_file), str(xml), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scanned_pages"] == [1, 2, 3]
    assert [entry["page"] for entry in payload["toc_pages"]] == [2]


def test_predict_prefix_out_of_range_exit_1(tmp_path, model_file, capsys):
    xml = tmp_path / "book.xml"
    xml.write_bytes(MINIMAL_XML)
    assert run(["predict", str(model_file), str(xml), "--prefix", "1.5"]) == 1
    assert "prefix" in capsys.readouterr().err


def test_predict_missing_model_exit_3(tmp_path, capsys):
    xml = tmp_path / "book.xml"
    xml.write_bytes(MINIMAL_XML)
    assert run(["predict", str(tmp_path / "nope.json"), str(xml)]) == 3


def test_predict_corrupt_model_exit_3(tmp_path, capsys):
    xml = tmp_path / "book.xml"
    xml.write_bytes(MINIMAL_XML)
    corrupt = tmp_path / "model.json"
    corrupt.write_text("{ not json")
    assert run(["predict", str(corrupt), str(xml)]) == 3
    assert "corrupt-model" in capsys.readouterr().err


_LEAF = '{"leaf": {"label": "TOC", "counts": {"TOC": 1, "NON-TOC": 0}}}'


def _deep_root(depth):
    # built as text: the json module cannot serialize a tree this deep
    node = ('{"num": {"feature": "line_start_number_frequency", "threshold": 0.5, '
            '"majority": "TOC", "gt": ' + _LEAF + ', "le": ')
    return node * depth + _LEAF + "}}" * depth


def _set_root_feature(feature):
    def mutate(model):
        model["root"]["num"]["feature"] = feature
    return mutate


def _set_leaf_counts(model):
    model["root"]["num"]["le"]["leaf"]["counts"] = {"TOC": -1, "NON-TOC": 0}


def _set_nan_threshold(model):
    model["root"]["num"]["threshold"] = float("nan")


def _set_deep_root(model):
    model["root"] = "DEEP"  # swapped for a 3000-deep tree after serializing


@pytest.mark.parametrize("mutate", [
    _set_root_feature("no_such_feature"),
    _set_root_feature("title_term_style"),  # numeric test on a categorical column
    _set_root_feature("section_term_frequency"),  # canonical, but not a model column
    _set_leaf_counts,
    _set_nan_threshold,
    _set_deep_root,
], ids=["unknown-feature", "numeric-on-categorical", "outside-columns",
        "negative-counts", "nan-threshold", "3000-deep"])
def test_predict_invalid_model_tree_exit_3(tmp_path, model_file, capsys, mutate):
    xml = tmp_path / "book.xml"
    xml.write_bytes(write_document_xml(synthetic_book()))
    model = json.loads(model_file.read_bytes())
    mutate(model)
    model_file.write_text(json.dumps(model).replace('"DEEP"', _deep_root(3000)))
    capsys.readouterr()
    assert run(["predict", str(model_file), str(xml), "--prefix", "1.0"]) == 3
    assert "error[corrupt-model]" in capsys.readouterr().err


def test_predict_uses_model_feature_config(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text("contains_title_term,label\nYES,TOC\nNO,NON-TOC\n")
    conf = tmp_path / "features.conf"
    conf.write_text("title_terms = summary\n")
    model = tmp_path / "model.json"
    assert run(["train", str(train), "--config", str(conf), "--out", str(model)]) == 0
    xml = tmp_path / "doc.xml"
    xml.write_bytes(write_document_xml(doc([page([["Summary"]])])))
    assert run(["predict", str(model), str(xml), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["page"] for entry in payload["toc_pages"]] == [1]


@pytest.mark.parametrize("argv", [
    ["predict", "m.json", "d.xml", "--jobs", "2"],
    ["predict", "m.json", "d.xml", "--config", "f.conf"],
    ["extract", "d.xml", "--jobs", "2"],
])
def test_removed_options_are_usage_errors(argv, capsys):
    assert run(argv) == 1
    assert "error[usage]" in capsys.readouterr().err


# -- export / fixture -----------------------------------------------------------------

def test_export_text_and_dot(model_file, capsys):
    assert run(["export", str(model_file)]) == 0
    text = capsys.readouterr().out
    assert "line_start_number_frequency" in text
    assert run(["export", str(model_file), "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph decision_tree {")


def test_fixture_table1_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["fixture", "--table1", "--out", str(a)]) == 0
    assert run(["fixture", "--table1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes() == table1_csv_bytes()


def test_usage_error_exit_1(capsys):
    assert run(["train"]) == 1
    assert "error[usage]" in capsys.readouterr().err


# -- feature config file -----------------------------------------------------------------

def test_load_feature_config(tmp_path):
    path = tmp_path / "features.conf"
    path.write_text(
        "# tuning\n"
        "title_terms = Table of Contents, Inhalt\n"
        "section_keywords = kapitel, teil\n"
        "max_page_number_digits = 3\n"
    )
    cfg = load_feature_config(str(path))
    assert cfg.title_terms == ("table of contents", "inhalt")
    assert cfg.section_keywords == frozenset({"kapitel", "teil"})
    assert cfg.max_page_number_digits == 3


def test_config_affects_extraction(tmp_path, capsys):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(
        b'<document id="d"><page index="1"><line><token>Inhalt</token></line></page></document>'
    )
    conf = tmp_path / "features.conf"
    conf.write_text("title_terms = inhalt\n")
    assert run(["extract", str(xml), "--config", str(conf)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split(",")[1] == "YES"
