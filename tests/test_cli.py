import json
import os
import subprocess
import sys

import pytest

from tocdetect import tree
from tocdetect.cli import load_feature_config, run
from tocdetect.dataset import table1_csv_bytes
from tocdetect.docmodel import write_document_xml

from helpers import ENTITY_BOMB, canonical_toc_page, doc, page

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


@pytest.mark.parametrize("text, fault", [
    ("1 TOC\n2 MAYBE\n", "labels.txt:2: unknown label 'MAYBE'"),
    ("2 TOC\n1 NON-TOC\n2 NON-TOC\n", "labels.txt:3: page 2 is labeled twice"),
    ("1 NON-TOC\n2 TOC\n99 TOC\n", "labels.txt:3: page 99 is not in the document"),
], ids=["unknown-label", "repeated-index", "page-not-in-document"])
def test_extract_bad_labels_file_exit_1(tmp_path, capsys, text, fault):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(write_document_xml(synthetic_book(n_pages=2)))
    labels = tmp_path / "labels.txt"
    labels.write_text(text)
    assert run(["extract", str(xml), "--labels", str(labels)]) == 1
    assert fault in _error_line(capsys)


def test_extract_partial_labels_is_data_error(tmp_path, capsys):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(write_document_xml(synthetic_book(n_pages=2)))
    labels = tmp_path / "labels.txt"
    labels.write_text("1 TOC\n")
    assert run(["extract", str(xml), "--labels", str(labels)]) == 2
    assert "mixed-labeling" in capsys.readouterr().err


@pytest.mark.parametrize("font", ["", " "])
def test_extract_then_train_with_blank_font(tmp_path, capsys, font):
    # a blank font counts as absent, so the title's font class is UNKNOWN, not an empty cell
    xml = tmp_path / "doc.xml"
    xml.write_text(f'<document id="d"><page index="1"><line><token font="{font}">Contents</token>'
                   '</line></page><page index="2"><line><token>1</token></line></page></document>')
    labels = tmp_path / "labels.txt"
    labels.write_text("1 TOC\n2 NON-TOC\n")
    features = tmp_path / "features.csv"
    assert run(["extract", str(xml), "--labels", str(labels), "--out", str(features)]) == 0
    assert features.read_text().splitlines()[1].split(",")[3] == "UNKNOWN"
    assert run(["train", str(features), "--out", str(tmp_path / "m.json")]) == 0


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


@pytest.mark.parametrize("flag", ["--max-depth", "--min-rows"])
def test_eval_learner_limits_need_loo(fixture_csv, model_file, capsys, flag):
    assert run(["eval", str(model_file), str(fixture_csv), flag, "1"]) == 1
    assert "only with --loo" in _error_line(capsys)


@pytest.mark.parametrize("out, reason", [
    ("missing-dir/x.csv", "No such file or directory"),
    ("a-dir", "Is a directory"),
], ids=["in-missing-directory", "is-a-directory"])
def test_unwritable_out_path_is_named_in_io_error(tmp_path, capsys, monkeypatch, out, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-dir").mkdir()
    assert run(["fixture", "--table1", "--out", out]) == 2
    err = _error_line(capsys)
    assert err.startswith("tocdetect: error[io]: ") and err.endswith(f"{reason}: {out!r}\n")
    assert sorted(os.listdir(tmp_path)) == ["a-dir"]  # no temp file left behind


@pytest.mark.parametrize("argv", [["train", "in.csv", "--out", "m.json"], ["extract", "in.xml"]],
                         ids=["train", "extract"])
def test_missing_input_file_is_io_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert _error_line(capsys).endswith(f"No such file or directory: {argv[1]!r}\n")


def test_out_file_mode_follows_umask(tmp_path, fixture_csv):
    # as open(path, "wb") would create it, not mkstemp's 0600
    out = tmp_path / "m.json"
    old = os.umask(0o022)
    try:
        assert run(["train", str(fixture_csv), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644


def test_train_is_deterministic(tmp_path, fixture_csv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["train", str(fixture_csv), "--out", str(a)]) == 0
    assert run(["train", str(fixture_csv), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("text", [
    "contains_title_term,label\nmaybe,TOC\n",
    f"contextual_term_count,label\n{'9' * 400},TOC\n0,NON-TOC\n",
    f"contextual_term_count,label\n{2**53 + 1},TOC\n0,NON-TOC\n",
], ids=["not-yes-no", "400-digit-count", "count-above-2**53"])
def test_train_bad_csv_exit_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run(["train", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert "error[type-error]" in _error_line(capsys)


def _error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("tocdetect: error[") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("data", [
    b"contains_title_term,label\nYES,TOC\nNO,NON-TOC caf\xe9\n",
    b"contextual_term_count,label\n1\r2,TOC\n",
], ids=["latin-1-byte", "carriage-return-in-field"])
def test_train_unreadable_csv_exit_2(tmp_path, capsys, data):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    assert run(["train", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert "error[dataset-error]" in _error_line(capsys)


@pytest.mark.parametrize("command", [["train", "--out", "m.json"], ["eval", "--loo"]],
                         ids=["train", "eval-loo"])
def test_tree_deeper_than_limit_exit_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    # alternating labels over distinct counts learn one level per row, so even the first
    # leave-one-out fold (rows 1-519) is a chain twice as deep as the real limit
    chain = tmp_path / "chain.csv"
    chain.write_text("contextual_term_count,label\n"
                     + "".join(f"{i},{'TOC' if i % 2 == 0 else 'NON-TOC'}\n" for i in range(520)))
    assert run([*command, str(chain)]) == 2
    assert "error[dataset-error]" in _error_line(capsys)
    assert not (tmp_path / "m.json").exists()


def test_tree_at_depth_limit_saves_and_loads(tmp_path):
    node = tree.Leaf((1, 0))
    for i in range(tree.MAX_TREE_DEPTH):
        gt = tree.Leaf((i % 2, 1 - i % 2))
        counts = (node.counts[0] + gt.counts[0], node.counts[1] + gt.counts[1])
        node = tree.NumericNode(counts, "contextual_term_count", i + 0.5, node, gt)
    model = tree.TrainedModel(root=node, columns=("contextual_term_count",))
    path = tmp_path / "chain.json"
    path.write_bytes(tree.save_model(model))
    assert tree.load_model(path.read_bytes()) == model
    assert run(["export", str(path)]) == 0


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


def test_predict_entity_bomb_exit_2(tmp_path, model_file, capsys):
    xml = tmp_path / "bomb.xml"
    xml.write_bytes(ENTITY_BOMB)
    capsys.readouterr()
    assert run(["predict", str(model_file), str(xml)]) == 2
    assert "error[malformed-xml]" in _error_line(capsys)


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


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(model):
        for step in path:
            model = model[step]
        model[key] = value
    return mutate


def _set_style_root(*keys):
    # each key, a spelling of LARGEST, leads to the 8 TOC rows and NA to the 2 NON-TOC rows,
    # so the tree agrees with the summary once the keys collapse to one branch
    def mutate(model):
        toc = {"leaf": {"label": "TOC", "counts": {"TOC": 8, "NON-TOC": 0}}}
        non = {"leaf": {"label": "NON-TOC", "counts": {"TOC": 0, "NON-TOC": 2}}}
        branches = {key: toc for key in keys}
        model["root"] = {"cat": {"feature": "title_term_style",
                                 "branches": {**branches, "NA": non}, "majority": "TOC"}}
    return mutate


def _duplicate_column(model):
    model["columns"].append(model["columns"][0])


@pytest.mark.parametrize("mutate", [
    _set("root", "num", "feature", "no_such_feature"),
    _set("root", "num", "feature", "title_term_style"),  # numeric test on a categorical column
    _set("root", "num", "feature", "section_term_frequency"),  # canonical, not a model column
    _set("root", "num", "le", "leaf", "counts", {"TOC": -1, "NON-TOC": 0}),
    _set("root", "num", "threshold", float("nan")),
    _set("root", "DEEP"),  # swapped for a 3000-deep tree after serializing
    _set("root", "num", "majority", "NON-TOC"),  # the root's counts are 8 TOC / 2 NON-TOC
    _set("feature_config", "title_terms", "contents"),
    _set("feature_config", "max_page_number_digits", 2.9),
    _set("feature_config", "section_keywords", ["Chapter"]),
    _set("feature_config", "section_keywords", ["chapter", 3]),
    _set("version", True),
    _set_style_root("LARGEST", "largest"),
    _set("summary", "rows", 11),
    _set_style_root("largest"),
    _set("root", "num", "threshold", 0),
    _duplicate_column,
], ids=["unknown-feature", "numeric-on-categorical", "outside-columns",
        "negative-counts", "nan-threshold", "3000-deep", "majority-disagrees-with-counts",
        "title-terms-string", "fractional-digits", "uppercase-keyword", "non-string-keyword",
        "version-true", "duplicate-normalized-branch", "summary-rows-disagree",
        "lowercase-branch", "int-threshold", "duplicate-column"])
def test_predict_invalid_model_tree_exit_3(tmp_path, model_file, capsys, mutate):
    xml = tmp_path / "book.xml"
    xml.write_bytes(write_document_xml(synthetic_book()))
    model = json.loads(model_file.read_bytes())
    mutate(model)
    model_file.write_text(json.dumps(model).replace('"DEEP"', _deep_root(3000)))
    capsys.readouterr()
    assert run(["predict", str(model_file), str(xml), "--prefix", "1.0"]) == 3
    assert "error[corrupt-model]" in _error_line(capsys)


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


def test_cli_import_leaves_out_xml_escaping():
    # only the debug writer escapes XML, and xml.sax.saxutils pulls in urllib.request and
    # http.client, so a fresh `import tocdetect.cli` must load none of them
    probe = ("import sys; bare = set(sys.modules); import tocdetect.cli; print(sorted("
             "{'xml.sax.saxutils', 'urllib.request', 'http.client'} & (set(sys.modules) - bare)))")
    src = os.path.dirname(os.path.dirname(tree.__file__))
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


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


@pytest.mark.parametrize("flag, data", [
    ("--config", b"# r\xe9sum\xe9\n"),
    ("--labels", b"# r\xe9sum\xe9\n"),
    ("--config", None),
    ("--labels", None),
], ids=["--config", "--labels", "--config-missing", "--labels-missing"])
def test_extract_non_utf8_side_file_exit_1(tmp_path, capsys, flag, data):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(MINIMAL_XML)
    side = tmp_path / "side.txt"
    if data is not None:
        side.write_bytes(data)
    assert run(["extract", str(xml), flag, str(side)]) == 1
    err = _error_line(capsys)
    assert "error[usage]" in err and f"{side}: " in err


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
