import errno
import gc
import io
import json
import os
import stat
import subprocess
import sys

import pytest

from tocdetect import cli, docmodel, tree
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
    ("x TOC\n", "labels.txt:1: bad page index 'x'"),
    ("1 NON-TOC\n1_0 TOC\n", "labels.txt:2: bad page index '1_0'"),
    ("\u0661 TOC\n", "labels.txt:1: bad page index '\u0661'"),
    ("# nothing\n\n", "labels.txt: holds no page labels"),
], ids=["unknown-label", "repeated-index", "page-not-in-document", "index-word",
        "index-underscore", "index-arabic-indic", "no-labels"])
def test_extract_bad_labels_file_exit_1(tmp_path, capsys, text, fault):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(write_document_xml(synthetic_book(n_pages=2)))
    labels = tmp_path / "labels.txt"
    labels.write_text(text, encoding="utf-8")
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


def test_eval_rejects_three_paths_without_loo(fixture_csv, model_file, capsys):
    assert run(["eval", str(model_file), str(fixture_csv), str(fixture_csv)]) == 1
    assert _error_line(capsys) == "tocdetect: error[usage]: eval takes MODEL and TEST.csv paths\n"


@pytest.mark.parametrize("argv", [["train", "CSV", "--out", "m.json"], ["eval", "--loo", "CSV"]])
@pytest.mark.parametrize("flag", ["--max-depth", "--min-rows"])
def test_learner_limits_below_one_are_usage_errors(fixture_csv, capsys, argv, flag):
    argv = [str(fixture_csv) if arg == "CSV" else arg for arg in argv]
    assert run([*argv, flag, "0"]) == 1
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["١", "1_0", "x"], ids=["arabic-indic", "underscore", "word"])
@pytest.mark.parametrize("argv, flag, kind", [
    (["train", "CSV", "--out", "OUT"], "--max-depth", "int"),
    (["eval", "--loo", "CSV"], "--min-rows", "int"),
    (["predict", "MODEL", "DOC"], "--prefix", "float"),
], ids=["max-depth", "min-rows", "prefix"])
def test_flag_numbers_follow_the_input_file_rule(tmp_path, fixture_csv, model_file, capsys,
                                                 argv, flag, kind, value):
    # the rule XML, CSV, labels and config numbers follow: ASCII, without '_'
    xml = tmp_path / "doc.xml"
    xml.write_bytes(MINIMAL_XML)
    paths = {"CSV": fixture_csv, "OUT": tmp_path / "m.json", "MODEL": model_file, "DOC": xml}
    assert run([str(paths.get(arg, arg)) for arg in argv] + [flag, value]) == 1
    assert _error_line(capsys) == (
        f"tocdetect: error[usage]: argument {flag}: {value!r} is not an ASCII {kind} without '_'\n")
    assert not (tmp_path / "m.json").exists()


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


@pytest.mark.parametrize("argv", [["train", "CSV", "--out", "m.json"], ["eval", "MODEL", "CSV"],
                                  ["eval", "--loo", "CSV"]], ids=["train", "eval", "eval-loo"])
def test_csv_read_error_names_the_path(tmp_path, model_file, fixture_csv, capsys, monkeypatch,
                                       argv):
    class Unreadable(io.BytesIO):
        def read(self, *args):
            raise OSError(errno.EIO, "Input/output error")

    real_open = open
    monkeypatch.setattr(cli, "open", lambda path, *args: (
        Unreadable() if path == str(fixture_csv) else real_open(path, *args)), raising=False)
    monkeypatch.chdir(tmp_path)
    paths = {"CSV": str(fixture_csv), "MODEL": str(model_file)}
    assert run([paths.get(arg, arg) for arg in argv]) == 2
    assert _error_line(capsys) == (
        f"tocdetect: error[io]: [Errno 5] Input/output error: {str(fixture_csv)!r}\n")
    assert not (tmp_path / "m.json").exists()


def test_failed_rename_leaves_the_out_file_and_no_temp_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t1.csv"
    out.write_bytes(b"old")

    def replace(src, dst):
        raise OSError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "replace", replace)
    assert run(["fixture", "--table1", "--out", str(out)]) == 2
    assert _error_line(capsys) == (
        f"tocdetect: error[io]: [Errno 13] Permission denied: {str(out)!r}\n")
    assert out.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["t1.csv"]  # the temp file is removed


def test_out_file_mode_follows_umask(tmp_path, fixture_csv):
    # as open(path, "wb") would create it: 0666 less the umask
    out = tmp_path / "m.json"
    old = os.umask(0o022)
    try:
        assert run(["train", str(fixture_csv), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644


def test_out_file_mode_reads_no_umask(tmp_path, monkeypatch):
    # os.umask sets the mode mask of the whole process, which other threads share
    def umask(_):
        raise AssertionError("os.umask called")

    old = os.umask(0o022)
    monkeypatch.setattr(os, "umask", umask)
    try:
        assert run(["fixture", "--table1", "--out", str(tmp_path / "t1.csv")]) == 0
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert (tmp_path / "t1.csv").stat().st_mode & 0o777 == 0o644
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tocdetect-")] == []


def test_out_fifo_is_written_not_replaced(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        assert run(["fixture", "--table1", "--out", str(fifo)]) == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 1 << 16) == table1_csv_bytes()
    finally:
        os.close(reader)
    assert os.listdir(tmp_path) == ["pipe"]  # no temp file left behind


def test_out_symlink_target_is_replaced(tmp_path):
    (tmp_path / "real").mkdir()
    target, link = tmp_path / "real" / "t1.csv", tmp_path / "link.csv"
    target.write_bytes(b"old")
    link.symlink_to(target)
    dangling = tmp_path / "dangling.csv"
    dangling.symlink_to(tmp_path / "real" / "new.csv")
    for path in (link, dangling):
        assert run(["fixture", "--table1", "--out", str(path)]) == 0
        assert path.is_symlink() and path.read_bytes() == table1_csv_bytes()
    assert sorted(os.listdir(tmp_path / "real")) == ["new.csv", "t1.csv"]
    assert sorted(os.listdir(tmp_path)) == ["dangling.csv", "link.csv", "real"]


def test_train_is_deterministic(tmp_path, fixture_csv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["train", str(fixture_csv), "--out", str(a)]) == 0
    assert run(["train", str(fixture_csv), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # str and bool branch keys hash differently under each seed; no output may follow that
    csv = ("contains_title_term,title_term_font_class,label\n"
           "YES,Arial,TOC\nNO,Arial,NON-TOC\nYES,Arial,TOC\nNO,Times New Roman,TOC\n"
           "YES,Times New Roman,TOC\nNO,Courier,NON-TOC\nYES,Courier,NON-TOC\nNO,Helvetica,NON-TOC\n")
    commands = [["train", "fonts.csv", "--out", "m.json"], ["export", "m.json", "--out", "m.txt"],
                ["export", "m.json", "--format", "dot", "--out", "m.dot"]]
    script = f"import sys; from tocdetect.cli import run; sys.exit(max(map(run, {commands!r})))"
    src = os.path.dirname(os.path.dirname(tree.__file__))
    outputs = []
    for seed in ("0", "1"):
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        (workdir / "fonts.csv").write_text(csv)
        subprocess.run([sys.executable, "-c", script], cwd=workdir, check=True,
                       env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        outputs.append([(workdir / name).read_bytes() for name in ("m.json", "m.txt", "m.dot")])
    assert outputs[0] == outputs[1]
    text = outputs[0][1].decode()
    assert text.startswith("title_term_font_class?\n")
    assert "    = ARIAL: contains_title_term?\n" in text and text.count("\n    = ") == 4


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


def test_tree_at_depth_limit_saves_and_loads(tmp_path, capsys):
    node = tree.Node((1, 0))
    for i in range(tree.MAX_TREE_DEPTH):
        gt = tree.Node((i % 2, 1 - i % 2))
        counts = (node.counts[0] + gt.counts[0], node.counts[1] + gt.counts[1])
        node = tree.Node(counts, "contextual_term_count", i + 0.5, {True: node, False: gt})
    model = tree.TrainedModel(root=node, columns=("contextual_term_count",))
    path = tmp_path / "chain.json"
    path.write_bytes(tree.save_model(model))
    assert tree.load_model(path.read_bytes()) == model
    assert run(["export", str(path)]) == 0
    assert run(["export", str(path), "--format", "dot"]) == 0
    # a count of 0 takes every <= branch, down to the deepest leaf (TOC)
    row = tmp_path / "row.csv"
    row.write_text("contextual_term_count,label\n0,TOC\n")
    capsys.readouterr()
    assert run(["eval", str(path), str(row), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["confusion"] == {"tp": 1, "fp": 0, "fn": 0, "tn": 0}


# -- predict -----------------------------------------------------------------------

def test_predict_detects_toc_page(tmp_path, model_file, capsys):
    xml = tmp_path / "book.xml"
    xml.write_bytes(write_document_xml(synthetic_book()))
    assert run(["predict", str(model_file), str(xml), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scanned_pages"] == [1, 2, 3]
    assert [entry["page"] for entry in payload["toc_pages"]] == [2]


def test_predict_text_format_is_default(tmp_path, model_file, capsys):
    xml = tmp_path / "book.xml"
    xml.write_bytes(write_document_xml(synthetic_book()))
    assert run(["predict", str(model_file), str(xml)]) == 0
    assert capsys.readouterr().out == (
        "document:        book\n"
        "prefix fraction: 0.3\n"
        "scanned pages:   1, 2, 3\n"
        "TOC page:        2 (leaf counts 8/0)\n"
    )


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


@pytest.mark.parametrize("data", [
    write_document_xml(synthetic_book()),
    MINIMAL_XML.replace(b"<token>", b'<token bold="yes">') + b"\x00",
], ids=["book", "violation-then-malformed-byte"])
@pytest.mark.parametrize("command", ["predict", "extract"])
def test_piped_document_reads_as_the_file_does(tmp_path, model_file, command, data):
    # the document is read once and never rewound: the malformed byte after the schema
    # violation still wins, with no second pass over the input
    xml = tmp_path / "doc.xml"
    xml.write_bytes(data)
    argv = [sys.executable, "-m", "tocdetect.cli", command]
    argv += [str(model_file)] if command == "predict" else []
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tree.__file__))}
    piped = subprocess.run(argv + ["/dev/stdin"], input=data, capture_output=True, env=env)
    from_file = subprocess.run(argv + [str(xml)], capture_output=True, env=env)
    assert (piped.returncode, piped.stdout, piped.stderr) == (
        from_file.returncode, from_file.stdout, from_file.stderr)
    if data.endswith(b"\x00"):
        assert piped.returncode == 2 and piped.stderr.startswith(
            b"tocdetect: error[malformed-xml]: not well-formed (invalid token)")
    else:
        assert piped.returncode == 0 and piped.stdout


@pytest.mark.parametrize("command", ["predict", "extract"])
def test_document_read_error_names_the_path(tmp_path, model_file, capsys, monkeypatch, command):
    def fail(fh):
        raise OSError(errno.EIO, "Input/output error")
    monkeypatch.setattr(docmodel, "parse_document", fail)
    xml = tmp_path / "doc.xml"
    xml.write_bytes(MINIMAL_XML)
    argv = [command, *([str(model_file)] if command == "predict" else []), str(xml)]
    assert run(argv) == 2
    assert _error_line(capsys) == f"tocdetect: error[io]: [Errno 5] Input/output error: {str(xml)!r}\n"


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
    _set("feature_config", "title_terms", ["Table of Contents"]),
    _set("feature_config", "title_terms", ["table of  contents"]),
    _set("feature_config", "max_page_number_digits", 2.9),
    _set("feature_config", "section_keywords", ["Chapter"]),
    _set("feature_config", "section_keywords", ["chapter", 3]),
    _set("version", True),
    _set_style_root("LARGEST", "largest"),
    _set("summary", "rows", 11),
    _set_style_root("largest"),
    _set("root", "num", "threshold", 0),
    _duplicate_column,
    _set("root", {"cat": {"feature": "title_term_style", "branches": {}, "majority": "TOC"}}),
], ids=["unknown-feature", "numeric-on-categorical", "outside-columns",
        "negative-counts", "nan-threshold", "3000-deep", "majority-disagrees-with-counts",
        "title-terms-string", "title-term-uppercase", "title-term-double-space",
        "fractional-digits", "uppercase-keyword", "non-string-keyword",
        "version-true", "duplicate-normalized-branch", "summary-rows-disagree",
        "lowercase-branch", "int-threshold", "duplicate-column", "empty-branches"])
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
    # http.client, so a fresh `import tocdetect.cli` must load none of them; the parser is
    # pyexpat alone, so ElementTree stays out too. Only the commands that read a document load
    # the parser (and with it logging), and only predict's scan_count needs fractions
    probe = ("import sys; bare = set(sys.modules); import tocdetect.cli; print(sorted("
             "{'xml.sax.saxutils', 'urllib.request', 'http.client', 'xml.etree.ElementTree',"
             " 'tocdetect.docmodel', 'xml.parsers.expat', 'logging', 'fractions'}"
             " & (set(sys.modules) - bare)))")
    src = os.path.dirname(os.path.dirname(tree.__file__))
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_no_module_imports_dataclasses_or_inspect():
    # the record classes are plain classes: defining them loads neither module, and
    # dataclasses (with the inspect it imports) was the largest import left in a command
    probe = ("import sys; bare = set(sys.modules); "
             "import tocdetect.cli, tocdetect.pipeline, tocdetect.docmodel; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))")
    src = os.path.dirname(os.path.dirname(tree.__file__))
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_package_names_resolve_on_first_use():
    # tocdetect imports its submodules only when one of its names is first read
    # dir() lists every public name and submodule before any of them is read
    probe = ("import tocdetect; "
             "print(sorted({*tocdetect.__all__, *tocdetect._NAMES} - set(dir(tocdetect)))); "
             "learn = tocdetect.tree.learn; names = {}; "
             "exec('from tocdetect import *', names); "
             "print(learn is tocdetect.learn, sorted(set(tocdetect.__all__) - set(names)), "
             "[n for n in tocdetect.__all__ if getattr(tocdetect, n) is not names[n]])")
    src = os.path.dirname(os.path.dirname(tree.__file__))
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\nTrue [] []\n"
    import tocdetect
    assert tocdetect.__all__ == [
        "ClassLabel", "Dataset", "DetectionResult", "DocumentModel", "EvaluationReport",
        "FeatureConfig", "FeatureVector", "Line", "Page", "Token", "TrainedModel", "classify",
        "detect", "entropy", "evaluate", "export_dot", "export_text", "extract_features", "learn",
        "leave_one_out", "load_csv", "load_model", "parse_document", "save_model",
        "table1_fixture", "write_csv", "write_feature_csv"]
    for name in tocdetect.__all__:  # each name is the object its home module defines
        home = getattr(tocdetect, tocdetect._HOMES[name])
        assert getattr(tocdetect, name) is getattr(home, name)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        tocdetect.nope


def test_usage_error_exit_1(capsys):
    assert run(["train"]) == 1
    assert "error[usage]" in capsys.readouterr().err


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, code", [
    (["fixture", "--table1"], 0),
    (["train"], 1),
    (["predict", "MODEL", "missing.xml"], 2),
    (["export", "missing.json"], 3),
], ids=["ok", "usage", "data", "model"])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, model_file, capsys, monkeypatch,
                                                 collecting, argv, code):
    monkeypatch.chdir(tmp_path)
    argv = [str(model_file) if arg == "MODEL" else arg for arg in argv]
    was_enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert run(argv) == code
        assert gc.isenabled() is collecting
    finally:
        if was_enabled:
            gc.enable()


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


@pytest.mark.parametrize("flag, data, column, cell", [
    ("--labels", b"\xef\xbb\xbf1 TOC\n", -1, "TOC"),
    ("--config", b"\xef\xbb\xbftitle_terms = inhalt\n", 1, "NO"),  # "Contents" is no title now
], ids=["--labels", "--config"])
def test_side_file_utf8_bom_tolerated(tmp_path, capsys, flag, data, column, cell):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(MINIMAL_XML)
    side = tmp_path / "side.txt"
    side.write_bytes(data)
    assert run(["extract", str(xml), flag, str(side)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[column] == cell


def test_config_key_set_twice_exit_1(tmp_path, capsys):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(MINIMAL_XML)
    conf = tmp_path / "features.conf"
    conf.write_text("title_terms = inhalt\n# later\ntitle_terms = contents\n")
    assert run(["extract", str(xml), "--config", str(conf)]) == 1
    assert _error_line(capsys) == f"tocdetect: error[usage]: {conf}:3: title_terms is set twice\n"


@pytest.mark.parametrize("text, fault", [
    ("max_page_number_digits = x\n", "2: not an integer: 'x'"),
    ("max_page_number_digits = 1_0\n", "2: not an integer: '1_0'"),
    ("max_page_number_digits = \u0663\n", "2: not an integer: '\u0663'"),
    ("max_page_number_digits = 0\n", "2: max_page_number_digits must be an int >= 1, got 0"),
    ("title_terms = , ,\n", "2: title_terms has no terms"),
], ids=["digits-word", "digits-underscore", "digits-arabic-indic", "digits-zero",
        "no-title-terms"])
def test_bad_config_value_names_its_line(tmp_path, capsys, text, fault):
    xml = tmp_path / "doc.xml"
    xml.write_bytes(MINIMAL_XML)
    conf = tmp_path / "features.conf"
    conf.write_text("# tuning\n" + text, encoding="utf-8")
    assert run(["extract", str(xml), "--config", str(conf)]) == 1
    assert _error_line(capsys) == f"tocdetect: error[usage]: {conf}:{fault}\n"


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
