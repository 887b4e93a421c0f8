"""Tests of the benchmark itself: generator, oracles and failure accounting.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import random

import pytest

import gen
import oracle
import run
import tocdetect


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _generate(tmp_path, name, seed):
    out = tmp_path / name
    out.mkdir()
    gen.generate("scan-library", seed, str(out))
    # generate() leaves expect.json, whose paths name the directory, to its caller
    return _files(out)


def test_generator_is_deterministic(tmp_path):
    first = _generate(tmp_path, "a", 7)
    assert first == _generate(tmp_path, "b", 7)
    assert _generate(tmp_path, "c", 8)["library0.xml"] != first["library0.xml"]


@pytest.fixture(scope="module")
def table1():
    model = tocdetect.learn(tocdetect.table1_fixture())
    return model, json.loads(tocdetect.save_model(model))["root"]


def _tiny_doc(seed=3):
    """One page of every shape and TOC density/style, as (DocumentModel, expectations)."""
    rng = random.Random(seed)
    built = [gen._shape(rng, shape) for shape in gen.SHAPES]
    built += [(gen.toc_page(rng, "dense", style), "TOC") for style in gen._STYLES]
    pages = tuple(b.page(i) for i, (b, _) in enumerate(built, start=1))
    expect = {"id": "tiny", "pages": [{"page": i, "label": label, "planted": b.planted()}
                                      for i, (b, label) in enumerate(built, start=1)]}
    return tocdetect.DocumentModel(id="tiny", pages=pages), expect


def test_planted_features_match_the_program():
    doc, expect = _tiny_doc()
    for page, exp in zip(doc.pages, expect["pages"]):
        assert tocdetect.extract_features(page).as_dict() == exp["planted"]


def test_book_plants_toc_pages_on_both_sides_of_the_cut(table1):
    _, root = table1
    rng = random.Random(1)
    built = gen._build(rng, gen.book_shapes(rng, n=40))
    pages = [b.planted() for b, label in built if label == "TOC"]
    routed = [oracle.walk(root, p)[0] for p in pages]
    assert any(p["line_start_number_frequency"] > 0.855 for p in pages)
    assert {"TOC", "NON-TOC"} <= set(routed)


def test_oracle_agrees_with_detect_and_extract(table1):
    model, root = table1
    doc, expect = _tiny_doc()
    for prefix in (0.3, 1.0):
        result = tocdetect.detect(doc, model, prefix_fraction=prefix).to_json_dict()
        answer = oracle.expected_detection(expect, root, prefix)
        assert oracle.check_detection(result, answer) is None
    rows = [(p.index, tocdetect.extract_features(p), e["label"])
            for p, e in zip(doc.pages, expect["pages"])]
    assert oracle.check_extract(tocdetect.write_feature_csv(rows), expect) is None


def test_wrong_answers_are_caught(table1):
    model, root = table1
    doc, expect = _tiny_doc()
    answer = oracle.expected_detection(expect, root, 1.0)
    right = tocdetect.detect(doc, model, prefix_fraction=1.0).to_json_dict()
    assert right["toc_pages"], "the tiny document must have a detected TOC page"

    dropped = copy.deepcopy(right)
    dropped["toc_pages"].pop()
    recounted = copy.deepcopy(right)
    recounted["toc_pages"][0]["counts"]["TOC"] += 1
    for wrong in (dropped, recounted, json.dumps(right).encode()[:-2]):
        assert oracle.checked(oracle.check_detection, wrong, answer) is not None

    rows = [(p.index, tocdetect.extract_features(p), e["label"])
            for p, e in zip(doc.pages, expect["pages"])]
    good = tocdetect.write_feature_csv(rows).decode()
    header, first, *rest = good.splitlines()
    cells = first.split(",")
    cells[header.split(",").index("line_start_number_frequency")] = "0.5"
    relabeled = good.replace(",NON-TOC\n", ",TOC\n", 1)
    for wrong in ("\n".join([header, ",".join(cells), *rest]) + "\n", relabeled,
                  "\n".join([header, *rest]) + "\n", "garbage"):
        assert oracle.checked(oracle.check_extract, wrong.encode(), expect) is not None


def test_train_and_eval_checks_catch_miscounts():
    data = tocdetect.table1_fixture()
    csv_bytes = tocdetect.dataset.table1_csv_bytes()
    saved = tocdetect.save_model(tocdetect.learn(data))
    assert oracle.check_model(saved, csv_bytes) is None
    model = json.loads(saved)
    model["summary"]["rows"] += 1
    assert oracle.check_model(json.dumps(model).encode(), csv_bytes) is not None

    report = tocdetect.evaluate(tocdetect.load_model(saved), data).to_json_dict()
    assert oracle.check_report(report, csv_bytes) is None
    report["confusion"]["tp"] += 1
    assert oracle.check_report(report, csv_bytes) is not None


def test_failed_operations_count_once_against_attempted():
    exit_1 = run.Child(1, 0.1, 0.1, 1000, b"", b"tocdetect: error[usage]: bad\n")
    traceback = run.Child(0, 0.1, 0.1, 1000, b"{}", b"Traceback (most recent call last):\n")
    assert exit_1.failure() and traceback.failure()
    assert run.Child(0, 0.1, 0.1, 1000, b"{}", b"").failure() is None

    class Flaky(run.Workload):
        name = "flaky"

        def op(self, i):
            return run.Op(0.01, 0.01, 1024, 10, "corrupted output" if i % 2 else None)

    metrics, attempted, failed = run.end_to_end(Flaky(0, None, None, {}), 0.05, [1.0])
    assert attempted >= 2 and failed == attempted // 2
    assert metrics["peak_rss_mb"] == (1.0, "MB")
