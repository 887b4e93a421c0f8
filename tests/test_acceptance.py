"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import random
import time
from collections import Counter

import pytest

from tocdetect.cli import run
from tocdetect.dataset import Dataset, load_csv, table1_csv_bytes, table1_fixture
from tocdetect.docmodel import parse_document, write_document_xml
from tocdetect.features import FeatureConfig, FeatureVector, extract_features
from tocdetect.pipeline import detect, evaluate
from tocdetect.schema import ClassLabel
from tocdetect.tree import classify, export_dot, export_text, learn, save_model

from helpers import (
    canonical_toc_page,
    check_splits_by_brute_force,
    doc,
    page,
    route_json_tree,
    tok,
)

TOC, NON = ClassLabel.TOC, ClassLabel.NON_TOC
CFG = FeatureConfig()

TABLE1_ROWS = [
    ((True, "LARGEST", 0.8, 0.89, 0.8), TOC),
    ((True, "LARGEST", 0.1, 0.56, 0.05), TOC),
    ((True, "INTERMEDIATE", 0.9, 0.67, 0.13), TOC),
    ((True, "INTERMEDIATE", 0.2, 0.96, 0.18), TOC),
    ((True, "MOST_FREQUENT", 0.86, 0.91, 0.83), TOC),
    ((True, "MOST_FREQUENT", 0.13, 0.85, 0.07), TOC),
    ((False, "NA", 0.98, 0.91, 0.12), TOC),
    ((False, "NA", 0.16, 0.87, 0.103), TOC),
    ((False, "NA", 0.87, 0.3, 0.02), NON),
    ((True, "MOST_FREQUENT", 0.2, 0.86, 0.88), NON),
]


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_table1_fidelity(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    assert run(["fixture", "--table1", "--out", str(out)]) == 0
    data = load_csv(out.read_bytes())
    assert len(data.rows) == 10
    counts = Counter(label for _, label in data.rows)
    assert counts[TOC] == 8 and counts[NON] == 2
    assert list(data.rows) == TABLE1_ROWS
    # spot rows called out explicitly
    assert data.rows[0] == ((True, "LARGEST", 0.8, 0.89, 0.8), TOC)
    assert data.rows[8] == ((False, "NA", 0.87, 0.3, 0.02), NON)
    _ok("criterion-1 table1-fidelity")


def test_criterion_2_training_consistency(tmp_path):
    data = table1_fixture()
    # brute-force duplicate check: no equal feature vectors with unequal labels
    for i, (vi, li) in enumerate(data.rows):
        for vj, lj in data.rows[i + 1:]:
            assert vi != vj or li == lj
    model = learn(data)
    report = evaluate(model, data)
    assert (report.tp, report.tn, report.fp, report.fn) == (8, 2, 0, 0)
    assert report.accuracy == 1.0
    _ok("criterion-2 training-consistency")


def test_criterion_3_entropy_gain_oracle():
    column_pool = {
        "contains_title_term": lambda rng: rng.random() < 0.5,
        "title_term_style": lambda rng: rng.choice(
            ["LARGEST", "INTERMEDIATE", "MOST_FREQUENT", "NA"]
        ),
        "contextual_term_count": lambda rng: rng.randrange(4),
        "line_end_number_frequency": lambda rng: rng.randrange(9) / 8,
        "outgoing_link_frequency": lambda rng: rng.randrange(9) / 8,
    }
    rng = random.Random(20260823)
    start = time.monotonic()
    checked = 0
    for _ in range(1200):
        columns = rng.sample(sorted(column_pool), rng.randint(1, 3))
        rows = [
            (tuple(column_pool[c](rng) for c in columns), rng.choice([TOC, NON]))
            for _ in range(rng.randint(1, 8))
        ]
        data = Dataset(columns=tuple(columns), rows=tuple(rows))
        # every node of the learned tree: its split is the oracle's, with the oracle's gain
        check_splits_by_brute_force(data, learn(data).root)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 1000
    assert elapsed < 30.0
    _ok(f"criterion-3 entropy-gain-oracle ({checked} datasets, {elapsed:.1f}s)")


def _fixture_pages():
    """Hand-built pages paired with hand-computed feature vectors."""

    def fv(**kwargs):
        base = dict(
            contains_title_term=False,
            title_term_style="NA",
            title_term_font_class="NA",
            contextual_term_count=0,
            section_term_frequency=0.0,
            title_term_line_position=1.0,
            line_start_number_frequency=0.0,
            line_end_number_frequency=0.0,
            numbers_ascending=True,
            outgoing_link_frequency=0.0,
        )
        base.update(kwargs)
        return FeatureVector(**base)

    cases = []

    # 1. empty page
    cases.append(("empty", page([]), fv()))

    # 2. canonical 10-line TOC page
    cases.append((
        "canonical-toc",
        canonical_toc_page(),
        fv(contains_title_term=True, title_term_style="LARGEST",
           title_term_font_class="Times New Roman", title_term_line_position=0.0,
           line_start_number_frequency=0.8, line_end_number_frequency=0.8),
    ))

    # 3. descending trailing numbers 5, 3, 9
    cases.append((
        "descending-numbers",
        page([["a", "5"], ["b", "3"], ["c", "9"]]),
        fv(line_end_number_frequency=1.0, numbers_ascending=False),
    ))

    # 4. link annotations on 2 of 4 lines
    cases.append((
        "links",
        page([
            [tok("Intro", link_target="p3"), tok("3")],
            [tok("Scope", link_target="p5"), tok("5")],
            ["no", "links"],
            [],
        ]),
        fv(line_end_number_frequency=0.5, outgoing_link_frequency=0.5),
    ))

    # 5. contextual terms: bare "Contents" line beats the noisy one
    cases.append((
        "contextual-terms",
        page([["Chapter", "2", "Contents", "of", "the", "cell"], ["Contents"]]),
        fv(contains_title_term=True, title_term_style="LARGEST",
           title_term_font_class="unknown", title_term_line_position=0.5,
           section_term_frequency=0.5),
    ))

    # 6. modal-size title: sizes 12 (x3) vs page max 18
    cases.append((
        "most-frequent-style",
        page([
            [tok("Contents", font_size=12.0)],
            [tok("Heading", font_size=18.0)],
            [tok("body", font_size=12.0), tok("text", font_size=12.0)],
        ]),
        fv(contains_title_term=True, title_term_style="MOST_FREQUENT",
           title_term_font_class="unknown", title_term_line_position=0.0),
    ))

    # 7. intermediate-size title: 14 between modal 12 and max 18
    cases.append((
        "intermediate-style",
        page([
            [tok("Contents", font_size=14.0)],
            [tok("Big", font_size=18.0)],
            [tok("a", font_size=12.0), tok("b", font_size=12.0)],
        ]),
        fv(contains_title_term=True, title_term_style="INTERMEDIATE",
           title_term_font_class="unknown", title_term_line_position=0.0),
    ))

    # 8. section keywords on 3 of 4 lines, trailing digits on 2
    cases.append((
        "section-keywords",
        page([["Chapter", "1"], ["Section", "2"], ["APPENDIX"], ["nothing", "here"]]),
        fv(section_term_frequency=0.75, line_end_number_frequency=0.5),
    ))

    # 9. digit cap: "12345" is too long; remaining sequence 123, 7 descends
    cases.append((
        "digit-cap",
        page([["x", "123"], ["y", "12345"], ["z", "7"]]),
        fv(line_end_number_frequency=2 / 3, numbers_ascending=False),
    ))

    # 10. punctuation disqualifies "14."; "1.2" starts a section number
    cases.append((
        "trailing-dot",
        page([["Methods", "14."], ["1.2", "Overview", "9"]]),
        fv(line_start_number_frequency=0.5, line_end_number_frequency=0.5),
    ))

    # 11. longest phrase first: whole "Table of Contents" covered
    cases.append((
        "longest-phrase",
        page([["Table", "of", "Contents"]]),
        fv(contains_title_term=True, title_term_style="LARGEST",
           title_term_font_class="unknown", title_term_line_position=0.0),
    ))

    # 12. case and style flags do not matter
    cases.append((
        "case-and-style-insensitive",
        page([
            [tok("CONTENTS", font_size=10.0, bold=True, italic=True)],
            [tok("body", font_size=10.0)],
        ]),
        fv(contains_title_term=True, title_term_style="LARGEST",
           title_term_font_class="unknown", title_term_line_position=0.0),
    ))

    return cases


def test_criterion_4_feature_extraction_oracle():
    cases = _fixture_pages()
    assert len(cases) >= 10
    for name, p, expected in cases:
        # round-trip through real XML bytes so the fixture is a document fixture
        parsed = parse_document(write_document_xml(doc([p])))
        actual = extract_features(parsed.pages[0], CFG)
        for column, expected_value in expected.as_dict().items():
            value = getattr(actual, column)
            if isinstance(expected_value, float) and not isinstance(expected_value, bool):
                assert value == pytest.approx(expected_value, abs=1e-12), (name, column)
            else:
                assert value == expected_value, (name, column)
    _ok(f"criterion-4 feature-extraction-oracle ({len(cases)} pages)")


def test_criterion_5_determinism_golden_files():
    import pathlib

    goldens = pathlib.Path(__file__).parent / "goldens"
    golden_model = (goldens / "table1_model.json").read_bytes()
    golden_text = (goldens / "table1_tree.txt").read_text()
    golden_dot = (goldens / "table1_tree.dot").read_text()

    rng = random.Random(7)
    for attempt in range(5):
        data = table1_fixture()
        order = list(range(10))
        if attempt:
            rng.shuffle(order)
        permuted = Dataset(columns=data.columns, rows=tuple(data.rows[i] for i in order))
        model = learn(permuted)
        assert save_model(model) == golden_model
        assert export_text(model) == golden_text
        assert export_dot(model) == golden_dot
    _ok("criterion-5 determinism-golden-files")


def test_criterion_6_prefix_rule():
    from fractions import Fraction
    from math import ceil

    model = learn(table1_fixture())
    for n_pages in range(1, 41):
        pages = [canonical_toc_page(index=i + 1, with_links=True) for i in range(n_pages)]
        book = doc(pages, doc_id=f"book-{n_pages}")
        for fraction in (0.15, 0.2, 0.3, 1.0):
            result = detect(book, model, prefix_fraction=fraction)
            expected = max(1, ceil(Fraction(str(fraction)) * n_pages))
            assert len(result.scanned_pages) == expected
            assert result.scanned_pages == tuple(range(1, expected + 1))
            for page_index, _ in result.toc_pages:
                assert page_index in result.scanned_pages
    _ok("criterion-6 prefix-rule")


def test_criterion_7_end_to_end():
    pages = []
    for i in range(1, 11):
        if i == 2:
            pages.append(canonical_toc_page(index=i, with_links=True))
        else:
            pages.append(page([["prose", "on", "page"], ["more", "words"]], index=i))
    book = parse_document(write_document_xml(doc(pages, doc_id="book")))

    model = learn(table1_fixture())
    results = [detect(book, model, prefix_fraction=0.3) for _ in range(3)]
    assert all(r == results[0] for r in results)  # stable across runs
    assert [p for p, _ in results[0].toc_pages] == [2]

    # hand trace: route each scanned page's features through the saved JSON
    # tree with an independent walker and through the exported text's logic
    saved = json.loads(save_model(model))
    text = export_text(model)
    for page_index in results[0].scanned_pages:
        vector = extract_features(book.pages[page_index - 1], CFG).as_dict()
        predicted, counts = classify(model, vector)
        assert route_json_tree(saved["root"], vector) == (str(predicted), counts)
    # the TOC page's route, read off the text export by hand:
    # start-number frequency 0.8 is > 0.035 and <= 0.855 -> TOC leaf (8/0)
    toc_vector = extract_features(book.pages[1], CFG).as_dict()
    assert toc_vector["line_start_number_frequency"] == pytest.approx(0.8)
    assert "line_start_number_frequency <= 0.035?" in text
    assert classify(model, toc_vector) == (TOC, (8, 0))
    _ok("criterion-7 end-to-end")
