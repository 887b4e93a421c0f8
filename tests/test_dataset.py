import io
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tocdetect.dataset import (
    Dataset,
    _lines,
    load_csv,
    table1_csv_bytes,
    table1_fixture,
    write_csv,
)
from tocdetect.errors import (
    DataTypeError,
    EmptyDataset,
    MissingLabelColumn,
    UnknownColumn,
)
from tocdetect.schema import CANONICAL_COLUMNS, STYLE_LEVELS, ClassLabel, Kind
from tocdetect.tree import learn, load_model, save_model


def test_table1_shape():
    data = table1_fixture()
    assert data.columns == (
        "contains_title_term",
        "title_term_style",
        "line_end_number_frequency",
        "outgoing_link_frequency",
        "line_start_number_frequency",
    )
    assert len(data.rows) == 10
    counts = Counter(label for _, label in data.rows)
    assert counts[ClassLabel.TOC] == 8
    assert counts[ClassLabel.NON_TOC] == 2


def test_table1_spot_rows():
    rows = table1_fixture().rows
    assert rows[0] == ((True, "LARGEST", 0.8, 0.89, 0.8), ClassLabel.TOC)
    assert rows[6] == ((False, "NA", 0.98, 0.91, 0.12), ClassLabel.TOC)
    assert rows[8] == ((False, "NA", 0.87, 0.3, 0.02), ClassLabel.NON_TOC)
    assert rows[9] == ((True, "MOST_FREQUENT", 0.2, 0.86, 0.88), ClassLabel.NON_TOC)


def test_table1_is_pairwise_consistent():
    rows = table1_fixture().rows
    for i, (vi, li) in enumerate(rows):
        for vj, lj in rows[i + 1:]:
            if vi == vj:
                assert li == lj


def test_table1_fixture_equals_loaded_csv():
    assert table1_fixture() == load_csv(table1_csv_bytes())


def test_load_csv_header_only_is_empty():
    with pytest.raises(EmptyDataset):
        load_csv(b"contains_title_term,label\n")


def test_load_csv_requires_label_column():
    with pytest.raises(MissingLabelColumn):
        load_csv(b"contains_title_term\nYES\n")


def test_load_csv_unknown_column():
    with pytest.raises(UnknownColumn):
        load_csv(b"mystery,label\n1,TOC\n")


def test_load_csv_bad_boolean():
    with pytest.raises(DataTypeError) as exc:
        load_csv(b"contains_title_term,label\nmaybe,TOC\n")
    assert exc.value.row == 1
    assert exc.value.column == "contains_title_term"


def test_load_csv_real_out_of_range():
    with pytest.raises(DataTypeError):
        load_csv(b"section_term_frequency,label\n1.5,TOC\n")


def test_load_csv_error_rows_count_data_rows():
    with pytest.raises(DataTypeError) as exc:
        load_csv(b"contextual_term_count,label\n\n1,TOC\n-2,TOC\n")
    assert exc.value.row == 2
    assert exc.value.column == "contextual_term_count"


@pytest.mark.parametrize("data, error, message", [
    (b"contextual_term_count,label\nmany,TOC\n", DataTypeError,
     "row 1, column 'contextual_term_count': expected integer, got 'many'"),
    (b"contextual_term_count,label\n1_0,TOC\n", DataTypeError,
     "row 1, column 'contextual_term_count': expected integer, got '1_0'"),
    ("contextual_term_count,label\n\u0661,TOC\n".encode(), DataTypeError,
     "row 1, column 'contextual_term_count': expected integer, got '\u0661'"),
    (b"section_term_frequency,label\nhalf,TOC\n", DataTypeError,
     "row 1, column 'section_term_frequency': expected real, got 'half'"),
    (b"section_term_frequency,label\n0.0_5,TOC\n", DataTypeError,
     "row 1, column 'section_term_frequency': expected real, got '0.0_5'"),
    (b"section_term_frequency,label\n-0.5,TOC\n", DataTypeError,
     "row 1, column 'section_term_frequency': value -0.5 outside [0, 1]"),
    (b"contains_title_term,section_term_frequency,label\nYES,TOC\n", UnknownColumn,
     "row 1 has 2 cells for 3 columns"),
], ids=["count-word", "count-underscore", "count-arabic-indic", "real-word", "real-underscore",
        "real-negative", "short-row"])
def test_load_csv_rejects_bad_cells(data, error, message):
    with pytest.raises(error) as exc:
        load_csv(data)
    assert str(exc.value) == message


def test_load_csv_bad_style_level():
    with pytest.raises(DataTypeError):
        load_csv(b"title_term_style,label\nSHINY,TOC\n")


def test_load_csv_hyphenated_categorical_normalized():
    data = load_csv(b"title_term_style,label\nMOST-FREQUENT,NON_TOC\n")
    assert data.rows[0] == (("MOST_FREQUENT",), ClassLabel.NON_TOC)


def test_load_csv_skips_leading_page_column():
    data = load_csv(b"page,contains_title_term,label\n2,YES,TOC\n")
    assert data.columns == ("contains_title_term",)
    assert data.rows == (((True,), ClassLabel.TOC),)


def test_csv_round_trip():
    data = table1_fixture()
    assert load_csv(write_csv(data)) == data
    assert write_csv(load_csv(write_csv(data))) == write_csv(data)


def test_write_csv_preserves_fixture_bytes():
    assert write_csv(table1_fixture()) == table1_csv_bytes()


def test_duplicate_rows_allowed():
    data = load_csv(b"contains_title_term,label\nYES,TOC\nYES,TOC\n")
    assert len(data.rows) == 2


def test_signed_zero_cells_round_trip():
    data = load_csv(b"section_term_frequency,label\n0.0,TOC\n-0.0,TOC\n")
    assert repr([values for values, _ in data.rows]) == "[(0.0,), (-0.0,)]"
    assert write_csv(data) == b"section_term_frequency,label\n0.0,TOC\n-0.0,TOC\n"


# characters that end a line for str.splitlines but not for io.StringIO, with ones that do
# (no lone surrogate: it has no UTF-8 form, so it cannot be in a CSV's bytes)
_LINE_TEXT = st.text(st.sampled_from("a,\"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ufeff\x00")
                     | st.characters(blacklist_categories=("Cs",)))


@given(_LINE_TEXT, st.booleans())
def test_lines_are_those_of_stringio(text, bom):
    data = ("\ufeff" if bom else "").encode() + text.encode("utf-8")
    assert list(_lines(data)) == list(io.StringIO(data.decode("utf-8-sig")))


def test_load_csv_holds_no_copy_of_the_text():
    # about 1 MB in 20 000 distinct rows. While the rows are read, load_csv holds little beyond
    # them; io.StringIO would hold the decoded text (1 MB) and its copy of it (4 MB more)
    header = ",".join([*CANONICAL_COLUMNS, "label"])
    data = "".join([f"{header}\n", *(f"YES,LARGEST,SANS,{i % 1000},0.5,0.25,0.5,{i // 1000 / 20},"
                                      f"YES,0.0,{'TOC' if i % 3 else 'NON-TOC'}\n"
                                      for i in range(20_000))]).encode()
    assert 900_000 < len(data) < 1_100_000
    tracemalloc.start()
    try:
        loaded = load_csv(data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(loaded.rows)) == 20_000
    assert peak - kept < len(data) / 2


def test_dataset_rejects_duplicate_columns():
    with pytest.raises(UnknownColumn):
        Dataset(columns=("contains_title_term", "contains_title_term"),
                rows=(((True, True), ClassLabel.TOC),))


@pytest.mark.parametrize("column, value, label, fault_column", [
    ("title_term_style", "BOGUS", ClassLabel.TOC, "title_term_style"),
    ("title_term_font_class", " \t", ClassLabel.TOC, "title_term_font_class"),
    ("contains_title_term", True, "TOC", "label"),
    ("contains_title_term", "YES", ClassLabel.TOC, "contains_title_term"),
    ("title_term_font_class", 3, ClassLabel.TOC, "title_term_font_class"),
    ("contextual_term_count", 1.0, ClassLabel.TOC, "contextual_term_count"),
    ("contextual_term_count", "1", ClassLabel.TOC, "contextual_term_count"),
    ("contextual_term_count", True, ClassLabel.TOC, "contextual_term_count"),
    ("section_term_frequency", True, ClassLabel.TOC, "section_term_frequency"),
    ("section_term_frequency", -0.5, ClassLabel.TOC, "section_term_frequency"),
], ids=["bad-style-level", "blank-categorical", "str-label", "str-in-bool", "int-in-categorical",
        "float-in-count", "str-in-count", "bool-in-count", "bool-in-real", "negative-real"])
def test_dataset_applies_the_csv_value_rules(column, value, label, fault_column):
    with pytest.raises(DataTypeError) as exc:
        Dataset(columns=(column,), rows=(((value,), label),))
    assert (exc.value.row, exc.value.column) == (1, fault_column)


def test_dataset_rejects_row_of_wrong_width():
    with pytest.raises(UnknownColumn, match="row 1 has 2 values for 1 columns"):
        Dataset(columns=("contains_title_term",), rows=(((True, False), ClassLabel.TOC),))


def test_dataset_holds_normalized_levels():
    data = Dataset(columns=("title_term_style", "title_term_font_class"),
                   rows=((("most-frequent", "Times New Roman"), ClassLabel.TOC),))
    assert data.rows == ((("MOST_FREQUENT", "TIMES_NEW_ROMAN"), ClassLabel.TOC),)
    assert load_csv(write_csv(data)) == data


_LEVELS = st.one_of(
    st.sampled_from([*STYLE_LEVELS, "", " ", "largest", "Most-Frequent", " na ", "Times New Roman"]),
    st.text(max_size=6),
)
_VALUES = {
    Kind.BOOL: st.booleans(),
    Kind.CATEGORICAL: _LEVELS,
    Kind.INT: st.integers(min_value=0),
    Kind.REAL: st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1])),
}


@st.composite
def _library_rows(draw):
    columns = tuple(draw(st.lists(st.sampled_from(list(CANONICAL_COLUMNS)),
                                  min_size=1, max_size=4, unique=True)))
    rows = tuple(
        (tuple(draw(_VALUES[CANONICAL_COLUMNS[c]]) for c in columns),
         draw(st.sampled_from(ClassLabel)))
        for _ in range(draw(st.integers(1, 6)))
    )
    return columns, rows


@settings(max_examples=300, deadline=None)
@given(_library_rows())
def test_library_dataset_is_rejected_or_round_trips(columns_rows):
    # the in-memory route to a dataset follows the CSV rules, so whatever it
    # accepts survives both file formats
    columns, rows = columns_rows
    try:
        data = Dataset(columns=columns, rows=rows)
    except DataTypeError:
        return
    assert load_csv(write_csv(data)) == data
    model = learn(data)
    assert load_model(save_model(model)) == model
