import pytest

from tocdetect.dataset import Dataset, load_csv, table1_csv_bytes, table1_fixture, write_csv
from tocdetect.errors import (
    DataTypeError,
    EmptyDataset,
    MissingLabelColumn,
    UnknownColumn,
)
from tocdetect.schema import ClassLabel


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
    counts = data.label_counts()
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


def test_dataset_rejects_duplicate_columns():
    with pytest.raises(UnknownColumn):
        Dataset(columns=("contains_title_term", "contains_title_term"),
                rows=(((True, True), ClassLabel.TOC),))
