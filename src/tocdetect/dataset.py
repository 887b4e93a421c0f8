"""Labeled dataset loading/saving and the embedded 10-row training fixture.

CSV format: UTF-8, comma-separated. Header = any subset of the canonical
feature columns (an optional leading "page" identifier column is accepted
and skipped) followed by a trailing "label" column. Booleans are YES/NO;
categoricals are uppercase (hyphen or underscore accepted on input,
underscore on output); reals are decimal literals.
"""

from __future__ import annotations

import csv
import io

from . import schema
from .errors import (
    DataTypeError,
    DatasetError,
    EmptyDataset,
    MissingLabelColumn,
    UnknownColumn,
)
from .record import Frozen
from .schema import ClassLabel


class Dataset(Frozen):
    _fields = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...],
                 rows: tuple[tuple[tuple, ClassLabel], ...]):  # (values, label) pairs
        if not columns:
            raise UnknownColumn("dataset has no feature columns")
        seen = set()
        for name in columns:
            if name not in schema.CANONICAL_COLUMNS:
                raise UnknownColumn(f"not a canonical feature column: {name!r}")
            if name in seen:
                raise UnknownColumn(f"duplicate column: {name!r}")
            seen.add(name)
        checked = []
        for r, (values, label) in enumerate(rows, start=1):
            if len(values) != len(columns):
                raise UnknownColumn(f"row {r} has {len(values)} values for {len(columns)} columns")
            if not isinstance(label, ClassLabel):
                raise DataTypeError(f"expected a ClassLabel, got {label!r}", row=r, column="label")
            values = tuple(schema.check_value(n, v, row=r) for n, v in zip(columns, values))
            checked.append((values, label))
        self._set(columns, tuple(checked))  # values as check_value returns them


def _lines(data: bytes):
    """The lines of io.StringIO(data.decode("utf-8-sig")): split only at "\n", each keeping it.
    They are decoded a block at a time, where io.StringIO copies the text at 4 bytes a character."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="\n")


def _records(data: bytes):
    reader = csv.reader(_lines(data))
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetError(f"CSV line {reader.line_num}: {exc}") from exc


def load_csv(data: bytes) -> Dataset:
    """Parse dataset CSV bytes; raises UnknownColumn / MissingLabelColumn /
    DataTypeError / EmptyDataset, or DatasetError for bytes that are not UTF-8 CSV.

    The CSV is read line by line from the bytes. ASCII input is never held as a whole text;
    other input is decoded whole once, and dropped, to check that it is UTF-8 before any line
    is read, then decoded again a block at a time as its lines are read."""
    try:  # the whole input before any line, so that this error wins; ASCII is UTF-8 as it is
        if not data.isascii():
            data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"CSV is not UTF-8: {exc}") from exc
    reader = _records(data)
    header = next(reader, None)
    if header is None:
        raise EmptyDataset("no header row")
    header = [cell.strip() for cell in header]
    if not header or header[-1] != "label":
        raise MissingLabelColumn("last column must be 'label'")
    feature_cols = header[:-1]
    if feature_cols and feature_cols[0] == "page":
        skip_page = True
        feature_cols = feature_cols[1:]
    else:
        skip_page = False
    dataset = Dataset(columns=tuple(feature_cols), rows=())  # column rules, before cells are read

    # Columns repeat a few values, so each distinct cell text of a column is parsed and checked
    # once. The first failed check is raised only once the whole file has parsed, so an error
    # in reading any cell, label or row wins, as when every cell was parsed before any check.
    checked = [{} for _ in feature_cols]  # per column: cell text -> checked value
    labels, rows, failed = {}, [], None
    # rows are numbered as data rows (blank lines skipped), as Dataset numbers them
    for r, cells in enumerate(filter(None, reader), start=1):
        if len(cells) != len(header):
            raise UnknownColumn(f"row {r} has {len(cells)} cells for {len(header)} columns")
        if skip_page:
            cells = cells[1:]
        values = []
        for name, memo, cell in zip(feature_cols, checked, cells):
            value = memo.get(cell)  # no checked value is None
            if value is None:
                value = schema.parse_value(name, cell, row=r)
                try:
                    value = memo[cell] = schema.check_value(name, value, row=r)
                except DataTypeError as exc:
                    failed = failed or exc
            values.append(value)
        label = labels.get(cells[-1])
        if label is None:
            label = labels[cells[-1]] = schema.parse_label(cells[-1], row=r)
        rows.append((tuple(values), label))
    if not rows:
        raise EmptyDataset("CSV contains a header but no data rows")
    if failed:
        raise failed
    object.__setattr__(dataset, "rows", tuple(rows))  # checked above: not again by Dataset
    return dataset


def _write_csv_rows(header: list[str], rows) -> bytes:
    """UTF-8 CSV bytes of a header and rows of cell texts, each line ended by "\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def write_csv(data: Dataset) -> bytes:
    """Serialize a Dataset; load_csv(write_csv(d)) == d."""
    rows = ([*map(schema.format_value, data.columns, values), str(label)]
            for values, label in data.rows)
    return _write_csv_rows([*data.columns, "label"], rows)


def table1_csv_bytes() -> bytes:
    """The shipped 10-row training CSV, byte-exact."""
    import importlib.resources  # only the fixture needs it, and it is slow to import

    return importlib.resources.files("tocdetect").joinpath("fixtures/table1.csv").read_bytes()


def table1_fixture() -> Dataset:
    """The embedded 10-row training dataset (8 TOC, 2 NON-TOC)."""
    return load_csv(table1_csv_bytes())
