"""Labeled dataset loading/saving and the embedded 10-row training fixture.

CSV format: UTF-8, comma-separated. Header = any subset of the canonical
feature columns (an optional leading "page" identifier column is accepted
and skipped) followed by a trailing "label" column. Booleans are YES/NO;
categoricals are uppercase (hyphen or underscore accepted on input,
underscore on output); reals are decimal literals.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
from dataclasses import dataclass

from . import schema
from .errors import (
    DataTypeError,
    DatasetError,
    EmptyDataset,
    MissingLabelColumn,
    UnknownColumn,
)
from .schema import ClassLabel


@dataclass(frozen=True)
class Dataset:
    columns: tuple[str, ...]
    rows: tuple[tuple[tuple, ClassLabel], ...]  # (values as check_value returns them, label)

    def __post_init__(self):
        if not self.columns:
            raise UnknownColumn("dataset has no feature columns")
        seen = set()
        for name in self.columns:
            if name not in schema.CANONICAL_COLUMNS:
                raise UnknownColumn(f"not a canonical feature column: {name!r}")
            if name in seen:
                raise UnknownColumn(f"duplicate column: {name!r}")
            seen.add(name)
        rows = []
        for r, (values, label) in enumerate(self.rows, start=1):
            if len(values) != len(self.columns):
                raise UnknownColumn(f"row {r} has {len(values)} values for {len(self.columns)} columns")
            if not isinstance(label, ClassLabel):
                raise DataTypeError(f"expected a ClassLabel, got {label!r}", row=r, column="label")
            values = tuple(schema.check_value(n, v, row=r) for n, v in zip(self.columns, values))
            rows.append((values, label))
        object.__setattr__(self, "rows", tuple(rows))


def _records(text: str):
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetError(f"CSV line {reader.line_num}: {exc}") from exc


def load_csv(data: bytes) -> Dataset:
    """Parse dataset CSV bytes; raises UnknownColumn / MissingLabelColumn /
    DataTypeError / EmptyDataset, or DatasetError for bytes that are not UTF-8 CSV."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"CSV is not UTF-8: {exc}") from exc
    reader = _records(text)
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
    Dataset(columns=tuple(feature_cols), rows=())  # column rules, before parse_value looks them up

    rows = []
    # rows are numbered as data rows (blank lines skipped), as Dataset numbers them
    for r, cells in enumerate(filter(None, reader), start=1):
        if len(cells) != len(header):
            raise UnknownColumn(f"row {r} has {len(cells)} cells for {len(header)} columns")
        if skip_page:
            cells = cells[1:]
        values = tuple(
            schema.parse_value(name, cell, row=r)
            for name, cell in zip(feature_cols, cells[:-1])
        )
        rows.append((values, schema.parse_label(cells[-1], row=r)))
    if not rows:
        raise EmptyDataset("CSV contains a header but no data rows")
    return Dataset(columns=tuple(feature_cols), rows=tuple(rows))


def write_csv(data: Dataset) -> bytes:
    """Serialize a Dataset; load_csv(write_csv(d)) == d."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*data.columns, "label"])
    for values, label in data.rows:
        cells = [schema.format_value(name, value) for name, value in zip(data.columns, values)]
        writer.writerow([*cells, str(label)])
    return buf.getvalue().encode("utf-8")


def table1_csv_bytes() -> bytes:
    """The shipped 10-row training CSV, byte-exact."""
    return importlib.resources.files("tocdetect").joinpath("fixtures/table1.csv").read_bytes()


def table1_fixture() -> Dataset:
    """The embedded 10-row training dataset (8 TOC, 2 NON-TOC)."""
    return load_csv(table1_csv_bytes())
