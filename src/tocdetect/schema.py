"""Canonical feature schema: column names, kinds, and the CSV value codec.

Every dataset column and every tree split references one of these columns;
the order below is the canonical order used for CSV output and tie-breaking.
"""

from __future__ import annotations

import enum

from .errors import DataTypeError


class Kind(enum.Enum):
    BOOL = "bool"
    CATEGORICAL = "categorical"
    INT = "int"
    REAL = "real"


class ClassLabel(enum.Enum):
    TOC = "TOC"
    NON_TOC = "NON-TOC"

    def __str__(self):
        return self.value


#: Legal levels for the title-style column.
STYLE_LEVELS = ("LARGEST", "INTERMEDIATE", "MOST_FREQUENT", "NA")

#: name -> Kind, in canonical order.
CANONICAL_COLUMNS = {
    "contains_title_term": Kind.BOOL,
    "title_term_style": Kind.CATEGORICAL,
    "title_term_font_class": Kind.CATEGORICAL,
    "contextual_term_count": Kind.INT,
    "section_term_frequency": Kind.REAL,
    "title_term_line_position": Kind.REAL,
    "line_start_number_frequency": Kind.REAL,
    "line_end_number_frequency": Kind.REAL,
    "numbers_ascending": Kind.BOOL,
    "outgoing_link_frequency": Kind.REAL,
}

_CANONICAL_INDEX = {name: i for i, name in enumerate(CANONICAL_COLUMNS)}


def canonical_index(name: str) -> int:
    """Position of a column in the canonical order (tie-break key for splits)."""
    return _CANONICAL_INDEX[name]


def is_numeric(kind: Kind) -> bool:
    return kind in (Kind.INT, Kind.REAL)


def normalize_categorical(text: str) -> str:
    """Uppercase a categorical level, mapping hyphens and spaces to underscores."""
    out = "_".join(text.strip().upper().replace("-", "_").split())
    return out


def parse_label(text: str, row=None) -> ClassLabel:
    norm = text.strip().upper().replace("_", "-")
    for label in ClassLabel:
        if norm == label.value:
            return label
    raise DataTypeError(f"unknown class label {text!r}", row=row, column="label")


def parse_value(column: str, text: str, row=None):
    """Turn one CSV cell into its column's Python type; the value rules are check_value's."""
    kind = CANONICAL_COLUMNS[column]
    text = text.strip()
    if kind is Kind.BOOL:
        if text.upper() == "YES":
            return True
        if text.upper() == "NO":
            return False
        raise DataTypeError(f"expected YES/NO, got {text!r}", row=row, column=column)
    if kind is Kind.CATEGORICAL:
        return text
    try:
        return int(text) if kind is Kind.INT else float(text)
    except ValueError:
        expected = "integer" if kind is Kind.INT else "real"
        raise DataTypeError(f"expected {expected}, got {text!r}", row=row, column=column)


def check_value(column: str, value, row=None):
    """Validate a value against its column's rules; returns it in tree form (levels normalized)."""
    kind = CANONICAL_COLUMNS[column]
    if kind is Kind.BOOL:
        if not isinstance(value, bool):
            raise DataTypeError(f"expected bool, got {value!r}", row=row, column=column)
    elif kind is Kind.CATEGORICAL:
        if not isinstance(value, str):
            raise DataTypeError(f"expected str, got {value!r}", row=row, column=column)
        level = normalize_categorical(value)
        if not level:
            raise DataTypeError("empty categorical value", row=row, column=column)
        if column == "title_term_style" and level not in STYLE_LEVELS:
            raise DataTypeError(f"unknown style level {value!r}", row=row, column=column)
        return level
    elif kind is Kind.INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataTypeError(f"expected int, got {value!r}", row=row, column=column)
        if not 0 <= value <= 2**53:  # an exact float, so every split threshold is a finite number
            raise DataTypeError(f"count {value} outside [0, 2**53]", row=row, column=column)
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataTypeError(f"expected real, got {value!r}", row=row, column=column)
        if not 0.0 <= value <= 1.0:  # every real feature is a fraction or a position
            raise DataTypeError(f"value {value} outside [0, 1]", row=row, column=column)
    return value


def format_value(column: str, value) -> str:
    """Render a value as its CSV cell text; check_value(parse_value(...)) reads it back."""
    kind = CANONICAL_COLUMNS[column]
    if kind is Kind.BOOL:
        return "YES" if value else "NO"
    if kind is Kind.CATEGORICAL:
        return normalize_categorical(value)
    if kind is Kind.INT:
        return str(value)
    return repr(float(value))
