"""Exception hierarchy shared across the toolkit."""


class TocDetectError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class MalformedXml(TocDetectError):
    """Input bytes are not well-formed XML."""

    code = "malformed-xml"


class SchemaViolation(TocDetectError):
    """Well-formed XML that breaks the document schema; message names the element path."""

    code = "schema-violation"

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class DatasetError(TocDetectError):
    code = "dataset-error"


class UnknownColumn(DatasetError):
    code = "unknown-column"


class MissingLabelColumn(DatasetError):
    code = "missing-label-column"


class EmptyDataset(DatasetError):
    code = "empty-dataset"


class MixedLabeling(DatasetError):
    """Some but not all rows of a feature CSV carry labels."""

    code = "mixed-labeling"


class DataTypeError(DatasetError):
    """A value does not parse as / match its column's declared type."""

    code = "type-error"

    def __init__(self, message, row=None, column=None):
        ctx = ""
        if row is not None:
            ctx += f"row {row}"
        if column is not None:
            ctx += (", " if ctx else "") + f"column {column!r}"
        super().__init__(f"{ctx}: {message}" if ctx else message)
        self.row = row
        self.column = column


class ColumnMismatch(DatasetError):
    """Evaluation data lacks columns the model requires."""

    code = "column-mismatch"


class MissingFeature(TocDetectError):
    """classify was handed a vector without a value for a model column."""

    code = "missing-feature"

    def __init__(self, column):
        super().__init__(f"no value supplied for feature {column!r}")
        self.column = column

    def __reduce__(self):  # args holds the message, not the column this class is built from
        return type(self), (self.column,)


class ModelError(TocDetectError):
    code = "model-error"


class CorruptModel(ModelError):
    code = "corrupt-model"


class UnsupportedVersion(ModelError):
    code = "unsupported-version"
