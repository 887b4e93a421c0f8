"""Command-line interface: extract / train / predict / eval / export / fixture.

Exit codes: 0 success, 1 usage errors, 2 data errors (XML/CSV/features) and
I/O errors, 3 model-file errors. Output files are written atomically (temp +
rename, at a symlink's target); a device or FIFO is written in place. All
outputs are deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dataset as dataset_mod
from . import features, tree
from .errors import DataTypeError, ModelError, TocDetectError
from .features import FeatureConfig
from .schema import parse_label, parse_number


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _ascii_number(text: str, kind=float):
    try:
        return parse_number(text, kind)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an ASCII {kind.__name__} without '_'")


def _positive_int(text: str) -> int:
    value = _ascii_number(text, int)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="tocdetect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=None):
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])

    p = sub.add_parser("extract", help="extract per-page feature CSV from document XML")
    p.add_argument("document", metavar="DOC.xml")
    p.add_argument("--labels", metavar="PATH",
                   help="page labels file: one '<page-index> <TOC|NON-TOC>' per line")
    p.add_argument("--config", metavar="PATH", help="feature config key=value file")
    add_common(p)

    p = sub.add_parser("train", help="learn a decision tree from a labeled CSV")
    p.add_argument("training", metavar="TRAIN.csv")
    p.add_argument("--out", metavar="PATH", required=True, help="model file to write")
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--max-depth", type=_positive_int, default=None)
    p.add_argument("--min-rows", type=_positive_int, default=1)

    p = sub.add_parser("predict", help="detect TOC pages in a document")
    p.add_argument("model", metavar="MODEL")
    p.add_argument("document", metavar="DOC.xml")
    p.add_argument("--prefix", type=_ascii_number, default=0.3,
                   help="leading fraction of pages to scan (default 0.3)")
    add_common(p, fmt=("text", "json"))

    p = sub.add_parser("eval", help="evaluate a model on labeled data")
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="MODEL TEST.csv, or TRAIN.csv with --loo")
    p.add_argument("--loo", action="store_true", help="leave-one-out cross-validation")
    p.add_argument("--max-depth", type=_positive_int, help="with --loo only")
    p.add_argument("--min-rows", type=_positive_int, help="with --loo only (default 1)")
    add_common(p, fmt=("text", "json"))

    p = sub.add_parser("export", help="render a model as text or DOT")
    p.add_argument("model", metavar="MODEL")
    add_common(p, fmt=("text", "dot"))

    p = sub.add_parser("fixture", help="emit embedded fixture files")
    p.add_argument("--table1", action="store_true", required=True,
                   help="the 10-row training dataset CSV")
    p.add_argument("--out", metavar="PATH")
    return parser


def _read_lines(path: str) -> list:
    """(line number, text) of each non-blank line of a UTF-8 file; '#' starts a comment."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # -sig: a leading BOM is dropped
            numbered = [(n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(fh, start=1)]
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"{path}: cannot read: {exc.strerror}") from exc
    return [(n, line) for n, line in numbered if line]


def load_feature_config(path: str | None) -> FeatureConfig:
    """Parse a key=value config file overriding feature extraction defaults.

    Keys: title_terms and section_keywords (comma-separated; FeatureConfig
    normalizes the items), max_page_number_digits (integer). '#' starts a
    comment. No path gives the defaults.
    """
    kwargs = {}
    for lineno, line in _read_lines(path) if path else ():
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in kwargs:
            raise UsageError(f"{path}:{lineno}: {key} is set twice")
        if key in ("title_terms", "section_keywords"):
            value = tuple(item for item in value.split(",") if item.strip())
        elif key == "max_page_number_digits":
            try:
                value = parse_number(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: not an integer: {value!r}")
        else:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            FeatureConfig(**{key: value})  # its rules, checked while the line number is known
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}")
        kwargs[key] = value
    return FeatureConfig(**kwargs)


def _load_labels(path: str, pages: set) -> dict:
    labels = {}
    for lineno, line in _read_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise UsageError(f"{path}:{lineno}: expected '<page-index> <label>'")
        try:
            index = parse_number(parts[0])
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad page index {parts[0]!r}")
        if index in labels:
            raise UsageError(f"{path}:{lineno}: page {index} is labeled twice")
        if index not in pages:
            raise UsageError(f"{path}:{lineno}: page {index} is not in the document")
        try:
            labels[index] = parse_label(parts[1])
        except DataTypeError:
            raise UsageError(f"{path}:{lineno}: unknown label {parts[1]!r}")
    if not labels:
        raise UsageError(f"{path}: holds no page labels")
    return labels


def _write_output(payload: bytes, out_path: str | None):
    if out_path is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    try:
        # a device or FIFO takes the bytes in place: renaming over it would replace it
        if os.path.exists(out_path) and not os.path.isfile(out_path):
            with open(out_path, "wb") as fh:
                fh.write(payload)
            return
        target = os.path.realpath(out_path)  # replace a symlink's target, not the link
        tmp = os.path.join(os.path.dirname(target), f".tocdetect-{os.urandom(8).hex()}")
        # as open(path, "wb") does: the kernel takes the umask off 0666, so no umask is read
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # name the user's path, not the temp file's
        raise OSError(exc.errno, exc.strerror, out_path) from exc


def _read_model(path: str) -> tree.TrainedModel:
    try:
        data = _read_bytes(path)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc.strerror}") from exc
    return tree.load_model(data)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:  # a read error names the user's path, as an open error does
        raise OSError(exc.errno, exc.strerror, path) from exc


def _read_document(path: str):
    from . import docmodel  # here, so that only the commands that read a document load expat

    try:
        with open(path, "rb") as fh:
            return docmodel.parse_document(fh)  # expat reads the file as it parses
    except OSError as exc:  # a read error names the user's path, as an open error does
        raise OSError(exc.errno, exc.strerror, path) from exc


def _cmd_extract(args) -> bytes:
    cfg = load_feature_config(args.config)
    doc = _read_document(args.document)
    labels = _load_labels(args.labels, {page.index for page in doc.pages}) if args.labels else None
    rows = []
    for page in doc.pages:
        vector = features.extract_features(page, cfg)
        label = labels.get(page.index) if labels is not None else None
        rows.append((page.index, vector, label))
    return features.write_feature_csv(rows)


def _cmd_train(args) -> bytes:
    cfg = load_feature_config(args.config)
    data = dataset_mod.load_csv(_read_bytes(args.training))
    model = tree.learn(data, max_depth=args.max_depth, min_rows=args.min_rows, config=cfg)
    return tree.save_model(model)


def _cmd_predict(args) -> bytes:
    from . import pipeline

    if not 0 < args.prefix <= 1:
        raise UsageError(f"--prefix must be in (0, 1], got {args.prefix}")
    model = _read_model(args.model)
    doc = _read_document(args.document)
    result = pipeline.detect(doc, model, prefix_fraction=args.prefix)
    if args.format == "json":
        return (json.dumps(result.to_json_dict(), indent=2) + "\n").encode("utf-8")
    return result.to_text().encode("utf-8")


def _cmd_eval(args) -> bytes:
    from . import pipeline

    if args.loo:
        if len(args.paths) != 1:
            raise UsageError("--loo takes exactly one CSV path")
        data = dataset_mod.load_csv(_read_bytes(args.paths[0]))
        report = pipeline.leave_one_out(data, max_depth=args.max_depth, min_rows=args.min_rows or 1)
    else:
        if len(args.paths) != 2:
            raise UsageError("eval takes MODEL and TEST.csv paths")
        if args.max_depth is not None or args.min_rows is not None:
            raise UsageError("--max-depth and --min-rows apply only with --loo")
        model = _read_model(args.paths[0])
        data = dataset_mod.load_csv(_read_bytes(args.paths[1]))
        report = pipeline.evaluate(model, data)
    if args.format == "json":
        return (json.dumps(report.to_json_dict(), indent=2) + "\n").encode("utf-8")
    return report.to_text().encode("utf-8")


def _cmd_export(args) -> bytes:
    model = _read_model(args.model)
    if args.format == "dot":
        return tree.export_dot(model).encode("utf-8")
    return tree.export_text(model).encode("utf-8")


def _cmd_fixture(args) -> bytes:
    return dataset_mod.table1_csv_bytes()


_COMMANDS = {
    "extract": _cmd_extract,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "export": _cmd_export,
    "fixture": _cmd_fixture,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload = _COMMANDS[args.command](args)
        _write_output(payload, getattr(args, "out", None))
        return 0
    except UsageError as exc:
        print(f"tocdetect: error[usage]: {exc}", file=sys.stderr)
        return 1
    except TocDetectError as exc:
        print(f"tocdetect: error[{exc.code}]: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ModelError) else 2
    except OSError as exc:
        print(f"tocdetect: error[io]: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
