"""Traced pass over tocdetect's public functions, one span per layer call.

Spans are recorded by the benchmark around its own calls into each module
(``docmodel``, ``features``, ``dataset``, ``tree``, ``pipeline``); there
are no spans inside the program. They are kept in memory as name, start,
end, parent and attributes, and written out when the run ends. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import contextmanager, nullcontext

import oracle
import tocdetect as td


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        return self._span(name, attrs) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name, attrs):
        record = {"name": name, "start_ns": time.perf_counter_ns(), "end_ns": None,
                  "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def total_s(self, name: str, **attrs) -> float:
        """Summed duration of the spans with this name and these attributes."""
        return sum(
            s["end_ns"] - s["start_ns"] for s in self.spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ) / 1e9

    def self_times(self) -> dict[str, tuple[float, float]]:
        """name -> (total seconds, self seconds)."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: dict[str, tuple[float, float]] = {}
        for s, covered in zip(self.spans, child):
            total, own = out.get(s["name"], (0.0, 0.0))
            dur = s["end_ns"] - s["start_ns"]
            out[s["name"]] = (total + dur / 1e9, own + (dur - covered) / 1e9)
        return out


class Kit:
    """The inputs one layer pass runs on, read into memory before timing."""

    def __init__(self, expect: dict, model_bytes: bytes):
        self.prefix = expect["prefix"]
        self.model_bytes = model_bytes
        self.model_root = json.loads(model_bytes)["root"]
        self.docs = expect["docs"]
        self.xml = []
        for doc in self.docs:
            with open(doc["xml"], "rb") as fh:
                self.xml.append(fh.read())
        self.csv = {}
        for name in ("train", "test", "loo"):
            if name in expect:
                with open(expect[name], "rb") as fh:
                    self.csv[name] = fh.read()


def _concat_csv(parts: list[bytes]) -> bytes:
    header, *_ = parts[0].split(b"\n", 1)
    return header + b"\n" + b"".join(p.split(b"\n", 1)[1] for p in parts)


def _head_csv(data: bytes, rows: int) -> bytes:
    return b"\n".join(data.split(b"\n")[: rows + 1]) + b"\n"


def layer_pass(kit: Kit, tr: Tracer, loo_rows: int) -> tuple[dict, list]:
    """One pass over every layer. Returns (counts, [(check name, reason)])."""
    counts = dict.fromkeys(("pages", "tokens", "title_pages", "scanned", "toc", "rows_csv",
                            "rows_loaded", "rows_classified", "nodes"), 0)
    checks = []
    with tr.span("pass"):
        with tr.span("tree.load_model", model="fixture"):
            fixture = td.load_model(kit.model_bytes)
        parts, outputs = [], []
        for d, (exp, xml) in enumerate(zip(kit.docs, kit.xml)):
            with tr.span("docmodel.expat_floor", doc=d):
                ET.fromstring(xml)
            with tr.span("docmodel.parse_document", doc=d):
                doc = td.parse_document(xml)
            with tr.span("features.extract_features", doc=d):
                vectors = [td.extract_features(page) for page in doc.pages]
            rows = [(page.index, vector, p["label"])
                    for page, vector, p in zip(doc.pages, vectors, exp["pages"])]
            with tr.span("features.write_feature_csv", doc=d):
                part = td.write_feature_csv(rows)
            with tr.span("pipeline.detect", doc=d):
                result = td.detect(doc, fixture, prefix_fraction=kit.prefix)
            parts.append(part)
            outputs.append((exp, part, result.to_json_dict()))
            counts["pages"] += len(doc.pages)
            counts["tokens"] += sum(len(ln.tokens) for page in doc.pages for ln in page.lines)
            counts["title_pages"] += sum(v.contains_title_term for v in vectors)
            counts["rows_csv"] += len(rows)
            counts["scanned"] += len(result.scanned_pages)
            counts["toc"] += len(result.toc_pages)
            del doc, vectors, rows, result

        # train-eval brings its own CSVs; document workloads learn from
        # the rows they just extracted, labeled with the true labels.
        extracted = _concat_csv(parts)
        train_csv = kit.csv.get("train", extracted)
        test_csv = kit.csv.get("test", extracted)
        loo_csv = kit.csv.get("loo", _head_csv(extracted, loo_rows))
        data = {}
        for name, raw in (("train", train_csv), ("test", test_csv), ("loo", loo_csv)):
            with tr.span("dataset.load_csv", csv=name):
                data[name] = td.load_csv(raw)
            counts["rows_loaded"] += len(data[name].rows)
        with tr.span("tree.learn"):
            model = td.learn(data["train"])
        with tr.span("tree.save_model"):
            saved = td.save_model(model)
        with tr.span("tree.load_model", model="learned"):
            model = td.load_model(saved)
        test = data["test"]
        with tr.span("tree.classify"):
            for values, _ in test.rows:
                td.classify(model, dict(zip(test.columns, values)))
        counts["rows_classified"] = len(test.rows)
        with tr.span("pipeline.evaluate"):
            report = td.evaluate(model, test)
        with tr.span("pipeline.leave_one_out"):
            loo = td.leave_one_out(data["loo"])
    counts["nodes"] = oracle.count_nodes(json.loads(saved)["root"])
    for exp, part, result in outputs:
        checks.append((f"extract {exp['id']}", oracle.checked(oracle.check_extract, part, exp)))
        expected = oracle.expected_detection(exp, kit.model_root, kit.prefix)
        checks.append((f"detect {exp['id']}",
                       oracle.checked(oracle.check_detection, result, expected)))
    checks.append(("train", oracle.checked(oracle.check_model, saved, train_csv)))
    checks.append(("evaluate",
                   oracle.checked(oracle.check_report, report.to_json_dict(), test_csv)))
    checks.append(("leave_one_out",
                   oracle.checked(oracle.check_report, loo.to_json_dict(), loo_csv)))
    return counts, checks


def peak_parse_alloc_mb(kit: Kit) -> float:
    """Largest tracemalloc peak of parsing one document, in its own pass."""
    peak = 0
    for xml in kit.xml:
        tracemalloc.start()
        try:
            doc = td.parse_document(xml)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            del doc
        finally:
            tracemalloc.stop()
    return peak / 2**20


def layer_metrics(tracers: list[Tracer], counts: dict) -> dict:
    """Per-layer metrics: medians over the traced passes, plus counts."""

    def med(name, **attrs):
        return statistics.median(tr.total_s(name, **attrs) for tr in tracers)

    parse_s = med("docmodel.parse_document")
    return {
        "docmodel.parse_s": (parse_s, "s"),
        "docmodel.expat_floor_s": (med("docmodel.expat_floor"), "s"),
        "docmodel.tokens_per_s": (counts["tokens"] / parse_s, "tokens/s"),
        "docmodel.pages": (counts["pages"], "count"),
        "docmodel.tokens": (counts["tokens"], "count"),
        "features.extract_us_per_page": (
            med("features.extract_features") / counts["pages"] * 1e6, "us"),
        "features.csv_us_per_row": (
            med("features.write_feature_csv") / counts["rows_csv"] * 1e6, "us"),
        "features.pages": (counts["pages"], "count"),
        "features.title_pages": (counts["title_pages"], "count"),
        "tree.learn_s": (med("tree.learn"), "s"),
        "tree.nodes": (counts["nodes"], "count"),
        "tree.classify_us_per_row": (
            med("tree.classify") / counts["rows_classified"] * 1e6, "us"),
        "tree.load_model_ms": (med("tree.load_model", model="learned") * 1e3, "ms"),
        "dataset.load_csv_us_per_row": (
            med("dataset.load_csv") / counts["rows_loaded"] * 1e6, "us"),
        "pipeline.detect_s": (med("pipeline.detect"), "s"),
        "pipeline.evaluate_s": (med("pipeline.evaluate"), "s"),
        "pipeline.loo_s": (med("pipeline.leave_one_out"), "s"),
        "pipeline.scanned_pages": (counts["scanned"], "count"),
        "pipeline.toc_pages": (counts["toc"], "count"),
    }
