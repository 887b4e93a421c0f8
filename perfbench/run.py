"""Seeded benchmark for tocdetect.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src``
and is not installed. Inputs are generated from the seed, then one client
runs the workload in a closed loop, one operation at a time, for S
seconds. Every operation's output is checked against an answer known by
construction (see ``oracle.py``); a non-zero exit, a traceback on stderr
or a wrong answer counts the operation as failed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass over the same inputs. A readable report goes to stderr.
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
LOO_ROWS = 80  # leave-one-out rows for the document workloads' traced pass


class SetupError(Exception):
    pass


@dataclass
class Child:
    status: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes

    def failure(self) -> str | None:
        if self.status != 0:
            last = self.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            return f"exit status {self.status}: {' '.join(last)}"
        if b"Traceback (most recent call last)" in self.stderr:
            return "traceback on stderr"
        return None


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    rss_kb: int
    pages: int
    error: str | None


class Spawner:
    """Starts child processes through ``spawner.py`` and returns their usage."""

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, argv: list[str]) -> Child:
        out, err = self.work / "child.out", self.work / "child.err"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("spawner exited")
        reply = json.loads(line)
        return Child(reply["status"], reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"],
                     out.read_bytes(), err.read_bytes())

    def cli(self, *args: str) -> Child:
        return self.run([sys.executable, "-m", "tocdetect.cli", *args])

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Workload:
    """Set-up and one operation of a workload; subclasses define ``op``."""

    name = ""
    # Spans of the traced pass that do, in process, the work of ``cli_op``.
    residual_spans: tuple = (
        ("tree.load_model", {"model": "fixture"}),
        ("docmodel.parse_document", {"doc": 0}),
        ("pipeline.detect", {"doc": 0}),
    )

    def __init__(self, seed: int, work: Path, spawner: Spawner, env: dict):
        self.seed, self.work, self.spawner, self.env = seed, work, spawner, env

    def _must(self, child: Child, what: str):
        reason = child.failure()
        if reason:
            raise SetupError(f"{what}: {reason}")

    def setup(self):
        """Generate inputs, write files, train the Table 1 model through the CLI."""
        self._must(self.spawner.run([
            sys.executable, str(HERE / "gen.py"), "--workload", self.name,
            "--seed", str(self.seed), "--out", str(self.work)]), "generator")
        table1, self.model = self.work / "table1.csv", self.work / "model.json"
        self._must(self.spawner.cli("fixture", "--table1", "--out", str(table1)), "fixture")
        self._must(self.spawner.cli("train", str(table1), "--out", str(self.model)), "train")
        self.expect = json.loads((self.work / "expect.json").read_text(encoding="utf-8"))
        self.model_bytes = self.model.read_bytes()
        root = json.loads(self.model_bytes)["root"]
        self.answers = [oracle.expected_detection(doc, root, self.expect["prefix"])
                        for doc in self.expect["docs"]]

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def cli_op(self) -> Op:
        """A CLI operation on these inputs, for ``cli.residual_s``."""
        return self.op(0)

    def _predict(self, doc: int, prefix: float, answer: dict) -> Op:
        d = self.expect["docs"][doc]
        child = self.spawner.cli("predict", str(self.model), d["xml"], "--prefix", str(prefix),
                                 "--format", "json")
        error = child.failure() or oracle.checked(
            oracle.check_detection, child.stdout, answer)
        return Op(child.wall_s, child.cpu_s, child.rss_kb, len(d["pages"]), error)

    def close(self):
        pass


class PredictBook(Workload):
    name = "predict-book"

    def op(self, i):
        return self._predict(0, self.expect["prefix"], self.answers[0])


class TrainEval(Workload):
    name = "train-eval"
    residual_spans = (
        ("dataset.load_csv", {}), ("tree.learn", {}), ("tree.save_model", {}),
        ("tree.load_model", {"model": "learned"}), ("pipeline.evaluate", {}),
        ("pipeline.leave_one_out", {}),
    )

    def setup(self):
        super().setup()
        self.csv = {name: Path(self.expect[name]).read_bytes()
                    for name in ("train", "test", "loo")}
        self.rows = sum(sum(oracle.csv_label_counts(data)) for data in self.csv.values())

    def op(self, i):
        learned = self.work / "learned.json"
        learned.unlink(missing_ok=True)
        children = [self.spawner.cli("train", self.expect["train"], "--out", str(learned))]
        saved = learned.read_bytes() if learned.exists() else b""
        error = children[0].failure() or oracle.checked(
            oracle.check_model, saved, self.csv["train"])
        children.append(self.spawner.cli("eval", str(learned), self.expect["test"],
                                         "--format", "json"))
        error = error or children[1].failure() or oracle.checked(
            oracle.check_report, children[1].stdout, self.csv["test"])
        children.append(self.spawner.cli("eval", "--loo", self.expect["loo"], "--format", "json"))
        error = error or children[2].failure() or oracle.checked(
            oracle.check_report, children[2].stdout, self.csv["loo"])
        return Op(sum(c.wall_s for c in children), sum(c.cpu_s for c in children),
                  max(c.rss_kb for c in children), self.rows, error)


class ScanLibrary(Workload):
    name = "scan-library"
    worker = None

    def setup(self):
        super().setup()
        docs = [d["xml"] for d in self.expect["docs"]]
        self.worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(self.model), *docs],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        if not self.worker.stdout.readline():
            raise SetupError("scan-library worker exited during set-up")

    def op(self, i):
        n = i % len(self.answers)
        start = time.perf_counter()
        try:
            self.worker.stdin.write(f"{n}\n")
            self.worker.stdin.flush()
            line = self.worker.stdout.readline()
        except BrokenPipeError:
            line = ""
        wall = time.perf_counter() - start
        if not line:
            return Op(wall, 0.0, 0, 0, "worker exited")
        reply = json.loads(line)
        error = oracle.checked(oracle.check_detection, reply["result"], self.answers[n])
        return Op(wall, reply["cpu_s"], reply["hwm_kb"], reply["pages"], error)

    def cli_op(self):
        return self._predict(0, 1.0, self.answers[0])

    def close(self):
        if self.worker is not None:
            self.worker.stdin.close()
            self.worker.wait()
            self.worker.stdout.close()
            self.worker = None


WORKLOADS = {w.name: w for w in (PredictBook, TrainEval, ScanLibrary)}


def _percentile_note(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    note = f"n={n} median={statistics.median(values):.4g}"
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            note += f" p{q}={statistics.quantiles(values, n=100)[q - 1]:.4g}"
            break
    return note


def end_to_end(wl: Workload, seconds: float, setup_times: list[float]):
    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(wl.op(len(ops)))
        if ops[-1].error == "worker exited":
            break
    failed = [op for op in ops if op.error]
    for op in failed[:5]:
        print(f"FAILED: {op.error}", file=sys.stderr)
    walls = [op.wall_s for op in ops]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(op.cpu_s for op in ops), "s"),
        "pages_per_s": (statistics.median(op.pages / op.wall_s for op in ops), "pages/s"),
        "peak_rss_mb": (max(op.rss_kb for op in ops) / 1024, "MB"),
    }
    print(f"{wl.name}: wall_s {_percentile_note(walls)}; "
          f"error_rate {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f} ratio",
          file=sys.stderr)
    return metrics, len(ops), len(failed)


def traced(wl: Workload, seconds: float, spans_path: Path):
    sys.path.insert(0, str(SRC))
    import layers

    start = time.perf_counter()
    startup, checks = [], []
    for _ in range(STARTUP_REPEATS):
        child = wl.spawner.cli("fixture", "--table1")
        startup.append(child.wall_s)
        checks.append(("cli start-up", child.failure()))
    cli = wl.cli_op()
    checks.append(("cli operation", cli.error))

    kit = layers.Kit(wl.expect, wl.model_bytes)
    peak_alloc_mb = layers.peak_parse_alloc_mb(kit)
    passes = {False: [], True: []}  # tracing enabled -> [(tracer, pass wall seconds)]
    while not passes[True] or time.perf_counter() - start < seconds:
        # Untraced and traced passes alternate; the difference between their
        # median wall times is the tracing overhead.
        for enabled in (False, True):
            tr = layers.Tracer(enabled)
            t0 = time.perf_counter()
            counts, pass_checks = layers.layer_pass(kit, tr, LOO_ROWS)
            passes[enabled].append((tr, time.perf_counter() - t0))
            checks += pass_checks
    tracers = [tr for tr, _ in passes[True]]
    metrics = layers.layer_metrics(tracers, counts)
    metrics["docmodel.peak_alloc_mb"] = (peak_alloc_mb, "MB")
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    in_process = sum(tracers[0].total_s(name, **attrs) for name, attrs in wl.residual_spans)
    metrics["cli.residual_s"] = (cli.wall_s - in_process, "s")
    metrics["trace.overhead_ms"] = ((statistics.median(w for _, w in passes[True])
                                     - statistics.median(w for _, w in passes[False])) * 1e3, "ms")

    for name, reason in checks:
        if reason:
            print(f"FAILED: {name}: {reason}", file=sys.stderr)
    print(f"{'span':32} {'total_s':>10} {'self_s':>10}  (first traced pass)", file=sys.stderr)
    for name, (total, own) in sorted(tracers[0].self_times().items()):
        print(f"{name:32} {total:10.4f} {own:10.4f}", file=sys.stderr)
    spans_path.write_text(json.dumps([tr.spans for tr in tracers]), encoding="utf-8")
    print(f"spans written to {spans_path}", file=sys.stderr)
    return metrics, len(checks), sum(1 for _, reason in checks if reason)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Seeded benchmark for tocdetect.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tocdetect" / "cli.py").is_file():
        print(f"perfbench: no tocdetect sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spawner = Spawner(work, env)
    wl = WORKLOADS[args.workload](args.seed, work, spawner, env)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            wl.close()
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        if args.trace:
            spans = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed = traced(wl, args.seconds, spans)
        else:
            metrics, attempted, failed = end_to_end(wl, args.seconds, setup_times)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        wl.close()
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:{width}} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
