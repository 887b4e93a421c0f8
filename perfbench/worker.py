"""Library worker for the scan-library workload.

Started with the model file and document paths as arguments, it parses
every document and loads the model (part of set-up), runs one warm-up
``detect``, and prints a ready line. Then, for each document number read
from stdin, it runs ``tocdetect.detect(doc, model, prefix_fraction=1.0)``
and prints one JSON line: the result, the CPU seconds it took and the
process's high-water RSS. It exits at end of input.
"""

import json
import resource
import sys

import tocdetect


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _hwm_kb() -> int:
    # VmHWM belongs to this process's own address space; ru_maxrss would
    # also count the parent's memory, inherited at vfork.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    model_path, *doc_paths = argv
    with open(model_path, "rb") as fh:
        model = tocdetect.load_model(fh.read())
    docs = []
    for path in doc_paths:
        with open(path, "rb") as fh:
            docs.append(tocdetect.parse_document(fh.read()))
    tocdetect.detect(docs[0], model, prefix_fraction=1.0)
    print(json.dumps({"ready": len(docs)}), flush=True)
    for line in sys.stdin:
        doc = docs[int(line)]
        cpu = _cpu()
        result = tocdetect.detect(doc, model, prefix_fraction=1.0)
        cpu = _cpu() - cpu
        reply = {"result": result.to_json_dict(), "cpu_s": cpu, "hwm_kb": _hwm_kb(),
                 "pages": len(doc.pages)}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
