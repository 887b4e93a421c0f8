"""Runs child processes on request and reports their wall time, CPU and max RSS.

The benchmark sends one JSON request per line on stdin:
``{"argv": [...], "stdout": PATH, "stderr": PATH}``; the reply is one JSON
line with ``status``, ``wall_s``, ``cpu_s`` and ``maxrss_kb``. The client
starts children through this small process rather than directly, because
a child started with vfork inherits its parent's high-water RSS in
``ru_maxrss``: from the client, which holds the planted answers, a small
CLI child would report the client's memory instead of its own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "status": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
