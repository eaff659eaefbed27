"""The workload process: runs CLI invocations one at a time, in process.

It imports ``comolift.cli`` once, then reads one JSON list of CLI arguments
per line from stdin, calls ``comolift.cli.main`` on it with stdout captured,
and answers with one JSON line: the wall time and the CPU time of the call,
its exit code (-1 for an uncaught exception) and what it printed.  At end
of input it answers with its peak resident set size and exits.  It holds
nothing but the program and the names of its input files, and starts no
threads or processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from comolift import cli


def main() -> int:
    reply = sys.stdout
    reply.write(json.dumps({"ready": cli.__file__}) + "\n")
    reply.flush()
    for line in sys.stdin:
        argv = json.loads(line)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            cpu_start = time.process_time()
            try:
                code = cli.main(argv)
            except Exception:  # an uncaught program error fails this operation only
                traceback.print_exc()
                code = -1
            cpu_seconds = time.process_time() - cpu_start
            seconds = time.perf_counter() - start
        reply.write(json.dumps({"seconds": seconds, "cpu_seconds": cpu_seconds, "code": code,
                                "stdout": captured.getvalue()}) + "\n")
        reply.flush()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply.write(json.dumps({"peak_rss_mb": peak_kb / 1024.0}) + "\n")
    reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
