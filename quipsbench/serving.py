"""One serving sample, run in a fresh process as a user's `quips search` would be.

    python3 quipsbench/serving.py INDEX QUERIES CSV TRACE

Reloads INDEX LOAD_REPS times, then runs one `quips search` batch over
QUERIES into CSV through `quips.cli.main`, and prints one JSON line: the load
times, the batch time and exit code, and with TRACE=1 the batch's cli.main
self time.  Interpreter start-up and imports are not timed.  A fresh process
keeps both timings free of whatever the benchmark left on its own heap.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

LOAD_REPS = 21


def main(index_path: str, query_path: str, csv_path: str, trace: bool) -> None:
    from quips import cli
    from quips.index import load_index

    from quipsbench.tracer import Tracer

    loads = []
    for _ in range(LOAD_REPS):
        t0 = time.perf_counter()
        load_index(index_path)
        loads.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    argv = ["search", "--index", index_path, "--queries", query_path,
            "--topn", "10", "--out", csv_path]
    with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    cli_self = None
    if tracer is not None:
        selfs = tracer.self_times()
        cli_self = sum(t for s, t in zip(tracer.spans, selfs) if s.name == "cli.main")
    print(json.dumps({"load_s": loads, "cli_s": elapsed, "code": code,
                      "cli_self_s": cli_self}))


if __name__ == "__main__":
    sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1")
