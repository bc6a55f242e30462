"""One pass over a workload's operations, in a fresh interpreter.

Usage: python3 child.py <ops.json> <result.json> <trace 0|1>

Runs each operation through destrade.cli.main(argv), the entry point the
`destrade` command runs, and times it, with the host speed probe
(probe.py) timed just before and just after.  Output files are hashed
after the timer stops.  With trace 1 the span recorder is installed first and
its per-function table goes into the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

from probe import probe


def _digests(out: str) -> dict:
    found = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def main() -> int:
    ops_path, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(ops_path) as fh:
        ops = json.load(fh)
    from destrade.cli import main as cli_main

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    for op in ops:
        shutil.rmtree(op["out"], ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        before = probe()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = tracer.root(cli_main, op["argv"]) if tracer else cli_main(op["argv"])
        except (Exception, SystemExit) as exc:
            rc = None
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        seconds = time.perf_counter() - t0
        after = probe()
        results.append({"rc": rc, "error": error, "seconds": seconds,
                        "probe_s": [before, after],
                        "stdout": stdout.getvalue()[-4000:],
                        "stderr": stderr.getvalue()[-2000:],
                        "digests": _digests(op["out"])})

    report = {"ops": results,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        report["trace"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
