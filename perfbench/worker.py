"""One pass over a workload's case list, in a fresh interpreter.

Usage: python3 worker.py ROOT WORKLOAD SEED TRACED SPANS_PATH

Imports ``constellation_lab`` from ROOT/src, builds the case list, optionally
installs the tracer, runs every case and prints one JSON object: per-case
records ``[seconds, reference seconds, items, failure or null]``, the peak
resident set size and, when traced, the tracer's aggregates.  A case that
raises is recorded as failed and the pass carries on.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

from speed import reference_chunk


def run_case(case) -> list:
    """Time one case, after one reference chunk, and check its output:
    ``[seconds, reference seconds, items, failure]``.

    Only the library call is timed.  Any exception, including the
    ``SystemExit`` of a rejected command line, makes the case a failure.
    """
    reference = reference_chunk()
    failure = None
    start = time.perf_counter()
    try:
        outcome = case.run()
    except (Exception, SystemExit) as exc:
        outcome = None
        failure = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    items = 0
    if failure is None:
        try:
            items = case.check(outcome)
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
    return [seconds, reference, items, None if failure is None else f"{case.label}: {failure}"]


def main(argv: list[str]) -> int:
    root, workload, seed, traced, spans_path = argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import constellation_lab

    if not os.path.abspath(constellation_lab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: constellation_lab imported from {constellation_lab.__file__}", file=sys.stderr)
        return 2
    import workloads

    cases = workloads.build(workload, int(seed))
    tracer = None
    if traced == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    records = []
    for case_id, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = case_id
        records.append(run_case(case))

    result = {
        "cases": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        tracer.write_spans(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
