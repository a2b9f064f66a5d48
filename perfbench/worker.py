"""Run one repetition of a workload in this process; print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR MODE

MODE is ``plain`` (timings only), ``traced`` (timings under the layer
tracer) or ``count`` (calls to ``engine.words``).  Every operation goes
through ``mpcgraph.cli.main`` in this process, one at a time, from inside
WORKDIR.  run.py starts a fresh worker for each repetition, so the peak
resident memory it reports belongs to exactly one repetition.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import workload_ops


def _sha(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def main() -> int:
    workload, seed, workdir, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    from mpcgraph import cli

    import spans

    tracer = counter = None
    if mode == "traced":
        tracer = spans.Tracer()
        tracer.install()
    elif mode == "count":
        counter = spans.count_words_calls()
    os.chdir(workdir)

    ops = workload_ops(workload, seed)
    timings, codes, outputs = [], [], []
    for op in ops:
        captured = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        timings.append(time.perf_counter() - t0)
        codes.append(code)
        outputs.append(captured.getvalue())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digests = []
    for op, out in zip(ops, outputs):
        files = (op.argv[2],) if op.kind == "generate" else (op.solution, op.trace)
        if op.kind == "run":
            Path(op.report).write_text(out, encoding="ascii")
        digests.append([hashlib.sha256(out.encode()).hexdigest()] + [_sha(f) for f in files])

    result = {
        "seconds": timings,
        "codes": codes,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    if counter is not None:
        result["words_calls"] = counter[0]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
