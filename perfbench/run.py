"""mpcgraph benchmark: seeded CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload setcover --seed 1 --seconds 35 --trace 0

Each repetition runs one workload's ``generate`` and ``run`` calls through
``mpcgraph.cli.main``, in a fresh worker process (worker.py), one call at a
time.  Repetitions continue until ``--seconds`` have passed (at least
MIN_REPS of them); ``setup_s`` and ``run_s`` sum each call's median over
the repetitions, and ``peak_rss_mb`` is the median peak.  With
``--trace 1`` each round is a plain repetition, a repetition under the
layer tracer (spans.py) and one that counts ``engine.words`` calls, and the
per-layer metrics are reported instead.

Every output is checked by checker.py, and every repetition of a seed must
write byte-identical reports, solutions and traces.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
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
from pathlib import Path

from checker import check_run
from spans import INCLUSIVE, ROUND_COUNTS, SELF_TIMED
from workloads import WORKLOADS, workload_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
DEADLINE_S = 160  # leave room for checking and cleanup inside 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
MODEL_COUNTS = {
    "engine.rounds": "count",
    "engine.collective_rounds": "count",
    "engine.messages": "count",
    "engine.words_moved": "words",
    "engine.peak_words": "words",
    "engine.attempts": "count",
}
PER_LAYER = {
    **{name: "s" for name in SELF_TIMED + INCLUSIVE},
    "engine.words_calls": "count",
    **MODEL_COUNTS,
    "trace.overhead_s": "s",
}


def run_worker(workload: str, seed: int, workdir: Path, mode: str, deadline: float) -> dict | None:
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "MPC_TRACE": "summary"}
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(workdir), mode]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"worker {mode} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def model_counts(workdir: Path, ops) -> dict[str, int]:
    """Model costs of the workload's runs, from their reports and traces."""
    counts = dict.fromkeys(("engine.rounds", "engine.messages", "engine.peak_words", "engine.attempts"), 0)
    for op in ops:
        if op.kind != "run":
            continue
        report = json.loads((workdir / op.report).read_text(encoding="ascii"))
        trace = json.loads((workdir / op.trace).read_text(encoding="ascii"))
        counts["engine.rounds"] += sum(a["total_rounds"] for a in trace["attempts"])
        counts["engine.messages"] += sum(r["messages"] for a in trace["attempts"] for r in a["rounds"])
        counts["engine.peak_words"] += report["peak_memory_words"]
        counts["engine.attempts"] += report["attempts"]
    return counts


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    ops = workload_ops(workload, seed)
    modes = ("plain", "traced", "count") if trace else ("plain",)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: dict[str, list[dict]] = {mode: [] for mode in modes}
    reference = None
    correct = True
    attempted = 0
    failed_codes: list[set[int]] = []  # per repetition: ops that exited non-zero
    rounds = 0
    while True:
        for mode in modes:
            rep = run_worker(workload, seed, workdir, mode, deadline)
            attempted += len(ops)
            if rep is None:
                correct = False
                failed_codes.append(set(range(len(ops))))
                continue
            failed_codes.append({i for i, code in enumerate(rep["codes"]) if code != 0})
            for i in failed_codes[-1]:
                print(f"mpcgraph {' '.join(ops[i].argv)}: {rep['codes'][i]}", file=sys.stderr)
            if reference is None:
                reference = rep["digests"]
            elif rep["digests"] != reference:
                print(f"{mode} repetition wrote different outputs for the same seed", file=sys.stderr)
                correct = False
            reps[mode].append(rep)
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed >= DEADLINE_S or (rounds >= (1 if trace else MIN_REPS) and elapsed >= seconds):
            break

    # The outputs on disk are the last repetition's; all repetitions wrote the same bytes.
    failed_checks = set()
    for i, op in enumerate(ops):
        if op.kind != "run" or i in failed_codes[-1]:
            continue
        try:
            problems = check_run(workdir, op.algorithm, op.instance, op.solution, op.report, op.b, op.epsilon)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # malformed output is a failed check
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failed_checks.add(i)
            print(f"{op.algorithm} on {op.instance}: " + "; ".join(problems), file=sys.stderr)
    failed = sum(len(codes | failed_checks) for codes in failed_codes)

    def total(repetitions: list[dict], kind: str) -> float:
        # Each call's median over the repetitions, summed: a slow spell of
        # the machine during one call then costs one sample, not a repetition.
        return sum(
            statistics.median(r["seconds"][i] for r in repetitions) for i, op in enumerate(ops) if op.kind == kind
        )

    plain = reps["plain"]
    if not plain:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    run_s = total(plain, "run")
    if not trace:
        values = {
            "setup_s": total(plain, "generate"),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    else:
        values = {}
        traced, counted = reps["traced"], reps["count"]
        if traced:
            for name in SELF_TIMED + INCLUSIVE:
                values[name] = statistics.median(r["layers"][name] for r in traced)
            for name in ROUND_COUNTS:
                values[name] = statistics.median_low(r["layers"][name] for r in traced)
            values["trace.overhead_s"] = total(traced, "run") - run_s
        if counted:
            values["engine.words_calls"] = statistics.median_low(r["words_calls"] for r in counted)
        if not failed_codes[-1]:
            values.update(model_counts(workdir, ops))
        units = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    correct = correct and len(metrics) == len(units)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "mpcgraph" / "cli.py").is_file():
        print(f"error: no mpcgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
