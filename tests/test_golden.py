"""Golden digests: reports, solutions, traces and CSV output, byte for byte.

Every cell runs one CLI command on instances generated here and records
its exit code and the SHA-256 of its stdout, its solution file and its
trace file.  The expected values live in ``golden_digests.json``; a change
that alters any output byte of any algorithm, at any seed, eta or trace
level in the matrix, fails this test.

Without pytest, ``PYTHONPATH=src python tests/test_golden.py`` compares
the same cells and exits 1 if any changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from mpcgraph import cli

GOLDEN = Path(__file__).with_name("golden_digests.json")

ALGORITHMS = {
    "sc-f": ("cover", []),
    "vc-2": ("graph", []),
    "match-2": ("graph", []),
    "bmatch": ("graph", ["--b", "2", "--epsilon", "1/10"]),
    "mis-simple": ("graph", []),
    "mis-fast": ("graph", []),
    "clique": ("dense", []),
    "sc-lnD": ("cover", ["--epsilon", "1/10"]),
    "colour-v": ("graph", []),
    "colour-e": ("graph", []),
}
GENERATE = {
    "graph": ["graph", "--n", "64", "--c", "1/2", "--seed", "5"],
    "dense": ["graph", "--n", "40", "--c", "4/5", "--seed", "6"],
    "cover": ["setcover", "--n", "60", "--m", "40", "--density", "0.1", "--seed", "7"],
    # Desk-scale instances, within the brute-force oracle's cap.
    "tiny-graph": ["graph", "--n", "8", "--c", "1/3", "--seed", "3"],
    "tiny-cover": ["setcover", "--n", "10", "--m", "8", "--density", "0.3", "--seed", "4"],
}
ORACLE_ALGORITHMS = ("sc-f", "vc-2", "match-2", "bmatch", "sc-lnD")


def _sha(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _call(argv: list[str], files: tuple[Path, ...] = ()) -> list:
    for path in files:
        path.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()] + [_sha(p) for p in files]


def golden_outputs(work: Path, monkeypatch) -> dict:
    cells = {}
    paths = {}
    for name, (kind, *rest) in GENERATE.items():
        paths[name] = str(work / name)
        cells[f"generate {name}"] = _call(["generate", kind, paths[name], *rest])

    sol, trace = work / "out.sol", work / "out.json"
    for alg, (instance, extra) in ALGORITHMS.items():
        for seed in ("1", "2"):
            for eta in ([], ["--eta", "16"]):
                levels = ("summary", "verbose") if seed == "1" else ("summary",)
                for level in levels:
                    monkeypatch.setenv("MPC_TRACE", level)
                    argv = ["run", alg, paths[instance], "--seed", seed, *eta, *extra]
                    key = f"run {alg} seed={seed} {' '.join(eta) or 'default'} {level}"
                    cells[key] = _call(argv + ["--out", str(sol), "--trace", str(trace)], (sol, trace))

    monkeypatch.setenv("MPC_TRACE", "summary")
    weights = work / "weights.txt"
    weights.write_text("".join(f"{1 + v % 3}/{1 + v % 2}\n" for v in range(8)), encoding="ascii")
    for alg, (instance, extra) in ALGORITHMS.items():
        tiny = paths["tiny-cover" if instance == "cover" else "tiny-graph"]
        argv = ["run", alg, tiny, "--seed", "1", "--oracle", "--out", str(sol), *extra]
        cells[f"oracle {alg}"] = _call(argv, (sol,))
        argv = ["verify", tiny, str(sol), "--algorithm", alg, "--against-oracle", *extra]
        cells[f"verify {alg}"] = _call(argv)
    argv = ["run", "vc-2", paths["tiny-graph"], "--seed", "1", "--oracle", "--vertex-weights", str(weights)]
    cells["oracle vc-2 weighted"] = _call(argv + ["--out", str(sol)], (sol,))

    for alg in ORACLE_ALGORITHMS + ("mis-fast",):
        instance, extra = ALGORITHMS[alg]
        tiny = paths["tiny-cover" if instance == "cover" else "tiny-graph"]
        cells[f"bench {alg}"] = _call(["bench", alg, tiny, "--seeds", "3", *extra])
    return cells


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    expected = json.loads(GOLDEN.read_text(encoding="ascii"))
    actual = golden_outputs(tmp_path, monkeypatch)
    assert sorted(actual) == sorted(expected)
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, f"{len(changed)} cells changed: {changed}"


def test_outputs_match_golden_digests_under_python_O(tmp_path):
    """``python -O`` strips asserts; every cell must still be identical."""
    root = Path(__file__).resolve().parents[1]
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-O", str(root / "tests" / "test_golden.py")], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


class _Environ:  # the one monkeypatch call golden_outputs makes
    def setenv(self, name: str, value: str) -> None:
        os.environ[name] = value


if __name__ == "__main__":
    expected = json.loads(GOLDEN.read_text(encoding="ascii"))
    with tempfile.TemporaryDirectory() as work:
        actual = golden_outputs(Path(work), _Environ())
    changed = sorted(key for key in expected.keys() | actual.keys() if actual.get(key) != expected.get(key))
    same = sum(actual.get(key) == value for key, value in expected.items())
    print(f"{same}/{len(expected)} cells identical")
    for key in changed:
        print(f"changed: {key}")
    sys.exit(1 if changed else 0)
