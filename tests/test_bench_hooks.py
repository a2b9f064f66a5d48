"""The benchmark's layer tracer (perfbench/spans.py) must keep finding what
it times.

It patches mpcgraph names by ``setattr`` after import: every algorithm
entry point, the CLI's helpers and the engine's round methods.  A registry
that held entry functions from import time, or a round step whose
``__module__`` no longer names its algorithm module, would leave a layer
reading 0 without any error; these tests catch both.
"""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402

CHILD = """
import json, sys
import spans
from mpcgraph import cli

tracer = spans.Tracer()
tracer.install()
engine = sys.modules["mpcgraph.engine"]
run_round = engine.Cluster.run_round
step_modules = set()


def recording_run_round(self, step, label=""):
    step_modules.add((label, step.__module__))
    return run_round(self, step, label)


engine.Cluster.run_round = recording_run_round
work = sys.argv[1]
cli.main(["generate", "graph", work + "/g", "--n", "24", "--c", "1/2", "--seed", "3"])
cli.main(["generate", "graph", work + "/d", "--n", "16", "--c", "4/5", "--seed", "3"])
cli.main(["generate", "setcover", work + "/s", "--n", "20", "--m", "16", "--density", "0.2", "--seed", "3"])
for _, _, alg in spans.ENTRIES:
    path = {"clique": "/d", "sc-f": "/s", "sc-lnD": "/s"}.get(alg, "/g")
    cli.main(["run", alg, work + path, "--seed", "1", "--b", "2", "--epsilon", "1/10"])
print(json.dumps({"metrics": tracer.metrics(), "steps": sorted(step_modules)}))
"""


READ_CHILD = """
import json, sys
import spans
from mpcgraph import cli

tracer = spans.Tracer()
tracer.install()
work, kind, alg = sys.argv[1:]
sizes = ["--n", "24", "--c", "1/2"] if kind == "graph" else ["--n", "20", "--m", "16", "--density", "0.2"]
cli.main(["generate", kind, work + "/i", *sizes, "--seed", "3"])
cli.main(["run", alg, work + "/i", "--seed", "1"])
print(json.dumps(tracer.metrics()))
"""


def test_every_patched_name_resolves():
    cli = importlib.import_module("mpcgraph.cli")
    for name in spans.CLI_CALLS:
        assert callable(getattr(cli, name)), name
    assert callable(cli.json.dumps)
    for module, attr, _ in spans.ENTRIES:
        assert callable(getattr(importlib.import_module("mpcgraph." + module), attr)), attr
    assert callable(importlib.import_module("mpcgraph.colouring").misra_gries_edge_colouring_seq)
    cluster = importlib.import_module("mpcgraph.engine").Cluster
    for method in ("run_round", "broadcast", "aggregate", "preload"):
        assert callable(getattr(cluster, method)), method


def test_traced_runs_charge_every_algorithm_and_step_module(tmp_path):
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)], capture_output=True, text=True, env=env, cwd=tmp_path, check=True
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = out["metrics"]
    for _, _, alg in spans.ENTRIES:
        assert metrics[f"{alg}.run_s"] > 0, alg
    for module in spans.ALGORITHM_MODULES:
        assert metrics[f"{module}.step_s"] > 0, module
    # Only the engine's own collective waves (labels ending "[wave/depth]")
    # may run steps that belong to the engine module.
    engine_steps = [label for label, module in out["steps"] if module == "mpcgraph.engine"]
    assert engine_steps and all(re.search(r"\[\d+/\d+\]$", label) for label in engine_steps), engine_steps


@pytest.mark.parametrize("kind,alg", [("graph", "mis-fast"), ("setcover", "sc-f")])
def test_run_charges_parsing_to_instances_read(tmp_path, kind, alg):
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}"}
    proc = subprocess.run(
        [sys.executable, "-c", READ_CHILD, str(tmp_path), kind, alg],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["instances.read_s"] > 0
