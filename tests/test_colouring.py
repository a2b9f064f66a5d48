import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from conftest import random_graph
from mpcgraph import colouring
from mpcgraph.colouring import (
    default_kappa,
    edge_colouring,
    vertex_colouring,
    whp_colour_bound,
)
from mpcgraph.engine import RetriesExhausted
from mpcgraph.instances import generate_graph, make_graph, validate
from mpcgraph.oracles import greedy_vertex_colouring_seq, misra_gries_edge_colouring_seq


def test_kappa_one_equals_sequential_greedy():
    g = generate_graph(24, "1/2", (1, 5), seed=4)
    res = vertex_colouring(g, kappa=1, seed=3)
    assert res.value.colours == greedy_vertex_colouring_seq(g).colours
    assert res.value.colour_count <= g.max_degree + 1


def test_edgeless_graph():
    g = make_graph(5, [])
    res = vertex_colouring(g, seed=1)  # derived c = 0 collapses to kappa = 1
    assert validate(res.value, g).feasible
    assert res.value.colour_count == 1
    forced = vertex_colouring(g, kappa=3, seed=1)  # kappa labels, still proper
    assert validate(forced.value, g).feasible


def test_edge_mode_kappa_one_equals_misra_gries():
    g = generate_graph(16, "1/2", (1, 5), seed=6)
    res = edge_colouring(g, kappa=1, seed=2)
    assert res.value.colours == misra_gries_edge_colouring_seq(g).colours


def test_perfect_matching_one_colour_per_group():
    pm = make_graph(8, [(0, 1, 1), (2, 3, 1), (4, 5, 1), (6, 7, 1)])
    res = edge_colouring(pm, seed=5)
    assert validate(res.value, pm).feasible
    assert max(res.extras["group_deltas"]) <= 1


def test_k4_forced_two_groups_seed_sweep():
    k4 = make_graph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    for seed in range(25):
        res = edge_colouring(k4, kappa=2, seed=seed)
        assert validate(res.value, k4).feasible
        assert res.value.colour_count <= 2 * (max(res.extras["group_deltas"]) + 1)


def test_properness_and_count_bound_random_sweep():
    rng = Random(90)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 28), 70, 1, 1)
        for seed in range(2):
            rv = vertex_colouring(g, seed=seed)
            assert validate(rv.value, g).feasible
            assert rv.value.colour_count <= rv.extras["count_bound"]
            re_ = edge_colouring(g, seed=seed)
            assert validate(re_.value, g).feasible
            assert re_.value.colour_count <= re_.extras["count_bound"]


def test_group_cap_failure_retries_exhaust(monkeypatch):
    monkeypatch.setattr(colouring, "EDGE_CAP_FACTOR", 0)
    g = generate_graph(32, "1/2", (1, 1), seed=7)
    for run in (vertex_colouring, edge_colouring):
        with pytest.raises(RetriesExhausted) as failed:
            run(g, seed=0, retry_cap=2)
        assert len(failed.value.attempts) == 3
        assert all("> cap 0" in a.failure for a in failed.value.attempts)


def test_group_degree_concentration_instrumented(colouring_4096_runs):
    """Delta_i <= (1 + n^(-mu/2) sqrt(6 ln n)) * Delta / kappa for all
    groups in >= 90% of 20 seeds at n = 4096."""
    import math

    graph, runs = colouring_4096_runs
    n, fmu = 4096, 0.2
    delta = graph.max_degree
    good = 0
    for res in runs:
        kappa = res.extras["kappa"]
        cap = (1 + n ** (-fmu / 2) * math.sqrt(6 * math.log(n))) * delta / kappa
        good += all(d <= cap for d in res.extras["group_deltas"])
    assert good >= 18, f"group-degree concentration held in only {good}/20 seeds"


def test_whp_bound_evaluator():
    assert whp_colour_bound(2, Fraction(1, 5), 1) > 1
    val = whp_colour_bound(4096, Fraction(1, 5), 80)
    assert 300 < val < 400  # (1 + 3.07 + 0.19) * 80


def test_default_kappa_degenerate():
    g = make_graph(4, [(0, 1, 1)])
    cfg = vertex_colouring(g, mu="1/2", c="1/4", seed=0).cluster.config
    assert default_kappa(cfg) == 1  # c <= mu collapses to one group


@pytest.mark.parametrize("kappa", [0, -2])
@pytest.mark.parametrize("colour", [vertex_colouring, edge_colouring])
def test_kappa_below_one_is_rejected(colour, kappa):
    # The group draw below(kappa) would never end for kappa < 1.
    with pytest.raises(ValueError):
        colour(make_graph(3, [(0, 1, 1), (1, 2, 1)]), kappa=kappa, seed=0)


def test_more_groups_than_machines():
    # kappa above the machine count: group-central machines host several groups
    g = generate_graph(20, "1/2", (1, 1), seed=12)
    res = vertex_colouring(g, kappa=7, seed=3)
    assert validate(res.value, g).feasible
    assert res.cluster.machine_count < 7
    res_e = edge_colouring(g, kappa=7, seed=3)
    assert validate(res_e.value, g).feasible


# Replaces Misra-Gries with one colour per edge, over the Delta + 1 bound,
# and exits 0 only if the run fails the colour-count check.
OVER_BOUND = """
import sys
from mpcgraph import colouring
from mpcgraph.instances import Colouring, make_graph

colouring.misra_gries_edge_colouring_seq = lambda sub: Colouring("edge", (0,) * sub.m, tuple(range(1, sub.m + 1)))
k4 = make_graph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
try:
    colouring.edge_colouring(k4, kappa=1, seed=1)
except AssertionError as exc:
    print(__debug__, exc)
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_over_bound_colouring_fails_also_under_python_O(flags, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", OVER_BOUND], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == f"{not flags} colour count exceeded kappa*(max Delta_i + 1)\n"
