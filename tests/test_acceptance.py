"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Every tolerance is pinned here; approximation bounds are exact rational
comparisons with zero tolerance, w.h.p. round/colour bounds use the stated
desk-scale seed fractions.
"""

from __future__ import annotations

import time
from fractions import Fraction
from random import Random

from conftest import random_graph
from mpcgraph import cli
from mpcgraph.colouring import edge_colouring, vertex_colouring, whp_colour_bound
from mpcgraph.exactmath import harmonic
from mpcgraph.hungry import maximal_clique, mis_fast, mis_simple
from mpcgraph.instances import (
    generate_graph,
    generate_set_cover,
    make_graph,
    validate,
    validate_b_matching,
)
from mpcgraph.oracles import (
    brute_force_max_matching,
    brute_force_min_cover,
    is_maximal_clique,
    is_maximal_independent_set,
)
from mpcgraph.parallel_setcover import approx_sc_lnDelta
from mpcgraph.rlr_matching import approx_b_matching, approx_max_matching
from mpcgraph.rlr_setcover import approx_sc_f

_audited_runs = 0
_audit_violations: list[str] = []


def audit(result) -> None:
    """Criterion 9 collector: peak memory never exceeds budget without a
    recorded failure event, across every attempt of every run."""
    global _audited_runs
    _audited_runs += 1
    budget = result.cluster.config.memory_budget_words
    for rec in result.cluster.rounds:
        if max(rec.peak_words) > budget and rec.failure is None:
            _audit_violations.append(
                f"round {rec.index} ({rec.label}): {max(rec.peak_words)} > {budget}"
            )


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num} [{name}]: {'PASS' if ok else 'FAIL'} :: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_matching_two_approximation():
    rng = Random(1001)
    start = time.monotonic()
    good = runs = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 10), 16, 1, 10)
        opt, _ = brute_force_max_matching(g)
        for seed in range(5):
            res = approx_max_matching(g, mu="1/5", seed=seed)
            audit(res)
            runs += 1
            if validate(res.value, g).feasible and 2 * res.value.weight(g) >= opt:
                good += 1
    elapsed = time.monotonic() - start
    ok = good == runs == 1000 and elapsed < 60
    report(1, "matching 2-approximation", ok, f"{good}/{runs} runs within OPT/2, {elapsed:.1f}s < 60s")


def test_criterion_2_set_cover_f_approximation():
    rng = Random(1002)
    good = runs = 0
    for t in range(200):
        n, m = rng.randint(2, 12), rng.randint(1, 12)
        inst = generate_set_cover(n, m, rng.uniform(0.1, 0.7), (1, 10), seed=20000 + t)
        opt, _ = brute_force_min_cover(inst)
        f = inst.frequency
        for seed in range(5):
            res = approx_sc_f(inst, mu="1/5", seed=seed)
            audit(res)
            runs += 1
            if validate(res.value, inst).feasible and res.value.weight(inst) <= f * opt:
                good += 1
    ok = good == runs == 1000
    report(2, "set cover f-approximation", ok, f"{good}/{runs} runs within f*OPT")


def test_criterion_3_eps_greedy_set_cover():
    rng = Random(1003)
    eps = Fraction(1, 10)
    good = runs = 0
    for t in range(100):
        n, m = rng.randint(2, 16), rng.randint(1, 12)
        inst = generate_set_cover(n, m, rng.uniform(0.15, 0.7), (1, 10), seed=30000 + t)
        opt, _ = brute_force_min_cover(inst)
        bound = (1 + eps) * harmonic(inst.max_set_size)
        res = approx_sc_lnDelta(inst, eps, seed=t)
        audit(res)
        runs += 1
        if validate(res.value, inst).feasible and res.value.weight(inst) <= bound * opt:
            good += 1
    ok = good == runs == 100
    report(3, "eps-greedy set cover", ok, f"{good}/{runs} runs within (1+eps)H_Delta*OPT")


def test_criterion_4_b_matching():
    rng = Random(1004)
    eps = Fraction(1, 10)
    good = runs = 0
    for t in range(100):
        g = random_graph(rng, rng.randint(2, 8), 14, 1, 10)
        b = [1, 2, 3][t % 3]
        opt, _ = brute_force_max_matching(g, b)
        bound = 3 - Fraction(2, max(2, b)) + 2 * eps
        res = approx_b_matching(g, b, eps, seed=t)
        audit(res)
        runs += 1
        if validate_b_matching(res.value, g, b).feasible and res.value.weight(g) * bound >= opt:
            good += 1
    ok = good == runs == 100
    report(4, "b-matching", ok, f"{good}/{runs} runs within (3-2/max(2,b)+2eps)*OPT")


def test_criterion_5_mis_and_clique_correctness():
    rng = Random(1005)
    good = runs = 0
    for t in range(167):
        g = random_graph(rng, rng.randint(1, 64), 320, 1, 1)
        res = mis_simple(g, seed=t)
        audit(res)
        runs += 1
        good += is_maximal_independent_set(g, res.value)
        res = mis_fast(g, seed=t)
        audit(res)
        runs += 1
        good += is_maximal_independent_set(g, res.value)
        res = maximal_clique(g, seed=t)
        audit(res)
        runs += 1
        good += is_maximal_clique(g, res.value)
        if runs >= 500:
            break
    ok = good == runs >= 500
    report(5, "MIS/clique correctness", ok, f"{good}/{runs} runs independent/clique and maximal")


def test_criterion_6_colouring(colouring_4096_runs):
    rng = Random(1006)
    proper = runs = 0
    bounded = 0
    # validity + construction bound pool across both modes, assorted sizes
    for t in range(40):
        g = random_graph(rng, rng.randint(2, 40), 120, 1, 1)
        for run in (vertex_colouring(g, seed=t), edge_colouring(g, seed=t)):
            audit(run)
            runs += 1
            rep = validate(run.value, g)
            proper += rep.feasible
            bounded += run.value.colour_count <= run.extras["count_bound"]
    # the high-probability colour bound at n = 4096, mu = 1/5, c = 2/5
    graph, big_runs = colouring_4096_runs
    delta = graph.max_degree
    whp_ok = 0
    for res in big_runs:
        audit(res)
        runs += 1
        rep = validate(res.value, graph)
        proper += rep.feasible
        bounded += res.value.colour_count <= res.extras["count_bound"]
        if res.value.colour_count <= whp_colour_bound(4096, Fraction(1, 5), delta):
            whp_ok += 1
    ok = proper == runs and bounded == runs and whp_ok >= 18
    report(
        6,
        "colouring validity + bound",
        ok,
        f"{proper}/{runs} proper, {bounded}/{runs} within kappa*(maxDelta_i+1), whp bound {whp_ok}/20 >= 18",
    )


def test_criterion_7_round_complexity():
    start = time.monotonic()
    n, c, mu = 2048, "2/5", "1/5"
    graph = generate_graph(n, c, (1, 10), seed=70001)
    match_ok = 0
    for seed in range(50):
        res = approx_max_matching(graph, mu=mu, c=c, seed=seed)
        audit(res)
        match_ok += res.iterations <= 6  # 3 * ceil(c/mu)
    inst = generate_set_cover(n, 43237, 3 / n, (1, 10), seed=70002)
    sc_ok = 0
    for seed in range(50):
        res = approx_sc_f(inst, mu=mu, c=c, seed=seed)
        audit(res)
        sc_ok += res.iterations <= 2  # ceil(c/mu)
    elapsed = time.monotonic() - start
    ok = match_ok >= 48 and sc_ok >= 48 and elapsed < 300
    report(
        7,
        "round complexity",
        ok,
        f"matching <= 6 iterations in {match_ok}/50, set cover <= 2 in {sc_ok}/50, {elapsed:.1f}s < 300s",
    )


def test_criterion_8_linear_space_matching():
    n = 512
    iter_ok = 0
    ratios: list[float] = []
    for seed in range(50):
        g = generate_graph(n, "2/5", (1, 10), seed=80000 + seed)
        res = approx_max_matching(g, mu="0", eta=n, c="2/5", seed=seed)
        audit(res)
        iter_ok += res.iterations <= 200 * 9  # 200 * log2(512)
        e = res.extras["e_series"]
        for a, b in zip(e, e[1:]):
            if a >= 4 * n:
                ratios.append(b / a)
    mean_ratio = sum(ratios) / len(ratios) if ratios else 0.0
    ok = iter_ok == 50 and mean_ratio <= 0.99
    report(
        8,
        "O(n)-space matching",
        ok,
        f"iteration cap held {iter_ok}/50, mean per-iteration edge ratio {mean_ratio:.3f} <= 0.99",
    )


def test_criterion_9_memory_model_soundness():
    # dense n = 512 graph: full complement materialization (n^2 words)
    # would exceed the budget; the lazy scheme must stay inside it
    rng = Random(1009)
    n = 512
    pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], int(0.4 * n * n))
    g = make_graph(n, [(u, v, 1) for u, v in pairs])
    res = maximal_clique(g, mu="1/5", seed=9)
    cfg = res.cluster.config
    audit(res)
    dense_ok = (
        cfg.memory_budget_words < n * n
        and res.cluster.peak_words() <= cfg.memory_budget_words
        and is_maximal_clique(g, res.value)
    )
    ok = dense_ok and not _audit_violations and _audited_runs > 2300
    report(
        9,
        "memory model soundness",
        ok,
        f"{_audited_runs} audited runs, {len(_audit_violations)} unrecorded budget violations; "
        f"dense clique peak {res.cluster.peak_words()} <= budget {cfg.memory_budget_words} < n^2 {n * n}",
    )


def _invoke(capsys, argv, files):
    code = cli.main(argv)
    out = capsys.readouterr().out
    blobs = {str(f): f.read_bytes() if f.exists() else None for f in files}
    return code, out, blobs


def test_criterion_10_cli_determinism(tmp_path, capsys):
    g_path = tmp_path / "g.graph"
    sc_path = tmp_path / "i.sc"
    commands = []
    cli.main(["generate", "graph", str(g_path), "--n", "10", "--c", "2/5", "--seed", "3"])
    cli.main(["generate", "setcover", str(sc_path), "--n", "8", "--m", "9", "--density", "0.4", "--seed", "4"])
    capsys.readouterr()
    sol = tmp_path / "sol.txt"
    trace = tmp_path / "trace.json"
    commands = [
        (["generate", "graph", str(tmp_path / "g2.graph"), "--n", "9", "--c", "1/2", "--seed", "5"], [tmp_path / "g2.graph"]),
        (["generate", "setcover", str(tmp_path / "i2.sc"), "--n", "7", "--m", "8", "--seed", "6"], [tmp_path / "i2.sc"]),
        (["run", "match-2", str(g_path), "--seed", "1", "--out", str(sol), "--trace", str(trace), "--oracle"], [sol, trace]),
        (["run", "bmatch", str(g_path), "--b", "2", "--epsilon", "1/10", "--seed", "2", "--out", str(sol)], [sol]),
        (["run", "sc-f", str(sc_path), "--seed", "3", "--out", str(sol), "--trace", str(trace)], [sol, trace]),
        (["run", "sc-lnD", str(sc_path), "--epsilon", "1/10", "--seed", "4", "--out", str(sol)], [sol]),
        (["run", "mis-fast", str(g_path), "--seed", "5", "--out", str(sol)], [sol]),
        (["run", "clique", str(g_path), "--seed", "6", "--out", str(sol), "--trace", str(trace)], [sol, trace]),
        (["run", "colour-v", str(g_path), "--seed", "7", "--out", str(sol)], [sol]),
        (["bench", "match-2", str(g_path), "--seeds", "4"], []),
    ]
    identical = 0
    for argv, files in commands:
        first = _invoke(capsys, argv, files)
        second = _invoke(capsys, argv, files)
        identical += first == second
    ok = identical == len(commands) == 10
    report(10, "CLI determinism", ok, f"{identical}/10 commands byte-identical on repeat")
