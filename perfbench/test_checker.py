"""The benchmark's checker must pass real outputs and reject broken ones.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each broken solution keeps its report consistent (objective, colour count,
stated weight), so only the structural check under test can reject it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

import checker
from mpcgraph import cli
from run import END_TO_END, PER_LAYER

RUNS = {
    "sc-lnD": ("cover.sc", ["--epsilon", "1/10"]),
    "sc-f": ("cover.sc", []),
    "vc-2": ("small.graph", []),
    "match-2": ("small.graph", []),
    "bmatch": ("small.graph", ["--b", "2", "--epsilon", "1/10"]),
    "mis-fast": ("small.graph", []),
    "clique": ("dense.graph", []),
    "colour-v": ("small.graph", []),
    "colour-e": ("small.graph", []),
}


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("outputs")
    _cli("generate", "graph", str(d / "small.graph"), "--n", "60", "--c", "1/2", "--seed", "5")
    _cli("generate", "graph", str(d / "dense.graph"), "--n", "40", "--c", "4/5", "--seed", "6")
    _cli("generate", "setcover", str(d / "cover.sc"), "--n", "40", "--m", "60", "--density", "0.08", "--seed", "7")
    for alg, (instance, extra) in RUNS.items():
        report = _cli("run", alg, str(d / instance), "--seed", "1", *extra, "--out", str(d / f"{alg}.sol"))
        (d / f"{alg}.report.json").write_text(report, encoding="ascii")
    return d


def _check(d: Path, alg: str) -> list[str]:
    b, eps = {"bmatch": (2, Fraction(1, 10)), "sc-lnD": (1, Fraction(1, 10))}.get(alg, (1, Fraction(0)))
    return checker.check_run(d, alg, RUNS[alg][0], f"{alg}.sol", f"{alg}.report.json", b, eps)


def _rewrite(d: Path, alg: str, header: list[str], rows: list, objective) -> None:
    """Replace alg's solution file and set its reported objective to match."""
    lines = [" ".join(header)] + [" ".join(str(x) for x in r) for r in rows]
    (d / f"{alg}.sol").write_text("\n".join(lines) + "\n", encoding="ascii")
    report = json.loads((d / f"{alg}.report.json").read_text())
    report["objective"] = str(objective)
    (d / f"{alg}.report.json").write_text(json.dumps(report), encoding="ascii")


@pytest.fixture
def broken(outputs, tmp_path) -> Path:
    """A private copy of the outputs for a test to break."""
    return Path(shutil.copytree(outputs, tmp_path / "outputs"))


@pytest.mark.parametrize("alg", sorted(RUNS))
def test_real_outputs_pass(outputs, alg):
    assert _check(outputs, alg) == []


def test_cover_with_one_set_dropped_is_rejected(broken):
    system = checker.read_set_system(broken / "cover.sc")
    header, rows = checker.read_solution(broken / "sc-lnD.sol")
    ids = [r[0] for r in rows]
    # Drop a set that alone covers some element, so the cover really breaks.
    drop = next(i for i in ids if set(system.sets[i]) - {e for j in ids if j != i for e in system.sets[j]})
    kept = [i for i in ids if i != drop]
    _rewrite(broken, "sc-lnD", header, [[i] for i in kept], sum(system.weights[i] for i in kept))
    assert any("misses" in p for p in _check(broken, "sc-lnD"))


def test_matching_with_an_edge_sharing_a_vertex_is_rejected(broken):
    graph = checker.read_graph(broken / "small.graph")
    _, rows = checker.read_solution(broken / "match-2.sol")
    ids = [r[0] for r in rows]
    u = graph.edges[ids[0]][0]
    extra = next(e for e, (a, b, _) in enumerate(graph.edges) if u in (a, b) and e not in ids)
    ids.append(extra)
    weight = sum(graph.edges[e][2] for e in ids)
    _rewrite(broken, "match-2", ["matching"], [["weight", weight]] + [[e] for e in ids], weight)
    assert any("exceed capacity" in p for p in _check(broken, "match-2"))


def test_matching_far_below_greedy_is_rejected(broken):
    _rewrite(broken, "bmatch", ["matching"], [["weight", 0]], 0)
    assert any("greedy / rho" in p for p in _check(broken, "bmatch"))


def test_independent_set_with_a_vertex_removed_is_rejected(broken):
    header, rows = checker.read_solution(broken / "mis-fast.sol")
    _rewrite(broken, "mis-fast", header, rows[1:], len(rows) - 1)
    assert any("not maximal" in p for p in _check(broken, "mis-fast"))


def test_clique_with_a_vertex_removed_is_rejected(broken):
    header, rows = checker.read_solution(broken / "clique.sol")
    _rewrite(broken, "clique", header, rows[1:], len(rows) - 1)
    assert any("not maximal" in p for p in _check(broken, "clique"))


@pytest.mark.parametrize("alg", ["colour-v", "colour-e"])
def test_colouring_with_one_endpoint_recoloured_is_rejected(broken, alg):
    graph = checker.read_graph(broken / "small.graph")
    header, rows = checker.read_solution(broken / f"{alg}.sol")
    pair = {i: (g, c) for i, g, c in rows}
    if alg == "colour-v":
        u, v, _ = graph.edges[0]
        pair[u] = pair[v]
    else:
        # Two edges that share vertex x: give the second the first's colour.
        x = graph.edges[0][0]
        first, second = [e for e, (a, b, _) in enumerate(graph.edges) if x in (a, b)][:2]
        pair[second] = pair[first]
    count = len(set(pair.values()))
    _rewrite(broken, alg, header[:2] + [str(count)], [[i, *pair[i]] for i in sorted(pair)], count)
    problems = _check(broken, alg)
    assert any("joins two vertices" in p or "share vertex" in p for p in problems)


def test_peak_words_over_budget_is_rejected(broken):
    report = json.loads((broken / "vc-2.report.json").read_text())
    report["peak_memory_words"] = report["config"]["memory_budget_words"] + 1
    (broken / "vc-2.report.json").write_text(json.dumps(report), encoding="ascii")
    assert any("exceed the budget" in p for p in _check(broken, "vc-2"))


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
