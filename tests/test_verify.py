"""verify as a judge: every algorithm's own solution file passes, and every
single mutation of it is rejected, by verify and by perfbench's checker.

The checker (perfbench/checker.py) shares no code with mpcgraph, so the two
agree on each mutated file without one repeating the other's faults.  The
header swap is left to verify alone: the checker takes the kind from the
algorithm, never from the header.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcgraph import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checker  # noqa: E402

EXTRA = {"bmatch": ["--b", "2", "--epsilon", "1/10"], "sc-lnD": ["--epsilon", "1/10"]}
CHECKER_ARGS = {"bmatch": (2, Fraction(1, 10)), "sc-lnD": (1, Fraction(1, 10))}
HEADERS = ("cover", "matching\nweight 1", "mis", "clique", "colouring vertex 1", "colouring edge 1")


@st.composite
def graph_texts(draw):
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    lines = [f"{u} {v} {draw(st.integers(1, 5))}" for u, v in sorted(chosen)]
    return "\n".join([f"{n} {len(lines)}", *lines]) + "\n"


@st.composite
def set_cover_texts(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    sets = [set(draw(st.lists(st.integers(0, m - 1), max_size=m))) for _ in range(n)]
    for j in range(m):
        if not any(j in s for s in sets):
            sets[draw(st.integers(0, n - 1))].add(j)
    lines = [" ".join(map(str, [draw(st.integers(1, 5)), len(s), *sorted(s)])) for s in sets]
    return "\n".join([f"{n} {m}", *lines]) + "\n"


def _main(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _covers_without(system, ids: list[int], drop: int) -> bool:
    return {e for i in ids if i != drop for e in system.sets[i]} == set(range(system.m))


def mutations(alg: str, graph, system, lines: list[str]) -> dict[str, list[str]]:
    """Each single mutation of a solution file's lines that must be rejected.

    ``system`` is the set system a cover is judged on (for vc-2, the
    graph's vertex-cover encoding)."""
    kind = cli.ALGORITHMS[alg].problem.kind
    head, body = (lines[:2], lines[2:]) if kind == "matching" else (lines[:1], lines[1:])
    out = {"repeated id": lines + body[:1]}
    if kind.startswith("colouring"):
        items = graph.n if kind.endswith("vertex") else len(graph.edges)
        out["out-of-range id"] = lines + [f"{items} 0 0"]
        count = int(lines[0].split()[2])
        out["colour count"] = [f"{kind} {count + 1}", *body]
        pair = {int(i): (g, c) for i, g, c in (row.split() for row in body)}
        clash = _neighbours(graph, kind.endswith("vertex"))
        if clash:
            pair[clash[1]] = pair[clash[0]]
            out["recolour to a neighbour"] = [lines[0]] + [f"{i} {g} {c}" for i, (g, c) in sorted(pair.items())]
        return out
    ids = [int(x) for x in body]
    if kind == "cover":
        out["out-of-range id"] = lines + [str(len(system.sets))]
        drop = next((i for i in ids if not _covers_without(system, ids, i)), None)
        if drop is not None:
            out["dropped id"] = head + [str(i) for i in ids if i != drop]
    elif kind == "matching":
        out["out-of-range id"] = lines + [str(len(graph.edges))]
        out["weight line"] = [lines[0], f"weight {Fraction(lines[1].split()[1]) + 1}", *body]
    else:  # dropping any member of a maximal set breaks its maximality
        out["out-of-range id"] = lines + [str(graph.n)]
        out["dropped id"] = head + [str(i) for i in ids[1:]]
    return out


def _neighbours(graph, vertices: bool) -> tuple[int, int] | None:
    """Two adjacent vertices, or two edges that share a vertex."""
    if vertices:
        return graph.edges[0][:2] if graph.edges else None
    for x in range(graph.n):
        incident = [e for e, (u, v, _) in enumerate(graph.edges) if x in (u, v)]
        if len(incident) > 1:
            return incident[0], incident[1]
    return None


@pytest.mark.parametrize("alg", sorted(cli.ALGORITHMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_own_solutions_pass_and_every_mutation_fails(alg, data):
    graph_input = cli.ALGORITHMS[alg].problem.graph_input
    text = data.draw(graph_texts() if graph_input else set_cover_texts())
    extra = EXTRA.get(alg, [])
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "in").write_text(text, encoding="ascii")
        code, report = _main("run", alg, str(d / "in"), "--seed", "1", "--out", str(d / "sol"), *extra)
        assert code == 0
        (d / "report.json").write_text(report, encoding="ascii")
        b, eps = CHECKER_ARGS.get(alg, (1, Fraction(0)))

        def verify(lines: list[str]) -> tuple[int, str]:
            (d / "sol").write_text("\n".join(lines) + "\n", encoding="ascii")
            return _main("verify", str(d / "in"), str(d / "sol"), "--algorithm", alg, *extra)

        def check() -> list[str]:
            return checker.check_run(d, alg, "in", "sol", "report.json", b, eps)

        lines = (d / "sol").read_text(encoding="ascii").splitlines()
        code, out = _main("verify", str(d / "in"), str(d / "sol"), "--algorithm", alg, "--against-oracle", *extra)
        assert code == 0 and "FAIL" not in out, out
        assert check() == []

        graph = checker.read_graph(d / "in") if graph_input else None
        system = checker.vertex_cover_system(graph) if graph_input else checker.read_set_system(d / "in")
        for name, mutated in mutations(alg, graph, system, lines).items():
            code, out = verify(mutated)
            assert code == 3 and "PASS" not in out, (name, mutated, out)
            assert check(), (name, mutated)
        for header in HEADERS:
            if not header.startswith(cli.ALGORITHMS[alg].problem.kind):
                code, out = verify(header.splitlines() + lines[1:])
                assert code == 3 and "PASS" not in out, (header, out)


@settings(max_examples=40, deadline=None)
@given(text=graph_texts(), data=st.data())
def test_weighted_vertex_cover_passes_against_the_weighted_oracle(text, data):
    """vc-2 run with positive rational vertex weights verifies with PASS
    when verify is given the same weights file."""
    n = int(text.split()[0])
    weights = [data.draw(st.fractions(min_value=Fraction(1, 5), max_value=10, max_denominator=5)) for _ in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "in").write_text(text, encoding="ascii")
        (d / "w").write_text("".join(f"{w}\n" for w in weights), encoding="ascii")
        flags = ("--vertex-weights", str(d / "w"))
        code, _ = _main("run", "vc-2", str(d / "in"), "--seed", "1", "--out", str(d / "sol"), *flags)
        assert code == 0
        code, out = _main("verify", str(d / "in"), str(d / "sol"), "--algorithm", "vc-2", "--against-oracle", *flags)
        assert code == 0 and "PASS" in out, out
