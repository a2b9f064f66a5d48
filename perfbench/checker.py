"""Independent checker for the outputs of ``mpcgraph run``.

It reads the instance, solution and report files itself and uses nothing
from mpcgraph, so a fault in the package's own parsers, validators or
oracles cannot hide a wrong answer.  Every check returns a list of
problems; an empty list means the output passed.

What is checked:
- covers cover every element, and their weight w satisfies
  sum_e min_{S containing e} w(S)/|S| <= w <= rho * (greedy cover weight);
- matchings and b-matchings respect the vertex capacities, and their weight
  w satisfies w >= (greedy matching weight) / rho;
- independent sets are independent and maximal;
- cliques are cliques and maximal;
- colourings are proper and use at most Delta_i + 1 colours in group i,
  where Delta_i is the maximum degree of group i's part of the graph;
- the reported objective matches the solution file, and the reported peak
  words stay within the reported memory budget.

rho is each algorithm's proven bound (the README table).  Both sides of a
cover bound hold for any optimum: the left side is a feasible LP dual and
a greedy cover weighs at least OPT.  A greedy matching weighs at most OPT.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path


class Graph:
    def __init__(self, n: int, edges: list[tuple[int, int, Fraction]]):
        self.n = n
        self.edges = edges
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for u, v, _ in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)


class SetSystem:
    def __init__(self, m: int, weights: list[Fraction], sets: list[list[int]]):
        self.m = m
        self.weights = weights
        self.sets = sets


def _rows(path) -> list[list[str]]:
    text = Path(path).read_text(encoding="ascii")
    return [ln.split("#", 1)[0].split() for ln in text.splitlines() if ln.split("#", 1)[0].strip()]


def read_graph(path) -> Graph:
    rows = _rows(path)
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = [(int(u), int(v), Fraction(w)) for u, v, w in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"{path}: header says {m} edges, file has {len(edges)}")
    return Graph(n, edges)


def read_set_system(path) -> SetSystem:
    rows = _rows(path)
    n, m = int(rows[0][0]), int(rows[0][1])
    weights = [Fraction(r[0]) for r in rows[1:]]
    sets = [[int(e) for e in r[2:]] for r in rows[1:]]
    if len(sets) != n:
        raise ValueError(f"{path}: header says {n} sets, file has {len(sets)}")
    return SetSystem(m, weights, sets)


def read_solution(path) -> tuple[list[str], list[list[int]]]:
    """(header tokens, integer rows) of a solution file."""
    rows = _rows(path)
    return rows[0], [[int(x) for x in r] for r in rows[1:] if not r[0].isalpha()]


# -- reference values ---------------------------------------------------------


def greedy_cover_weight(system: SetSystem) -> Fraction:
    """Weight of the classic greedy cover (cheapest cost per new element)."""
    uncovered = [True] * system.m
    left = system.m
    heap = [(Fraction(w, len(s)), i) for i, (w, s) in enumerate(zip(system.weights, system.sets)) if s]
    heapq.heapify(heap)
    total = Fraction(0)
    while left:
        cost, i = heapq.heappop(heap)
        fresh = [e for e in system.sets[i] if uncovered[e]]
        if not fresh:
            continue
        now = system.weights[i] / len(fresh)
        if now != cost:  # stale key: costs only rise as elements get covered
            heapq.heappush(heap, (now, i))
            continue
        total += system.weights[i]
        for e in fresh:
            uncovered[e] = False
        left -= len(fresh)
    return total


def cover_lower_bound(system: SetSystem) -> Fraction:
    """sum_e min_{S containing e} w(S)/|S|: a feasible dual, so <= OPT."""
    best: list[Fraction | None] = [None] * system.m
    for w, s in zip(system.weights, system.sets):
        if not s:
            continue
        r = Fraction(w, len(s))
        for e in s:
            if best[e] is None or r < best[e]:
                best[e] = r
    tally = Counter(best)
    return sum((r * k for r, k in tally.items() if r is not None), Fraction(0))


def greedy_matching_weight(graph: Graph, b: int) -> Fraction:
    load = [0] * graph.n
    total = Fraction(0)
    for eid in sorted(range(len(graph.edges)), key=lambda e: (-graph.edges[e][2], e)):
        u, v, w = graph.edges[eid]
        if load[u] < b and load[v] < b:
            load[u] += 1
            load[v] += 1
            total += w
    return total


def harmonic(k: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def vertex_cover_system(graph: Graph) -> SetSystem:
    """Vertex cover as set cover: sets are vertices (unit weight), elements edges."""
    sets: list[list[int]] = [[] for _ in range(graph.n)]
    for eid, (u, v, _) in enumerate(graph.edges):
        sets[u].append(eid)
        sets[v].append(eid)
    return SetSystem(len(graph.edges), [Fraction(1)] * graph.n, sets)


# -- solution checks -------------------------------------------------------------


def check_cover(system: SetSystem, ids: list[int], objective: Fraction, rho: Fraction) -> list[str]:
    problems = []
    if len(set(ids)) != len(ids) or any(not 0 <= i < len(system.sets) for i in ids):
        return ["cover lists a set id twice or out of range"]
    covered = set()
    for i in ids:
        covered.update(system.sets[i])
    if len(covered) != system.m:
        problems.append(f"cover misses {system.m - len(covered)} elements")
    weight = sum((system.weights[i] for i in ids), Fraction(0))
    if weight != objective:
        problems.append(f"reported objective {objective} but the cover weighs {weight}")
    upper = rho * greedy_cover_weight(system)
    if weight > upper:
        problems.append(f"cover weight {weight} > rho * greedy = {upper}")
    lower = cover_lower_bound(system)
    if weight < lower:
        problems.append(f"cover weight {weight} < dual lower bound {lower}")
    return problems


def check_matching(graph: Graph, ids: list[int], b: int, stated: Fraction, objective: Fraction, rho: Fraction) -> list[str]:
    if len(set(ids)) != len(ids) or any(not 0 <= e < len(graph.edges) for e in ids):
        return ["matching lists an edge id twice or out of range"]
    load = [0] * graph.n
    for e in ids:
        u, v, _ = graph.edges[e]
        load[u] += 1
        load[v] += 1
    problems = []
    over = [v for v in range(graph.n) if load[v] > b]
    if over:
        problems.append(f"{len(over)} vertices exceed capacity {b}, e.g. vertex {over[0]}")
    weight = sum((graph.edges[e][2] for e in ids), Fraction(0))
    if weight != stated or weight != objective:
        problems.append(f"matching weighs {weight}; file says {stated}, report says {objective}")
    lower = greedy_matching_weight(graph, b) / rho
    if weight < lower:
        problems.append(f"matching weight {weight} < greedy / rho = {lower}")
    return problems


def check_independent_set(graph: Graph, vertices: list[int]) -> list[str]:
    chosen = set(vertices)
    if len(chosen) != len(vertices) or any(not 0 <= v < graph.n for v in vertices):
        return ["independent set lists a vertex twice or out of range"]
    problems = []
    clash = next(((u, v) for u, v, _ in graph.edges if u in chosen and v in chosen), None)
    if clash:
        problems.append(f"edge {clash} has both ends in the set")
    free = next((v for v in range(graph.n) if v not in chosen and not graph.adj[v] & chosen), None)
    if free is not None:
        problems.append(f"not maximal: vertex {free} could be added")
    return problems


def check_clique(graph: Graph, vertices: list[int]) -> list[str]:
    chosen = set(vertices)
    if not chosen or len(chosen) != len(vertices) or any(not 0 <= v < graph.n for v in vertices):
        return ["clique is empty, or lists a vertex twice or out of range"]
    problems = []
    missing = next(((u, v) for u in vertices for v in vertices if u < v and v not in graph.adj[u]), None)
    if missing:
        problems.append(f"vertices {missing} are not adjacent")
    common = set.intersection(*(graph.adj[v] for v in vertices)) - chosen
    if common:
        problems.append(f"not maximal: vertex {min(common)} is adjacent to every member")
    return problems


def check_colouring(graph: Graph, kind: str, count: int, triples: list[list[int]]) -> list[str]:
    items = graph.n if kind == "vertex" else len(graph.edges)
    if sorted(t[0] for t in triples) != list(range(items)):
        return [f"{kind} colouring does not list each of the {items} items once"]
    pair = {i: (g, c) for i, g, c in triples}
    problems = []
    if len(set(pair.values())) != count:
        problems.append(f"header says {count} colours, solution uses {len(set(pair.values()))}")
    # Delta_i: max degree in group i's part of the graph (induced subgraph for
    # vertex groups, the group's own edges for edge groups).
    degree: dict[int, Counter] = defaultdict(Counter)
    if kind == "vertex":
        for u, v, _ in graph.edges:
            if pair[u] == pair[v]:
                problems.append(f"edge ({u}, {v}) joins two vertices of colour {pair[u]}")
                break
        for u, v, _ in graph.edges:
            if pair[u][0] == pair[v][0]:
                degree[pair[u][0]][u] += 1
                degree[pair[u][0]][v] += 1
    else:
        seen: dict[tuple, int] = {}
        clash = None
        for eid, (u, v, _) in enumerate(graph.edges):
            g = pair[eid][0]
            degree[g][u] += 1
            degree[g][v] += 1
            for x in (u, v):
                other = seen.setdefault((x, pair[eid]), eid)
                if other != eid and clash is None:
                    clash = (other, eid, x)
        if clash:
            problems.append(f"edges {clash[0]} and {clash[1]} share vertex {clash[2]} and a colour")
    colours: dict[int, set] = defaultdict(set)
    for g, c in pair.values():
        colours[g].add(c)
    for g, used in sorted(colours.items()):
        delta = max(degree[g].values(), default=0)
        if len(used) > delta + 1:
            problems.append(f"group {g} uses {len(used)} colours > Delta_i + 1 = {delta + 1}")
            break
    return problems


# -- one run's outputs -------------------------------------------------------------


def check_run(workdir, algorithm: str, instance: str, solution: str, report: str, b: int = 1, epsilon: Fraction = Fraction(0)) -> list[str]:
    """Check the files one ``mpcgraph run`` wrote into workdir."""
    workdir = Path(workdir)
    rep = json.loads((workdir / report).read_text(encoding="ascii"))
    problems = []
    if rep["peak_memory_words"] > rep["config"]["memory_budget_words"]:
        problems.append(f"peak words {rep['peak_memory_words']} exceed the budget {rep['config']['memory_budget_words']}")
    objective = Fraction(rep["objective"])
    header, rows = read_solution(workdir / solution)
    ids = [r[0] for r in rows]
    if algorithm in ("sc-f", "sc-lnD"):
        system = read_set_system(workdir / instance)
        if algorithm == "sc-f":
            freq = Counter(e for s in system.sets for e in set(s))
            rho = Fraction(max(freq.values(), default=1))
        else:
            rho = (1 + epsilon) * harmonic(max((len(s) for s in system.sets), default=1))
        return problems + check_cover(system, ids, objective, rho)
    graph = read_graph(workdir / instance)
    if algorithm == "vc-2":
        return problems + check_cover(vertex_cover_system(graph), ids, objective, Fraction(2))
    if algorithm in ("match-2", "bmatch"):
        stated = Fraction(_rows(workdir / solution)[1][1])
        rho = Fraction(2) if algorithm == "match-2" else 3 - Fraction(2, max(2, b)) + 2 * epsilon
        return problems + check_matching(graph, ids, b, stated, objective, rho)
    if algorithm in ("mis-simple", "mis-fast"):
        if len(ids) != objective:
            problems.append(f"report says size {objective}, file lists {len(ids)}")
        return problems + check_independent_set(graph, ids)
    if algorithm == "clique":
        if len(ids) != objective:
            problems.append(f"report says size {objective}, file lists {len(ids)}")
        return problems + check_clique(graph, ids)
    if algorithm in ("colour-v", "colour-e"):
        count = int(header[2])
        if count != objective:
            problems.append(f"report says {objective} colours, file header says {count}")
        return problems + check_colouring(graph, header[1], count, rows)
    return [f"no check for algorithm {algorithm}"]
