"""Canonical problem instances: weighted graphs, set systems, solutions.

Weights are exact rationals throughout.  Local-ratio algorithms subtract
long chains of weights, and "positive residual" tests must be decided
exactly, so nothing here ever touches floating point.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Iterable, Sequence

from .exactmath import frac_str, ipow_floor


class MalformedInstance(ValueError):
    """An instance or solution violates a structural invariant."""


class Uncoverable(ValueError):
    """A set-cover instance has an element contained in no set."""


class TooLarge(ValueError):
    """Instance exceeds the brute-force enumeration cap."""


def _freeze_weight(w) -> Fraction:
    w = Fraction(w)
    if w < 0:
        raise MalformedInstance(f"negative weight {w}")
    return w


@dataclass(frozen=True)
class Graph:
    """Weighted undirected simple graph with dense 0-based vertex ids.

    ``edges[eid] = (u, v, w)`` with u < v; ``adjacency[v]`` lists incident
    edge ids in ascending order.
    """

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def endpoints(self, eid: int) -> tuple[int, int]:
        u, v, _ = self.edges[eid]
        return u, v

    def weight(self, eid: int) -> Fraction:
        return self.edges[eid][2]

    def neighbours(self, v: int) -> tuple[int, ...]:
        out = []
        for eid in self.adjacency[v]:
            u, w, _ = self.edges[eid]
            out.append(w if u == v else u)
        return tuple(out)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._pair_index

    @cached_property
    def _pair_index(self) -> dict:
        return {(u, v): eid for eid, (u, v, _) in enumerate(self.edges)}


def make_graph(n: int, edge_list: Iterable[tuple]) -> Graph:
    """Build a Graph from (u, v, w) triples, validating all invariants."""
    if n < 0:
        raise MalformedInstance("vertex count must be non-negative")
    edges = []
    seen = set()
    for item in edge_list:
        u, v, w = item
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedInstance(f"endpoint out of range in edge {item}")
        if u == v:
            raise MalformedInstance(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise MalformedInstance(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v, _freeze_weight(w)))
    adjacency = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(edges):
        adjacency[u].append(eid)
        adjacency[v].append(eid)
    return Graph(
        n=n,
        edges=tuple(edges),
        adjacency=tuple(tuple(a) for a in adjacency),
    )


@dataclass(frozen=True)
class SetCoverInstance:
    """Weighted sets over ground set [m], with the dual incidence view.

    ``sets[i]`` is the sorted element tuple of S_i, ``dual[j]`` the sorted
    tuple of set indices containing element j (T_j).
    """

    n: int
    m: int
    sets: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    dual: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def frequency(self) -> int:
        """f = max_j |T_j|."""
        return max((len(t) for t in self.dual), default=0)

    @cached_property
    def max_set_size(self) -> int:
        """Delta = max_i |S_i|."""
        return max((len(s) for s in self.sets), default=0)

    @cached_property
    def w_max(self) -> Fraction:
        return max(self.weights) if self.weights else Fraction(0)

    @cached_property
    def w_min(self) -> Fraction:
        return min(self.weights) if self.weights else Fraction(0)

    def check_coverable(self) -> None:
        for j, t in enumerate(self.dual):
            if not t:
                raise Uncoverable(f"element {j} is contained in no set")


def make_set_cover(n: int, m: int, sets: Sequence[Iterable[int]], weights: Sequence) -> SetCoverInstance:
    if len(sets) != n or len(weights) != n:
        raise MalformedInstance("set/weight counts disagree with n")
    frozen_sets = []
    for i, s in enumerate(sets):
        elems = sorted(s)
        if any(not (0 <= j < m) for j in elems):
            raise MalformedInstance(f"set {i} has an element outside [0, {m})")
        if len(set(elems)) != len(elems):
            raise MalformedInstance(f"set {i} has duplicate elements")
        frozen_sets.append(tuple(elems))
    frozen_weights = []
    for i, w in enumerate(weights):
        w = Fraction(w)
        if w <= 0:
            raise MalformedInstance(f"set {i} has non-positive weight {w}")
        frozen_weights.append(w)
    dual = [[] for _ in range(m)]
    for i, elems in enumerate(frozen_sets):
        for j in elems:
            dual[j].append(i)
    return SetCoverInstance(
        n=n,
        m=m,
        sets=tuple(frozen_sets),
        weights=tuple(frozen_weights),
        dual=tuple(tuple(t) for t in dual),
    )


@dataclass(frozen=True)
class Matching:
    """Selected edge ids plus the per-vertex load they induce."""

    edge_ids: tuple[int, ...]
    loads: tuple[int, ...]

    def weight(self, graph: Graph) -> Fraction:
        return sum((graph.weight(e) for e in self.edge_ids), Fraction(0))


def make_matching(graph: Graph, edge_ids: Iterable[int], b=None) -> Matching:
    ids = tuple(sorted(edge_ids))
    loads = [0] * graph.n
    for eid in ids:
        if not (0 <= eid < graph.m):
            raise MalformedInstance(f"edge id {eid} out of range")
        u, v = graph.endpoints(eid)
        loads[u] += 1
        loads[v] += 1
    if len(set(ids)) != len(ids):
        raise MalformedInstance("duplicate edge id in matching")
    caps = _vertex_capacities(graph.n, b)
    for v, load in enumerate(loads):
        if load > caps[v]:
            raise MalformedInstance(f"vertex {v} load {load} exceeds capacity {caps[v]}")
    return Matching(edge_ids=ids, loads=tuple(loads))


def _vertex_capacities(n: int, b) -> list[int]:
    if b is None:
        return [1] * n
    if isinstance(b, int):
        if b < 1:
            raise MalformedInstance("capacity must be >= 1")
        return [b] * n
    caps = [int(x) for x in b]
    if len(caps) != n or any(x < 1 for x in caps):
        raise MalformedInstance("bad per-vertex capacity vector")
    return caps


@dataclass(frozen=True)
class Cover:
    """Selected set indices of a set-cover solution."""

    set_ids: tuple[int, ...]

    def weight(self, instance: SetCoverInstance) -> Fraction:
        return sum((instance.weights[i] for i in self.set_ids), Fraction(0))

    def covers(self, instance: SetCoverInstance) -> bool:
        covered = set()
        for i in self.set_ids:
            covered.update(instance.sets[i])
        return len(covered) == instance.m


@dataclass(frozen=True)
class Colouring:
    """A vertex or edge colouring as (group, within-group colour) pairs."""

    kind: str  # "vertex" | "edge"
    groups: tuple[int, ...]
    colours: tuple[int, ...]

    @cached_property
    def colour_count(self) -> int:
        return len(set(zip(self.groups, self.colours)))


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    feasible: bool
    objective: Fraction | int | None
    detail: str = ""
    witness: tuple = ()

    def __str__(self) -> str:
        verdict = "feasible" if self.feasible else "infeasible"
        obj = "" if self.objective is None else f" objective={frac_str(Fraction(self.objective))}"
        note = f" ({self.detail})" if self.detail else ""
        return f"{self.kind}: {verdict}{obj}{note}"


def validate(solution, instance) -> ValidationReport:
    """Check properness/coverage/feasibility and report the objective.

    Index errors are reported as malformed rather than infeasible; inputs
    are never mutated.
    """
    if isinstance(solution, Matching):
        return _validate_matching(solution, instance)
    if isinstance(solution, Cover):
        return _validate_cover(solution, instance)
    if isinstance(solution, Colouring):
        return _validate_colouring(solution, instance)
    raise TypeError(f"unknown solution type {type(solution).__name__}")


def _validate_matching(sol: Matching, graph: Graph) -> ValidationReport:
    loads = [0] * graph.n
    for eid in sol.edge_ids:
        if not (0 <= eid < graph.m):
            return ValidationReport("matching", False, None, f"malformed: edge id {eid} out of range")
        u, v = graph.endpoints(eid)
        loads[u] += 1
        loads[v] += 1
    overloaded = [v for v, load in enumerate(loads) if load > 1]
    weight = sol.weight(graph)
    if overloaded:
        return ValidationReport("matching", False, weight, "vertex load exceeds 1", tuple(overloaded[:1]))
    return ValidationReport("matching", True, weight)


def validate_b_matching(sol: Matching, graph: Graph, b) -> ValidationReport:
    caps = _vertex_capacities(graph.n, b)
    loads = [0] * graph.n
    for eid in sol.edge_ids:
        if not (0 <= eid < graph.m):
            return ValidationReport("b-matching", False, None, f"malformed: edge id {eid} out of range")
        u, v = graph.endpoints(eid)
        loads[u] += 1
        loads[v] += 1
    bad = [v for v in range(graph.n) if loads[v] > caps[v]]
    weight = sol.weight(graph)
    if bad:
        return ValidationReport("b-matching", False, weight, "vertex load exceeds capacity", tuple(bad[:1]))
    return ValidationReport("b-matching", True, weight)


def _validate_cover(sol: Cover, instance: SetCoverInstance) -> ValidationReport:
    for i in sol.set_ids:
        if not (0 <= i < instance.n):
            return ValidationReport("cover", False, None, f"malformed: set id {i} out of range")
    covered = set()
    for i in sol.set_ids:
        covered.update(instance.sets[i])
    weight = sol.weight(instance)
    uncovered = instance.m - len(covered)
    if uncovered:
        return ValidationReport("cover", False, weight, f"uncovered={uncovered}")
    return ValidationReport("cover", True, weight)


def _validate_colouring(sol: Colouring, graph: Graph) -> ValidationReport:
    count = graph.n if sol.kind == "vertex" else graph.m
    if len(sol.groups) != count or len(sol.colours) != count:
        return ValidationReport(f"{sol.kind}-colouring", False, None, "malformed: wrong assignment length")
    pair = list(zip(sol.groups, sol.colours))
    if sol.kind == "vertex":
        for u, v, _ in graph.edges:
            if pair[u] == pair[v]:
                return ValidationReport("vertex-colouring", False, sol.colour_count, "monochromatic edge", (u, v))
        return ValidationReport("vertex-colouring", True, sol.colour_count)
    for v in range(graph.n):
        seen = {}
        for eid in graph.adjacency[v]:
            c = pair[eid]
            if c in seen:
                return ValidationReport("edge-colouring", False, sol.colour_count, "same-coloured edges share a vertex", (seen[c], eid))
            seen[c] = eid
    return ValidationReport("edge-colouring", True, sol.colour_count)


# ---------------------------------------------------------------------------
# Generators


def _unrank_pair(idx: int) -> tuple[int, int]:
    # Pairs (u, v), u < v, ranked by v then u: index = v*(v-1)/2 + u.
    v = int((1 + math.isqrt(8 * idx + 1)) // 2)
    while v * (v - 1) // 2 > idx:
        v -= 1
    while (v + 1) * v // 2 <= idx:
        v += 1
    u = idx - v * (v - 1) // 2
    return u, v


def generate_graph(n: int, target_c, weight_range: tuple[int, int], seed: int) -> Graph:
    """Random graph with min(floor(n^(1+c)), n(n-1)/2) distinct edges,
    uniform without replacement, and uniform integer weights.
    Deterministic given seed."""
    if n < 2:
        raise MalformedInstance("need n >= 2")
    target_c = Fraction(target_c) if not isinstance(target_c, str) else Fraction(target_c)
    complete = n * (n - 1) // 2
    quota = min(ipow_floor(n, 1 + target_c), complete)
    lo, hi = weight_range
    if lo > hi or lo < 0:
        raise MalformedInstance("bad weight range")
    rng = Random(seed)
    picks = rng.sample(range(complete), quota)
    pairs = sorted(_unrank_pair(i) for i in picks)
    edges = [(u, v, Fraction(rng.randint(lo, hi))) for u, v in pairs]
    return make_graph(n, edges)


def _binomial(rng: Random, trials: int, p: float) -> int:
    """Binomial(trials, p) by geometric skip sampling: O(trials*p) expected."""
    if p <= 0 or trials <= 0:
        return 0
    if p >= 1:
        return trials
    log_q = math.log1p(-p)
    count = 0
    pos = 0
    while True:
        pos += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if pos > trials:
            return count
        count += 1


def generate_set_cover(
    n: int, m: int, density: float, weight_range: tuple[int, int], seed: int
) -> SetCoverInstance:
    """Random set system: each (set, element) membership i.i.d. with the
    given density, then every element with empty T_j is patched into one
    uniformly chosen set.  Deterministic given seed."""
    if not (0 <= density <= 1):
        raise MalformedInstance("density outside [0, 1]")
    if n < 1 or m < 0:
        raise MalformedInstance("need n >= 1 and m >= 0")
    lo, hi = weight_range
    if lo > hi or lo <= 0:
        raise MalformedInstance("bad weight range")
    rng = Random(seed)
    sets = []
    for _ in range(n):
        k = _binomial(rng, m, density)
        members = rng.sample(range(m), k) if k else []
        sets.append(set(members))
    weights = [Fraction(rng.randint(lo, hi)) for _ in range(n)]
    covered = set()
    for s in sets:
        covered.update(s)
    for j in range(m):
        if j not in covered:
            sets[rng.randrange(n)].add(j)
    return make_set_cover(n, m, sets, weights)


def vertex_cover_encoding(graph: Graph, vertex_weights=None) -> SetCoverInstance:
    """Encode weighted vertex cover as set cover: sets are vertices
    (S_v = incident edges), elements are edges, so f = 2."""
    if vertex_weights is None:
        vertex_weights = [Fraction(1)] * graph.n
    weights = [Fraction(w) for w in vertex_weights]
    if len(weights) != graph.n or any(w <= 0 for w in weights):
        raise MalformedInstance("need one positive weight per vertex")
    return make_set_cover(graph.n, graph.m, [list(a) for a in graph.adjacency], weights)


# ---------------------------------------------------------------------------
# File formats (canonical text, byte-exact round trip)


def _parse_weight(tok: str) -> Fraction:
    if "/" in tok:
        num, den = tok.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(tok))


def graph_to_text(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    for u, v, w in graph.edges:
        lines.append(f"{u} {v} {frac_str(w)}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    rows = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not rows:
        raise MalformedInstance("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise MalformedInstance("header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise MalformedInstance(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise MalformedInstance(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1]), _parse_weight(parts[2])))
    return make_graph(n, edges)


def set_cover_to_text(instance: SetCoverInstance) -> str:
    lines = [f"{instance.n} {instance.m}"]
    for elems, w in zip(instance.sets, instance.weights):
        body = " ".join(str(e) for e in elems)
        lines.append(f"{frac_str(w)} {len(elems)}" + (f" {body}" if body else ""))
    return "\n".join(lines) + "\n"


def set_cover_from_text(text: str) -> SetCoverInstance:
    rows = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not rows:
        raise MalformedInstance("empty set-cover file")
    head = rows[0].split()
    if len(head) != 2:
        raise MalformedInstance("header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != n:
        raise MalformedInstance(f"expected {n} set lines, found {len(rows) - 1}")
    sets, weights = [], []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) < 2:
            raise MalformedInstance(f"bad set line: {ln!r}")
        w = _parse_weight(parts[0])
        k = int(parts[1])
        elems = [int(p) for p in parts[2:]]
        if len(elems) != k:
            raise MalformedInstance(f"set line announces {k} elements, has {len(elems)}")
        sets.append(elems)
        weights.append(w)
    return make_set_cover(n, m, sets, weights)


def write_graph(graph: Graph, path) -> str:
    """Write the graph file; returns the text written."""
    text = graph_to_text(graph)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return text


def read_graph(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return graph_from_text(fh.read())


def write_set_cover(instance: SetCoverInstance, path) -> str:
    """Write the set-cover file; returns the text written."""
    text = set_cover_to_text(instance)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return text


def read_set_cover(path) -> SetCoverInstance:
    with open(path, "r", encoding="ascii") as fh:
        return set_cover_from_text(fh.read())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
