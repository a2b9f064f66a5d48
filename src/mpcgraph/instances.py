"""Canonical problem instances: weighted graphs, set systems, solutions.

Weights are exact rationals throughout.  Local-ratio algorithms subtract
long chains of weights, and "positive residual" tests must be decided
exactly, so nothing here ever touches floating point.

The generators draw through ``exactmath``'s ``below``, ``sample`` and
``binomial``, so a seed's instance depends on this package and the
Mersenne Twister core alone, and they pause the cyclic collector.
"""

from __future__ import annotations

import hashlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import isqrt
from operator import eq, lt
from random import Random
from typing import Iterable, Sequence

from .exactmath import below, binomial, collector_paused, frac_str, ipow_floor, sample


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
    """Build a Graph from (u, v, w) triples, validating all invariants.

    ``edge_list`` is consumed once, so it may be a generator.  Each
    endpoint, once its range is checked, is replaced by the one int object
    ``ids[v]`` for its vertex, and the adjacency lists become tuples one at
    a time, so the graph holds one object per vertex id and no second copy.

    Weights repeat: each distinct weight object becomes one Fraction, whose
    sign is tested once.  The memo is keyed on the object's id (hashing a
    Fraction costs more than building one) and holds the object, so no
    other object can take that id while the memo lives.

    While the pairs u*n+v strictly increase, no edge can repeat, so the
    set of seen pairs is built only at the first pair that does not: the
    generators and canonical files, whose edges are in pair order, never
    build it.
    """
    if n < 0:
        raise MalformedInstance("vertex count must be non-negative")
    ids = list(range(n))
    edges = []
    adjacency = [[] for _ in range(n)]
    last = -1
    seen = None
    memo = {}
    for eid, item in enumerate(edge_list):
        u, v, w = item
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedInstance(f"endpoint out of range in edge {item}")
        if u == v:
            raise MalformedInstance(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        pair = u * n + v
        if seen is None and pair > last:
            last = pair
        else:
            if seen is None:
                seen = {a * n + b for a, b, _ in edges}
            if pair in seen:
                raise MalformedInstance(f"duplicate edge ({u}, {v})")
            seen.add(pair)
        hit = memo.get(id(w))
        if hit is None:
            hit = memo[id(w)] = (w, _freeze_weight(w))
        u, v = ids[u], ids[v]
        adjacency[u].append(eid)
        adjacency[v].append(eid)
        edges.append((u, v, hit[1]))
    del seen, memo
    _freeze_lists(adjacency)
    return Graph(n=n, edges=tuple(edges), adjacency=tuple(adjacency))


def _freeze_lists(lists: list[list]) -> None:
    """Turn each inner list into a tuple in place, freeing the list as its
    tuple is made."""
    for k, inner in enumerate(lists):
        lists[k] = tuple(inner)


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

    def check_coverable(self) -> None:
        for j, t in enumerate(self.dual):
            if not t:
                raise Uncoverable(f"element {j} is contained in no set")


def make_set_cover(n: int, m: int, sets: Sequence[Iterable[int]], weights: Sequence) -> SetCoverInstance:
    """Build a SetCoverInstance, validating all invariants.

    A set given as a strictly increasing tuple is kept as it is.  Any other
    set is sorted once: its range is checked at its two ends and its
    duplicates between neighbours, and the pass that fills the dual view
    replaces each element by the one int object ``ids[j]`` per element id.
    The dual lists become tuples one at a time.  Weights are frozen as in
    make_graph: one Fraction and one sign test per distinct weight object.
    """
    if len(sets) != n or len(weights) != n:
        raise MalformedInstance("set/weight counts disagree with n")
    if m < 0:
        raise MalformedInstance("element count must be non-negative")
    ids = list(range(m))
    frozen_sets = []
    dual = [[] for _ in range(m)]
    for i, s in enumerate(sets):
        kept = type(s) is tuple and all(map(lt, s, s[1:]))
        elems = s if kept else sorted(s)
        if elems and not (0 <= elems[0] and elems[-1] < m):
            raise MalformedInstance(f"set {i} has an element outside [0, {m})")
        if kept:
            for j in elems:
                dual[j].append(i)
        else:
            if any(map(eq, elems, elems[1:])):
                raise MalformedInstance(f"set {i} has duplicate elements")
            row = []
            for j in elems:
                j = ids[j]
                dual[j].append(i)
                row.append(j)
            elems = tuple(row)
        frozen_sets.append(elems)
    del ids
    frozen_weights = []
    memo = {}
    for i, w in enumerate(weights):
        hit = memo.get(id(w))
        if hit is None:
            f = Fraction(w)
            if f <= 0:
                raise MalformedInstance(f"set {i} has non-positive weight {f}")
            hit = memo[id(w)] = (w, f)
        frozen_weights.append(hit[1])
    _freeze_lists(dual)
    return SetCoverInstance(n=n, m=m, sets=tuple(frozen_sets), weights=tuple(frozen_weights), dual=tuple(dual))


@dataclass(frozen=True)
class Matching:
    """Selected edge ids."""

    edge_ids: tuple[int, ...]

    def weight(self, graph: Graph) -> Fraction:
        return sum((graph.weight(e) for e in self.edge_ids), Fraction(0))


def make_matching(graph: Graph, edge_ids: Iterable[int], b=None) -> Matching:
    """The matching of ``edge_ids``; raises unless it is a b-matching."""
    matching = Matching(tuple(sorted(edge_ids)))
    report = validate_b_matching(matching, graph, b)
    if not report.feasible:
        raise MalformedInstance(str(report))
    return matching


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
        return validate_b_matching(solution, instance)
    if isinstance(solution, Cover):
        return _validate_cover(solution, instance)
    if isinstance(solution, Colouring):
        return _validate_colouring(solution, instance)
    raise TypeError(f"unknown solution type {type(solution).__name__}")


def id_error(ids: Iterable[int], count: int, noun: str) -> str:
    """The malformed-input note for the first id that is listed twice or
    lies outside [0, count); '' when every id is listed once, in range."""
    seen = set()
    for i in ids:
        if not 0 <= i < count:
            return f"malformed: {noun} id {i} out of range"
        if i in seen:
            return f"malformed: duplicate {noun} id {i}"
        seen.add(i)
    return ""


def validate_b_matching(sol: Matching, graph: Graph, b=None) -> ValidationReport:
    """Check the vertex loads against capacities ``b`` (None: a matching)."""
    kind, limit = ("matching", "1") if b is None else ("b-matching", "capacity")
    fault = id_error(sol.edge_ids, graph.m, "edge")
    if fault:
        return ValidationReport(kind, False, None, fault)
    caps = _vertex_capacities(graph.n, b)
    loads = [0] * graph.n
    for eid in sol.edge_ids:
        u, v = graph.endpoints(eid)
        loads[u] += 1
        loads[v] += 1
    bad = [v for v in range(graph.n) if loads[v] > caps[v]]
    weight = sol.weight(graph)
    if bad:
        return ValidationReport(kind, False, weight, f"vertex load exceeds {limit}", tuple(bad[:1]))
    return ValidationReport(kind, True, weight)


def _validate_cover(sol: Cover, instance: SetCoverInstance) -> ValidationReport:
    fault = id_error(sol.set_ids, instance.n, "set")
    if fault:
        return ValidationReport("cover", False, None, fault)
    chosen = set(sol.set_ids)
    uncovered = sum(map(chosen.isdisjoint, instance.dual))
    weight = sol.weight(instance)
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


@collector_paused()
def generate_graph(n: int, target_c, weight_range: tuple[int, int], seed: int) -> Graph:
    """Random graph with min(floor(n^(1+c)), n(n-1)/2) distinct edges,
    uniform without replacement, and uniform integer weights.
    Deterministic given seed."""
    if n < 2:
        raise MalformedInstance("need n >= 2")
    target_c = Fraction(target_c)
    if target_c < -1:
        raise MalformedInstance(f"need c >= -1, got {target_c}")
    complete = n * (n - 1) // 2
    quota = min(ipow_floor(n, 1 + target_c), complete)
    lo, hi = weight_range
    if lo > hi or lo < 0:
        raise MalformedInstance("bad weight range")
    rng = Random(seed)
    keys = sample(rng, range(complete), quota)
    # Pairs u < v are ranked by v then u: idx = v*(v-1)/2 + u.  Then
    # 8*idx + 1 = (2v-1)^2 + 8u with 0 <= u < v, so its isqrt is 2v-1 or 2v.
    for k, idx in enumerate(keys):  # in place: u*n + v orders pairs as (u, v) does
        v = (1 + isqrt(8 * idx + 1)) >> 1
        keys[k] = (idx - (v * (v - 1) >> 1)) * n + v
    keys.sort()
    shared, getrandbits, span = _SharedFractions(), rng.getrandbits, hi - lo + 1
    return make_graph(n, ((*divmod(key, n), shared[lo + below(getrandbits, span)]) for key in keys))


class _SharedFractions(dict):
    """Weight draws as Fractions, one object per distinct value."""

    def __missing__(self, w: int) -> Fraction:
        f = self[w] = Fraction(w)
        return f


@collector_paused()
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
    getrandbits, span = rng.getrandbits, hi - lo + 1
    ids = list(range(m))  # sampling from it draws as sampling from range(m) does
    sets = [sample(rng, ids, binomial(rng, m, density)) for _ in range(n)]
    shared = _SharedFractions()
    weights = [shared[lo + below(getrandbits, span)] for _ in range(n)]
    covered = bytearray(m)
    for s in sets:
        for j in s:
            covered[j] = 1
    for j in range(m):
        if not covered[j]:
            sets[below(getrandbits, n)].append(ids[j])
    del ids, covered
    for i, s in enumerate(sets):  # sorted tuples of canonical ids, which make_set_cover keeps
        s.sort()
        sets[i] = tuple(s)
    return make_set_cover(n, m, sets, weights)


def vertex_cover_encoding(graph: Graph, vertex_weights=None) -> SetCoverInstance:
    """Encode weighted vertex cover as set cover: sets are vertices
    (S_v = incident edges), elements are edges, so f = 2."""
    if vertex_weights is None:
        vertex_weights = [Fraction(1)] * graph.n
    weights = [Fraction(w) for w in vertex_weights]
    if len(weights) != graph.n or any(w <= 0 for w in weights):
        raise MalformedInstance("need one positive weight per vertex")
    return make_set_cover(graph.n, graph.m, graph.adjacency, weights)


# ---------------------------------------------------------------------------
# File formats (canonical text, byte-exact round trip)


@contextmanager
def malformed_numbers(source: str):
    """A number in ``source`` that does not parse inside this block, or
    text of it that is not ASCII, is malformed input, not a traceback."""
    try:
        yield
    except MalformedInstance:
        raise
    except UnicodeDecodeError as exc:
        raise MalformedInstance(f"{source}: {exc}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInstance(f"bad number in {source}: {exc}") from exc


def _parse_weight(tok: str) -> Fraction:
    if "/" in tok:
        num, den = tok.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(tok))


def _rendered(weights: Iterable[Fraction]) -> dict[int, str]:
    """frac_str of each distinct weight object, keyed on its id (the
    instance holding the weights keeps those ids unique)."""
    return {key: frac_str(w) for key, w in {id(w): w for w in weights}.items()}


def graph_to_text(graph: Graph) -> str:
    text = _rendered(w for _, _, w in graph.edges)
    lines = [f"{graph.n} {graph.m}"]
    lines += [f"{u} {v} {text[id(w)]}" for u, v, w in graph.edges]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Parse a graph file.  Every line's shape and numbers are checked
    before any of make_graph's checks: the edges stream into make_graph as
    they are parsed, and when it rejects one, the rest of the lines are
    still parsed, so that a bad line after the rejected edge is the fault
    reported."""
    rows = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not rows:
        raise MalformedInstance("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise MalformedInstance("header must be 'n m'")
    with malformed_numbers("graph file"):
        n, m = int(head[0]), int(head[1])
        if len(rows) - 1 != m:
            raise MalformedInstance(f"expected {m} edge lines, found {len(rows) - 1}")
        edges = _edge_rows(rows)
        try:
            return make_graph(n, edges)
        except MalformedInstance:
            for _ in edges:
                pass
            raise


def _edge_rows(rows: list[str]):
    """The (u, v, w) triple of each edge line, with one Fraction per
    distinct weight token; a row's weight is read before its ids."""
    parsed = {}
    for ln in islice(rows, 1, None):
        parts = ln.split()
        if len(parts) != 3:
            raise MalformedInstance(f"bad edge line: {ln!r}")
        u, v, tok = parts
        w = parsed.get(tok)
        if w is None:
            w = parsed[tok] = _parse_weight(tok)
        yield int(u), int(v), w


def set_cover_to_text(instance: SetCoverInstance) -> str:
    text = _rendered(instance.weights)
    lines = [f"{instance.n} {instance.m}"]
    for elems, w in zip(instance.sets, instance.weights):
        body = " ".join(map(str, elems))
        lines.append(f"{text[id(w)]} {len(elems)}" + (f" {body}" if body else ""))
    return "\n".join(lines) + "\n"


def set_cover_from_text(text: str) -> SetCoverInstance:
    rows = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not rows:
        raise MalformedInstance("empty set-cover file")
    head = rows[0].split()
    if len(head) != 2:
        raise MalformedInstance("header must be 'n m'")
    with malformed_numbers("set-cover file"):
        n, m = int(head[0]), int(head[1])
        if len(rows) - 1 != n:
            raise MalformedInstance(f"expected {n} set lines, found {len(rows) - 1}")
        sets, weights = [], []
        parsed = {}  # one Fraction per distinct weight token
        for ln in rows[1:]:
            parts = ln.split()
            if len(parts) < 2:
                raise MalformedInstance(f"bad set line: {ln!r}")
            w = parsed.get(parts[0])
            if w is None:
                w = parsed[parts[0]] = _parse_weight(parts[0])
            k = int(parts[1])
            elems = list(map(int, parts[2:]))
            if len(elems) != k:
                raise MalformedInstance(f"set line announces {k} elements, has {len(elems)}")
            try:  # held as machine ints until make_set_cover interns them
                sets.append(array("q", elems))
            except OverflowError:  # an id this wide is out of range; keep it for the range check
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
