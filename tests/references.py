"""Sequential references the tests check the package against.

None of these runs in a CLI command.  The local-ratio references
(``lr_set_cover_seq``, ``lr_matching_seq``, ``lr_bmatching_seq``) keep
their own residuals, or their own phi, stack and LIFO unwind, in plain
``Fraction`` arithmetic, and test aliveness as the paper states it, so
replaying a run's push order through them compares two independent
implementations.  ``misra_gries_by_dict_scan`` keeps only a colour ->
edge dict per vertex and finds every free colour and fan step by
scanning it; ``push_best_by_fraction_sort`` ranks one vertex's
candidates on Fraction gains.  The package's kernels must return
exactly what these return.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from mpcgraph.engine import words
from mpcgraph.instances import (
    Colouring,
    Cover,
    Graph,
    Matching,
    SetCoverInstance,
    _vertex_capacities,
    make_matching,
)
from mpcgraph.oracles import MatchingReduction


# ---------------------------------------------------------------------------
# Local ratio


def lr_set_cover_seq(instance: SetCoverInstance, element_order: Iterable[int] | None = None) -> Cover:
    """Sequential local ratio for weighted set cover (f-approximation).

    Scans elements in the given order (default ascending).  An element
    whose covering sets all have residual > 0 lowers each of their
    residuals by the least of them.  Returns the sets at residual 0.
    """
    instance.check_coverable()
    residual = list(instance.weights)
    for j in range(instance.m) if element_order is None else element_order:
        covering = instance.dual[j]
        if all(residual[i] > 0 for i in covering):
            least = min(residual[i] for i in covering)
            for i in covering:
                residual[i] -= least
    return Cover(set_ids=tuple(i for i, r in enumerate(residual) if r == 0))


def _lifo_unwind(graph: Graph, stack: list[int], caps: list[int]) -> list[int]:
    """The stack read newest first, keeping each edge whose endpoints both
    have spare capacity."""
    load = [0] * graph.n
    picked = []
    for eid in reversed(stack):
        u, v, _ = graph.edges[eid]
        if load[u] < caps[u] and load[v] < caps[v]:
            load[u] += 1
            load[v] += 1
            picked.append(eid)
    return picked


def lr_matching_seq(graph: Graph, edge_order: Iterable[int] | None = None) -> Matching:
    """Sequential local ratio for max-weight matching (2-approximation).

    Pushes each edge of the order with w - phi_u - phi_v > 0, adding that
    gain to phi_u and phi_v, then unwinds the stack.  With a complete
    order the result is at least half the optimum, for every order.
    """
    phi = [0] * graph.n
    stack = []
    for eid in range(graph.m) if edge_order is None else edge_order:
        u, v, w = graph.edges[eid]
        gain = w - phi[u] - phi[v]
        if gain > 0:
            phi[u] += gain
            phi[v] += gain
            stack.append(eid)
    return make_matching(graph, _lifo_unwind(graph, stack, [1] * graph.n))


def lr_bmatching_seq(graph: Graph, b, epsilon, edge_order: Iterable[int] | None = None) -> Matching:
    """Sequential epsilon-adjusted local ratio for max-weight b-matching.

    Pushes each edge of the order that is not yet pushed and has
    w > (1+eps)(phi_u + phi_v); its gain w - phi_u - phi_v adds gain/b(u)
    to phi_u and gain/b(v) to phi_v.  The unwind respects the per-vertex
    capacities.
    """
    caps = _vertex_capacities(graph.n, b)
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    phi = [0] * graph.n
    stack = []
    pushed = set()
    for eid in range(graph.m) if edge_order is None else edge_order:
        u, v, w = graph.edges[eid]
        if eid not in pushed and w > (1 + epsilon) * (phi[u] + phi[v]):
            gain = w - phi[u] - phi[v]
            phi[u] += gain / caps[u]
            phi[v] += gain / caps[v]
            stack.append(eid)
            pushed.add(eid)
    return make_matching(graph, _lifo_unwind(graph, stack, caps), caps)


# ---------------------------------------------------------------------------
# Greedy


def eps_greedy_set_cover_seq(instance: SetCoverInstance, epsilon) -> Cover:
    """Greedy set cover accepting any (1+eps)-near-best cost ratio.

    Repeatedly adds the lowest-indexed set whose uncovered-per-weight ratio
    is within (1+eps) of the best.  Gives a (1+eps)H_Delta approximation.
    """
    instance.check_coverable()
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    uncovered = [set(s) for s in instance.sets]
    covered: set[int] = set()
    chosen: list[int] = []
    while len(covered) < instance.m:
        best = Fraction(0)
        for i in range(instance.n):
            r = Fraction(len(uncovered[i]), 1) / instance.weights[i]
            if r > best:
                best = r
        threshold = best / (1 + epsilon)
        pick = None
        for i in range(instance.n):
            if Fraction(len(uncovered[i]), 1) / instance.weights[i] >= threshold:
                pick = i
                break
        newly = uncovered[pick]
        covered |= newly
        chosen.append(pick)
        for i in range(instance.n):
            if uncovered[i]:
                uncovered[i] -= newly
    return Cover(set_ids=tuple(sorted(chosen)))


def greedy_vertex_colouring_seq(graph: Graph) -> Colouring:
    """First-fit colouring in vertex-id order; uses at most Delta+1 colours."""
    colours = [0] * graph.n
    for v in range(graph.n):
        taken = {colours[u] for u in graph.neighbours(v) if colours[u]}
        c = 1
        while c in taken:
            c += 1
        colours[v] = c
    return Colouring(kind="vertex", groups=(0,) * graph.n, colours=tuple(colours))


# ---------------------------------------------------------------------------
# Quantities recounted from scratch


def potential_phi(instance: SetCoverInstance, covered, threshold: Fraction, epsilon) -> int:
    """Total uncovered mass of sets whose cost ratio still clears
    threshold/(1+eps); sc-lnD's bucket-progress potential.

    It recounts from scratch in plain ``Fraction`` arithmetic, apart from
    the machines' integer cross-multiplied tests, so that it stays an
    independent check of the phi the run tracks.
    """
    epsilon = Fraction(epsilon)
    cset = set(covered)
    cut = Fraction(threshold) / (1 + epsilon)
    total = 0
    for elems, w in zip(instance.sets, instance.weights):
        size = sum(1 for e in elems if e not in cset)
        if size and Fraction(size) / w >= cut:
            total += size
    return total


def whp_colour_bound(n: int, mu: Fraction, max_degree: int) -> float:
    """Numeric value of (1 + n^(-mu/2) sqrt(6 ln n) + n^(-mu)) * Delta."""
    if n < 2:
        return float(max_degree + 1)
    fmu = float(Fraction(mu))
    return (1 + n ** (-fmu / 2) * math.sqrt(6 * math.log(n)) + n ** (-fmu)) * max_degree


def store_words(store: dict) -> int:
    """A store's words counted from scratch; top-level keys are labels,
    not data."""
    return sum(words(v) for v in store.values())


# ---------------------------------------------------------------------------
# Plain versions of two hot kernels


def misra_gries_by_dict_scan(graph: Graph) -> Colouring:
    """Misra-Gries with the same choices as the package's kernel: edges in
    id order, fans extended by the lowest feasible colour, the earliest
    fan position whose end has d free."""
    n, m = graph.n, graph.m
    palette = graph.max_degree + 1
    edges = graph.edges
    colour = [0] * m
    used: list[dict[int, int]] = [dict() for _ in range(n)]

    def set_colour(eid: int, c: int) -> None:
        u, v, _ = edges[eid]
        old = colour[eid]
        if old:
            del used[u][old]
            del used[v][old]
        colour[eid] = c
        if c:
            used[u][c] = eid
            used[v][c] = eid

    def free_colour(v: int) -> int:
        for c in range(1, palette + 1):
            if c not in used[v]:
                return c
        raise AssertionError("no free colour within Delta+1 palette")

    def invert_cd_path(x: int, c: int, d: int) -> None:
        path = []
        v, want = x, d
        while True:
            e = used[v].get(want)
            if e is None:
                break
            path.append((e, want))
            a, b, _ = edges[e]
            v = b if v == a else a
            want = c if want == d else d
        for e, _ in path:
            set_colour(e, 0)
        for e, had in path:
            set_colour(e, c if had == d else d)

    for e0 in range(m):
        x, f, _ = edges[e0]
        fan = [(e0, f)]
        spokes = sorted(used[x].items())
        while True:
            busy = used[fan[-1][1]]
            for i, (c, e) in enumerate(spokes):
                if c not in busy:
                    a, b, _ = edges[e]
                    fan.append((e, b if x == a else a))
                    del spokes[i]
                    break
            else:
                break
        c = free_colour(x)
        d = free_colour(fan[-1][1])
        if d in used[x]:
            invert_cd_path(x, c, d)
        pick = next((j for j in range(len(fan)) if d not in used[fan[j][1]]), None)
        if pick is None:
            raise AssertionError("Misra-Gries invariant: a valid fan position exists")
        for i in range(pick):
            shifted = colour[fan[i + 1][0]]
            set_colour(fan[i + 1][0], 0)
            set_colour(fan[i][0], shifted)
        if d in used[x]:
            raise AssertionError("Misra-Gries invariant: d is free at x after the rotation")
        set_colour(fan[pick][0], d)

    return Colouring(kind="edge", groups=(0,) * m, colours=tuple(colour))


def push_best_by_fraction_sort(red: MatchingReduction, candidates, quota: int, heavy) -> list[int]:
    """Push up to ``quota`` of one vertex's candidates, ranked once on
    (gain, -eid) with gain = w - phi[a] - phi[b] in Fraction arithmetic."""
    phi, pushed = red.phi, red.pushed
    alive = [rec for rec in candidates if rec[0] not in pushed and heavy(rec[3], phi[rec[1]], phi[rec[2]])]
    alive.sort(key=lambda rec: (rec[3] - phi[rec[1]] - phi[rec[2]], -rec[0]), reverse=True)
    out = []
    for eid, a, b2, w in alive:
        if len(out) == quota:
            break
        if eid not in pushed and heavy(w, phi[a], phi[b2]):
            red.push(eid, a, b2, w)
            out.append(eid)
    return out
