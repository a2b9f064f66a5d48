"""Single-machine reference algorithms and exhaustive brute-force optima.

The local-ratio bookkeeping classes here (`CoverReduction`,
`MatchingReduction`) are shared with the cluster algorithms: the central
machine of each distributed run drives exactly this state, which is what
makes the stack-replay cross-checks exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .exactmath import harmonic
from .instances import (
    Colouring,
    Cover,
    Graph,
    Matching,
    SetCoverInstance,
    TooLarge,
    Uncoverable,
    _vertex_capacities,
    make_matching,
)


class CoverReduction:
    """Residual set weights under local-ratio element processing."""

    def __init__(self, weights: Sequence[Fraction]):
        self.residual = list(weights)

    def process_element(self, covering: Sequence[int]) -> tuple[int, ...]:
        """Apply one local-ratio step for an element with covering sets T_j.

        No-op unless every covering set still has positive residual; returns
        the set indices newly driven to zero (ascending).
        """
        eps = None
        for i in covering:
            r = self.residual[i]
            if r == 0:
                return ()
            if eps is None or r < eps:
                eps = r
        newly = []
        for i in covering:
            self.residual[i] -= eps
            if self.residual[i] == 0:
                newly.append(i)
        return tuple(sorted(newly))


class MatchingReduction:
    """Per-vertex accumulators phi and the push stack of local ratio.

    The modified weight of a never-pushed edge {u, v} is exactly
    ``w - phi[u] - phi[v]``.  With capacities the reduction splits as
    ``phi[u] += gain/b(u)``; a pushed edge is dead by fiat.
    """

    def __init__(self, n: int, caps: Sequence[int] | None = None, epsilon: Fraction = Fraction(0)):
        self.phi = [0] * n
        self.caps = list(caps) if caps is not None else None
        self.epsilon = Fraction(epsilon)
        self.stack: list[tuple[int, int, int, Fraction]] = []
        self.pushed: set[int] = set()

    def gain(self, u: int, v: int, w) -> Fraction:
        return w - self.phi[u] - self.phi[v]

    def alive(self, eid: int, u: int, v: int, w) -> bool:
        if eid in self.pushed:
            return False
        if self.caps is None:
            return self.gain(u, v, w) > 0
        return w > (1 + self.epsilon) * (self.phi[u] + self.phi[v])

    def push(self, eid: int, u: int, v: int, w) -> None:
        g = self.gain(u, v, w)
        if g <= 0:
            raise ValueError("pushing an edge with non-positive modified weight")
        self.record(eid, u, v, g)

    def record(self, eid: int, u: int, v: int, g) -> None:
        """Push an edge whose gain g is already known (a stack entry)."""
        if self.caps is None:
            self.phi[u] += g
            self.phi[v] += g
        else:
            self.phi[u] += Fraction(g, self.caps[u])
            self.phi[v] += Fraction(g, self.caps[v])
        self.stack.append((eid, u, v, g))
        self.pushed.add(eid)

    def unwind(self, n: int) -> list[int]:
        """LIFO unwind, adding each edge iff both endpoints have spare load."""
        caps = self.caps if self.caps is not None else [1] * n
        loads = [0] * n
        picked = []
        for eid, u, v, _ in reversed(self.stack):
            if loads[u] < caps[u] and loads[v] < caps[v]:
                picked.append(eid)
                loads[u] += 1
                loads[v] += 1
        return picked


def lr_set_cover_seq(instance: SetCoverInstance, element_order: Iterable[int] | None = None) -> Cover:
    """Sequential local ratio for weighted set cover (f-approximation).

    Scans elements in the given order (default ascending); for each element
    whose covering sets all have positive residual, subtracts the minimum
    covering residual from all of them.  Returns the zero-residual sets.
    """
    instance.check_coverable()
    if element_order is None:
        element_order = range(instance.m)
    red = CoverReduction(instance.weights)
    for j in element_order:
        red.process_element(instance.dual[j])
    zero = tuple(i for i, r in enumerate(red.residual) if r == 0)
    return Cover(set_ids=zero)


def lr_matching_seq(graph: Graph, edge_order: Iterable[int] | None = None) -> Matching:
    """Sequential local ratio for max-weight matching (2-approximation).

    Pushes each edge of the order whose modified weight is strictly
    positive, then unwinds the stack greedily.  With a complete order the
    result is at least half the optimum, for every order.
    """
    if edge_order is None:
        edge_order = range(graph.m)
    red = MatchingReduction(graph.n)
    for eid in edge_order:
        u, v, w = graph.edges[eid]
        if red.alive(eid, u, v, w):
            red.push(eid, u, v, w)
    return make_matching(graph, red.unwind(graph.n))


def lr_bmatching_seq(
    graph: Graph, b, epsilon, edge_order: Iterable[int] | None = None
) -> Matching:
    """Sequential epsilon-adjusted local ratio for max-weight b-matching.

    An edge stays alive while w > (1+eps)(phi(u)+phi(v)); a pick adds
    gain/b(u) and gain/b(v) to the endpoint accumulators.  The unwind
    respects the per-vertex capacities.
    """
    caps = _vertex_capacities(graph.n, b)
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if edge_order is None:
        edge_order = range(graph.m)
    red = MatchingReduction(graph.n, caps, epsilon)
    for eid in edge_order:
        u, v, w = graph.edges[eid]
        if red.alive(eid, u, v, w):
            red.push(eid, u, v, w)
    return make_matching(graph, red.unwind(graph.n), caps)


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


def eps_greedy_bound(instance: SetCoverInstance, epsilon) -> Fraction:
    """(1+eps) * H_Delta, the guarantee of the epsilon-greedy algorithm."""
    return (1 + Fraction(epsilon)) * harmonic(instance.max_set_size)


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


def misra_gries_edge_colouring_seq(graph: Graph) -> Colouring:
    """Misra-Gries fan/rotation edge colouring with at most Delta+1 colours
    (Misra & Gries 1992).

    Deterministic: edges are processed in id order, fans extend with the
    lowest feasible colour, and the recolouring vertex is the earliest
    valid fan position.  A fan step scans only the colours in use at x.
    After the path inversion the earliest fan position whose end has d
    free is used directly, with no scan for the prefix that is still a
    valid fan: the comment at that step shows it always lies there.
    """
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
        # x's coloured edges (colour, edge), ascending by colour.  Their far
        # ends are distinct and none is f, so an edge leaves the list when
        # it joins the fan and the rest lead outside the fan.
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
        # The earliest fan position whose end has d free always lies in the
        # prefix the inversion left a valid fan.  The inversion swaps c and
        # d along a path that starts with x's d-edge and cannot return to x
        # (c is free there), so it changes only c and d at any vertex and,
        # of the fan edges (none has colour c), only x's d-edge, to c.  So
        # the fan can break only at that edge, say fan[i + 1], and only if
        # c is taken at fan[i]'s end.  That end had d free (the fan
        # condition for fan[i + 1]), so it is no inner path vertex, and as
        # the path's last one its c-edge would have turned to d, freeing c.
        # So it is off the path, d is still free there, and pick <= i.
        pick = next((j for j in range(len(fan)) if d not in used[fan[j][1]]), None)
        assert pick is not None, "Misra-Gries invariant: a valid fan position exists"
        for i in range(pick):
            shifted = colour[fan[i + 1][0]]
            set_colour(fan[i + 1][0], 0)
            set_colour(fan[i][0], shifted)
        assert d not in used[x]
        set_colour(fan[pick][0], d)

    return Colouring(kind="edge", groups=(0,) * m, colours=tuple(colour))


# ---------------------------------------------------------------------------
# Exhaustive optima

BRUTE_FORCE_CAP = 22


def brute_force_min_cover(instance: SetCoverInstance) -> tuple[Fraction, tuple[int, ...]]:
    """Exact minimum-weight cover by pruned exhaustive enumeration."""
    if instance.n > BRUTE_FORCE_CAP:
        raise TooLarge(f"{instance.n} sets exceeds brute-force cap {BRUTE_FORCE_CAP}")
    instance.check_coverable()
    full = (1 << instance.m) - 1
    masks = []
    for elems in instance.sets:
        mask = 0
        for j in elems:
            mask |= 1 << j
        masks.append(mask)
    # Suffix coverage: what the sets from index i onward can still cover.
    suffix = [0] * (instance.n + 1)
    for i in range(instance.n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    best_w: list = [None]
    best_ids: list = [()]

    def rec(i: int, covered: int, weight: Fraction, chosen: tuple):
        if covered == full:
            if best_w[0] is None or weight < best_w[0]:
                best_w[0] = weight
                best_ids[0] = chosen
            return
        if i == instance.n or (covered | suffix[i]) != full:
            return
        if best_w[0] is not None and weight >= best_w[0]:
            return
        rec(i + 1, covered | masks[i], weight + instance.weights[i], chosen + (i,))
        rec(i + 1, covered, weight, chosen)

    rec(0, 0, Fraction(0), ())
    if best_w[0] is None:
        raise Uncoverable("no feasible cover")
    return best_w[0], best_ids[0]


def brute_force_max_matching(graph: Graph, b=None) -> tuple[Fraction, tuple[int, ...]]:
    """Exact maximum-weight (b-)matching by exhaustive enumeration."""
    if graph.m > BRUTE_FORCE_CAP:
        raise TooLarge(f"{graph.m} edges exceeds brute-force cap {BRUTE_FORCE_CAP}")
    caps = _vertex_capacities(graph.n, b)
    suffix = [Fraction(0)] * (graph.m + 1)
    for i in range(graph.m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + graph.edges[i][2]
    best_w = [Fraction(0)]
    best_ids: list = [()]
    loads = [0] * graph.n

    def rec(i: int, weight: Fraction, chosen: tuple):
        if weight > best_w[0]:
            best_w[0] = weight
            best_ids[0] = chosen
        if i == graph.m or weight + suffix[i] <= best_w[0]:
            return
        u, v, w = graph.edges[i]
        if loads[u] < caps[u] and loads[v] < caps[v]:
            loads[u] += 1
            loads[v] += 1
            rec(i + 1, weight + w, chosen + (i,))
            loads[u] -= 1
            loads[v] -= 1
        rec(i + 1, weight, chosen)

    rec(0, Fraction(0), ())
    return best_w[0], best_ids[0]


# ---------------------------------------------------------------------------
# Direct predicates for MIS / clique outputs


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    vs = set(vertices)
    return all(not (u in vs and v in vs) for u, v, _ in graph.edges)


def is_maximal_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    vs = set(vertices)
    if not is_independent_set(graph, vs):
        return False
    for v in range(graph.n):
        if v in vs:
            continue
        if not any(u in vs for u in graph.neighbours(v)):
            return False
    return True


def is_clique(graph: Graph, vertices: Iterable[int]) -> bool:
    vs = sorted(set(vertices))
    return all(graph.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def is_maximal_clique(graph: Graph, vertices: Iterable[int]) -> bool:
    vs = set(vertices)
    if not is_clique(graph, vs):
        return False
    for v in range(graph.n):
        if v in vs:
            continue
        if all(graph.has_edge(u, v) for u in vs):
            return False
    return True

