"""Plain reference versions of two hot kernels, kept for differential tests.

``misra_gries_by_dict_scan`` keeps only a colour -> edge dict per vertex
and finds every free colour and fan step by scanning it;
``push_best_by_fraction_sort`` ranks one vertex's candidates on Fraction
gains.  The package's kernels must return exactly what these return.
"""

from __future__ import annotations

from mpcgraph.instances import Colouring, Graph
from mpcgraph.oracles import MatchingReduction


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
