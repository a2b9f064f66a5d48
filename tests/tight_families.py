"""Seeded instance families on which an algorithm's bound is nearly tight,
each with its optimum in closed form, so no brute force is needed.

Local ratio and its bounds: Bar-Yehuda and Even (1985); Bar-Yehuda,
Bendel, Freund and Rawitz, "Local ratio: a unified framework" (2004).
The colouring families need Delta + 1 colours, the most that greedy
vertex colouring and Misra-Gries edge colouring (Misra and Gries, "A
constructive proof of Vizing's theorem", 1992) may use.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from mpcgraph.instances import Graph, SetCoverInstance, make_graph, make_set_cover

MIDDLE_WEIGHT = Fraction(101, 100)


def relabelled_p4_paths(paths: int) -> tuple[Graph, Fraction]:
    """``paths`` disjoint paths a-b-c-d, with weights 1, 101/100, 1, and
    the optimum weight of a matching on them.

    The middle edges b-c hold the lowest vertex ids (path k is b = 2k,
    c = 2k + 1) and the lowest edge ids.  A central pass that visits
    vertices in id order pushes every middle edge first, and each middle
    edge then blocks both outer edges of its path: the matching weighs
    101/100 per path where the optimum, the two outer edges, weighs 2.
    So OPT/ALG = 200/101.
    """
    middle = [(2 * k, 2 * k + 1, MIDDLE_WEIGHT) for k in range(paths)]
    outer = []
    for k in range(paths):
        a, d = 2 * paths + 2 * k, 2 * paths + 2 * k + 1
        outer += [(a, 2 * k, 1), (2 * k + 1, d, 1)]
    return make_graph(4 * paths, middle + outer), Fraction(2 * paths)


def disjoint_unit_edges(k: int) -> tuple[Graph, int]:
    """``k`` disjoint unit-weight edges, and the optimum weight of a vertex
    cover on them under unit vertex weights: one end of each edge.

    Local ratio lowers both ends of an edge by the same amount, so equal
    weights reach zero together and both ends join the cover: 2k against
    k, a ratio of exactly 2.
    """
    return make_graph(2 * k, [(2 * i, 2 * i + 1, 1) for i in range(k)]), k


def singleton_sets(m: int, f: int) -> tuple[SetCoverInstance, int]:
    """``m`` elements, each in ``f`` singleton sets of unit weight (element
    j is in sets f*j to f*j + f - 1), and the optimum cover weight, m.

    Local ratio lowers all f sets of an element together, so all of them
    reach zero at once and join the cover: f*m against m, a ratio of
    exactly f.
    """
    sets = [(j,) for j in range(m) for _ in range(f)]
    return make_set_cover(len(sets), m, sets, [1] * len(sets)), m


def _shuffled(n: int, pairs: list, seed: int) -> Graph:
    """The graph on ``pairs`` with seeded vertex labels and edge ids."""
    rng = Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    pairs = list(pairs)
    rng.shuffle(pairs)
    return make_graph(n, [(label[u], label[v], 1) for u, v in pairs])


def complete_graph(n: int, seed: int) -> tuple[Graph, int]:
    """K_n with seeded edge ids, and the colours every vertex colouring
    needs: n = Delta + 1, since no two vertices may share one.

    For odd n every edge colouring needs n = Delta + 1 colours as well: a
    colour class is a matching of at most (n - 1)/2 edges, and there are
    n(n - 1)/2 edges.
    """
    return _shuffled(n, [(u, v) for u in range(n) for v in range(u + 1, n)], seed), n


def odd_cycle(k: int, seed: int) -> tuple[Graph, int]:
    """The cycle on 2k + 1 vertices, with seeded vertex labels and edge
    ids, and the colours both its vertex and its edge colourings need:
    3 = Delta + 1, since a colour class holds at most k of its 2k + 1
    vertices (an independent set) or edges (a matching).
    """
    n = 2 * k + 1
    return _shuffled(n, [(i, (i + 1) % n) for i in range(n)], seed), 3
