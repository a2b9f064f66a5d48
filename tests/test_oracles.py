from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from mpcgraph.exactmath import harmonic
from mpcgraph.instances import (
    TooLarge,
    Uncoverable,
    make_graph,
    make_set_cover,
    generate_set_cover,
    validate,
    validate_b_matching,
)
from mpcgraph.oracles import (
    MatchingReduction,
    brute_force_max_matching,
    brute_force_min_cover,
    eps_greedy_set_cover_seq,
    greedy_vertex_colouring_seq,
    is_maximal_clique,
    is_maximal_independent_set,
    lr_bmatching_seq,
    lr_matching_seq,
    lr_set_cover_seq,
    misra_gries_edge_colouring_seq,
)
from references import misra_gries_by_dict_scan


def p3_weighted():
    # path a-b-c with w(ab) = 3, w(bc) = 2
    return make_graph(3, [(0, 1, 3), (1, 2, 2)])


def three_set_instance():
    return make_set_cover(3, 3, [[0, 1], [1, 2], [0, 2]], [1, 1, 3])


# ---------------------------------------------------------------------- cover


def test_lr_set_cover_worked_example():
    inst = three_set_instance()
    cover = lr_set_cover_seq(inst, [0, 1, 2])
    # element 0 zeroes S1 (eps 1), element 1 skipped, element 2 zeroes S2
    assert cover.set_ids == (0, 1)
    assert cover.weight(inst) == 2
    opt, _ = brute_force_min_cover(inst)
    assert opt == 2 and inst.frequency == 2


def test_lr_set_cover_edge_cases():
    empty = make_set_cover(1, 0, [[]], [1])
    assert lr_set_cover_seq(empty).set_ids == ()
    single = make_set_cover(1, 5, [[0, 1, 2, 3, 4]], [7])
    cover = lr_set_cover_seq(single)
    assert cover.set_ids == (0,) and cover.weight(single) == 7
    bad = make_set_cover(1, 2, [[0]], [1])
    with pytest.raises(Uncoverable):
        lr_set_cover_seq(bad)


def test_lr_set_cover_f_ratio_all_orders():
    rng = Random(10)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        inst = generate_set_cover(n, m, rng.random(), (1, 9), seed=rng.randint(0, 10**6))
        opt, _ = brute_force_min_cover(inst)
        f = inst.frequency
        for _ in range(4):
            order = list(range(m))
            rng.shuffle(order)
            cover = lr_set_cover_seq(inst, order)
            assert validate(cover, inst).feasible
            assert cover.weight(inst) <= f * opt


# ------------------------------------------------------------------- matching


def test_lr_matching_worked_example():
    g = p3_weighted()
    m1 = lr_matching_seq(g, [0, 1])  # push ab (g=3), bc blocked
    assert m1.edge_ids == (0,) and m1.weight(g) == 3
    m2 = lr_matching_seq(g, [1, 0])  # push bc then ab; unwind keeps ab
    assert m2.edge_ids == (0,) and m2.weight(g) == 3
    opt, _ = brute_force_max_matching(g)
    assert opt == 3
    empty = make_graph(4, [])
    assert lr_matching_seq(empty).edge_ids == ()


def test_lr_matching_half_opt_all_orders():
    rng = Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7), 10)
        opt, _ = brute_force_max_matching(g)
        for order in list(permutations(range(g.m)))[:6] if g.m <= 4 else [
            rng.sample(range(g.m), g.m) for _ in range(6)
        ]:
            matching = lr_matching_seq(g, order)
            assert validate(matching, g).feasible
            assert 2 * matching.weight(g) >= opt


def naive_lr_matching(graph, order):
    """Replay with explicit per-edge weight mutation (O(m * Delta))."""
    weights = [w for _, _, w in graph.edges]
    stack = []
    for eid in order:
        if weights[eid] > 0:
            g = weights[eid]
            u, v = graph.endpoints(eid)
            for other in range(graph.m):
                ou, ov = graph.endpoints(other)
                if other != eid and (ou in (u, v) or ov in (u, v)):
                    weights[other] -= g
            weights[eid] = 0
            stack.append(eid)
    matched = []
    used = set()
    for eid in reversed(stack):
        u, v = graph.endpoints(eid)
        if u not in used and v not in used:
            matched.append(eid)
            used.update((u, v))
    return stack, tuple(sorted(matched))


def test_phi_representation_exactness():
    # phi bookkeeping reproduces the naive weight-mutation variant exactly
    rng = Random(12)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7), 9)
        order = rng.sample(range(g.m), g.m)
        red = MatchingReduction(g.n)
        for eid in order:
            u, v, w = g.edges[eid]
            if red.alive(eid, u, v, w):
                red.push(eid, u, v, w)
        phi_stack = [e for e, _, _, _ in red.stack]
        naive_stack, naive_matching = naive_lr_matching(g, order)
        assert phi_stack == naive_stack
        assert tuple(sorted(red.unwind(g.n))) == naive_matching


def test_unwind_is_maximal_over_pushed():
    rng = Random(13)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8), 12)
        order = rng.sample(range(g.m), g.m)
        red = MatchingReduction(g.n)
        for eid in order:
            u, v, w = g.edges[eid]
            if red.alive(eid, u, v, w):
                red.push(eid, u, v, w)
        picked = set(red.unwind(g.n))
        used = set()
        for eid in picked:
            used.update(g.endpoints(eid))
        for eid, u, v, _ in red.stack:
            if eid not in picked:
                assert u in used or v in used  # no skipped free-free edge


# ----------------------------------------------------------------- b-matching


def test_bmatching_examples():
    tri = make_graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    m = lr_bmatching_seq(tri, 2, 0)
    assert m.edge_ids == (0, 1, 2) and m.weight(tri) == 3
    opt, _ = brute_force_max_matching(tri, 2)
    assert opt == 3
    single = make_graph(2, [(0, 1, 5)])
    m = lr_bmatching_seq(single, 3, Fraction(1, 4))
    assert m.edge_ids == (0,) and m.weight(single) == 5


def test_bmatching_b1_eps0_equals_matching():
    rng = Random(14)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7), 10)
        order = rng.sample(range(g.m), g.m)
        assert lr_bmatching_seq(g, 1, 0, order).edge_ids == lr_matching_seq(g, order).edge_ids


def test_bmatching_ratio():
    rng = Random(15)
    eps = Fraction(1, 10)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6), 9)
        b = rng.choice([1, 2, 3])
        opt, _ = brute_force_max_matching(g, b)
        bound = 3 - Fraction(2, max(2, b)) + 2 * eps
        matching = lr_bmatching_seq(g, b, eps, rng.sample(range(g.m), g.m))
        assert validate_b_matching(matching, g, b).feasible
        assert matching.weight(g) * bound >= opt


# ----------------------------------------------------------------- eps-greedy


def test_eps_greedy_examples():
    inst = make_set_cover(4, 3, [[0, 1, 2], [0], [1], [2]], [1, Fraction(2, 5)] + [Fraction(2, 5)] * 2)
    for eps in (0, 1):
        cover = eps_greedy_set_cover_seq(inst, eps)
        assert cover.set_ids == (0,)
        assert cover.weight(inst) == 1
    opt, _ = brute_force_min_cover(inst)
    assert opt == 1
    tiny = make_set_cover(1, 1, [[0]], [3])
    assert eps_greedy_set_cover_seq(tiny, Fraction(1, 2)).set_ids == (0,)


def test_eps_greedy_harmonic_bound():
    rng = Random(16)
    for _ in range(30):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        inst = generate_set_cover(n, m, rng.random(), (1, 9), seed=rng.randint(0, 10**6))
        opt, _ = brute_force_min_cover(inst)
        for eps in (0, Fraction(1, 10), 1):
            cover = eps_greedy_set_cover_seq(inst, eps)
            assert cover.weight(inst) <= (1 + Fraction(eps)) * harmonic(inst.max_set_size) * opt


# ------------------------------------------------------------------ colouring


def test_greedy_vertex_colouring_examples():
    k3 = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert greedy_vertex_colouring_seq(k3).colour_count == 3
    edgeless = make_graph(5, [])
    assert greedy_vertex_colouring_seq(edgeless).colour_count == 1
    star = make_graph(5, [(0, i, 1) for i in range(1, 5)])
    assert greedy_vertex_colouring_seq(star).colour_count == 2


def test_greedy_vertex_colouring_bound():
    rng = Random(17)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 16), 40)
        col = greedy_vertex_colouring_seq(g)
        assert validate(col, g).feasible
        assert col.colour_count <= g.max_degree + 1


def test_misra_gries_examples():
    single = make_graph(2, [(0, 1, 1)])
    assert misra_gries_edge_colouring_seq(single).colour_count == 1
    p3 = make_graph(3, [(0, 1, 1), (1, 2, 1)])
    assert misra_gries_edge_colouring_seq(p3).colour_count == 2
    k3 = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    col = misra_gries_edge_colouring_seq(k3)
    assert col.colour_count == 3 <= k3.max_degree + 1
    # exhaustive: 2 colours cannot properly colour K3's edges
    for assignment in [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]:
        improper = any(
            assignment[i] == assignment[j]
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert improper  # every pair of K3 edges shares a vertex


def test_misra_gries_random_sweep():
    rng = Random(18)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 14), 30)
        col = misra_gries_edge_colouring_seq(g)
        assert validate(col, g).feasible
        if g.m:
            assert max(col.colours) <= g.max_degree + 1


@st.composite
def edge_colouring_graphs(draw):
    """A sparse, dense, star or complete graph, with its vertex labels and
    edge ids shuffled (the fan centre of an edge is its lower endpoint)."""
    shape = draw(st.sampled_from(["sparse", "dense", "star", "complete"]))
    n = draw(st.integers(1, 26))
    rng = Random(draw(st.integers(0, 2**32)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if shape == "star":
        pairs = [(0, v) for v in range(1, n)]
    elif shape != "complete":
        density = 0.15 if shape == "sparse" else 0.7
        pairs = [p for p in pairs if rng.random() < density]
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(pairs)
    return make_graph(n, [(label[u], label[v], 1) for u, v in pairs])


@settings(deadline=None)
@given(edge_colouring_graphs())
def test_misra_gries_equals_dict_scan_reference(g):
    col = misra_gries_edge_colouring_seq(g)
    assert col.colours == misra_gries_by_dict_scan(g).colours
    assert validate(col, g).feasible
    assert max(col.colours, default=0) <= g.max_degree + 1


# ---------------------------------------------------------------- brute force


def test_brute_force_examples():
    p3 = make_graph(3, [(0, 1, 3), (1, 2, 2)])
    assert brute_force_max_matching(p3)[0] == 3
    inst = three_set_instance()
    assert brute_force_min_cover(inst)[0] == 2
    empty = make_graph(3, [])
    assert brute_force_max_matching(empty) == (0, ())


def test_brute_force_caps():
    big = make_graph(30, [(0, i, 1) for i in range(1, 24)])
    with pytest.raises(TooLarge):
        brute_force_max_matching(big)
    inst = generate_set_cover(23, 4, 0.5, (1, 2), seed=0)
    with pytest.raises(TooLarge):
        brute_force_min_cover(inst)


def test_brute_force_witness_feasible():
    rng = Random(19)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7), 10)
        opt, witness = brute_force_max_matching(g)
        assert sum(g.weight(e) for e in witness) == opt
        used = set()
        for e in witness:
            u, v = g.endpoints(e)
            assert u not in used and v not in used
            used.update((u, v))


# ----------------------------------------------------------------- predicates


def test_mis_predicates():
    square = make_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert is_maximal_independent_set(square, [0, 2])
    assert not is_maximal_independent_set(square, [0])  # not maximal
    assert not is_maximal_independent_set(square, [0, 1])  # not independent
    k3 = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert is_maximal_clique(k3, [0, 1, 2])
    assert not is_maximal_clique(k3, [0, 1])
