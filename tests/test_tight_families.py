"""Bounds with teeth: each family is checked against its algorithm's bound
at zero tolerance, and its measured ratio must reach a floor, which shows
that the family comes close to the bound."""

from fractions import Fraction
from itertools import combinations

import pytest

from mpcgraph.colouring import edge_colouring, vertex_colouring
from mpcgraph.instances import validate, validate_b_matching, vertex_cover_encoding
from mpcgraph.oracles import brute_force_max_matching, brute_force_min_cover, is_independent_set
from mpcgraph.rlr_matching import approx_b_matching, approx_max_matching
from mpcgraph.rlr_setcover import approx_sc_f, vertex_cover_2approx
from tight_families import complete_graph, disjoint_unit_edges, odd_cycle, relabelled_p4_paths, singleton_sets

EPS = Fraction(1, 10)
RUNS = {
    "match-2": (lambda g, seed: approx_max_matching(g, seed=seed), Fraction(2)),
    "bmatch": (lambda g, seed: approx_b_matching(g, 1, EPS, seed=seed), 3 - Fraction(2, 2) + 2 * EPS),
}


def test_relabelled_p4_optimum_is_the_outer_edges():
    g, opt = relabelled_p4_paths(2)
    assert brute_force_max_matching(g)[0] == opt == 4


@pytest.mark.parametrize("alg", sorted(RUNS))
def test_relabelled_p4_paths_reach_200_over_101(alg):
    run, bound = RUNS[alg]
    g, opt = relabelled_p4_paths(50)
    for seed in range(1, 11):
        matching = run(g, seed).value
        assert validate_b_matching(matching, g, 1).feasible
        ratio = opt / matching.weight(g)
        assert ratio <= bound
        assert ratio >= Fraction(19, 10)


def test_tight_cover_optima():
    g, opt = disjoint_unit_edges(3)
    assert brute_force_min_cover(vertex_cover_encoding(g))[0] == opt == 3
    instance, opt = singleton_sets(3, 3)
    assert brute_force_min_cover(instance)[0] == opt == 3


def test_disjoint_unit_edges_reach_2():
    g, opt = disjoint_unit_edges(50)
    instance = vertex_cover_encoding(g)
    for seed in range(1, 11):
        cover = vertex_cover_2approx(g, seed=seed).value
        assert validate(cover, instance).feasible
        ratio = cover.weight(instance) / opt
        assert ratio <= 2
        assert ratio == 2


@pytest.mark.parametrize("f", [2, 3, 5])
def test_singleton_sets_reach_f(f):
    instance, opt = singleton_sets(40, f)
    assert instance.frequency == f
    for seed in range(1, 11):
        cover = approx_sc_f(instance, seed=seed).value
        assert validate(cover, instance).feasible
        ratio = cover.weight(instance) / opt
        assert ratio <= f
        assert ratio == f


# (algorithm, family, size): K_{Delta+1} and odd cycles for vertex
# colouring, K_n with n odd and odd cycles for edge colouring.
COLOURING_FAMILIES = [
    ("colour-v", complete_graph, 9),
    ("colour-v", odd_cycle, 12),
    ("colour-e", complete_graph, 9),
    ("colour-e", complete_graph, 11),
    ("colour-e", odd_cycle, 12),
]
COLOURINGS = {"colour-v": vertex_colouring, "colour-e": edge_colouring}


@pytest.mark.parametrize(
    "kind,family,size",
    [("vertex", complete_graph, 5), ("vertex", odd_cycle, 3), ("edge", complete_graph, 5), ("edge", odd_cycle, 3)],
)
def test_colouring_families_need_delta_plus_one(kind, family, size):
    # The closed form against the counting bound: a colour class is an
    # independent set (vertex) or a matching (edge), so at least
    # items / (largest class) colours are needed.
    g, need = family(size, seed=1)
    assert need == g.max_degree + 1
    if kind == "edge":
        largest = len(brute_force_max_matching(g)[1])
        items = g.m
    else:
        largest = max(k for k in range(1, g.n + 1) for vs in combinations(range(g.n), k) if is_independent_set(g, vs))
        items = g.n
    assert -(-items // largest) == need


@pytest.mark.parametrize("alg,family,size", COLOURING_FAMILIES)
def test_colouring_families_reach_delta_plus_one(alg, family, size):
    for seed in range(1, 6):
        g, need = family(size, seed)
        res = COLOURINGS[alg](g, kappa=1, seed=seed)
        assert validate(res.value, g).feasible
        bound = g.max_degree + 1
        assert res.extras["count_bound"] == bound
        assert res.value.colour_count <= bound
        assert res.value.colour_count >= need == bound
