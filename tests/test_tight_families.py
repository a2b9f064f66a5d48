"""Bounds with teeth: each family is checked against its algorithm's bound
at zero tolerance, and its measured ratio must reach a floor, which shows
that the family comes close to the bound."""

from fractions import Fraction

import pytest

from mpcgraph.instances import validate_b_matching
from mpcgraph.oracles import brute_force
from mpcgraph.rlr_matching import approx_b_matching, approx_max_matching
from tight_families import relabelled_p4_paths

EPS = Fraction(1, 10)
RUNS = {
    "match-2": (lambda g, seed: approx_max_matching(g, seed=seed), Fraction(2)),
    "bmatch": (lambda g, seed: approx_b_matching(g, 1, EPS, seed=seed), 3 - Fraction(2, 2) + 2 * EPS),
}


def test_relabelled_p4_optimum_is_the_outer_edges():
    g, opt = relabelled_p4_paths(2)
    assert brute_force("matching", g)[0] == opt == 4


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
