"""Pinned outputs of the local-ratio b-matching and Misra-Gries kernels.

The golden digests run bmatch with integer weights, one uniform b and
eps = 1/10 only, and colour-e on sparse graphs.  This matrix pins what
they leave out: fractional weights (denominators 2 to 7), per-vertex
capacities mixed from {1, 2, 3}, three epsilons, the sampled branch as
well as the full one, and edge colourings of dense (c = 4/5) graphs,
whose Misra-Gries fans are long.  Each cell is the SHA-256 of the repr
of the outputs it lists, so any change to a push, a matched edge, an
iteration count or a colour fails it.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from random import Random

import pytest

from mpcgraph import rlr_matching
from mpcgraph.colouring import edge_colouring
from mpcgraph.instances import generate_graph, make_graph
from mpcgraph.oracles import misra_gries_edge_colouring_seq
from mpcgraph.rlr_matching import approx_b_matching

EPSILONS = ("1/10", "1/3", "3/2")
# branch -> (vertices, most edges, run options).  eta=2 and mu=1/10 put
# |E| above the full-branch threshold and the per-vertex sample caps below
# the degrees, so the first iteration runs rng.sample; the budget factor is
# lifted so that the tiny eta does not fail the attempts.
BRANCHES = {
    "full": ((6, 16), 40, {}),
    "sampled": ((18, 26), 150, {"eta": 2, "mu": "1/10"}),
}

BMATCH_PINS = {
    ("1/10", "full"): "aec57be0d5aded32addb3510777719ab12b253deae9f721035e545ba02136c52",
    ("1/10", "sampled"): "39478d776e9c90c9baf2ff9fef56a3ae50d5a212d925b8d51ac9fec7c15fa470",
    ("1/3", "full"): "07e47e7a1d50521e0fee21ade478f12520bc1be4fd4511db471af6deb8180d59",
    ("1/3", "sampled"): "0cd46c0299f11ce7d46caf7e2f3230a1c71f1a3d7bd2e48d72e63bc90663d499",
    ("3/2", "full"): "882af5c750f154c3272d3ffb7603461eb663a46fba01a89a3e34ce1fc1904a67",
    ("3/2", "sampled"): "d88cab1e888002f46d6e5e8642be4153c6c29be58e28433e8db395292917fe43",
}

MISRA_GRIES_PINS = {
    24: "4d5fb0ba8839a651dbb62796c952c08349086ab12c5f40fa0c43bdbccb704fc0",
    40: "6942c5256c25d206c62262cad90b5e392398488c09d5e9c71c248c428e615bd5",
    64: "6e155bf77a7b9221c4ecbd27a2ba0be0bb504b21e19e9bf783da64391cb9186a",
}
COLOUR_E_PINS = {
    1: "44f68dba664424b9794d57c192459c4ba7106d649097b709703c7035cdb5b655",
    2: "2642db628d16939743c23b88b3d7f66e5f613122930bbc6e9bd57bdb31f39fdf",
    3: "00d31aa2f1faa05e83a7ca5f30c06b7ea0d8382ce21954d2daef553dbb55e094",
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _fractional_graph(rng: Random, n: int, max_edges: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = rng.sample(pairs, min(max_edges, len(pairs)))
    edges = [(u, v, Fraction(rng.randint(1, 40), rng.randint(2, 7))) for u, v in picked]
    return make_graph(n, edges)


@pytest.mark.parametrize("eps,branch", sorted(BMATCH_PINS))
def test_bmatching_push_order_and_matching_pinned(eps, branch, monkeypatch):
    (n_lo, n_hi), max_edges, options = BRANCHES[branch]
    if options:
        monkeypatch.setattr(rlr_matching, "BUDGET_FACTOR", 10**6)
    rng = Random(EPSILONS.index(eps) * 10 + sorted(BRANCHES).index(branch))
    outputs = []
    for _ in range(3):
        g = _fractional_graph(rng, rng.randint(n_lo, n_hi), max_edges)
        caps = [rng.choice((1, 2, 3)) for _ in range(g.n)]
        for seed in (1, 2, 3):
            res = approx_b_matching(g, caps, Fraction(eps), seed=seed, **options)
            outputs.append((res.iterations, res.extras["push_order"], res.value.edge_ids))
    iterations = [it for it, _, _ in outputs]
    if branch == "full":
        assert iterations == [1] * len(outputs)
    else:
        assert max(iterations) > 1
    assert _digest(outputs) == BMATCH_PINS[eps, branch]


@pytest.mark.parametrize("n", sorted(MISRA_GRIES_PINS))
def test_misra_gries_dense_pinned(n):
    g = generate_graph(n, "4/5", (1, 1), seed=n)
    col = misra_gries_edge_colouring_seq(g)
    assert col.colour_count <= g.max_degree + 1
    assert _digest(col.colours) == MISRA_GRIES_PINS[n]


@pytest.mark.parametrize("seed", sorted(COLOUR_E_PINS))
def test_colour_e_dense_pinned(seed):
    g = generate_graph(96, "4/5", (1, 1), seed=40 + seed)
    res = edge_colouring(g, mu="1/5", seed=seed)
    assert _digest((res.iterations, res.value.colours, res.value.groups)) == COLOUR_E_PINS[seed]
