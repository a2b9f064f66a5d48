import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_graph
from mpcgraph.engine import Cluster
from mpcgraph.exactmath import ipow_floor
from mpcgraph.instances import generate_graph, make_graph, validate, validate_b_matching
from mpcgraph.oracles import MatchingReduction, brute_force_max_matching, lr_bmatching_seq, lr_matching_seq
from mpcgraph.rlr_matching import (
    _heavy_test,
    _push_best,
    _scaled_weights,
    approx_b_matching,
    approx_max_matching,
)


def test_p3_every_seed_gives_opt():
    g = make_graph(3, [(0, 1, 3), (1, 2, 2)])
    for seed in range(8):
        res = approx_max_matching(g, mu="1/5", seed=seed)
        assert res.value.weight(g) == 3


def test_full_branch_single_iteration_matches_vertex_sweep():
    # |E| < 4*eta from the start: one iteration, equal to the sequential
    # local ratio fed the central vertex-sweep push order
    g = generate_graph(10, "1/2", (1, 9), seed=8)
    res = approx_max_matching(g, mu="1", seed=3)  # eta = n^2 >> m
    assert res.iterations == 1
    replay = lr_matching_seq(g, res.extras["push_order"])
    assert replay.edge_ids == res.value.edge_ids


def test_two_approx_sweep_zero_tolerance():
    rng = Random(60)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10), 16)
        opt, _ = brute_force_max_matching(g)
        for seed in range(3):
            res = approx_max_matching(g, mu="1/5", seed=seed)
            assert validate(res.value, g).feasible
            assert 2 * res.value.weight(g) >= opt


def test_stack_replay_identity():
    rng = Random(61)
    for _ in range(15):
        g = random_graph(rng, rng.randint(4, 14), 30)
        res = approx_max_matching(g, mu="1/10", seed=rng.randint(0, 99))
        replay = lr_matching_seq(g, res.extras["push_order"])
        assert replay.edge_ids == res.value.edge_ids


def test_sampled_branch_at_small_eta():
    # a tiny eta forces the i.i.d. sampling path and multiple iterations
    rng = Random(64)
    multi = 0
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 10), 16)
        opt, _ = brute_force_max_matching(g)
        res = approx_max_matching(g, mu="1/5", eta=3, seed=rng.randint(0, 99))
        assert validate(res.value, g).feasible
        assert 2 * res.value.weight(g) >= opt
        multi += res.iterations > 1
        replay = lr_matching_seq(g, res.extras["push_order"])
        assert replay.edge_ids == res.value.edge_ids
    assert multi > 0  # the sampled branch actually ran


def test_exact_rational_weights():
    g = make_graph(4, [(0, 1, Fraction(7, 3)), (1, 2, Fraction(5, 3)), (2, 3, Fraction(1, 3))])
    res = approx_max_matching(g, mu="1/5", seed=2)
    opt, _ = brute_force_max_matching(g)
    assert 2 * res.value.weight(g) >= opt
    assert res.value.weight(g).denominator in (1, 3)


def test_e_series_monotone_and_terminates():
    g = generate_graph(128, "1/2", (1, 10), seed=3)
    res = approx_max_matching(g, mu="1/5", c="1/2", seed=2)
    e = res.extras["e_series"]
    assert e[0] == g.m and e[-1] == 0
    assert all(b <= a for a, b in zip(e, e[1:]))


def _max_alive_degree(cluster: Cluster) -> int:
    deg = Counter()
    for store in cluster.stores:
        alive = store["alive"].value
        for eid, u, v, _ in store["edges"].value:
            if eid in alive:
                deg[u] += 1
                deg[v] += 1
    return max(deg.values(), default=0)


def test_degree_shrink_and_first_phase_instrumented(monkeypatch):
    """Degree-shrink instrumentation at n = 1024, mu = 1/5: in >= 90% of 50
    seeded runs, every iteration i > 2 shrinks the max alive degree by
    n^(mu/4), and d_2(v) <= n^c.  The max alive degree is read from the
    machines' stores after each iteration's edge count."""
    n, mu_num = 1024, Fraction(1, 5)
    graph = generate_graph(n, "2/5", (1, 10), seed=404)
    series: dict[Cluster, list[int]] = {}
    count = Cluster.aggregate_and_broadcast

    def counted(self, *args, **kwargs):
        out = count(self, *args, **kwargs)
        series.setdefault(self, []).append(_max_alive_degree(self))
        return out

    monkeypatch.setattr(Cluster, "aggregate_and_broadcast", counted)
    # exact comparators: after <= before / n^(1/20), delta2 <= n^(2/5)
    def shrink_ok(after, before):
        return after**20 * n <= before**20

    def cap_ok(delta2):
        return delta2**5 <= n**2

    shrink_pass = 0
    cap_pass = 0
    for seed in range(50):
        res = approx_max_matching(graph, mu="1/5", c="2/5", seed=seed)
        deltas = [graph.max_degree, *series[res.cluster]]
        series.clear()
        ok = all(
            shrink_ok(deltas[i + 1], deltas[i])
            for i in range(3, len(deltas) - 1)
        )
        shrink_pass += ok
        cap_pass += cap_ok(deltas[1]) if len(deltas) > 1 else 1
    assert shrink_pass >= 45, f"degree shrink held in only {shrink_pass}/50 runs"
    assert cap_pass >= 45, f"first-phase cap held in only {cap_pass}/50 runs"


def test_eta_n_contraction_instrumented():
    """Linear-space eta = n regime at n = 512: mean per-iteration edge
    ratio over sampled-branch iterations stays below 0.99."""
    n = 512
    ratios = []
    iteration_counts = []
    for seed in range(50):
        g = generate_graph(n, "2/5", (1, 10), seed=7000 + seed)
        res = approx_max_matching(g, mu="0", eta=n, c="2/5", seed=seed)
        e = res.extras["e_series"]
        iteration_counts.append(res.iterations)
        for a, b in zip(e, e[1:]):
            if a >= 4 * n:
                ratios.append(b / a)
    assert ratios, "no sampled-branch iterations observed"
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio <= 0.99
    assert max(iteration_counts) <= 200 * 9  # 200 * log2(512)


# ----------------------------------------------------------------- b-matching


def test_bmatching_triangle_all_seeds():
    tri = make_graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    for seed in range(6):
        res = approx_b_matching(tri, 2, Fraction(1, 10), seed=seed)
        assert res.value.weight(tri) == 3  # all edges survive the unwind


def test_bmatching_single_edge():
    g = make_graph(2, [(0, 1, 5)])
    for b in (1, 2, 3):
        res = approx_b_matching(g, b, Fraction(1, 2), seed=1)
        assert res.value.edge_ids == (0,)


def test_bmatching_invalid_epsilon():
    g = make_graph(2, [(0, 1, 5)])
    with pytest.raises(ValueError):
        approx_b_matching(g, 1, 0, seed=1)


def test_bmatching_ratio_sweep():
    rng = Random(62)
    eps = Fraction(1, 10)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8), 14)
        b = rng.choice([1, 2, 3])
        opt, _ = brute_force_max_matching(g, b)
        bound = 3 - Fraction(2, max(2, b)) + 2 * eps
        for seed in range(2):
            res = approx_b_matching(g, b, eps, seed=seed)
            assert validate_b_matching(res.value, g, b).feasible
            assert res.value.weight(g) * bound >= opt


def test_bmatching_replay():
    rng = Random(63)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 8), 12)
        b = rng.choice([1, 2, 3])
        eps = Fraction(1, 10)
        res = approx_b_matching(g, b, eps, seed=rng.randint(0, 99))
        replay = lr_bmatching_seq(g, b, eps, res.extras["push_order"])
        assert replay.edge_ids == res.value.edge_ids
    # Fractional weights and per-vertex capacities, in the full branch and
    # (eta=2, with the budget lifted) the sampled one.
    for trial in range(12):
        g = random_graph(rng, rng.randint(3, 12), 30)
        g = make_graph(g.n, [(u, v, w / rng.randint(2, 7)) for u, v, w in g.edges])
        caps = [rng.choice([1, 2, 3]) for _ in range(g.n)]
        eps = rng.choice([Fraction(1, 10), Fraction(1, 3), Fraction(3, 2)])
        sampled = {"eta": 2, "mu": "1/10", "memory_budget_words": 10**6} if trial % 2 else {}
        res = approx_b_matching(g, caps, eps, seed=rng.randint(0, 99), **sampled)
        replay = lr_bmatching_seq(g, caps, eps, res.extras["push_order"])
        assert replay.edge_ids == res.value.edge_ids


def test_per_vertex_capacities():
    star = make_graph(4, [(0, 1, 3), (0, 2, 2), (0, 3, 1)])
    res = approx_b_matching(star, [2, 1, 1, 1], Fraction(1, 10), seed=0)
    assert validate_b_matching(res.value, star, [2, 1, 1, 1]).feasible
    assert res.value.weight(star) == 5  # the two heaviest edges fit


def test_match_config_defaults():
    g = generate_graph(64, "1/2", (1, 5), seed=1)
    cfg = approx_max_matching(g, mu="1/4", seed=0).cluster.config
    assert cfg.eta == ipow_floor(64, Fraction(5, 4))
    assert cfg.machine_count == -(-g.m // cfg.eta)
    assert cfg.fanout >= 2


@given(st.lists(st.fractions(min_value=0, max_value=50, max_denominator=40), max_size=12))
def test_scaled_weights_match_fraction_scaling(weights):
    # The scaled weights are the exact ints int(w * lcm of denominators).
    g = make_graph(len(weights) + 1, [(0, i + 1, w) for i, w in enumerate(weights)])
    scale = 1
    for w in weights:
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    assert _scaled_weights(g) == [int(w * scale) for w in weights]


# phi values as the b-matching reduction holds them: the int 0 it starts
# from, or exact non-negative rationals (small denominators make ties).
PHIS = st.one_of(
    st.just(0),
    st.fractions(min_value=0, max_value=20, max_denominator=6),
    st.fractions(min_value=0, max_denominator=10**9),
)
EPSILONS = st.one_of(
    st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(3, 2)]),
    st.fractions(min_value=Fraction(1, 10**12), max_value=10, max_denominator=10**12),
)


@given(PHIS, PHIS, EPSILONS, st.integers(0, 10**6), st.integers(-1, 1))
def test_integer_alive_test_equals_fraction_expression(pa, pb, eps, w, offset):
    heavy = _heavy_test(1 + eps)
    threshold = (1 + eps) * (pa + pb)
    # w itself, and the ints next to the threshold, where the test flips
    for weight in (w, max(0, math.floor(threshold) + offset)):
        assert heavy(weight, pa, pb) == (weight > threshold)


def _push_best_by_rescan(red: MatchingReduction, candidates, quota: int) -> list[int]:
    """The central pass as written in the paper: rescan every candidate
    for the alive one of largest (gain, -eid), in Fraction arithmetic."""
    out = []
    while len(out) < quota:
        alive = [rec for rec in candidates if red.alive(*rec)]
        if not alive:
            break
        best = max(alive, key=lambda rec: (red.gain(rec[1], rec[2], rec[3]), -rec[0]))
        red.push(*best)
        out.append(best[0])
    return out


@st.composite
def vertex_pushes(draw):
    """One vertex's candidates, with the reduction state they meet."""
    n = draw(st.integers(2, 9))
    v = draw(st.integers(0, n - 1))
    others = draw(st.lists(st.integers(0, n - 1).filter(lambda y: y != v), unique=True))
    eids = draw(st.lists(st.integers(0, 99), min_size=len(others), max_size=len(others), unique=True))
    candidates = [(eid, min(v, y), max(v, y), draw(st.integers(0, 40))) for eid, y in zip(eids, others)]
    caps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    phi = draw(st.lists(PHIS, min_size=n, max_size=n))
    pushed = draw(st.sets(st.sampled_from(eids))) if eids else set()
    return candidates, caps, phi, pushed, draw(EPSILONS), draw(st.integers(1, 5))


@given(vertex_pushes())
def test_one_ranking_per_vertex_equals_rescanning(case):
    # The integer alive test and one (gain, -eid) ranking per vertex push
    # the same edges, in the same order, to the same phi as the rescan.
    candidates, caps, phi, pushed, eps, quota = case
    reds = []
    for _ in range(2):
        red = MatchingReduction(len(caps), caps, eps)
        red.phi = list(phi)
        red.pushed = set(pushed)
        reds.append(red)
    fast = _push_best(reds[0], candidates, quota, _heavy_test(1 + eps))
    assert fast == _push_best_by_rescan(reds[1], candidates, quota)
    assert reds[0].phi == reds[1].phi and reds[0].stack == reds[1].stack
