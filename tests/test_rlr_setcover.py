import re
from fractions import Fraction
from random import Random

import pytest

from mpcgraph import rlr_setcover
from mpcgraph.engine import RetriesExhausted
from mpcgraph.instances import (
    generate_set_cover,
    make_graph,
    make_set_cover,
    validate,
    vertex_cover_encoding,
)
from mpcgraph.oracles import brute_force_min_cover, lr_set_cover_seq
from mpcgraph.rlr_setcover import approx_sc_f, vertex_cover_2approx


def test_p1_branch_matches_sequential():
    # instance fits entirely in eta => p = 1, one iteration, identical to
    # the sequential local ratio in ascending element order
    inst = make_set_cover(3, 3, [[0, 1], [1, 2], [0, 2]], [1, 1, 3])
    res = approx_sc_f(inst, mu="1/5", seed=3)
    assert res.iterations == 1
    assert res.value.set_ids == lr_set_cover_seq(inst).set_ids
    assert res.value.weight(inst) == 2  # exactly the sequential result


def test_three_set_instance_within_2opt():
    inst = make_set_cover(3, 3, [[0, 1], [1, 2], [0, 2]], [1, 1, 3])
    opt, _ = brute_force_min_cover(inst)
    for seed in range(6):
        res = approx_sc_f(inst, mu="1/5", seed=seed)
        assert res.value.weight(inst) <= 2 * opt


def test_f_opt_sweep_zero_tolerance():
    rng = Random(50)
    for _ in range(40):
        n, m = rng.randint(2, 10), rng.randint(1, 10)
        inst = generate_set_cover(n, m, rng.uniform(0.1, 0.7), (1, 9), seed=rng.randint(0, 10**6))
        opt, _ = brute_force_min_cover(inst)
        f = inst.frequency
        for seed in range(3):
            res = approx_sc_f(inst, mu="1/5", seed=seed)
            assert validate(res.value, inst).feasible
            assert res.value.weight(inst) <= f * opt


def test_replay_matches_sequential_execution():
    # the cover equals the zero-residual sets of a sequential run over the
    # concatenated per-iteration sampled element order
    rng = Random(51)
    for _ in range(15):
        inst = generate_set_cover(rng.randint(3, 12), rng.randint(4, 14), 0.3, (1, 9), seed=rng.randint(0, 10**6))
        res = approx_sc_f(inst, mu="1/5", seed=rng.randint(0, 99), eta=2)
        replay = lr_set_cover_seq(inst, res.extras["element_order"])
        assert replay.set_ids == res.value.set_ids


def test_sample_filtering_instrumented():
    """|U_{r+1}| < 2n/p whenever p < 1, over 50 seeds at n >= 64; a
    violation is tolerated only when the retry policy engaged."""
    inst = generate_set_cover(64, 512, 0.02, (1, 10), seed=99)
    for seed in range(50):
        res = approx_sc_f(inst, mu="1/5", seed=seed)
        u_series = res.extras["u_series"]
        p_series = res.extras["p_series"]
        retried = len(res.attempts) > 1
        for r, p in enumerate(p_series):
            if p < 1.0:
                bound = 2 * inst.n / p
                if not u_series[r + 1] < bound:
                    assert retried, (
                        f"seed {seed}: |U_{r + 1}|={u_series[r + 1]} >= {bound} without retry"
                    )


def test_u_series_monotone():
    inst = generate_set_cover(40, 300, 0.03, (1, 10), seed=5)
    res = approx_sc_f(inst, mu="1/5", seed=1)
    u = res.extras["u_series"]
    assert all(b <= a for a, b in zip(u, u[1:]))
    assert u[-1] == 0


def test_fail_factor_and_retries(monkeypatch):
    # a pathologically low fail factor forces the 6-eta style check to
    # fire every attempt
    monkeypatch.setattr(rlr_setcover, "FAIL_FACTOR", 1)
    inst = generate_set_cover(12, 80, 0.2, (1, 5), seed=1)
    with pytest.raises(RetriesExhausted) as err:
        approx_sc_f(inst, mu="1/5", seed=0, eta=1, retry_cap=2)
    assert len(err.value.attempts) == 3
    assert all(re.fullmatch(r"\|U'\|=\d+ > 2", a.failure) for a in err.value.attempts)


def test_config_budget_enforces_f_scaling():
    inst = generate_set_cover(30, 200, 0.1, (1, 5), seed=2)
    cfg = approx_sc_f(inst, mu="1/5", seed=0).cluster.config
    assert cfg.memory_budget_words >= inst.frequency * cfg.eta


# ------------------------------------------------------------- vertex cover


def test_vc_single_edge_weighted():
    g = make_graph(2, [(0, 1, 1)])
    res = vertex_cover_2approx(g, [1, 5], seed=1)
    assert res.value.set_ids == (0,)  # the cheap endpoint


def test_vc_star_and_triangle():
    star = make_graph(5, [(0, i, 1) for i in range(1, 5)])
    res = vertex_cover_2approx(star, seed=4)
    opt, _ = brute_force_min_cover(vertex_cover_encoding(star))
    assert opt == 1
    weight = len(res.value.set_ids)
    assert weight <= 2 * opt
    tri = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    for seed in range(5):
        res = vertex_cover_2approx(tri, seed=seed)
        assert len(res.value.set_ids) == 2  # OPT = 2, any run returns 2 vertices


def test_vc_edgeless():
    g = make_graph(3, [])
    res = vertex_cover_2approx(g, seed=2)
    assert res.value.set_ids == () and res.iterations == 0


def test_vc_2opt_sweep():
    rng = Random(52)
    for _ in range(25):
        n = rng.randint(2, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(1, min(len(pairs), 12))
        g = make_graph(n, [(u, v, 1) for u, v in rng.sample(pairs, m)])
        weights = [Fraction(rng.randint(1, 9)) for _ in range(n)]
        enc = vertex_cover_encoding(g, weights)
        opt, _ = brute_force_min_cover(enc)
        for seed in range(2):
            res = vertex_cover_2approx(g, weights, seed=seed)
            cover_weight = sum((weights[i] for i in res.value.set_ids), Fraction(0))
            assert validate(res.value, enc).feasible
            assert cover_weight <= 2 * opt


def test_star_encoding_through_generic_sc_f():
    # vertex-cover encoding of K_{1,4} run through the generic f-route
    star = make_graph(5, [(0, i, 1) for i in range(1, 5)])
    enc = vertex_cover_encoding(star)
    opt, _ = brute_force_min_cover(enc)
    assert opt == 1  # the centre alone
    for seed in range(4):
        res = approx_sc_f(enc, mu="1/5", seed=seed)
        assert res.value.weight(enc) <= 2 * opt


def test_empty_universe():
    inst = make_set_cover(2, 0, [[], []], [1, 1])
    res = approx_sc_f(inst, mu="1/5", seed=0)
    assert res.value.set_ids == () and res.iterations == 0


def test_vc_iteration_guard(monkeypatch):
    # A central round that never zeroes a vertex leaves every edge alive,
    # so the alive count never shrinks: the guard must stop the loop.
    import mpcgraph.rlr_setcover as rsc

    monkeypatch.setattr(rsc, "_central_round", lambda cluster, instance, tag, publish: ())
    path = make_graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(AssertionError, match="vertex-cover iteration guard"):
        vertex_cover_2approx(path, mu="1/5", seed=0)
