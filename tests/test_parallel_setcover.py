import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpcgraph.engine import Cluster
from mpcgraph.exactmath import alpha_classes, harmonic, pow_threshold, size_class
from mpcgraph.instances import generate_set_cover, make_set_cover, validate
from mpcgraph.oracles import brute_force_min_cover
from mpcgraph.parallel_setcover import approx_sc_lnDelta
from references import potential_phi
from test_setcover_pins import PINS, SEEDS, _instances


def test_single_set_instance():
    inst = make_set_cover(1, 3, [[0, 1, 2]], [5])
    res = approx_sc_lnDelta(inst, Fraction(1, 10), seed=1)
    assert res.value.set_ids == (0,)
    assert res.value.weight(inst) == 5
    assert res.extras["levels"] == 1


def test_four_set_instance_takes_big_set():
    inst = make_set_cover(4, 3, [[0, 1, 2], [0], [1], [2]], [1] + [Fraction(2, 5)] * 3)
    res = approx_sc_lnDelta(inst, Fraction(1, 10), seed=3)
    assert res.value.set_ids == (0,)
    assert res.value.weight(inst) == 1
    bound = (1 + Fraction(1, 10)) * harmonic(3)
    opt, _ = brute_force_min_cover(inst)
    assert res.value.weight(inst) <= bound * opt


def test_harmonic_bound_sweep():
    # 100 instances x 3 seeds, zero tolerance
    rng = Random(80)
    eps = Fraction(1, 10)
    for _ in range(100):
        n, m = rng.randint(2, 20), rng.randint(1, 12)
        inst = generate_set_cover(n, m, rng.uniform(0.15, 0.7), (1, 9), seed=rng.randint(0, 10**6))
        opt, _ = brute_force_min_cover(inst)
        bound = (1 + eps) * harmonic(inst.max_set_size)
        for seed in range(3):
            res = approx_sc_lnDelta(inst, eps, seed=seed)
            assert validate(res.value, inst).feasible
            assert res.value.weight(inst) <= bound * opt


def test_every_addition_is_eps_greedy():
    """Replaying the run: each added set clears L/(1+eps) at its addition
    moment, against the covered set right then."""
    rng = Random(81)
    eps = Fraction(1, 10)
    for _ in range(10):
        inst = generate_set_cover(rng.randint(3, 14), rng.randint(2, 12), 0.4, (1, 9), seed=rng.randint(0, 10**6))
        res = approx_sc_lnDelta(inst, eps, seed=rng.randint(0, 99))
        level0 = Fraction(res.extras["level_zero"])
        covered = set()
        for ordinal, _, added in res.extras["iteration_log"]:
            level = level0 / (1 + eps) ** ordinal
            for i in added:
                fresh = sum(1 for e in inst.sets[i] if e not in covered)
                assert Fraction(fresh) / inst.weights[i] >= level / (1 + eps)
                covered.update(inst.sets[i])
        assert len(covered) == inst.m


def test_potential_examples_and_recompute_oracle():
    inst = make_set_cover(4, 3, [[0, 1, 2], [0], [1], [2]], [1] + [Fraction(2, 5)] * 3)
    # C = [m] -> 0
    assert potential_phi(inst, {0, 1, 2}, Fraction(3), Fraction(1, 10)) == 0
    # C empty at L = max ratio: only the qualifying sets' sizes
    assert potential_phi(inst, set(), Fraction(3), Fraction(1, 10)) == 3
    # mid-run values match the machines' incremental tracking
    eps = Fraction(1, 10)
    rng = Random(82)
    for _ in range(8):
        inst = generate_set_cover(rng.randint(3, 10), rng.randint(2, 10), 0.4, (1, 9), seed=rng.randint(0, 10**6))
        res = approx_sc_lnDelta(inst, eps, seed=rng.randint(0, 99))
        level0 = Fraction(res.extras["level_zero"])
        covered = set()
        for ordinal, phi_tracked, added in res.extras["iteration_log"]:
            level = level0 / (1 + eps) ** ordinal
            assert potential_phi(inst, covered, level, eps) == phi_tracked
            for i in added:
                covered.update(inst.sets[i])


@pytest.fixture(scope="module")
def psc_instrumented_runs():
    inst = generate_set_cover(6000, 4096, 0.004, (1, 4), seed=21)
    runs = [approx_sc_lnDelta(inst, Fraction(1, 10), mu="1/5", seed=s) for s in range(20)]
    return inst, runs


def test_potential_monotone_zero_tolerance(psc_instrumented_runs):
    _, runs = psc_instrumented_runs
    for res in runs:
        for level in res.extras["phi_series"]:
            for a, b in zip(level, level[1:]):
                assert b <= a


def test_potential_geometric_decrease_instrumented(psc_instrumented_runs):
    """Phi_{k+1} <= Phi_k / m^(mu/8) for >= 90% of inner iterations,
    pooled across 20 seeds at m = 4096, mu = 1/5."""
    m = 4096
    good = total = 0
    for res in runs_of(psc_instrumented_runs):
        for level in res.extras["phi_series"]:
            for a, b in zip(level, level[1:]):
                total += 1
                # b <= a / m^(1/40)  <=>  b^40 * m <= a^40
                good += b**40 * m <= a**40
    assert total > 0
    assert good >= 0.9 * total, f"{good}/{total} geometric drops"


def runs_of(fixture_value):
    return fixture_value[1]


def test_inner_iteration_budget_instrumented(psc_instrumented_runs):
    """Observed per-level inner iterations within twice the
    18*ln(Phi_0)/(mu*ln m) budget in >= 90% of seeds."""
    inst, runs = psc_instrumented_runs
    m, mu = 4096, 0.2
    phi0_cap = inst.n * inst.m
    budget = 2 * math.ceil(18 * math.log(phi0_cap) / (mu * math.log(m)))
    good = sum(1 for res in runs if max(res.extras["inner_per_level"], default=0) <= budget)
    assert good >= 18, f"inner budget held in only {good}/20 seeds"


def _live_ratios(store) -> list[Fraction]:
    """size/w of each own set that still has uncovered elements."""
    uncov = store["uncov"].value
    return [Fraction(len(uncov[i])) / w for i, (w, _) in store["sets"].value.items() if uncov[i]]


@pytest.mark.parametrize("mu,eps", sorted(PINS))
def test_maxratio_bounds_every_live_ratio(mu, eps, monkeypatch):
    """After every psc[...] round, each machine's maxratio is at least the
    cost ratio of each of its sets with uncovered elements: the stats and
    sample steps skip a machine whose maxratio is below the cut.  A
    machine that counted a set in a stats round walked its sets, so there
    its maxratio is their exact maximum."""
    run_round = Cluster.run_round
    checked = {"rounds": 0, "walks": 0}

    def checked_round(cluster, step, label=""):
        record = run_round(cluster, step, label)
        if label.startswith("psc["):
            checked["rounds"] += 1
            for store in cluster.stores:
                live = _live_ratios(store)
                assert all(store["maxratio"] >= r for r in live), label
                if label.endswith(":stats") and any(store["stats"].value):
                    checked["walks"] += 1
                    assert store["maxratio"] == max(live), label
        return record

    monkeypatch.setattr(Cluster, "run_round", checked_round)
    for inst in _instances(sorted(PINS).index((mu, eps))):
        for seed in SEEDS:
            approx_sc_lnDelta(inst, Fraction(eps), mu=mu, seed=seed)
    assert checked["rounds"] > 0 and checked["walks"] > 0


def test_psc_config_scale_is_ground_set():
    inst = generate_set_cover(50, 16, 0.3, (1, 5), seed=1)
    cfg = approx_sc_lnDelta(inst, Fraction(1, 10), mu="1/5", seed=0).cluster.config
    assert cfg.n == 16  # scale parameter is m
    assert cfg.fanout >= 2


@given(
    st.integers(2, 10**6),
    st.sampled_from(["1/10", "1/5", "1/4", "1/3", "1/2", "2/3", "1", "3/2"]),
    st.data(),
)
def test_size_class_bisect_equals_linear_scan(m, mu, data):
    alpha, classes = alpha_classes(Fraction(mu), 8)
    class_lo = [pow_threshold(m, 1 - i * alpha) for i in range(classes + 2)]
    # Every class bound, its neighbours, and uncovered sizes drawn up to m.
    sizes = {s for lo in class_lo for s in (lo - 1, lo, lo + 1) if 1 <= s <= m}
    sizes.update(data.draw(st.lists(st.integers(1, m), max_size=20)))
    for size in sizes:
        linear = next(ci for ci in range(1, classes + 1) if size >= class_lo[ci])
        assert size_class(class_lo, classes, size) == linear
