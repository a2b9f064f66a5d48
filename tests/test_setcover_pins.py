"""Pinned outputs of the bucketed (1+eps)H_Delta set cover (sc-lnD).

The golden digests run sc-lnD at mu = 1/5 and eps = 1/10 only.  This
matrix pins mu in {1/10, 1/5, 1/3} against eps in {1/10, 1/2}, each on an
integer-weight and a fractional-weight instance with three seeds.  Each
cell is the SHA-256 of the repr of every run's iteration log, phi series,
level zero, cover and per-round engine counts, so any change to a
stratification, a sampled group, an addition or a charged word fails it.
The matrix takes the group check's resample path and both sampling
branches (q = 1 and q < 1); ``test_matrix_takes_every_branch`` shows it.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from random import Random

import pytest

from mpcgraph.exactmath import ipow_floor, pow_threshold
from mpcgraph.instances import generate_set_cover, make_set_cover
from mpcgraph.parallel_setcover import approx_sc_lnDelta

PINS = {
    ("1/10", "1/10"): "1005e749b523e03901fe0475647c299a05f261f56b32634ce3889e4dfdae8837",
    ("1/10", "1/2"): "02e5c0807412dbbda45e2cdfa24ea31b5185f67e5d373fca2671bbcc595b9bc6",
    ("1/5", "1/10"): "bb30644c58be524480370ebf6e2f135c6af83dc1e00e0c574d88c7689f281973",
    ("1/5", "1/2"): "50576400fb41e7aef06347a804594861f44d3151a94ecf700cb9d94648ba726e",
    ("1/3", "1/10"): "e1bc51c82e56121e06bf7d8c138625b97b50d91070f455e9829611fbb421bbe6",
    ("1/3", "1/2"): "83246f28189e0dc05a66904b158ce7520e79739e9f1a0c541af33dbd8193fed3",
}
SEEDS = (1, 2, 3)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _instances(cell: int):
    """An integer-weight instance and the same sets with fractional weights
    (denominators 1 to 4), both with sets sharded over several machines."""
    base = generate_set_cover(200, 160, 0.04, (1, 4), seed=cell)
    rng = Random(cell)
    weights = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(base.n)]
    return base, make_set_cover(base.n, base.m, base.sets, weights)


def _outputs(res) -> tuple:
    rounds = [
        (r.label, r.messages, sum(r.words_received), sum(r.words_sent), max(r.peak_words))
        for r in res.cluster.rounds
    ]
    attempts = [(a.seed, a.failure, a.total_rounds, a.peak_words) for a in res.attempts]
    extras = res.extras
    return (
        res.iterations,
        extras["iteration_log"],
        extras["phi_series"],
        extras["inner_per_level"],
        extras["level_zero"],
        res.value.set_ids,
        rounds,
        attempts,
    )


@pytest.fixture(scope="module")
def pinned_runs():
    runs = {}
    for cell, (mu, eps) in enumerate(sorted(PINS)):
        runs[mu, eps] = [
            (inst, approx_sc_lnDelta(inst, Fraction(eps), mu=mu, seed=seed))
            for inst in _instances(cell)
            for seed in SEEDS
        ]
    return runs


@pytest.mark.parametrize("mu,eps", sorted(PINS))
def test_sc_lnDelta_pinned(pinned_runs, mu, eps):
    runs = pinned_runs[mu, eps]
    assert min(res.cluster.config.machine_count for _, res in runs) > 1
    assert _digest([_outputs(res) for _, res in runs]) == PINS[mu, eps]


def _sampling_branches(inst, res, mu: Fraction, eps: Fraction) -> set:
    """The sampling branches ("q=1", "q<1") a run took, from each
    iteration's class sizes recomputed against the logged additions."""
    m = max(2, inst.m)
    alpha = mu / 8
    classes = -(-8 // mu)
    class_lo = [pow_threshold(m, 1 - i * alpha) for i in range(classes + 1)]
    quota = ipow_floor(m, mu / 2)
    level0 = Fraction(res.extras["level_zero"])
    covered: set[int] = set()
    branches = set()
    for ordinal, phi, added in res.extras["iteration_log"]:
        cut = level0 / (1 + eps) ** (ordinal + 1)
        counts = [0] * (classes + 1)
        mass = 0
        for elems, w in zip(inst.sets, inst.weights):
            size = sum(1 for e in elems if e not in covered)
            if size and Fraction(size) / w >= cut:
                counts[next(ci for ci in range(1, classes + 1) if size >= class_lo[ci])] += 1
                mass += size
        assert mass == phi
        branches.update("q=1" if c <= quota else "q<1" for c in counts if c)
        for i in added:
            covered.update(inst.sets[i])
    return branches


def test_matrix_takes_every_branch(pinned_runs):
    """Some run resamples (more inner iterations than central rounds), and
    the runs take both the q = 1 and the q < 1 sampling branch."""
    resampled = 0
    branches = set()
    for (mu, eps), runs in pinned_runs.items():
        for inst, res in runs:
            resampled += res.iterations > len(res.extras["iteration_log"])
            branches |= _sampling_branches(inst, res, Fraction(mu), Fraction(eps))
    assert resampled > 0
    assert branches == {"q=1", "q<1"}
