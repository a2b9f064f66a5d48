"""Bucketed (1+eps)H_Delta-approximation for weighted set cover.

Sets are sharded across machines (the m << n regime); the cost-ratio
threshold L sweeps down by factors of (1+eps).  Within a threshold level,
sets are stratified by uncovered size into 1/alpha classes (alpha = mu/8),
sampled into groups with probability min(1, m^(mu/2)/|class|), and the
central machine adds per group the first set that still covers at least
m^(1-(i+1)alpha)/2 new elements and still clears the L/(1+eps) cost ratio
(both conditions: every addition must remain an eps-greedy choice).
Oversized groups fail only that inner iteration, which is resampled.

Class sizes, the group-size check and the covered-set deltas all travel
the m^mu-ary broadcast/aggregation tree and are charged.

Accounting in proportion to live work:
- The per-machine ``stats`` vector (class sizes, then phi: classes + 2
  words) and the per-group ``gcounts`` dict (3 words per (class, group)
  entry) are handed to the engine as ``Payload``s with their sizes
  declared, and their folds return ``Payload``s, so the engine never
  recurses into them.
- Each machine's 1-word ``maxratio`` is an upper bound on the cost ratio
  size/w of every own set with uncovered elements.  Uncovered sizes only
  shrink, so a bound stays valid once set; every full stats walk makes
  it exact again.  A machine whose bound is below the cut L/(1+eps) has
  no set to count or sample, so its stats and sample steps return
  all-zero stats and empty samples at once, without a walk or an RNG
  draw, exactly what the walk would give.  Most threshold levels have
  no set clearing the cut on most machines.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .engine import (
    BUDGET_FACTOR,
    Cluster,
    ClusterConfig,
    Payload,
    RunResult,
    central,
    cluster_config,
    gather,
    run_with_retries,
)
from .exactmath import alpha_classes, binomial, exceeds_pow, ipow_ceil, ipow_floor, pow_threshold, sample, size_class
from .instances import Cover, SetCoverInstance, validate


def _set_words(instance: SetCoverInstance) -> int:
    return sum(1 + len(s) for s in instance.sets)


def _psc_budget(instance: SetCoverInstance):
    """Budget for set-sharded cover: the m^(1+mu) log n bound plus the
    resident set shards."""

    def budget(cfg: ClusterConfig) -> int:
        logn = max(1, math.ceil(math.log2(max(2, instance.n))))
        _, classes = alpha_classes(cfg.mu, 8)
        return (
            BUDGET_FACTOR * (logn * cfg.eta + (classes + 2) * cfg.fanout)
            + 8 * (_set_words(instance) // cfg.machine_count + 1)
            + 4 * instance.m
        )

    return budget


def potential_phi(instance: SetCoverInstance, covered, threshold: Fraction, epsilon) -> int:
    """Total uncovered mass of sets whose cost ratio still clears
    threshold/(1+eps); the bucket-progress potential.

    It recounts from scratch in plain ``Fraction`` arithmetic, apart from
    the machines' integer cross-multiplied tests, so that it stays an
    independent check of the phi the run tracks.
    """
    epsilon = Fraction(epsilon)
    cset = set(covered)
    cut = Fraction(threshold) / (1 + epsilon)
    total = 0
    for elems, w in zip(instance.sets, instance.weights):
        size = sum(1 for e in elems if e not in cset)
        if size and Fraction(size) / w >= cut:
            total += size
    return total


def approx_sc_lnDelta(instance: SetCoverInstance, epsilon, **kw) -> RunResult:
    """(1+eps) H_Delta-approximate minimum weight set cover.

    Sets are sharded, so the scale parameter is the ground set size m and
    the items sharded eta per machine are the sets' words.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    instance.check_coverable()
    cfg = cluster_config(max(2, instance.m), _set_words(instance), _psc_budget(instance), **kw)
    return run_with_retries(cfg, lambda cluster: _psc_attempt(instance, epsilon, cluster))


def _psc_attempt(instance: SetCoverInstance, epsilon: Fraction, cluster: Cluster):
    cfg = cluster.config
    m_count = cfg.machine_count
    m = max(2, instance.m)
    mu = cfg.mu
    half_mu = mu / 2
    alpha, classes = alpha_classes(mu, 8)
    class_lo = [pow_threshold(m, 1 - i * alpha) for i in range(classes + 2)]
    group_counts = [2 * ipow_ceil(m, (i + 1) * alpha) for i in range(classes + 2)]
    # Real-valued m^(mu/2): this is a sampling rate, only the q = 1 branch
    # needs the exact comparison.
    quota_real = float(m) ** float(half_mu)
    quota_exact = ipow_floor(m, half_mu)

    for mid in range(m_count):
        own = {
            i: (instance.weights[i], instance.sets[i])
            for i in range(mid, instance.n, m_count)
        }
        size = sum(2 + len(s) for _, s in own.values())
        cluster.preload(mid, "sets", Payload(own, size))
        uncov = {i: frozenset(s) for i, (_, s) in own.items()}
        cluster.preload(mid, "uncov", Payload(uncov, sum(1 + len(s) for s in uncov.values())))
        # Static local dual view: which own sets contain each element.
        members: dict[int, list] = {}
        for i, (_, elems) in own.items():
            for e in elems:
                members.setdefault(e, []).append(i)
        local_dual = {e: tuple(ids) for e, ids in members.items()}
        dual_size = sum(1 + len(t) for t in local_dual.values())
        cluster.preload(mid, "dual", Payload(local_dual, dual_size))
        cluster.preload(mid, "stats", Payload((0,) * (classes + 1), classes + 1))
    cluster.preload(0, "C", Payload(frozenset(), 0))
    cluster.preload(0, "solution", Payload((), 0))

    def ratio_step(mid, store, inbox, rng):
        best = Fraction(0)
        for (w, _), uncov in zip(store["sets"].value.values(), store["uncov"].value.values()):
            r = Fraction(len(uncov)) / w
            if r > best:
                best = r
        return {**store, "maxratio": best}, []

    cluster.run_round(ratio_step, label="psc:maxratio")
    level, _ = cluster.aggregate("maxratio", lambda a, b: max(a, b), label="psc:L0")
    level0 = level

    covered_total = 0
    chosen: list[int] = []
    inner_per_level: list[int] = []
    phi_series: list[list[int]] = []
    iteration_log: list[tuple] = []  # (level ordinal, phi at stats time, added ids)
    one_plus = 1 + epsilon
    iterations = 0
    level_ordinal = 0

    # What a machine with no set clearing the cut folds and samples.
    no_stats = Payload((0,) * (classes + 2), classes + 2)
    no_assign = Payload({}, 0)
    no_counts = Payload({}, 0)

    def classified(store, cut: Fraction):
        """(id, uncovered size, size class) of each own set whose cost ratio
        still clears the cut, in id order.  ``sets`` and ``uncov`` share
        their key order."""
        cut_n, cut_d = cut.numerator, cut.denominator
        for (i, (w, _)), uncov in zip(store["sets"].value.items(), store["uncov"].value.values()):
            size = len(uncov)
            # size/w >= cut, by integer cross-multiplication
            if size and size * cut_d * w.denominator >= cut_n * w.numerator:
                yield i, size, size_class(class_lo, classes, size)

    while covered_total < instance.m:
        cut = level / one_plus
        inner = 0
        phi_here: list[int] = []

        while True:
            # Stratify and count classes (charged: vector fold + rebroadcast).
            # A machine whose maxratio bound is below the cut skips its walk;
            # a walk makes the bound exact again.
            def stats_step(mid, store, inbox, rng, cut=cut):
                if store["maxratio"] < cut:
                    if store["stats"] is no_stats:
                        return store, []
                    return {**store, "stats": no_stats}, []
                counts = [0] * (classes + 2)
                phi = 0
                cut_n, cut_d = cut.numerator, cut.denominator
                best_n, best_d = 0, 1
                for (w, _), uncov in zip(store["sets"].value.values(), store["uncov"].value.values()):
                    size = len(uncov)
                    if not size:
                        continue
                    # size/w = r_n/r_d; comparisons by cross-multiplication.
                    r_n, r_d = size * w.denominator, w.numerator
                    if r_n * best_d > best_n * r_d:
                        best_n, best_d = r_n, r_d
                    if r_n * cut_d >= cut_n * r_d:
                        phi += size
                        counts[size_class(class_lo, classes, size) - 1] += 1
                counts[-1] = phi
                return {
                    **store,
                    "stats": Payload(tuple(counts), classes + 2),
                    "maxratio": Fraction(best_n, best_d),
                }, []

            def add_stats(a, b):
                if b is no_stats:
                    return a
                if a is no_stats:
                    return b
                return Payload(tuple(map(operator.add, a.value, b.value)), classes + 2)

            cluster.run_round(stats_step, label=f"psc[{iterations}]:stats")
            stats, _ = cluster.aggregate_and_broadcast("stats", add_stats, label=f"psc[{iterations}]:sizes")
            stats = stats.value
            class_sizes = stats[:-1]
            phi_here.append(stats[-1])
            if not any(class_sizes):
                break
            inner += 1
            iterations += 1

            # Resample until every checked group is small enough.
            while True:
                def sample_step(mid, store, inbox, rng, class_sizes=class_sizes, cut=cut):
                    if store["maxratio"] < cut:
                        return {**store, "assign": no_assign, "gcounts": no_counts}, []
                    # Per sampled set: the class and the groups it joined.
                    assign: dict[int, tuple[int, tuple]] = {}
                    counts: dict[tuple, int] = {}
                    for i, _, ci in classified(store, cut):
                        total_in_class = class_sizes[ci - 1]
                        if total_in_class <= quota_exact:
                            # q = 1: the whole class goes into every group.
                            assign[i] = (ci, (-1,))
                            continue
                        q = min(1.0, quota_real / total_in_class)
                        joins = binomial(rng, group_counts[ci], q)
                        gids = tuple(sorted(sample(rng, range(group_counts[ci]), joins)))
                        if gids:
                            assign[i] = (ci, gids)
                            for j in gids:
                                counts[(ci, j)] = counts.get((ci, j), 0) + 1
                    size = sum(2 + len(g) for _, g in assign.values())
                    return {
                        **store,
                        "assign": Payload(assign, size),
                        "gcounts": Payload(counts, 3 * len(counts)),
                    }, []

                cluster.run_round(sample_step, label=f"psc[{iterations}]:sample")

                def merge_counts(a, b):
                    # Copy the larger count dict, fold the smaller into it.
                    if len(a.value) < len(b.value):
                        a, b = b, a
                    if not b.value:
                        return a
                    out = dict(a.value)
                    for gid, c in b.value.items():
                        out[gid] = out.get(gid, 0) + c
                    return Payload(out, 3 * len(out))

                gcounts, _ = cluster.aggregate("gcounts", merge_counts, label=f"psc[{iterations}]:gcheck")
                # c > 4*m^(mu/2) is monotone in c: test the largest group.
                biggest = max(gcounts.value.values(), default=0)
                oversized = exceeds_pow(biggest, 4, m, half_mu)
                cluster.broadcast("verdict", not oversized, label=f"psc[{iterations}]:verdict")
                if not oversized:
                    break
                # Alg. 3's k++/continue: same stratification, fresh sample.
                inner += 1
                iterations += 1

            def ship_step(mid, store, inbox, rng):
                uncov = store["uncov"].value
                own = store["sets"].value
                rows = [
                    (i, own[i][0], tuple(sorted(uncov[i])), ci, gids)
                    for i, (ci, gids) in sorted(store["assign"].value.items())
                ]
                store = {k: v for k, v in store.items() if k not in ("assign", "gcounts")}
                return store, ([(0, "grp", rows)] if rows else [])

            cluster.run_round(ship_step, label=f"psc[{iterations}]:ship")

            @central
            def central_step(store, inbox, cut=cut):
                cut_n, cut_d = cut.numerator, cut.denominator
                # Rows in id order, so each group lists its members by id.
                rows = sorted((row for part in gather(inbox, "grp") for row in part), key=operator.itemgetter(0))
                groups: dict[tuple, list] = {}
                for i, w, elems, ci, gids in rows:
                    # len/w >= cut iff len * lhs >= rhs.
                    member = (i, cut_d * w.denominator, cut_n * w.numerator, elems)
                    for j in gids:
                        groups.setdefault((ci, j), []).append(member)
                cset = set(store["C"].value)
                added: list[int] = []
                # A set tried once never qualifies again in this step: its
                # fresh count only shrinks, and an added set has none left.
                tried: set[int] = set()

                def try_group(members, thr):
                    for i, lhs, rhs, elems in members:
                        if i in tried:
                            continue
                        tried.add(i)
                        fresh = [e for e in elems if e not in cset]
                        # thr >= 1, so fresh is non-empty; then len/w >= cut
                        # by integer cross-multiplication.
                        size = len(fresh)
                        if 2 * size >= thr and size * lhs >= rhs:
                            added.append(i)
                            cset.update(fresh)
                            return True
                    return False

                for gid in sorted(groups):
                    ci, j = gid
                    # Addition threshold m^(1-(ci+1)alpha): the next class's floor.
                    thr = class_lo[ci + 1]
                    members = groups[gid]
                    if j >= 0:
                        try_group(members, thr)
                    else:
                        # q = 1: every group of this class is this same copy.
                        for _ in range(group_counts[ci]):
                            if not try_group(members, thr):
                                break
                sol = store["solution"].value + tuple(added)
                return {
                    **store,
                    "C": Payload(frozenset(cset), len(cset)),
                    "solution": Payload(sol, len(sol)),
                    "added": tuple(added),
                }, []

            cluster.run_round(central_step, label=f"psc[{iterations}]:central")
            hub = cluster.stores[0]
            added = hub["added"]
            chosen.extend(added)
            covered_total = len(hub["C"].value)
            iteration_log.append((level_ordinal, phi_here[-1], added))

            new_elems = tuple(sorted(
                e for i in added for e in instance.sets[i]
            ))
            cluster.broadcast("cdelta", new_elems, label=f"psc[{iterations}]:cdelta")

            def update_step(mid, store, inbox, rng):
                delta = store["cdelta"].value
                if not delta:
                    return store, []
                dset = set(delta)
                dual = store["dual"].value
                touched = {i for e in dset for i in dual.get(e, ())}
                if not touched:
                    return store, []
                old = store["uncov"]
                uncov = dict(old.value)
                removed = 0
                for i in touched:
                    fresh = uncov[i] - dset
                    removed += len(uncov[i]) - len(fresh)
                    uncov[i] = fresh
                return {**store, "uncov": Payload(uncov, old.word_size - removed)}, []

            cluster.run_round(update_step, label=f"psc[{iterations}]:update")

        inner_per_level.append(inner)
        phi_series.append(phi_here)
        if covered_total >= instance.m:
            break
        level = level / one_plus
        level_ordinal += 1
        if level_ordinal > 100_000:
            raise AssertionError("threshold-level guard tripped")

    cover = Cover(set_ids=tuple(sorted(set(chosen))))
    if not validate(cover, instance).feasible:
        raise AssertionError("bucketed cover terminated uncovered")
    extras = {
        "inner_per_level": inner_per_level,
        "phi_series": phi_series,
        "iteration_log": iteration_log,
        "level_zero": f"{level0.numerator}/{level0.denominator}",
        "levels": len(inner_per_level),
    }
    return cover, iterations, extras

