"""Randomized local ratio f-approximation for weighted set cover.

Machines shard the ground set in its dual view (element j stores T_j and
an alive bit).  Each iteration samples alive elements with probability
p = min(1, 2*eta/|U_r|), ships the sample's T_j lists to the central
machine, runs the sequential local-ratio reduction there in ascending
element order, and broadcasts the newly zeroed sets so machines can drop
covered elements.  The alive count is aggregated and rebroadcast through
the same tree; all of those rounds are charged.
"""

from __future__ import annotations

import operator
from random import Random

from .engine import (
    BUDGET_FACTOR,
    Cluster,
    ClusterConfig,
    Payload,
    RunResult,
    central,
    cluster_config,
    derive_seed,
    gather,
    gather_concat,
    run_with_retries,
)
from .exactmath import below
from .instances import Cover, Graph, SetCoverInstance, validate, vertex_cover_encoding
from .oracles import CoverReduction

# A central round fails its iteration when its sample holds more than
# FAIL_FACTOR times the expected 2*eta elements.
FAIL_FACTOR = 3


def _cover_budget(f: int):
    """Memory budget of the dual-sharded cover engine: the f*n^(1+mu) space
    bound times BUDGET_FACTOR.  An empty instance (n = 0, so eta = 0) gets
    the budget of eta = 1, as it gets one machine."""

    def budget(cfg: ClusterConfig) -> int:
        return BUDGET_FACTOR * (f + 2) * max(1, cfg.eta)

    return budget


def approx_sc_f(instance: SetCoverInstance, **kw) -> RunResult:
    """f-approximate minimum weight set cover on the simulated cluster.

    The scale parameter is the set count n; elements are sharded eta per
    machine.  Fails an iteration (and retries the whole run) when the
    sample exceeds 2*FAIL_FACTOR*eta elements.  The returned cover
    equals the zero residual sets of a valid sequential local-ratio
    execution.
    """
    instance.check_coverable()
    cfg = cluster_config(instance.n, instance.m, _cover_budget(instance.frequency), **kw)
    return run_with_retries(cfg, lambda cluster: _sc_f_attempt(instance, cluster))


def _preload_elements(instance: SetCoverInstance, cluster: Cluster) -> None:
    """Shard the dual view (element j -> T_j, alive bit) over the machines;
    the central machine holds the residual weights and the cover.  A
    machine's table keys and alive set share one int object per element."""
    m_count = cluster.config.machine_count
    for mid in range(m_count):
        own = list(range(mid, instance.m, m_count))
        table = {j: instance.dual[j] for j in own}
        size = sum(1 + len(t) for t in table.values())
        cluster.preload(mid, "elems", Payload(table, size))
        cluster.preload(mid, "alive", Payload(frozenset(own), len(own)))
        cluster.preload(mid, "usize", instance.m)
    cluster.preload(0, "residual", Payload(tuple(instance.weights), instance.n))
    cluster.preload(0, "cover", Payload((), 0))


def _sample_round(cluster: Cluster, u_size: int, tag: str) -> float:
    """Every machine ships its alive elements' T_j lists, each sampled with
    p = min(1, 2*eta/|U_r|), to the central machine; returns p."""
    p = min(1.0, (2 * cluster.config.eta) / u_size)

    def sample_step(mid, store, inbox, rng):
        alive = store["alive"].value
        table = store["elems"].value
        if p >= 1.0:
            picked = sorted(alive)
        else:
            picked = sorted(j for j in alive if rng.random() < p)
        payload = [(j, table[j]) for j in picked]
        return store, ([(0, "sampled", payload)] if payload else [])

    cluster.run_round(sample_step, label=f"{tag}:sample")
    return p


def _central_round(cluster: Cluster, instance: SetCoverInstance, tag: str, publish) -> tuple:
    """Run the sampled elements through the sequential local-ratio reduction
    in ascending element order on the central machine.

    ``publish(newly)`` gives the extra store entries and the outbox that
    hand the newly zeroed sets on.  Returns the sampled element order.
    """
    fail_at = 2 * FAIL_FACTOR * cluster.config.eta

    @central
    def central_step(store, inbox):
        pairs = gather_concat(inbox, "sampled")
        pairs.sort()
        if len(pairs) > fail_at:
            return {**store, "failed": f"|U'|={len(pairs)} > {fail_at}"}, []
        red = CoverReduction(store["residual"].value)
        newly: list[int] = []
        for j, t in pairs:
            newly.extend(red.process_element(t))
        newly = sorted(set(newly))
        cover = store["cover"].value + tuple(newly)
        entries, out = publish(newly)
        return {
            **store,
            "residual": Payload(tuple(red.residual), instance.n),
            "cover": Payload(cover, len(cover)),
            **entries,
            "sampled_order": tuple(j for j, _ in pairs),
        }, out

    cluster.run_round(central_step, label=f"{tag}:central")
    if "failed" in cluster.stores[0]:
        cluster.fail(cluster.stores[0]["failed"])
    return cluster.stores[0]["sampled_order"]


def _final_cover(cluster: Cluster, instance: SetCoverInstance, what: str) -> Cover:
    cover = Cover(set_ids=tuple(sorted(cluster.stores[0]["cover"].value)))
    if not validate(cover, instance).feasible:
        raise AssertionError(f"terminated with uncovered {what}")
    return cover


def _sc_f_attempt(instance: SetCoverInstance, cluster: Cluster):
    _preload_elements(instance, cluster)
    u_size = instance.m
    iterations = 0
    u_series = [u_size]
    p_series: list[float] = []
    push_order: list[int] = []

    def drop_step(mid, store, inbox, rng):
        delta = store["c_new"].value
        alive = store["alive"].value
        table = store["elems"].value
        if delta:
            dset = set(delta)
            alive = frozenset(j for j in alive if dset.isdisjoint(table[j]))
        return {**store, "alive": Payload(alive, len(alive)), "usize": len(alive)}, []

    while u_size > 0:
        iterations += 1
        if iterations > 10_000:
            raise AssertionError("set-cover iteration guard tripped")
        tag = f"sc[{iterations}]"
        p_series.append(_sample_round(cluster, u_size, tag))
        push_order.extend(_central_round(cluster, instance, tag, lambda newly: ({"c_new": tuple(newly)}, [])))
        cluster.broadcast("c_new", cluster.stores[0]["c_new"], label=f"{tag}:bcast")
        cluster.run_round(drop_step, label=f"{tag}:drop")
        u_size = cluster.aggregate_and_broadcast("usize", operator.add, label=f"{tag}:count")
        u_series.append(u_size)

    extras = {
        "u_series": u_series,
        "p_series": p_series,
        "element_order": push_order,
    }
    return _final_cover(cluster, instance, "elements"), iterations, extras


def vertex_cover_2approx(graph: Graph, vertex_weights=None, **kw) -> RunResult:
    """2-approximate minimum weight vertex cover (the f = 2 special case).

    Identical sampling and central steps, but the cover is distributed the
    cheap way: the central machine sends each newly zeroed vertex-set a
    single bit and the vertex forwards it to its incident edges.
    """
    instance = vertex_cover_encoding(graph, vertex_weights)
    cfg = cluster_config(graph.n, graph.m, _cover_budget(2), **kw)
    return run_with_retries(cfg, lambda cluster: _vc_attempt(instance, cluster))


def _vc_attempt(instance: SetCoverInstance, cluster: Cluster):
    cfg = cluster.config
    m_count = cfg.machine_count
    place_rng = Random(derive_seed(cfg.seed, -1, 0))
    set_home = [below(place_rng.getrandbits, m_count) for _ in range(instance.n)]

    _preload_elements(instance, cluster)
    for mid in range(m_count):
        sets_here = {i: instance.sets[i] for i in range(instance.n) if set_home[i] == mid}
        cluster.preload(mid, "vsets", Payload(sets_here, sum(1 + len(s) for s in sets_here.values())))

    u_size = instance.m
    iterations = 0
    u_series = [u_size]
    element_order: list[int] = []

    def in_cover(newly):
        return {}, [(set_home[i], "in-cover", i) for i in newly]

    def forward_step(mid, store, inbox, rng):
        vsets = store["vsets"].value
        out = []
        for i in gather(inbox, "in-cover"):
            for e in vsets[i]:
                out.append((e % m_count, "covered", e))
        return store, out

    def drop_step(mid, store, inbox, rng):
        dropped = set(gather(inbox, "covered"))
        alive = store["alive"].value
        if dropped:
            alive = frozenset(j for j in alive if j not in dropped)
        return {**store, "alive": Payload(alive, len(alive)), "usize": len(alive)}, []

    while u_size > 0:
        iterations += 1
        if iterations > 10_000:
            raise AssertionError("vertex-cover iteration guard tripped")
        tag = f"vc[{iterations}]"
        _sample_round(cluster, u_size, tag)
        element_order.extend(_central_round(cluster, instance, tag, in_cover))
        cluster.run_round(forward_step, label=f"{tag}:forward")
        cluster.run_round(drop_step, label=f"{tag}:drop")
        u_size = cluster.aggregate_and_broadcast("usize", operator.add, label=f"{tag}:count")
        u_series.append(u_size)

    extras = {"u_series": u_series, "element_order": element_order}
    return _final_cover(cluster, instance, "edges"), iterations, extras
