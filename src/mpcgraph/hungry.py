"""Hungry-greedy maximal independent set and maximal clique.

Vertices are sharded with their adjacency lists; machines track each own
vertex's alive-neighbour set (so its alive degree), sample heavy vertices
into groups, and ship the winners' alive-neighbour lists to the central
machine, which adds a vertex per group when its degree still clears the
phase threshold.  Dead-vertex deltas flow back down the broadcast tree and
neighbour counters are repaired with a charged notify round plus a charged
apply round.

Group sampling draws the s smallest of i.i.d. uniform keys per group via
order statistics, which is exactly uniform-without-replacement within a
group and independent across groups.

The maximal clique variant runs the same logic against the lazily
materialized complement: machines keep the global active list (maintained
through the charged delta broadcasts, realizing the relabeling scheme) and
derive complement degrees and complement neighbour label lists on demand.
The complement is never materialized in full.
"""

from __future__ import annotations

from .engine import (
    BUDGET_FACTOR,
    Cluster,
    ClusterConfig,
    Payload,
    RunResult,
    central,
    cluster_config,
    gather,
    gather_concat,
    run_with_retries,
)
from .exactmath import alpha_classes, ipow_ceil, ipow_floor, pow_threshold, size_class
from .instances import Graph


def _order_stat_sample(rng, members: list, s: int) -> list:
    """(key, vertex) pairs for the s smallest of len(members) iid
    U(0,1) keys, owners uniform without replacement."""
    t = len(members)
    count = min(s, t)
    if count == 0:
        return []
    keys = []
    prev = 0.0
    for i in range(count):
        prev = 1.0 - (1.0 - prev) * (1.0 - rng.random()) ** (1.0 / (t - i))
        keys.append(prev)
    owners = rng.sample(members, count)
    return list(zip(keys, owners))


def _candidates(rng, members: list, gids, s_size: int, nbrs_of) -> list:
    """Messages to the central machine: for each group id, s_size members
    sampled by order statistics, as (key, vertex, nbrs_of(vertex))."""
    out = []
    for gid in gids:
        cands = [(key, v, nbrs_of(v)) for key, v in _order_stat_sample(rng, members, s_size)]
        if cands:
            out.append((0, "cand", (gid, cands)))
    return out


def _hungry_budget(graph: Graph, alpha_den: int):
    """Budget for vertex-sharded hungry-greedy runs with phase exponent
    alpha = mu/alpha_den."""

    def budget(cfg: ClusterConfig) -> int:
        _, classes = alpha_classes(cfg.mu, alpha_den)
        resident = 6 * ((graph.n + 2 * graph.m) // cfg.machine_count + 1)
        return BUDGET_FACTOR * (classes + 2) * cfg.eta + resident + 4 * graph.n

    return budget


def _preload_vertex_shards(graph: Graph, cluster: Cluster) -> None:
    m_count = cluster.config.machine_count
    for mid in range(m_count):
        own = {v: graph.neighbours(v) for v in range(mid, graph.n, m_count)}
        size = sum(1 + len(t) for t in own.values())
        cluster.preload(mid, "adj", Payload(own, size))
        anbrs = {v: frozenset(t) for v, t in own.items()}
        cluster.preload(mid, "anbrs", Payload(anbrs, size))
        alive = frozenset(own)
        cluster.preload(mid, "alive", Payload(alive, len(alive)))
        cluster.preload(mid, "vh", 0)


def _greedy_scan(groups, dead: set) -> tuple[tuple, tuple]:
    """Scan each group's candidates ``(v, neighbours)`` in order and add the
    first v that is not dead and keeps at least thr neighbours that are not
    dead; v and those neighbours die.  ``groups`` yields ``(thr,
    candidates)``.  Returns the added vertices and the newly dead ones,
    sorted."""
    dead_now = set(dead)
    added: list[int] = []
    newly_dead: list[int] = []
    for thr, cands in groups:
        for v, nbrs in cands:
            if v in dead_now:
                continue
            alive_nbrs = [u for u in nbrs if u not in dead_now]
            if len(alive_nbrs) >= thr:
                added.append(v)
                newly_dead.append(v)
                newly_dead.extend(alive_nbrs)
                dead_now.add(v)
                dead_now.update(alive_nbrs)
                break
    return tuple(added), tuple(sorted(set(newly_dead)))


def _scan_round(cluster: Cluster, key: str, groups_of, chosen: list, dead: set, label: str) -> tuple:
    """The central round that runs ``_greedy_scan`` over ``groups_of(inbox)``
    and appends the added vertices to store[key].  The driver's ``chosen``
    and ``dead`` follow; returns the newly dead vertices."""

    @central
    def scan_step(store, inbox):
        added, newly_dead = _greedy_scan(groups_of(inbox), dead)
        members = store[key].value + added
        return {
            **store,
            key: Payload(members, len(members)),
            "added": added,
            "newly_dead": newly_dead,
        }, []

    cluster.run_round(scan_step, label=label)
    chosen.extend(cluster.stores[0]["added"])
    dead.update(cluster.stores[0]["newly_dead"])
    return cluster.stores[0]["newly_dead"]


def _sampled_groups(inbox, s_size: int, thr_of):
    """The sampled groups in group order, each as its threshold
    ``thr_of(group id)`` and its s_size smallest-key candidates."""
    groups: dict = {}
    for gid, cands in gather(inbox, "cand"):
        groups.setdefault(gid, []).extend(cands)
    for gid in sorted(groups):
        cands = sorted(groups[gid], key=lambda t: (t[0], t[1]))[:s_size]
        yield thr_of(gid), [(v, nbrs) for _, v, nbrs in cands]


def _pulled_groups(inbox):
    """Every pulled vertex as a group of its own, threshold 0, in id order:
    a lowest-id-first greedy pass."""
    return ((0, (cand,)) for cand in sorted(gather_concat(inbox, "pull")))


def _final_sweep(cluster: Cluster, key: str, left_of, tag: str) -> tuple:
    """All still-alive vertices have degree zero; they all join store[key].
    ``left_of(store)`` lists a machine's alive vertices with their degrees.
    Returns the vertices added."""

    def sweep_step(mid, store, inbox, rng):
        left = left_of(store)
        return store, ([(0, "sweep", left)] if left else [])

    cluster.run_round(sweep_step, label=f"{tag}:sweep-ship")

    @central
    def sweep_central(store, inbox):
        left = gather_concat(inbox, "sweep")
        for v, deg in left:
            assert deg == 0, f"final sweep saw alive vertex {v} with degree {deg}"
        members = store[key].value + tuple(v for v, _ in sorted(left))
        return {**store, key: Payload(members, len(members)), "added": tuple(v for v, _ in left)}, []

    cluster.run_round(sweep_central, label=f"{tag}:sweep")
    return cluster.stores[0]["added"]


def _dead_update_rounds(cluster: Cluster, delta: tuple, thr: int, tag: str) -> None:
    """Broadcast the newly dead set, notify their alive neighbours, apply
    the degree decrements and recount the heavy set at threshold thr."""
    m_count = cluster.config.machine_count
    cluster.broadcast("dead_delta", delta, label=f"{tag}:dead")

    def notify_step(mid, store, inbox, rng):
        dd = store["dead_delta"].value
        alive = store["alive"].value
        anbrs = store["anbrs"].value
        out = []
        local_dead = [w for w in dd if w in alive]
        for w in local_dead:
            for u in anbrs[w]:
                out.append((u % m_count, "deadnbr", (u, w)))
        if local_dead:
            alive = alive - frozenset(local_dead)
            anbrs = {v: s for v, s in anbrs.items() if v in alive}
            size = sum(1 + len(s) for s in anbrs.values())
            store = {
                **store,
                "alive": Payload(alive, len(alive)),
                "anbrs": Payload(anbrs, size),
            }
        return store, out

    cluster.run_round(notify_step, label=f"{tag}:notify")

    def apply_step(mid, store, inbox, rng, thr=thr):
        alive = store["alive"].value
        anbrs = store["anbrs"].value
        hits: dict[int, set] = {}
        for u, w in gather(inbox, "deadnbr"):
            if u in alive:
                hits.setdefault(u, set()).add(w)
        if hits:
            anbrs = dict(anbrs)
            for u, gone in hits.items():
                anbrs[u] = anbrs[u] - gone
            size = sum(1 + len(s) for s in anbrs.values())
            store = {**store, "anbrs": Payload(anbrs, size)}
        vh = sum(1 for v in alive if len(anbrs[v]) >= thr)
        return {**store, "vh": vh}, []

    cluster.run_round(apply_step, label=f"{tag}:apply")


def _recount_round(cluster: Cluster, thr: int, tag: str) -> None:
    def recount_step(mid, store, inbox, rng, thr=thr):
        alive = store["alive"].value
        anbrs = store["anbrs"].value
        vh = sum(1 for v in alive if len(anbrs[v]) >= thr)
        return {**store, "vh": vh}, []

    cluster.run_round(recount_step, label=f"{tag}:recount")


def _mis_left(store) -> tuple:
    anbrs = store["anbrs"].value
    return tuple((v, len(anbrs[v])) for v in sorted(store["alive"].value))


def mis_simple(graph: Graph, **kw) -> RunResult:
    """Maximal independent set by phased heavy-vertex sampling (the simple
    O(1/mu^2)-round variant, phase exponent alpha = mu/2)."""
    cfg = cluster_config(max(2, graph.n), graph.m, _hungry_budget(graph, 2), **kw)
    return run_with_retries(cfg, lambda cluster: _mis_simple_attempt(graph, cluster))


def _mis_simple_attempt(graph: Graph, cluster: Cluster):
    cfg = cluster.config
    n = max(2, graph.n)
    mu = cfg.mu
    alpha, phases = alpha_classes(mu, 2)
    s_size = ipow_ceil(n, mu / 2)

    _preload_vertex_shards(graph, cluster)
    cluster.preload(0, "I", Payload((), 0))

    independent: list[int] = []
    dead: set[int] = set()
    passes = 0
    vh_series: list[tuple[int, int, int]] = []

    for phase in range(1, phases + 1):
        thr = pow_threshold(n, 1 - phase * alpha)
        groups = ipow_ceil(n, phase * alpha)
        cluster.broadcast("phase", phase, label=f"mis[{phase}]:phase")
        _recount_round(cluster, thr, f"mis[{phase}]")
        vh, _ = cluster.aggregate("vh", lambda a, b: a + b, label=f"mis[{phase}]:vh")

        while vh >= groups:
            passes += 1
            vh_before = vh

            def cand_step(mid, store, inbox, rng, thr=thr, groups=groups):
                alive = store["alive"].value
                anbrs = store["anbrs"].value
                heavy = sorted(v for v in alive if len(anbrs[v]) >= thr)
                return store, _candidates(rng, heavy, range(groups), s_size, lambda v: tuple(sorted(anbrs[v])))

            cluster.run_round(cand_step, label=f"mis[{phase}]:cand")

            def groups_of(inbox, thr=thr):
                return _sampled_groups(inbox, s_size, lambda j: thr)

            newly = _scan_round(cluster, "I", groups_of, independent, dead, f"mis[{phase}]:scan")
            _dead_update_rounds(cluster, newly, thr, f"mis[{phase}]")
            vh, _ = cluster.aggregate("vh", lambda a, b: a + b, label=f"mis[{phase}]:vh")
            vh_series.append((phase, vh_before, vh))

        _phase_end_pull(cluster, dead, independent, thr, f"mis[{phase}]")
        _recount_round(cluster, thr, f"mis[{phase}]:post")
        vh, _ = cluster.aggregate("vh", lambda a, b: a + b, label=f"mis[{phase}]:vh2")
        assert vh == 0, "phase-end MIS left a heavy vertex alive"

    independent.extend(_final_sweep(cluster, "I", _mis_left, "mis"))
    extras = {"vh_series": vh_series, "passes": passes}
    return tuple(sorted(independent)), passes, extras


def _phase_end_pull(cluster, dead, independent, thr, tag) -> None:
    """Pull the (small) heavy set's alive subgraph to the central machine
    and extend I by a lowest-id-first greedy MIS on it."""

    def pull_step(mid, store, inbox, rng, thr=thr):
        alive = store["alive"].value
        anbrs = store["anbrs"].value
        heavy = [(v, tuple(sorted(anbrs[v]))) for v in sorted(alive) if len(anbrs[v]) >= thr]
        return store, ([(0, "pull", heavy)] if heavy else [])

    cluster.run_round(pull_step, label=f"{tag}:pull")
    newly = _scan_round(cluster, "I", _pulled_groups, independent, dead, f"{tag}:phase-mis")
    if newly:
        _dead_update_rounds(cluster, newly, thr, f"{tag}:phase-upd")


def mis_fast(graph: Graph, **kw) -> RunResult:
    """Maximal independent set with degree-class stratification (the
    O(c/mu)-round variant, alpha = mu/8)."""
    cfg = cluster_config(max(2, graph.n), graph.m, _hungry_budget(graph, 8), **kw)
    return run_with_retries(cfg, lambda cluster: _mis_fast_attempt(graph, cluster))


def _mis_fast_attempt(graph: Graph, cluster: Cluster):
    cfg = cluster.config
    n = max(2, graph.n)
    mu = cfg.mu
    alpha, classes = alpha_classes(mu, 8)
    s_size = ipow_ceil(n, mu / 2)
    edge_floor = ipow_floor(n, 1 + mu)
    class_lo = [pow_threshold(n, 1 - i * alpha) for i in range(classes + 2)]
    group_counts = [ipow_ceil(n, (i + 1) * alpha) for i in range(classes + 2)]

    _preload_vertex_shards(graph, cluster)
    cluster.preload(0, "I", Payload((), 0))

    independent: list[int] = []
    dead: set[int] = set()

    # Initially isolated vertices join I outright.
    def iso_step(mid, store, inbox, rng):
        isolated = tuple(v for v in sorted(store["alive"].value) if not store["anbrs"].value[v])
        return store, ([(0, "iso", isolated)] if isolated else [])

    cluster.run_round(iso_step, label="mis2:iso-ship")

    @central
    def iso_central(store, inbox):
        iso = gather_concat(inbox, "iso")
        iset = store["I"].value + tuple(sorted(iso))
        return {**store, "I": Payload(iset, len(iset)), "added": tuple(sorted(iso))}, []

    cluster.run_round(iso_central, label="mis2:iso")
    iso_added = cluster.stores[0]["added"]
    independent.extend(iso_added)
    dead.update(iso_added)
    if iso_added:
        _dead_update_rounds(cluster, tuple(iso_added), 1, "mis2:iso-upd")

    def dsum_round():
        def dsum_step(mid, store, inbox, rng):
            alive = store["alive"].value
            anbrs = store["anbrs"].value
            return {**store, "dsum": sum(len(anbrs[v]) for v in alive)}, []

        cluster.run_round(dsum_step, label="mis2:dsum")
        total, _ = cluster.aggregate("dsum", lambda a, b: a + b, label="mis2:edges")
        return total // 2

    def cand_step(mid, store, inbox, rng):
        alive = store["alive"].value
        anbrs = store["anbrs"].value
        by_class: dict[int, list] = {}
        for v in sorted(alive):
            d = len(anbrs[v])
            if d:
                by_class.setdefault(size_class(class_lo, classes, d), []).append(v)
        out = []
        for i, members in sorted(by_class.items()):
            gids = [(i, j) for j in range(group_counts[i])]
            out.extend(_candidates(rng, members, gids, s_size, lambda v: tuple(sorted(anbrs[v]))))
        return store, out

    def groups_of(inbox):
        # Class i adds a vertex that keeps degree n^(1-(i+1)alpha).
        return _sampled_groups(inbox, s_size, lambda gid: class_lo[gid[0] + 1])

    e_k = dsum_round()
    e_series = [e_k]
    iterations = 0

    while e_k >= edge_floor:
        iterations += 1
        cluster.run_round(cand_step, label=f"mis2[{iterations}]:cand")
        newly = _scan_round(cluster, "I", groups_of, independent, dead, f"mis2[{iterations}]:scan")
        _dead_update_rounds(cluster, newly, 1, f"mis2[{iterations}]")
        e_k = dsum_round()
        e_series.append(e_k)

    # Finale: the alive subgraph has < n^(1+mu) edges; greedy MIS centrally.
    _phase_end_pull(cluster, dead, independent, 1, "mis2:finale")
    independent.extend(_final_sweep(cluster, "I", _mis_left, "mis2"))
    extras = {"e_series": e_series}
    return tuple(sorted(independent)), iterations, extras


# ---------------------------------------------------------------------------
# Maximal clique via the complement relabeling scheme


def maximal_clique(graph: Graph, **kw) -> RunResult:
    """Maximal clique: the heavy-sampling MIS run on the lazily derived
    complement graph, using label lists against the global active set."""
    cfg = cluster_config(max(2, graph.n), graph.m, _hungry_budget(graph, 2), **kw)
    return run_with_retries(cfg, lambda cluster: _clique_attempt(graph, cluster))


def _comp_degree(own_adj, actives_set, v) -> int:
    return len(actives_set) - 1 - len(own_adj[v] & actives_set)


def _comp_labels(own_adj, actives_tuple, v) -> tuple:
    """v's complement neighbours as 1-based labels into the active list."""
    nbrs = own_adj[v]
    return tuple(lab + 1 for lab, u in enumerate(actives_tuple) if u != v and u not in nbrs)


def _comp_heavy(store, thr: int) -> list:
    """This machine's active vertices of complement degree at least thr."""
    adj = store["adj"].value
    aset = set(store["actives"].value)
    return [v for v in sorted(adj) if v in aset and _comp_degree(adj, aset, v) >= thr]


def _clique_scan_round(cluster: Cluster, n: int, groups_of, clique: list, dead: set, label: str) -> tuple:
    """The greedy scan on the complement: candidate label lists are read
    against the active list, which is every vertex not yet dead."""
    snapshot = tuple(v for v in range(n) if v not in dead)

    def comp_groups(inbox):
        for thr, cands in groups_of(inbox):
            yield thr, [(v, (snapshot[lab - 1] for lab in labels)) for v, labels in cands]

    return _scan_round(cluster, "K", comp_groups, clique, dead, label)


def _clique_attempt(graph: Graph, cluster: Cluster):
    cfg = cluster.config
    n = max(2, graph.n)
    mu = cfg.mu
    alpha, phases = alpha_classes(mu, 2)
    s_size = ipow_ceil(n, mu / 2)
    m_count = cfg.machine_count

    all_active = tuple(range(graph.n))
    for mid in range(m_count):
        own = {v: frozenset(graph.neighbours(v)) for v in range(mid, graph.n, m_count)}
        size = sum(1 + len(t) for t in own.values())
        cluster.preload(mid, "adj", Payload(own, size))
        cluster.preload(mid, "actives", Payload(all_active, len(all_active)))
        cluster.preload(mid, "vh", 0)
    cluster.preload(0, "K", Payload((), 0))

    clique: list[int] = []
    dead: set[int] = set()

    def dead_rounds(delta: tuple, thr: int, tag: str):
        cluster.broadcast("dead_delta", delta, label=f"{tag}:dead")

        def apply_step(mid, store, inbox, rng, thr=thr):
            dd = store["dead_delta"].value
            actives_t = store["actives"].value
            if dd:
                gone = set(dd)
                actives_t = tuple(v for v in actives_t if v not in gone)
            aset = set(actives_t)
            adj = store["adj"].value
            vh = sum(
                1
                for v in adj
                if v in aset and _comp_degree(adj, aset, v) >= thr
            )
            return {
                **store,
                "actives": Payload(actives_t, len(actives_t)),
                "vh": vh,
            }, []

        cluster.run_round(apply_step, label=f"{tag}:apply")

    passes = 0
    for phase in range(1, phases + 1):
        thr = pow_threshold(n, 1 - phase * alpha)
        cluster.broadcast("phase", phase, label=f"clique[{phase}]:phase")
        dead_rounds((), thr, f"clique[{phase}]:recount")
        groups = ipow_ceil(n, phase * alpha)
        vh, _ = cluster.aggregate("vh", lambda a, b: a + b, label=f"clique[{phase}]:vh")

        while vh >= groups:
            passes += 1

            def cand_step(mid, store, inbox, rng, thr=thr, groups=groups):
                adj = store["adj"].value
                actives_t = store["actives"].value
                heavy = _comp_heavy(store, thr)
                return store, _candidates(rng, heavy, range(groups), s_size, lambda v: _comp_labels(adj, actives_t, v))

            cluster.run_round(cand_step, label=f"clique[{phase}]:cand")

            def groups_of(inbox, thr=thr):
                return _sampled_groups(inbox, s_size, lambda j: thr)

            newly = _clique_scan_round(cluster, graph.n, groups_of, clique, dead, f"clique[{phase}]:scan")
            dead_rounds(newly, thr, f"clique[{phase}]")
            vh, _ = cluster.aggregate("vh", lambda a, b: a + b, label=f"clique[{phase}]:vh")

        # Phase end: pull the heavy complement subgraph, greedy complement-MIS.
        def pull_step(mid, store, inbox, rng, thr=thr):
            adj = store["adj"].value
            actives_t = store["actives"].value
            heavy = [(v, _comp_labels(adj, actives_t, v)) for v in _comp_heavy(store, thr)]
            return store, ([(0, "pull", heavy)] if heavy else [])

        cluster.run_round(pull_step, label=f"clique[{phase}]:pull")
        newly = _clique_scan_round(cluster, graph.n, _pulled_groups, clique, dead, f"clique[{phase}]:phase-mis")
        if newly:
            dead_rounds(newly, thr, f"clique[{phase}]:post")

    # Final sweep: remaining actives are pairwise adjacent in G; all join K.
    def clique_left(store) -> tuple:
        adj = store["adj"].value
        aset = set(store["actives"].value)
        return tuple((v, _comp_degree(adj, aset, v)) for v in sorted(adj) if v in aset)

    clique.extend(_final_sweep(cluster, "K", clique_left, "clique"))
    extras = {"passes": passes}
    return tuple(sorted(clique)), passes, extras
