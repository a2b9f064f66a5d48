"""Hungry-greedy maximal independent set and maximal clique.

Vertices are sharded with their adjacency lists; machines sample heavy
vertices into groups and ship the winners' neighbour lists to the central
machine, which adds a vertex per group when its degree still clears the
phase threshold.  Dead-vertex deltas flow back down the broadcast tree.
Every vertex a machine ships is alive, so the central scan reads only its
inbox and machine 0's store, and the solution lives only in that store.

Group sampling draws the s smallest of i.i.d. uniform keys per group via
order statistics, which is exactly uniform-without-replacement within a
group and independent across groups.  A vertex sampled into many groups
ships the same neighbour (or label) list in each: a view's ``nbrs``
closure builds each list once per step, and each candidate message is a
``Payload`` its sender sizes from the list lengths.

mis-simple and maximal clique run one phased loop over a view of the graph.
The residual view (``_Residual``) is the alive graph: each machine keeps
its alive vertices' alive-neighbour sets, repaired with a charged notify
round plus a charged apply round.  The complement view (``_Complement``)
is G's complement, which is never materialized: machines keep the global
active list (maintained through the charged delta broadcasts, realizing
the relabeling scheme) and derive complement degrees and complement
neighbour label lists on demand.  A maximal clique of G is an MIS of its
complement.  mis-fast samples by degree class and ends on the residual
view's pull and sweep.
"""

from __future__ import annotations

import functools
import operator

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
from .exactmath import alpha_classes, ipow_ceil, ipow_floor, pow_threshold, sample, size_class
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
    owners = sample(rng, members, count)
    return list(zip(keys, owners))


def _candidates(rng, members: list, gids, s_size: int, nbrs_of) -> list:
    """Messages to the central machine: for each group id, s_size members
    sampled by order statistics, as (key, vertex, nbrs_of(vertex)).

    Each message is a Payload of (gid, cands), sized here to its words()
    count in O(len(cands)): the gid's words (an int, or a tuple of ints)
    and 2 + len(nbrs) per candidate."""
    out = []
    for gid in gids:
        cands = [(key, v, nbrs_of(v)) for key, v in _order_stat_sample(rng, members, s_size)]
        if cands:
            size = (len(gid) if type(gid) is tuple else 1) + sum(2 + len(nbrs) for _, _, nbrs in cands)
            out.append((0, "cand", Payload((gid, cands), size)))
    return out


def _hungry_budget(graph: Graph, alpha_den: int):
    """Budget for vertex-sharded hungry-greedy runs with phase exponent
    alpha = mu/alpha_den."""

    def budget(cfg: ClusterConfig) -> int:
        _, classes = alpha_classes(cfg.mu, alpha_den)
        resident = 6 * ((graph.n + 2 * graph.m) // cfg.machine_count + 1)
        return BUDGET_FACTOR * (classes + 2) * cfg.eta + resident + 4 * graph.n

    return budget


def _greedy_scan(groups) -> tuple[tuple, tuple]:
    """Scan each group's candidates ``(v, neighbours)`` in order and add the
    first v that is not dead and keeps at least thr neighbours that are not
    dead; v and those neighbours die.  Every shipped vertex is alive when
    the scan starts, so only this scan's own deaths count.  ``groups``
    yields ``(thr, candidates)``.  Returns the added vertices and the newly
    dead ones, sorted."""
    dead: set[int] = set()
    added: list[int] = []
    for thr, cands in groups:
        for v, nbrs in cands:
            if v in dead:
                continue
            alive_nbrs = [u for u in nbrs if u not in dead]
            if len(alive_nbrs) >= thr:
                added.append(v)
                dead.add(v)
                dead.update(alive_nbrs)
                break
    return tuple(added), tuple(sorted(dead))


def _scan_round(cluster: Cluster, view, groups_of, label: str) -> tuple:
    """The central round that runs ``_greedy_scan`` over the view's reading
    of ``groups_of(inbox)`` and appends the added vertices to machine 0's
    ``view.key``.  Returns the newly dead vertices."""
    key = view.key

    @central
    def scan_step(store, inbox):
        added, newly_dead = _greedy_scan(view.scan(store, groups_of(inbox)))
        members = store[key].value + added
        return {
            **store,
            key: Payload(members, len(members)),
            "added": added,  # unread, but charged: the pinned peaks count it
            "newly_dead": newly_dead,
        }, []

    cluster.run_round(scan_step, label=label)
    return cluster.stores[0]["newly_dead"]


def _sampled_groups(inbox, s_size: int, thr_of):
    """The sampled groups in group order, each as its threshold
    ``thr_of(group id)`` and its s_size smallest-key candidates."""
    groups: dict = {}
    for msg in gather(inbox, "cand"):
        gid, cands = msg.value
        groups.setdefault(gid, []).extend(cands)
    for gid in sorted(groups):
        cands = sorted(groups[gid], key=lambda t: (t[0], t[1]))[:s_size]
        yield thr_of(gid), [(v, nbrs) for _, v, nbrs in cands]


def _pulled_groups(inbox):
    """Every pulled vertex as a group of its own, threshold 0, in id order:
    a lowest-id-first greedy pass."""
    return ((0, (cand,)) for cand in sorted(gather_concat(inbox, "pull")))


def _pull_rounds(cluster: Cluster, view, thr: int, tag: str) -> tuple:
    """Pull the (small) heavy set's subgraph to the central machine and
    extend the solution by a lowest-id-first greedy MIS on it.  Returns the
    newly dead vertices."""

    def pull_step(mid, store, inbox, rng, thr=thr):
        nbrs = view.nbrs(store)
        heavy = [(v, nbrs(v)) for v in view.heavy(store, thr)]
        return store, ([(0, "pull", heavy)] if heavy else [])

    cluster.run_round(pull_step, label=f"{tag}:pull")
    return _scan_round(cluster, view, _pulled_groups, f"{tag}:phase-mis")


def _final_sweep(cluster: Cluster, view, tag: str) -> tuple:
    """All still-alive vertices have degree zero; they all join machine 0's
    ``view.key``.  Returns that finished solution, sorted."""
    key = view.key

    def sweep_step(mid, store, inbox, rng):
        left = view.left(store)
        return store, ([(0, "sweep", left)] if left else [])

    cluster.run_round(sweep_step, label=f"{tag}:sweep-ship")

    @central
    def sweep_central(store, inbox):
        left = gather_concat(inbox, "sweep")
        for v, deg in left:
            if deg:
                raise AssertionError(f"final sweep saw alive vertex {v} with degree {deg}")
        members = store[key].value + tuple(v for v, _ in sorted(left))
        added = tuple(v for v, _ in left)  # unread, but charged like the scan's
        return {**store, key: Payload(members, len(members)), "added": added}, []

    cluster.run_round(sweep_central, label=f"{tag}:sweep")
    return tuple(sorted(cluster.stores[0][key].value))


class _Residual:
    """The residual graph: each machine's alive vertices with their
    alive-neighbour sets.  Dead vertices are dropped by a charged notify
    round, and their neighbours' sets repaired by a charged apply round."""

    tag, key = "mis", "I"

    def preload(self, graph: Graph, cluster: Cluster) -> None:
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
        cluster.preload(0, "I", Payload((), 0))

    def heavy(self, store, thr: int) -> list:
        anbrs = store["anbrs"].value
        return [v for v in sorted(store["alive"].value) if len(anbrs[v]) >= thr]

    def nbrs(self, store):
        """v -> its sorted alive-neighbour tuple, built once per vertex for
        the closure's life (one step: the store cannot change under it)."""
        anbrs = store["anbrs"].value
        return functools.cache(lambda v: tuple(sorted(anbrs[v])))

    def scan(self, store, groups):
        return groups

    def left(self, store) -> tuple:
        anbrs = store["anbrs"].value
        return tuple((v, len(anbrs[v])) for v in sorted(store["alive"].value))

    def recount(self, cluster: Cluster, thr: int, tag: str) -> None:
        def recount_step(mid, store, inbox, rng, thr=thr):
            alive = store["alive"].value
            anbrs = store["anbrs"].value
            vh = sum(1 for v in alive if len(anbrs[v]) >= thr)
            return {**store, "vh": vh}, []

        cluster.run_round(recount_step, label=f"{tag}:recount")

    def update(self, cluster: Cluster, delta: tuple, thr: int, tag: str) -> None:
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

    def settle(self, cluster: Cluster, newly: tuple, thr: int, tag: str) -> None:
        if newly:
            self.update(cluster, newly, thr, f"{tag}:phase-upd")
        self.recount(cluster, thr, f"{tag}:post")
        heavy_left = cluster.aggregate("vh", operator.add, label=f"{tag}:vh2")  # a charged round, also under -O
        if heavy_left:
            raise AssertionError("phase-end MIS left a heavy vertex alive")

    def extras(self, passes: int, vh_series: list) -> dict:
        return {"vh_series": vh_series, "passes": passes}


class _Complement:
    """G's complement, derived on demand and never materialized: machines
    keep their own adjacency and the global active list (the relabeling
    scheme), and complement neighbours travel as 1-based labels into that
    list.  An MIS of the complement is a maximal clique of G."""

    tag, key = "clique", "K"

    def preload(self, graph: Graph, cluster: Cluster) -> None:
        m_count = cluster.config.machine_count
        all_active = tuple(range(graph.n))
        for mid in range(m_count):
            own = {v: frozenset(graph.neighbours(v)) for v in range(mid, graph.n, m_count)}
            size = sum(1 + len(t) for t in own.values())
            cluster.preload(mid, "adj", Payload(own, size))
            cluster.preload(mid, "actives", Payload(all_active, len(all_active)))
            cluster.preload(mid, "vh", 0)
        cluster.preload(0, "K", Payload((), 0))

    def degrees(self, store):
        """This machine's active vertices with their complement degrees."""
        adj = store["adj"].value
        aset = set(store["actives"].value)
        return ((v, len(aset) - 1 - len(adj[v] & aset)) for v in sorted(adj) if v in aset)

    def left(self, store) -> tuple:
        return tuple(self.degrees(store))

    def heavy(self, store, thr: int) -> list:
        return [v for v, deg in self.degrees(store) if deg >= thr]

    def nbrs(self, store):
        """v -> its complement neighbours' labels, built once per vertex for
        the closure's life (one step: the store cannot change under it)."""
        adj = store["adj"].value
        actives = store["actives"].value

        def labels(v):
            own = adj[v]
            return tuple(lab + 1 for lab, u in enumerate(actives) if u != v and u not in own)

        return functools.cache(labels)

    def scan(self, store, groups):
        """Read the candidates' labels against machine 0's active list."""
        actives = store["actives"].value
        for thr, cands in groups:
            yield thr, [(v, (actives[lab - 1] for lab in labels)) for v, labels in cands]

    def recount(self, cluster: Cluster, thr: int, tag: str) -> None:
        self.update(cluster, (), thr, f"{tag}:recount")

    def update(self, cluster: Cluster, delta: tuple, thr: int, tag: str) -> None:
        """Broadcast the newly dead set; each machine drops it from its
        active list and recounts its heavy vertices at threshold thr."""
        cluster.broadcast("dead_delta", delta, label=f"{tag}:dead")

        def apply_step(mid, store, inbox, rng, thr=thr):
            dd = store["dead_delta"].value
            actives = store["actives"].value
            if dd:
                gone = set(dd)
                actives = tuple(v for v in actives if v not in gone)
            store = {**store, "actives": Payload(actives, len(actives))}
            return {**store, "vh": len(self.heavy(store, thr))}, []

        cluster.run_round(apply_step, label=f"{tag}:apply")

    def settle(self, cluster: Cluster, newly: tuple, thr: int, tag: str) -> None:
        if newly:
            self.update(cluster, newly, thr, f"{tag}:post")

    def extras(self, passes: int, vh_series: list) -> dict:
        return {"passes": passes}


def _phased_attempt(graph: Graph, cluster: Cluster, view):
    """Heavy-vertex sampling in phases with alpha = mu/2.  Phase i samples
    groups of vertices of degree at least n^(1-i*alpha) until fewer than
    n^(i*alpha) remain, pulls those to the central machine, and hands the
    newly dead to ``view.settle``."""
    n = max(2, graph.n)
    mu = cluster.config.mu
    alpha, phases = alpha_classes(mu, 2)
    s_size = ipow_ceil(n, mu / 2)
    view.preload(graph, cluster)
    passes = 0
    vh_series: list[tuple[int, int, int]] = []

    for phase in range(1, phases + 1):
        tag = f"{view.tag}[{phase}]"
        thr = pow_threshold(n, 1 - phase * alpha)
        groups = ipow_ceil(n, phase * alpha)
        cluster.broadcast("phase", phase, label=f"{tag}:phase")
        view.recount(cluster, thr, tag)
        vh = cluster.aggregate("vh", operator.add, label=f"{tag}:vh")

        while vh >= groups:
            passes += 1
            vh_before = vh

            def cand_step(mid, store, inbox, rng, thr=thr, groups=groups):
                return store, _candidates(rng, view.heavy(store, thr), range(groups), s_size, view.nbrs(store))

            cluster.run_round(cand_step, label=f"{tag}:cand")

            def groups_of(inbox, thr=thr):
                return _sampled_groups(inbox, s_size, lambda j: thr)

            newly = _scan_round(cluster, view, groups_of, f"{tag}:scan")
            view.update(cluster, newly, thr, tag)
            vh = cluster.aggregate("vh", operator.add, label=f"{tag}:vh")
            vh_series.append((phase, vh_before, vh))

        newly = _pull_rounds(cluster, view, thr, tag)
        view.settle(cluster, newly, thr, tag)

    return _final_sweep(cluster, view, view.tag), passes, view.extras(passes, vh_series)


_RESIDUAL, _COMPLEMENT = _Residual(), _Complement()


def mis_simple(graph: Graph, **kw) -> RunResult:
    """Maximal independent set by phased heavy-vertex sampling (the simple
    O(1/mu^2)-round variant, phase exponent alpha = mu/2)."""
    cfg = cluster_config(max(2, graph.n), graph.m, _hungry_budget(graph, 2), **kw)
    return run_with_retries(cfg, lambda cluster: _phased_attempt(graph, cluster, _RESIDUAL))


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
    _RESIDUAL.preload(graph, cluster)

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
    if cluster.stores[0]["added"]:
        _RESIDUAL.update(cluster, cluster.stores[0]["added"], 1, "mis2:iso-upd")

    def dsum_round():
        def dsum_step(mid, store, inbox, rng):
            alive = store["alive"].value
            anbrs = store["anbrs"].value
            return {**store, "dsum": sum(len(anbrs[v]) for v in alive)}, []

        cluster.run_round(dsum_step, label="mis2:dsum")
        total = cluster.aggregate("dsum", operator.add, label="mis2:edges")
        return total // 2

    def cand_step(mid, store, inbox, rng):
        anbrs = store["anbrs"].value
        by_class: dict[int, list] = {}
        for v in sorted(store["alive"].value):
            d = len(anbrs[v])
            if d:
                by_class.setdefault(size_class(class_lo, classes, d), []).append(v)
        out = []
        nbrs = _RESIDUAL.nbrs(store)
        for i, members in sorted(by_class.items()):
            gids = [(i, j) for j in range(group_counts[i])]
            out.extend(_candidates(rng, members, gids, s_size, nbrs))
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
        newly = _scan_round(cluster, _RESIDUAL, groups_of, f"mis2[{iterations}]:scan")
        _RESIDUAL.update(cluster, newly, 1, f"mis2[{iterations}]")
        e_k = dsum_round()
        e_series.append(e_k)

    # Finale: the alive subgraph has < n^(1+mu) edges; greedy MIS centrally.
    newly = _pull_rounds(cluster, _RESIDUAL, 1, "mis2:finale")
    if newly:
        _RESIDUAL.update(cluster, newly, 1, "mis2:finale:phase-upd")
    extras = {"e_series": e_series}
    return _final_sweep(cluster, _RESIDUAL, "mis2"), iterations, extras


def maximal_clique(graph: Graph, **kw) -> RunResult:
    """Maximal clique: the heavy-sampling MIS run on the lazily derived
    complement graph, using label lists against the global active set."""
    cfg = cluster_config(max(2, graph.n), graph.m, _hungry_budget(graph, 2), **kw)
    return run_with_retries(cfg, lambda cluster: _phased_attempt(graph, cluster, _COMPLEMENT))
