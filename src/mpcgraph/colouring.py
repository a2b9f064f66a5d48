"""(1+o(1))Delta vertex and edge colouring by random partition.

Vertices (or edges) assign themselves uniformly to kappa = ceil(
n^((c-mu)/2)) groups.  Per-group induced sizes are folded up the tree and
any group exceeding the edge cap (13 n^(1+mu)) fails the run for an
engine retry.  Each group ships its induced subgraph to a group-central
machine, which colours it greedily (vertex mode) or with Misra-Gries
(edge mode); the final colour of an item is the pair (group id,
within-group colour).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .engine import BUDGET_FACTOR, Cluster, ClusterConfig, Payload, RunResult, cluster_config, gather, run_with_retries
from .exactmath import below, ipow_ceil, ipow_floor
from .instances import Colouring, Graph, make_graph
from .oracles import misra_gries_edge_colouring_seq

EDGE_CAP_FACTOR = 13


def _run_colouring(graph: Graph, attempt, kappa, kw) -> RunResult:
    """Build the regime (c derived from the graph unless given), then run
    ``attempt(graph, kappa, edge cap, cluster)`` with retries."""

    def budget(cfg: ClusterConfig) -> int:
        cap = EDGE_CAP_FACTOR * ipow_floor(cfg.n, 1 + cfg.mu)
        resident = 8 * ((graph.n + 2 * graph.m) // cfg.machine_count + 1)
        return BUDGET_FACTOR * cfg.eta + 4 * cap + resident + 4 * graph.n

    c = kw.pop("c", None)
    cfg = cluster_config(max(2, graph.n), graph.m, budget, c=_derive_c(graph) if c is None else c, **kw)
    k = default_kappa(cfg) if kappa is None else kappa
    if k < 1:  # the group draws below(kappa) never end for kappa < 1
        raise ValueError(f"kappa must be >= 1, got {k}")
    cap = EDGE_CAP_FACTOR * ipow_floor(cfg.n, 1 + cfg.mu)
    return run_with_retries(cfg, lambda cluster: attempt(graph, k, cap, cluster))


def _group_counts(cluster: Cluster, cap: int, tag: str, what: str) -> tuple:
    """Fold the per-group edge counts to the central machine; a group over
    the cap fails the attempt."""
    counts = cluster.aggregate(
        "gcounts", lambda a, b: tuple(x + y for x, y in zip(a, b)), label=f"{tag}:counts"
    )
    for i, cnt in enumerate(counts):
        if cnt > cap:
            cluster.fail(f"{what} {i} has {cnt} edges > cap {cap}")
    return counts


def _merged_colouring(cluster: Cluster, kind: str, count: int, kappa: int, counts: tuple):
    """Collect the group-central machines' colours into one colouring of
    ``count`` items and check it against kappa*(max Delta_i + 1)."""
    merged: dict[int, tuple[int, int]] = {}
    deltas: dict[int, int] = {}
    for store in cluster.stores:
        if "coloured" in store:
            merged.update(store["coloured"].value)
        for g, d in store.get("gdelta", {}).items():
            deltas[g] = max(deltas.get(g, 0), d)
    groups = tuple(merged[i][0] for i in range(count))
    colours = tuple(merged[i][1] for i in range(count))
    result = Colouring(kind=kind, groups=groups, colours=colours)
    max_delta = max(deltas.values(), default=0)
    bound = kappa * (max_delta + 1)
    if result.colour_count > bound:
        raise AssertionError("colour count exceeded kappa*(max Delta_i + 1)")
    extras = {
        "kappa": kappa,
        "group_deltas": [deltas.get(g, 0) for g in range(kappa)],
        "group_edges": list(counts),
        "count_bound": bound,
    }
    return result, 1, extras


def _derive_c(graph: Graph) -> Fraction:
    if graph.n < 2 or graph.m == 0:
        return Fraction(0)
    c = math.log(graph.m) / math.log(graph.n) - 1.0
    return Fraction(str(round(max(0.0, c), 6)))


def default_kappa(config: ClusterConfig) -> int:
    c = config.c if config.c is not None else Fraction(0)
    if c <= config.mu:
        return 1
    return max(1, ipow_ceil(config.n, (c - config.mu) / 2))


def vertex_colouring(graph: Graph, kappa: int | None = None, **kw) -> RunResult:
    """Proper vertex colouring with at most kappa*(max_i Delta_i + 1)
    colours, w.h.p. (1 + n^(-mu/2) sqrt(6 ln n) + n^(-mu)) * Delta."""
    return _run_colouring(graph, _vertex_attempt, kappa, kw)


def _vertex_attempt(graph: Graph, kappa: int, cap: int, cluster: Cluster):
    m_count = cluster.config.machine_count
    for mid in range(m_count):
        own = {v: graph.neighbours(v) for v in range(mid, graph.n, m_count)}
        cluster.preload(mid, "adj", Payload(own, sum(1 + len(t) for t in own.values())))

    def assign_step(mid, store, inbox, rng):
        own = store["adj"].value
        groups = {v: below(rng.getrandbits, kappa) for v in sorted(own)}
        out = []
        for v in sorted(own):
            for u in own[v]:
                out.append((u % m_count, "grp", (u, v, groups[v])))
        return {**store, "groups": Payload(groups, 2 * len(groups))}, out

    cluster.run_round(assign_step, label="colour:assign")

    def build_step(mid, store, inbox, rng):
        own = store["adj"].value
        groups = store["groups"].value
        nbr_groups: dict[int, dict] = {v: {} for v in own}
        for v, u, gu in gather(inbox, "grp"):
            nbr_groups[v][u] = gu
        same = {
            v: tuple(u for u in own[v] if nbr_groups[v].get(u) == groups[v])
            for v in own
        }
        counts = [0] * kappa
        for v, nbrs in same.items():
            counts[groups[v]] += sum(1 for u in nbrs if v < u)
        size = sum(1 + len(t) for t in same.values())
        return {**store, "same": Payload(same, size), "gcounts": tuple(counts)}, []

    cluster.run_round(build_step, label="colour:build")
    counts = _group_counts(cluster, cap, "colour", "group")

    def ship_step(mid, store, inbox, rng):
        own = store["adj"].value
        groups = store["groups"].value
        same = store["same"].value
        out = []
        for v in sorted(own):
            g = groups[v]
            out.append((g % m_count, "sub", (g, v, same[v])))
        return store, out

    cluster.run_round(ship_step, label="colour:ship")

    def colour_step(mid, store, inbox, rng):
        subs: dict[int, dict] = {}
        for g, v, nbrs in gather(inbox, "sub"):
            subs.setdefault(g, {})[v] = nbrs
        assignment: dict[int, tuple[int, int]] = {}
        deltas: dict[int, int] = {}
        for g in sorted(subs):
            local = subs[g]
            deltas[g] = max((len(nbrs) for nbrs in local.values()), default=0)
            colour: dict[int, int] = {}
            for v in sorted(local):
                taken = {colour[u] for u in local[v] if u in colour}
                ci = 1
                while ci in taken:
                    ci += 1
                colour[v] = ci
            for v, ci in colour.items():
                assignment[v] = (g, ci)
        size = 3 * len(assignment)
        return {**store, "coloured": Payload(assignment, size), "gdelta": deltas}, []

    cluster.run_round(colour_step, label="colour:greedy")
    return _merged_colouring(cluster, "vertex", graph.n, kappa, counts)


def edge_colouring(graph: Graph, kappa: int | None = None, **kw) -> RunResult:
    """Proper edge colouring: random edge partition, Misra-Gries per group,
    colour = (group id, within-group colour)."""
    return _run_colouring(graph, _edge_attempt, kappa, kw)


def _edge_attempt(graph: Graph, kappa: int, cap: int, cluster: Cluster):
    m_count = cluster.config.machine_count
    for mid in range(m_count):
        own = tuple(
            (eid, graph.edges[eid][0], graph.edges[eid][1])
            for eid in range(mid, graph.m, m_count)
        )
        cluster.preload(mid, "edges", Payload(own, 3 * len(own)))

    def assign_step(mid, store, inbox, rng):
        own = store["edges"].value
        groups = {eid: below(rng.getrandbits, kappa) for eid, _, _ in own}
        counts = [0] * kappa
        for g in groups.values():
            counts[g] += 1
        return {**store, "groups": Payload(groups, 2 * len(groups)), "gcounts": tuple(counts)}, []

    cluster.run_round(assign_step, label="ecolour:assign")
    counts = _group_counts(cluster, cap, "ecolour", "edge group")

    def ship_step(mid, store, inbox, rng):
        own = store["edges"].value
        groups = store["groups"].value
        out = [(groups[eid] % m_count, "sub", (groups[eid], eid, u, v)) for eid, u, v in own]
        return store, out

    cluster.run_round(ship_step, label="ecolour:ship")

    def colour_step(mid, store, inbox, rng):
        subs: dict[int, list] = {}
        for g, eid, u, v in gather(inbox, "sub"):
            subs.setdefault(g, []).append((eid, u, v))
        assignment: dict[int, tuple[int, int]] = {}
        deltas: dict[int, int] = {}
        for g in sorted(subs):
            triples = sorted(subs[g])
            verts = sorted({x for _, u, v in triples for x in (u, v)})
            remap = {x: i for i, x in enumerate(verts)}
            sub = make_graph(len(verts), [(remap[u], remap[v], 1) for _, u, v in triples])
            deltas[g] = sub.max_degree
            seq = misra_gries_edge_colouring_seq(sub)
            for local_eid, (eid, _, _) in enumerate(triples):
                assignment[eid] = (g, seq.colours[local_eid])
        return {**store, "coloured": Payload(assignment, 3 * len(assignment)), "gdelta": deltas}, []

    cluster.run_round(colour_step, label="ecolour:mg")
    return _merged_colouring(cluster, "edge", graph.m, kappa, counts)

