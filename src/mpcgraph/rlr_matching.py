"""Randomized local ratio for max-weight matching and b-matching.

Edges are sharded across machines; each alive edge self-samples with
p = min(eta/|E_i|, 1) (or ships wholesale once |E_i| < 4*eta).  The central
machine keeps the phi accumulators and the push stack, sweeps vertices in
ascending id picking the heaviest sampled edge by current modified weight,
and sends the phi deltas and pushed ids back so edges can recompute their
alive bit.  |E_{i+1}| is folded and rebroadcast through the tree, and the
final unwind is its own charged round.

Weights are rescaled once to a common integer denominator (a uniform
positive scale, so every comparison and push is unchanged).  Matching
then runs in exact integer arithmetic.  b-matching's phi stays an exact
rational: a push adds gain/b(v), and the denominators grow along a push
chain (on the path 0-1-2-3 with unit weights and b=2, phi[2] is 1/4 and
then 5/8), so no fixed integer scale holds it.  Its alive test
w > (1+eps)(phi_a + phi_b) is an integer cross-multiplication of phi's
numerators and denominators instead, and its central pass ranks each
vertex's candidates once.
"""

from __future__ import annotations

import math
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
    gather_concat,
    run_with_retries,
)
from .exactmath import ipow_ceil, sample
from .instances import Graph, _vertex_capacities, make_matching
from .oracles import MatchingReduction

EDGE_WORDS = 4  # (eid, u, v, w) message record


def _scaled_weights(graph: Graph) -> list[int]:
    """Edge weights times the lcm of their denominators, as exact ints."""
    scale = math.lcm(*{w.denominator for _, _, w in graph.edges})
    return [w.numerator * (scale // w.denominator) for _, _, w in graph.edges]


def approx_max_matching(graph: Graph, **kw) -> RunResult:
    """2-approximate maximum weight matching on the simulated cluster.

    Deterministically at least half the brute-force optimum; iteration
    count is O(c/mu) for eta = n^(1+mu) and O(log n) for eta = n, w.h.p.
    """

    def budget(cfg: ClusterConfig) -> int:
        # 4-word edge records plus the resident phi and stack
        return BUDGET_FACTOR * (4 * EDGE_WORDS + 2) * cfg.eta + 4 * graph.n + 4 * graph.m

    cfg = cluster_config(max(2, graph.n), graph.m, budget, **kw)
    intw = _scaled_weights(graph)
    return run_with_retries(cfg, lambda cluster: _matching_attempt(graph, intw, cluster))


def _matching_attempt(graph: Graph, intw: list[int], cluster: Cluster):
    cfg = cluster.config
    m_count = cfg.machine_count
    eta = cfg.eta
    full_at = 4 * eta
    fail_at = 8 * eta
    n = graph.n

    records = [(eid, u, v, intw[eid]) for eid, (u, v, _) in enumerate(graph.edges)]
    for mid in range(m_count):
        shard = tuple(records[eid] for eid in range(mid, graph.m, m_count))
        cluster.preload(mid, "edges", Payload(shard, EDGE_WORDS * len(shard)))
        alive = frozenset(r[0] for r in shard)
        cluster.preload(mid, "alive", Payload(alive, len(alive)))
        cluster.preload(mid, "phi", Payload({}, 0))
        cluster.preload(mid, "esize", graph.m)
    cluster.preload(0, "stack", Payload((), 0))

    e_size = graph.m
    iterations = 0
    e_series = [e_size]
    push_order: list[int] = []
    heavy = _heavy_test(Fraction(1))

    while e_size > 0:
        iterations += 1
        if iterations > 10_000:
            raise AssertionError("matching iteration guard tripped")
        full = e_size < full_at
        p = 1.0 if full else min(1.0, eta / e_size)

        def sample_step(mid, store, inbox, rng, p=p, full=full):
            alive = store["alive"].value
            picked = []
            for rec in store["edges"].value:
                if rec[0] in alive and (full or rng.random() < p):
                    picked.append(rec)
            return store, ([(0, "Ev", picked)] if picked else [])

        cluster.run_round(sample_step, label=f"match[{iterations}]:sample")

        @central
        def central_step(store, inbox):
            sampled = gather_concat(inbox, "Ev")
            sampled.sort()
            if 2 * len(sampled) > fail_at:
                return {**store, "failed": f"sum|E'_v|={2 * len(sampled)} > {fail_at}"}, []
            red = _replayed(MatchingReduction(n), store["stack"].value)
            by_vertex: dict[int, list] = {}
            for rec in sampled:
                by_vertex.setdefault(rec[1], []).append(rec)
                by_vertex.setdefault(rec[2], []).append(rec)
            pushes = []
            for v in sorted(by_vertex):
                pushes += _push_best(red, by_vertex[v], 1, heavy)
            return _publish(store, red, pushes, m_count)

        cluster.run_round(central_step, label=f"match[{iterations}]:central")
        if "failed" in cluster.stores[0]:
            cluster.fail(cluster.stores[0]["failed"])
        push_order.extend(cluster.stores[0]["pushes"])

        def apply_step(mid, store, inbox, rng):
            phi, pushes = _updated_phi(store, inbox)
            dead = set(pushes)
            alive = store["alive"].value
            new_alive = []
            for eid, u, v, w in store["edges"].value:
                if eid in alive and eid not in dead and heavy(w, phi.get(u, 0), phi.get(v, 0)):
                    new_alive.append(eid)
            alive = frozenset(new_alive)
            return {
                **store,
                "phi": Payload(phi, 2 * len(phi)),
                "alive": Payload(alive, len(alive)),
                "esize": len(alive),
            }, []

        cluster.run_round(apply_step, label=f"match[{iterations}]:apply")
        e_size, _ = cluster.aggregate_and_broadcast("esize", lambda a, b: a + b, label=f"match[{iterations}]:count")
        e_series.append(e_size)

    matching = make_matching(graph, _unwind_round(cluster, n, None, "match"))
    extras = {
        "e_series": e_series,
        "push_order": push_order,
    }
    return matching, iterations, extras


def _replayed(red: MatchingReduction, stack) -> MatchingReduction:
    """``red`` with the pushed stack replayed: the reduction state left by
    the earlier iterations."""
    for entry in stack:
        red.record(*entry)
    return red


def _publish(store: dict, red: MatchingReduction, pushes: list, m_count: int):
    """Central store and outbox after a push pass: the new stack stays on
    the central machine, and every machine gets the phi values of the
    pushed edges' endpoints, read from the stack's newest entries, and the
    pushed ids."""
    pushed = red.stack[len(red.stack) - len(pushes) :]
    changed = sorted({x for _, u, v, _ in pushed for x in (u, v)})
    phi_delta = tuple((v, red.phi[v]) for v in changed)
    new_stack = tuple(red.stack)
    out = [(d, "upd", (phi_delta, tuple(pushes))) for d in range(m_count)]
    return {
        **store,
        "stack": Payload(new_stack, 4 * len(new_stack)),
        "pushes": tuple(pushes),
    }, out


def _updated_phi(store: dict, inbox) -> tuple[dict, tuple]:
    """This machine's phi with the central update applied, and the ids the
    central machine pushed."""
    phi_delta, pushes = gather(inbox, "upd")[-1]
    phi = store["phi"].value
    if phi_delta:
        phi = {**phi, **dict(phi_delta)}
    return phi, pushes


def _unwind_round(cluster: Cluster, n: int, caps: list[int] | None, tag: str) -> tuple:
    """The charged final round: unwind the stack on the central machine;
    returns the matched edge ids."""

    @central
    def unwind_step(store, inbox):
        red = MatchingReduction(n, caps)
        red.stack.extend(store["stack"].value)
        return {**store, "matching": tuple(sorted(red.unwind(n)))}, []

    cluster.run_round(unwind_step, label=f"{tag}:unwind")
    return cluster.stores[0]["matching"]


# ---------------------------------------------------------------------------
# b-matching


def approx_b_matching(graph: Graph, b, epsilon, **kw) -> RunResult:
    """(3 - 2/max{2,b} + 2eps)-approximate maximum weight b-matching.

    Per iteration each vertex samples ceil(b(v) ln(1/delta) n^mu) incident
    alive edges without replacement (deduplicated at the central pass);
    the central machine pushes up to ceil(b(v) ln(1/delta)) alive edges per
    vertex in descending modified weight with the epsilon-adjusted
    reduction.  delta = eps/(1+eps).
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    caps = _vertex_capacities(graph.n, b)
    delta = epsilon / (1 + epsilon)
    pushes = max(1, math.ceil(max(caps, default=1) * math.log(1 / float(delta))))

    def budget(cfg: ClusterConfig) -> int:
        return BUDGET_FACTOR * 10 * pushes * cfg.eta + 6 * graph.m + 4 * graph.n

    cfg = cluster_config(max(2, graph.n), graph.m, budget, **kw)
    intw = _scaled_weights(graph)
    return run_with_retries(cfg, lambda cluster: _bmatching_attempt(graph, intw, caps, epsilon, cluster))


def _bmatching_attempt(graph: Graph, intw: list[int], caps: list[int], epsilon: Fraction, cluster: Cluster):
    cfg = cluster.config
    m_count = cfg.machine_count
    eta = cfg.eta
    n = graph.n
    delta = epsilon / (1 + epsilon)
    ln_inv_delta = math.log(float(1 / delta))
    b_max = max(caps, default=1)
    full_at = 2 * b_max * ln_inv_delta * eta
    n_mu = float(ipow_ceil(max(2, n), cfg.mu))
    push_cap = [max(1, math.ceil(caps[v] * ln_inv_delta)) for v in range(n)]
    sample_cap = [max(1, math.ceil(caps[v] * ln_inv_delta * n_mu)) for v in range(n)]

    adj: dict[int, list] = {v: [] for v in range(n)}
    for eid, (u, v, _) in enumerate(graph.edges):
        rec = (eid, u, v, intw[eid])
        adj[u].append(rec)
        adj[v].append(rec)
    for mid in range(m_count):
        own = {v: tuple(adj[v]) for v in range(mid, n, m_count)}
        size = sum(1 + 4 * len(lst) for lst in own.values())
        cluster.preload(mid, "adj", Payload(own, size))
        cluster.preload(mid, "phi", Payload({}, 0))
        cluster.preload(mid, "pushed", Payload(frozenset(), 0))
        cluster.preload(mid, "esize", graph.m)
    cluster.preload(0, "stack", Payload((), 0))

    e_size = graph.m
    iterations = 0
    e_series = [e_size]
    push_order: list[int] = []
    heavy = _heavy_test(1 + epsilon)

    while e_size > 0:
        iterations += 1
        if iterations > 10_000:
            raise AssertionError("b-matching iteration guard tripped")
        full = e_size < full_at

        def sample_step(mid, store, inbox, rng, full=full):
            phi = store["phi"].value
            pushed = store["pushed"].value
            out = []
            for v, incident in sorted(store["adj"].value.items()):
                alive = [
                    rec
                    for rec in incident
                    if rec[0] not in pushed and heavy(rec[3], phi.get(rec[1], 0), phi.get(rec[2], 0))
                ]
                if not alive:
                    continue
                if full or len(alive) <= sample_cap[v]:
                    chosen = alive
                else:
                    chosen = sample(rng, alive, sample_cap[v])
                out.append((0, "Ev", (v, tuple(chosen))))
            return store, out

        cluster.run_round(sample_step, label=f"bmatch[{iterations}]:sample")

        @central
        def central_step(store, inbox):
            red = _replayed(MatchingReduction(n, caps, epsilon), store["stack"].value)
            lists = dict(gather(inbox, "Ev"))
            pushes = []
            for v in sorted(lists):
                pushes += _push_best(red, lists[v], push_cap[v], heavy)
            return _publish(store, red, pushes, m_count)

        cluster.run_round(central_step, label=f"bmatch[{iterations}]:central")
        push_order.extend(cluster.stores[0]["pushes"])

        def apply_step(mid, store, inbox, rng):
            phi, pushes = _updated_phi(store, inbox)
            pushed = store["pushed"].value | set(pushes)
            count = 0
            for v, incident in store["adj"].value.items():
                for eid, a, b2, w in incident:
                    if v == min(a, b2) and eid not in pushed and heavy(w, phi.get(a, 0), phi.get(b2, 0)):
                        count += 1
            return {
                **store,
                "phi": Payload(phi, 2 * len(phi)),
                "pushed": Payload(pushed, len(pushed)),
                "esize": count,
            }, []

        cluster.run_round(apply_step, label=f"bmatch[{iterations}]:apply")
        e_size, _ = cluster.aggregate_and_broadcast("esize", lambda a, b: a + b, label=f"bmatch[{iterations}]:count")
        e_series.append(e_size)

    ids = _unwind_round(cluster, n, caps, "bmatch")
    matching = make_matching(graph, ids, caps)
    extras = {"e_series": e_series, "push_order": push_order}
    return matching, iterations, extras


def _heavy_test(one_plus_eps: Fraction):
    """The alive test ``w > (1+eps)(phi_a + phi_b)`` (eps = 0 for matching)
    for an int weight w and Fraction or int phi values, without building a
    Fraction: with 1+eps = r/s, phi_a = na/da and phi_b = nb/db it is
    ``w*s*da*db > r*(na*db + nb*da)``."""
    r, s = one_plus_eps.numerator, one_plus_eps.denominator

    def heavy(w: int, pa, pb) -> bool:
        da, db = pa.denominator, pb.denominator
        return w * s * da * db > r * (pa.numerator * db + pb.numerator * da)

    return heavy


def _push_best(red: MatchingReduction, candidates, quota: int, heavy) -> list[int]:
    """Push up to ``quota`` of one vertex v's candidate records, each time
    the alive one of largest (gain, -eid), gain = w - phi[a] - phi[b];
    returns the pushed ids.

    A push at v lowers the gain of every other candidate of v by the same
    amount, so one ranking serves the whole loop.  Pushes only raise phi,
    so a candidate dead now stays dead, and each one is tested again when
    its turn comes.
    """
    phi, pushed = red.phi, red.pushed
    alive = [rec for rec in candidates if rec[0] not in pushed and heavy(rec[3], phi[rec[1]], phi[rec[2]])]
    alive.sort(key=lambda rec: (rec[3] - phi[rec[1]] - phi[rec[2]], -rec[0]), reverse=True)
    out = []
    for eid, a, b2, w in alive:
        if len(out) == quota:
            break
        if eid not in pushed and heavy(w, phi[a], phi[b2]):
            red.push(eid, a, b2, w)
            out.append(eid)
    return out
