from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_graph
from mpcgraph.engine import Cluster, Payload, RetriesExhausted, gather, gather_concat, words
from mpcgraph.hungry import _candidates, _Complement, _Residual, maximal_clique, mis_fast, mis_simple
from mpcgraph.instances import generate_graph, make_graph
from mpcgraph.oracles import is_maximal_clique, is_maximal_independent_set


def complement_graph(graph):
    edges = [
        (u, v, 1)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if not graph.has_edge(u, v)
    ]
    return make_graph(graph.n, edges)


def test_mis_simple_examples():
    edgeless = make_graph(5, [])
    assert mis_simple(edgeless, seed=1).value == (0, 1, 2, 3, 4)
    star = make_graph(6, [(0, i, 1) for i in range(1, 6)])
    for seed in range(5):
        out = mis_simple(star, seed=seed).value
        assert out == (0,) or out == (1, 2, 3, 4, 5)
        assert is_maximal_independent_set(star, out)


def test_mis_fast_examples():
    two_triangles = make_graph(6, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)])
    for seed in range(5):
        out = mis_fast(two_triangles, seed=seed).value
        assert len(out) == 2
        assert is_maximal_independent_set(two_triangles, out)
    # below the edge floor: zero loop iterations, pure central greedy
    small = make_graph(4, [(0, 1, 1), (2, 3, 1)])
    res = mis_fast(small, seed=2)
    assert res.iterations == 0
    assert res.value == (0, 2)  # lowest-id first-fit


def test_mis_random_sweep():
    rng = Random(70)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 40), 120, 1, 1)
        for seed in range(2):
            r1 = mis_simple(g, seed=seed)
            r2 = mis_fast(g, seed=seed)
            assert is_maximal_independent_set(g, r1.value)
            assert is_maximal_independent_set(g, r2.value)


def test_heavy_set_shrink_instrumented():
    """Per-pass heavy-set shrink |V_H'| <= |V_H| / n^(mu/4) at n = 1024,
    mu = 1/5, in >= 90% of 50 seeded runs."""
    n = 1024
    graph = generate_graph(n, "2/5", (1, 1), seed=505)

    def shrink_ok(after, before):
        return after**20 * n <= before**20

    good = 0
    for seed in range(50):
        res = mis_simple(graph, mu="1/5", c="2/5", seed=seed)
        ok = all(shrink_ok(after, before) for _, before, after in res.extras["vh_series"])
        good += ok
    assert good >= 45, f"heavy-set shrink held in only {good}/50 runs"


def test_edge_shrink_instrumented():
    """MIS2 edge shrink: |E_{k+1}| <= 2|E_k|/n^(mu/8) in >= 90% of runs,
    plus strict decrease whenever a vertex was added (probability 1)."""
    n = 1024
    graph = generate_graph(n, "2/5", (1, 1), seed=506)

    def shrink_ok(after, before):
        # after <= 2 * before / n^(1/40)
        return after**40 * n <= (2 * before) ** 40

    good = 0
    for seed in range(50):
        res = mis_fast(graph, mu="1/5", c="2/5", seed=seed)
        e = res.extras["e_series"]
        ok = all(shrink_ok(b, a) for a, b in zip(e, e[1:]))
        good += ok
        # any loop iteration that ran added at least one vertex, so the
        # alive edge count must strictly drop
        for a, b in zip(e, e[1:]):
            assert b < a
    assert good >= 45, f"edge shrink held in only {good}/50 runs"


def test_clique_examples():
    k5 = make_graph(5, [(u, v, 1) for u in range(5) for v in range(u + 1, 5)])
    assert maximal_clique(k5, seed=1).value == (0, 1, 2, 3, 4)
    edgeless = make_graph(4, [])
    assert len(maximal_clique(edgeless, seed=1).value) == 1
    c5 = make_graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1)])
    for seed in range(5):
        out = maximal_clique(c5, seed=seed).value
        assert len(out) == 2  # C5 is triangle-free: max clique is an edge
        assert is_maximal_clique(c5, out)


def test_clique_mis_duality_small_graphs():
    # maximal_clique(G) is a maximal independent set of the explicit
    # complement, built only here (n <= 64)
    rng = Random(71)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 64), 500, 1, 1)
        out = maximal_clique(g, seed=rng.randint(0, 99)).value
        comp = complement_graph(g)
        assert is_maximal_independent_set(comp, out)
        assert is_maximal_clique(g, out)


def test_clique_never_materializes_complement():
    """On a dense graph the complement would need ~n^2 words; the lazy
    scheme stays within a budget far below that."""
    rng = Random(72)
    n = 512
    pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], int(0.4 * n * n))
    g = make_graph(n, [(u, v, 1) for u, v in pairs])
    res = maximal_clique(g, mu="1/5", seed=7)
    cfg = res.cluster.config
    assert cfg.memory_budget_words < n * n
    assert res.cluster.peak_words() <= cfg.memory_budget_words
    assert is_maximal_clique(g, res.value)


def test_mis_rounds_counted():
    g = generate_graph(64, "1/2", (1, 1), seed=3)
    res = mis_simple(g, mu="1/5", c="1/2", seed=1)
    assert res.total_rounds == len(res.cluster.rounds)
    assert res.total_rounds > 0


SCAN_GRAPHS = {
    "1/2": generate_graph(64, "1/2", (1, 1), seed=5),
    "2/5": generate_graph(96, "2/5", (1, 1), seed=8),
    "4/5": generate_graph(40, "4/5", (1, 1), seed=6),
}
SCAN_REGIMES = [{"mu": "0"}, {"mu": "1/5"}, {"mu": "1/3"}, {"mu": "1/5", "eta": 16}]


@pytest.mark.parametrize("c", sorted(SCAN_GRAPHS))
@pytest.mark.parametrize("alg", ["mis-simple", "mis-fast", "clique"])
def test_scans_see_only_alive_vertices(alg, c, monkeypatch):
    """Every vertex a central scan reads, as a candidate, a pulled vertex or
    a neighbour, is still alive: none is in an earlier scan's newly dead
    set of the same attempt.  So the scan needs no record of the dead."""
    run = {"mis-simple": mis_simple, "mis-fast": mis_fast, "clique": maximal_clique}[alg]
    # Cluster -> the vertices its scans have killed; keyed on the object,
    # not on id(), because ids are reused across runs.
    dead_of: dict = {}
    checked = []
    run_round = Cluster.run_round

    def checking_run_round(self, step, label=""):
        dead = dead_of.setdefault(self, set())
        if not label.endswith((":scan", ":phase-mis")):
            return run_round(self, step, label)

        def checked_step(mid, store, inbox, rng):
            if mid == 0:
                actives = store["actives"].value if "actives" in store else None
                rows = [row[1:] for msg in gather(inbox, "cand") for row in msg.value[1]]
                for v, nbrs in rows + gather_concat(inbox, "pull"):
                    seen = [actives[lab - 1] for lab in nbrs] if actives is not None else list(nbrs)
                    assert dead.isdisjoint([v, *seen]), f"{label} read a dead vertex"
                checked.append(label)
            return step(mid, store, inbox, rng)

        record = run_round(self, checked_step, label)
        dead.update(self.stores[0]["newly_dead"])
        return record

    monkeypatch.setattr(Cluster, "run_round", checking_run_round)
    graph = SCAN_GRAPHS[c]
    for regime in SCAN_REGIMES:
        for seed in (1, 2):
            try:
                value = run(graph, seed=seed, **regime).value
            except RetriesExhausted:
                continue
            finally:
                dead_of.clear()
            assert len(set(value)) == len(value)
    assert checked


@st.composite
def candidate_inputs(draw):
    """A store for each view over n vertices (neighbour sets may be empty,
    active lists may miss vertices), sampled members, and int or tuple
    group ids."""
    n = draw(st.integers(1, 10))
    vertex_sets = st.frozensets(st.integers(0, n - 1), max_size=n)
    sets = {v: draw(vertex_sets) - {v} for v in range(n)}
    actives = tuple(sorted(draw(vertex_sets)))
    members = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    count = draw(st.integers(1, 4))
    gids = range(count) if draw(st.booleans()) else [(draw(st.integers(0, 5)), j) for j in range(count)]
    residual = {"anbrs": Payload(sets, 0)}
    complement = {"adj": Payload(sets, 0), "actives": Payload(actives, len(actives))}
    return members, list(gids), draw(st.integers(1, 4)), residual, complement, draw(st.integers(0, 2**32))


@given(candidate_inputs())
def test_candidate_sizes_equal_their_word_counts(case):
    """Each candidate message declares exactly the words() count of its
    (gid, cands), for neighbour tuples and complement label tuples alike;
    one closure hands out one tuple per vertex."""
    members, gids, s_size, residual, complement, seed = case
    for view, store in ((_Residual(), residual), (_Complement(), complement)):
        nbrs_of = view.nbrs(store)
        msgs = _candidates(Random(seed), members, gids, s_size, nbrs_of)
        assert [dst for dst, _, _ in msgs] == [0] * len(gids)
        for _, key, msg in msgs:
            assert key == "cand" and type(msg) is Payload
            assert msg.word_size == words(msg.value)
            for _, v, nbrs in msg.value[1]:
                assert nbrs is nbrs_of(v)
