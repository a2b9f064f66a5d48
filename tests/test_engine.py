import json
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpcgraph.engine import (
    Cluster,
    ClusterConfig,
    MemoryExceeded,
    OversizedMessage,
    Payload,
    RetriesExhausted,
    WhpFailure,
    derive_seed,
    run_with_retries,
    store_words,
    words,
)


def idle(mid, store, inbox, rng):
    return store, []


def cfg(machines, budget=10_000, fanout=2, seed=1, **kw):
    return ClusterConfig.derive(
        4, "1/5", seed=seed, machine_count=machines, memory_budget_words=budget, fanout=fanout, **kw
    )


def naive_words(obj) -> int:
    """Reference count by isinstance checks alone."""
    if isinstance(obj, Payload):
        return obj.word_size
    if isinstance(obj, (int, str, Fraction, bool, float)):
        return 1
    if obj is None:
        return 0
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(naive_words(x) for x in obj)
    if isinstance(obj, dict):
        return sum(naive_words(k) + naive_words(v) for k, v in obj.items())
    raise TypeError(type(obj).__name__)


Edge = namedtuple("Edge", "u v w")

_hashable = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.text(max_size=3),
        st.fractions(max_denominator=9),
        st.floats(allow_nan=False),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=4),
        st.builds(Edge, inner, inner, inner),
    ),
    max_leaves=8,
)
_payloads = st.recursive(
    _hashable,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(_hashable, max_size=4),
        st.dictionaries(_hashable, inner, max_size=4),
        st.builds(Payload, inner),
    ),
    max_leaves=20,
)


@given(_payloads)
def test_words_matches_naive_recount(obj):
    assert words(obj) == naive_words(obj)


def test_word_sizing():
    assert words(5) == 1
    assert words(Fraction(1, 3)) == 1
    assert words("id") == 1
    assert words((1, 2, (3, 4))) == 4
    assert words({1: (2, 3)}) == 3
    assert words(Payload((1, 2, 3))) == 3
    assert store_words({"a": (1, 2), "b": 3}) == 3  # keys are labels


def test_idle_round_and_message_counting():
    cl = Cluster(cfg(1))
    rec = cl.run_round(idle, "idle")
    assert rec.messages == 0 and rec.peak_words == (0,)
    cl3 = Cluster(cfg(3))
    cl3.run_round(lambda mid, s, i, rng: (s, [(0, "x", mid + 100)]), "send")
    rec = cl3.run_round(idle, "recv")
    assert rec.words_received[0] == 3


def test_oversized_message():
    cl = Cluster(cfg(2, budget=10))
    with pytest.raises(OversizedMessage):
        cl.run_round(
            lambda mid, s, i, rng: (s, [(1, f"k{j}", j) for j in range(11)] if mid == 0 else []),
            "big",
        )
    assert cl.rounds[-1].failure is not None  # trace preserved


def test_memory_exceeded_preserves_trace():
    cl = Cluster(cfg(1, budget=5))
    with pytest.raises(MemoryExceeded):
        cl.run_round(lambda mid, s, i, rng: ({**s, "blob": tuple(range(9))}, []), "fill")
    assert "MemoryExceeded" in cl.rounds[-1].failure


def test_round_indices_strictly_increase():
    cl = Cluster(cfg(2))
    for _ in range(4):
        cl.run_round(idle)
    assert [r.index for r in cl.rounds] == [0, 1, 2, 3]


def test_broadcast_round_counts():
    for machines, fanout, expect in ((9, 3, 2), (1, 3, 0), (100, 10, 2), (11, 10, 2), (5, 2, 3)):
        cl = Cluster(cfg(machines, fanout=fanout))
        cl.stores[0]["p"] = Payload("hello")
        rounds = cl.broadcast("p", Payload("hello"))
        assert rounds == expect
        assert all(cl.holds(m, "p") for m in range(machines))
        # after any subsequent round, the payload is in every store
        cl.run_round(idle, "settle")
        assert all("p" in cl.stores[m] for m in range(machines))


def test_broadcast_sender_copy_limit():
    fanout = 3
    cl = Cluster(cfg(9, fanout=fanout))
    cl.stores[0]["p"] = Payload("x")
    cl.broadcast("p", Payload("x"))
    for rec in cl.rounds:
        # each intermediate machine sends at most fanout copies per round
        assert all(w <= fanout * 1 for w in rec.words_sent)


def test_aggregate_examples():
    cl = Cluster(cfg(3, fanout=2))
    for m, v in enumerate([2, 3, 5]):
        cl.preload(m, "v", v)
    total, rounds = cl.aggregate("v", lambda a, b: a + b)
    assert total == 10 and rounds == 2
    cl1 = Cluster(cfg(1))
    cl1.preload(0, "v", 42)
    assert cl1.aggregate("v", max) == (42, 0)
    cl3 = Cluster(cfg(3, fanout=2))
    for m, v in enumerate([4, 0, 7]):
        cl3.preload(m, "v", v)
    assert cl3.aggregate("v", lambda a, b: a + b)[0] == 11


def test_broadcast_then_aggregate_bit_sums_to_machine_count():
    for machines in (1, 2, 5, 9, 13):
        cl = Cluster(cfg(machines, fanout=3))
        cl.stores[0]["payload"] = Payload("beacon")
        cl.broadcast("payload", Payload("beacon"))

        def count_step(mid, store, inbox, rng):
            return {**store, "bit": 1 if "payload" in store else 0}, []

        cl.run_round(count_step, "bit")
        total, _ = cl.aggregate("bit", lambda a, b: a + b)
        assert total == machines


def test_aggregate_rejects_bad_combine():
    cl = Cluster(cfg(3, fanout=2))
    for m, v in enumerate([2, 3, 5]):
        cl.preload(m, "v", v)
    with pytest.raises(AssertionError):
        cl.aggregate("v", lambda a, b: a - b)  # not commutative


def test_back_to_back_aggregates_ignore_stale_parts():
    cl = Cluster(cfg(5, fanout=2))
    for m in range(5):
        cl.preload(m, "v", m + 1)
    first, _ = cl.aggregate("v", lambda a, b: a + b)
    assert first == 15
    # reset local values and fold again under the same key
    def reset(mid, store, inbox, rng):
        return {**store, "v": 1}, []

    cl.run_round(reset, "reset")
    second, _ = cl.aggregate("v", lambda a, b: a + b)
    assert second == 5


def test_determinism_across_execution_orders():
    def noisy(mid, store, inbox, rng):
        vals = tuple(sorted(v for _, _, v in inbox))
        out = [((mid + 1) % 4, "r", rng.randrange(1000))]
        return {**store, "seen": vals}, out

    traces = []
    for order in (None, [3, 2, 1, 0], [1, 3, 0, 2]):
        cl = Cluster(cfg(4, seed=9), exec_order=order)
        for _ in range(5):
            cl.run_round(noisy)
        traces.append(
            (
                [tuple(r.peak_words) for r in cl.rounds],
                [tuple(sorted(s.items())) for s in cl.stores],
            )
        )
    assert traces[0] == traces[1] == traces[2]


def test_seed_changes_rng_stream():
    assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)
    assert derive_seed(1, 0, 0) != derive_seed(1, 1, 0)
    assert derive_seed(1, 0, 0) != derive_seed(1, 0, 1)
    assert derive_seed(1, 0, 0) == derive_seed(1, 0, 0)


def test_accounting_soundness_shadow_counter():
    """Engine-reported peak upper-bounds an independent recomputation of
    every checkpoint footprint."""

    def busy(mid, store, inbox, rng):
        blob = tuple(range(mid + 3))
        out = [((mid + 1) % 3, "blob", blob)]
        return {**store, "blob": blob}, out

    cl = Cluster(cfg(3, seed=4))
    shadow = []

    def wrapped(mid, store, inbox, rng):
        new_store, outbox = busy(mid, store, inbox, rng)
        checkpoint1 = store_words(store) + sum(words(v) for _, _, v in inbox)
        checkpoint2 = store_words(new_store) + sum(words(v) for _, _, v in outbox)
        shadow.append((mid, max(checkpoint1, checkpoint2)))
        return new_store, outbox

    for _ in range(4):
        rec = cl.run_round(wrapped)
        for mid, footprint in shadow:
            assert rec.peak_words[mid] >= footprint
        shadow.clear()


def test_pure_step_replay():
    """A recorded machine step replays to the identical result."""

    def step(mid, store, inbox, rng):
        draw = rng.randrange(100)
        return {**store, "draw": draw}, [((mid + 1) % 2, "d", draw)]

    cl = Cluster(cfg(2, seed=31))
    cl.run_round(step)
    from random import Random

    replay_rng = Random(derive_seed(31, 0, 1))
    new_store, outbox = step(1, {}, (), replay_rng)
    assert new_store["draw"] == cl.stores[1]["draw"]


def test_retry_policy():
    calls = []

    def attempt(cluster):
        calls.append(cluster.config.seed)
        if len(calls) < 3:
            raise WhpFailure("unlucky sample")
        return "done", 1, {}

    result = run_with_retries(cfg(1, seed=10, retry_cap=3), attempt)
    assert result.value == "done"
    assert calls == [10, 11, 12]  # seed+1 per retry
    assert [a.failure for a in result.attempts] == ["unlucky sample", "unlucky sample", None]

    def always_fail(cluster):
        raise WhpFailure("nope")

    with pytest.raises(RetriesExhausted) as err:
        run_with_retries(cfg(1, seed=0, retry_cap=2), always_fail)
    assert len(err.value.attempts) == 3


def test_free_broadcast_ablation():
    cl = Cluster(cfg(9, fanout=3, free_broadcast=True))
    rounds = cl.broadcast("p", Payload("x"))
    assert rounds == 0
    assert all("p" in s for s in cl.stores)
    assert cl.total_rounds() == 0


def test_trace_json_shape(tmp_path):
    def attempt(cluster):
        cluster.run_round(idle, "one")
        return "ok", 1, {"series": [1, 2]}

    config = cfg(2, seed=5)
    result = run_with_retries(config, attempt)
    doc = result.trace_dict(config)
    assert doc["schema"] == 1
    assert doc["total_rounds"] == 1
    assert doc["attempts"][0]["failure"] is None
    text = json.dumps(doc, sort_keys=True)
    assert "series" in text


def deep_payload_audit(cluster):
    """Every cached word size must equal a from-scratch count: each
    Payload's, each machine's store total, and each in-flight message's.

    Cached sizes stay honest only while no step mutates a store value or
    a sent value in place.
    """
    for mid, store in enumerate(cluster.stores):
        for value in store.values():
            if isinstance(value, Payload):
                assert words(value.value) == value.word_size
        assert cluster._store_words[mid] == store_words(store)
    for box in cluster._pending:
        for _, _, value, size in box:
            assert size == words(value)


@pytest.fixture
def audit_every_round(monkeypatch):
    """Recount each round's received and sent words from scratch and run
    deep_payload_audit after every round of every cluster."""
    run_round = Cluster.run_round

    def audited(cluster, step, label=""):
        received = [sum(words(v) for _, _, v, _ in box) for box in cluster._pending]
        record = run_round(cluster, step, label)
        sent = [0] * cluster.machine_count
        for box in cluster._pending:
            for sender, _, value, _ in box:
                sent[sender] += words(value)
        assert record.words_received == tuple(received)
        assert record.words_sent == tuple(sent)
        deep_payload_audit(cluster)
        return record

    monkeypatch.setattr(Cluster, "run_round", audited)


def test_driver_payload_sizes_are_honest(audit_every_round):
    from mpcgraph.colouring import edge_colouring, vertex_colouring
    from mpcgraph.hungry import maximal_clique, mis_fast, mis_simple
    from mpcgraph.instances import generate_graph, generate_set_cover
    from mpcgraph.parallel_setcover import approx_sc_lnDelta
    from mpcgraph.rlr_matching import approx_b_matching, approx_max_matching
    from mpcgraph.rlr_setcover import approx_sc_f, vertex_cover_2approx

    g = generate_graph(24, "1/2", (1, 9), seed=14)
    deep_payload_audit(approx_max_matching(g, mu="1/5", seed=3).cluster)
    deep_payload_audit(approx_b_matching(g, 2, Fraction(1, 10), seed=3).cluster)
    deep_payload_audit(mis_simple(g, mu="1/5", seed=3).cluster)
    deep_payload_audit(mis_fast(g, mu="1/5", seed=3).cluster)
    deep_payload_audit(maximal_clique(g, mu="1/5", seed=3).cluster)
    deep_payload_audit(vertex_cover_2approx(g, seed=3).cluster)
    deep_payload_audit(vertex_colouring(g, seed=3).cluster)
    deep_payload_audit(edge_colouring(g, seed=3).cluster)
    inst = generate_set_cover(10, 30, 0.2, (1, 9), seed=15)
    deep_payload_audit(approx_sc_f(inst, mu="1/5", seed=3).cluster)
    deep_payload_audit(approx_sc_lnDelta(inst, Fraction(1, 10), seed=3).cluster)
