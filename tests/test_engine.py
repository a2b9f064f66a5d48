import gc
import json
from collections import namedtuple
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpcgraph import cli, engine
from mpcgraph.engine import (
    Cluster,
    ClusterConfig,
    MemoryExceeded,
    OversizedMessage,
    Payload,
    RetriesExhausted,
    StepRandom,
    WhpFailure,
    derive_seed,
    run_with_retries,
    store_words,
    words,
)
from mpcgraph.exactmath import below, binomial, sample
from mpcgraph.instances import generate_graph, generate_set_cover


def idle(mid, store, inbox, rng):
    return store, []


def cfg(machines, budget=10_000, fanout=2, seed=1, retry_cap=3):
    # n = 4 and mu = 1/5, so eta = floor(4^(6/5)) = 5
    return ClusterConfig(
        n=4,
        mu=Fraction(1, 5),
        c=None,
        eta=5,
        machine_count=machines,
        memory_budget_words=budget,
        fanout=fanout,
        seed=seed,
        retry_cap=retry_cap,
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


def test_plain_messages_may_use_delivery_prefixes():
    """Only broadcast and aggregate waves make engine deliveries; a step of
    an ordinary round may send any key, and its receiver sees it."""
    cl = Cluster(cfg(2))
    cl.run_round(lambda mid, s, i, rng: (s, [(1, "bc:x", 5), (1, "agg:y", (1, 2))] if mid == 0 else []), "send")
    seen = {}

    def recv(mid, store, inbox, rng):
        seen[mid] = (store, inbox)
        return store, []

    rec = cl.run_round(recv, "recv")
    assert seen[1] == ({}, ((0, "agg:y", (1, 2)), (0, "bc:x", 5)))
    assert rec.words_received == (0, 3)


def test_round_indices_strictly_increase():
    cl = Cluster(cfg(2))
    for _ in range(4):
        cl.run_round(idle)
    assert [r.index for r in cl.rounds] == [0, 1, 2, 3]


def holds(cl: Cluster, mid: int, key: str) -> bool:
    """``key`` sits in machine ``mid``'s store or in a broadcast delivery
    on its way to that machine."""
    return key in cl.stores[mid] or any(k == "bc:" + key for _, k, _, _ in cl._deliveries[mid])


def test_broadcast_round_counts():
    for machines, fanout, expect in ((9, 3, 2), (1, 3, 0), (100, 10, 2), (11, 10, 2), (5, 2, 3)):
        cl = Cluster(cfg(machines, fanout=fanout))
        cl.stores[0]["p"] = Payload("hello")
        rounds = cl.broadcast("p", Payload("hello"))
        assert rounds == expect
        assert all(holds(cl, m, "p") for m in range(machines))
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


def test_aggregate_probe_compares_payload_folds():
    """A combine that returns Payloads is probed by value and declared size."""

    def fold(combine, sizes=(1, 1, 1)):
        cl = Cluster(cfg(3, fanout=2))
        for m, (v, size) in enumerate(zip([2, 3, 5], sizes)):
            cl.preload(m, "v", Payload(v, size))
        return cl.aggregate("v", combine)[0]

    total = fold(lambda a, b: Payload(a.value + b.value, 1))
    assert (total.value, total.word_size) == (10, 1)
    with pytest.raises(AssertionError, match="not associative"):
        fold(lambda a, b: Payload(a.value - b.value, 1))
    # Equal values, but the size follows the left operand.
    with pytest.raises(AssertionError, match="not commutative"):
        fold(lambda a, b: Payload(a.value + b.value, a.word_size), sizes=(1, 2, 3))


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


def test_inbox_sorted_by_sender_then_key():
    # Machines run from the highest id down, and each sends "b" before
    # "a", so the inbox arrives in neither order.
    def send(mid, store, inbox, rng):
        return store, ([(0, "b", mid), (0, "a", mid)] if mid else [])

    def record(mid, store, inbox, rng):
        return ({**store, "inbox": inbox} if mid == 0 else store), []

    cl = Cluster(cfg(3), exec_order=[2, 1, 0])
    cl.run_round(send)
    cl.run_round(record)
    assert cl.stores[0]["inbox"] == ((1, "a", 1), (1, "b", 1), (2, "a", 2), (2, "b", 2))


@st.composite
def traffic(draw):
    """A machine count, an execution order (the default or a permutation)
    and a list of rounds: plain rounds and single delivery waves whose
    machines send drawn (dst, key) messages in arbitrary order, and real
    broadcasts and aggregates."""
    m = draw(st.integers(1, 5))
    order = draw(st.one_of(st.none(), st.permutations(range(m))))
    keys = st.sampled_from(["a", "b", "c", "bc:a", "agg:b"])
    sends = st.lists(st.tuples(st.integers(0, m - 1), keys), max_size=5)
    kinds = st.sampled_from(["plain", "wave", "broadcast", "aggregate"])
    rounds = draw(st.lists(st.tuples(kinds, st.lists(sends, min_size=m, max_size=m)), min_size=1, max_size=6))
    return m, order, rounds


@given(traffic())
def test_every_inbox_and_delivery_arrives_in_sender_key_order(case):
    """Whatever the execution order and the order of sends, each step's
    inbox, and the deliveries each machine absorbs, are the stable
    (sender, key) sort of what was sent to it in the round before."""
    m, order, rounds = case
    log = []  # per round: whether it was a wave, and mid -> (inbox, absorbed, outbox)
    absorbed = []
    run_round, absorb = Cluster.run_round, Cluster._absorb

    def recording_absorb(store, deliveries):
        result = absorb(store, deliveries)
        absorbed.append(list(deliveries))
        return result

    def recording_run_round(cluster, step, label=""):
        calls = {}

        def recorded(mid, store, inbox, rng):
            new_store, outbox = step(mid, store, inbox, rng)
            calls[mid] = (inbox, absorbed.pop() if absorbed else None, list(outbox))
            return new_store, outbox

        log.append((cluster._delivering, calls))
        return run_round(cluster, recorded, label)

    def sender(sends, wave=False):
        def step(mid, store, inbox, rng):
            out = []
            for i, (dst, key) in enumerate(sends[mid]):
                if wave and ":" not in key:
                    key = "agg:" + key
                out.append((dst, key, (dst, mid, i)))
            return store, out

        return step

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Cluster, "run_round", recording_run_round)
        patch.setattr(Cluster, "_absorb", staticmethod(recording_absorb))
        cl = Cluster(cfg(m), exec_order=order)
        for mid in range(m):
            cl.preload(mid, "v", mid)
        for kind, sends in rounds:
            if kind == "plain":
                cl.run_round(sender(sends), "plain")
            elif kind == "wave":
                cl._waves(lambda wave: sender(sends, wave=True), 1, "wave")
            elif kind == "broadcast":
                cl.broadcast("p", (1, 2))
            else:
                cl.aggregate("v", lambda a, b: a + b)
        cl.run_round(idle, "last")

    assert all(call[:2] == ((), None) for call in log[0][1].values())
    for (wave, before), (_, after) in zip(log, log[1:]):
        for mid in range(m):
            sent = [(src, key, value) for src in range(m) for dst, key, value in before[src][2] if dst == mid]
            expected = sorted(sent, key=lambda t: (t[0], t[1]))
            inbox, delivered, _ = after[mid]
            if wave:
                assert inbox == ()
                assert delivered == ([(*t, words(t[2])) for t in expected] or None)
            else:
                assert list(inbox) == expected
                assert delivered is None


def test_seed_changes_rng_stream():
    assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)
    assert derive_seed(1, 0, 0) != derive_seed(1, 1, 0)
    assert derive_seed(1, 0, 0) != derive_seed(1, 0, 1)
    assert derive_seed(1, 0, 0) == derive_seed(1, 0, 0)


# Arguments of each draw, from one small integer k: of a Random method, or
# of a kernel draw from exactmath (the "exact." names), which reads the
# RNG's getrandbits or random.
_DRAW_ARGS = {
    "random": lambda k: (),
    "getrandbits": lambda k: (k + 1,),
    "randrange": lambda k: (3**k + 1,),
    "randint": lambda k: (-k, k),
    "sample": lambda k: (range(k + 5), min(k, 5)),
    "choice": lambda k: (range(k + 1),),
    "shuffle": lambda k: (list(range(k)),),
    "exact.below": lambda k: (3**k + 1,),
    "exact.sample": lambda k: (range(k * k + 5), min(k, 12)),  # both branches
    "exact.binomial": lambda k: (10 * k, 0.3),
}
_KERNEL = {
    "exact.below": lambda rng, n: below(rng.getrandbits, n),
    "exact.sample": sample,
    "exact.binomial": binomial,
}


def _draw(rng, bound: dict, name: str, k: int):
    """One draw from ``rng``, through the method in ``bound`` if it holds one."""
    args = _DRAW_ARGS[name](k)
    if name in _KERNEL:
        return _KERNEL[name](rng, *args)
    result = bound.get(name, getattr(rng, name))(*args)
    return args[0] if name == "shuffle" else result


@given(
    st.integers(0, 2**40),
    st.integers(0, 10**5),
    st.integers(0, 500),
    st.lists(
        st.tuples(st.sampled_from(sorted(_DRAW_ARGS)), st.integers(0, 70), st.booleans()),
        min_size=1,
        max_size=12,
    ),
)
def test_step_random_draws_like_an_eagerly_seeded_random(seed, round_index, mid, draws):
    """Every draw, also through a method bound before the first one, equals
    the draw from Random(derive_seed(...)); so does the state after."""
    lazy = StepRandom(seed, round_index, mid)
    early = {name: getattr(lazy, name) for name in _DRAW_ARGS if name not in _KERNEL}
    eager = Random(derive_seed(seed, round_index, mid))
    for name, k, through_early in draws:
        got = _draw(lazy, early if through_early else {}, name, k)
        assert got == _draw(eager, {}, name, k)
    assert lazy.getstate() == eager.getstate()


def test_step_random_state_methods():
    eager = Random(derive_seed(3, 4, 5))
    assert StepRandom(3, 4, 5).getstate() == eager.getstate()
    reseeded = StepRandom(3, 4, 5)
    reseeded.seed(11)
    assert reseeded.random() == Random(11).random()
    restored = StepRandom(3, 4, 5)
    restored.setstate(Random(12).getstate())
    assert restored.random() == Random(12).random()


def test_step_rng_seeds_only_when_read(monkeypatch):
    """A step's RNG derives its seed when a step first reads it, never
    for a step that does not, and reads data attributes from the live
    generator."""
    calls = []

    def counted(*key):
        calls.append(key)
        return derive_seed(*key)

    monkeypatch.setattr(engine, "derive_seed", counted)
    cl = Cluster(cfg(4))
    cl.run_round(idle)
    assert calls == []
    cl.run_round(lambda mid, store, inbox, rng: ({**store, "x": rng.random()}, []))
    assert calls == [(1, 1, mid) for mid in range(4)]
    lazy, eager = StepRandom(3, 4, 5), Random(derive_seed(3, 4, 5))
    for _ in range(2):
        assert lazy.gauss() == eager.gauss()
        assert lazy.gauss_next == eager.gauss_next


def test_round_that_ignores_rng_matches_one_that_draws():
    """A step that never touches its RNG leaves the round record and the
    next round's draws as they are when it draws and discards."""

    def ignoring(mid, store, inbox, rng):
        return {**store, "v": mid}, [((mid + 1) % 3, "x", mid)]

    def drawing(mid, store, inbox, rng):
        rng.random()
        return ignoring(mid, store, inbox, rng)

    def sampling(mid, store, inbox, rng):
        return {**store, "draws": (rng.random(), rng.randrange(10**9))}, []

    outcomes = []
    for first in (ignoring, drawing):
        cl = Cluster(cfg(3, seed=7))
        record = cl.run_round(first, "first")
        cl.run_round(sampling, "next")
        outcomes.append((record, [s["draws"] for s in cl.stores]))
    assert outcomes[0] == outcomes[1]
    expected = []
    for mid in range(3):
        rng = Random(derive_seed(7, 1, mid))
        expected.append((rng.random(), rng.randrange(10**9)))
    assert outcomes[0][1] == expected


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


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("failures", [0, 1, 3])
def test_run_with_retries_restores_gc_state(collecting, failures):
    """The collector is off during every attempt and, after the run, as it
    was at entry: whether the run succeeds at once, after a retry, or
    raises RetriesExhausted."""
    states = []

    def attempt(cluster):
        states.append(gc.isenabled())
        if len(states) <= failures:
            raise WhpFailure("unlucky sample")
        return "done", 1, {}

    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if failures > 2:
            with pytest.raises(RetriesExhausted):
                run_with_retries(cfg(1, retry_cap=2), attempt)
        else:
            run_with_retries(cfg(1, retry_cap=2), attempt)
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert states == [False] * min(failures + 1, 3)


RUN_ARGS = SimpleNamespace(epsilon="1/10", b=2, kappa=None, vertex_weights=None)


@pytest.mark.parametrize("failure", [None, "fail", "memory"])
@pytest.mark.parametrize("name", sorted(cli.ALGORITHMS))
def test_runs_leave_no_cyclic_garbage(name, failure, monkeypatch):
    """A run, retries included, leaves nothing that only the cyclic
    collector can free: what makes pausing it in run_with_retries safe.
    With ``failure`` set, the first attempt fails in its third round, by a
    declared failure or a memory fault."""
    spec = cli.ALGORITHMS[name]
    if spec.problem.graph_input:
        instance = generate_graph(24, "1/2", (1, 9), seed=14)
    else:
        instance = generate_set_cover(10, 30, 0.2, (1, 9), seed=15)
    run_round = Cluster.run_round

    def failing(cluster, step, label=""):
        if cluster.config.seed == 3 and len(cluster.rounds) == 2:
            if failure == "fail":
                cluster.fail("forced")
            budget = cluster.config.memory_budget_words
            step = lambda mid, store, inbox, rng: ({**store, "blob": tuple(range(budget))}, [])  # noqa: E731
        return run_round(cluster, step, label)

    if failure:
        monkeypatch.setattr(Cluster, "run_round", failing)
    gc.collect()
    result = spec.run(instance, spec.problem.aux(RUN_ARGS), RUN_ARGS, {"mu": Fraction(1, 5), "seed": 3})
    assert len(result.attempts) == (2 if failure else 1)
    del result
    assert gc.collect() == 0


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


def recount(value) -> int:
    """A message's words counted from scratch: a Payload's from its value,
    not from the size its sender declared."""
    return words(value.value) if isinstance(value, Payload) else words(value)


def deep_payload_audit(cluster):
    """Every cached word size must equal a from-scratch count: each
    Payload's, each machine's store total, each in-flight delivery's and
    each machine's in-flight total.

    Cached sizes stay honest only while no step mutates a store value or
    a sent value in place.
    """
    for mid, store in enumerate(cluster.stores):
        for value in store.values():
            if isinstance(value, Payload):
                assert words(value.value) == value.word_size
        assert cluster._store_words[mid] == store_words(store)
    for box in cluster._deliveries:
        for _, _, value, size in box:
            assert size == recount(value)
    assert cluster._pending_words == in_flight_words(cluster)


def in_flight_words(cluster) -> list[int]:
    """Each machine's words on their way to it, counted from scratch over
    its plain messages and its engine deliveries."""
    return [
        sum(recount(v) for _, _, v in plain) + sum(recount(v) for _, _, v, _ in delivered)
        for plain, delivered in zip(cluster._pending, cluster._deliveries)
    ]


@pytest.fixture
def audit_every_round(monkeypatch):
    """Recount each round's received and sent words from scratch and run
    deep_payload_audit after every round of every cluster."""
    run_round = Cluster.run_round

    def audited(cluster, step, label=""):
        received = in_flight_words(cluster)
        record = run_round(cluster, step, label)
        sent = [0] * cluster.machine_count
        for box in cluster._pending + cluster._deliveries:
            for sender, _, value, *_ in box:
                sent[sender] += recount(value)
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


@pytest.mark.parametrize("wave", [False, True])
def test_audit_catches_a_misdeclared_message_size(wave, audit_every_round):
    """A message whose Payload declares fewer words than it holds, sent
    plain or as a delivery, fails the audit."""

    def lying(mid, store, inbox, rng):
        return store, ([(1, "agg:x" if wave else "x", Payload((1, 2, 3), 2))] if mid == 0 else [])

    cl = Cluster(cfg(2))
    with pytest.raises(AssertionError):
        if wave:
            cl._waves(lambda _: lying, 1, "lie")
        else:
            cl.run_round(lying, "lie")
