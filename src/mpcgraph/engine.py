"""Simulated MapReduce cluster: rounds, messages, memory accounting.

Machines execute pure step functions against their store and inbox.
Messages sent in round r are delivered into inboxes at the start of round
r+1; a machine "holds" a value once it sits in its store or its inbox.
Every payload is sized in words (one word per integer/rational/id) and
checked against the per-machine budget; violations abort the run with the
trace preserved.

Two kinds of message travel.  A plain message, sent by a step of an
ordinary round, is stored once, as the (sender, key, value) its receiver
sees in its inbox, whatever its key.  An engine delivery is what the
waves of ``broadcast`` and ``aggregate`` send (keys "bc:<name>" and
"agg:<name>"); it goes to a separate list and lands in its receiver's
store instead (a broadcast payload, or a fold part).

Accounting is proportional to what changed.  Each message is sized once,
at send: its words are added to its receiver's in-flight total, and a
delivery also carries its size into the store.  A flat message (a scalar,
or a tuple of scalars) is sized inline, and a ``Payload`` message carries
the size its sender declared, which must equal ``words`` of its value;
only other messages go through ``words``.  Each machine keeps the
size of every store value it has seen; when a step returns a new store,
only the values that are not the same objects as before are sized again.
So a step must never mutate a store value, or a value it has sent, in
place: it builds a new one instead.

Determinism: a machine step's RNG is Random(derive_seed(seed, round,
machine id)), and every inbox and delivery list is in (sender, key) order
by construction: once all steps of a round have run, the senders'
outboxes are dispatched in ascending sender order, each stably sorted by
key when it mixes keys, so no inbox is ever sorted.  Traces are
byte-identical for a fixed ClusterConfig regardless of execution order.
The RNG hashes and seeds at its first use (``StepRandom``), so a step
that never draws costs no seeding and sees the same stream if it does.

``run_with_retries`` pauses Python's cyclic garbage collector for a whole
run, and the instance generators pause it while they build.  That is safe
because the messages, stores and records a run makes, and the instances a
generator builds, form no reference cycles: reference counting frees each
as it dies, and the collector would only walk the many live ones again and
again.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import itemgetter
from random import Random
from typing import Callable, NoReturn, Sequence

from .exactmath import as_fraction, collector_paused, frac_str, ipow_ceil, ipow_floor, log_ceil


class EngineFailure(Exception):
    """Engine-detected budget violation; the run aborts, trace preserved."""

    def __init__(self, machine: int, words: int, detail: str = ""):
        self.machine = machine
        self.words = words
        super().__init__(f"machine {machine}: {words} words {detail}".rstrip())


class MemoryExceeded(EngineFailure):
    pass


class OversizedMessage(EngineFailure):
    pass


class WhpFailure(Exception):
    """An algorithm-declared failure event (a "fail" line fired)."""


class RetriesExhausted(Exception):
    def __init__(self, attempts: list):
        self.attempts = attempts
        super().__init__(f"run failed in all {len(attempts)} attempts")


class Payload:
    """Immutable value with a precomputed word size.

    Wrapping the large static parts of a store (edge shards, adjacency)
    keeps per-round accounting proportional to what changed.
    """

    __slots__ = ("value", "word_size")

    def __init__(self, value, word_size: int | None = None):
        self.value = value
        self.word_size = words(value) if word_size is None else word_size

    def __repr__(self):
        return f"Payload({self.word_size}w)"


_ONE_WORD = (int, str, Fraction, bool, float)
_SCALARS = frozenset(_ONE_WORD)
_COLLECTIONS = frozenset((tuple, list, set, frozenset))


def words(obj) -> int:
    """Word count of a message or store value."""
    # Exact-type fast path; subclasses (namedtuples, ...) fall through to
    # the isinstance checks below and get the same counts.
    kind = type(obj)
    if kind in _SCALARS:
        return 1
    if kind in _COLLECTIONS:
        total = len(obj)
        for x in obj:
            if type(x) not in _SCALARS:
                total += words(x) - 1
        return total
    if kind is dict:
        total = 2 * len(obj)
        for k, v in obj.items():
            if type(k) not in _SCALARS:
                total += words(k) - 1
            if type(v) not in _SCALARS:
                total += words(v) - 1
        return total
    if isinstance(obj, Payload):
        return obj.word_size
    if isinstance(obj, _ONE_WORD):
        return 1
    if obj is None:
        return 0
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(words(x) for x in obj)
    if isinstance(obj, dict):
        return sum(words(k) + words(v) for k, v in obj.items())
    raise TypeError(f"unsized payload type {type(obj).__name__}")


def gather(inbox, key: str) -> list:
    """The values of the messages in ``inbox`` sent under ``key``, in inbox
    order (by sender)."""
    return [value for _, k, value in inbox if k == key]


def gather_concat(inbox, key: str) -> list:
    """The list-valued messages sent under ``key``, concatenated in inbox
    order."""
    out = []
    for _, k, value in inbox:
        if k == key:
            out.extend(value)
    return out


def central(step: Callable) -> Callable:
    """A round step that runs on the central machine only: ``step(store,
    inbox) -> (new_store, outbox)``; every other machine idles.  The wrapper
    keeps the step's name and module."""

    @functools.wraps(step)
    def on_central(mid, store, inbox, rng):
        if mid != 0:
            return store, []
        return step(store, inbox)

    return on_central


def store_words(store: dict) -> int:
    # Top-level keys are labels, not data.
    return sum(words(v) for v in store.values())


def derive_seed(seed: int, round_index: int, machine_id: int) -> int:
    blob = f"{seed}:{round_index}:{machine_id}".encode("ascii")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class StepRandom:
    """``Random(derive_seed(seed, round_index, machine_id))``, hashed and
    seeded at its first use.

    The first attribute read builds that ``Random``.  A method read is
    kept on this object, so later calls skip ``__getattr__`` and run
    ``Random``'s own bound method; a data attribute such as
    ``gauss_next`` is read through each time, since draws change it.
    """

    def __init__(self, seed: int, round_index: int, machine_id: int):
        self._key = (seed, round_index, machine_id)
        self._rng = None

    def __getattr__(self, name: str):
        if self._rng is None:
            self._rng = Random(derive_seed(*self._key))
        value = getattr(self._rng, name)
        if callable(value):
            setattr(self, name, value)
        return value


# The constant factor of every algorithm's memory budget formula.
BUDGET_FACTOR = 8


@dataclass(frozen=True)
class ClusterConfig:
    """The (n, c, mu, eta, fanout, budget) regime of a simulated cluster.

    Algorithms build theirs with ``cluster_config``.
    """

    n: int
    mu: Fraction
    c: Fraction | None
    eta: int
    machine_count: int
    memory_budget_words: int
    fanout: int
    seed: int
    retry_cap: int

    def __post_init__(self):
        if self.machine_count < 1:
            raise ValueError("machine_count must be >= 1")
        if self.fanout < 2:
            raise ValueError("fanout must be >= 2")
        if self.memory_budget_words < 1:
            raise ValueError("memory budget must be positive")

    def to_dict(self) -> dict:
        """Every field, with the exponents as exact rational strings."""
        fields = dict(vars(self))
        fields["mu"] = frac_str(self.mu)
        fields["c"] = None if self.c is None else frac_str(self.c)
        return fields


def cluster_config(
    n: int,
    items: int,
    budget: Callable[[ClusterConfig], int] | None,
    *,
    mu="1/5",
    c=None,
    seed: int = 0,
    eta: int | None = None,
    memory_budget_words: int | None = None,
    retry_cap: int = 3,
) -> ClusterConfig:
    """The regime of one algorithm's cluster.

    ``n`` is the algorithm's scale parameter and ``items`` the number of
    input items it shards eta to a machine.  machine_count = ceil(items/eta)
    (at least 1) and fanout = ceil(n^mu) (at least 2).  eta defaults to
    floor(n^(1+mu)), and the memory budget to ``budget(config)``, the
    algorithm's formula evaluated on the finished config.
    """
    mu = as_fraction(mu)
    if eta is None:
        eta = ipow_floor(n, 1 + mu)
    config = ClusterConfig(
        n=n,
        mu=mu,
        c=None if c is None else as_fraction(c),
        eta=eta,
        machine_count=max(1, -(-items // max(1, eta))),
        memory_budget_words=1 if memory_budget_words is None else memory_budget_words,
        fanout=max(2, ipow_ceil(n, mu)),
        seed=seed,
        retry_cap=retry_cap,
    )
    if memory_budget_words is None:
        config = replace(config, memory_budget_words=budget(config))
    return config


@dataclass
class RoundRecord:
    index: int
    label: str
    messages: int
    words_received: tuple[int, ...]
    words_sent: tuple[int, ...]
    peak_words: tuple[int, ...]
    failure: str | None = None

    def to_dict(self, verbose: bool) -> dict:
        base = {
            "index": self.index,
            "label": self.label,
            "messages": self.messages,
            "peak": max(self.peak_words),
            "failure": self.failure,
        }
        if verbose:
            base["words_received"] = list(self.words_received)
            base["words_sent"] = list(self.words_sent)
            base["peak_words"] = list(self.peak_words)
        return base


# Key prefixes of the engine deliveries that broadcast and aggregate send.
_BC = "bc:"
_AGG = "agg:"
_KEY = itemgetter(1)  # of an outbox entry (dst, key, value)


class Cluster:
    """A fleet of machines run in lockstep rounds.  Machine 0 is central."""

    def __init__(self, config: ClusterConfig, exec_order: Sequence[int] | None = None):
        self.config = config
        m = config.machine_count
        self.stores: list[dict] = [dict() for _ in range(m)]
        self._store_words: list[int] = [0] * m
        # Per machine: store key -> (value, its word size).
        self._sizes: list[dict] = [dict() for _ in range(m)]
        # Per destination, what was sent to it this round: the plain messages
        # (sender, key, value), exactly as its next step will see them; the
        # engine deliveries (sender, "bc:"/"agg:" key, value, word size) of
        # a collective wave; and the words of both together.
        self._pending: list[list[tuple[int, str, object]]] = [[] for _ in range(m)]
        self._deliveries: list[list[tuple[int, str, object, int]]] = [[] for _ in range(m)]
        self._pending_words: list[int] = [0] * m
        # Set while broadcast/aggregate run their waves: what those steps
        # send goes to the deliveries.
        self._delivering = False
        self.rounds: list[RoundRecord] = []
        self._order = list(range(m)) if exec_order is None else list(exec_order)

    # -- state inspection -------------------------------------------------

    @property
    def machine_count(self) -> int:
        return self.config.machine_count

    def preload(self, mid: int, key: str, value) -> None:
        """Initial input placement (before round 0); not a charged round."""
        if self.rounds:
            raise RuntimeError("preload only before the first round")
        self.stores[mid][key] = value
        self._store_words[mid] = self._sized(mid, self.stores[mid])

    def total_rounds(self) -> int:
        return len(self.rounds)

    def peak_words(self) -> int:
        return max((max(r.peak_words) for r in self.rounds), default=0)

    def fail(self, reason: str) -> NoReturn:
        """Flag the most recent round with an algorithm-declared failure and
        abort the attempt."""
        if self.rounds:
            self.rounds[-1].failure = reason
        raise WhpFailure(reason)

    # -- round execution ---------------------------------------------------

    def run_round(self, step: Callable, label: str = "") -> RoundRecord:
        """Run one synchronous round.

        ``step(machine_id, store, inbox, rng) -> (new_store, outbox)`` must
        be a pure function; the outbox is a list of (dst, key, value).
        """
        idx = len(self.rounds)
        m = self.config.machine_count
        budget = self.config.memory_budget_words
        inboxes, deliveries, received = self._pending, self._deliveries, self._pending_words
        self._pending = [[] for _ in range(m)]
        self._deliveries = [[] for _ in range(m)]
        pending_words = self._pending_words = [0] * m
        delivering = self._delivering
        outgoing = self._deliveries if delivering else self._pending
        outboxes: list = [()] * m
        new_stores: list[dict] = list(self.stores)
        new_words: list[int] = list(self._store_words)

        for mid in self._order:
            store = absorbed = self.stores[mid]
            delivered = None
            if deliveries[mid]:
                absorbed, delivered = self._absorb(store, deliveries[mid])
            rng = StepRandom(self.config.seed, idx, mid)
            new_store, outboxes[mid] = step(mid, absorbed, tuple(inboxes[mid]), rng)
            if new_store is not store:
                if delivered:
                    self._sizes[mid].update(delivered)
                new_words[mid] = self._sized(mid, new_store)
            new_stores[mid] = new_store

        # Senders go in ascending order, each with its outbox stably sorted
        # by key, so every inbox and delivery list fills in (sender, key)
        # order whatever the execution order.  Each outbox is let go once
        # dispatched, so the round holds one copy of its messages.
        sent = [0] * m
        peaks = [0] * m
        messages = 0
        violations: list[tuple[str, int, int]] = []
        for mid in range(m):
            outbox, outboxes[mid] = outboxes[mid], ()
            if len(outbox) > 1 and len(set(map(_KEY, outbox))) > 1:
                outbox = sorted(outbox, key=_KEY)
            out_words = 0
            for dst, key, value in outbox:
                if not (0 <= dst < m):
                    raise ValueError(f"message to unknown machine {dst}")
                kind = type(value)
                if kind in _SCALARS:
                    size = 1
                elif kind is Payload:
                    size = value.word_size
                elif kind is tuple and _SCALARS.issuperset(map(type, value)):
                    size = len(value)
                else:
                    size = words(value)
                out_words += size
                pending_words[dst] += size
                if delivering:
                    outgoing[dst].append((mid, key, value, size))
                else:
                    outgoing[dst].append((mid, key, value))
            messages += len(outbox)
            sent[mid] = out_words
            peak = max(self._store_words[mid] + received[mid], new_words[mid] + out_words)
            peaks[mid] = peak
            if out_words > budget:
                violations.append(("oversized", mid, out_words))
            elif peak > budget:
                violations.append(("memory", mid, peak))

        self.stores = new_stores
        self._store_words = new_words
        record = RoundRecord(
            index=idx,
            label=label,
            messages=messages,
            words_received=tuple(received),
            words_sent=tuple(sent),
            peak_words=tuple(peaks),
        )
        self.rounds.append(record)
        if violations:
            kind, mid, w = violations[0]
            record.failure = f"{'OversizedMessage' if kind == 'oversized' else 'MemoryExceeded'}(machine={mid}, words={w})"
            if kind == "oversized":
                raise OversizedMessage(mid, w, f"outbox in round {idx} ({label})")
            raise MemoryExceeded(mid, w, f"peak in round {idx} ({label})")
        return record

    def _sized(self, mid: int, store: dict) -> int:
        """Words in ``store``, sizing only values not cached for ``mid``."""
        cache = self._sizes[mid]
        sizes = {}
        total = 0
        for key, value in store.items():
            entry = cache.get(key)
            if entry is None or entry[0] is not value:
                entry = (value, words(value))
            sizes[key] = entry
            total += entry[1]
        self._sizes[mid] = sizes
        return total

    @staticmethod
    def _absorb(store: dict, deliveries: list) -> tuple[dict, dict]:
        """Apply engine deliveries (broadcast payloads, fold parts).

        Returns the store the step sees and the (value, words) of every
        store key the deliveries wrote, from the sizes the deliveries carry.
        """
        delivered: dict[str, tuple] = {}
        for _, key, value, size in deliveries:
            if key.startswith(_BC):
                delivered[key[len(_BC) :]] = (value, size)
            else:
                name = key[len(_AGG) :] + "__parts"
                parts, total = delivered.get(name) or ([], 0)
                parts.append(value)
                delivered[name] = (parts, total + size)
        staged = dict(store)
        for name, (value, _) in delivered.items():
            staged[name] = value
        return staged, delivered

    def _waves(self, make_step: Callable, depth: int, label: str) -> None:
        """Run a collective's ``depth`` waves; what their steps send are
        engine deliveries."""
        self._delivering = True
        try:
            for wave in range(1, depth + 1):
                self.run_round(make_step(wave), label=f"{label}[{wave}/{depth}]")
        finally:
            self._delivering = False

    # -- collective operations ---------------------------------------------

    def broadcast(self, key: str, value, label: str = "broadcast") -> int:
        """Disseminate a payload from machine 0 over the fanout-ary tree.

        Uses ceil(log_fanout(M)) charged rounds; each sender emits at most
        fanout-1 copies per round.  After completion every machine holds
        the payload (store or inbox); from the next round on, every step
        reads it as ``store[key].value``.
        """
        m = self.config.machine_count
        payload = value if isinstance(value, Payload) else Payload(value)
        if m == 1:
            self.stores[0][key] = payload
            self._store_words[0] = self._sized(0, self.stores[0])
            return 0
        k = self.config.fanout
        depth = log_ceil(m, k)

        def make_step(wave: int):
            reach = k ** (wave - 1)

            def bstep(mid, store, inbox, rng):
                out = []
                if mid < reach and (mid == 0 or key in store):
                    for j in range(1, k):
                        dst = mid + reach * j
                        if dst < m:
                            out.append((dst, _BC + key, payload))
                if wave == 1 and mid == 0 and store.get(key) is not payload:
                    store = {**store, key: payload}
                return store, out

            return bstep

        self._waves(make_step, depth, label)
        return depth

    def aggregate(self, key: str, combine: Callable, label: str = "aggregate"):
        """Fold per-machine store[key] values up the tree to machine 0.

        Returns (value, rounds used); combine must be associative and
        commutative.  The folded value is at the central machine (store
        plus in-flight inbox) when this returns.
        """
        m = self.config.machine_count
        if m == 1:
            return self.stores[0][key], 0
        k = self.config.fanout
        depth = log_ceil(m, k)

        def make_step(wave: int):
            lo = k ** (depth - wave)
            hi = k ** (depth - wave + 1)

            def astep(mid, store, inbox, rng):
                parts = store.get(key + "__parts")
                if parts is not None:
                    store = {kk: vv for kk, vv in store.items() if kk != key + "__parts"}
                    if wave > 1:
                        # Parts delivered by earlier waves; wave-1 leftovers
                        # are stale residue from a previous fold.
                        val = store[key]
                        for p in parts:
                            val = combine(val, p)
                        store[key] = val
                out = []
                if lo <= mid < hi and mid < m:
                    out.append((mid % lo, _AGG + key, store[key]))
                return store, out

            return astep

        self._waves(make_step, depth, label)
        value = self.stores[0][key]
        for _, k2, v, _ in self._deliveries[0]:
            if k2 == _AGG + key:
                value = combine(value, v)
        return value, depth

    def aggregate_and_broadcast(self, key: str, combine, label: str = "agg+bc"):
        """Fold store[key] to central, then rebroadcast the total under the
        same key.  Both directions are charged."""
        value, up = self.aggregate(key, combine, label=label + "/up")
        down = self.broadcast(key, value, label=label + "/down")
        return value, up + down

    # -- trace export -------------------------------------------------------

    def trace_rounds(self, level: str) -> list[dict]:
        if level == "off":
            return []
        return [r.to_dict(verbose=(level == "verbose")) for r in self.rounds]


def trace_level() -> str:
    level = os.environ.get("MPC_TRACE", "summary").lower()
    return level if level in ("verbose", "summary", "off") else "summary"


@dataclass
class AttemptRecord:
    seed: int
    failure: str | None
    total_rounds: int
    peak_words: int
    rounds: list = field(default_factory=list)


@dataclass
class RunResult:
    """Outcome of a (possibly retried) cluster algorithm run."""

    value: object
    cluster: Cluster
    attempts: list[AttemptRecord]
    iterations: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def total_rounds(self) -> int:
        return self.cluster.total_rounds()

    def trace_dict(self, config: ClusterConfig) -> dict:
        return {
            "schema": 1,
            "config": config.to_dict(),
            "attempts": [vars(a) for a in self.attempts],
            "total_rounds": self.total_rounds,
            "peak_words": self.cluster.peak_words(),
            "iterations": self.iterations,
            "extras": self.extras,
        }


def run_with_retries(config: ClusterConfig, attempt: Callable) -> RunResult:
    """Run ``attempt(cluster)`` retrying whole runs on failure events.

    Failure events (declared fail lines, memory faults) restart with seed+1
    up to config.retry_cap extra attempts; each attempt is recorded.

    The cyclic garbage collector is paused for the whole run (see the
    module docstring) and turned back on afterwards if it was on.
    """
    attempts: list[AttemptRecord] = []
    level = trace_level()
    with collector_paused():
        for k in range(config.retry_cap + 1):
            cfg = replace(config, seed=config.seed + k)
            cluster = Cluster(cfg)
            failure = None
            try:
                value, iterations, extras = attempt(cluster)
            except (WhpFailure, EngineFailure) as exc:
                failure = str(exc) or exc.__class__.__name__
            attempts.append(
                AttemptRecord(
                    seed=cfg.seed,
                    failure=failure,
                    total_rounds=cluster.total_rounds(),
                    peak_words=cluster.peak_words(),
                    rounds=cluster.trace_rounds(level),
                )
            )
            if failure is None:
                return RunResult(value=value, cluster=cluster, attempts=attempts, iterations=iterations, extras=extras)
    raise RetriesExhausted(attempts)


def dump_trace(result: RunResult, config: ClusterConfig, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(result.trace_dict(config), fh, sort_keys=True, indent=1)
        fh.write("\n")
