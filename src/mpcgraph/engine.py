"""Simulated MapReduce cluster: rounds, messages, memory accounting.

Machines execute pure step functions against their store and inbox.
Messages sent in round r are delivered into inboxes at the start of round
r+1; a machine "holds" a value once it sits in its store or its inbox.
Every payload is sized in words (one word per integer/rational/id) and
checked against the per-machine budget; violations abort the run with the
trace preserved.

Accounting is proportional to what changed.  Each message is sized once,
at send, and carries that size to its receiver's inbox and, for broadcast
payloads and aggregate parts, into its store.  Each machine keeps the size
of every store value it has seen; when a step returns a new store, only
the values that are not the same objects as before are sized again.  So a
step must never mutate a store value, or a value it has sent, in place:
it builds a new one instead.

Determinism: machine step RNGs derive from hash(seed, round, machine id)
and inboxes are sorted by (sender, key), so traces are byte-identical for
a fixed ClusterConfig regardless of execution order.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import itemgetter
from random import Random
from typing import Callable, Sequence

from .exactmath import as_fraction, frac_str, ipow_ceil, ipow_floor, log_ceil


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


def store_words(store: dict) -> int:
    # Top-level keys are labels, not data.
    return sum(words(v) for v in store.values())


def derive_seed(seed: int, round_index: int, machine_id: int) -> int:
    blob = f"{seed}:{round_index}:{machine_id}".encode("ascii")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@dataclass(frozen=True)
class ClusterConfig:
    """The (n, c, mu, eta, fanout, budget) regime of a simulated cluster.

    eta, machine_count and fanout all default to functions of (n, c, mu)
    but can be overridden individually.
    """

    n: int
    mu: Fraction
    c: Fraction | None
    eta: int
    machine_count: int
    memory_budget_words: int
    fanout: int
    seed: int
    retry_cap: int = 3
    free_broadcast: bool = False
    fail_multiplier: int = 3
    budget_multiplier: int = 8
    strict_mpc: bool = False

    def __post_init__(self):
        if self.machine_count < 1:
            raise ValueError("machine_count must be >= 1")
        if self.fanout < 2:
            raise ValueError("fanout must be >= 2")
        if self.memory_budget_words < 1:
            raise ValueError("memory budget must be positive")

    @classmethod
    def derive(
        cls,
        n: int,
        mu,
        c=None,
        *,
        seed: int = 0,
        eta: int | None = None,
        machine_count: int | None = None,
        fanout: int | None = None,
        memory_budget_words: int | None = None,
        budget_scale: int = 1,
        **overrides,
    ) -> "ClusterConfig":
        """Fill defaults: eta = n^(1+mu), M = ceil(n^(c-mu)), fanout =
        ceil(n^mu), budget = K * budget_scale * n^(1+mu)."""
        mu = as_fraction(mu)
        c = None if c is None else as_fraction(c)
        if eta is None:
            eta = ipow_floor(n, 1 + mu)
        if machine_count is None:
            if c is None or c <= mu:
                machine_count = 1
            else:
                machine_count = ipow_ceil(n, c - mu)
        if fanout is None:
            fanout = max(2, ipow_ceil(n, mu))
        k = overrides.get("budget_multiplier", 8)
        if memory_budget_words is None:
            memory_budget_words = k * budget_scale * ipow_floor(n, 1 + mu)
        return cls(
            n=n,
            mu=mu,
            c=c,
            eta=eta,
            machine_count=machine_count,
            memory_budget_words=memory_budget_words,
            fanout=fanout,
            seed=seed,
            **overrides,
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mu": frac_str(self.mu),
            "c": None if self.c is None else frac_str(self.c),
            "eta": self.eta,
            "machine_count": self.machine_count,
            "memory_budget_words": self.memory_budget_words,
            "fanout": self.fanout,
            "seed": self.seed,
            "retry_cap": self.retry_cap,
            "free_broadcast": self.free_broadcast,
            "fail_multiplier": self.fail_multiplier,
            "budget_multiplier": self.budget_multiplier,
            "strict_mpc": self.strict_mpc,
        }


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


# Message key prefixes handled by the engine's delivery layer.
_BC = "bc:"
_AGG = "agg:"
_BY_SENDER_KEY = itemgetter(0, 1)


class Cluster:
    """A fleet of machines run in lockstep rounds.  Machine 0 is central."""

    def __init__(self, config: ClusterConfig, exec_order: Sequence[int] | None = None):
        self.config = config
        m = config.machine_count
        self.stores: list[dict] = [dict() for _ in range(m)]
        self._store_words: list[int] = [0] * m
        # Per machine: store key -> (value, its word size).
        self._sizes: list[dict] = [dict() for _ in range(m)]
        # Per destination: (sender, key, value, word size) sent this round.
        self._pending: list[list[tuple[int, str, object, int]]] = [[] for _ in range(m)]
        self.rounds: list[RoundRecord] = []
        self._order = list(range(m)) if exec_order is None else list(exec_order)

    # -- state inspection -------------------------------------------------

    @property
    def machine_count(self) -> int:
        return self.config.machine_count

    def holds(self, mid: int, key: str) -> bool:
        if key in self.stores[mid]:
            return True
        return any(k == _BC + key for _, k, _, _ in self._pending[mid])

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

    def mark_failure(self, reason: str) -> None:
        """Flag the most recent round with an algorithm-declared failure."""
        if self.rounds:
            self.rounds[-1].failure = reason

    # -- round execution ---------------------------------------------------

    def run_round(self, step: Callable, label: str = "") -> RoundRecord:
        """Run one synchronous round.

        ``step(machine_id, store, inbox, rng) -> (new_store, outbox)`` must
        be a pure function; outbox entries are (dst, key, value).
        """
        idx = len(self.rounds)
        m = self.config.machine_count
        budget = self.config.memory_budget_words
        inboxes = self._pending
        self._pending = [[] for _ in range(m)]
        received = [0] * m
        sent = [0] * m
        peaks = [0] * m
        messages = 0
        violations: list[tuple[str, int, int]] = []
        new_stores: list[dict] = list(self.stores)
        new_words: list[int] = list(self._store_words)

        for mid in self._order:
            inbox = sorted(inboxes[mid], key=_BY_SENDER_KEY)
            in_words = sum(t[3] for t in inbox)
            received[mid] = in_words
            store = self.stores[mid]
            absorbed, visible, delivered = self._absorb(store, inbox)
            rng = Random(derive_seed(self.config.seed, idx, mid))
            result = step(mid, absorbed, tuple(visible), rng)
            new_store, outbox = result
            out_words = 0
            for dst, key, value in outbox:
                if not (0 <= dst < m):
                    raise ValueError(f"message to unknown machine {dst}")
                size = words(value)
                out_words += size
                self._pending[dst].append((mid, key, value, size))
                messages += 1
            sent[mid] = out_words
            before = self._store_words[mid]
            if new_store is store:
                after = before
            else:
                self._sizes[mid].update(delivered)
                after = self._sized(mid, new_store)
            peak = max(before + in_words, after + out_words)
            peaks[mid] = peak
            new_stores[mid] = new_store
            new_words[mid] = after
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
    def _absorb(store: dict, inbox: list) -> tuple[dict, list, dict]:
        """Apply engine-level deliveries (broadcast payloads, fold parts).

        Returns the store the step sees, the messages it sees, and the
        (value, words) of every store key the deliveries wrote, from the
        sizes the messages carry.
        """
        delivered: dict[str, tuple] = {}
        visible = []
        for sender, key, value, size in inbox:
            if key.startswith(_BC):
                delivered[key[len(_BC) :]] = (value, size)
            elif key.startswith(_AGG):
                name = key[len(_AGG) :] + "__parts"
                parts, total = delivered.get(name) or ([], 0)
                parts.append(value)
                delivered[name] = (parts, total + size)
            else:
                visible.append((sender, key, value))
        if not delivered:
            return store, visible, delivered
        staged = dict(store)
        for name, (value, _) in delivered.items():
            staged[name] = value
        return staged, visible, delivered

    # -- collective operations ---------------------------------------------

    def broadcast(self, key: str, value, label: str = "broadcast") -> int:
        """Disseminate a payload from machine 0 over the fanout-ary tree.

        Uses ceil(log_fanout(M)) charged rounds; each sender emits at most
        fanout-1 copies per round.  After completion every machine holds
        the payload (store or inbox).
        """
        m = self.config.machine_count
        payload = value if isinstance(value, Payload) else Payload(value)
        if self.config.free_broadcast or m == 1:
            for mid in range(m):
                self.stores[mid][key] = payload
                self._store_words[mid] = self._sized(mid, self.stores[mid])
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

        for wave in range(1, depth + 1):
            self.run_round(make_step(wave), label=f"{label}[{wave}/{depth}]")
        return depth

    def aggregate(self, key: str, combine: Callable, label: str = "aggregate"):
        """Fold per-machine store[key] values up the tree to machine 0.

        Returns (value, rounds used); combine must be associative and
        commutative (probed under __debug__).  The folded value is at the
        central machine (store plus in-flight inbox) when this returns.
        """
        m = self.config.machine_count
        if m == 1:
            return self.stores[0][key], 0
        if __debug__:
            probe = [self.stores[mid % m].get(key) for mid in range(3)]
            if all(p is not None for p in probe):
                a, b, c = probe
                left = combine(combine(a, b), c)
                assert left == combine(a, combine(b, c)), "combine not associative"
                assert left == combine(combine(b, a), c), "combine not commutative"
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

        for wave in range(1, depth + 1):
            self.run_round(make_step(wave), label=f"{label}[{wave}/{depth}]")
        value = self.stores[0][key]
        for _, k2, v, _ in self._pending[0]:
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
        level = trace_level()
        return {
            "schema": 1,
            "config": config.to_dict(),
            "attempts": [
                {
                    "seed": a.seed,
                    "failure": a.failure,
                    "total_rounds": a.total_rounds,
                    "peak_words": a.peak_words,
                    "rounds": a.rounds,
                }
                for a in self.attempts
            ],
            "total_rounds": self.total_rounds,
            "peak_words": self.cluster.peak_words(),
            "iterations": self.iterations,
            "extras": self.extras,
        }


def run_with_retries(config: ClusterConfig, attempt: Callable) -> RunResult:
    """Run ``attempt(cluster)`` retrying whole runs on failure events.

    Failure events (declared fail lines, memory faults) restart with seed+1
    up to config.retry_cap extra attempts; each attempt is recorded.
    """
    attempts: list[AttemptRecord] = []
    level = trace_level()
    for k in range(config.retry_cap + 1):
        cfg = replace(config, seed=config.seed + k)
        cluster = Cluster(cfg)
        try:
            value, iterations, extras = attempt(cluster)
        except (WhpFailure, EngineFailure) as exc:
            attempts.append(
                AttemptRecord(
                    seed=cfg.seed,
                    failure=str(exc) or exc.__class__.__name__,
                    total_rounds=cluster.total_rounds(),
                    peak_words=cluster.peak_words(),
                    rounds=cluster.trace_rounds(level),
                )
            )
            continue
        attempts.append(
            AttemptRecord(
                seed=cfg.seed,
                failure=None,
                total_rounds=cluster.total_rounds(),
                peak_words=cluster.peak_words(),
                rounds=cluster.trace_rounds(level),
            )
        )
        return RunResult(value=value, cluster=cluster, attempts=attempts, iterations=iterations, extras=extras)
    raise RetriesExhausted(attempts)


def dump_trace(result: RunResult, config: ClusterConfig, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(result.trace_dict(config), fh, sort_keys=True, indent=1)
        fh.write("\n")
