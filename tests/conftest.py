"""Shared helpers and session-scoped heavy runs reused across test files."""

from __future__ import annotations

from random import Random

import pytest

from mpcgraph.colouring import vertex_colouring
from mpcgraph.engine import Cluster, Payload
from mpcgraph.instances import generate_graph, make_graph


def _probe_key(value):
    """What the combine probe compares: a Payload (which has no ``__eq__``)
    by its wrapped value and declared size."""
    if isinstance(value, Payload):
        return value.value, value.word_size
    return value


@pytest.fixture(scope="session", autouse=True)
def probe_aggregate_combines():
    """Every ``Cluster.aggregate`` a test runs, session fixtures included,
    first checks its combine on machines 0-2's values: it must be
    associative and commutative."""
    aggregate = Cluster.aggregate

    def probed(self, key, combine, label="aggregate"):
        m = self.config.machine_count
        if m > 1:
            probe = [self.stores[mid % m].get(key) for mid in range(3)]
            if all(p is not None for p in probe):
                a, b, c = probe
                left = _probe_key(combine(combine(a, b), c))
                assert left == _probe_key(combine(a, combine(b, c))), "combine not associative"
                assert left == _probe_key(combine(combine(b, a), c)), "combine not commutative"
        return aggregate(self, key, combine, label)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Cluster, "aggregate", probed)
        yield


def random_graph(rng: Random, n: int, max_edges: int, w_lo: int = 1, w_hi: int = 10):
    """Uniform random simple graph with at most max_edges edges."""
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(0, min(max_edges, len(all_pairs)))
    pairs = rng.sample(all_pairs, m)
    return make_graph(n, [(u, v, rng.randint(w_lo, w_hi)) for u, v in pairs])


def random_nonempty_graph(rng: Random, n: int, max_edges: int, w_lo: int = 1, w_hi: int = 10):
    g = random_graph(rng, n, max_edges, w_lo, w_hi)
    while g.m == 0:
        g = random_graph(rng, n, max_edges, w_lo, w_hi)
    return g


@pytest.fixture(scope="session")
def colouring_4096_runs():
    """20 seeded vertex colourings at n = 4096, mu = 1/5, c = 2/5 (shared
    by the concentration invariant and the acceptance bound check)."""
    graph = generate_graph(4096, "2/5", (1, 1), seed=606)
    runs = []
    for seed in range(20):
        runs.append(vertex_colouring(graph, mu="1/5", c="2/5", seed=seed))
    return graph, runs
