"""The benchmark's workloads: which instances to generate and which
algorithms to run on them, as mpcgraph command lines.

Every path is relative to the run's work directory.  A workload's inputs
depend only on its name and the seed: the instance seeds are derived from
it, and every ``run`` passes it as the algorithm seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``run`` ops name the files the checker reads."""

    kind: str  # "generate" | "run"
    argv: tuple[str, ...]
    algorithm: str = ""
    instance: str = ""
    b: int = 1
    epsilon: Fraction = Fraction(0)

    @property
    def stem(self) -> str:
        return f"{self.algorithm}.{self.instance}"

    @property
    def solution(self) -> str:
        return self.stem + ".sol"

    @property
    def trace(self) -> str:
        return self.stem + ".trace.json"

    @property
    def report(self) -> str:
        return self.stem + ".report.json"


def _graph(path: str, n: int, c: str, seed: int) -> Op:
    return Op("generate", ("generate", "graph", path, "--n", str(n), "--c", c, "--w-lo", "1", "--w-hi", "10", "--seed", str(seed)))


def _setcover(path: str, n: int, m: int, density: str, w_hi: int, seed: int) -> Op:
    argv = ("generate", "setcover", path, "--n", str(n), "--m", str(m), "--density", density)
    return Op("generate", argv + ("--w-lo", "1", "--w-hi", str(w_hi), "--seed", str(seed)))


def _run(algorithm: str, instance: str, seed: int, *extra: str, b: int = 1, epsilon: str = "0") -> Op:
    op = Op("run", (), algorithm, instance, b, Fraction(epsilon))
    argv = ("run", algorithm, instance, "--seed", str(seed), *extra, "--out", op.solution, "--trace", op.trace)
    return replace(op, argv=argv)


# sc-lnD's time on one instance swings with the seed (on a 2000 x 1536
# instance, 21 to 41 iterations and 2.6 to 6.3 s over 25 seeds), so each
# repetition runs it on LND_INSTANCES small instances, whose total time
# varies far less from seed to seed.
LND_INSTANCES = 16


def _setcover_ops(seed: int) -> list[Op]:
    # sc-lnD on sets-sharded instances (the psc_instrumented_runs shape,
    # scaled down), sc-f on an elements-sharded one with m = n^(7/5).
    lnd = [f"lnd{j:02d}.sc" for j in range(LND_INSTANCES)]
    ops = [_setcover(path, 500, 384, "0.032", 4, 100 * seed + 10 + j) for j, path in enumerate(lnd)]
    ops.append(_setcover("f.sc", 2048, 43237, str(3 / 2048), 10, 10 * seed + 2))
    ops += [_run("sc-lnD", path, seed, "--epsilon", "1/10", "--mu", "1/5", epsilon="1/10") for path in lnd]
    ops.append(_run("sc-f", "f.sc", seed, "--c", "2/5"))
    return ops


def _graph_greedy_ops(seed: int) -> list[Op]:
    # clique gets its own dense graph: on the sparse one it stops at a
    # single edge and the lazy-complement path barely runs.
    ops = [_graph("sparse.graph", 1536, "2/5", 10 * seed + 1), _graph("dense.graph", 384, "4/5", 10 * seed + 2)]
    ops += [_run(alg, "sparse.graph", seed) for alg in ("mis-simple", "mis-fast", "colour-v")]
    ops.append(_run("clique", "dense.graph", seed))
    return ops


def _graph_localratio_ops(seed: int) -> list[Op]:
    return [
        _graph("lr.graph", 1024, "2/5", 10 * seed + 1),
        _run("vc-2", "lr.graph", seed),
        _run("match-2", "lr.graph", seed),
        _run("bmatch", "lr.graph", seed, "--b", "2", "--epsilon", "1/10", b=2, epsilon="1/10"),
        _run("colour-e", "lr.graph", seed),
    ]


WORKLOADS = {
    "setcover": _setcover_ops,
    "graph-greedy": _graph_greedy_ops,
    "graph-localratio": _graph_localratio_ops,
}


def workload_ops(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](seed)
