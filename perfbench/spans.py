"""Layer tracer that wraps mpcgraph's public functions from the outside.

Every wrapped call is a span.  A span's *self time* (its duration minus
the spans it encloses) is charged to exactly one layer metric, so the
self-timed layers add up to the traced time without counting anything
twice.  A few metrics are *inclusive* instead (one algorithm's whole call,
the Misra-Gries runs inside colour-e's steps); they overlap the self-timed
layers and are reported beside them.

Nothing under ``src/`` is changed: the tracer replaces attributes of the
imported modules, so it must be installed in a fresh process before the
first call it should see.
"""

from __future__ import annotations

import importlib
import json
import types
from collections import defaultdict
from time import perf_counter

# Public entry point of each algorithm: (module, function, algorithm name).
ENTRIES = (
    ("rlr_setcover", "approx_sc_f", "sc-f"),
    ("rlr_setcover", "vertex_cover_2approx", "vc-2"),
    ("rlr_matching", "approx_max_matching", "match-2"),
    ("rlr_matching", "approx_b_matching", "bmatch"),
    ("hungry", "mis_simple", "mis-simple"),
    ("hungry", "mis_fast", "mis-fast"),
    ("hungry", "maximal_clique", "clique"),
    ("parallel_setcover", "approx_sc_lnDelta", "sc-lnD"),
    ("colouring", "vertex_colouring", "colour-v"),
    ("colouring", "edge_colouring", "colour-e"),
)
ALGORITHM_MODULES = tuple(dict.fromkeys(mod for mod, _, _ in ENTRIES))

# Functions the CLI calls by their imported name: patched in cli's namespace.
CLI_CALLS = {
    "generate_graph": "instances.generate_s",
    "generate_set_cover": "instances.generate_s",
    "write_graph": "instances.write_s",
    "write_set_cover": "instances.write_s",
    "read_graph": "instances.read_s",
    "read_set_cover": "instances.read_s",
    "graph_to_text": "cli.digest_s",
    "set_cover_to_text": "cli.digest_s",
    "digest": "cli.digest_s",
    "dump_trace": "cli.output_s",
    "solution_to_text": "cli.output_s",
}

SELF_TIMED = (
    ["engine.account_s", "engine.collective_s", "engine.preload_s"]
    + [f"{mod}.step_s" for mod in ALGORITHM_MODULES]
    + [f"{mod}.driver_s" for mod in ALGORITHM_MODULES]
    + ["instances.generate_s", "instances.write_s", "instances.read_s", "cli.output_s", "cli.digest_s"]
)
INCLUSIVE = [f"{alg}.run_s" for _, _, alg in ENTRIES] + ["oracles.misra_gries_s"]
ROUND_COUNTS = ("engine.collective_rounds", "engine.words_moved")


def _module(name: str):
    return importlib.import_module("mpcgraph." + name)


class Tracer:
    """Per-layer seconds and round counts for the calls made after install()."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # enclosed-span time of each open span
        self._collective_depth = 0

    def self_timed(self, fn, layer):
        """Wrap ``fn``; its self time goes to ``layer``."""
        open_spans, seconds = self._open, self.seconds

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                seconds[layer] += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt

        return wrapper

    def inclusive(self, fn, name):
        """Wrap ``fn``; its whole duration goes to ``name``."""
        seconds = self.seconds

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - t0

        return wrapper

    def install(self) -> None:
        cli = _module("cli")
        for name, layer in CLI_CALLS.items():
            setattr(cli, name, self.self_timed(getattr(cli, name), layer))
        # The report is rendered with json.dumps inside cmd_run.
        cli.json = types.SimpleNamespace(dumps=self.self_timed(json.dumps, "cli.output_s"))
        for name, attr, alg in ENTRIES:
            mod = _module(name)
            setattr(mod, attr, self.inclusive(self.self_timed(getattr(mod, attr), f"{name}.driver_s"), f"{alg}.run_s"))
        colouring = _module("colouring")
        colouring.misra_gries_edge_colouring_seq = self.inclusive(
            colouring.misra_gries_edge_colouring_seq, "oracles.misra_gries_s"
        )
        self._install_engine()

    def _install_engine(self) -> None:
        engine = _module("engine")
        cluster = engine.Cluster
        run_round = cluster.run_round
        tracer = self

        def traced_run_round(self, step, label=""):
            collective = tracer._collective_depth > 0
            module = getattr(step, "__module__", engine.__name__)
            if collective or module == engine.__name__:
                step_layer = "engine.collective_s"
            else:
                step_layer = module.rsplit(".", 1)[1] + ".step_s"
            layer = "engine.collective_s" if collective else "engine.account_s"
            before = len(self.rounds)
            try:
                return tracer.self_timed(run_round, layer)(self, tracer.self_timed(step, step_layer), label)
            finally:
                for record in self.rounds[before:]:
                    tracer.counts["engine.words_moved"] += sum(record.words_sent)
                    tracer.counts["engine.collective_rounds"] += collective

        def collective(method):
            timed = self.self_timed(method, "engine.collective_s")

            def wrapper(*args, **kwargs):
                tracer._collective_depth += 1
                try:
                    return timed(*args, **kwargs)
                finally:
                    tracer._collective_depth -= 1

            return wrapper

        cluster.run_round = traced_run_round
        cluster.broadcast = collective(cluster.broadcast)
        cluster.aggregate = collective(cluster.aggregate)
        cluster.preload = self.self_timed(cluster.preload, "engine.preload_s")

    def metrics(self) -> dict[str, float]:
        out = {name: self.seconds.get(name, 0.0) for name in SELF_TIMED + INCLUSIVE}
        out.update({name: self.counts.get(name, 0) for name in ROUND_COUNTS})
        return out


def count_words_calls() -> list[int]:
    """Count every call of ``engine.words``, recursive ones included.

    ``words`` calls itself through its module-global name, so replacing
    that name counts the recursion too.  Returns a one-element counter.
    """
    engine = _module("engine")
    counter = [0]
    words = engine.words

    def counted(obj):
        counter[0] += 1
        return words(obj)

    engine.words = counted
    return counter
