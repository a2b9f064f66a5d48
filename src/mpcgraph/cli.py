"""Command-line driver: generate instances, run cluster algorithms,
verify solutions against oracles, and sweep seeds into CSV.

Exit codes: 0 success, 2 retries exhausted, 3 infeasible or malformed
input.  Identical invocations produce byte-identical reports and traces.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Callable

from . import colouring as col
from . import hungry
from . import parallel_setcover as psc
from . import rlr_matching as rm
from . import rlr_setcover as rsc
from .engine import RetriesExhausted, dump_trace
from .exactmath import frac_decimal, frac_str
from .instances import (
    Colouring,
    Cover,
    MalformedInstance,
    Matching,
    TooLarge,
    Uncoverable,
    ValidationReport,
    digest,
    generate_graph,
    generate_set_cover,
    id_error,
    malformed_numbers,
    read_graph,
    read_set_cover,
    validate,
    validate_b_matching,
    vertex_cover_encoding,
    write_graph,
    write_set_cover,
)

# Not called here: perfbench/spans.py times these names in this module's
# namespace, so they stay importable from it.
from .instances import graph_to_text, set_cover_to_text  # noqa: F401
from .oracles import (
    brute_force_max_matching,
    brute_force_min_cover,
    eps_greedy_bound,
    is_maximal_clique,
    is_maximal_independent_set,
)


def _weight(value, instance, aux):
    return value.weight(instance)


def _vertex_cover_weight(value, instance, weights):
    weights = weights or [Fraction(1)] * instance.n
    return sum((weights[i] for i in value.set_ids), Fraction(0))


def _colour_count(value, instance, aux):
    return value.colour_count


def _check_cover(instance, rows, aux):
    return validate(Cover(tuple(map(int, rows[1:]))), instance)


def _check_matching(graph, rows, aux):
    """Edges that ``aux`` caps (None: a matching), after a line stating
    their total weight."""
    stated = rows[1].split() if len(rows) > 1 else []
    if len(stated) != 2 or stated[0] != "weight":
        raise MalformedInstance("matching solution needs a 'weight <w>' line")
    report = validate_b_matching(Matching(tuple(sorted(map(int, rows[2:])))), graph, aux)
    if report.feasible and report.objective != Fraction(stated[1]):
        note = f"malformed: weight line {stated[1]} != recomputed {frac_str(report.objective)}"
        return ValidationReport(report.kind, False, report.objective, note)
    return report


def _check_colouring(graph, rows, aux):
    """A 'colouring <mode> <count>' header, then one 'item group colour'
    line per item; count must be the number of colours used."""
    head = rows[0].split()
    triples = sorted(tuple(map(int, row.split())) for row in rows[1:])
    if any(len(t) != 3 for t in triples):
        raise MalformedInstance("colouring solution needs 3-token 'item group colour' lines")
    fault = id_error([t[0] for t in triples], len(triples), "item")
    if fault:
        return ValidationReport(f"{head[1]}-colouring", False, None, fault)
    report = validate(Colouring(head[1], tuple(t[1] for t in triples), tuple(t[2] for t in triples)), graph)
    if report.feasible and report.objective != int(head[2]):
        note = f"malformed: header count {head[2]} != {report.objective} colours used"
        return ValidationReport(report.kind, False, report.objective, note)
    return report


@dataclass(frozen=True)
class Problem:
    """What an algorithm's output is scored and checked against.

    ``kind`` heads the problem's solution file (``run --out``), followed
    on that line by the colour count when ``counted``, and
    ``check(instance, rows, aux)`` judges that file's non-blank lines,
    header included, for ``verify``: it returns a ValidationReport whose
    objective is the solution's score.  ``objective(value, instance,
    aux)`` scores a solution and ``oracle(instance, aux)`` is the
    brute-force optimum (None: no oracle), where ``aux(args)`` is the
    problem's extra input (vertex weights, capacity).
    """

    kind: str
    graph_input: bool
    minimizing: bool
    objective: Callable
    check: Callable
    oracle: Callable = lambda instance, aux: None
    aux: Callable = lambda args: None
    counted: bool = False

    def ratio(self, objective, opt) -> Fraction | None:
        """objective/OPT when minimizing, OPT/objective when maximizing;
        None when that denominator is zero."""
        num, den = (objective, opt) if self.minimizing else (opt, objective)
        return Fraction(num) / den if den else None


SET_COVER = Problem(
    "cover", False, True, _weight, _check_cover, lambda instance, aux: brute_force_min_cover(instance)[0]
)
VERTEX_COVER = Problem(
    "cover",
    True,
    True,
    _vertex_cover_weight,
    lambda graph, rows, aux: _check_cover(vertex_cover_encoding(graph, aux), rows, aux),
    lambda instance, aux: brute_force_min_cover(vertex_cover_encoding(instance, aux))[0],
    aux=lambda args: _vertex_weights(args.vertex_weights),
)
MATCHING = Problem(
    "matching", True, False, _weight, _check_matching, lambda instance, aux: brute_force_max_matching(instance)[0]
)
B_MATCHING = Problem(
    "matching",
    True,
    False,
    _weight,
    _check_matching,
    lambda instance, aux: brute_force_max_matching(instance, aux)[0],
    aux=lambda args: 1 if args.b is None else args.b,
)


class _SetReport(ValidationReport):
    """A vertex set's verdict, printed with the set's size."""

    def __str__(self) -> str:
        return f"{self.kind}: {'feasible (maximal)' if self.feasible else 'infeasible'} size={self.objective}"


def _maximal_set(kind: str, is_maximal: Callable) -> Problem:
    """The problem of a vertex set that ``is_maximal(graph, vertices)`` judges."""

    def check(graph, rows, aux):
        vertices = tuple(map(int, rows[1:]))
        fault = id_error(vertices, graph.n, "vertex")
        if fault:
            return ValidationReport(kind, False, None, fault)
        return _SetReport(kind, is_maximal(graph, vertices), len(vertices))

    return Problem(kind, True, False, lambda value, instance, aux: len(value), check)


INDEPENDENT_SET = _maximal_set("mis", is_maximal_independent_set)
CLIQUE = _maximal_set("clique", is_maximal_clique)
COLOUR_V = Problem("colouring vertex", True, False, _colour_count, _check_colouring, counted=True)
COLOUR_E = Problem("colouring edge", True, False, _colour_count, _check_colouring, counted=True)


@dataclass(frozen=True)
class Algorithm:
    """One registered algorithm: its entry point ``module.entry``, looked up
    at call time so that a patched entry point is the one that runs; the
    keyword ``inputs(args, aux)`` it takes besides the instance and the
    regime; and ``bound(instance, epsilon, b)``, its proven ratio and label.
    """

    summary: str
    problem: Problem
    module: ModuleType
    entry: str
    inputs: Callable = lambda args, aux: {}
    bound: Callable | None = None

    def run(self, instance, aux, args, common: dict):
        return getattr(self.module, self.entry)(instance, **self.inputs(args, aux), **common)


def _labelled(name: str, bound: Fraction) -> tuple[Fraction, str]:
    return bound, f"{name}={frac_str(bound)}"


def _kappa(args, aux) -> dict:
    return {"kappa": args.kappa}


def _factor_two(instance, epsilon, b):
    return Fraction(2), "2"


ALGORITHMS = {
    "sc-f": Algorithm(
        "weighted set cover, weight <= f * OPT, O((c/mu)^2) rounds",
        SET_COVER,
        rsc,
        "approx_sc_f",
        bound=lambda instance, epsilon, b: (Fraction(instance.frequency), f"f={instance.frequency}"),
    ),
    "vc-2": Algorithm(
        "weighted vertex cover, weight <= 2 * OPT, O(c/mu) rounds",
        VERTEX_COVER,
        rsc,
        "vertex_cover_2approx",
        inputs=lambda args, aux: {"vertex_weights": aux},
        bound=_factor_two,
    ),
    "match-2": Algorithm(
        "weighted matching, weight >= OPT / 2, O(c/mu) rounds", MATCHING, rm, "approx_max_matching", bound=_factor_two
    ),
    "bmatch": Algorithm(
        "weighted b-matching, weight >= OPT / (3 - 2/max(2,b) + 2*eps)",
        B_MATCHING,
        rm,
        "approx_b_matching",
        inputs=lambda args, aux: {"b": aux, "epsilon": _epsilon(args, "bmatch")},
        bound=lambda instance, epsilon, b: _labelled("(3-2/max(2,b)+2eps)", 3 - Fraction(2, max(2, b)) + 2 * epsilon),
    ),
    "mis-simple": Algorithm("maximal independent set, O(1/mu^2) rounds", INDEPENDENT_SET, hungry, "mis_simple"),
    "mis-fast": Algorithm("maximal independent set, O(c/mu) rounds", INDEPENDENT_SET, hungry, "mis_fast"),
    "clique": Algorithm("maximal clique via lazy complement, O(1/mu) rounds", CLIQUE, hungry, "maximal_clique"),
    "sc-lnD": Algorithm(
        "weighted set cover, weight <= (1+eps) * H_Delta * OPT",
        SET_COVER,
        psc,
        "approx_sc_lnDelta",
        inputs=lambda args, aux: {"epsilon": _epsilon(args, "sc-lnD")},
        bound=lambda instance, epsilon, b: _labelled("(1+eps)*H_Delta", eps_greedy_bound(instance, epsilon)),
    ),
    "colour-v": Algorithm("vertex colouring, (1 + o(1)) * Delta colours", COLOUR_V, col, "vertex_colouring", _kappa),
    "colour-e": Algorithm(
        "edge colouring via per-group fan rotation, (1 + o(1)) * Delta colours", COLOUR_E, col, "edge_colouring", _kappa
    ),
}


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _count_arg(least: int) -> Callable[[str], int]:
    """Type of an integer option that must be at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, as malformed input: exit 2 means retries
    exhausted."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mpcgraph", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random instance file")
    g.add_argument("kind", choices=["graph", "setcover"])
    g.add_argument("out", help="output path")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, help="ground-set size (setcover)")
    g.add_argument("--c", type=_fraction_arg, default=Fraction(0), help="edge-count exponent (graph)")
    g.add_argument("--density", type=float, default=0.3, help="membership density (setcover)")
    g.add_argument("--w-lo", type=int, default=1)
    g.add_argument("--w-hi", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("run", help="run an algorithm under a cluster regime")
    r.add_argument("algorithm", nargs="?", choices=sorted(ALGORITHMS))
    r.add_argument("instance", nargs="?")
    r.add_argument("--list", action="store_true", help="list algorithms and bounds")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--kappa", type=_count_arg(1), default=None)
    r.add_argument("--trace", default=None, help="write the trace JSON here")
    r.add_argument("--out", default=None, help="write the solution file here")
    r.add_argument("--oracle", action="store_true", help="add brute-force OPT and ratio to the report")

    v = sub.add_parser("verify", help="validate a solution file, optionally against the oracle")
    v.add_argument("instance")
    v.add_argument("solution")
    v.add_argument("--algorithm", choices=sorted(ALGORITHMS), required=True)
    v.add_argument("--against-oracle", action="store_true")
    v.add_argument("--epsilon", type=str, default="1/10")
    v.add_argument("--b", type=int, default=1)
    for weighted in (r, v):
        weighted.add_argument("--vertex-weights", default=None, help="file with one rational per line (vc-2)")

    b = sub.add_parser("bench", help="seed sweep, CSV on stdout")
    b.add_argument("algorithm", choices=sorted(ALGORITHMS))
    b.add_argument("instance")
    b.add_argument("--seeds", type=int, default=10)
    b.set_defaults(kappa=None, vertex_weights=None)

    for regime in (r, b):
        regime.add_argument("--mu", type=str, default="1/5")
        regime.add_argument("--c", type=str, default=None)
        regime.add_argument("--eta", type=_count_arg(1), default=None)
        regime.add_argument("--epsilon", type=str, default=None)
        regime.add_argument("--b", type=int, default=None)
        regime.add_argument("--retries", type=_count_arg(0), default=3)
    return p


def _rational(text: str, flag: str) -> Fraction:
    """Parse a rational option value; a bad one is malformed input (exit 3)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInstance(f"{flag} must be a rational, got {text!r}") from exc


def _common(args) -> dict:
    """The regime keywords every algorithm takes, apart from the seed."""
    mu = _rational(args.mu, "--mu")
    if mu < 0:
        raise MalformedInstance(f"--mu must be >= 0, got {args.mu!r}")
    common = dict(mu=mu, retry_cap=args.retries)
    if args.c is not None:
        common["c"] = _rational(args.c, "--c")
    if args.eta is not None:
        common["eta"] = args.eta
    return common


def _epsilon(args, algorithm: str) -> Fraction:
    if args.epsilon is None:
        raise MalformedInstance(f"--epsilon is required for {algorithm}")
    epsilon = _rational(args.epsilon, "--epsilon")
    if epsilon <= 0:
        raise MalformedInstance(f"--epsilon must be > 0, got {args.epsilon!r}")
    return epsilon


def _vertex_weights(path):
    """The vc-2 weights file: one rational per line (None: unit weights)."""
    if not path:
        return None
    with malformed_numbers(path), open(path, "r", encoding="ascii") as fh:
        return [Fraction(line.strip()) for line in fh.read().splitlines() if line.strip()]


def _load_instance(problem: Problem, path: str):
    """Parse the instance file (through the names perfbench/spans.py times)."""
    with malformed_numbers(path):
        return (read_graph if problem.graph_input else read_set_cover)(path)


def solution_to_text(algorithm: str, value, instance, aux) -> str:
    lines = [ALGORITHMS[algorithm].problem.kind]
    if isinstance(value, Matching):
        lines.append(f"weight {frac_str(value.weight(instance))}")
        lines += [str(e) for e in value.edge_ids]
    elif isinstance(value, Cover):
        lines += [str(i) for i in value.set_ids]
    elif isinstance(value, Colouring):
        lines[0] += f" {value.colour_count}"
        lines += [f"{i} {g} {c}" for i, (g, c) in enumerate(zip(value.groups, value.colours))]
    else:  # vertex set
        lines += [str(v) for v in value]
    return "\n".join(lines) + "\n"


def cmd_generate(args) -> int:
    if args.kind == "graph":
        g = generate_graph(args.n, args.c, (args.w_lo, args.w_hi), args.seed)
        text = write_graph(g, args.out)
        print(f"graph n={g.n} m={g.m} digest={digest(text)}")
    else:
        if args.m is None:
            raise MalformedInstance("--m is required for setcover")
        inst = generate_set_cover(args.n, args.m, args.density, (args.w_lo, args.w_hi), args.seed)
        text = write_set_cover(inst, args.out)
        print(f"setcover n={inst.n} m={inst.m} f={inst.frequency} digest={digest(text)}")
    return 0


def cmd_run(args) -> int:
    if args.list:
        for name in sorted(ALGORITHMS):
            print(f"{name}: {ALGORITHMS[name].summary}")
        return 0
    if not args.algorithm or not args.instance:
        raise MalformedInstance("run needs an algorithm and an instance path")
    spec = ALGORITHMS[args.algorithm]
    problem = spec.problem
    instance = _load_instance(problem, args.instance)
    with open(args.instance, "r", encoding="ascii") as fh:
        inst_digest = digest(fh.read())
    common = {**_common(args), "seed": args.seed}
    aux = problem.aux(args)
    try:
        result = spec.run(instance, aux, args, common)
    except RetriesExhausted as exc:
        report = {
            "algorithm": args.algorithm,
            "instance_digest": inst_digest,
            "status": "retries-exhausted",
            "attempts": [{"seed": a.seed, "failure": a.failure, "rounds": a.total_rounds} for a in exc.attempts],
        }
        print(json.dumps(report, sort_keys=True, indent=2))
        return 2
    objective = Fraction(problem.objective(result.value, instance, aux))
    report = {
        "algorithm": args.algorithm,
        "instance_digest": inst_digest,
        "config": result.cluster.config.to_dict(),
        "iterations": result.iterations,
        "rounds_total": result.total_rounds,
        "peak_memory_words": result.cluster.peak_words(),
        "attempts": len(result.attempts),
        "objective": frac_str(objective),
        "objective_decimal": frac_decimal(objective),
    }
    if args.oracle:
        try:
            opt = problem.oracle(instance, aux)
        except TooLarge as exc:
            opt = None
            report["oracle"] = f"too large: {exc}"
        if opt is not None:
            report["oracle"] = frac_str(opt)
            ratio = problem.ratio(objective, opt)
            ratio = Fraction(0) if ratio is None else ratio
            report["ratio"] = frac_str(ratio)
            report["ratio_decimal"] = frac_decimal(ratio)
    print(json.dumps(report, sort_keys=True, indent=2))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(solution_to_text(args.algorithm, result.value, instance, aux))
    if args.trace:
        dump_trace(result, result.cluster.config, args.trace)
    return 0


def cmd_verify(args) -> int:
    spec = ALGORITHMS[args.algorithm]
    problem = spec.problem
    instance = _load_instance(problem, args.instance)
    with malformed_numbers(args.solution), open(args.solution, "r", encoding="ascii") as fh:
        rows = [line.strip() for line in fh.read().splitlines() if line.strip()]
    kind = problem.kind.split()
    head = rows[0].split() if rows else []
    if head[: len(kind)] != kind or len(head) != len(kind) + problem.counted:
        header = problem.kind + " <count>" * problem.counted
        raise MalformedInstance(f"{args.algorithm} solution files start with the line {header!r}")
    epsilon = _rational(args.epsilon, "--epsilon")
    aux = problem.aux(args)
    with malformed_numbers(args.solution):
        report = problem.check(instance, rows, aux)
    print(report)
    if not report.feasible:
        print("FAIL infeasible")
        return 3
    if args.against_oracle:
        try:
            opt = problem.oracle(instance, aux)
        except TooLarge as exc:
            print(f"TooLarge: {exc}; validity-only verdict")
            return 0
        if opt is None:
            print("no oracle for this algorithm; validity-only verdict")
            return 0
        bound, bound_label = spec.bound(instance, epsilon, args.b)
        ratio = problem.ratio(Fraction(report.objective), opt)
        if ratio is None and opt == 0:
            ratio = Fraction(0)
        if ratio is None:
            print(f"OPT={frac_str(opt)} objective=0 FAIL ratio undefined")
            return 3
        verdict = "PASS" if ratio <= bound else "FAIL"
        print(
            f"OPT={frac_str(opt)} ratio={frac_str(ratio)} ({frac_decimal(ratio)}) "
            f"bound {bound_label}: {verdict}"
        )
        if verdict == "FAIL":
            return 3
    return 0


def cmd_bench(args) -> int:
    spec = ALGORITHMS[args.algorithm]
    problem = spec.problem
    instance = _load_instance(problem, args.instance)
    aux = problem.aux(args)
    common = _common(args)
    try:
        opt = problem.oracle(instance, aux)
    except TooLarge:
        opt = None
    print("seed,rounds,peak_memory,objective,ratio")
    code = 0
    for seed in range(args.seeds):
        try:
            result = spec.run(instance, aux, args, {**common, "seed": seed})
        except RetriesExhausted:
            print(f"{seed},,,retries-exhausted,")
            code = 2
            continue
        objective = Fraction(problem.objective(result.value, instance, aux))
        ratio = None if opt is None else problem.ratio(objective, opt)
        ratio = "" if ratio is None else frac_decimal(ratio)
        print(f"{seed},{result.total_rounds},{result.cluster.peak_words()},{frac_str(objective)},{ratio}")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "bench":
            return cmd_bench(args)
    except RetriesExhausted:
        return 2
    except (Uncoverable, MalformedInstance, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
