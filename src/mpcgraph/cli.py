"""Command-line driver: generate instances, run cluster algorithms,
verify solutions against oracles, and sweep seeds into CSV.

Exit codes: 0 success, 2 retries exhausted, 3 infeasible or malformed
input.  Identical invocations produce byte-identical reports and traces.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import colouring as col
from . import hungry
from . import parallel_setcover as psc
from . import rlr_matching as rm
from . import rlr_setcover as rsc
from .engine import RetriesExhausted, RunResult, dump_trace
from .exactmath import frac_decimal, frac_str, harmonic
from .instances import (
    Colouring,
    Cover,
    MalformedInstance,
    Matching,
    TooLarge,
    Uncoverable,
    digest,
    generate_graph,
    generate_set_cover,
    graph_from_text,
    set_cover_from_text,
    validate,
    validate_b_matching,
    vertex_cover_encoding,
    write_graph,
    write_set_cover,
)

# Not called here: perfbench/spans.py times these names in this module's
# namespace, so they stay importable from it.
from .instances import graph_to_text, read_graph, read_set_cover, set_cover_to_text  # noqa: F401
from .oracles import (
    brute_force,
    is_maximal_clique,
    is_maximal_independent_set,
)

ALGORITHMS = {
    "sc-f": "weighted set cover, weight <= f * OPT, O((c/mu)^2) rounds",
    "vc-2": "weighted vertex cover, weight <= 2 * OPT, O(c/mu) rounds",
    "match-2": "weighted matching, weight >= OPT / 2, O(c/mu) rounds",
    "bmatch": "weighted b-matching, weight >= OPT / (3 - 2/max(2,b) + 2*eps)",
    "mis-simple": "maximal independent set, O(1/mu^2) rounds",
    "mis-fast": "maximal independent set, O(c/mu) rounds",
    "clique": "maximal clique via lazy complement, O(1/mu) rounds",
    "sc-lnD": "weighted set cover, weight <= (1+eps) * H_Delta * OPT",
    "colour-v": "vertex colouring, (1 + o(1)) * Delta colours",
    "colour-e": "edge colouring via per-group fan rotation, (1 + o(1)) * Delta colours",
}
GRAPH_ALGS = {"vc-2", "match-2", "bmatch", "mis-simple", "mis-fast", "clique", "colour-v", "colour-e"}
MINIMIZING = {"sc-f", "vc-2", "sc-lnD"}


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mpcgraph", description=__doc__)
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
    r.add_argument("--mu", type=str, default="1/5")
    r.add_argument("--c", type=str, default=None)
    r.add_argument("--eta", type=int, default=None)
    r.add_argument("--epsilon", type=str, default=None)
    r.add_argument("--b", type=int, default=None)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--retries", type=int, default=3)
    r.add_argument("--kappa", type=int, default=None)
    r.add_argument("--vertex-weights", default=None, help="file with one rational per line (vc-2)")
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

    b = sub.add_parser("bench", help="seed sweep, CSV on stdout")
    b.add_argument("algorithm", choices=sorted(ALGORITHMS))
    b.add_argument("instance")
    b.add_argument("--seeds", type=int, default=10)
    b.add_argument("--mu", type=str, default="1/5")
    b.add_argument("--c", type=str, default=None)
    b.add_argument("--eta", type=int, default=None)
    b.add_argument("--epsilon", type=str, default=None)
    b.add_argument("--b", type=int, default=None)
    b.add_argument("--retries", type=int, default=3)
    return p


def _rational(text: str, flag: str) -> Fraction:
    """Parse a rational option value; a bad one is malformed input (exit 3)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInstance(f"{flag} must be a rational, got {text!r}") from exc


def _load_instance(algorithm: str, path: str):
    """Read the instance file once: returns the parsed instance and its text."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    parse = graph_from_text if algorithm in GRAPH_ALGS else set_cover_from_text
    return parse(text), text


def _run_algorithm(args, instance) -> tuple[RunResult, object]:
    common = dict(mu=_rational(args.mu, "--mu"), seed=args.seed, retry_cap=args.retries)
    if args.c is not None:
        common["c"] = _rational(args.c, "--c")
    if args.eta is not None:
        common["eta"] = args.eta
    alg = args.algorithm
    if alg == "sc-f":
        return rsc.approx_sc_f(instance, **common), None
    if alg == "vc-2":
        weights = None
        if args.vertex_weights:
            with open(args.vertex_weights, "r", encoding="ascii") as fh:
                weights = [Fraction(line.strip()) for line in fh if line.strip()]
        return rsc.vertex_cover_2approx(instance, weights, **common), weights
    if alg == "match-2":
        return rm.approx_max_matching(instance, **common), None
    if alg == "bmatch":
        if args.epsilon is None:
            raise MalformedInstance("--epsilon is required for bmatch")
        b = args.b if args.b is not None else 1
        return rm.approx_b_matching(instance, b, _rational(args.epsilon, "--epsilon"), **common), b
    if alg == "mis-simple":
        return hungry.mis_simple(instance, **common), None
    if alg == "mis-fast":
        return hungry.mis_fast(instance, **common), None
    if alg == "clique":
        return hungry.maximal_clique(instance, **common), None
    if alg == "sc-lnD":
        if args.epsilon is None:
            raise MalformedInstance("--epsilon is required for sc-lnD")
        return psc.approx_sc_lnDelta(instance, _rational(args.epsilon, "--epsilon"), **common), None
    if alg == "colour-v":
        return col.vertex_colouring(instance, kappa=args.kappa, **common), None
    if alg == "colour-e":
        return col.edge_colouring(instance, kappa=args.kappa, **common), None
    raise ValueError(alg)


def _objective(algorithm: str, value, instance, aux) -> Fraction | int:
    if algorithm in ("sc-f", "sc-lnD"):
        return value.weight(instance)
    if algorithm == "vc-2":
        weights = aux or [Fraction(1)] * instance.n
        return sum((weights[i] for i in value.set_ids), Fraction(0))
    if algorithm in ("match-2", "bmatch"):
        return value.weight(instance)
    if algorithm in ("mis-simple", "mis-fast", "clique"):
        return len(value)
    return value.colour_count


def _oracle_value(algorithm: str, instance, aux):
    if algorithm in ("sc-f", "sc-lnD"):
        return brute_force("setcover", instance)[0]
    if algorithm == "vc-2":
        return brute_force("setcover", vertex_cover_encoding(instance, aux))[0]
    if algorithm == "match-2":
        return brute_force("matching", instance)[0]
    if algorithm == "bmatch":
        return brute_force("bmatching", instance, aux)[0]
    return None


def solution_to_text(algorithm: str, value, instance, aux) -> str:
    if isinstance(value, Matching):
        lines = ["matching", f"weight {frac_str(value.weight(instance))}"]
        lines += [str(e) for e in value.edge_ids]
    elif isinstance(value, Cover):
        lines = ["cover"]
        lines += [str(i) for i in value.set_ids]
    elif isinstance(value, Colouring):
        lines = [f"colouring {value.kind} {value.colour_count}"]
        lines += [f"{i} {g} {c}" for i, (g, c) in enumerate(zip(value.groups, value.colours))]
    else:  # vertex set
        kind = "clique" if algorithm == "clique" else "mis"
        lines = [kind]
        lines += [str(v) for v in value]
    return "\n".join(lines) + "\n"


def solution_from_text(text: str):
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise MalformedInstance("empty solution file")
    head = rows[0].split()
    kind = head[0]
    if kind == "matching":
        ids = [int(x) for x in rows[2:]]
        return ("matching", tuple(ids))
    if kind == "cover":
        return ("cover", tuple(int(x) for x in rows[1:]))
    if kind in ("mis", "clique"):
        return (kind, tuple(int(x) for x in rows[1:]))
    if kind == "colouring":
        mode = head[1]
        triples = [tuple(int(t) for t in ln.split()) for ln in rows[1:]]
        triples.sort()
        groups = tuple(t[1] for t in triples)
        colours = tuple(t[2] for t in triples)
        return ("colouring", Colouring(kind=mode, groups=groups, colours=colours))
    raise MalformedInstance(f"unknown solution kind {kind!r}")


def _bound_for(algorithm: str, instance, epsilon: Fraction, b: int) -> tuple[Fraction, str]:
    if algorithm in ("vc-2", "match-2"):
        return Fraction(2), "2"
    if algorithm == "sc-f":
        f = instance.frequency
        return Fraction(f), f"f={f}"
    if algorithm == "sc-lnD":
        bound = (1 + epsilon) * harmonic(instance.max_set_size)
        return bound, f"(1+eps)*H_Delta={frac_str(bound)}"
    if algorithm == "bmatch":
        bound = 3 - Fraction(2, max(2, b)) + 2 * epsilon
        return bound, f"(3-2/max(2,b)+2eps)={frac_str(bound)}"
    return Fraction(0), ""


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
            print(f"{name}: {ALGORITHMS[name]}")
        return 0
    if not args.algorithm or not args.instance:
        raise MalformedInstance("run needs an algorithm and an instance path")
    instance, text = _load_instance(args.algorithm, args.instance)
    inst_digest = digest(text)
    try:
        result, aux = _run_algorithm(args, instance)
    except RetriesExhausted as exc:
        report = {
            "algorithm": args.algorithm,
            "instance_digest": inst_digest,
            "status": "retries-exhausted",
            "attempts": [{"seed": a.seed, "failure": a.failure, "rounds": a.total_rounds} for a in exc.attempts],
        }
        print(json.dumps(report, sort_keys=True, indent=2))
        return 2
    objective = _objective(args.algorithm, result.value, instance, aux)
    report = {
        "algorithm": args.algorithm,
        "instance_digest": inst_digest,
        "config": result.cluster.config.to_dict(),
        "iterations": result.iterations,
        "rounds_total": result.total_rounds,
        "peak_memory_words": result.cluster.peak_words(),
        "attempts": len(result.attempts),
        "objective": frac_str(Fraction(objective)),
        "objective_decimal": frac_decimal(Fraction(objective)),
    }
    if args.oracle:
        try:
            opt = _oracle_value(args.algorithm, instance, aux)
        except TooLarge as exc:
            opt = None
            report["oracle"] = f"too large: {exc}"
        if opt is not None:
            report["oracle"] = frac_str(opt)
            obj = Fraction(objective)
            if args.algorithm in MINIMIZING:
                ratio = obj / opt if opt else Fraction(0)
            else:
                ratio = opt / obj if obj else Fraction(0)
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
    instance, _ = _load_instance(args.algorithm, args.instance)
    with open(args.solution, "r", encoding="ascii") as fh:
        kind, payload = solution_from_text(fh.read())
    epsilon = _rational(args.epsilon, "--epsilon")
    feasible = False
    objective = None
    if kind == "matching":
        from .instances import Matching as M

        loads = [0] * instance.n
        for e in payload:
            if not (0 <= e < instance.m):
                print(f"FAIL malformed: edge id {e} out of range")
                return 3
            u, v = instance.endpoints(e)
            loads[u] += 1
            loads[v] += 1
        sol = M(edge_ids=tuple(sorted(payload)), loads=tuple(loads))
        rep = validate_b_matching(sol, instance, args.b) if args.algorithm == "bmatch" else validate(sol, instance)
        feasible, objective = rep.feasible, rep.objective
        print(rep)
    elif kind == "cover":
        sol = Cover(set_ids=payload)
        if args.algorithm == "vc-2":
            enc = vertex_cover_encoding(instance)
            rep = validate(sol, enc)
        else:
            rep = validate(sol, instance)
        feasible, objective = rep.feasible, rep.objective
        print(rep)
    elif kind in ("mis", "clique"):
        check = is_maximal_clique if kind == "clique" else is_maximal_independent_set
        feasible = check(instance, payload)
        objective = len(payload)
        print(f"{kind}: {'feasible (maximal)' if feasible else 'infeasible'} size={objective}")
    else:
        rep = validate(payload, instance)
        feasible, objective = rep.feasible, rep.objective
        print(rep)
    if not feasible:
        print("FAIL infeasible")
        return 3
    if args.against_oracle:
        try:
            aux = args.b if args.algorithm == "bmatch" else None
            opt = _oracle_value(args.algorithm, instance, aux)
        except TooLarge as exc:
            print(f"TooLarge: {exc}; validity-only verdict")
            return 0
        if opt is None:
            print("no oracle for this algorithm; validity-only verdict")
            return 0
        bound, bound_label = _bound_for(args.algorithm, instance, epsilon, args.b)
        obj = Fraction(objective)
        if args.algorithm in MINIMIZING:
            ratio = obj / opt if opt else Fraction(0)
        else:
            ratio = opt / obj if obj else (Fraction(0) if opt == 0 else None)
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
    instance, _ = _load_instance(args.algorithm, args.instance)
    try:
        aux0 = args.b if args.algorithm == "bmatch" else None
        opt = _oracle_value(args.algorithm, instance, aux0)
    except TooLarge:
        opt = None
    print("seed,rounds,peak_memory,objective,ratio")
    code = 0
    for seed in range(args.seeds):
        run_args = argparse.Namespace(**{**vars(args), "seed": seed, "kappa": None, "vertex_weights": None})
        try:
            result, aux = _run_algorithm(run_args, instance)
        except RetriesExhausted:
            print(f"{seed},,,retries-exhausted,")
            code = 2
            continue
        objective = Fraction(_objective(args.algorithm, result.value, instance, aux))
        if opt is None:
            ratio = ""
        elif args.algorithm in MINIMIZING:
            ratio = frac_decimal(objective / opt) if opt else ""
        else:
            ratio = frac_decimal(opt / objective) if objective else ""
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
    except (Uncoverable, MalformedInstance, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
