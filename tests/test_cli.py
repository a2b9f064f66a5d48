import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from mpcgraph import cli
from mpcgraph.engine import RetriesExhausted
from mpcgraph.instances import digest, read_graph, read_set_cover


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_graph_and_determinism(tmp_path, capsys):
    path = tmp_path / "g.graph"
    code, out = run_cli(capsys, "generate", "graph", str(path), "--n", "6", "--c", "1/2", "--seed", "4")
    assert code == 0 and "digest=" in out
    first = path.read_bytes()
    code, out2 = run_cli(capsys, "generate", "graph", str(path), "--n", "6", "--c", "1/2", "--seed", "4")
    assert path.read_bytes() == first and out == out2
    assert f"digest={digest(path.read_text())}" in out  # the digest of the bytes written
    g = read_graph(path)
    assert g.n == 6


def test_generate_setcover(tmp_path, capsys):
    path = tmp_path / "i.sc"
    code, out = run_cli(
        capsys, "generate", "setcover", str(path), "--n", "5", "--m", "8", "--density", "0.4", "--seed", "2"
    )
    assert code == 0
    assert f"digest={digest(path.read_text())}" in out
    inst = read_set_cover(path)
    assert inst.n == 5 and inst.m == 8
    inst.check_coverable()


def test_run_list(capsys):
    code, out = run_cli(capsys, "run", "--list")
    assert code == 0
    for name in cli.ALGORITHMS:
        assert name in out


@pytest.mark.parametrize(
    "alg,extra",
    [
        ("match-2", []),
        ("bmatch", ["--b", "2", "--epsilon", "1/10"]),
        ("mis-simple", []),
        ("mis-fast", []),
        ("clique", []),
        ("colour-v", []),
        ("colour-e", []),
        ("vc-2", []),
    ],
)
def test_run_graph_algorithms(tmp_path, capsys, alg, extra):
    path = tmp_path / "g.graph"
    run_cli(capsys, "generate", "graph", str(path), "--n", "8", "--c", "1/3", "--seed", "1")
    sol = tmp_path / "sol.txt"
    trace = tmp_path / "trace.json"
    code, out = run_cli(
        capsys, "run", alg, str(path), "--seed", "2", "--out", str(sol), "--trace", str(trace), *extra
    )
    assert code == 0
    report = json.loads(out)
    assert report["algorithm"] == alg
    assert report["instance_digest"] == digest(path.read_text())
    assert report["rounds_total"] >= 0
    doc = json.loads(trace.read_text())
    assert doc["schema"] == 1
    assert doc["attempts"]
    # verify the emitted solution file
    code2, out2 = run_cli(
        capsys, "verify", str(path), str(sol), "--algorithm", alg, *(extra if alg == "bmatch" else [])
    )
    assert code2 == 0, out2


def test_run_setcover_algorithms(tmp_path, capsys):
    path = tmp_path / "i.sc"
    run_cli(capsys, "generate", "setcover", str(path), "--n", "6", "--m", "7", "--density", "0.5", "--seed", "3")
    for alg, extra in (("sc-f", []), ("sc-lnD", ["--epsilon", "1/10"])):
        sol = tmp_path / f"{alg}.sol"
        code, out = run_cli(capsys, "run", alg, str(path), "--seed", "1", "--out", str(sol), "--oracle", *extra)
        assert code == 0
        report = json.loads(out)
        assert "ratio" in report
        code2, out2 = run_cli(
            capsys, "verify", str(path), str(sol), "--algorithm", alg, "--against-oracle", *extra
        )
        assert code2 == 0 and "PASS" in out2


def test_verify_infeasible_solution(tmp_path, capsys):
    path = tmp_path / "i.sc"
    run_cli(capsys, "generate", "setcover", str(path), "--n", "4", "--m", "6", "--density", "0.5", "--seed", "5")
    bad = tmp_path / "bad.sol"
    bad.write_text("cover\n")  # empty cover on a nonempty universe
    code, out = run_cli(capsys, "verify", str(path), str(bad), "--algorithm", "sc-f")
    assert code == 3 and "FAIL infeasible" in out


def test_verify_rejects_a_repeated_matching_edge(tmp_path, capsys):
    path = tmp_path / "p3.graph"
    path.write_text("3 2\n0 1 5\n1 2 1\n")
    sol = tmp_path / "m.sol"
    argv = ["verify", str(path), str(sol), "--algorithm", "bmatch", "--b", "2", "--against-oracle"]
    sol.write_text("matching\nweight 5\n0\n")
    code, out = run_cli(capsys, *argv)
    assert code == 0 and "PASS" in out
    # Edge 0 twice: objective 10 against OPT 6 used to PASS.
    sol.write_text("matching\nweight 10\n0\n0\n")
    code, out = run_cli(capsys, *argv)
    assert code == 3 and "malformed: duplicate edge id 0" in out and "PASS" not in out


@pytest.mark.parametrize("text", ["matching\nweight 7\n0\n", "matching\n0\n", "matching\nweight x\n0\n"])
def test_verify_checks_the_weight_line(tmp_path, capsys, text):
    path = tmp_path / "p3.graph"
    path.write_text("3 2\n0 1 5\n1 2 1\n")
    sol = tmp_path / "m.sol"
    sol.write_text(text)
    code, out = run_cli(capsys, "verify", str(path), str(sol), "--algorithm", "match-2")
    assert code == 3 and "PASS" not in out


# Each of these verified (or crashed) before verify judged files through the
# registry; on the path 0 - 1 - 2.
BAD_SOLUTIONS = {
    "mis repeated and out-of-range ids": ("mis-fast", "mis\n0\n2\n2\n99\n", []),
    "clique repeated id": ("clique", "clique\n0\n1\n1\n", []),
    "cover repeated id": ("vc-2", "cover\n0\n0\n1\n", ["--against-oracle"]),
    "colouring id out of range": ("colour-v", "colouring vertex 2\n0 0 0\n1 0 1\n5 0 0\n", []),
    "colouring header count": ("colour-v", "colouring vertex 99\n0 0 0\n1 0 1\n2 0 0\n", []),
    "colouring 4-token row": ("colour-v", "colouring vertex 2\n0 0 0\n1 0 1\n2 0 0 7\n", []),
    "colouring without mode": ("colour-e", "colouring\n0 0 0\n1 0 1\n", []),
    "edge colouring under colour-v": ("colour-v", "colouring edge 2\n0 0 0\n1 0 1\n", []),
    "matching under mis-fast": ("mis-fast", "matching\nweight 5\n0\n", []),
    "mis under match-2": ("match-2", "mis\n0\n2\n", []),
    "mis header with a count": ("mis-fast", "mis 7\n0\n2\n", []),
    "matching header with a count": ("match-2", "matching 1\nweight 5\n0\n", []),
    "colouring header with two counts": ("colour-v", "colouring vertex 2 2\n0 0 0\n1 0 1\n2 0 0\n", []),
}


@pytest.mark.parametrize("case", sorted(BAD_SOLUTIONS))
def test_verify_rejects_bad_solution_files(tmp_path, capsys, case):
    alg, text, extra = BAD_SOLUTIONS[case]
    path = tmp_path / "p3.graph"
    path.write_text("3 2\n0 1 5\n1 2 1\n")
    sol = tmp_path / "s.sol"
    sol.write_text(text)
    code = cli.main(["verify", str(path), str(sol), "--algorithm", alg, *extra])
    out, err = capsys.readouterr()
    assert code == 3 and "PASS" not in out
    assert "malformed" in out or "error:" in err  # rejected as malformed, not scored


def test_verify_oracle_too_large(tmp_path, capsys):
    path = tmp_path / "big.graph"
    run_cli(capsys, "generate", "graph", str(path), "--n", "40", "--c", "2/5", "--seed", "1")
    sol = tmp_path / "m.sol"
    code, _ = run_cli(capsys, "run", "match-2", str(path), "--seed", "1", "--out", str(sol))
    assert code == 0
    code, out = run_cli(capsys, "verify", str(path), str(sol), "--algorithm", "match-2", "--against-oracle")
    assert code == 0 and "TooLarge" in out


@pytest.mark.parametrize(
    "problem,objective,opt,expected",
    [
        (cli.SET_COVER, 0, 0, Fraction(0)),
        (cli.SET_COVER, 2, 0, None),
        (cli.SET_COVER, 3, 2, Fraction(3, 2)),
        (cli.MATCHING, 0, 0, Fraction(0)),
        (cli.MATCHING, 0, 1, None),
        (cli.MATCHING, 2, 3, Fraction(3, 2)),
    ],
)
def test_ratio_is_zero_for_zero_over_zero_and_none_for_positive_over_zero(problem, objective, opt, expected):
    assert problem.ratio(objective, opt) == expected


def test_verify_fails_a_positive_cover_of_an_empty_universe(tmp_path, capsys):
    # Before: OPT = 0 made the ratio 0, and the cover of weight 2 passed.
    path, sol = tmp_path / "e.sc", tmp_path / "s.sol"
    path.write_text("2 0\n1 0\n1 0\n")
    sol.write_text("cover\n0\n1\n")
    code, out = run_cli(capsys, "verify", str(path), str(sol), "--algorithm", "sc-f", "--against-oracle")
    assert code == 3 and "OPT=0 objective=2 FAIL ratio undefined" in out and "PASS" not in out


def test_edgeless_graph_ratio_is_zero(tmp_path, capsys):
    # Before: bench left 0/0 empty while run --oracle reported 0.
    path = tmp_path / "g3"
    path.write_text("3 0\n")
    code, out = run_cli(capsys, "bench", "match-2", str(path), "--seeds", "2")
    assert code == 0 and [row.split(",")[-1] for row in out.splitlines()[1:]] == ["0.000000", "0.000000"]
    code, out = run_cli(capsys, "run", "match-2", str(path), "--oracle")
    assert code == 0 and json.loads(out)["ratio"] == "0"


def test_no_finite_ratio_is_left_out(tmp_path, capsys, monkeypatch):
    """An oracle above an empty matching has no finite ratio: run leaves it
    out of the report, verify fails and bench leaves the cell empty."""
    path, sol = tmp_path / "g3", tmp_path / "m.sol"
    path.write_text("3 0\n")
    spec = cli.ALGORITHMS["match-2"]
    claimed = replace(spec.problem, oracle=lambda instance, aux: 1)
    monkeypatch.setitem(cli.ALGORITHMS, "match-2", replace(spec, problem=claimed))
    code, out = run_cli(capsys, "run", "match-2", str(path), "--oracle", "--out", str(sol))
    report = json.loads(out)
    assert code == 0 and report["oracle"] == "1" and "ratio" not in report
    code, out = run_cli(capsys, "verify", str(path), str(sol), "--algorithm", "match-2", "--against-oracle")
    assert code == 3 and "FAIL ratio undefined" in out
    code, out = run_cli(capsys, "bench", "match-2", str(path), "--seeds", "2")
    assert code == 0 and out.splitlines()[1:] == ["0,1,1,0,", "1,1,1,0,"]


def test_infeasible_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.sc"
    path.write_text("2 2\n1 1 0\n1 1 0\n")  # element 1 uncovered
    code, _ = run_cli(capsys, "run", "sc-f", str(path), "--seed", "1")
    assert code == 3


@pytest.mark.parametrize("alg", ["sc-f", "sc-lnD"])
def test_negative_element_count_exit_code(tmp_path, capsys, alg):
    # Before: the header was accepted, and the run failed its own
    # coverage assertion (exit 1).
    path = tmp_path / "neg.sc"
    path.write_text("1 -1\n1 0\n")
    assert cli.main(["run", alg, str(path), "--epsilon", "1/10"]) == 3
    assert "element count must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("alg", sorted(cli.ALGORITHMS))
def test_empty_instance_runs_and_verifies(tmp_path, capsys, alg):
    # Before: vc-2 and sc-f failed with "memory budget must be positive",
    # as eta = floor(0^(1+mu)) = 0.
    path = tmp_path / "empty"
    path.write_text("0 0\n")
    sol = tmp_path / "sol.txt"
    assert cli.main(["run", alg, str(path), "--epsilon", "1/10", "--out", str(sol)]) == 0
    code, out = run_cli(capsys, "verify", str(path), str(sol), "--algorithm", alg, "--epsilon", "1/10")
    assert code == 0, out


@pytest.mark.parametrize(
    "flag,value",
    [("--mu", "abc"), ("--epsilon", "x"), ("--c", "1/0"), ("--mu", "-1/5"), ("--epsilon", "-1/10"), ("--epsilon", "0")],
)
def test_bad_rational_option_exit_code(tmp_path, capsys, flag, value):
    path = tmp_path / "i.sc"
    run_cli(capsys, "generate", "setcover", str(path), "--n", "4", "--m", "6", "--density", "0.5", "--seed", "5")
    # A repeated option keeps its last value, so flag overrides the valid epsilon.
    # The flag=value form lets a value start with "-".
    code = cli.main(["run", "sc-lnD", str(path), "--epsilon", "1/10", f"{flag}={value}"])
    err = capsys.readouterr().err
    assert code == 3 and flag in err and value in err
    sol = tmp_path / "s.sol"
    sol.write_text("cover\n")
    code = cli.main(["verify", str(path), str(sol), "--algorithm", "sc-lnD", "--epsilon", "x"])
    assert code == 3 and "--epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("alg", sorted(cli.ALGORITHMS))
def test_eta_zero_is_rejected(tmp_path, capsys, alg):
    # Before: match-2 silently ran with the default eta, sc-f crashed with a
    # ValueError traceback.
    path = tmp_path / "in"
    kind = ["setcover", "--m", "6", "--density", "0.5"] if alg in ("sc-f", "sc-lnD") else ["graph", "--c", "1/3"]
    run_cli(capsys, "generate", kind[0], str(path), "--n", "6", *kind[1:], "--seed", "1")
    assert cli.main(["run", alg, str(path), "--eta", "0", "--epsilon", "1/10"]) == 3
    assert "--eta" in capsys.readouterr().err


COMMANDS = {
    "generate": ["generate", "graph", "g", "--n", "4"],
    "run": ["run", "match-2", "g"],
    "bench": ["bench", "match-2", "g"],
    "verify": ["verify", "g", "s", "--algorithm", "match-2"],
}
# Each numeric option argparse types, the subcommands that take it, and a
# value that does not parse and one out of range (--c has no range).
BAD_VALUES = [
    ("--mu", ("run", "bench"), ("abc", "-1/5")),
    ("--epsilon", ("run", "bench", "verify"), ("x", "0")),
    ("--eta", ("run", "bench"), ("2.5", "0")),
    ("--kappa", ("run",), ("k", "0")),
    ("--b", ("run", "bench", "verify"), ("1/2", "0")),
    ("--retries", ("run", "bench"), ("many", "-1")),
    ("--seeds", ("bench",), ("ten", "0")),
    ("--c", ("generate", "run", "bench"), ("1/0",)),
]
# Hand-picked cases, under the ids they are known by (argv<i>-<flag>).
USAGE_ERRORS = [
    pytest.param(argv, flag, argv[-1], id=f"argv{i}-{flag}")
    for i, (argv, flag) in enumerate(
        [
            (["run", "colour-v", "g", "--kappa", "0"], "--kappa"),
            (["run", "match-2", "g", "--retries", "-1"], "--retries"),
            (["bench", "match-2", "g", "--eta", "0"], "--eta"),
            (["bench", "match-2", "g", "--retries", "-1"], "--retries"),
            (["run", "match-2", "g", "--seed", "abc"], "--seed"),
            (["generate", "graph", "g", "--n", "4", "--c", "abc"], "--c"),
        ]
    )
]
USAGE_ERRORS += [
    pytest.param(COMMANDS[cmd] + [f"{flag}={value}"], flag, value, id=f"{cmd}-{flag}={value}")
    for flag, cmds, values in BAD_VALUES
    for cmd in cmds
    for value in values
]
USAGE_ERRORS.append(pytest.param(COMMANDS["bench"] + ["--bogus"], "--bogus", "--bogus", id="bench-unknown-flag"))


@pytest.mark.parametrize("argv,flag,value", USAGE_ERRORS)
def test_usage_errors_exit_3(capsys, argv, flag, value):
    # Exit 2 is reserved for retries exhausted.  The flag=value form lets a
    # value start with "-".
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err and value in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0 and "--eta" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["a b\n", "2 1\n0 1 1/0\n", "2 1\n0 x 1\n"])
def test_malformed_graph_file_exit_code(tmp_path, capsys, text):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    assert cli.main(["run", "match-2", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_generate_graph_c_below_minus_one_exit_code(tmp_path, capsys):
    # Before: a ValueError traceback and exit 1.
    code = cli.main(["generate", "graph", str(tmp_path / "g"), "--n", "10", "--c", "-3"])
    assert code == 3 and "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["abc", "1/0"])
def test_malformed_vertex_weights_exit_code(tmp_path, capsys, line):
    path = tmp_path / "g.graph"
    path.write_text("3 2\n0 1 1\n1 2 1\n")
    weights = tmp_path / "w.txt"
    weights.write_text(f"1\n{line}\n1\n")
    assert cli.main(["run", "vc-2", str(path), "--vertex-weights", str(weights)]) == 3
    assert str(weights) in capsys.readouterr().err


@pytest.mark.parametrize("case", ["instance", "vertex-weights", "solution", "directory"])
def test_unreadable_input_exit_code(tmp_path, capsys, case):
    # Before: a UnicodeDecodeError or IsADirectoryError traceback and exit 1;
    # then an exit-3 message that named no file for a file that is not ASCII.
    graph = tmp_path / "g.graph"
    graph.write_text("3 2\n0 1 1\n1 2 1\n")
    commented = tmp_path / "commented"
    text = {"instance": "3 2\n0 1 1\n1 2 1\n", "vertex-weights": "1\n1\n1\n", "solution": "cover\n1\n"}
    commented.write_bytes(("# café\n" + text.get(case, "")).encode("utf-8"))
    argv = {
        "instance": ["run", "vc-2", str(commented)],
        "vertex-weights": ["run", "vc-2", str(graph), "--vertex-weights", str(commented)],
        "solution": ["verify", str(graph), str(commented), "--algorithm", "vc-2"],
        "directory": ["run", "vc-2", str(tmp_path)],
    }[case]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "error:" in err and str(tmp_path if case == "directory" else commented) in err


def test_retries_exhausted_exit_code(tmp_path, capsys, monkeypatch):
    sc = tmp_path / "i.sc"
    run_cli(capsys, "generate", "setcover", str(sc), "--n", "8", "--m", "60", "--density", "0.4", "--seed", "2")
    import mpcgraph.rlr_setcover as rsc

    # library-level: an impossible regime exhausts the retry cap
    inst = read_set_cover(sc)
    monkeypatch.setattr(rsc, "FAIL_FACTOR", 1)
    with pytest.raises(RetriesExhausted) as err:
        rsc.approx_sc_f(inst, mu="1/5", seed=0, eta=1, retry_cap=1)
    assert all(re.fullmatch(r"\|U'\|=\d+ > 2", a.failure) for a in err.value.attempts)

    # CLI surfaces it as exit code 2
    def boom(instance, **kw):
        raise RetriesExhausted([])

    monkeypatch.setattr(cli.rsc, "approx_sc_f", boom)
    code, out = run_cli(capsys, "run", "sc-f", str(sc), "--seed", "1")
    assert code == 2
    assert "retries-exhausted" in out


def test_mis_fast_at_mu_zero(tmp_path, capsys):
    # At mu = 0 mis-fast uses 8 degree classes, and its budget must count
    # all 8 or the central scan outgrows it.
    path, sol = tmp_path / "g.graph", tmp_path / "s.sol"
    run_cli(capsys, "generate", "graph", str(path), "--n", "200", "--c", "2/5", "--seed", "3")
    code, _ = run_cli(capsys, "run", "mis-fast", str(path), "--mu", "0", "--out", str(sol))
    assert code == 0
    code, out = run_cli(capsys, "verify", str(path), str(sol), "--algorithm", "mis-fast")
    assert code == 0 and "feasible (maximal)" in out


def test_bench_csv(tmp_path, capsys):
    path = tmp_path / "g.graph"
    run_cli(capsys, "generate", "graph", str(path), "--n", "7", "--c", "1/3", "--seed", "6")
    code, out = run_cli(capsys, "bench", "match-2", str(path), "--seeds", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed,rounds,peak_memory,objective,ratio"
    assert len(lines) == 4
    for ln in lines[1:]:
        assert len(ln.split(",")) == 5


def test_bench_survives_one_exhausted_seed(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.graph"
    run_cli(capsys, "generate", "graph", str(path), "--n", "7", "--c", "1/3", "--seed", "6")
    code, intact = run_cli(capsys, "bench", "match-2", str(path), "--seeds", "3")
    assert code == 0
    entry = cli.rm.approx_max_matching

    def exhausted_at_seed_1(graph, **kw):
        if kw["seed"] == 1:
            raise RetriesExhausted([])
        return entry(graph, **kw)

    monkeypatch.setattr(cli.rm, "approx_max_matching", exhausted_at_seed_1)
    code, out = run_cli(capsys, "bench", "match-2", str(path), "--seeds", "3")
    rows = intact.splitlines()
    rows[2] = "1,,,retries-exhausted,"
    assert code == 2 and out.splitlines() == rows


def test_bench_checks_the_regime_before_the_header(tmp_path, capsys):
    path = tmp_path / "g.graph"
    run_cli(capsys, "generate", "graph", str(path), "--n", "7", "--c", "1/3", "--seed", "6")
    assert cli.main(["bench", "mis-fast", str(path), "--mu=-1/5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "--mu" in captured.err


def test_mpc_trace_env(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.graph"
    run_cli(capsys, "generate", "graph", str(path), "--n", "6", "--c", "1/3", "--seed", "1")
    trace = tmp_path / "t.json"
    monkeypatch.setenv("MPC_TRACE", "off")
    run_cli(capsys, "run", "match-2", str(path), "--seed", "1", "--trace", str(trace))
    off_doc = json.loads(trace.read_text())
    assert off_doc["attempts"][0]["rounds"] == []
    monkeypatch.setenv("MPC_TRACE", "verbose")
    run_cli(capsys, "run", "match-2", str(path), "--seed", "1", "--trace", str(trace))
    verbose_doc = json.loads(trace.read_text())
    assert verbose_doc["attempts"][0]["rounds"][0]["peak_words"]


def test_run_p3_example(tmp_path, capsys):
    # run match-2 p3.graph --mu 0.2 --seed 1 reports weight 3
    path = tmp_path / "p3.graph"
    path.write_text("3 2\n0 1 3\n1 2 2\n")
    code, out = run_cli(capsys, "run", "match-2", str(path), "--mu", "0.2", "--seed", "1")
    assert code == 0
    assert json.loads(out)["objective"] == "3"


def test_cross_process_determinism(tmp_path):
    """Hash randomization across interpreter processes must not leak into
    reports or traces."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    base_env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(root / "src")}
    g = tmp_path / "g.graph"
    trace = tmp_path / "t.json"
    sol = tmp_path / "s.txt"
    subprocess.run(
        [sys.executable, "-m", "mpcgraph.cli", "generate", "graph", str(g), "--n", "12", "--c", "1/2", "--seed", "8"],
        check=True,
        capture_output=True,
        env=base_env,
        cwd=root,
    )
    outputs = []
    for hashseed in ("1", "77"):
        proc = subprocess.run(
            [
                sys.executable, "-m", "mpcgraph.cli", "run", "mis-fast", str(g),
                "--seed", "4", "--out", str(sol), "--trace", str(trace),
            ],
            check=True,
            capture_output=True,
            env={**base_env, "PYTHONHASHSEED": hashseed},
            cwd=root,
        )
        outputs.append((proc.stdout, sol.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
