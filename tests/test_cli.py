import json

import pytest

from mpcgraph import cli
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


def test_verify_oracle_too_large(tmp_path, capsys):
    path = tmp_path / "big.graph"
    run_cli(capsys, "generate", "graph", str(path), "--n", "40", "--c", "2/5", "--seed", "1")
    sol = tmp_path / "m.sol"
    code, _ = run_cli(capsys, "run", "match-2", str(path), "--seed", "1", "--out", str(sol))
    assert code == 0
    code, out = run_cli(capsys, "verify", str(path), str(sol), "--algorithm", "match-2", "--against-oracle")
    assert code == 0 and "TooLarge" in out


def test_infeasible_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.sc"
    path.write_text("2 2\n1 1 0\n1 1 0\n")  # element 1 uncovered
    code, _ = run_cli(capsys, "run", "sc-f", str(path), "--seed", "1")
    assert code == 3


@pytest.mark.parametrize("flag,value", [("--mu", "abc"), ("--epsilon", "x"), ("--c", "1/0")])
def test_bad_rational_option_exit_code(tmp_path, capsys, flag, value):
    path = tmp_path / "i.sc"
    run_cli(capsys, "generate", "setcover", str(path), "--n", "4", "--m", "6", "--density", "0.5", "--seed", "5")
    # A repeated option keeps its last value, so flag overrides the valid epsilon.
    code = cli.main(["run", "sc-lnD", str(path), "--epsilon", "1/10", flag, value])
    err = capsys.readouterr().err
    assert code == 3 and flag in err and value in err
    sol = tmp_path / "s.sol"
    sol.write_text("cover\n")
    code = cli.main(["verify", str(path), str(sol), "--algorithm", "sc-lnD", "--epsilon", "x"])
    assert code == 3 and "--epsilon" in capsys.readouterr().err


def test_retries_exhausted_exit_code(tmp_path, capsys, monkeypatch):
    sc = tmp_path / "i.sc"
    run_cli(capsys, "generate", "setcover", str(sc), "--n", "8", "--m", "60", "--density", "0.4", "--seed", "2")
    from mpcgraph.engine import RetriesExhausted
    import mpcgraph.rlr_setcover as rsc

    # library-level: an impossible regime exhausts the retry cap
    inst = read_set_cover(sc)
    with pytest.raises(RetriesExhausted):
        rsc.approx_sc_f(inst, mu="1/5", seed=0, eta=1, fail_multiplier=1, retry_cap=1)

    # CLI surfaces it as exit code 2
    def boom(instance, **kw):
        raise RetriesExhausted([])

    monkeypatch.setattr(cli.rsc, "approx_sc_f", boom)
    code, out = run_cli(capsys, "run", "sc-f", str(sc), "--seed", "1")
    assert code == 2
    assert "retries-exhausted" in out


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
