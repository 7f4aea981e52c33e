import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpmap
from qpmap import cli
from qpmap.bench import SOLVERS
from qpmap.common import SolverConfig
from qpmap.model import PairwiseMRF, UnsupportedModelError
from qpmap.uai import parse_uai, write_uai

MINIMAL = """MARKOV
2
2 2
1
2 0 1

4
2 0
0 1
"""


# each overflows in `prepare_model`: a shifted table, an absorbed unary, the total shift
OVERFLOW = {
    "shift": PairwiseMRF((2, 2), ((0, 1),), (np.array([[1e308, -1e308], [0.0, 1.0]]),)),
    "unary": PairwiseMRF((2, 2), ((0, 1),), (np.array([[1.7e308, 0.0], [0.0, 1.0]]),), {0: np.array([1.7e308, -1.0])}),
    "total-shift": PairwiseMRF((2, 2, 2), ((0, 1), (1, 2)), (np.array([[0.0, -1e308], [0.0, 0.0]]),) * 2),
}


def write_minimal(tmp_path):
    p = tmp_path / "model.uai"
    p.write_text(MINIMAL)
    return str(p)


class TestSolve:
    def test_two_node_cccp(self, tmp_path, capsys):
        rc = cli.main(["solve", "--input", write_minimal(tmp_path), "--restarts", "2"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "assignment: 0 0" in out
        assert "objective: 2" in out

    @pytest.mark.parametrize("solver", ["cccp", "convex", "gpem", "maxprod"])
    def test_all_solvers_run(self, tmp_path, capsys, solver):
        rc = cli.main(
            ["solve", "--input", write_minimal(tmp_path), "--solver", solver,
             "--restarts", "2", "--seed", "1"]
        )
        assert rc == cli.EXIT_OK
        assert "objective: 2" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["solve", "--input", str(tmp_path / "nope.uai")])
        assert rc == cli.EXIT_PARSE
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.uai"
        p.write_text("MARKOV\n2\n2 2\n1\n3 0 1 1\n")
        rc = cli.main(["solve", "--input", str(p)])
        assert rc == cli.EXIT_PARSE
        assert "line" in capsys.readouterr().err

    def test_overflowing_repeated_factors(self, tmp_path, capsys):
        p = tmp_path / "overflow.uai"
        p.write_text("MARKOV\n2\n2 2\n2\n2 0 1\n2 1 0\n\n4\n1e308 0 0 0\n\n4\n1e308 0 0 0\n")
        rc = cli.main(["solve", "--input", str(p)])
        assert rc == cli.EXIT_PARSE
        assert capsys.readouterr().err == f"error: {p}: edge (0,1) table has non-finite entries\n"

    def test_oversized_model_is_input_error(self, tmp_path):
        # variable 2 is in no factor, yet its 2147483647 labels size prepare_model's
        # (n, kmax) share matrix: 48 GiB.  The child's address space is capped at
        # 4 GiB, so that allocation fails alike on every host and none is touched.
        p = tmp_path / "huge.uai"
        p.write_text("MARKOV\n3\n2 2 2147483647\n1\n2 0 1\n4\n1.0 2.0 3.0 0.5\n")
        cap = 4 << 30
        env = {**os.environ, "PYTHONPATH": str(Path(qpmap.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "qpmap.cli", "solve", "--input", str(p), "--solver", "cccp"],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert run.returncode == cli.EXIT_PARSE
        assert run.stderr.startswith(f"error: {p}: model too large: Unable to allocate 48.0 GiB")
        assert run.stderr.count("\n") == 1 and not run.stdout

    @pytest.mark.parametrize("argv, made", [
        (["generate", "random", "--nodes", "3", "--labels", "20000", "--output", "big.uai"], "big.uai"),
        (["bench", "--sizes", "40000x40000", "--betas", "1", "--instances", "1", "--output-dir", "out"],
         "out/summary.csv"),
    ])
    def test_unallocatable_command_is_input_error(self, tmp_path, argv, made):
        # 3 tables of 20000^2 labels, 8.94 GiB, or a grid of 1.6e9 nodes, under a 4 GiB address-space cap
        cap = 4 << 30
        env = {**os.environ, "PYTHONPATH": str(Path(qpmap.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "qpmap.cli", *argv], cwd=tmp_path,
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert run.returncode == cli.EXIT_PARSE
        assert run.stderr.startswith("error: too large to allocate: ")
        assert run.stderr.count("\n") == 1 and not run.stdout and not (tmp_path / made).exists()
        if argv[0] == "generate":
            assert "Unable to allocate 8.94 GiB" in run.stderr

    def test_degenerate_model(self, tmp_path, capsys):
        m = PairwiseMRF((2, 2), ((0, 1),), (np.zeros((2, 2)),))
        p = tmp_path / "zero.uai"
        p.write_text(write_uai(m))
        rc = cli.main(["solve", "--input", str(p)])
        assert rc == cli.EXIT_DEGENERATE
        assert "node" in capsys.readouterr().err

    def test_trace_csv(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rc = cli.main(
            ["solve", "--input", write_minimal(tmp_path), "--restarts", "1",
             "--trace", str(trace)]
        )
        assert rc == cli.EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,qp_objective,integral_objective"
        assert len(lines) >= 2
        assert lines[1].startswith("1,")

    @pytest.mark.parametrize("solver,header", [
        ("cccp", "iter,qp_objective,integral_objective"),
        ("convex", "iter,qp_objective,integral_objective,convex_objective"),
        ("gpem", "iter,qp_objective,integral_objective"),
        ("maxprod", "iter,integral_objective"),
    ])
    def test_trace_csv_header(self, tmp_path, capsys, solver, header):
        # `iter`, then each trace field the solver carries; every row has a value for each
        trace = tmp_path / "trace.csv"
        rc = cli.main(
            ["solve", "--input", write_minimal(tmp_path), "--solver", solver,
             "--restarts", "1", "--trace", str(trace)]
        )
        assert rc == cli.EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == header and len(lines) >= 2
        assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])

    @pytest.mark.parametrize("flag,value,field", [("--tol", "-1", "objective_tolerance"),
                                                  ("--restarts", "0", "restarts"),
                                                  ("--max-iters", "0", "max_outer_iterations"),
                                                  ("--seed", "-1", "seed")])
    def test_invalid_config_is_input_error(self, tmp_path, capsys, flag, value, field):
        rc = cli.main(["solve", "--input", write_minimal(tmp_path), flag, value])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_PARSE
        assert err.startswith("error:") and field in err
        assert len(err.splitlines()) == 1

    def test_non_utf8_input(self, tmp_path, capsys):
        p = tmp_path / "binary.uai"
        p.write_bytes(b"MARKOV\n\xff\xfe\x00\n")
        rc = cli.main(["solve", "--input", str(p)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_PARSE
        assert err.startswith(f"error: cannot read {p}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_no_variables_is_unsupported(self, tmp_path, capsys, solver):
        with pytest.raises(UnsupportedModelError, match="no variables"):
            SOLVERS[solver][0](PairwiseMRF((), (), ()), SolverConfig(restarts=1))
        p = tmp_path / "empty.uai"
        p.write_text("MARKOV\n0\n0\n")
        rc = cli.main(["solve", "--input", str(p), "--solver", solver])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DEGENERATE
        assert err == "error: model has no variables\n"

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("name", OVERFLOW)
    def test_overflowing_model_is_unsupported(self, tmp_path, capsys, solver, name):
        with pytest.raises(UnsupportedModelError, match="is not finite"):
            SOLVERS[solver][0](OVERFLOW[name], SolverConfig(restarts=1))
        p = tmp_path / "overflow.uai"
        p.write_text(write_uai(OVERFLOW[name]))
        rc = cli.main(["solve", "--input", str(p), "--solver", solver])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_DEGENERATE and out == ""
        assert err.startswith("error: edge (") and err.endswith(" is not finite\n") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_overflowing_node_sum_is_unsupported(self, tmp_path, capsys, solver):
        # the chain passes prepare_model, and node 1's theta_hat overflows in PackedGraph
        chain = PairwiseMRF((2, 2, 2), ((0, 1), (1, 2)), (np.array([[1e308, 0.0], [0.0, 1e308]]),) * 2)
        with pytest.raises(UnsupportedModelError, match="^node 1: the sum of its tables is not finite$"):
            SOLVERS[solver][0](chain, SolverConfig(restarts=1, max_outer_iterations=5))
        p = tmp_path / "chain.uai"
        p.write_text(write_uai(chain))
        rc = cli.main(["solve", "--input", str(p), "--solver", solver, "--max-iters", "5"])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_DEGENERATE and out == ""
        assert err == "error: node 1: the sum of its tables is not finite\n"

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("text, message", [
        # node 0's theta_hat (9e307, 1e307) is finite, convex's 2*d + theta_hat is not
        ("MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n9e307 0 0 1e307\n", "node 0: 2.5 times the sum of its tables"),
        # every node's 2.5*theta_hat is finite, and their sum is not from node 2 on
        ("MARKOV\n4\n2 2 2 2\n2\n2 0 1\n2 2 3\n\n4\n6e307 0 0 0\n\n4\n6e307 0 0 0\n",
         "node 2: the sum of its and all earlier nodes' tables"),
    ], ids=["node", "total"])
    def test_overflowing_solver_sum_is_unsupported(self, tmp_path, capsys, solver, text, message):
        with pytest.raises(UnsupportedModelError, match=f"^{message} is not finite$"):
            SOLVERS[solver][0](parse_uai(text), SolverConfig(restarts=1, max_outer_iterations=5))
        p = tmp_path / "overflow.uai"
        p.write_text(text)
        rc = cli.main(["solve", "--input", str(p), "--solver", solver, "--max-iters", "5"])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_DEGENERATE and out == ""
        assert err == f"error: {message} is not finite\n"

    def test_overflowing_solver_sum_exits_3_under_warnings_as_errors(self, tmp_path):
        p = tmp_path / "overflow.uai"
        p.write_text("MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n9e307 0 0 1e307\n")
        env = {**os.environ, "PYTHONPATH": str(Path(qpmap.__file__).parents[1])}
        for solver in SOLVERS:
            run = subprocess.run(
                [sys.executable, "-W", "error", "-m", "qpmap.cli", "solve", "--input", str(p), "--solver", solver,
                 "--max-iters", "5"], capture_output=True, text=True, env=env, timeout=120,
            )
            assert (run.returncode, run.stdout) == (cli.EXIT_DEGENERATE, "")
            assert run.stderr == "error: node 0: 2.5 times the sum of its tables is not finite\n"

    def test_log_transform_rejects_nonpositive(self, tmp_path, capsys):
        path = write_minimal(tmp_path)
        rc = cli.main(["solve", "--input", path, "--log-transform"])
        assert rc == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"error: {path}: --log-transform requires strictly positive table entries\n"

    def test_log_transform_positive_tables(self, tmp_path, capsys):
        m = PairwiseMRF((2, 2), ((0, 1),), (np.exp(np.array([[2.0, 0.0], [0.0, 1.0]])),))
        p = tmp_path / "prob.uai"
        p.write_text(write_uai(m))
        rc = cli.main(["solve", "--input", str(p), "--log-transform", "--restarts", "2"])
        assert rc == cli.EXIT_OK
        assert "assignment: 0 0" in capsys.readouterr().out

    def test_log_transform_gives_read_only_logs(self):
        rng = np.random.default_rng(5)
        m = PairwiseMRF((2, 3, 2), ((0, 1), (2, 1)), (rng.random((2, 3)) + 0.1, rng.random((2, 3)) + 0.1),
                        {1: rng.random(3) + 0.1, 0: rng.random(2) + 0.1})
        parsed = parse_uai(write_uai(m))
        got = cli._log_transform(parsed)
        assert got.cardinalities == parsed.cardinalities and got.edges == parsed.edges
        assert list(got.unaries) == list(parsed.unaries)
        for a, b in zip(got.tables + tuple(got.unaries.values()), parsed.tables + tuple(parsed.unaries.values())):
            assert a.shape == b.shape and a.tobytes() == np.log(b).tobytes() and not a.flags.writeable
        with pytest.raises(ValueError, match="^--log-transform requires strictly positive unary entries$"):
            cli._log_transform(PairwiseMRF(m.cardinalities, m.edges, m.tables, {2: [1.0, 0.0]}))


class TestGenerate:
    def test_ising_roundtrips(self, tmp_path, capsys):
        out = tmp_path / "grid.uai"
        rc = cli.main(
            ["generate", "ising", "--rows", "3", "--cols", "3", "--beta", "1.0",
             "--output", str(out)]
        )
        assert rc == cli.EXIT_OK
        m = parse_uai(out.read_text())
        assert m.num_nodes == 9
        assert len(m.edges) == 12

    def test_generate_then_solve(self, tmp_path, capsys):
        out = tmp_path / "r.uai"
        assert cli.main(
            ["generate", "random", "--nodes", "6", "--labels", "3",
             "--seed", "2", "--output", str(out)]
        ) == cli.EXIT_OK
        assert cli.main(["solve", "--input", str(out), "--restarts", "3"]) == cli.EXIT_OK

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.uai", tmp_path / "b.uai"
        for f in (a, b):
            cli.main(
                ["generate", "ising", "--rows", "4", "--cols", "4", "--beta", "2.0",
                 "--seed", "7", "--output", str(f)]
            )
        assert a.read_bytes() == b.read_bytes()

    def test_1x1_grid_is_degenerate_downstream(self, tmp_path, capsys):
        out = tmp_path / "one.uai"
        rc = cli.main(
            ["generate", "ising", "--rows", "1", "--cols", "1", "--beta", "1.0",
             "--output", str(out)]
        )
        assert rc == cli.EXIT_OK
        # a single isolated variable has no pairwise structure to optimize
        rc = cli.main(["solve", "--input", str(out)])
        assert rc == cli.EXIT_DEGENERATE


@pytest.mark.parametrize("argv", [
    ["generate", "ising", "--rows", "0", "--cols", "3", "--beta", "1.0", "--output", "{tmp}/g.uai"],
    ["generate", "random", "--nodes", "1", "--labels", "2", "--output", "{tmp}/r.uai"],
    ["generate", "random", "--nodes", "4", "--labels", "2", "--output", "{tmp}/missing/r.uai"],
    ["solve", "--input", "{model}", "--restarts", "1", "--trace", "{tmp}/missing/t.csv"],
    ["generate", "ising", "--rows", "3", "--cols", "3", "--beta", "nan", "--output", "{tmp}/g.uai"],
    ["generate", "ising", "--rows", "3", "--cols", "3", "--beta", "inf", "--output", "{tmp}/g.uai"],
    ["generate", "random", "--nodes", "4", "--labels", "2", "--scale", "nan", "--output", "{tmp}/r.uai"],
    ["generate", "ising", "--rows", "3", "--cols", "3", "--beta", "1.0", "--seed", "-1", "--output", "{tmp}/g.uai"],
    ["generate", "random", "--nodes", "4", "--labels", "2", "--scale", "-0.0", "--output", "{tmp}/r.uai"],
], ids=["ising-rows-0", "random-nodes-1", "unwritable-output", "unwritable-trace",
        "ising-beta-nan", "ising-beta-inf", "random-scale-nan", "ising-seed-negative", "random-scale-minus-0"])
def test_bad_parameter_or_path_is_input_error(tmp_path, capsys, argv):
    model = write_minimal(tmp_path)
    rc = cli.main([x.format(tmp=tmp_path, model=model) for x in argv])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.uai"]


class TestBench:
    def test_tiny_bench(self, tmp_path, capsys):
        rc = cli.main(
            ["bench", "--sizes", "3x3", "--betas", "1.0", "--instances", "2",
             "--restarts", "2", "--solvers", "cccp,maxprod",
             "--output-dir", str(tmp_path / "out")]
        )
        assert rc == cli.EXIT_OK
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0] == "solver,size,beta,mean_quality,mean_time_s,converged_frac"
        assert len(summary) == 3  # 2 solvers x 1 cell
        assert (tmp_path / "out" / "gains.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--solvers", "cccp,foo"), ("--sizes", "3by3"),
                                            ("--sizes", "0x3"), ("--instances", "0"),
                                            ("--betas", "x"), ("--solvers", "cccp,maxprod,cccp"),
                                            ("--betas", "1.0,1.0"), ("--sizes", "2x2,2x2"),
                                            ("--betas", "nan"), ("--betas", "1.0,inf"),
                                            ("--seed", "-1")])
    def test_bad_input_is_input_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        rc = cli.main(["bench", "--sizes", "3x3", "--betas", "1.0", "--instances", "1",
                       "--restarts", "1", flag, value, "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_PARSE
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_unwritable_output_dir_is_input_error(self, tmp_path, capsys):
        # a directory cannot be made under a regular file; nothing is solved
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        rc = cli.main(["bench", "--sizes", "2x2", "--betas", "1.0", "--instances", "1",
                       "--restarts", "1", "--output-dir", str(out)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_PARSE
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_degenerate_grid_is_degenerate_error(self, tmp_path, capsys):
        # a 1x1 grid is one isolated node, as in the `generate` case above
        rc = cli.main(["bench", "--sizes", "1x1", "--betas", "1.0", "--instances", "1",
                       "--restarts", "1", "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DEGENERATE
        assert err.startswith("error:") and len(err.splitlines()) == 1
