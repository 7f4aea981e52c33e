"""Short label axes: `label_sum` and `PackedGraph.decode` against numpy's own
reductions, and the clamped simplex sweep, its binary closed form included, against its
axis-reduction reference and inside whole solves.  The two
message directions on two threads: when the worker is used, and that its results and
errors are the serial path's."""

import dataclasses
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmap
from qpmap import cccp, cli, maxproduct, packed
from qpmap.common import SolverConfig
from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from qpmap.model import PairwiseMRF
from qpmap.packed import Diagnostics, PackedGraph, clamped_simplex_sweep, label_sum
from qpmap.uai import write_uai
from oracles import clamped_simplex_sweep_reference

SEEDS = st.integers(0, 2**32 - 1)


def mixed_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Both signs at magnitudes 1e-8..1e8, with +-0.0, +-inf, ties with the
    previous label and some rows of -0.0 only."""
    X = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    X = np.where(rng.random(shape) < 0.1, rng.choice([0.0, -0.0, np.inf, -np.inf], shape), X)
    X[..., 1:] = np.where(rng.random(X[..., 1:].shape) < 0.2, X[..., :-1], X[..., 1:])
    X[rng.random(shape[:-1]) < 0.05] = -0.0
    return X


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def label_major(X: np.ndarray) -> np.ndarray:
    """X's values held as a C-ordered (R, k, n) array, seen as (R, n, k)."""
    return np.ascontiguousarray(X.transpose(0, 2, 1)).transpose(0, 2, 1)


@pytest.mark.parametrize("k", range(1, 17))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(SEEDS)
def test_label_sum_is_numpy_sum(k, seed):
    # infinities of both signs make NaN sums too; those must match bit for bit as well
    rng = np.random.default_rng(seed)
    X = mixed_values(rng, (int(rng.integers(1, 4)), int(rng.integers(1, 60)), k))
    with np.errstate(invalid="ignore"):
        for view in (X, label_major(X), X[0]):
            assert same_bits(label_sum(view), view.sum(axis=-1))
    B = rng.random(X.shape) < rng.uniform(0.0, 1.0)
    for view in (B, label_major(B)):
        assert same_bits(label_sum(view), view.sum(axis=-1))
        assert same_bits(label_sum(view) > 0, view.any(axis=-1))


def chain_graph(rng: np.random.Generator, k: int, padded: bool) -> PackedGraph:
    n = int(rng.integers(2, 30))
    cards = rng.integers(1, k + 1, size=n) if padded else np.full(n, k)
    cards[0] = k
    cards = tuple(int(c) for c in cards)
    tables = tuple(rng.random((cards[i], cards[i + 1])) for i in range(n - 1))
    return PackedGraph(PairwiseMRF(cards, tuple((i, i + 1) for i in range(n - 1)), tables))


@pytest.mark.parametrize("k", range(1, 17))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(SEEDS, st.booleans())
def test_decode_is_masked_argmax(k, seed, padded):
    # (n, k), (R, n, k) and label-major (R, k, n) stacks seen as (R, n, k); every value is NaN-free, as beliefs are
    rng = np.random.default_rng(seed)
    g = chain_graph(rng, k, padded)
    P = mixed_values(rng, (int(rng.integers(1, 4)), g.n, k))
    P = np.where(rng.random(P.shape) < 0.3, rng.choice([-1.0, 0.0, 1.0], P.shape), P)  # more ties
    masked = np.where(g.valid, P, -np.inf)
    assert same_bits(g.decode(P), np.argmax(masked, axis=-1))
    assert same_bits(g.decode(P[0]), np.argmax(masked[0], axis=-1))
    assert same_bits(g.decode(label_major(P)), np.argmax(masked, axis=-1))


def sweep_stack(rng: np.random.Generator, k: int):
    """An (R, n, k) gradient stack on n nodes of 1..k labels (node 0 has k, node 1 one),
    at scales 1e-3..1e3: no clamping up to most labels clamped, over several passes."""
    R, n = 3, 40
    card = rng.integers(1, k + 1, size=n)
    card[:2] = k, 1
    valid = np.arange(k) < card[:, None]
    scale = np.logspace(-3.0, 3.0, n)[:, None]
    grad = np.where(valid, scale * rng.normal(size=(R, n, k)), 0.0)
    denom = np.where(valid, rng.uniform(0.2, 5.0, size=(n, k)), 0.0)
    return grad, denom, valid


@pytest.mark.parametrize("k", range(2, 10))
@pytest.mark.parametrize("diagnose", [False, True])
def test_sweep_equals_axis_reduction_reference(k, diagnose):
    rng = np.random.default_rng(k)
    passes = Diagnostics()
    for _ in range(4):
        grad, denom, valid = sweep_stack(rng, k)
        diag, ref_diag = (Diagnostics(), Diagnostics()) if diagnose else (None, None)
        P = clamped_simplex_sweep(grad, denom, valid, diag)
        assert same_bits(P, clamped_simplex_sweep_reference(grad, denom, valid, ref_diag))
        assert dataclasses.asdict(diag or Diagnostics()) == dataclasses.asdict(ref_diag or Diagnostics())
        clamped_simplex_sweep_reference(grad, denom, valid, passes)
    # the stacks cover padded rows, single-label rows and rows clamped on several passes
    assert max(passes.inner_pass_hist) >= min(k, 3)


def binary_stack(rng: np.random.Generator):
    """An (R, n, 2) gradient stack with one-label nodes, +-0.0, exact ties, near-ties
    (a few ulps apart) and all-zero gradients, at grad/denom ratios 1e-300..1e300.
    Near-ties past about 2^53 take both labels negative on some nodes."""
    R, n = int(rng.integers(1, 4)), int(rng.integers(1, 40))
    valid = np.arange(2) < rng.integers(1, 3, size=n)[:, None]
    grad = 10.0 ** rng.uniform(-300.0, 300.0, size=(n, 1)) * rng.normal(size=(R, n, 2))
    ulps = rng.choice([0.0, 0.0, 1.0, -2.0, 3.0], size=(R, n)) * 2.0**-52
    grad[..., 1] = np.where(rng.random((R, n)) < 0.4, grad[..., 0] * (1.0 + ulps), grad[..., 1])
    grad = np.where(rng.random(grad.shape) < 0.1, rng.choice([0.0, -0.0], grad.shape), grad)
    grad[:, rng.random(n) < 0.1] = 0.0
    denom = np.where(valid, rng.choice([1.0, 0.5, 3.0, rng.uniform(0.2, 5.0)], size=(n, 2)), 0.0)
    return grad, denom, valid


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SEEDS)
def test_binary_closed_form_equals_reference(seed):
    rng = np.random.default_rng(seed)
    grad, denom, valid = binary_stack(rng)
    for g in (grad, grad[0], np.zeros_like(grad)):
        diag, ref_diag = Diagnostics(), Diagnostics()
        P = clamped_simplex_sweep(g, denom, valid, diag)
        assert same_bits(P, clamped_simplex_sweep(g, denom, valid))
        with np.errstate(divide="ignore", invalid="ignore"):  # the loop's pass on a node with no label left
            assert same_bits(P, clamped_simplex_sweep_reference(g, denom, valid, ref_diag))
        # by repr: a node whose two labels both clamp has a -inf multiplier
        assert repr(dataclasses.asdict(diag)) == repr(dataclasses.asdict(ref_diag))


def test_binary_stacks_reach_every_case():
    # the loop's first candidate, by its own operations: clamped on label 0, on label 1, on both
    clamped = set()
    for seed in range(300):
        grad, denom, valid = binary_stack(np.random.default_rng(seed))
        safe = np.where(valid, denom, 1.0)
        inv = np.where(valid, 1.0 / safe, 0.0)
        lam = (label_sum(grad * inv) - 1.0) / label_sum(inv)
        neg = valid.all(axis=-1, keepdims=True) & ((grad - lam[..., None]) / safe < 0.0)
        clamped |= {tuple(row) for row in neg.reshape(-1, 2).tolist()}
    assert clamped == {(False, False), (True, False), (False, True), (True, True)}


def test_binary_calls_never_run_the_loop(monkeypatch):
    def counted(X):  # only the loop counts labels: the closed form sums floats alone
        if X.dtype == bool:
            raise AssertionError("the clamping loop ran")
        return label_sum(X)

    stacks = {k: sweep_stack(np.random.default_rng(k), k) for k in (2, 3)}
    want = [clamped_simplex_sweep_reference(*stacks[2], d) for d in (None, Diagnostics())]
    monkeypatch.setattr(packed, "label_sum", counted)
    for ref, diag in zip(want, (None, Diagnostics())):
        assert same_bits(clamped_simplex_sweep(*stacks[2], diag), ref)
    # from three labels on the loop runs, with Diagnostics or without
    for diag in (None, Diagnostics()):
        with pytest.raises(AssertionError, match="the clamping loop ran"):
            clamped_simplex_sweep(*stacks[3], diag)


def report_bytes(x) -> bytes:
    """Every field of a SolveReport but `diagnostics` and `wall_time_s`, as bytes."""
    if dataclasses.is_dataclass(x):
        return b"".join(f.name.encode() + report_bytes(getattr(x, f.name)) for f in dataclasses.fields(x)
                        if f.name not in ("diagnostics", "wall_time_s"))
    if isinstance(x, list):
        return b"[" + b"".join(map(report_bytes, x)) + b"]"
    if isinstance(x, np.ndarray):
        return repr((x.dtype, x.shape)).encode() + x.tobytes()
    return (x.hex() if isinstance(x, float) else repr(x)).encode()


def padded_binary_mrf() -> PairwiseMRF:
    """A 6x6 grid of one- and two-label nodes, mixed-sign tables, unaries on every third node."""
    rng = np.random.default_rng(3)
    cards = tuple(int(k) for k in rng.choice([1, 2], 36, p=[0.2, 0.8]))
    edges = tuple([(i, i + 1) for i in range(36) if i % 6 < 5] + [(i, i + 6) for i in range(30)])
    tables = tuple(rng.normal(size=(cards[i], cards[j])) for i, j in edges)
    return PairwiseMRF(cards, edges, tables, {i: rng.normal(size=cards[i]) for i in range(0, 36, 3)})


@pytest.mark.parametrize("mrf, config", [
    pytest.param(gen_ising_grid(IsingSpec(10, 10, 1.0, seed=3)), SolverConfig(restarts=10, seed=5), id="ising-10x10"),
    pytest.param(qpmap.parse_uai(write_uai(gen_ising_grid(IsingSpec(50, 50, 1.0, seed=4)))), SolverConfig(restarts=1),
                 id="uai-50x50"),
    pytest.param(padded_binary_mrf(), SolverConfig(restarts=5, seed=1), id="padded-binary"),
])
@pytest.mark.parametrize("solve", [cccp.solve, qpmap.solve_convex], ids=["cccp", "convex"])
def test_diagnosed_and_undiagnosed_solves_report_alike(solve, mrf, config):
    # collecting Diagnostics changes no update: a binary sweep takes the closed form either way
    diagnosed = solve(mrf, dataclasses.replace(config, collect_diagnostics=True))
    plain = solve(mrf, config)
    assert diagnosed.diagnostics is not None and plain.diagnostics is None
    assert report_bytes(plain) == report_bytes(diagnosed)


# -- the two message directions on two threads ---------------------------------

def on_worker() -> bool:
    return threading.current_thread() is not threading.main_thread()


def test_only_large_models_on_two_cpus_use_the_worker():
    dense = PackedGraph(gen_random_mrf(20, 64, 1.0))
    assert dense.parallel == (len(os.sched_getaffinity(0)) >= 2)
    assert not PackedGraph(gen_ising_grid(IsingSpec(10, 10, 1.0))).parallel
    assert not PackedGraph(gen_ising_grid(IsingSpec(50, 50, 1.0))).parallel


def test_threaded_delta_sums_have_the_serial_bytes(threaded):
    g = PackedGraph(gen_random_mrf(20, 64, 1.0))
    P = np.random.default_rng(0).random((3, g.n, g.kmax))
    two = g.delta_sums(P), g.delta_sums(P[1])
    g.parallel = False
    assert all(same_bits(a, b) for a, b in zip(two, (g.delta_sums(P), g.delta_sums(P[1]))))
    assert threaded == [os.getpid()] * 2


def test_threaded_solves_in_parallel_callers_equal_serial(threaded, monkeypatch):
    # more callers than cores share the one worker, with thread switches every 10 us
    m, config = gen_random_mrf(8, 5, 1.0, seed=2), SolverConfig(restarts=3, seed=1, max_outer_iterations=40)
    with monkeypatch.context() as serial_only:
        serial_only.setattr(packed, "PARALLEL_MIN_ENTRIES", np.inf)
        serial = cccp.solve(m, config).trace
    assert not threaded
    reports = []
    callers = [threading.Thread(target=lambda: reports.append(cccp.solve(m, config).trace)) for _ in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in callers)
    assert reports == [serial] * 4 and threaded


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_error_in_either_half_is_raised_after_both_finish(threaded, monkeypatch, failing):
    g = PackedGraph(gen_random_mrf(6, 8, 1.0, seed=1))
    finished, einsum = [], np.einsum

    def half(*args, **kw):
        if on_worker() == (failing == "worker"):
            raise MemoryError(f"{failing} half")
        time.sleep(0.05)  # the other half has failed long before this one finishes
        finished.append(einsum(*args, **kw))
        return finished[-1]

    monkeypatch.setattr(np, "einsum", half)
    with pytest.raises(MemoryError, match=f"{failing} half"):
        g.delta_sums(np.ones((2, g.n, g.kmax)))
    assert len(finished) == 2  # one einsum per restart


@pytest.mark.parametrize("solver, module, name", [("cccp", np, "einsum"), ("maxprod", maxproduct, "_max_plus")])
def test_worker_memory_error_is_cli_input_error(threaded, monkeypatch, tmp_path, capsys, solver, module, name):
    # a MemoryError in delta_sums' or max-product's worker half ends `qpmap solve` with one line
    p = tmp_path / "model.uai"
    p.write_text(write_uai(gen_random_mrf(6, 3, 1.0, seed=1)))
    fn = getattr(module, name)

    def half(*args, **kw):
        if on_worker():
            raise MemoryError("worker half")
        return fn(*args, **kw)

    monkeypatch.setattr(module, name, half)
    assert cli.main(["solve", "--input", str(p), "--solver", solver, "--max-iters", "5"]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: {p}: model too large: worker half\n"
    assert threaded


SMALL_SOLVES = """
import sys, threading
from qpmap import cli
from qpmap.bench import SOLVERS
from qpmap.common import SolverConfig
from qpmap.generators import IsingSpec, gen_ising_grid
from qpmap.uai import write_uai

with open(sys.argv[1], "w") as f:
    f.write(write_uai(gen_ising_grid(IsingSpec(50, 50, 1.0, seed=0))))
for name, (solve, _) in SOLVERS.items():
    solve(gen_ising_grid(IsingSpec(10, 10, 1.0, seed=0)), SolverConfig(restarts=10, max_outer_iterations=50))
    assert cli.main(["solve", "--input", sys.argv[1], "--solver", name, "--max-iters", "20"]) == 0
print(threading.active_count(), "queue" in sys.modules)
"""


def test_small_models_start_no_thread(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(qpmap.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", SMALL_SOLVES, str(tmp_path / "grid.uai")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "1 False"  # no worker, and its call queue's module not imported
