"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with the measured quantity (visible with -s or -rA;
the -v test status carries the same verdict)."""

import time

import numpy as np
import pytest

from qpmap import cccp, convex, gpem
from qpmap.bench import BenchPlan, run_benchmark
from qpmap.common import SolverConfig
from qpmap.generators import gen_random_mrf
from qpmap.model import prepare_model
from qpmap.packed import PackedGraph
from qpmap.uai import parse_uai, write_uai
from oracles import (
    brute_force_map,
    em_multiplicative_update,
    pack_beliefs,
    pg_maximize_convex_relaxation,
)


def verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    return line


def random_instance(rng, n_max, k_max, k_min=2):
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(k_min, k_max + 1))
    return gen_random_mrf(n, k, density=float(rng.uniform(0.3, 1.0)), seed=int(rng.integers(2**31)))


@pytest.fixture(scope="module")
def ising_benchmark():
    plan = BenchPlan(
        sizes=((10, 10), (20, 20)),
        betas=(0.5, 1.0, 2.0),
        instances=10,
        restarts=10,
        solvers=("cccp", "maxprod"),
        seed=0,
    )
    return run_benchmark(plan)


def test_criterion_01_tiny_exactness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    hits, total = 0, 200
    for _ in range(total):
        m = random_instance(rng, n_max=8, k_max=2)
        rep = cccp.solve(m, SolverConfig(restarts=20, seed=int(rng.integers(2**31))))
        _, opt = brute_force_map(m)
        assert rep.integral_objective <= opt + 0.0, "solver exceeded brute-force optimum"
        if rep.integral_objective >= opt - 1e-9:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 0.8 * total and elapsed < 60.0
    verdict(1, "tiny-exactness", ok, f"{hits}/{total} optimal, never above, {elapsed:.1f}s")
    assert hits >= 0.8 * total
    assert elapsed < 60.0


def test_criterion_02_monotonicity():
    rng = np.random.default_rng(1002)
    violations = 0
    for _ in range(100):
        m = random_instance(rng, n_max=20, k_max=5)
        seed = int(rng.integers(2**31))
        cfg = SolverConfig(restarts=1, seed=seed, max_outer_iterations=100)
        for rep, key in (
            (cccp.solve(m, cfg), "qp_objective"),
            (convex.solve_convex(m, cfg), "convex_objective"),
            (gpem.solve_gp(m, cfg), "qp_objective"),
        ):
            vals = [getattr(t, key) for t in rep.trace]
            violations += sum(b < a - 1e-9 for a, b in zip(vals, vals[1:]))
    verdict(2, "monotonicity", violations == 0, f"{violations} violations over 300 solver runs")
    assert violations == 0


def test_criterion_03_inner_loop_bounds():
    rng = np.random.default_rng(1003)
    max_ratio, total_violations = 0.0, 0
    for _ in range(100):
        m = random_instance(rng, n_max=10, k_max=6)
        cfg = SolverConfig(restarts=2, seed=int(rng.integers(2**31)),
                           collect_diagnostics=True, max_outer_iterations=200)
        for rep in (cccp.solve(m, cfg), convex.solve_convex(m, cfg)):
            k = max(m.cardinalities)
            assert rep.diagnostics.max_inner_passes <= k
            max_ratio = max(max_ratio, rep.diagnostics.max_inner_passes / k)
            total_violations += rep.diagnostics.multiplier_violations
    verdict(3, "inner-loop-bounds", total_violations == 0,
            f"passes <= k always (max ratio {max_ratio:.2f}), {total_violations} lambda violations")
    assert total_violations == 0


def test_criterion_04_kkt_certificate():
    rng = np.random.default_rng(1004)
    worst_resid, worst_mult = 0.0, 0.0
    for _ in range(100):
        m = random_instance(rng, n_max=6, k_max=4)
        rep = cccp.solve(
            m, SolverConfig(restarts=2, seed=int(rng.integers(2**31)),
                            collect_diagnostics=True, max_outer_iterations=200)
        )
        worst_resid = max(worst_resid, rep.diagnostics.max_stationarity_residual)
        worst_mult = min(worst_mult, rep.diagnostics.min_clamped_multiplier)
    ok = worst_resid <= 1e-8 and worst_mult >= -1e-10
    verdict(4, "kkt-certificate", ok,
            f"max residual {worst_resid:.2e}, min off-support multiplier {worst_mult:.2e}")
    assert worst_resid <= 1e-8
    assert worst_mult >= -1e-10


def test_criterion_05_convex_global_optimum():
    rng = np.random.default_rng(1005)
    t0 = time.perf_counter()
    worst_spread, worst_oracle_gap = 0.0, 0.0
    for _ in range(50):
        m = random_instance(rng, n_max=10, k_max=4)
        rep = convex.solve_convex(
            m, SolverConfig(restarts=10, seed=int(rng.integers(2**31)),
                            init="random-dirichlet", max_outer_iterations=3000)
        )
        finals = rep.restarts_final_objective
        worst_spread = max(worst_spread, max(finals) - min(finals))
        prepared, _ = prepare_model(m)
        g = PackedGraph(prepared)
        _, ref = pg_maximize_convex_relaxation(prepared, g.unpack_beliefs(g.diagonal_terms()))
        worst_oracle_gap = max(worst_oracle_gap, abs(max(finals) - ref))
    elapsed = time.perf_counter() - t0
    ok = worst_spread <= 1e-6 and worst_oracle_gap <= 1e-5 and elapsed < 120.0
    verdict(5, "convex-global-optimum", ok,
            f"max init spread {worst_spread:.2e}, max oracle gap {worst_oracle_gap:.2e}, {elapsed:.1f}s")
    assert worst_spread <= 1e-6
    assert worst_oracle_gap <= 1e-5
    assert elapsed < 120.0


def test_criterion_06_em_equivalence():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(50):
        m = random_instance(rng, n_max=8, k_max=4)
        prepared, _ = prepare_model(m)
        g = PackedGraph(prepared)
        beliefs = [rng.dirichlet(np.ones(k)) for k in m.cardinalities]
        sweep = gpem._Sweep(g)
        P = pack_beliefs(g, beliefs)
        S = g.delta_sums(P)
        for _ in range(4):
            P, S, _ = sweep(P, S, None, None, None)
            beliefs = em_multiplicative_update(prepared, beliefs)
            for i, ref in enumerate(beliefs):
                worst = max(worst, float(np.abs(P[i, : len(ref)] - ref).max()))
    verdict(6, "em-equivalence", worst <= 1e-12, f"max entrywise gap {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_07_ising_comparison(ising_benchmark):
    small = ising_benchmark.mean_gain("cccp", "maxprod", "10x10")
    large = ising_benchmark.mean_gain("cccp", "maxprod", "20x20")
    ok = abs(small) <= 0.15 and large >= 0.05
    verdict(7, "ising-comparison", ok,
            f"10x10 gain {small:+.2%} (|.| <= 15%), 20x20 gain {large:+.2%} (>= +5%)")
    assert abs(small) <= 0.15
    assert large >= 0.05


def test_criterion_08_iteration_budget(ising_benchmark):
    runs = []
    for (solver, _, _), cell in ising_benchmark.cells.items():
        if solver == "cccp":
            runs.extend(cell.converged_runs)
    frac = float(np.mean(runs))
    ok = frac >= 0.95
    verdict(8, "iteration-budget", ok,
            f"{frac:.1%} of {len(runs)} runs converged to 1e-8 within 500 iterations (need 95%)")
    assert frac >= 0.95


def test_criterion_09_scaling_smoke():
    m = gen_random_mrf(100, 150, density=1.0, seed=2026)
    t0 = time.perf_counter()
    rep = convex.solve_convex(
        m, SolverConfig(restarts=1, max_outer_iterations=15, objective_tolerance=0.0)
    )
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0 and rep.iterations == 15
    verdict(9, "scaling-smoke", ok, f"15 convex sweeps on n=100 k=150 in {elapsed:.1f}s")
    assert rep.iterations == 15
    assert elapsed < 60.0


def test_criterion_10_io_round_trip():
    from qpmap.generators import IsingSpec, gen_ising_grid

    worst = 0.0
    deterministic = True
    for seed in range(100):
        if seed % 2:
            m = gen_ising_grid(IsingSpec(3, 4, beta=1.0 + seed / 50, seed=seed))
        else:
            m = gen_random_mrf(6, 3, seed=seed)
        text = write_uai(m)
        deterministic &= text == write_uai(m)
        again = parse_uai(text)
        for a, b in zip(again.tables, m.tables):
            worst = max(worst, float(np.abs(a - b).max()))
        if m.unaries:
            for i in m.unaries:
                worst = max(worst, float(np.abs(again.unaries[i] - m.unaries[i]).max()))
        deterministic &= write_uai(again) == text
    ok = worst <= 1e-12 and deterministic
    verdict(10, "io-round-trip", ok,
            f"max round-trip error {worst:.2e}, byte-deterministic={deterministic}")
    assert worst <= 1e-12
    assert deterministic
