import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qpmap.bench import BenchPlan, instance_seed
from qpmap.common import SolverConfig
from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from oracles import gen_ising_grid_per_edge, gen_random_mrf_per_edge, random_mrf_draws_per_edge


class TestIsingGrid:
    def test_1x2_structure(self):
        m = gen_ising_grid(IsingSpec(1, 2, beta=1.0))
        assert m.num_nodes == 2
        assert m.edges == ((0, 1),)

    def test_3x3_edge_count(self):
        m = gen_ising_grid(IsingSpec(3, 3, beta=1.0))
        assert m.num_nodes == 9
        assert len(m.edges) == 12  # 6 horizontal + 6 vertical

    def test_grid_edges_are_neighbors(self):
        rows, cols = 4, 5
        m = gen_ising_grid(IsingSpec(rows, cols, beta=0.5))
        assert len(m.edges) == rows * (cols - 1) + (rows - 1) * cols
        for i, j in m.edges:
            ri, ci = divmod(i, cols)
            rj, cj = divmod(j, cols)
            assert abs(ri - rj) + abs(ci - cj) == 1

    def test_table_antisymmetry(self):
        m = gen_ising_grid(IsingSpec(3, 3, beta=2.0, seed=5))
        for t in m.tables:
            d = t[0, 0]
            assert np.allclose(t, [[d, -d], [-d, d]])
            assert abs(d) <= 2.0

    def test_unary_bound(self):
        m = gen_ising_grid(IsingSpec(4, 4, beta=1.0, seed=3))
        assert m.unaries
        for u in m.unaries.values():
            assert u[0] == -u[1]
            assert abs(u[0]) <= 0.05

    def test_seed_determinism(self):
        a = gen_ising_grid(IsingSpec(5, 5, beta=1.0, seed=42))
        b = gen_ising_grid(IsingSpec(5, 5, beta=1.0, seed=42))
        c = gen_ising_grid(IsingSpec(5, 5, beta=1.0, seed=43))
        for ta, tb in zip(a.tables, b.tables):
            assert np.array_equal(ta, tb)
        assert any(not np.array_equal(ta, tc) for ta, tc in zip(a.tables, c.tables))

    def test_coupling_uniformity(self):
        beta = 1.5
        samples = []
        for seed in range(500):
            m = gen_ising_grid(IsingSpec(4, 5, beta=beta, seed=seed))
            samples.extend(t[0, 0] for t in m.tables)
        samples = np.array(samples)
        assert len(samples) >= 10_000
        stat, _ = stats.kstest(samples, stats.uniform(loc=-beta, scale=2 * beta).cdf)
        assert stat < 0.05


class TestRandomMrf:
    def test_n2_single_edge(self):
        m = gen_random_mrf(2, 3, seed=0)
        assert m.edges == ((0, 1),)
        assert m.cardinalities == (3, 3)

    def test_density_one_complete(self):
        n = 6
        m = gen_random_mrf(n, 2, density=1.0, seed=1)
        assert len(m.edges) == n * (n - 1) // 2

    def test_connected_at_low_density(self):
        # spanning tree is always present
        m = gen_random_mrf(8, 2, density=1e-9, seed=2)
        assert len(m.edges) >= 7
        parent = list(range(8))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in m.edges:
            parent[find(i)] = find(j)
        assert len({find(v) for v in range(8)}) == 1

    def test_tables_in_range(self):
        m = gen_random_mrf(6, 4, potential_scale=2.5, seed=3)
        for t in m.tables:
            assert t.shape == (4, 4)
            assert t.min() >= 0.0 and t.max() <= 2.5

    def test_seed_determinism(self):
        a = gen_random_mrf(7, 3, seed=9)
        b = gen_random_mrf(7, 3, seed=9)
        assert a.edges == b.edges
        for ta, tb in zip(a.tables, b.tables):
            assert np.array_equal(ta, tb)

    def test_no_unaries(self):
        assert not gen_random_mrf(5, 2, seed=0).unaries


@pytest.mark.parametrize("make, name", [
    (lambda: IsingSpec(0, 3, beta=1.0), "rows"),
    (lambda: IsingSpec(3, 3, beta=0.0), "beta"),
    (lambda: IsingSpec(3, 3, beta=float("nan")), "beta"),
    (lambda: IsingSpec(3, 3, beta=float("inf")), "beta"),
    (lambda: IsingSpec(3, 3, beta=1.0, node_potential_bound=float("nan")), "node_potential_bound"),
    (lambda: IsingSpec(3, 3, beta=1.0, node_potential_bound=float("inf")), "node_potential_bound"),
    (lambda: IsingSpec(3, 3, beta=1.0, node_potential_bound=-0.5), "node_potential_bound"),
    (lambda: IsingSpec(3, 3, beta=1.0, node_potential_bound=-0.0), "node_potential_bound"),
    (lambda: IsingSpec(3, 3, beta=1.0, seed=-1), "seed"),
    (lambda: gen_random_mrf(1, 2), "n >= 2"),
    (lambda: gen_random_mrf(4, 2, density=0.0), "density"),
    (lambda: gen_random_mrf(4, 2, potential_scale=float("nan")), "potential_scale"),
    (lambda: gen_random_mrf(4, 2, potential_scale=float("-inf")), "potential_scale"),
    (lambda: gen_random_mrf(4, 2, potential_scale=-1.0), "potential_scale"),
    (lambda: gen_random_mrf(4, 2, potential_scale=-0.0), "potential_scale"),
    (lambda: gen_random_mrf(4, 2, seed=-1), "seed"),
], ids=["rows-0", "beta-0", "beta-nan", "beta-inf", "bound-nan", "bound-inf", "bound-negative",
        "bound-minus-0", "ising-seed-negative", "nodes-1", "density-0", "scale-nan", "scale-minus-inf",
        "scale-negative", "scale-minus-0", "random-seed-negative"])
def test_bad_parameters_raise_value_error(make, name):
    # the message names the parameter, not numpy's sampler
    with pytest.raises(ValueError, match=name):
        make()


@pytest.mark.parametrize("make,name", [
    (lambda: SolverConfig(max_outer_iterations=True), "max_outer_iterations"),
    (lambda: SolverConfig(restarts=2.0), "restarts"),
    (lambda: SolverConfig(seed=1.5), "seed"),
    (lambda: SolverConfig(objective_tolerance="1e-8"), "objective_tolerance"),
    (lambda: IsingSpec(2.5, 3, 1.0), "rows"),
    (lambda: IsingSpec(2, np.float64(3.0), 1.0), "cols"),
    (lambda: IsingSpec(2, 3, 1.0, seed=True), "seed"),
    (lambda: gen_random_mrf(5.0, 3), "n"),
    (lambda: gen_random_mrf(5, True), "k"),
    (lambda: gen_random_mrf(5, 3, seed=2.0), "seed"),
    (lambda: BenchPlan(instances=2.0), "instances"),
    (lambda: BenchPlan(restarts=False), "restarts"),
    (lambda: BenchPlan(seed=0.5), "seed"),
], ids=["config-iterations-bool", "config-restarts-float", "config-seed-float", "config-tolerance-str",
        "ising-rows-float", "ising-cols-numpy-float", "ising-seed-bool", "random-n-float", "random-k-bool",
        "random-seed-float", "plan-instances-float", "plan-restarts-bool", "plan-seed-float"])
def test_non_integer_counts_and_seeds_raise_at_construction(make, name):
    # a one-line ValueError naming the field, not a TypeError from deep inside a solve or a range
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value).startswith(f"{name} ") and "\n" not in str(exc.value)


# The generators draw each model's tables as one stack; these pin them to the
# per-edge draws, byte for byte, so that no fixture built on them drifts.


def assert_same_draws(got, want):
    assert got.cardinalities == want.cardinalities and got.edges == want.edges
    assert all(t.tobytes() == r.tobytes() for t, r in zip(got.tables, want.tables))
    assert list(got.unaries or {}) == list(want.unaries or {})
    assert all(got.unaries[i].tobytes() == want.unaries[i].tobytes() for i in want.unaries or {})


CRITERION_07 = BenchPlan(sizes=((10, 10), (20, 20)), betas=(0.5, 1.0, 2.0), instances=10, restarts=10,
                         solvers=("cccp", "maxprod"), seed=0)


def test_ising_draws_equal_per_edge_draws():
    plan = CRITERION_07
    specs = [IsingSpec(rows, cols, beta, seed=instance_seed(plan, si, bi, t))
             for si, (rows, cols) in enumerate(plan.sizes) for bi, beta in enumerate(plan.betas)
             for t in range(plan.instances)]
    specs += [IsingSpec(10, 10, beta, seed=seed) for beta in (0.5, 1.0, 2.0) for seed in (0, 1)]
    specs += [IsingSpec(50, 50, 1.0, seed=7), IsingSpec(1, 2, 0.3), IsingSpec(3, 4, 1.0, node_potential_bound=0.0)]
    for spec in specs:
        assert_same_draws(gen_ising_grid(spec), gen_ising_grid_per_edge(spec))


@pytest.mark.parametrize("args", [(20, 64, 1.0, 1.0, 0), (20, 64, 1.0, 1.0, 1), (30, 4, 0.3, 1.0, 3),
                                  (6, 4, 0.5, 2.5, 3), (5, 2, 0.5, 0.0, 1)])
def test_random_draws_equal_per_edge_draws(args):
    assert_same_draws(gen_random_mrf(*args), gen_random_mrf_per_edge(*args))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 9), st.integers(2, 5), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_small_random_draws_equal_per_edge_draws(n, k, density, seed):
    # the sizes of the acceptance criteria's random instances
    assert_same_draws(gen_random_mrf(n, k, density, seed=seed), gen_random_mrf_per_edge(n, k, density, seed=seed))


def test_criterion_09_draws_equal_per_edge_draws():
    # 850 MiB of tables: the per-edge draws are made and compared one at a time
    m = gen_random_mrf(100, 150, density=1.0, seed=2026)
    edges, draws = random_mrf_draws_per_edge(100, 150, density=1.0, seed=2026)
    assert m.edges == edges
    assert all(t.tobytes() == r.tobytes() for t, r in zip(m.tables, draws))
