import numpy as np

from qpmap import bench
from qpmap.bench import BenchPlan, BenchResult, Cell, run_benchmark


def tiny_plan(**kw):
    defaults = dict(
        sizes=((3, 3),),
        betas=(1.0,),
        instances=2,
        restarts=2,
        solvers=("cccp", "maxprod"),
        seed=0,
    )
    defaults.update(kw)
    return BenchPlan(**defaults)


class TestRunBenchmark:
    def test_single_cell_shapes(self):
        res = run_benchmark(tiny_plan())
        assert set(res.cells) == {("cccp", "3x3", 1.0), ("maxprod", "3x3", 1.0)}
        for cell in res.cells.values():
            assert len(cell.qualities) == 2
            assert len(cell.times) == 2
            assert all(t >= 0 for t in cell.times)
            assert len(cell.converged_runs) == 4  # instances x restarts

    def test_determinism(self):
        r1 = run_benchmark(tiny_plan())
        r2 = run_benchmark(tiny_plan())
        for key in r1.cells:
            assert r1.cells[key].qualities == r2.cells[key].qualities

    def test_seed_changes_instances(self):
        r1 = run_benchmark(tiny_plan())
        r2 = run_benchmark(tiny_plan(seed=99))
        key = ("cccp", "3x3", 1.0)
        assert r1.cells[key].qualities != r2.cells[key].qualities

    def test_gains_matched_per_instance(self):
        res = run_benchmark(tiny_plan())
        rows = res.gains()
        assert len(rows) == 2  # both ordered pairs, one cell
        qa = np.asarray(res.cells[("cccp", "3x3", 1.0)].qualities)
        qb = np.asarray(res.cells[("maxprod", "3x3", 1.0)].qualities)
        lookup = {(a, b): g for a, b, size, beta, g in rows}
        assert lookup[("cccp", "maxprod")] == float(np.mean((qa - qb) / qb))
        assert res.mean_gain("cccp", "maxprod", "3x3") == lookup[("cccp", "maxprod")]

    def test_gain_sign_with_negative_baseline(self):
        plan = tiny_plan()
        cells = {
            ("cccp", "3x3", 1.0): Cell("cccp", "3x3", 1.0, qualities=[-1.0, 3.0]),
            ("maxprod", "3x3", 1.0): Cell("maxprod", "3x3", 1.0, qualities=[-2.0, 2.0]),
        }
        lookup = {(a, b): g for a, b, _, _, g in BenchResult(plan, cells).gains()}
        # cccp beats maxprod on both instances: +50% on each
        assert lookup[("cccp", "maxprod")] == 0.5
        # maxprod loses to cccp on both: -100% and -33%
        assert lookup[("maxprod", "cccp")] == float(np.mean([-1.0, -1.0 / 3.0]))


class TestCsv:
    def test_summary_layout(self):
        res = run_benchmark(tiny_plan())
        lines = bench.summary_csv(res).splitlines()
        assert lines[0] == "solver,size,beta,mean_quality,mean_time_s,converged_frac"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[1] == "3x3"
        float(fields[3]), float(fields[4]), float(fields[5])

    def test_gains_csv_has_pair_rows(self):
        res = run_benchmark(tiny_plan())
        lines = bench.gains_csv(res).splitlines()
        assert lines[0] == "solver_a,solver_b,size,beta,mean_gain"
        assert len(lines) == 3
        assert any("cccp,maxprod" in line for line in lines[1:])
