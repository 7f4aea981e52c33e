"""qpmap performance benchmark.

    python3 perfbench/run.py --workload ising-grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

One run builds the workload's model pool, times `setup_s` (input to
solver-ready form) a few times, makes one short untimed warm-up solve per
solver, then runs a closed loop, one solve in flight, for `--seconds`:
first one pass over the pool with every solver (the quality pass, always
completed), then further passes given to the solver with the least solve
time so far, while a pass is predicted to fit.  Every output is checked.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` -- the end-to-end metrics of
BENCHMARK.json with `--trace 0`, the per-layer metrics with `--trace 1`.
The traced run wraps each library layer (see tracing.py) and writes its
spans to perfbench/out/.  The run exits 1 if any solve failed its check,
and 2 if the checkout holds no qpmap source.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5  # per pool model, and more while they add up to under SETUP_MIN_S
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 300
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FAMILY = ("cccp", "convex", "gpem")  # the solvers that share common.run_restarts
# Host speed on a shared machine drifts by up to 1.7x for seconds at a time
# (a neighbour on the sibling hyperthread), so medians of two runs can differ
# by more than any change worth measuring.  A fixed reference kernel is timed
# just before and just after every timed call, and the call's time is scaled
# to a machine on which that kernel takes REF_S seconds.
REF_S = 1e-3


def import_library():
    src = ROOT / "src"
    if not (src / "qpmap" / "__init__.py").is_file():
        print(f"error: no qpmap source under {src}; run from a qpmap checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import qpmap

    if Path(qpmap.__file__).resolve().parent != (src / "qpmap").resolve():
        print(f"error: imported qpmap from {qpmap.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


class CountingHandler(logging.Handler):
    """Counts qpmap log records instead of printing them, so no terminal
    I/O is timed; the gpem underflow warning is counted on its own."""

    def __init__(self):
        super().__init__()
        self.underflows = 0

    def emit(self, record):
        if record.name == "qpmap.gpem" and "underflow" in record.msg:
            self.underflows += 1


def machine(seed: int) -> dict:
    import numpy as np

    l3_mb = None
    try:  # ask the C library, so that no file outside the checkout is read
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        l3_mb = int(out.stdout) / 1e6 or None
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3_mb": l3_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "seed": seed,
    }


class Reference:
    """Fixed mix of interpreter-bound small-array work and one cache-resident
    einsum, the two regimes the workloads spend their time in."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.random((200, 2))
        self.p, self.t = rng.random((48, 64)), rng.random((48, 64, 64))
        self.einsum = np.einsum
        self.samples = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(120):
            float((self.small * self.small).sum())
        for _ in range(4):
            self.einsum("ek,ekl->el", self.p, self.t)
        return time.perf_counter() - t0

    def measure(self) -> float:
        # the minimum of three drops millisecond interruptions, not slow phases
        t = min(self._once() for _ in range(3))
        self.samples.append(t)
        return t

    def scaled(self, wall: float, before: float) -> float:
        """`wall` seconds of a call made since `before` = measure(), at the reference speed."""
        return wall * 2 * REF_S / (before + self.measure())


def tail_percentile(values):
    """Highest percentile with at least 10 samples beyond it: (pct, value) or None."""
    n = len(values)
    if n <= 10:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


# -- one run ----------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracing
    import workloads as wl

    handler = CountingHandler()
    qlog = logging.getLogger("qpmap")
    qlog.addHandler(handler)
    qlog.propagate = False

    work = wl.WORKLOADS[name]
    pool = work.build_pool(OUT)
    ref = Reference()
    setup = []
    while len(setup) < SETUP_REPS * len(pool) or (sum(setup) < SETUP_MIN_S and len(setup) < SETUP_MAX_REPS):
        before = ref.measure()
        setup.append(ref.scaled(wl.setup_seconds(pool[len(setup) % len(pool)]), before))
    for s in wl.SOLVERS:
        try:
            work.solve(pool[0], s, wl.solver_seed(seed, 0, 0), True)
        except Exception:
            print(f"FAILED warm-up of {s}:\n{traceback.format_exc()}", file=sys.stderr)
            return 1

    tracer = tracing.Tracer()
    records = []  # one dict per timed solve
    failures = []
    quality = {}  # (solver, model) -> decoded objective in the quality pass

    def solve(s, i, pass_no):
        rec = {"id": len(records), "solver": s, "instance": i, "pass": pass_no, "ok": False}
        records.append(rec)
        tracer.solve = rec["id"]
        underflows = handler.underflows
        try:
            before = ref.measure()
            out = work.solve(pool[i], s, wl.solver_seed(seed, i, pass_no), False)
            scaled = ref.scaled(out.seconds, before)
            if pass_no == 0:
                quality[(s, i)] = out.objective
        except Exception:  # a failed solve is counted and reported, the run goes on
            failures.append(f"{s} on instance {i}, pass {pass_no}:\n{traceback.format_exc()}")
            return 0.0
        rec.update(ok=True, seconds=scaled, wall=out.seconds, converged=out.converged,
                   underflows=handler.underflows - underflows)
        return out.seconds

    start = time.perf_counter()
    deadline = start + seconds
    spent = dict.fromkeys(wl.SOLVERS, 0.0)  # solve seconds, which the scheduler balances
    first_wall = dict.fromkeys(wl.SOLVERS, 0.0)
    with tracer.installed() if trace else nullcontext():
        for i in range(len(pool)):
            for s in wl.SOLVERS:
                t0 = time.perf_counter()
                spent[s] += solve(s, i, 0)
                first_wall[s] += time.perf_counter() - t0
        pass_wall = {s: [t] for s, t in first_wall.items()}  # predicts whether a pass fits
        passes = dict.fromkeys(wl.SOLVERS, 0)
        active = set(wl.SOLVERS)
        while active:
            s = min(active, key=lambda x: (spent[x], x))
            if time.perf_counter() + statistics.fmean(pass_wall[s]) > deadline:
                active.discard(s)
                continue
            passes[s] += 1
            t0 = time.perf_counter()
            for i in range(len(pool)):
                spent[s] += solve(s, i, passes[s])
            pass_wall[s].append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    done = {s: [r for r in records if r["ok"] and r["solver"] == s] for s in wl.SOLVERS}
    ok = not failures and all(done.values())
    for f in failures[:5]:
        print(f"FAILED {f}", file=sys.stderr)

    info = machine(seed)
    m, k = max(inst.shape for inst in pool)
    tables_mb = m * k * k * 8 / 1e6
    print(f"qpmap perfbench  workload={name}  seed={seed}  seconds={seconds:g}  "
          f"trace={int(trace)}  measured={elapsed:.1f} s")
    print("machine: " + json.dumps(info))
    print(f"pool: {len(pool)} model(s), {m} edges, kmax {k}, {tables_mb:.2f} MB of stacked tables "
          f"(computed from array shapes)")
    if info["l3_mb"] and tables_mb < 4 * info["l3_mb"]:
        print(f"  under 4x L3 ({info['l3_mb']:.1f} MB): cache-resident, so not a memory-bandwidth test")
    print(f"reference kernel: median {statistics.median(ref.samples) * 1e3:.3f} ms over "
          f"{len(ref.samples)} samples; times below are scaled to {REF_S * 1e3:g} ms")
    detail = {"solves": {}}
    print("solve time: median over passes of the mean solve time in a pass [same, wall clock]; "
          "tail percentile over single solves")
    for s in wl.SOLVERS:
        by_pass = defaultdict(list)
        for r in done[s]:
            by_pass[r["pass"]].append(r)
        med = {key: statistics.median(statistics.fmean(r[key] for r in p) for p in by_pass.values())
               if by_pass else float("nan") for key in ("seconds", "wall")}
        tail = tail_percentile([r["seconds"] for r in done[s]])
        tail_txt = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile with 10 samples beyond it"
        print(f"  {s + '_s':18s} {med['seconds']:10.4f} s [{med['wall']:.4f} s]   {tail_txt}, "
              f"{len(by_pass)} passes, {len(done[s])} solves")
        detail["solves"][s] = {"median_s": med["seconds"], "passes": len(by_pass), "solves": len(done[s])}
    attempted = len(records)
    print(f"  {'failed_frac':18s} {len(failures) / max(attempted, 1):10.4f}      "
          f"({len(failures)} of {attempted} solves)")

    if trace:
        metrics = per_layer(tracer, records, pool)
        path = OUT / f"spans-{name}-seed{seed}.csv"
        tracer.write(path)
        print(f"per-layer (traced, {len(tracer.spans)} spans written to "
              f"{path.relative_to(ROOT)}; gflop and MB are computed from array shapes)")
    else:
        metrics = {"setup_s": (statistics.median(setup), "s")}
        for s in wl.SOLVERS:
            metrics[f"{s}_s"] = (detail["solves"][s]["median_s"], "s")
        for s in wl.SOLVERS:
            vals = [quality[(s, i)] for i in range(len(pool)) if (s, i) in quality]
            metrics[f"{s}_objective"] = (statistics.fmean(vals) if vals else float("nan"), "1")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(f"end-to-end (setup_s is the median of {len(setup)} set-ups; "
              f"*_objective is the mean decoded objective over the pool, original scale)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:14.6g} {unit}")
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if ok else 1


def per_layer(tracer, records, pool) -> dict:
    """Per-layer metrics from the traced run's spans.

    Counts are exact totals over the quality pass (one solve per solver and
    pool model), so they repeat exactly for a seed.  `.s` and `self_s` are
    seconds per solve, over the solves that enter the layer, each
    (solver, model) cell weighted equally.
    """
    from tracing import CALLS, SELF, TOTAL

    spans = tracer.per_solve()
    ok = [r for r in records if r["ok"]]
    first = [r for r in ok if r["pass"] == 0]

    def get(r, name, field):
        acc = spans.get(r["id"], {}).get(name)
        return acc[field] if acc else 0

    def per_solve(name, field=TOTAL):
        cells = defaultdict(list)
        for r in ok:
            cells[(r["solver"], r["instance"])].append((get(r, name, field), get(r, name, CALLS)))
        vals = [statistics.fmean(v for v, _ in c) for c in cells.values() if any(n for _, n in c)]
        return statistics.fmean(vals) if vals else 0.0

    def calls(name, solvers=None):
        return sum(get(r, name, CALLS) for r in first if solvers is None or r["solver"] in solvers)

    def sweeps(solvers):
        return calls("packed.assignment_value", solvers)  # one call per sweep, in every solver

    def s_per_sweep(solvers):
        rs = [r for r in ok if r["solver"] in solvers]
        n = sum(get(r, "packed.assignment_value", CALLS) for r in rs)
        return sum(get(r, "common.run_restarts", TOTAL) for r in rs) / n if n else 0.0

    def converged_frac(solvers):
        flags = [c for r in first if r["solver"] in solvers for c in r["converged"]]
        return sum(flags) / len(flags) if flags else 0.0

    def gflop(name, flop_per_mk2):
        total = 0
        for r in first:
            m, k = pool[r["instance"]].shape
            total += get(r, name, CALLS) * flop_per_mk2 * m * k * k
        return total / 1e9

    parse_s = sum(get(r, "uai.parse_uai", TOTAL) for r in ok)
    parse_mb = sum(get(r, "uai.parse_uai", CALLS) * len(pool[r["instance"]].text or "") for r in ok) / 1e6
    out = {
        "uai.parse_uai.s": (per_solve("uai.parse_uai"), "s"),
        "uai.parse_uai.mb_per_s": (parse_mb / parse_s if parse_s else 0.0, "MB/s"),
        "model.prepare_model.s": (per_solve("model.prepare_model"), "s"),
        "model.evaluate_assignment.calls": (calls("model.evaluate_assignment"), "count"),
        "model.evaluate_assignment.s": (per_solve("model.evaluate_assignment"), "s"),
        "packed.PackedGraph.s": (per_solve("packed.PackedGraph"), "s"),
    }
    for op in ("delta_sums", "qp_objective", "decode", "assignment_value", "clamped_simplex_sweep"):
        out[f"packed.{op}.calls"] = (calls(f"packed.{op}"), "count")
        out[f"packed.{op}.s"] = (per_solve(f"packed.{op}"), "s")
    # two (m,k)x(m,k,k) einsums of 2 flop per table entry; three-operand einsum: 3 flop per entry
    out["packed.delta_sums.gflop_computed"] = (gflop("packed.delta_sums", 4), "gflop")
    out["packed.qp_objective.gflop_computed"] = (gflop("packed.qp_objective", 3), "gflop")
    m, k = max(inst.shape for inst in pool)
    out["packed.tables_mb"] = (m * k * k * 8 / 1e6, "MB")
    out["common.run_restarts.self_s"] = (per_solve("common.run_restarts", SELF), "s")
    out["common.sweeps"] = (sweeps(FAMILY), "count")
    out["common.converged_frac"] = (converged_frac(FAMILY), "1")
    out["common.s_per_sweep"] = (s_per_sweep(FAMILY), "s")
    for s in FAMILY:
        out[f"{s}.sweeps"] = (sweeps((s,)), "count")
        out[f"{s}.s_per_sweep"] = (s_per_sweep((s,)), "s")
    out["gpem.underflow_warnings"] = (sum(r["underflows"] for r in first if r["solver"] == "gpem"), "count")
    out["maxproduct.self_s"] = (per_solve("maxproduct.solve_mp", SELF), "s")
    out["maxproduct.sweeps"] = (sweeps(("maxprod",)), "count")
    out["maxproduct.converged_frac"] = (converged_frac(("maxprod",)), "1")
    out["cli.self_s"] = (per_solve("cli.main", SELF), "s")
    return out


# -- every workload, untraced and traced --------------------------------------


def report(seed: int, seconds: float) -> int:
    import workloads as wl

    status = 0
    for name in wl.WORKLOADS:
        medians = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                if line.startswith("detail: "):
                    medians[trace] = json.loads(line[len("detail: "):])["solves"]
                else:
                    print(line)
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                status = 1
            print()
        if len(medians) == 2:
            print(f"tracing overhead on {name} (traced minus untraced median solve time):")
            for s, d in medians[0].items():
                diff = medians[1][s]["median_s"] - d["median_s"]
                print(f"  {s:8s} {diff:+.4f} s ({diff / d['median_s']:+.1%})")
            print()
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as wl

    if args.workload == "all":
        return report(args.seed, args.seconds)
    if args.workload not in wl.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(wl.WORKLOADS)} or all")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
