"""Command-line interface: solve UAI files, generate instances, run benchmarks.

Exit codes: 0 success, 2 input/parse problem or a model or plan too large
to allocate, 3 degenerate or unsupported model (message names the offending node).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import bench, model, uai
from .bench import SOLVERS, BenchPlan
from .common import SolverConfig, SolveReport, TraceRecord
from .generators import IsingSpec, gen_ising_grid, gen_random_mrf
from .model import ModelError, PairwiseMRF

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3


def _log_transform(mrf: PairwiseMRF) -> PairwiseMRF:
    """Entrywise log of all tables, for files using the probability convention."""
    unaries = mrf.unaries or {}
    for arrays, what in (([s for *_, s in mrf.groups], "table entries"), (tuple(unaries.values()), "unary entries")):
        if arrays and min(a.min() for a in arrays) <= 0.0:
            raise ValueError(f"--log-transform requires strictly positive {what}")
    groups = [(ki, kj, idx, np.log(stack)) for ki, kj, idx, stack in mrf.groups]
    logs = {i: np.log(u) for i, u in unaries.items()}
    for a in (*(g[3] for g in groups), *logs.values()):
        a.flags.writeable = False
    # the log of a finite positive entry is finite: the model needs no new checks
    return model._trusted(mrf.cardinalities, mrf.edges, groups, logs or None)


def _write_trace(path: str, report: SolveReport) -> None:
    """`iter`, then each `TraceRecord` field after `iteration` that the trace carries."""
    names = [f.name for f in fields(TraceRecord)[1:] if any(getattr(t, f.name) is not None for t in report.trace)]
    lines = [",".join(["iter", *names])]
    lines += [",".join([str(t.iteration), *(f"{getattr(t, n):.17g}" for n in names)]) for t in report.trace]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        mrf = uai.parse_uai(Path(args.input).read_text())
        if args.log_transform:
            mrf = _log_transform(mrf)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # a UaiParseError, a ModelError, or a table --log-transform cannot take
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    solve, budget = SOLVERS[args.solver]
    try:
        config = SolverConfig(
            max_outer_iterations=budget if args.max_iters is None else args.max_iters,
            objective_tolerance=args.tol,
            restarts=args.restarts,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        t0 = time.perf_counter()
        report = solve(mrf, config)
        elapsed = time.perf_counter() - t0
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MemoryError as exc:  # arrays sized by the file's largest cardinality
        print(f"error: {args.input}: model too large: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if args.trace:
        try:
            _write_trace(args.trace, report)
        except OSError as exc:
            print(f"error: cannot write {args.trace}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    print("assignment:", " ".join(map(str, report.assignment.tolist())))
    print(f"objective: {report.integral_objective:.10g}")
    print(f"iterations: {report.iterations}")
    print(f"converged: {report.converged}")
    print(f"wall_time_s: {elapsed:.4f}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        if args.kind == "ising":
            mrf = gen_ising_grid(IsingSpec(args.rows, args.cols, args.beta, seed=args.seed))
        else:
            mrf = gen_random_mrf(args.nodes, args.labels, args.density, args.scale, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        Path(args.output).write_text(uai.write_uai(mrf))
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {args.output}: {mrf.num_nodes} variables, {len(mrf.edges)} edges")
    return EXIT_OK


def _parse_sizes(text: str) -> tuple:
    sizes = []
    for part in text.split(","):
        r, _, c = part.partition("x")
        try:
            sizes.append((int(r), int(c)))
        except ValueError:
            raise ValueError(f"--sizes entry {part!r} is not ROWSxCOLS") from None
    return tuple(sizes)


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        plan = BenchPlan(
            sizes=_parse_sizes(args.sizes),
            betas=tuple(float(b) for b in args.betas.split(",")),
            instances=args.instances,
            restarts=args.restarts,
            solvers=tuple(args.solvers.split(",")),
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    outdir = Path(args.output_dir)
    try:  # the directory is made first, so a bad one fails before the run
        outdir.mkdir(parents=True, exist_ok=True)
        result = bench.run_benchmark(plan)
        (outdir / "summary.csv").write_text(bench.summary_csv(result))
        (outdir / "gains.csv").write_text(bench.gains_csv(result))
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"error: cannot write {outdir}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(bench.summary_csv(result), end="")
    print(f"wrote {outdir}/summary.csv and {outdir}/gains.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qpmap", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a UAI MARKOV instance")
    sp.add_argument("--input", required=True)
    sp.add_argument("--solver", choices=SOLVERS, default="cccp")
    sp.add_argument("--restarts", type=int, default=10)
    sp.add_argument("--max-iters", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", default=None, help="write per-iteration trace CSV here")
    sp.add_argument("--log-transform", action="store_true",
                    help="take entrywise log of tables on ingest")
    sp.set_defaults(func=cmd_solve)

    gp = sub.add_parser("generate", help="generate an instance as a UAI file")
    gsub = gp.add_subparsers(dest="kind", required=True)
    gi = gsub.add_parser("ising", help="mixed Ising grid")
    gi.add_argument("--rows", type=int, required=True)
    gi.add_argument("--cols", type=int, required=True)
    gi.add_argument("--beta", type=float, required=True)
    gi.add_argument("--seed", type=int, default=0)
    gi.add_argument("--output", required=True)
    gi.set_defaults(func=cmd_generate)
    gr = gsub.add_parser("random", help="connected random model")
    gr.add_argument("--nodes", type=int, required=True)
    gr.add_argument("--labels", type=int, required=True)
    gr.add_argument("--density", type=float, default=0.5)
    gr.add_argument("--scale", type=float, default=1.0)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--output", required=True)
    gr.set_defaults(func=cmd_generate)

    bp = sub.add_parser("bench", help="run the Ising comparison benchmark")
    bp.add_argument("--sizes", default="10x10,20x20")
    bp.add_argument("--betas", default="0.5,1.0,2.0")
    bp.add_argument("--instances", type=int, default=10)
    bp.add_argument("--restarts", type=int, default=10)
    bp.add_argument("--solvers", default="cccp,maxprod")
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--output-dir", default="bench_out")
    bp.set_defaults(func=cmd_bench)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:  # a model or plan sized past what numpy can allocate; nothing is written
        print(f"error: too large to allocate: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
