"""Report hashes: one SHA-256 per `SolveReport` field, to show that two trees solve alike.

    python scripts/reports.py                       # this tree's hashes
    python scripts/reports.py --cases star-40,mixed-unaries
    python scripts/reports.py --against HEAD~1      # the entries that differ from a git revision

Every case is solved by all four solvers, with and without `collect_diagnostics`.
Each output line is `case solver diagnostics field sha256`.  Every field but
`wall_time_s` is hashed, the trace one `TraceRecord` field at a time
(`trace.qp_objective`, ...), and a solve that raises hashes its error as the
field `error`.  The hash tells apart every bit of a value, its type and its
shape, so equal hashes mean bit-identical reports.

`--against REV` extracts REV's `src` with `git archive` into a temporary
directory and runs this script in two fresh processes, one with each tree's
`src` first on the path.  It then lists the (case, solver, diagnostics, field)
entries whose hashes differ, and exits 0 whether or not any do.  Only the
standard library, numpy and qpmap are used.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import logging
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SOLVERS = ("cccp", "convex", "gpem", "maxprod")


def _cases():
    """name -> (model builder, config overrides, per-solver budget overrides)."""
    import numpy as np

    from qpmap import PairwiseMRF, uai
    from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf

    def grid_edges(rows, cols):
        return [(r * cols + c, r * cols + c + dc + dr * cols) for r in range(rows) for c in range(cols)
                for dr, dc in ((0, 1), (1, 0)) if r + dr < rows and c + dc < cols]

    def padded_binary():  # one-label nodes among binary ones
        rng = np.random.default_rng(1)
        cards = [2] + rng.integers(1, 3, size=15).tolist()
        edges = grid_edges(4, 4)
        return PairwiseMRF(cards, edges, [rng.uniform(-1.0, 1.0, (cards[i], cards[j])) for i, j in edges])

    def star():  # one hub of degree 40: every slot past the first is a tail slot
        rng = np.random.default_rng(2)
        return PairwiseMRF((3,) * 41, [(0, v) for v in range(1, 41)], list(rng.uniform(0.0, 1.0, (40, 3, 3))))

    def neg_zero_grid():  # -0.0 entries survive `prepare_model`, whose kept tables have minimum -0.0
        rng = np.random.default_rng(3)
        edges = grid_edges(5, 5)
        tables = rng.choice([-0.0, 0.0, 0.5, 1.0], size=(len(edges), 2, 2))
        tables[:, [0, 1], [0, 1]] += 1.0  # every label's table sum is positive
        return PairwiseMRF((2,) * 25, edges, list(tables))

    def mixed_unaries():  # mixed cardinalities, negative tables and unaries
        rng = np.random.default_rng(4)
        n = 12
        cards = rng.integers(1, 6, size=n).tolist()
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        edges += [e for e in ((0, 11), (1, 7), (4, 10)) if e not in edges]
        tables = [rng.normal(0.0, 1.0, (cards[i], cards[j])) for i, j in edges]
        return PairwiseMRF(cards, edges, tables, {i: rng.normal(0.0, 1.0, cards[i]) for i in range(0, n, 2)})

    def uai_grid():  # as the CLI reads it back
        return uai.parse_uai(uai.write_uai(gen_ising_grid(IsingSpec(50, 50, 1.0, seed=0))))

    def ising(beta, seed):
        return lambda: gen_ising_grid(IsingSpec(10, 10, beta, seed=seed))

    # the benchmark pools' models and protocols (ising, dense, uai-grid), then the edge cases
    cases = {f"ising-{beta:g}": (ising(beta, seed), {"restarts": 10}, {}) for seed, beta in enumerate((0.5, 1.0, 2.0))}
    cases["dense-k64"] = (lambda: gen_random_mrf(20, 64, density=1.0, seed=0),
                          {"restarts": 2, "max_outer_iterations": 100}, {})
    cases["uai-grid"] = (uai_grid, {"restarts": 1}, {"maxprod": 200})
    for name, build in (("padded-binary", padded_binary), ("star-40", star), ("neg-zero-grid", neg_zero_grid),
                        ("mixed-unaries", mixed_unaries)):
        cases[name] = (build, {"restarts": 3}, {})
    return cases


def _feed(h, x) -> None:
    """Feed `x` to the hash `h`, telling apart every value, type and shape."""
    import numpy as np

    if isinstance(x, np.ndarray):
        h.update(f"array {x.dtype.str} {x.shape};".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        h.update(f"{type(x).__name__}{{".encode())
        for f in dataclasses.fields(x):
            _feed(h, f.name)
            _feed(h, getattr(x, f.name))
        h.update(b"}")
    elif isinstance(x, dict):
        h.update(f"dict {len(x)};".encode())
        for k, v in x.items():
            _feed(h, k)
            _feed(h, v)
    elif isinstance(x, list):
        h.update(f"list {len(x)};".encode())
        for v in x:
            _feed(h, v)
    else:  # float.hex keeps every bit, -0.0 and nan included
        h.update(f"{type(x).__name__} {float(x).hex() if isinstance(x, float) else repr(x)};".encode())


def _digest(x) -> str:
    h = hashlib.sha256()
    _feed(h, x)
    return h.hexdigest()


def _fields(report) -> Dict[str, object]:
    """The report's fields as hashed: the trace one column at a time, no wall time."""
    from qpmap.common import TraceRecord

    out = {}
    for f in dataclasses.fields(report):
        if f.name == "trace":
            for t in dataclasses.fields(TraceRecord):
                out[f"trace.{t.name}"] = [getattr(r, t.name) for r in report.trace]
        elif f.name != "wall_time_s":
            out[f.name] = getattr(report, f.name)
    return out


def report_hashes(names: Optional[List[str]] = None) -> List[str]:
    """One `case solver diagnostics field sha256` line per hashed field, for the
    named cases (all of them by default)."""
    from qpmap.bench import SOLVERS as ENTRY
    from qpmap.common import SolverConfig

    cases, lines = _cases(), []
    if unknown := sorted(set(names or ()) - set(cases)):
        sys.exit(f"unknown case {unknown[0]!r}; the cases are {', '.join(cases)}")
    for name in names or cases:
        build, overrides, budgets = cases[name]
        mrf = build()
        for solver in SOLVERS:
            solve, budget = ENTRY[solver]
            for diagnostics in (False, True):
                config = SolverConfig(**{"max_outer_iterations": budgets.get(solver, budget), "seed": 5,
                                         **overrides, "collect_diagnostics": diagnostics})
                try:
                    fields = _fields(solve(mrf, config))
                except Exception as exc:  # an error is part of the behaviour compared
                    fields = {"error": f"{type(exc).__name__}: {exc}"}
                lines += [f"{name} {solver} {int(diagnostics)} {k} {_digest(v)}" for k, v in fields.items()]
    return lines


def differences(ours: List[str], theirs: List[str]) -> List[str]:
    """The `case solver diagnostics field` entries whose hashes differ, or that only one side has."""
    a, b = (dict(line.rsplit(" ", 1) for line in lines) for lines in (ours, theirs))
    return [k for k in list(a) + [k for k in b if k not in a] if a.get(k) != b.get(k)]


def _run(src: Path, cases: str) -> List[str]:
    proc = subprocess.run([sys.executable, __file__, "--src", str(src), "--cases", cases],
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"reports on {src} failed:\n{proc.stderr}")
    return proc.stdout.splitlines()


def against(rev: str, cases: str) -> Tuple[List[str], int]:
    """The entries that differ between this tree and `rev`, and how many entries there are."""
    git = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], capture_output=True)
    if git.returncode:
        sys.exit(f"git archive {rev} failed: {git.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(git.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        theirs = _run(Path(tmp) / "src", cases)
    ours = _run(ROOT / "src", cases)
    return differences(ours, theirs), len(ours)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cases", default="all", help="comma-separated case names, or all")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the qpmap source tree to import")
    ap.add_argument("--against", metavar="REV", help="list the entries that differ from git revision REV")
    args = ap.parse_args(argv)
    if args.against:
        diff, total = against(args.against, args.cases)
        print(f"against {args.against}: {len(diff)} of {total} entries differ", *diff, sep="\n")
        return 0
    sys.path.insert(0, str(args.src))
    logging.getLogger("qpmap").setLevel(logging.ERROR)  # GP-EM's underflow warnings are not in a report
    print(*report_hashes(None if args.cases == "all" else args.cases.split(",")), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
