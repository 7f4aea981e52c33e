"""UAI MARKOV text format, restricted to unary and pairwise factors.

Tables are read as additive potentials in the linear domain (not the
probability convention); callers ingesting genuinely probabilistic files
can log-transform after parsing.  `#` starts a comment on read; the writer
never emits one.  The writer is canonical: byte-identical output for equal
models.  The reader converts each section's tokens in one array pass and
gathers each table shape's tables from the entries at once; a file that
pass rejects is read again one token at a time, to name its first fault
in file order with its line.
"""

from __future__ import annotations

from math import isfinite, prod
from typing import Tuple

import numpy as np

from . import model
from .model import PairwiseMRF


class UaiParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _sum_scopes(vals: np.ndarray, key: np.ndarray, at: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                flip: np.ndarray, unary: bool) -> Tuple[np.ndarray, list]:
    """The distinct `key`s in order of first appearance, and their tables as
    model groups, one per table shape: each key's table is the sum, in file
    order, of its factors' (rows, cols) entries read row-major from `vals` at
    `at` (column-major where `flip`).  `unary` stacks (`rows` all 1) hold
    1-D tables."""
    uniq, first, inv = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank, pick, groups = np.argsort(order), np.empty(len(uniq), dtype=int), []  # pick: a key's stack row
    for r, c, fs in model.shape_groups(rows, cols):  # one gather per table shape
        lead = first[inv[fs]] == fs  # a key's first factor
        grid = np.where(flip[fs, None, None], np.arange(r * c).reshape(c, r).T, np.arange(r * c).reshape(r, c))
        block = vals[at[fs, None, None] + grid]
        stack = block if lead.all() else block[lead]
        if unary:  # a unary sum starts from 0 + entries
            stack += 0.0
        pick[inv[fs[lead]]] = np.arange(len(stack))
        np.add.at(stack, pick[inv[fs[~lead]]], block[~lead])  # in file order
        stack.flags.writeable = False
        groups.append((r, c, rank[inv[fs[lead]]], stack.reshape(len(stack), -1) if unary else stack))
    return uniq[order], groups


def parse_uai(text: str) -> PairwiseMRF:
    """Parse a MARKOV file into a pairwise model.

    Unary factors become unary vectors; pairwise factors become edge
    tables, canonically oriented; repeated scopes over the same pair or
    node are summed.  Factors of arity > 2 are rejected.  A file the array
    pass rejects is read again by `_first_fault`, which names its first fault.
    """
    toks = (" ".join(line.split("#", 1)[0] for line in text.splitlines()) if "#" in text else text).split()
    ntok = len(toks)
    try:
        n = int(toks[1])
        cards = list(map(int, toks[2:2 + n]))
        card = np.array([min(k, ntok) for k in cards], dtype=np.int64)  # no scope fits a larger one
        nf, first = int(toks[2 + n]), 3 + n
        if toks[0].upper() != "MARKOV" or n < 0 or len(cards) < n or (card < 1).any():
            raise ValueError
        # each arity fixes where the next scope starts
        pos, ends, width = first, [first], {"1": 2, "2": 3}  # a scope's tokens, by arity as spelt
        for _ in range(nf):
            if (step := width.get(toks[pos]) or 1 + int(toks[pos])) not in (2, 3):
                raise ValueError
            pos += step
            ends.append(pos)
        starts, arities = np.array(ends[:-1], dtype=int) - first, np.diff(ends) - 1
        scope = np.array(toks[first:pos], dtype=np.int64)  # the arities and the variables
        u, w = scope[starts + 1], scope[starts + arities]  # w is u if unary
        sizes = card[u] * np.where(arities == 2, card[w], 1)
        if ((u < 0) | (w < 0) | (u >= n) | (w >= n) | ((u == w) & (arities == 2)) | (sizes >= ntok)).any():
            raise ValueError
        # the scopes fix where each count sits; the entries end the file
        count_pos = pos + np.cumsum(1 + sizes) - 1 - sizes
        if (np.array([toks[c] for c in count_pos.tolist()], dtype=np.int64) != sizes).any():
            raise ValueError
        vals = np.array(toks[pos:], dtype=float)  # the counts as well: `at` skips them
        if pos + int(np.sum(1 + sizes)) != ntok or not np.isfinite(vals).all():
            raise ValueError
    except (IndexError, ValueError, OverflowError):
        raise _first_fault(text) from None

    # one gather per table shape; repeated scopes are summed in file order
    at = count_pos + 1 - pos
    one, two = np.flatnonzero(arities == 1), np.flatnonzero(arities == 2)
    lo, hi = np.minimum(u[two], w[two]), np.maximum(u[two], w[two])
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        nodes, unaries = _sum_scopes(vals, u[one], at[one], np.ones_like(one), card[u[one]], one < 0, True)
        pairs, groups = _sum_scopes(vals, lo * n + hi, at[two], card[lo], card[hi], u[two] > w[two], False)
    edges = tuple(zip((pairs // max(n, 1)).tolist(), (pairs % max(n, 1)).tolist()))
    if len(pairs) + len(nodes) < nf:  # only a repeated scope sums entries
        model._check_finite(groups, lambda e: "edge ({},{}) table".format(*edges[e]))
        model._check_finite(unaries, lambda e: f"unary on node {nodes[e]}")
    # the rest was checked above as PairwiseMRF would check it; the stacks are read-only
    unaries = dict(zip(nodes.tolist(), model.rows_in_order(unaries, len(nodes))))
    return model._trusted(tuple(cards), edges, groups, unaries or None)


def _first_fault(text: str) -> UaiParseError:
    """The first fault of a file the array pass rejected, read one token at a
    time in the order of `tests/oracles.parse_uai_reference`, with exact ints
    and nothing stored per declared entry."""
    tokens = ((tok, i) for i, line in enumerate(text.splitlines(), 1) for tok in line.split("#", 1)[0].split())
    line = 1  # the line of the last token taken

    def take(what: str) -> str:
        nonlocal line
        for tok, line in tokens:
            return tok
        raise UaiParseError(line, f"unexpected end of input, expected {what}")

    def number(kind: type, what: str):
        tok = take(what)
        try:
            return kind(tok)
        except ValueError:
            raise UaiParseError(line, f"expected {what}, got {tok!r}") from None

    try:
        if (header := take("MARKOV header")).upper() != "MARKOV":
            raise UaiParseError(line, f"expected MARKOV header, got {header!r}")
        if (n := number(int, "variable count")) < 0:
            raise UaiParseError(line, "negative variable count")
        cards = []
        for v in range(n):
            if (k := number(int, f"cardinality of variable {v}")) < 1:
                raise UaiParseError(line, f"variable {v} has cardinality {k}")
            cards.append(k)
        scopes = []
        for f in range(number(int, "factor count")):
            if (arity := number(int, f"arity of factor {f}")) not in (1, 2):
                raise UaiParseError(line, f"factor {f} has unsupported arity {arity}; only unary and pairwise supported")
            scopes.append([])
            for _ in range(arity):
                if not 0 <= (v := number(int, f"scope variable of factor {f}")) < n:
                    raise UaiParseError(line, f"factor {f} references variable {v}, out of range")
                if v in scopes[-1]:
                    raise UaiParseError(line, f"factor {f} repeats variable {v} in its scope")
                scopes[-1].append(v)
        for f, scope in enumerate(scopes):
            if (count := number(int, f"entry count of factor {f}")) != (size := prod(cards[v] for v in scope)):
                raise UaiParseError(line, f"factor {f} declares {count} entries, scope implies {size}")
            if sum(not isfinite(number(float, f"entry {e} of factor {f}")) for e in range(count)):  # reads all
                raise UaiParseError(line, f"factor {f} has non-finite entries")
        trailing = take("end of input")
        raise UaiParseError(line, f"trailing content {trailing!r}")
    except UaiParseError as fault:
        return fault


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_uai(mrf: PairwiseMRF) -> str:
    """Canonical serialization: unary factors in node order first, then
    pairwise factors in edge-list order; 17-significant-digit floats."""
    lines = ["MARKOV", str(mrf.num_nodes), " ".join(str(k) for k in mrf.cardinalities)]
    unary_nodes = sorted(mrf.unaries) if mrf.unaries else []
    lines.append(str(len(unary_nodes) + len(mrf.edges)))
    for i in unary_nodes:
        lines.append(f"1 {i}")
    for i, j in mrf.edges:
        lines.append(f"2 {i} {j}")
    for i in unary_nodes:
        u = mrf.unaries[i]
        lines.append("")
        lines.append(str(len(u)))
        lines.append(" ".join(_fmt(x) for x in u))
    for t in mrf.tables:
        lines.append("")
        lines.append(str(t.size))
        for row in t:
            lines.append(" ".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"
