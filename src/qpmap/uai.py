"""UAI MARKOV text format, restricted to unary and pairwise factors.

Tables are read as additive potentials in the linear domain (not the
probability convention); callers ingesting genuinely probabilistic files
can log-transform after parsing.  `#` starts a comment on read; the writer
never emits one.  The writer is canonical: byte-identical output for equal
models.  The reader converts each section's tokens in one pass (the
cardinalities, the scope variables, the entry counts, all table entries)
and gathers each table shape's tables from the entries at once; line
numbers and messages are made only for an error, which is the first fault
in file order.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import suppress
from itertools import accumulate
from typing import List, Tuple

import numpy as np

from . import model
from .model import PairwiseMRF


class UaiParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _line_of(text: str, index: int) -> int:
    """Line of token `index`; past the last token, the last token's line (1 if none)."""
    ends = list(accumulate(len(line.split("#", 1)[0].split()) for line in text.splitlines()))
    return bisect_right(ends, min(index, ends[-1] - 1)) + 1 if ends and ends[-1] else 1


def _numbers(dtype: type, tokens: List[str]) -> np.ndarray:
    """The tokens as `float`s or `np.int64`s, up to the first one that is not
    such a number; an int beyond int64 makes it an array of Python ints."""
    try:
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):  # one at a time, up to the fault
        out: list = []
        with suppress(ValueError):
            for tok in tokens:
                out.append((float if dtype is float else int)(tok))
        fits = dtype is float or max(map(abs, out), default=0) < 2**63
        return np.array(out, dtype=dtype if fits else object)


def _sum_scopes(vals: np.ndarray, key: np.ndarray, at: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                flip: np.ndarray, unary: bool) -> Tuple[np.ndarray, tuple]:
    """The distinct `key`s in order of first appearance, and each one's table:
    the sum, in file order, of its factors' (rows, cols) entries read
    row-major from `vals` at `at` (column-major where `flip`).  `unary`
    tables (`rows` all 1) are 1-D."""
    uniq, first, inv = np.unique(key, return_index=True, return_inverse=True)
    pool, pick = [], np.empty(len(uniq), dtype=int)  # the tables: pool[pick[t]] for key uniq[t]
    for r, c, fs in model.shape_groups(rows, cols):  # one gather per table shape
        lead = first[inv[fs]] == fs  # a key's first factor
        grid = np.where(flip[fs, None, None], np.arange(r * c).reshape(c, r).T, np.arange(r * c).reshape(r, c))
        block = vals[at[fs, None, None] + grid]
        stack = block if lead.all() else block[lead]
        if unary:  # a unary sum starts from 0 + entries
            stack += 0.0
        pick[inv[fs[lead]]] = len(pool) + np.arange(len(stack))
        np.add.at(stack, pick[inv[fs[~lead]]] - len(pool), block[~lead])  # in file order
        stack.flags.writeable = False
        pool.extend(stack.reshape(len(stack), -1) if unary else stack)
    order = np.argsort(first)
    return uniq[order], tuple(map(pool.__getitem__, pick[order].tolist()))


def parse_uai(text: str) -> PairwiseMRF:
    """Parse a MARKOV file into a pairwise model.

    Unary factors become unary vectors; pairwise factors become edge
    tables, canonically oriented; repeated scopes over the same pair or
    node are summed.  Factors of arity > 2 are rejected.
    """
    toks = (" ".join(line.split("#", 1)[0] for line in text.splitlines()) if "#" in text else text).split()
    ntok = len(toks)

    def error(i: int, message: str) -> UaiParseError:
        return UaiParseError(_line_of(text, i), message)

    def expected(i: int, what: str) -> UaiParseError:
        return error(i, f"expected {what}, got {toks[i]!r}" if i < ntok else
                     f"unexpected end of input, expected {what}")

    def int_at(i: int, what: str) -> int:
        try:
            return int(toks[i])
        except (IndexError, ValueError):
            raise expected(i, what) from None

    if not ntok or toks[0].upper() != "MARKOV":
        raise error(0, f"expected MARKOV header, got {toks[0]!r}" if ntok else
                    "unexpected end of input, expected MARKOV header")
    n = int_at(1, "variable count")
    if n < 0:
        raise error(1, "negative variable count")
    cards = _numbers(np.int64, toks[2:2 + n])
    if (low := np.flatnonzero(cards < 1)).size:
        raise error(2 + low[0], f"variable {low[0]} has cardinality {cards[low[0]]}")
    if len(cards) < n:
        raise expected(2 + len(cards), f"cardinality of variable {len(cards)}")
    nf, first = int_at(2 + n, "factor count"), 3 + n

    # each arity fixes where the next scope starts; the walk stops at one that is not 1 or 2
    pos, ends, width = first, [first], {"1": 2, "2": 3}  # a scope's tokens, by arity as spelt
    with suppress(IndexError, ValueError):
        for _ in range(nf):
            if (step := width.get(toks[pos]) or 1 + int(toks[pos])) not in (2, 3):
                break
            pos += step
            ends.append(pos)
    starts, arities = np.array(ends[:-1], dtype=int) - first, np.diff(ends) - 1
    scope = _numbers(np.int64, toks[first:pos])  # every arity is an int: a fault is a variable's
    bad = ((scope < 0) | (scope >= n)) & ~np.isin(np.arange(len(scope)), starts)  # a variable out of range
    second = starts[(arities == 2) & (starts + 2 < len(scope))] + 2
    repeats = second[scope[second - 1] == scope[second]]  # a pair's second variable, equal to its first
    q = min([*np.flatnonzero(bad)[:1], *repeats[:1], len(scope)])
    if q < pos - first:  # the first fault of a scope variable, in file order
        f, p = bisect_right(ends, first + q) - 1, first + q
        if q == len(scope):
            raise expected(p, f"scope variable of factor {f}")
        if bad[q]:
            raise error(p, f"factor {f} references variable {scope[q]}, out of range")
        raise error(p, f"factor {f} repeats variable {scope[q]} in its scope")
    if len(ends) <= nf:
        f, arity = len(ends) - 1, int_at(pos, f"arity of factor {len(ends) - 1}")
        raise error(pos, f"factor {f} has unsupported arity {arity}; only unary and pairwise supported")

    # The scopes fix where each count sits, as long as the counts before it
    # match.  A fault found is `pending` until no earlier entry is at fault.
    u, w = scope[starts + 1].astype(np.int64), scope[starts + arities].astype(np.int64)  # w is u if unary
    # Python ints if a product could overflow, so that the implied entry counts are exact
    card = cards.astype(object) if cards.size and cards.max() >= 2**31 else cards
    sizes = card[u] * np.where(arities == 2, card[w], 1)
    # A count's place is exact while every factor before it fits in the
    # tokens; one that does not puts all later counts past the end.
    step = np.minimum(sizes, ntok).astype(np.int64)
    count_pos = pos + np.cumsum(1 + step) - 1 - step
    got = _numbers(np.int64, [toks[c] for c in count_pos[count_pos < ntok].tolist()])
    mismatch = np.flatnonzero(got != sizes[:len(got)])
    g = mismatch[0] if mismatch.size else len(got)  # the first factor whose count is at fault
    entries, pos, pending = pos, pos + int(np.sum(1 + step)), None
    if g < nf:
        pos = count_pos[g]
        pending = (expected(pos, f"entry count of factor {g}") if g == len(got) else
                   error(pos, f"factor {g} declares {got[g]} entries, scope implies {sizes[g]}"))
    vals = _numbers(float, toks[entries:min(pos, ntok)])
    stop = entries + len(vals)  # entries from here on are missing or not floats
    if stop < pos:
        h = bisect_right(count_pos[:g], stop) - 1  # the factors before g have their counts right
        pending = expected(stop, f"entry {stop - count_pos[h] - 1} of factor {h}")
    if (nonfinite := np.flatnonzero(~np.isfinite(vals))).size:
        h = bisect_right(count_pos[:g], entries + nonfinite[0]) - 1
        if count_pos[h] + sizes[h] < stop:
            raise error(count_pos[h] + sizes[h], f"factor {h} has non-finite entries")
    if pending is not None:
        raise pending
    if pos < ntok:
        raise error(pos, f"trailing content {toks[pos]!r}")

    # one gather per table shape; repeated scopes are summed in file order
    # a cardinality in a scope is below ntok now; one beyond int64 is in none
    card, at = np.minimum(card, ntok).astype(np.int64), count_pos + 1 - entries
    one, two = np.flatnonzero(arities == 1), np.flatnonzero(arities == 2)
    lo, hi = np.minimum(u[two], w[two]), np.maximum(u[two], w[two])
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        nodes, unaries = _sum_scopes(vals, u[one], at[one], np.ones_like(one), card[u[one]], one < 0, True)
        pairs, tables = _sum_scopes(vals, lo * n + hi, at[two], card[lo], card[hi], u[two] > w[two], False)
    edges = tuple(zip((pairs // max(n, 1)).tolist(), (pairs % max(n, 1)).tolist()))
    if len(pairs) + len(nodes) < nf:  # only a repeated scope sums entries
        model._check_finite(list(tables), lambda e: "edge ({},{}) table".format(*edges[e]))
        model._check_finite(list(unaries), lambda e: f"unary on node {nodes[e]}")
    # the rest was checked above as PairwiseMRF would check it; the tables are read-only
    return model._trusted(tuple(cards.tolist()), edges, tables, dict(zip(nodes.tolist(), unaries)) or None)


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
