"""UAI MARKOV text format, restricted to unary and pairwise factors.

Tables are read as additive potentials in the linear domain (not the
probability convention); callers ingesting genuinely probabilistic files
can log-transform after parsing.  `#` starts a comment on read; the writer
never emits one.  The writer is canonical: byte-identical output for equal
models.  The reader makes one pass over the tokens and converts all table
entries at once; line numbers are counted only for an error, which is the
first fault in file order.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Tuple

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


def _leading_floats(tokens: List[str]) -> List[float]:
    """The tokens as floats, up to the first one that is not a float."""
    out: List[float] = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError:
            break
    return out


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

    def int_at(i: int, what: str) -> int:
        if i >= ntok:
            raise error(i, f"unexpected end of input, expected {what}")
        try:
            return int(toks[i])
        except ValueError:
            raise error(i, f"expected {what}, got {toks[i]!r}") from None

    if not ntok or toks[0].upper() != "MARKOV":
        raise error(0, f"expected MARKOV header, got {toks[0]!r}" if ntok else
                    "unexpected end of input, expected MARKOV header")
    n = int_at(1, "variable count")
    if n < 0:
        raise error(1, "negative variable count")
    cards = []
    for v in range(n):
        cards.append(int_at(2 + v, f"cardinality of variable {v}"))
        if cards[v] < 1:
            raise error(2 + v, f"variable {v} has cardinality {cards[v]}")
    nf, pos = int_at(2 + n, "factor count"), 3 + n
    scopes: List[Tuple[int, ...]] = []
    for f in range(nf):
        arity = int_at(pos, f"arity of factor {f}")
        if arity not in (1, 2):
            raise error(pos, f"factor {f} has unsupported arity {arity}; only unary and pairwise supported")
        scope = []
        for p in range(pos + 1, pos + 1 + arity):
            scope.append(int_at(p, f"scope variable of factor {f}"))
            if not 0 <= scope[-1] < n:
                raise error(p, f"factor {f} references variable {scope[-1]}, out of range")
        if arity == 2 and scope[0] == scope[1]:
            raise error(pos + 2, f"factor {f} repeats variable {scope[0]} in its scope")
        scopes.append(tuple(scope))
        pos += 1 + arity

    # The scopes fix where each count sits, as long as the counts before it
    # match.  A fault found is `pending` until no earlier entry is at fault.
    sizes = [cards[s[0]] * cards[s[1]] if len(s) == 2 else cards[s[0]] for s in scopes]
    first, counts, pending = pos, [], None
    for f, size in enumerate(sizes):
        try:
            if (count := int_at(pos, f"entry count of factor {f}")) != size:
                raise error(pos, f"factor {f} declares {count} entries, scope implies {size}")
        except UaiParseError as exc:
            pending = exc
            break
        counts.append(pos)
        pos += 1 + size
    span = toks[first:min(pos, ntok)]
    try:
        vals = np.array(list(map(float, span)))
    except ValueError:
        vals = np.array(_leading_floats(span))
    stop = first + len(vals)  # entries from here on are missing or not floats
    if stop < pos:
        g = bisect_right(counts, stop) - 1
        what = f"entry {stop - counts[g] - 1} of factor {g}"
        pending = error(stop, f"expected {what}, got {toks[stop]!r}" if stop < ntok else
                        f"unexpected end of input, expected {what}")
    if (nonfinite := np.flatnonzero(~np.isfinite(vals))).size:
        g = bisect_right(counts, first + nonfinite[0]) - 1
        if counts[g] + sizes[g] < stop:
            raise error(counts[g] + sizes[g], f"factor {g} has non-finite entries")
    if pending is not None:
        raise pending
    if pos < ntok:
        raise error(pos, f"trailing content {toks[pos]!r}")

    # each factor's entries follow its count; a unary sum starts from 0 + entries
    plus_zero = vals + 0.0
    unaries: Dict[int, np.ndarray] = {}
    edge_tables: Dict[Tuple[int, int], np.ndarray] = {}
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        for scope, c, size in zip(scopes, counts, sizes):
            lo = c + 1 - first
            if len(scope) == 1:
                (i,) = scope
                unaries[i] = unaries[i] + vals[lo:lo + size] if i in unaries else plus_zero[lo:lo + size]
            else:
                i, j = scope
                t = vals[lo:lo + size].reshape(cards[i], cards[j])
                if i > j:
                    i, j, t = j, i, t.T
                edge_tables[(i, j)] = edge_tables[(i, j)] + t if (i, j) in edge_tables else t
    if len(edge_tables) + len(unaries) < len(scopes):  # only a repeated scope sums entries
        model._check_finite(list(edge_tables.values()), lambda e: "edge ({},{}) table".format(*list(edge_tables)[e]))
        model._check_finite(list(unaries.values()), lambda e: f"unary on node {list(unaries)[e]}")
    # the rest was checked above as PairwiseMRF would check it: only its storage flags are set
    tables = tuple(np.ascontiguousarray(t) for t in edge_tables.values())
    for a in tables + tuple(unaries.values()):
        a.flags.writeable = False
    return model._trusted(tuple(cards), tuple(edge_tables), tables, unaries or None)


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
