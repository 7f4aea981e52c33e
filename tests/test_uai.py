import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmap import uai
from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from qpmap.model import ModelError, PairwiseMRF
from qpmap.uai import UaiParseError, write_uai
from oracles import parse_uai_reference


def parse_uai(text):
    """`uai.parse_uai`, each result checked against `PairwiseMRF(...)` built from
    writeable copies of its parts: the reader skips that validation."""
    m = uai.parse_uai(text)
    ref = PairwiseMRF(m.cardinalities, m.edges, tuple(t.copy() for t in m.tables),
                      None if m.unaries is None else {i: u.copy() for i, u in m.unaries.items()})
    assert [type(k) for k in m.cardinalities] == [type(k) for k in ref.cardinalities]
    assert_same_model(m, ref)
    for got, want in zip(m.tables + tuple((m.unaries or {}).values()),
                         ref.tables + tuple((ref.unaries or {}).values())):
        assert got.dtype == want.dtype and got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.writeable == want.flags.writeable
    return m


MINIMAL = """MARKOV
2
2 2
1
2 0 1

4
 2 0
 0 1
"""


class TestParse:
    def test_minimal_two_variable(self):
        m = parse_uai(MINIMAL)
        assert m.cardinalities == (2, 2)
        assert m.edges == ((0, 1),)
        assert np.array_equal(m.tables[0], [[2.0, 0.0], [0.0, 1.0]])
        assert not m.unaries

    def test_comments_ignored(self):
        m = parse_uai(MINIMAL.replace("MARKOV", "MARKOV  # preamble comment"))
        assert m.edges == ((0, 1),)

    def test_unary_only(self):
        text = "MARKOV\n1\n3\n1\n1 0\n\n3\n0.5 -1 2\n"
        m = parse_uai(text)
        assert m.edges == ()
        assert np.array_equal(m.unaries[0], [0.5, -1.0, 2.0])

    def test_reversed_scope_is_transposed(self):
        text = "MARKOV\n2\n2 3\n1\n2 1 0\n\n6\n1 2\n3 4\n5 6\n"
        m = parse_uai(text)
        assert m.edges == ((0, 1),)
        # file stores theta indexed (x1, x0); canonical table is (x0, x1)
        assert np.array_equal(m.tables[0], [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_duplicate_scopes_summed(self):
        text = "MARKOV\n2\n2 2\n2\n2 0 1\n2 1 0\n\n4\n1 0\n0 1\n\n4\n1 2\n3 4\n"
        m = parse_uai(text)
        assert np.array_equal(m.tables[0], [[2.0, 3.0], [2.0, 5.0]])

    def test_arity_three_rejected(self):
        text = "MARKOV\n3\n2 2 2\n1\n3 0 1 2\n\n8\n" + "0 " * 8 + "\n"
        with pytest.raises(UaiParseError, match="arity 3"):
            parse_uai(text)

    def test_bad_header(self):
        with pytest.raises(UaiParseError, match="line 1"):
            parse_uai("BAYES\n2\n2 2\n0\n")

    def test_truncated_entries(self):
        with pytest.raises(UaiParseError, match="unexpected end"):
            parse_uai("MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n1 2 3\n")

    def test_entry_count_mismatch(self):
        with pytest.raises(UaiParseError, match="line 7"):
            parse_uai("MARKOV\n2\n2 2\n1\n2 0 1\n\n3\n1 2 3\n")

    def test_non_numeric_token(self):
        with pytest.raises(UaiParseError, match="'two'"):
            parse_uai("MARKOV\ntwo\n")

    def test_trailing_content(self):
        with pytest.raises(UaiParseError, match="trailing"):
            parse_uai(MINIMAL + "99\n")

    def test_scope_out_of_range(self):
        with pytest.raises(UaiParseError, match="out of range"):
            parse_uai("MARKOV\n2\n2 2\n1\n2 0 5\n\n4\n1 2 3 4\n")


class TestRoundTrip:
    def test_two_node(self):
        m = parse_uai(MINIMAL)
        again = parse_uai(write_uai(m))
        assert again.cardinalities == m.cardinalities
        assert again.edges == m.edges
        assert np.array_equal(again.tables[0], m.tables[0])

    def test_random_models_exact(self):
        for seed in range(10):
            m = gen_random_mrf(6, 3, seed=seed)
            again = parse_uai(write_uai(m))
            assert again.edges == m.edges
            for a, b in zip(again.tables, m.tables):
                assert np.array_equal(a, b)

    def test_ising_with_unaries(self):
        m = gen_ising_grid(IsingSpec(3, 3, beta=1.0, seed=4))
        again = parse_uai(write_uai(m))
        assert set(again.unaries) == set(m.unaries)
        for i in m.unaries:
            assert np.allclose(again.unaries[i], m.unaries[i], atol=1e-12)
        for a, b in zip(again.tables, m.tables):
            assert np.allclose(a, b, atol=1e-12)

    def test_byte_determinism(self):
        m = gen_random_mrf(5, 4, seed=7)
        s1 = write_uai(m)
        s2 = write_uai(parse_uai(s1))
        assert s1 == s2
        assert s1.endswith("\n")

    def test_seventeen_digit_floats_survive(self):
        t = np.array([[1 / 3, np.pi], [np.e, 1e-17]])
        m = PairwiseMRF((2, 2), ((0, 1),), (t,))
        again = parse_uai(write_uai(m))
        assert np.array_equal(again.tables[0], t)


# -- the one-pass reader against the per-token reference ----------------------

ENTRY_FORMS = (repr, lambda x: format(x, ".17g"), lambda x: format(x, ".3e"), lambda x: str(int(x)))
SPECIAL_ENTRIES = (0.0, -0.0, 1e-300, -2.5e300, 1.0, -1.0)


def _noisy_separator(rng):
    """Irregular whitespace between tokens, sometimes a line break with a comment."""
    sep = str(rng.choice([" ", "  ", "\t", "\n", " \n\n", "\r\n", "\x0c"]))
    if rng.random() < 0.1:
        sep += "# comment 1 2 nan\n" if rng.random() < 0.5 else "\n#\n"
    return sep


def _random_uai_text(rng):
    """A valid MARKOV file: mixed cardinalities, unaries, reversed and
    repeated scopes, signed zeros, comments and irregular whitespace."""
    n = int(rng.integers(1, 6))
    cards = [int(k) for k in rng.integers(1, 5, size=n)]
    scopes = []
    for _ in range(int(rng.integers(0, 9))):
        if n == 1 or rng.random() < 0.3:
            scopes.append((int(rng.integers(n)),))
        else:
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            scopes.append((i, j))
    toks = ["markov" if rng.random() < 0.2 else "MARKOV", str(n), *map(str, cards), str(len(scopes))]
    for s in scopes:
        toks += [str(len(s)), *map(str, s)]
    for s in scopes:
        size = int(np.prod([cards[v] for v in s]))
        toks.append(str(size))
        for _ in range(size):
            if rng.random() < 0.2:
                x = float(rng.choice(SPECIAL_ENTRIES))
            else:
                x = float(rng.normal() * 10.0 ** int(rng.integers(-3, 4)))
            form = ENTRY_FORMS[int(rng.integers(3))] if x != int(x) else ENTRY_FORMS[int(rng.integers(4))]
            toks.append(form(x))
    text = str(rng.choice(["", "# preamble\n", "\n\n"]))
    for tok in toks:
        text += tok + _noisy_separator(rng)
    return text


def assert_same_model(got, ref):
    assert got.cardinalities == ref.cardinalities
    assert got.edges == ref.edges
    for a, b in zip(got.tables, ref.tables):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (got.unaries is None) == (ref.unaries is None)
    if ref.unaries is not None:
        assert list(got.unaries) == list(ref.unaries)
        for i in ref.unaries:
            assert got.unaries[i].tobytes() == ref.unaries[i].tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_parse_matches_reference(seed):
    text = _random_uai_text(np.random.default_rng(seed))
    assert_same_model(parse_uai(text), parse_uai_reference(text))


def test_parse_matches_reference_on_a_grid_file():
    text = write_uai(gen_ising_grid(IsingSpec(6, 7, beta=1.0, seed=2)))
    assert_same_model(parse_uai(text), parse_uai_reference(text))


def test_arities_spelt_with_a_zero_or_a_sign():
    text = "MARKOV\n3\n2 3 2\n3\n02 0 1\n+1 2\n+2 2 1\n\n6\n1 2 3 4 5 6\n\n2\n7 8\n\n6\n9 10 11 12 13 14\n"
    m = parse_uai(text)
    assert m.edges == ((0, 1), (1, 2)) and list(m.unaries) == [2]
    assert_same_model(m, parse_uai_reference(text))


EDIT_POOL = ("x", "nan", "-1", "0", "2.0", "02", "+1", "99999999999999999999")


def _edit_one_token(text, rng):
    """`text` with one token (outside comments) deleted, duplicated, or
    replaced by one from EDIT_POOL."""
    spans, offset = [], 0
    for line in text.splitlines(keepends=True):
        spans += [(offset + m.start(), offset + m.end()) for m in re.finditer(r"\S+", line.split("#", 1)[0])]
        offset += len(line)
    a, b = spans[int(rng.integers(len(spans)))]
    edit = int(rng.integers(3))
    new = "" if edit == 0 else text[a:b] + " " + text[a:b] if edit == 1 else str(rng.choice(EDIT_POOL))
    return text[:a] + new + text[b:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_one_token_edit_parses_as_reference(seed):
    """The array pass and `_first_fault` against the reference: the same
    error (message and line), or byte-identical models."""
    rng = np.random.default_rng(seed)
    text = _edit_one_token(_random_uai_text(rng), rng)
    try:
        ref = parse_uai_reference(text)
    except UaiParseError as fault:
        with pytest.raises(UaiParseError) as got:
            parse_uai(text)
        assert str(got.value) == str(fault) and got.value.line == fault.line
    else:
        assert_same_model(parse_uai(text), ref)


HEAD = "MARKOV\n2\n2 3\n"
MALFORMED = {
    "empty": "",
    "comment-only": "# nothing\n\n#\n",
    "bad-header": "BAYES\n2\n2 2\n0\n",
    "bad-int-variable-count": "MARKOV\ntwo\n",
    "negative-variable-count": "MARKOV\n-1\n",
    "truncated-cardinalities": "MARKOV\n3\n2 2\n",
    "bad-int-cardinality": "MARKOV\n2\n2 x\n1\n",
    "cardinality-0": "MARKOV\n2\n2 0\n0\n",
    "truncated-factor-count": HEAD,
    "bad-int-factor-count": HEAD + "1.0\n",
    "truncated-scopes": HEAD + "2\n1 0\n2 0\n",
    "bad-int-arity": HEAD + "1\nb 0 1\n",
    "arity-3": HEAD + "1\n3 0 1 1\n",
    "arity-0": HEAD + "2\n1 0\n0\n",
    "repeated-variable": HEAD + "2\n1 1\n2 1 1\n",
    "repeated-variable-across-lines": HEAD + "2\n1 1\n2 1\n1\n",
    "repeated-variable-with-entries": "MARKOV\n2\n2 2\n1\n2 1 1\n\n4\n1 2 3 4\n",
    "out-of-range-variable": HEAD + "2\n1 0\n2 0 2\n",
    "negative-variable": HEAD + "1\n1 -1\n",
    "negative-variable-with-entries": HEAD + "1\n1 -1\n\n3\n1 2 3\n",
    "bad-int-scope": HEAD + "1\n2 0 one\n",
    "truncated-first-count": HEAD + "1\n2 0 1\n",
    "truncated-later-count": HEAD + "2\n1 0\n2 0 1\n\n2\n1 2\n",
    "truncated-entries": HEAD + "1\n2 0 1\n\n6\n1 2 3\n",
    "truncated-entries-before-count": HEAD + "2\n1 0\n1 1\n\n2\n1\n",
    "truncated-after-nan": HEAD + "1\n1 1\n\n3\nnan 1\n",
    "bad-int-count": HEAD + "1\n1 0\n\n2.0\n1 2\n",
    "count-mismatch": HEAD + "1\n2 0 1\n\n5\n1 2 3 4 5\n",
    "count-mismatch-later": HEAD + "2\n1 0\n2 1 0\n\n2\n1 2\n\n5\n1 2 3 4 5\n",
    "bad-float": HEAD + "1\n2 0 1\n\n6\n1 2\n3 x\n5 6\n",
    "bad-float-later": HEAD + "2\n1 0\n1 1\n\n2\n1 2\n\n3\n1 2 0x1\n",
    "bad-float-after-nan-factor": HEAD + "2\n1 0\n1 1\n\n2\ninf 2\n\n3\n1 y 2\n",
    "bad-float-in-nan-factor": HEAD + "1\n2 0 1\n\n6\nnan 1 2 3 z 5\n",
    "bad-float-before-bad-count": HEAD + "2\n1 0\n1 1\n\n2\n1 q\n\nx\n1 2 3\n",
    "nan-entry": HEAD + "1\n2 0 1\n\n6\n1 2\n3 nan\n5 6\n",
    "inf-entry": HEAD + "2\n1 0\n1 1\n\n2\n1 2\n\n3\n1\n-inf\n3\n",
    "overflowing-entry": HEAD + "1\n1 1\n\n3\n1 1e999 2\n",
    "nan-before-count-mismatch": HEAD + "2\n1 0\n1 1\n\n2\nnan 2\n\n4\n1 2 3 4\n",
    "nan-before-truncation": HEAD + "2\n1 0\n1 1\n\n2\nnan 2\n\n3\n1\n",
    "trailing-content": HEAD + "1\n1 0\n\n2\n1 2\n99\n",
    "trailing-after-negative-factor-count": HEAD + "-1\n7\n",
    "comment-lines-shift-numbers": "# a\nMARKOV # b\n#\n2\n\n# c\n2 3\n1\n2 0 1\n# d\n#\n\n6\n1 2 3\n# e\n4 nan 6\n",
    "comment-at-end-of-truncation": HEAD + "1\n2 0 1\n\n6\n1 2 3\n# the rest is missing\n\n",
    "crlf-and-form-feed": "MARKOV\r\n2\x0c2 3\r\n1\r\n2 0 1\r\n\r\n6\r\n1 2 3\x0c4 5 six\r\n",
    # entry counts near 2**62, whose running sum would wrap in int64
    "huge-counts-missing": "MARKOV\n2\n2147483647 2147483647\n4\n2 0 1\n2 0 1\n2 0 1\n2 0 1\n",
    "huge-count-mismatch": "MARKOV\n2\n2147483647 2147483647\n4\n2 0 1\n2 0 1\n2 0 1\n2 0 1\n\n7\n",
    # ints beyond int64, kept exact in messages
    "cardinality-beyond-int64": "MARKOV\n2\n100000000000000000000 2\n1\n2 0 1\n\n5\n1 2\n",
    "negative-cardinality-beyond-int64": "MARKOV\n2\n2 -100000000000000000000\n0\n",
    "count-beyond-int64": "MARKOV\n1\n2\n1\n1 0\n\n99999999999999999999\n1 2\n",
    "scope-variable-beyond-int64": "MARKOV\n2\n2 2\n1\n2 0 99999999999999999999\n",
    # two cardinalities within int64 whose product is not
    "scope-size-beyond-int64": "MARKOV\n2\n3037000500 3037000500\n1\n2 0 1\n\n5\n",
}


# A count that matches a huge scope, the expected messages written out; the
# files are checked against the reference with the rest of MALFORMED too.
HUGE_DECLARED = {
    "wrapping-counts": ("MARKOV\n2\n2147483647 2147483647\n4\n2 0 1\n2 0 1\n2 0 1\n2 0 1\n"
                        "\n4611686014132420609\n1 2 3\n",
                        "line 11: unexpected end of input, expected entry 3 of factor 0"),
    "then-a-unary": ("MARKOV\n2\n2147483647 2147483647\n2\n2 0 1\n1 0\n\n4611686014132420609\n1\n",
                     "line 9: unexpected end of input, expected entry 1 of factor 0"),
    "cardinality-beyond-int64": ("MARKOV\n2\n100000000000000000000 2\n1\n2 1 0\n"
                                 "\n200000000000000000000\n1 2\n",
                                 "line 8: unexpected end of input, expected entry 2 of factor 0"),
    "cardinality-beyond-int32": ("MARKOV\n1\n3000000000\n1\n1 0\n\n3000000000\n1 2 x\n",
                                 "line 8: expected entry 2 of factor 0, got 'x'"),
}

MALFORMED.update({f"huge-declared-{name}": text for name, (text, _) in HUGE_DECLARED.items()})


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_fails_as_reference(text):
    with pytest.raises(ValueError) as ref:
        parse_uai_reference(text)
    with pytest.raises(ValueError) as got:
        parse_uai(text)
    assert type(got.value) is type(ref.value) is UaiParseError
    assert str(got.value) == str(ref.value)
    assert got.value.line == ref.value.line


@pytest.mark.parametrize("text, message", HUGE_DECLARED.values(), ids=HUGE_DECLARED.keys())
def test_huge_declared_count_fails_at_missing_entry(text, message):
    with pytest.raises(UaiParseError) as got:
        parse_uai(text)
    assert str(got.value) == message


# finite entries whose sum over a repeated scope overflows
SUM_OVERFLOW = {
    "pairwise": HEAD + "2\n2 0 1\n2 0 1\n\n6\n1e308 0 0 0 0 0\n\n6\n1e308 0 0 0 0 0\n",
    "reversed-pairwise": HEAD + "2\n2 0 1\n2 1 0\n\n6\n0 0 0 0 0 -1e308\n\n6\n0 0 0 0 0 -1e308\n",
    "unary": HEAD + "2\n1 1\n1 1\n\n3\n0 1e308 0\n\n3\n0 1e308 0\n",
    "later-unary": HEAD + "3\n1 0\n1 1\n1 1\n\n2\n1 2\n\n3\n-1e308 0 0\n\n3\n-1e308 0 0\n",
    "table-before-unary": HEAD + "4\n1 0\n1 0\n2 1 0\n2 0 1\n\n2\n1e308 0\n\n2\n1e308 0\n"
                                 "\n6\n0 0 0 0 0 1e308\n\n6\n0 0 0 0 0 1e308\n",
}


@pytest.mark.parametrize("text", SUM_OVERFLOW.values(), ids=SUM_OVERFLOW.keys())
def test_overflowing_sum_fails_as_reference(text):
    with np.errstate(over="ignore"), pytest.raises(ModelError) as ref:
        parse_uai_reference(text)
    with pytest.raises(ModelError) as got:
        uai.parse_uai(text)  # not the wrapper, whose PairwiseMRF rebuild would raise too
    assert type(got.value) is type(ref.value) is ModelError
    assert str(got.value) == str(ref.value)
