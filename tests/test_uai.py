import numpy as np
import pytest

from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from qpmap.model import PairwiseMRF
from qpmap.uai import UaiParseError, parse_uai, write_uai

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
