from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from structhunt.exactmath import (RootVal, ceil_val, cmp_ge, floor_val, frac,
                                  ge_with_pow_slack, le_frac_pow, root4_val, sqrt_val)


class TestFrac:
    def test_string_accepted(self):
        assert frac("3/4") == Fraction(3, 4)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            frac(0.5)


class TestRootVal:
    def test_perfect_square_collapses(self):
        assert sqrt_val(Fraction(9, 4)) == Fraction(3, 2)

    def test_sqrt2_comparisons(self):
        r = sqrt_val(2)
        assert r > Fraction(7, 5)
        assert r < Fraction(3, 2)
        assert not (r == Fraction(141421356, 100000000))

    def test_scaled_comparison(self):
        # 33 >= sqrt(1089) * 1 exactly (equality)
        assert sqrt_val(1089) * 1 <= 33
        assert sqrt_val(1089) >= 33

    def test_fourth_root(self):
        r = root4_val(16)
        assert r == 2
        r = root4_val(5)
        assert Fraction(7, 5) < r < Fraction(3, 2)

    def test_sqrt_of_degree1(self):
        assert RootVal(1100).sqrt() > 33
        assert RootVal(1100).sqrt() < 34

    def test_sqrt_of_sqrt_gives_fourth_root(self):
        r = sqrt_val(5).sqrt()
        assert r.degree == 4
        assert r * r * r * r == 5

    def test_mixed_degree_comparison(self):
        assert sqrt_val(2) > root4_val(2)
        assert root4_val(16) == sqrt_val(4)

    def test_reflected_int_comparisons(self):
        assert 3 > sqrt_val(8)
        assert 2 < sqrt_val(5)

    @given(st.integers(0, 10**4), st.integers(1, 10**2))
    @settings(max_examples=100, deadline=None)
    def test_square_consistency(self, a, b):
        q = Fraction(a, b)
        r = sqrt_val(q)
        assert r * r == q


class TestPowSlack:
    def test_le_frac_pow_basic(self):
        # 3 <= 4^(9/10)? 4^0.9 ~ 3.48 -> yes; 4 <= 4^(9/10) -> no
        assert le_frac_pow(3, 4, 9, 10)
        assert not le_frac_pow(4, 4, 9, 10)

    def test_nonpositive_diff_trivial(self):
        assert le_frac_pow(-5, 2, 9, 10)
        assert le_frac_pow(0, 2, 9, 10)

    def test_ge_with_pow_slack(self):
        # measured 10 >= wanted 70 - 100^0.9 (~63.1): 10 >= 6.9 -> True
        assert ge_with_pow_slack(10, 70, 100, 9, 10)
        # measured 5 >= 70 - 63.1 -> False
        assert not ge_with_pow_slack(5, 70, 100, 9, 10)

    def test_scaled_slack(self):
        # shortfall 4 vs (1/2) * 100^0.9 ~ 31.5 -> pass
        assert ge_with_pow_slack(0, 4, 100, 9, 10, slack_scale=Fraction(1, 2))
        # shortfall 40 vs 31.5 -> fail
        assert not ge_with_pow_slack(0, 40, 100, 9, 10, slack_scale=Fraction(1, 2))


class TestFloorVal:
    @given(st.integers(0, 60), st.integers(1, 12), st.integers(0, 99),
           st.sampled_from([1, 2, 4]))
    @settings(max_examples=200, deadline=None)
    def test_root_between_floor_and_next(self, p, q, x, r):
        val = RootVal(Fraction(p, q), x, r)
        f = floor_val(val)
        assert not val < f and val < f + 1

    @pytest.mark.parametrize("x, f", [(Fraction(5, 2), 2), (3, 3), (Fraction(-1, 2), -1),
                                      (Fraction(-4, 2), -2), ("7/3", 2)])
    def test_rational(self, x, f):
        assert floor_val(x) == f


class TestCeilVal:
    """ceil_val(x) is the least integer c with cmp_ge(c, x)."""

    @staticmethod
    def _least(x, c):
        return cmp_ge(c, x) and not cmp_ge(c - 1, x)

    @given(st.integers(-60, 60), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_rational(self, p, q):
        assert self._least(Fraction(p, q), ceil_val(Fraction(p, q)))

    @pytest.mark.parametrize("x, c", [(Fraction(5, 2), 3), (3, 3), (Fraction(-1, 2), 0),
                                      (Fraction(-4, 2), -2), (Fraction(-5, 2), -2),
                                      ("7/3", 3), (0, 0)])
    def test_rational_values(self, x, c):
        assert ceil_val(x) == c

    @given(st.integers(0, 60), st.integers(1, 12), st.integers(0, 99),
           st.sampled_from([1, 2, 4]))
    @settings(max_examples=200, deadline=None)
    def test_root(self, p, q, x, r):
        val = RootVal(Fraction(p, q), x, r)
        assert self._least(val, ceil_val(val))

    @pytest.mark.parametrize("val, c", [(sqrt_val(16), 4), (sqrt_val(17), 5),
                                        (root4_val(16), 2), (root4_val(17), 3),
                                        (RootVal(3, 4, 2), 6), (RootVal(1, 0, 4), 0)])
    def test_root_values(self, val, c):
        assert ceil_val(val) == c
