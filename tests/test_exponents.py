import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from capatree import (
    ApBranch,
    DomainError,
    Exponents,
    LogValue,
    as_fraction,
    conjugate,
    rel_error,
)


class TestConjugate:
    @pytest.mark.parametrize(
        "p,expected",
        [(Fraction(2), Fraction(2)), (Fraction(3), Fraction(3, 2)), (Fraction(4, 3), Fraction(4))],
    )
    def test_values(self, p, expected):
        assert conjugate(p) == expected

    def test_involution(self):
        for p in (Fraction(5, 4), Fraction(7, 2), Fraction(101, 100)):
            assert conjugate(conjugate(p)) == p

    @pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-3)])
    def test_rejects_p_at_most_one(self, p):
        with pytest.raises(DomainError):
            conjugate(p)


class TestExponents:
    def test_conjugate_identity_exact(self):
        e = Exponents("1/3", "7/4")
        assert (e.p - 1) * (e.p_prime - 1) == 1

    def test_critical_branch_is_exact(self):
        assert Exponents("1/2", 2).branch is ApBranch.CRITICAL
        assert Exponents("1/3", 3).branch is ApBranch.CRITICAL
        assert Exponents("100/201", "201/100").is_critical

    def test_subcritical(self):
        assert Exponents("1/4", 2).branch is ApBranch.SUBCRITICAL

    def test_rejects_ap_above_one(self):
        with pytest.raises(DomainError):
            Exponents("3/4", 2)

    @pytest.mark.parametrize("a, p, message", [(0, 2, "a > 0"), ("-1/2", 2, "a > 0"), ("1/2", 1, "p > 1"),
                                               ("1/2", "1/2", "p > 1")])
    def test_rejects_a_at_most_zero_and_p_at_most_one(self, a, p, message):
        with pytest.raises(DomainError, match=message):
            Exponents(a, p)

    @pytest.mark.parametrize("a, p", [("1/2", "1." + "0" * 400 + "1"), ("1e-400", "1e400"), ("1e-400", 2),
                                      (Fraction(1, 2**1024), 2**1023 + 1), (Fraction(1, 2**1024), 2)])
    def test_rejects_pairs_past_the_double_range(self, a, p):
        # 1/(p-1), p and 1/(a*p)'s denominator would not fit a float; none is converted to find out
        with pytest.raises(DomainError, match="double range"):
            Exponents(a, p)

    def test_accepts_pairs_at_the_edge_of_the_double_range(self):
        big = 2**1023 - 1
        pairs = [(Fraction(1, big), 1 + Fraction(1, big - 1)), (Fraction(1, big), big),
                 (Fraction(1, 2), 2 - Fraction(1, big // 2))]
        for a, p in pairs:
            e = Exponents(a, p)
            assert all(map(math.isfinite, (e.p_f, e.q_f, e.pm1_f, e.ap_f, e.q_f / e.ap.denominator)))

    @given(
        num=st.integers(min_value=1, max_value=10**6),
        den=st.integers(min_value=1, max_value=10**6),
        sign=st.sampled_from([-1, 1]),
    )
    def test_perturbing_a_never_stays_critical(self, num, den, sign):
        # a = 1/p +- eps either flips the branch or is rejected outright
        p = Fraction(2)
        eps = sign * Fraction(num, den * 10**7)
        a = 1 / p + eps
        if a <= 0 or a * p > 1:
            with pytest.raises(DomainError):
                Exponents(a, p)
        else:
            assert not Exponents(a, p).is_critical

    def test_rational_literals(self):
        assert as_fraction("1/2") == Fraction(1, 2)
        assert as_fraction("3") == Fraction(3)
        with pytest.raises(DomainError):
            as_fraction("one half")
        with pytest.raises(DomainError):
            as_fraction("1/0")

    @pytest.mark.parametrize("value", [True, False])
    def test_bools_are_not_rationals(self, value):
        with pytest.raises(DomainError):
            as_fraction(value)
        with pytest.raises(DomainError):
            Exponents(value, 2)


class TestLogValue:
    def test_doubling(self):
        v = LogValue.from_log2(10.0)
        assert (v + v).log2 == pytest.approx(11.0, abs=1e-14)

    def test_huge_product_exponent_addition(self):
        v = LogValue.from_log2(1000.0)
        out = v * v
        assert out.log2 == 2000.0  # overflows naive linear doubles

    def test_additive_identity(self):
        one = LogValue.one()
        assert (one + LogValue.zero()).log2 == 0.0
        assert (LogValue.zero() + one).log2 == 0.0

    def test_zero_absorbs_in_products(self):
        assert (LogValue.zero() * LogValue.from_log2(5.0)).is_zero

    def test_ordering_matches_linear_scale(self):
        values = [LogValue.zero(), LogValue.from_log2(-2.0), LogValue.one(), LogValue.from_log2(math.log2(7))]
        floats = [v.to_float() for v in values]
        assert sorted(floats) == floats
        assert values == sorted(values)

    @given(
        a=st.floats(min_value=-50, max_value=50),
        b=st.floats(min_value=-50, max_value=50),
    )
    @example(a=math.log2(3.0), b=math.log2(5.0))
    def test_add_mul_match_linear_arithmetic(self, a, b):
        u, v = LogValue.from_log2(a), LogValue.from_log2(b)
        lin_add = 2.0**a + 2.0**b
        lin_mul = 2.0**a * 2.0**b
        assert rel_error(u + v, LogValue.from_log2(math.log2(lin_add))) <= 1e-12
        assert rel_error(u * v, LogValue.from_log2(math.log2(lin_mul))) <= 1e-12

    @given(
        a=st.floats(min_value=-50, max_value=50),
        b=st.floats(min_value=-50, max_value=50),
        c=st.floats(min_value=-50, max_value=50),
    )
    def test_add_commutative_associative(self, a, b, c):
        u, v, w = (LogValue.from_log2(x) for x in (a, b, c))
        assert abs((u + v).log2 - (v + u).log2) <= 1e-12 * max(1.0, abs((u + v).log2))
        left = (u + v) + w
        right = u + (v + w)
        assert abs(left.log2 - right.log2) <= 1e-12 * max(1.0, abs(left.log2))

    def test_to_float_round_trip(self):
        # round-trip error grows like |log2| * eps, so loosen at the extremes
        for x in (0.1, 1.0, 3.5):
            assert LogValue.from_log2(math.log2(x)).to_float() == pytest.approx(x, rel=1e-14)
        for x in (1e-300, 1e300):
            assert LogValue.from_log2(math.log2(x)).to_float() == pytest.approx(x, rel=1e-12)
        assert LogValue.zero().to_float() == 0.0

    @pytest.mark.parametrize("log2", [math.nan, math.inf, -math.inf])
    def test_from_log2_rejects_non_finite(self, log2):
        with pytest.raises(DomainError):
            LogValue.from_log2(log2)

    def test_from_fraction_handles_big_integers(self):
        v = LogValue.from_fraction(Fraction(2**4000, 3))
        assert v.log2 == pytest.approx(4000 - math.log2(3), rel=1e-15)

    def test_from_fraction_of_zero_and_negative(self):
        assert LogValue.from_fraction(Fraction(0)).is_zero
        with pytest.raises(DomainError, match="nonnegative"):
            LogValue.from_fraction(Fraction(-1))

    def test_to_float_saturates_past_the_double_range(self):
        assert LogValue.from_log2(2000.0).to_float() == math.inf
        assert LogValue.from_log2(-2000.0).to_float() == 0.0


class TestRelError:
    def test_zero_against_zero_and_against_one(self):
        assert rel_error(LogValue.zero(), LogValue.zero()) == 0.0
        assert rel_error(LogValue.zero(), LogValue.one()) == math.inf
        assert rel_error(LogValue.one(), LogValue.zero()) == math.inf

    def test_logs_more_than_sixty_apart(self):
        assert rel_error(LogValue.from_log2(61.0), LogValue.one()) == math.inf
        assert rel_error(LogValue.from_log2(-61.0), LogValue.one()) == math.inf
        assert rel_error(LogValue.from_log2(60.0), LogValue.one()) == pytest.approx(2.0 ** 60, rel=1e-12)
