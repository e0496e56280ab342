import math
import time
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
    full_tree_capacity,
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

    def test_edge_pairs_are_admitted_only_where_the_kernel_serves_them(self):
        # the second pair's q ap and the third's q (1 - ap) and q/den(ap) are about 2**-1023: their
        # kernels would fail on first use, so construction refuses them, naming a and p
        big = 2**1023 - 1
        e = Exponents(Fraction(1, big), 1 + Fraction(1, big - 1))
        assert all(map(math.isfinite, (e.p_f, e.q_f, e.pm1_f, e.ap_f, e.q_f / e.ap.denominator)))
        assert math.isfinite(full_tree_capacity(e).value.log2)
        for a, p in [(Fraction(1, big), big), (Fraction(1, 2), 2 - Fraction(1, big // 2))]:
            with pytest.raises(DomainError, match=f"^a={a}, p={p} is past the kernel's double range"):
                Exponents(a, p)

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

    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "2.5E+04301", "1e4_301", "1e3000000", "1e" + "9" * 5000])
    def test_decimal_exponents_past_4300_fail_fast(self, text):
        # Fraction would spend seconds forming 10**exponent
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^decimal exponent past 4300 in magnitude"):
            as_fraction(text)
        assert time.perf_counter() - start < 1.0

    def test_literals_of_up_to_4300_digits_parse(self):
        assert as_fraction("1e4299") == 10 ** 4299
        assert as_fraction("-1e-4299") == Fraction(-1, 10 ** 4299)
        assert as_fraction("9" * 4300 + "/" + "7" * 4300) == Fraction(int("9" * 4300), int("7" * 4300))
        assert as_fraction("15e-1") == Fraction(3, 2)
        with pytest.raises(DomainError, match="malformed"):
            as_fraction("2e")

    @pytest.mark.parametrize("text", ["1e4300", "1e-4300", "12e4299", "-1e4300", "1.5e4300"])
    def test_literals_past_4300_digits_are_refused(self, text):
        # str() of the value, as the CLI's evidence prints it, would raise past 4300 digits
        with pytest.raises(DomainError, match=f"^a numerator or denominator past 4300 digits in .* '{text}'$"):
            as_fraction(text)

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
