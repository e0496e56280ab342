import functools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from operator import attrgetter

import mpmath
import pytest

from capatree import (
    DigitStream,
    DomainError,
    DyadicDensity,
    DyadicTangentPole,
    Exponents,
    circle_full_capacity,
    kernel_integral,
    membership_score,
    product_identity,
    riesz_potential,
    run_lengths,
)
from capatree import circle
from conftest import run_lengths_reference


class TestDigitStream:
    def test_one_third_alternates(self):
        s = DigitStream.from_rational("1/3")
        assert (s.preamble, s.cycle) == ((), (0, 1))  # 0, 1, 0, 1, ...
        assert not s.dyadic

    def test_dyadic_terminates(self):
        s = DigitStream.from_rational("7/16")
        assert s.dyadic
        assert (s.preamble, s.cycle) == ((0, 1, 1, 1), (0,))  # 0, 1, 1, 1, 0, 0, ...

    def test_zero_and_one_wrap(self):
        assert DigitStream.from_rational(Fraction(0)).dyadic
        assert DigitStream.from_rational(Fraction(1)) == DigitStream((), (0,))

    def test_fifth_period(self):
        s = DigitStream.from_rational("1/5")
        assert s.cycle == (0, 0, 1, 1)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            DigitStream.from_rational("3/2")

    def test_long_cycles_stop_at_the_digit_budget(self):
        # 2 has order 200002 mod the prime 200003: about three budgets of digits before the cycle ends
        assert circle._DIGIT_BUDGET < 200002 < 4 * circle._DIGIT_BUDGET
        start = time.process_time()
        with pytest.raises(DomainError, match="binary digits"):
            DigitStream.from_rational("1/200003")
        assert time.process_time() - start < 0.1
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="binary digits"):
                DigitStream.from_rational("1/200003")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_the_budget_admits_the_longest_stream_in_use(self):
        s = DigitStream.from_rational(Fraction(12345, 2**20 * 10069))
        assert len(s.preamble) == 20 and len(s.preamble) + len(s.cycle) <= circle._DIGIT_BUDGET
        assert len(DigitStream.from_rational(Fraction(1, 3 * 2**65000)).preamble) == 65000


class TestRunLengths:
    def test_alternating_stream_all_zero(self):
        s = DigitStream.from_rational("1/3")
        assert [rl.value for rl in run_lengths(s, 8)] == [0] * 8
        assert not any(rl.infinite for rl in run_lengths(s, 8))

    def test_dyadic_example(self):
        s = DigitStream.from_rational("7/16")
        rows = run_lengths(s, 7)
        assert rows[1].value == 2 and not rows[1].infinite  # run of three ones at n=2
        assert all(r.infinite for r in rows[4:])  # the all-zero tail from n=5

    def test_zero_is_all_infinite(self):
        s = DigitStream.from_rational(Fraction(0))
        assert all(r.infinite for r in run_lengths(s, 5))

    def test_run_lengths_inherit_periodicity(self):
        # for every non-dyadic rational with denominator <= 64 the s_n
        # sequence repeats with the digit period once past the preamble
        for den in range(3, 65):
            if den & (den - 1) == 0:
                continue
            for num in range(1, den):
                if math.gcd(num, den) != 1:
                    continue
                s = DigitStream.from_rational(Fraction(num, den))
                pre, period = len(s.preamble), len(s.cycle)
                rows = run_lengths(s, pre + 3 * period)
                values = [r.value for r in rows]
                for n in range(pre, pre + period):
                    assert values[n] == values[n + period]

    def test_matches_the_digit_by_digit_scan(self):
        # every num/den in [0, 1] with den < 200 at counts 1, 5, 17, 60 and 300, and
        # four long-period points (one with a 60-digit preamble) at 1 000, 5 000 and 10 000;
        # the reference's s_n does not depend on the count, so one scan serves every count
        points = [(Fraction(num, den), (1, 5, 17, 60, 300)) for den in range(1, 200) for num in range(den + 1)]
        long_period = (Fraction(1, 2**40 - 1), Fraction(1, 10067), Fraction(3, 7 * 2**60), Fraction(12345, 2**20 * 10069))
        points += [(x, (1_000, 5_000, 10_000)) for x in long_period]
        fields = attrgetter("n", "value", "infinite")
        cases = 0
        for x, counts in points:
            stream = DigitStream.from_rational(x)
            expected = run_lengths_reference(stream, max(counts))
            for count in counts:
                assert list(map(fields, run_lengths(stream, count))) == expected[:count], (x, count)
                cases += 1
        assert cases == 100_507

    def test_count_is_capped_at_ten_thousand(self):
        s = DigitStream.from_rational("1/5")
        assert len(run_lengths(s, 10_000)) == 10_000
        with pytest.raises(DomainError, match="10000"):
            run_lengths(s, 10_001)


@pytest.mark.parametrize("bad", [2.5, True, "3"])
@pytest.mark.parametrize(
    "call",
    [lambda n: run_lengths(DigitStream.from_rational("1/3"), n), lambda n: product_identity("1/3", n)],
    ids=["run_lengths", "product_identity"],
)
def test_counts_must_be_ints(call, bad):
    # a bool is not taken for 1, and a float or a string gets a DomainError, not a TypeError
    with pytest.raises(DomainError, match="int"):
        call(bad)


class TestMembershipScore:
    def test_alternating_scores_zero(self):
        assert membership_score(DigitStream.from_rational("1/3"), 24) == 0.0

    def test_dyadic_scores_infinity(self):
        assert membership_score(DigitStream.from_rational("1/2"), 4) == math.inf

    def test_fifth_scores_half(self):
        assert membership_score(DigitStream.from_rational("1/5"), 32) == 0.5

    def test_horizon_past_the_double_exponent_range(self):
        # s_n / 2**n for n >= 1024 underflows to 0 instead of overflowing 2**n
        assert membership_score(DigitStream.from_rational("1/5"), 1030) == 0.5
        assert membership_score(DigitStream.from_rational("1/3"), 1030) == 0.0


class TestProductIdentity:
    def test_one_third_hits_closed_form(self):
        lhs, rhs = product_identity("1/3", 40)
        assert rhs == pytest.approx(3.0, rel=1e-15)
        assert abs(lhs - 3.0) < 1e-9

    def test_one_fifth(self):
        lhs, rhs = product_identity("1/5", 40)
        assert rhs == pytest.approx((5 - math.sqrt(5)) / 2, rel=1e-14)
        assert abs(lhs - rhs) < 1e-6

    def test_dyadic_pole(self):
        with pytest.raises(DyadicTangentPole):
            product_identity("1/2", 10)
        with pytest.raises(DyadicTangentPole):
            product_identity("3/8", 10)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            product_identity("0", 10)
        with pytest.raises(DomainError):
            product_identity("1/3", 65)

    @pytest.mark.parametrize("bits", [1022, 1023, 1024, 1025, 1330])
    def test_a_denominator_past_1022_bits_fails_fast(self, bits):
        # pi * rem overflowed (OverflowError) or gave tan(inf) (ValueError) past 1022 bits
        den = (1 << bits - 1) + 1
        for x in (Fraction(1, den), Fraction((den - 1) // 2, den), Fraction(den - 2, den)):
            assert x.denominator.bit_length() == bits
            if bits == 1022:
                lhs, rhs = product_identity(x, 5)
                assert math.isfinite(lhs) and math.isfinite(rhs)
            else:
                with pytest.raises(DomainError, match="at most 1022 bits"):
                    product_identity(x, 5)

    def test_convergence_on_random_rationals(self):
        rng = random.Random(9)
        samples = []
        while len(samples) < 20:
            den = rng.randint(3, 10**4)
            if den & (den - 1) == 0:
                continue
            x = Fraction(rng.randint(1, den - 1), den)
            if x.denominator & (x.denominator - 1) == 0:
                continue
            samples.append(x)
        for x in samples:
            lhs48, rhs = product_identity(x, 48)
            assert abs(lhs48 - rhs) < 1e-5
            stream = DigitStream.from_rational(x)
            pre, period = len(stream.preamble), len(stream.cycle)
            start = pre + 1
            if start + 2 * period <= 64 and period > 0:
                # sampled one digit period apart the error is exactly geometric
                errs = [
                    abs(product_identity(x, start + k * period)[0] - rhs) for k in range(3)
                ]
                assert errs[0] >= errs[1] - 1e-15
                assert errs[1] >= errs[2] - 1e-15


class TestDyadicDensity:
    def test_validation(self):
        with pytest.raises(DomainError):
            DyadicDensity(1, (1.0,))
        with pytest.raises(DomainError):
            DyadicDensity(0, (-1.0,))

    @pytest.mark.parametrize("depth", [15_000, 10**8])
    def test_a_deep_depth_fails_without_forming_its_arc_count(self, depth):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"2\\*\\*{depth} arc values"):
                DyadicDensity(depth, [1.0, 2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "build", [lambda: DyadicDensity.constant(1.0, 70), lambda: DyadicDensity.indicator(0, 1, 70)],
        ids=["constant", "indicator"],
    )
    def test_builders_check_the_depth_before_they_build(self, build):
        # constant raised a bare OverflowError at depth 70, and indicator looped over 2**70 arcs
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(DomainError, match=r"depth in \[0, 20\], got 70"):
                build()
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 2**20

    @pytest.mark.parametrize("depth", [True, 2.0, "2"])
    def test_depth_must_be_an_int(self, depth):
        # True would be stored as the depth, with its 2**True = 2 arcs
        with pytest.raises(DomainError, match="int"):
            DyadicDensity(depth, [1.0] * 2 ** int(depth))


def reference_potential(f: DyadicDensity, y: float, a: Fraction):
    """The potential at 30 digits: F(s) = 2**(a-2)/pi B_{sin(pi s)**2}(a/2, 1/2) by mpmath's betainc."""
    with mpmath.workdps(30):
        a = mpmath.mpf(a.numerator) / a.denominator
        k = mpmath.gamma(a) / mpmath.gamma((a + 1) / 2) ** 2
        scale = mpmath.mpf(2) ** (a - 2) / mpmath.pi
        n = len(f.values)

        @functools.cache
        def antiderivative(j: int):  # F(t_j - y)
            s = mpmath.mpf(j) / n - mpmath.mpf(y)
            r = min(abs(s), 1 - abs(s))
            value = scale * mpmath.betainc(a / 2, 0.5, 0, mpmath.sin(mpmath.pi * r) ** 2)
            if abs(s) > 0.5:
                value = k - value
            return value if s >= 0 else -value

        arcs = [(j, v) for j, v in enumerate(f.values) if v]
        return sum(mpmath.mpf(v) * (antiderivative(j + 1) - antiderivative(j)) for j, v in arcs)


class TestRieszPotential:
    @pytest.mark.parametrize(
        "a", [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(9, 10), Fraction(99, 100)]
    )
    def test_matches_reference_on_random_densities(self, a):
        rng = random.Random(a.denominator * 100 + a.numerator)
        for _ in range(2):
            depth = rng.randint(0, 8)
            f = DyadicDensity(depth, [rng.random() for _ in range(2 ** depth)])
            for y in (rng.random(), 0.0, rng.randrange(2 ** depth) / 2 ** depth):
                expected = reference_potential(f, y, a)
                assert abs(riesz_potential(f, y, a) - expected) <= 1e-13 * expected

    def test_depth_ten_at_small_a(self):
        # each arc's difference of F loses about |remainder| / |dF| ulps; opposite y the
        # remainder from the anchor at 1/2 is as small as the arc's own integral
        a = Fraction(1, 100)
        rng = random.Random(10)
        cases = [
            (DyadicDensity(10, [rng.random() for _ in range(2 ** 10)]), rng.random(), 1e-12),
            (DyadicDensity.indicator(512, 513, 10), 0.0, 1e-14),
            (DyadicDensity.indicator(300, 301, 10), rng.random(), 1e-12),
        ]
        for f, y, bound in cases:
            expected = reference_potential(f, y, a)
            assert abs(riesz_potential(f, y, a) - expected) <= bound * expected

    def test_zero_density(self):
        f = DyadicDensity(2, (0.0, 0.0, 0.0, 0.0))
        for y in (0.0, 0.3, 0.77):
            assert riesz_potential(f, y, "1/2") == 0.0

    def test_constant_density_rotation_invariance(self):
        f = DyadicDensity.constant(0.7, depth=3)
        expected = 0.7 * kernel_integral("1/2")[0]
        values = [riesz_potential(f, (k + 0.381) / 9, "1/2") for k in range(9)]
        for v in values:
            assert v == pytest.approx(expected, rel=1e-8)
        assert max(values) - min(values) <= 1e-7 * expected

    def test_linearity_of_indicator_split(self):
        left = DyadicDensity.indicator(0, 1, 1)
        right = DyadicDensity.indicator(1, 2, 1)
        whole = DyadicDensity.constant(1.0, depth=1)
        for y in (0.05, 0.31, 0.5, 0.83):
            split_sum = riesz_potential(left, y, "1/3") + riesz_potential(right, y, "1/3")
            assert split_sum == pytest.approx(riesz_potential(whole, y, "1/3"), rel=1e-8)

    def test_exponent_validation(self):
        f = DyadicDensity.constant(1.0)
        with pytest.raises(DomainError):
            riesz_potential(f, 0.1, "3/2")
        with pytest.raises(DomainError):
            riesz_potential(f, 0.1, "1")

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_rejected(self, y):
        # nan % 1.0 is nan, so the potential would come out nan
        with pytest.raises(DomainError, match="finite y"):
            riesz_potential(DyadicDensity.constant(1.0), y, "1/2")


class TestCircleCapacity:
    @pytest.mark.parametrize("a", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_kernel_integral_matches_gamma_closed_form(self, a):
        # independent evaluation of the same integral through the beta function
        value, _ = kernel_integral(a)
        closed = math.gamma(float(a)) / math.gamma((float(a) + 1) / 2) ** 2
        assert value == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("y", [Fraction(0), Fraction(1, 3), Fraction(5, 7)])
    @pytest.mark.parametrize(
        "a", [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(9, 10), Fraction(99, 100)]
    )
    def test_kernel_integral_closed_form_matches_quadrature(self, a, y):
        # the unit density's potential is the kernel integral at every point
        value, err = kernel_integral(a)
        reference = riesz_potential(DyadicDensity.constant(1.0), y, a, rel_tol=1e-12)
        assert value == pytest.approx(reference, rel=1e-13)
        assert 0 < err <= 1e-13 * value
        exact = mpmath.gamma(mpmath.mpf(float(a))) / mpmath.gamma((mpmath.mpf(float(a)) + 1) / 2) ** 2
        assert abs(value - exact) <= err

    def test_capacity_value_linear_point(self):
        e = Exponents("1/2", 2)
        closed = (math.gamma(0.5) / math.gamma(0.75) ** 2) ** -2
        assert circle_full_capacity(e) == pytest.approx(closed, rel=1e-9)

    def test_capacity_near_a_equals_one(self):
        e = Exponents("255/256", "256/255")
        assert circle_full_capacity(e) == pytest.approx(1.0, rel=0.02)

    def test_capacity_monotone_in_a(self):
        assert circle_full_capacity(Exponents("1/4", 2)) < circle_full_capacity(Exponents("1/2", 2))

    def test_stable_under_tolerance_halving(self):
        e = Exponents("1/3", 3)
        v1 = circle_full_capacity(e, rel_tol=1e-10)
        v2 = circle_full_capacity(e, rel_tol=5e-11)
        assert abs(v1 - v2) / v1 < 1e-7
