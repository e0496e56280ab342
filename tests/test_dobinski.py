import functools
import json
import math
import random
import re
import time
from fractions import Fraction

import mpmath
import pytest

import capatree.dobinski as dobinski

from capatree import (
    Custom,
    full_tree_capacity,
    DomainError,
    Exponents,
    Geometric,
    Growth,
    Linear,
    Outcome,
    Power,
    capacity_bounds,
    cap_component,
    classify,
    comparability_report,
    dimension_profile,
    dobinski_full,
    kappa_value,
    spec_from_json,
    spec_to_json,
)
from conftest import (
    coefficients_reference, comparability_reference, kappa_reference, ratio_reference, rel_diff, tail_sum_reference,
)

E_HALF_2 = Exponents("1/2", 2)
E_THIRD_3 = Exponents("1/3", 3)

RANK = {Outcome.ZERO: 0, Outcome.INDETERMINATE: 1, Outcome.POSITIVE: 2}


class TestKappaValue:
    def test_geometric_exact_ceiling(self):
        spec = Geometric(3)
        assert [kappa_value(spec, n) for n in range(1, 6)] == [1, 2, 3, 6, 11]

    def test_geometric_big_n_is_exact_integer(self):
        assert kappa_value(Geometric(1), 300) == 2 ** 300
        assert kappa_value(Geometric(7), 300) == -((-(2 ** 300)) // 7)

    def test_power_integer_exponent(self):
        spec = Power(Fraction(1, 2), Fraction(2))
        assert [kappa_value(spec, n) for n in range(1, 5)] == [1, 2, 5, 8]

    def test_power_fractional_exponent_uses_exact_roots(self):
        spec = Power(Fraction(1), Fraction(1, 2))  # ceil(sqrt(n))
        assert [kappa_value(spec, n) for n in (1, 2, 4, 5, 9, 10)] == [1, 2, 2, 3, 3, 4]

    @pytest.mark.parametrize("k", [2, 3, 7, 255, 256, 65280])
    def test_integer_roots_are_exact_around_perfect_powers(self, k):
        # the float start must stay at or above the root, or Newton returns a wrong one
        for r in (1, 2, 3, 10, 2 ** 20 + 7, 2 ** 53 - 1, 2 ** 61 + 3, 3 ** 40):
            if r.bit_length() * k > 300_000:
                continue
            for x in (r ** k - 1, r ** k, r ** k + 1):
                got = dobinski._iroot_floor(x, k)
                assert got ** k <= x < (got + 1) ** k, (r, x - r ** k)
        if k == 2:  # square roots of a million-bit integer: math.isqrt, exact at any size
            r = 7 ** 178_000 + 1
            assert r.bit_length() > 499_000
            assert [dobinski._iroot_floor(r * r + d, 2) for d in (-1, 0, 1)] == [r - 1, r, r]

    def test_growth_fractional_rate(self):
        spec = Growth(Fraction(1), Fraction(0), Fraction(1, 2))  # ceil(2**(n/2))
        assert [kappa_value(spec, n) for n in range(1, 6)] == [2, 2, 3, 4, 6]

    def test_custom_table_then_tail(self):
        spec = Custom(((1, 9), (3, 4)), Linear(Fraction(2)))
        assert [kappa_value(spec, n) for n in range(1, 5)] == [9, 4, 4, 8]

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("spec", [Geometric(1), Power(1, "-1/2"), Custom([(1, 4)], Linear(2))])
    def test_rejects_n_below_one(self, spec, n):
        # kappa_value is the one entry point that takes n from outside
        with pytest.raises(DomainError, match=f"got n={n}$"):
            kappa_value(spec, n)

    def test_refuses_kappa_past_a_million_bits_before_forming_it(self):
        spec = Growth(1, 0, 2 ** 16)  # log2 kappa_n = 2**16 n, exactly 2**20 at n = 16
        assert kappa_value(spec, 16) == 2 ** 2 ** 20
        start = time.perf_counter()
        for n in (17, 10 ** 6):  # kappa_(10**6) would have 65536 * 10**6 bits
            with pytest.raises(DomainError, match=rf"^kappa_n reaches 2\*\*.* for n in {n}\.\.{n}, "):
                kappa_value(spec, n)
        assert time.perf_counter() - start < 1.0
        # a table entry is returned as given, past the rule's limit too
        assert kappa_value(Custom([(10 ** 6, 3)], spec), 10 ** 6) == 3
        # with gamma = 0 an n past the double range is no obstacle
        assert kappa_value(Linear(1), 2 ** 1100) == 2 ** 1100

    def test_weighs_an_irrational_rule_by_its_root_index(self):
        # kappa_n = ceil(2**(1048577 n / 256)) is the 256-th root of an integer of about 2**20 n bits:
        # n = 2 took 0.65 s and n = 40 30 s, although B(n) < 2**20 up to n = 255
        spec = Growth(1, 0, Fraction(1048577, 256))
        start = time.perf_counter()
        for n in (1, 2, 40, 100):
            with pytest.raises(DomainError, match=rf"^kappa_n for n in {n}\.\.{n} is an integer root of a ratio "
                                                  r"of integers of .* bits, .* only from up to 2\*\*18 bits$"):
                kappa_value(spec, n)
        # the numerator and denominator of C count too: here B(1) is about 2**-133, a and b have 2**18 bits each
        with pytest.raises(DomainError, match="integer root"):
            kappa_value(Growth(Fraction(10 ** 40 + 1, 10 ** 40), Fraction(1, 255), Fraction(1, 256)), 1)
        assert time.perf_counter() - start < 1.0
        # just inside the limit: an L-th root of an integer of 2**18 - 4 bits, the slowest at L = 3
        spec = Growth(Fraction(2) ** (2 ** 18 // 3 - 2), Fraction(1, 3), 0)
        assert dobinski._Kappa(spec).root_bits(1) <= 2 ** 18
        assert kappa_value(spec, 1) == kappa_reference(spec, 1)
        # integer rules keep their limit on B alone
        spec = Growth(Fraction(10 ** 40 + 1, 10 ** 40), 255, 256)
        assert kappa_value(spec, 1) == kappa_reference(spec, 1)

    def test_always_at_least_one(self):
        spec = Power(Fraction(1, 1000), Fraction(1))
        assert kappa_value(spec, 1) == 1

    @pytest.mark.parametrize("spec, ns", [(Growth(3, 0, -1), range(1, 7)), (Power(5, -2), range(1, 6))])
    def test_a_shrinking_rule_is_one_where_its_bound_is_below_minus_one(self, spec, ns):
        # B(n) crosses -1 inside ns; below it the rule returns 1 and forms no integer
        kappa = dobinski._Kappa(spec)
        assert kappa.log2_bound(ns[-1]) < -1 <= kappa.log2_bound(ns[0])
        for n in ns:
            exact = spec.C * Fraction(n) ** int(spec.beta) * Fraction(2) ** int(spec.gamma * n)
            assert kappa_value(spec, n) == kappa.rule(n) == math.ceil(exact) == kappa_reference(spec, n), n

    def test_a_shrinking_rule_forms_no_integer_of_size_gamma_n_or_beta_log2_n(self):
        # the rule's integer branch built 2**(65536 n) or n**65536: 22 s for n up to 2000,
        # a MemoryError at n = 10**6
        start = time.perf_counter()
        assert kappa_value(Growth(1, 0, -65536), 10 ** 6) == 1
        assert list(dobinski._Kappa(Growth(1, -65536, 0)).values(range(1, 10_001))) == [1] * 10_000
        report = comparability_report(E_HALF_2, (1, 10_000), Growth(1, -65536, 0))
        assert [row["kappa"] for row in report["rows"]] == [1] * 10_000
        lower, upper = capacity_bounds(Growth(1, 0, -65536), E_HALF_2, 10_000)
        assert lower.value == max(cap_component(n, 1, E_HALF_2).value for n in range(1, 10_001)) and upper is None
        assert time.perf_counter() - start < 5.0

    def test_bounds_read_infinite_past_the_double_range(self):
        # gamma n past the double range: B and the root's bits read +-inf, so the
        # rule is refused before it is formed or, for gamma < 0, is 1
        assert dobinski._Kappa(Growth(1, 0, -1)).log2_bound(2 ** 2000) == -math.inf
        assert dobinski._Kappa(Growth(1, 0, "1/2")).root_bits(2 ** 2000) == math.inf
        assert kappa_value(Growth(1, 0, -1), 2 ** 2000) == 1
        for spec in (Growth(1, 0, 1), Growth(1, 0, "1/2")):
            with pytest.raises(DomainError, match=r"^kappa_n reaches 2\*\*inf for n in "):
                kappa_value(spec, 2 ** 2000)

    def test_matches_reference_on_random_families(self):
        rng = random.Random(20211026)

        def rational(lo, hi, dens):
            den = rng.choice(dens)
            return Fraction(rng.randint(lo * den, hi * den), den)

        for _ in range(150):
            C = Fraction(rng.randint(1, 40), rng.randint(1, 12))
            spec = Growth(C, rational(-3, 3, (1, 1, 2, 3)), rational(-2, 2, (1, 1, 2, 3, 4)))
            if rng.random() < 0.2:
                table = tuple((n, rng.randint(1, 9)) for n in rng.sample(range(1, 61), 3))
                spec = Custom(table, spec)
            for n in range(1, 62):
                assert kappa_value(spec, n) == kappa_reference(spec, n), (spec, n)
        # integer roots of large index at large n: L = lcm(7 or 3, 11 or 7 or 1)
        for beta in (Fraction(1, 7), Fraction(-5, 3)):
            for gamma in (Fraction(3, 11), Fraction(-2, 7)):
                for _ in range(3):
                    spec = Growth(Fraction(rng.randint(1, 40), rng.randint(1, 12)), beta, gamma)
                    for n in rng.sample(range(1, 2001), 12) + [1999, 2000]:
                        assert kappa_value(spec, n) == kappa_reference(spec, n), (spec, n)

    @pytest.mark.parametrize(
        "spec",
        [
            Geometric(1), Linear(Fraction(7, 3)), Power(Fraction(1, 3), -2), Power(2, Fraction(1, 2)),
            Growth(Fraction(5, 7), 3, -1), Growth(Fraction(9, 2), -2, -3), Growth(2, Fraction(-1, 2), Fraction(1, 4)),
            Growth(1, Fraction(-5, 3), Fraction(-2, 7)), Custom([(1, 3)], Growth(1, Fraction(-3, 2), Fraction(3, 2))),
            Custom([(2, 5), (9, 1)], Custom([(2, 7), (3, 4)], Geometric(2))),
        ],
    )
    def test_range_lookup_is_the_per_n_lookup(self, spec):
        kappa = dobinski._Kappa(spec)
        for ns in (range(1, 301), range(1990, 2011), [7, 3, 3, 1000, 2]):
            assert list(kappa.values(ns)) == [kappa.lookup(n) for n in ns], ns

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 1000])
    def test_geometric_range_lookup_is_exact_to_ten_thousand(self, m):
        kappa, ns = dobinski._Kappa(Geometric(m)), range(1, 10_001)
        assert list(kappa.values(ns)) == [kappa.lookup(n) for n in ns] == [-(-(2 ** n) // m) for n in ns]

    def test_nested_custom_tables(self):
        inner = Custom(((2, 7), (3, 8)), Linear(Fraction(1)))
        spec = Custom(((3, 5),), inner)
        assert [kappa_value(spec, n) for n in range(1, 5)] == [1, 7, 5, 4]
        assert [kappa_value(spec, n) for n in range(1, 5)] == [kappa_reference(spec, n) for n in range(1, 5)]


class TestFamilyValidation:
    def test_geometric_m_positive_integer(self):
        with pytest.raises(DomainError):
            Geometric(0)
        with pytest.raises(DomainError):
            Geometric(True)

    def test_named_families_are_growths_with_their_normalized_rule(self):
        for spec, rule in ((Geometric(4), Growth("1/4", 0, 1)), (Power("3/2", "1/2"), Growth("3/2", "1/2", 0)),
                           (Linear(5), Growth(5, 1, 0))):
            assert isinstance(spec, Growth)
            assert (spec.C, spec.beta, spec.gamma) == (rule.C, rule.beta, rule.gamma)
            assert spec != rule

    @pytest.mark.parametrize("tail_rule", [5, "geometric", {"family": "geometric", "m": 1}, ((1, 2),)])
    def test_custom_tail_rule_must_be_a_family(self, tail_rule):
        with pytest.raises(DomainError, match=f"tail rule, got {re.escape(repr(tail_rule))}"):
            Custom(((1, 2),), tail_rule)

    def test_custom_tail_rule_none_keeps_its_message(self):
        with pytest.raises(DomainError, match="^custom family requires an explicit tail rule$"):
            Custom(((1, 2),), None)

    def test_bools_are_not_rationals(self):
        with pytest.raises(DomainError):
            Linear(True)
        with pytest.raises(DomainError):
            Power(1, False)

    def test_custom_requires_tail_rule(self):
        with pytest.raises(DomainError):
            Custom(((1, 1),), None)

    def test_custom_table_entries_positive(self):
        with pytest.raises(DomainError):
            Custom(((0, 1),), Geometric(1))
        with pytest.raises(DomainError):
            Custom(((1, 0),), Geometric(1))

    @pytest.mark.parametrize(
        "table",
        [
            ((2.5, 3), (2, 4)),  # would truncate onto n = 2
            ((2, 3.5),),
            ((True, 3),),
            ((2, False),),
            (("2", 3),),
            ((Fraction(5, 2), 3),),
            ((2.0, 3), (2, 4)),  # a duplicate once 2.0 is normalised
            ((2, 3, 4),),
            (2, 3),
            5,
        ],
    )
    def test_custom_table_entries_integral_pairs(self, table):
        with pytest.raises(DomainError):
            Custom(table, Power(1, 1))

    def test_custom_table_normalises_integral_values(self):
        spec = Custom([[2.0, Fraction(4)], (3, 5)], Power(1, 1))
        assert spec.table == ((2, 4), (3, 5))
        assert all(type(x) is int for entry in spec.table for x in entry)
        assert [kappa_value(spec, n) for n in (1, 2, 3)] == [1, 4, 5]

    def test_positive_coefficients(self):
        with pytest.raises(DomainError):
            Linear(Fraction(-1))

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: Power(1, 10**400), "beta"),
            (lambda: Power(1, 10**6), "beta"),
            (lambda: Power(1, -(2**16) - 1), "beta"),
            (lambda: Power(1, Fraction(1, 257)), "beta"),
            (lambda: Growth(1, 2**16 + 1, 0), "beta"),
            (lambda: Growth(1, 0, 2**16 + 1), "gamma"),
            (lambda: Growth(1, 0, Fraction(-1, 257)), "gamma"),
            (lambda: Custom(((1, 2),), Power(1, "1e400")), "beta"),
        ],
    )
    def test_huge_exponents_are_rejected_at_construction(self, make, field):
        # kappa_n = ceil(n**beta ...) is an exact integer: beta = 10**400 ran without end
        with pytest.raises(DomainError, match=f"{field}="):
            make()

    def test_exponents_at_the_limits_are_accepted(self):
        for beta in (2**16, -(2**16), Fraction(1, 2**8)):
            assert Power(1, beta).beta == beta
            assert Growth(1, beta, beta).gamma == beta
        assert kappa_value(Power(1, 2**16), 2) == 2 ** (2**16)


class TestClassify:
    def test_geometric_critical_linear_case(self):
        verdict = classify(Geometric(3), E_HALF_2)
        assert verdict.outcome is Outcome.POSITIVE
        assert verdict.condition == "(i)"

    def test_geometric_critical_nonlinear_case(self):
        verdict = classify(Geometric(3), E_THIRD_3)
        assert verdict.outcome is Outcome.ZERO
        assert verdict.condition == "(ii)"

    def test_gap_between_conditions(self):
        # kappa_n = n * 2**n at the linear critical point: the limsup
        # statistic decays like 1/n, whose series still diverges
        spec = Custom(((1, 2),), Growth(Fraction(1), Fraction(1), Fraction(1)))
        verdict = classify(spec, E_HALF_2)
        assert verdict.outcome is Outcome.INDETERMINATE
        assert verdict.condition is None

    def test_critical_balanced_with_summable_polynomial(self):
        # kappa_n = n**2 * 2**n at p = 2: statistic ~ 1/n**2, summable
        spec = Growth(Fraction(1), Fraction(2), Fraction(1))
        verdict = classify(spec, E_HALF_2)
        assert verdict.outcome is Outcome.ZERO
        assert verdict.condition == "(ii)"

    def test_critical_balanced_with_decaying_polynomial(self):
        # kappa_n = 2**n / n at p = 2: the statistic grows like n
        verdict = classify(Growth(1, -1, 1), E_HALF_2)
        assert (verdict.outcome, verdict.condition) == (Outcome.POSITIVE, "(i)")
        assert verdict.evidence["limsup"] == "+inf"

    def test_polynomial_families_are_positive_critical(self):
        for spec in (Linear(Fraction(5)), Power(Fraction(3), Fraction(4))):
            assert classify(spec, E_THIRD_3).outcome is Outcome.POSITIVE

    def test_subcritical_linear_threshold(self):
        spec = Linear(Fraction(1))  # kappa_n = n
        # slope of the exponent is ap - (1 - ap): positive iff ap > 1/2
        assert classify(spec, Exponents("3/10", 2)).outcome is Outcome.POSITIVE  # ap = 3/5
        at_balance = classify(spec, Exponents("1/4", 2))  # ap = 1/2 exactly
        assert at_balance.outcome is Outcome.POSITIVE
        assert at_balance.condition == "(a)"
        below = classify(spec, Exponents("1/5", 2))  # ap = 2/5
        assert below.outcome is Outcome.ZERO
        assert below.condition == "(b)"

    def test_subcritical_geometric_is_zero(self):
        verdict = classify(Geometric(4), Exponents("49/100", 2))
        assert verdict.outcome is Outcome.ZERO
        assert verdict.condition == "(b)"

    def test_constant_run_lengths_positive_everywhere(self):
        spec = Power(Fraction(1), Fraction(0))  # kappa_n = 1
        for e in (E_HALF_2, E_THIRD_3, Exponents("1/4", 2), Exponents("1/9", 3)):
            assert classify(spec, e).outcome is Outcome.POSITIVE

    def test_monotone_in_kappa(self):
        # pointwise larger run lengths can only push the verdict toward zero
        ladder = [
            Power(Fraction(1), Fraction(0)),
            Linear(Fraction(2)),
            Power(Fraction(2), Fraction(3)),
            Growth(Fraction(2), Fraction(3), Fraction(1)),
            Growth(Fraction(2), Fraction(3), Fraction(2)),
            Growth(Fraction(4), Fraction(4), Fraction(2)),
        ]
        for lo, hi in zip(ladder, ladder[1:]):
            assert all(kappa_value(lo, n) <= kappa_value(hi, n) for n in range(1, 60))
        grid = [E_HALF_2, E_THIRD_3, Exponents("1/4", 2), Exponents("1/8", "3/2")]
        for e in grid:
            ranks = [RANK[classify(spec, e).outcome] for spec in ladder]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_evidence_has_trace(self):
        verdict = classify(Geometric(2), E_HALF_2)
        assert len(verdict.evidence["trace"]) > 0
        assert verdict.to_json()["outcome"] == "Positive"

    def test_trace_exponent_past_the_double_range_is_none(self):
        # kappa_16 = 2**1040 puts (16 - kappa_16)/2 past the double range, but the verdict is symbolic
        e = Exponents("1/4", 2)
        verdict = classify(Growth(1, 0, 65), e)
        assert verdict.outcome is Outcome.ZERO
        rows = verdict.evidence["trace"]
        assert rows[-1] == {"n": 16, "exponent": None}
        assert [row["exponent"] for row in rows[:15]] == [(n - 2 ** (65 * n)) / 2 for n in range(1, 16)]

    @pytest.mark.parametrize(
        "spec",
        [Growth(1, 0, 64), Growth(1, 0, 65), Growth(1, 0, 69), Growth(1, 0, 70), Growth(Fraction(1, 3), -3, 72),
         Growth(2 ** 70, "5/2", 63), Growth(1, "1/2", 70), Custom([(16, 5), (3, 2 ** 2000)], Growth(1, 0, 100))],
    )
    def test_null_trace_rows_are_decided_before_kappa_is_formed(self, spec):
        # rows far past the double range read null unformed; the rest match the kernel's statistic
        e = Exponents("1/4", 2)
        kappa, formed = dobinski._Kappa(spec), []
        lookup = kappa.lookup
        kappa.lookup = lambda n: formed.append(n) or lookup(n)
        rows = dobinski._trace(kappa, e)
        statistic = dobinski._kernel(e).statistic
        reference = dobinski._Kappa(spec)
        assert rows == [{"n": n, "exponent": statistic(n, reference.lookup(n))} for n in range(1, 17)]
        # the limit is log2 v + 1024 + 64 = 1089, and no log2 kappa_n here is less than a unit from it
        assert formed == [n for n in range(1, 17) if n in reference.table or reference.lookup(n) <= 2 ** 1089]

    @pytest.mark.parametrize("e", [E_HALF_2, E_THIRD_3], ids=str)
    @pytest.mark.parametrize(
        "spec", [Growth(1, 0, 69), Growth(1, 0, 65536), Growth(1, "1/2", "65535/2"), Growth(1, "65535/256", 257),
                 Growth(Fraction(2 ** 4000, 3), 0, 0)],
        ids=lambda spec: repr(spec)[:80],
    )
    def test_critical_rows_past_the_limit_are_read_from_the_bound(self, spec, e):
        # a critical row with B = log2 C + beta log2 n + gamma n > 1088 reads n - (p-1) B, kappa_n unformed
        kappa, formed = dobinski._Kappa(spec), []
        lookup = kappa.lookup
        kappa.lookup = lambda n: formed.append(n) or lookup(n)
        rows = dobinski._trace(kappa, e)
        statistic = dobinski._kernel(e).statistic
        log2_c = math.log2(kappa.C.numerator) - math.log2(kappa.C.denominator)  # exact for integers of any size
        bounds = {n: log2_c + float(kappa.beta) * math.log2(n) + float(kappa.gamma) * n for n in range(1, 17)}
        expected = [n - e.pm1_f * bounds[n] if bounds[n] > 1088 else statistic(n, lookup(n)) for n in range(1, 17)]
        assert formed == [n for n in range(1, 17) if bounds[n] <= 1088]
        assert [row["n"] for row in rows] == list(range(1, 17))
        assert [row["log2_stat"].hex() for row in rows] == [value.hex() for value in expected]

    def test_trace_exponent_is_the_exact_quotient_rounded_once(self):
        # kappa_16 = 2**1024 has no float, but (16 - 2**1024)/2 has one
        rows = classify(Growth(1, 0, 64), Exponents("1/4", 2)).evidence["trace"]
        assert rows[-1] == {"n": 16, "exponent": (16 - 2 ** 1024) / 2}
        e = Exponents("1/7", "5/3")  # ap = 5/21
        rows = classify(Linear(Fraction(7, 3)), e).evidence["trace"]
        expected = [float(Fraction(5, 21) * n - Fraction(16, 21) * math.ceil(Fraction(7, 3) * n)) for n in range(1, 17)]
        assert [row["exponent"] for row in rows] == expected


class TestDobinskiFull:
    def test_linear_critical_point(self):
        assert dobinski_full(E_HALF_2).outcome is Outcome.POSITIVE

    def test_nonlinear_critical_point(self):
        assert dobinski_full(E_THIRD_3).outcome is Outcome.ZERO

    def test_subcritical_is_zero(self):
        assert dobinski_full(Exponents("49/100", 2)).outcome is Outcome.ZERO

    def test_jump_on_rational_grid(self):
        for k in range(1, 11):
            p = Fraction(1) + Fraction(k, 10)
            assert dobinski_full(Exponents(1 / p, p)).outcome is Outcome.POSITIVE
        for k in range(1, 11):
            p = Fraction(2) + Fraction(3 * k, 10)
            assert dobinski_full(Exponents(1 / p, p)).outcome is Outcome.ZERO

    def test_component_families_share_the_jump(self):
        # each geometric component flips at p = 2 along a = 1/p, for every m
        for m in (1, 2, 7):
            for k in range(1, 11):
                p = Fraction(1) + Fraction(k, 10)
                assert classify(Geometric(m), Exponents(1 / p, p)).outcome is Outcome.POSITIVE
                p = Fraction(2) + Fraction(3 * k, 10)
                assert classify(Geometric(m), Exponents(1 / p, p)).outcome is Outcome.ZERO


class TestCapacityBounds:
    def test_lower_bound_constant_family(self):
        lower, upper = capacity_bounds(Geometric(1), E_HALF_2, 30)
        assert rel_diff(lower.value, Fraction(1, 3)) <= 1e-12
        assert upper is None  # every tail sum of constant 1/3 terms diverges

    def test_upper_bound_decaying_family(self):
        lower10, upper10 = capacity_bounds(Geometric(1), E_THIRD_3, 10)
        lower20, upper20 = capacity_bounds(Geometric(1), E_THIRD_3, 20)
        assert upper10 is not None and upper20 is not None
        assert upper20.value < upper10.value  # tails shrink as the start moves out
        assert upper10.value.log2 < -5  # comfortably below any positive constant

    def test_single_term_window(self):
        spec = Linear(Fraction(2))
        lower, _ = capacity_bounds(spec, E_HALF_2, 1)
        assert rel_diff(lower.value, cap_component(1, kappa_value(spec, 1), E_HALF_2).value) == 0

    def test_rejects_bad_window(self):
        with pytest.raises(DomainError):
            capacity_bounds(Geometric(1), E_HALF_2, 0)

    def test_rejects_kappa_past_a_million_bits_at_once(self):
        spec = Growth(1, 0, 2**16)  # log2 kappa_16 = 2**20
        assert capacity_bounds(spec, E_HALF_2, 16)[1] is not None
        with pytest.raises(DomainError, match=r"^kappa_n reaches 2\*\*1\.11411e\+06 for n in 1\.\.17"):
            capacity_bounds(spec, E_HALF_2, 17)

    def test_tail_window_stops_before_a_kappa_past_the_limit(self, monkeypatch):
        # n_max = 255 checks B(n) = 4096 n <= 2**20 for n <= 255, and the window would run to n = 510;
        # at ap = 1 the remainder forms no kappa_n, so the window stops after n = 256 with a finite bound
        p = 1 + Fraction(257, 2 ** 20)
        e, spec = Exponents(1 / p, p), Growth(1, 0, 4096)
        kernel, formed = dobinski._kernel(e), []

        class Recording:
            def __getattr__(self, name):
                return getattr(kernel, name)

            def log2_cap(self, n, kappa):
                formed.append(kappa.bit_length())
                return kernel.log2_cap(n, kappa)
        monkeypatch.setattr(dobinski, "_kernel", lambda _: Recording())
        lower, upper = capacity_bounds(spec, e, 255)
        assert max(formed) == 2 ** 20 + 1  # kappa_256 = 2**(2**20)
        assert upper is not None and upper.value >= cap_component(255, 2 ** (4096 * 255), e).value

    def test_subcritical_remainder_forms_no_kappa_past_the_limit(self):
        # B(10) is about 1000, so f(10) is in the double range, but kappa_10 is the 65280-th root
        # of an integer of about 2**26 bits: the remainder has no closed form there and forms nothing
        e = Exponents("1/4", 2)
        start = time.perf_counter()
        assert dobinski._remainder(dobinski._Kappa(Growth(2 ** 1000, "1/255", "1/256")), e)(10) is None
        assert time.perf_counter() - start < 1.0
        assert dobinski._remainder(dobinski._Kappa(Growth(1, 0, "1/2")), e)(10) is not None

    def test_rejects_n_max_past_the_cap_at_once(self):
        # the lower bound loops over every n <= n_max, so a huge n_max would hang
        for n_max in (10_001, 10 ** 8):
            with pytest.raises(DomainError, match="n_max"):
                capacity_bounds(Geometric(1), E_THIRD_3, n_max)

    def test_accepts_n_max_at_the_cap(self):
        lower, upper = capacity_bounds(Geometric(1), E_THIRD_3, 10_000)
        assert lower.bound_kind.value == "lower" and upper is not None


# Zero families: (spec, exponents, n_max, whether the exact window closes
# before its term cap, so that the upper bound is tight)
ZERO_CASES = [
    # critical branch, geometric majorant
    (Geometric(1), E_THIRD_3, 10, True),
    (Geometric(2), Exponents("2/5", "5/2"), 12, True),
    (Geometric(3), Exponents("1/4", 4), 5, True),
    (Growth(Fraction(2), Fraction(-1), Fraction(2)), E_THIRD_3, 6, True),
    # critical branch, p-series majorant
    (Growth(Fraction(1), Fraction(2), Fraction(1)), E_HALF_2, 30, False),
    (Growth(Fraction(1), Fraction(1), Fraction(1, 2)), E_THIRD_3, 30, False),
    (Growth(Fraction(1), Fraction(3, 2), Fraction(1)), E_HALF_2, 30, False),
    # subcritical, linear run lengths
    (Linear(Fraction(1)), Exponents("1/5", 2), 10, True),
    (Linear(Fraction(3)), Exponents("1/4", 2), 7, True),
    # subcritical, superlinear and super-exponential run lengths
    (Geometric(3), Exponents("1/4", 2), 4, True),
    (Power(Fraction(1), Fraction(2)), Exponents("1/4", 2), 10, True),
    (Growth(Fraction(1), Fraction(1, 2), Fraction(1, 4)), Exponents("1/8", 2), 3, True),
    (Geometric(3), Exponents("1/4", 2), 30, False),  # log2 ~ -1.8e8: below float resolution
    (Growth(Fraction(3), Fraction(1), Fraction(1)), Exponents("1/4", 2), 40, False),
    # tables past n_max, one of them past the exact window
    (Custom(((31, 1), (35, 2), (40, 1)), Geometric(1)), E_THIRD_3, 30, True),
    (Custom(((500, 1),), Geometric(1)), E_THIRD_3, 10, True),
]

@functools.cache
def _reference(spec, e, n_max):
    return tail_sum_reference(spec, e, n_max)


class TestCertifiedUpperBound:
    @pytest.mark.parametrize("spec, e, n_max, tight", ZERO_CASES)
    def test_upper_bounds_the_tail_sum(self, spec, e, n_max, tight):
        assert classify(spec, e).outcome is Outcome.ZERO
        lower, upper = capacity_bounds(spec, e, n_max)
        assert upper is not None and upper.bound_kind.value == "upper"
        with mpmath.workdps(50):
            assert mpmath.log(_reference(spec, e, n_max), 2) <= mpmath.mpf(upper.value.log2)

    @pytest.mark.parametrize("spec, e, n_max", [c[:3] for c in ZERO_CASES if c[3]])
    def test_upper_is_tight_when_the_window_closes(self, spec, e, n_max):
        _, upper = capacity_bounds(spec, e, n_max)
        with mpmath.workdps(50):
            excess = mpmath.mpf(upper.value.log2) - mpmath.log(_reference(spec, e, n_max), 2)
        assert 0 <= excess <= mpmath.log(1 + mpmath.mpf("1e-6"), 2)

    @pytest.mark.parametrize(
        "spec, e",
        [
            (Geometric(1), E_HALF_2),
            (Power(Fraction(2), Fraction(1)), E_HALF_2),
            (Linear(Fraction(1)), E_THIRD_3),
            (Linear(Fraction(1)), Exponents("1/4", 2)),
            (Custom(((1, 2),), Growth(Fraction(1), Fraction(1), Fraction(1))), E_HALF_2),
            (Power(Fraction(1), Fraction(0)), E_THIRD_3),
        ],
    )
    def test_divergent_families_stop_at_the_verdict(self, spec, e, monkeypatch):
        # count the pair's evaluated components; monkeypatch restores the cached kernel's own log2_cap
        calls = []
        kernel = dobinski._kernel(e)
        log2_cap = kernel.log2_cap

        def counting_log2_cap(n, kappa):
            calls.append(n)
            return log2_cap(n, kappa)

        monkeypatch.setattr(kernel, "log2_cap", counting_log2_cap)
        n_max = 30
        assert classify(spec, e).outcome is not Outcome.ZERO
        lower, upper = capacity_bounds(spec, e, n_max)
        assert upper is None
        assert 0 < len(calls) <= n_max

    @pytest.mark.parametrize(
        "spec, e, starts",
        [
            (Growth(Fraction(1), Fraction(-3), Fraction(1)), Exponents("1/4", 4), (7, 10)),  # sigma < 0
            (Geometric(1), E_THIRD_3, (5,)),
            (Growth(Fraction(1), Fraction(3, 2), Fraction(1, 2)), E_THIRD_3, (2, 10)),  # p-series
            (Growth(Fraction(1), Fraction(2), Fraction(1)), E_HALF_2, (3,)),
            (Linear(Fraction(1)), Exponents("1/5", 2), (3,)),
            (Power(Fraction(1), Fraction(2)), Exponents("1/4", 2), (1, 2)),
            (Power(Fraction(1), Fraction(3, 2)), Exponents("3/8", 2), (9, 12)),
            (Growth(Fraction(1), Fraction(1, 2), Fraction(1, 4)), Exponents("1/8", 2), (4, 8)),
        ],
    )
    def test_remainder_bounds_its_majorant_tail(self, spec, e, starts):
        # sum_{n >= N} of the majorant, in floats over 20 000 terms: a lower
        # bound for the full majorant tail, which the closed form must exceed
        C, beta, gamma = map(float, coefficients_reference(spec))
        pm1, ap = float(e.p - 1), float(e.ap)
        log2_c = full_tree_capacity(e).value.log2

        def log2_majorant(n):
            if e.is_critical:
                return n - pm1 * (math.log2(C) + beta * math.log2(n) + gamma * n)
            return log2_c + ap * n - (1 - ap) * C * n ** beta * 2 ** (gamma * n)

        remainder = dobinski._remainder(dobinski._Kappa(spec), e)
        for N in starts:
            logs = []
            for n in range(N, N + 20_000):
                logs.append(log2_majorant(n))
                if logs[-1] < logs[0] - 2000:
                    break
            top = max(logs)
            total = top + math.log2(math.fsum(2.0 ** (x - top) for x in logs))
            rem = remainder(N)
            assert rem is not None and rem >= total - 1e-12, (N, rem, total)

    @pytest.mark.parametrize(
        "spec, e, n_max, none_at",
        [
            # critical: rho_N = 2**(-1/8) (1 + 1/N)**8 stays >= 1 up to N = 91
            (Growth(1, -8, Fraction(9, 8)), E_HALF_2, 10, range(1, 92)),
            # subcritical: g is convex only from 1/(2 gamma) = 4, and the increment is negative from 5
            (Growth(4, Fraction(1, 2), Fraction(1, 8)), Exponents("1/4", 2), 1, range(1, 5)),
        ],
        ids=["critical", "subcritical"],
    )
    def test_remainder_without_a_closed_form_yet_still_gives_an_upper(self, spec, e, n_max, none_at):
        remainder = dobinski._remainder(dobinski._Kappa(spec), e)
        assert [N for N in range(1, 200) if remainder(N) is None] == list(none_at)
        assert classify(spec, e).outcome is Outcome.ZERO
        _, upper = capacity_bounds(spec, e, n_max)
        assert upper is not None
        with mpmath.workdps(50):
            assert mpmath.log(tail_sum_reference(spec, e, n_max), 2) <= mpmath.mpf(upper.value.log2)

    def test_zero_family_without_a_decaying_majorant_in_the_window_gets_none(self):
        # f(n) = ap n - b n**(11/10) only starts to fall near n = 22 000
        spec, e = Power(Fraction(1), Fraction(11, 10)), Exponents("3/8", 2)
        assert classify(spec, e).outcome is Outcome.ZERO
        assert capacity_bounds(spec, e, 10)[1] is None

    def test_p_series_families_get_a_finite_upper(self):
        for spec, e in (
            (Growth(Fraction(1), Fraction(2), Fraction(1)), E_HALF_2),
            (Growth(Fraction(1), Fraction(1), Fraction(1, 2)), E_THIRD_3),
            (Growth(Fraction(1), Fraction(3, 2), Fraction(1)), E_HALF_2),
        ):
            _, upper = capacity_bounds(spec, e, 30)
            assert upper is not None and upper.value.log2 < 0


class TestComparabilityReport:
    def test_balanced_geometric_ratio_is_exactly_one_third(self):
        report = comparability_report(E_HALF_2, (1, 40), Geometric(1))
        for row in report["rows"]:
            assert abs(row["ratio"] - 1 / 3) <= 1e-12

    def test_constant_run_family_band(self):
        report = comparability_report(E_HALF_2, (1, 60), Power(Fraction(1), Fraction(0)))
        assert 1e-3 <= report["ratio_min"] <= report["ratio_max"] <= 1.0

    def test_subcritical_band(self):
        report = comparability_report(Exponents("1/4", 2), (1, 100), Linear(Fraction(1)))
        assert report["ratio_max"] / report["ratio_min"] < 100  # a two-decade band

    def test_range_validation(self):
        with pytest.raises(DomainError):
            comparability_report(E_HALF_2, (0, 5), Geometric(1))
        with pytest.raises(DomainError):
            comparability_report(E_HALF_2, (1, 20_000), Geometric(1))

    def test_kappa_past_a_million_bits_fails_before_any_row(self):
        # B = log2 C + beta log2 n + gamma n is checked at the ends and at its interior maximum
        spec = Growth(1, 0, 2**16)  # B(n) = 2**16 n, exactly 2**20 at n = 16
        assert [row["n"] for row in comparability_report(E_HALF_2, (16, 16), spec)["rows"]] == [16]
        for n_range in ((1, 17), (17, 10_000)):
            with pytest.raises(DomainError, match=r"^kappa_n reaches 2\*\*.* for n in "):
                comparability_report(E_HALF_2, n_range, spec)
        # B(n) = 2**20 - 9000 + 1000 log2 n - n peaks near n = 1443, 52 above 2**20, and is below at 500 and 5000
        spec = Growth(2 ** (2**20 - 9000), 1000, -1)
        with pytest.raises(DomainError, match="for n in 500..5000"):
            comparability_report(E_HALF_2, (500, 5000), spec)

    def test_subcritical_rows_stop_where_the_run_exponent_leaves_the_double_range(self):
        # kappa_n = 2**(64 n): at n = 16 the run term v b kappa = 2**1024 is past the float range, but
        # its exponent q w / v, about 2**1023, is formed from the integer; at n = 17 it is 2**1087
        e, spec = Exponents("1/4", 2), Growth(1, 0, 64)
        with pytest.raises(DomainError, match="^exponent exceeds the double-precision log2 range$"):
            comparability_report(e, (1, 17), spec)
        rows = comparability_report(e, (1, 16), spec)["rows"]
        assert [row["n"] for row in rows] == list(range(1, 17))
        assert rows[-1]["kappa_log2"] == 1024.0 and rows[-1]["proxy_log2"] == -(2.0 ** 1023)
        assert rows[-1]["cap_log2"] == cap_component(16, 2 ** 1024, e).value.log2 == -(2.0 ** 1023)

    def test_pairs_whose_run_rate_underflows_are_refused_at_construction(self):
        # q / v = 2**-1000 / 2**81 underflows to 0, so every run exponent q w / v
        # would read 0 and cap(D(1, kappa)) would not depend on kappa: the pair is refused
        p = 1 + Fraction(2) ** 1000
        a = Fraction(2**80 - 1, 2**81) / p
        with pytest.raises(DomainError, match=rf"^a={a}, p={p} is past the kernel's double range"):
            Exponents(a, p)
        # with v = 2**11, q / v = 2**-1011 is normal: the run exponents keep their bits, and every query answers
        e = Exponents(Fraction(2**10 - 1, 2**11) / p, p)
        assert cap_component(1, 2**1000, e).value > cap_component(1, 2**1010, e).value
        assert len(comparability_report(e, (1, 3), Geometric(1))["rows"]) == 3
        lower, upper = capacity_bounds(Geometric(1), e, 3)
        assert not lower.value.is_zero and lower.value <= upper.value
        verdict = classify(Geometric(1), e)
        assert (verdict.outcome, verdict.condition) == (Outcome.ZERO, "(b)")

    @staticmethod
    def first_failing_n(e, spec, ns):
        """The first n whose cap_component raises, and its text."""
        for n in ns:
            try:
                cap_component(n, kappa_value(spec, n), e)
            except DomainError as exc:
                return n, str(exc)
        return None, None

    def test_critical_rows_past_the_double_range_raise_the_component_text(self):
        # p = 1 + 2**-1020: q = 2**1020, so -n q overflows to -inf from n = 16 on
        p = 1 + Fraction(1, 2 ** 1020)
        e, spec = Exponents(1 / p, p), Geometric(1)
        assert [row["ratio"] for row in comparability_report(e, (1, 3), spec)["rows"]] == [1.0, 1.0, 1.0]
        n, text = self.first_failing_n(e, spec, range(1, 41))
        assert (n, text) == (16, "exponent exceeds the double-precision log2 range")
        comparability_report(e, (1, n - 1), spec)
        with pytest.raises(DomainError) as exc:
            comparability_report(e, (1, 40), spec)
        assert str(exc.value) == text

    def test_subcritical_rows_past_the_double_range_raise_the_component_text(self):
        p = 1 + Fraction(1, 2 ** 1000)
        e, spec = Exponents(1 / (2 * p), p), Geometric(1)
        n, text = self.first_failing_n(e, spec, range(1, 41))
        assert text == "exponent exceeds the double-precision log2 range" and n > 1
        comparability_report(e, (1, n - 1), spec)
        with pytest.raises(DomainError) as exc:
            comparability_report(e, (1, 40), spec)
        assert str(exc.value) == text

    @pytest.mark.parametrize("e, spec", [
        (E_HALF_2, Geometric(1)),
        (Exponents("1/3", 3), Custom(((601, 5), (777, 2 ** 900), (1000, 1)), Power("3/2", 1))),
        (Exponents("1/4", 2), Power(1, "1/2")),
    ], ids=["geometric", "custom", "power"])
    def test_long_windows_keep_the_bits_of_the_component_closures(self, e, spec):
        # 400-row windows, as in the benchmark, up to n = 1000
        kernel = dobinski._kernel(e)
        report = comparability_report(e, (601, 1000), spec)
        rows = report["rows"]
        assert [row["n"] for row in rows] == list(range(601, 1001))
        for row in rows:
            n = row["n"]
            kappa = kappa_value(spec, n)
            assert row["cap_log2"].hex() == cap_component(n, kappa, e).value.log2.hex(), n
            assert row["proxy_log2"].hex() == kernel.statistic(n, kappa).hex(), n
            if row["proxy_log2"] >= 0:
                assert row["ratio"].hex() == (2.0 ** row["cap_log2"]).hex(), n
        ratios = [row["ratio"] for row in rows]
        assert (report["ratio_min"].hex(), report["ratio_max"].hex()) == (min(ratios).hex(), max(ratios).hex())

    def test_matches_reference_on_random_cases(self):
        """Rows equal the per-row reference, and failures agree in type.

        Every field but the ratio is exact.  Critical ratios are exactly cap
        over the clamped proxy, taken in log2; subcritical ratios are within
        1e-13 of a 60-digit value, with kappa up to 2**1000.
        """
        rng = random.Random(20261018)
        fractional = (Fraction(1, 2), Fraction(1, 7), Fraction(3, 2), Fraction(-1, 2), Fraction(-5, 3))
        rates = (Fraction(1, 2), Fraction(3, 11), Fraction(-2, 7), Fraction(1), Fraction(1, 3))
        cases = [
            (Exponents("1/8", 2), Geometric(1), (1, 70)),
            (Exponents("1/12", 3), Geometric(1), (960, 1000)),
            (Exponents("1/8", 2), Geometric(3), (970, 1000)),
        ]
        for _ in range(240):
            p = rng.choice((Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(5)))
            ap = rng.choice((Fraction(1), Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)))
            C = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            kind = rng.randrange(5)
            if kind == 0:
                spec = Geometric(rng.randint(1, 7))
            elif kind == 1:
                spec = Power(C, rng.choice((Fraction(0), Fraction(1), Fraction(2)) + fractional))
            elif kind == 2:
                spec = Linear(C)
            elif kind == 3:
                spec = Growth(C, rng.choice((Fraction(0), Fraction(1)) + fractional), rng.choice((Fraction(0),) + rates))
            else:
                table = tuple((n, rng.randint(1, 60)) for n in rng.sample(range(1, 40), 4))
                spec = Custom(table, Power(C, rng.choice((Fraction(0), Fraction(1)) + fractional)))
            lo = rng.choice((1, rng.randint(1, 60), rng.randint(60, 1500), rng.randint(1000, 3000)))
            cases.append((Exponents(ap / p, p), spec, (lo, lo + rng.randint(0, 40))))
        equal = raised = critical = factored = critical_factored = deep = 0
        for e, spec, n_range in cases:
            try:
                expected = comparability_reference(e, n_range, spec)
            except (DomainError, ArithmeticError) as exc:
                with pytest.raises(type(exc)):
                    comparability_report(e, n_range, spec)
                raised += 1
                continue
            got = comparability_report(e, n_range, spec)
            ratios = [row.pop("ratio") for row in got["rows"]]
            assert got == dict(expected, ratio_min=min(ratios), ratio_max=max(ratios)), (e, n_range, spec)
            for row, ratio in zip(got["rows"], ratios):
                kappa = kappa_value(spec, row["n"])
                reference = ratio_reference(e, row["n"], kappa)
                if e.is_critical:
                    assert ratio == pytest.approx(reference, rel=1e-14, abs=0), (e, row["n"], spec)
                    critical_factored += row["proxy_log2"] < 0
                    continue
                assert ratio == pytest.approx(reference, rel=1e-13, abs=0), (e, row["n"], spec)
                factored += row["proxy_log2"] < 0
                deep += kappa >= 2 ** 960
            equal += 1
            critical += e.is_critical
        assert raised >= 10 and equal - critical >= 60 and critical >= 60 and deep >= 50
        assert factored >= 1000 and critical_factored >= 300

    def test_critical_ratios_keep_their_bits_where_the_statistic_is_negative(self):
        # rows up to n = 3000: a ratio formed as cap - proxy in log2 would lose an ulp of n
        rng = random.Random(20261021)
        rows = 0
        while rows < 1000:
            p = rng.choice((Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(5)))
            gamma = 1 / (p - 1) + rng.choice((Fraction(0), Fraction(0), Fraction(1, 8), Fraction(1, 2)))
            beta = rng.choice((Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)))
            spec = rng.choice((Growth(rng.randint(1, 9), beta, gamma), Geometric(rng.randint(1, 7))))
            e, lo = Exponents(1 / p, p), rng.randint(1, 2960)
            for row in comparability_report(e, (lo, lo + 40), spec)["rows"]:
                if row["proxy_log2"] < 0:
                    reference = ratio_reference(e, row["n"], kappa_value(spec, row["n"]))
                    assert row["ratio"] == pytest.approx(reference, rel=1e-14, abs=0), (e, row["n"], spec)
                    rows += 1

    @pytest.mark.parametrize("spec, ratio", [(Geometric(1), lambda n: Fraction(1, 3)),
                                             (Growth(1, 1, 1), lambda n: Fraction(n, n + 2))])
    def test_critical_ratios_are_the_exact_rationals_at_the_logarithmic_point(self, spec, ratio):
        # kappa_n >= 2**n, so every row's ratio is kappa / (2**(n+1) + kappa)
        for lo in (1, 400, 2960, 9960):  # 9960: the rows up to the n cap of 10 000
            for row in comparability_report(E_HALF_2, (lo, lo + 40), spec)["rows"]:
                assert row["proxy_log2"] <= 0
                assert row["ratio"] == pytest.approx(float(ratio(row["n"])), rel=1e-14, abs=0), row["n"]


class TestOnlyClassifyBuildsTheTrace:
    def test_bounds_dimension_and_union_decide_without_it(self, monkeypatch):
        specs = [Geometric(1), Linear(Fraction(1)), Power(2, "3/2"), Growth(1, 1, "1/2"), Custom([(1, 5)], Linear(2))]
        grid = [(Fraction(1, 2), Fraction(2)), (Fraction(1, 3), Fraction(3)), (Fraction(1, 8), Fraction(2))]

        def outputs():
            bounds = [capacity_bounds(spec, Exponents(a, p), 8) for spec in specs for a, p in grid]
            return (
                [(lower.value.log2, None if upper is None else upper.value.log2) for lower, upper in bounds],
                [dimension_profile(spec, grid).to_json() for spec in specs],
                [dobinski_full(Exponents(a, p)).to_json() for a, p in grid],
            )

        def no_trace(*args):
            raise AssertionError("the trace was built outside classify")

        expected = outputs()
        monkeypatch.setattr(dobinski, "_trace", no_trace)
        assert outputs() == expected
        with pytest.raises(AssertionError, match="outside classify"):
            classify(Geometric(1), E_HALF_2)


@pytest.mark.parametrize("bad", [2.5, True, "3"])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: capacity_bounds(Geometric(1), E_THIRD_3, n),
        lambda n: comparability_report(E_HALF_2, (n, 4), Geometric(1)),
        lambda n: comparability_report(E_HALF_2, (1, n), Geometric(1)),
        lambda n: kappa_value(Geometric(1), n),
    ],
    ids=["capacity_bounds", "comparability_report_lo", "comparability_report_hi", "kappa_value"],
)
def test_integer_arguments_must_be_ints(call, bad):
    # a bool is not taken for 1, and a float or a string gets a DomainError, not a TypeError
    with pytest.raises(DomainError, match="int"):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: classify(spec, E_HALF_2),
        lambda spec: capacity_bounds(spec, E_HALF_2, 10),
        lambda spec: comparability_report(E_HALF_2, (1, 5), spec),
        lambda spec: dimension_profile(spec, [(Fraction(1, 2), Fraction(2))]),
        lambda spec: kappa_value(spec, 3),
    ],
    ids=["classify", "capacity_bounds", "comparability_report", "dimension_profile", "kappa_value"],
)
def test_a_spec_that_is_no_family_is_rejected(call):
    with pytest.raises(DomainError, match="unknown sequence family: 5"):
        call(5)


class TestDimensionProfile:
    def test_geometric_brackets_to_zero(self):
        grid = [
            (Fraction(ap_num, ap_den) / p, Fraction(p))
            for ap_num, ap_den in ((1, 4), (1, 2), (3, 4), (1, 1))
            for p in (2, 3)
        ]
        bracket = dimension_profile(Geometric(2), grid)
        assert bracket.lower == 0
        assert bracket.upper == 0

    def test_constant_run_family_fills_dimension(self):
        spec = Power(Fraction(1), Fraction(0))  # kappa_n = 1: essentially everything
        grid = [(Fraction(1, 64) / 2, Fraction(2)), (Fraction(1, 2) / 2, Fraction(2))]
        bracket = dimension_profile(spec, grid)
        assert bracket.lower == bracket.upper == Fraction(63, 64)

    def test_linear_family_threshold(self):
        # kappa_n = n turns positive exactly at ap = 1/2 on the subcritical side
        spec = Linear(Fraction(1))
        grid = [(Fraction(ap, 8) / 2, Fraction(2)) for ap in range(1, 9)]
        bracket = dimension_profile(spec, grid)
        assert bracket.lower == Fraction(1, 2)
        assert bracket.upper == Fraction(1, 2)

    def test_endpoints_coincide_without_indeterminate_points(self):
        grid = [(Fraction(1, 4), Fraction(2)), (Fraction(1, 3), Fraction(3))]
        bracket = dimension_profile(Geometric(1), grid)
        assert all(pt["outcome"] != "Indeterminate" for pt in bracket.points)
        assert bracket.lower == bracket.upper

    def test_empty_grid_is_rejected(self):
        with pytest.raises(DomainError, match="empty exponent grid"):
            dimension_profile(Geometric(1), [])


class TestSpecJson:
    @pytest.mark.parametrize(
        "spec",
        [
            Geometric(3),
            Power(Fraction(1, 2), Fraction(2)),
            Linear(Fraction(7, 3)),
            Growth(Fraction(1), Fraction(1), Fraction(1)),
            Custom(((1, 2), (4, 9)), Geometric(2)),
        ],
    )
    def test_round_trip(self, spec):
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_literal_schema(self):
        assert spec_from_json({"family": "geometric", "m": 3}) == Geometric(3)

    @pytest.mark.parametrize(
        "spec, text",
        [
            (Geometric(3), '{"family": "geometric", "m": 3}'),
            (Power(Fraction(1, 2), 2), '{"family": "power", "C": "1/2", "beta": "2"}'),
            (Linear(Fraction(7, 3)), '{"family": "linear", "C": "7/3"}'),
            (Growth(1, Fraction(-1, 2), 1), '{"family": "growth", "C": "1", "beta": "-1/2", "gamma": "1"}'),
            (Custom(((1, 2), (4, 9)), Custom(((2, 3),), Linear(1))),
             '{"family": "custom", "table": [[1, 2], [4, 9]], "tail_rule": '
             '{"family": "custom", "table": [[2, 3]], "tail_rule": {"family": "linear", "C": "1"}}}'),
        ],
    )
    def test_json_keys_values_and_order(self, spec, text):
        assert json.dumps(spec_to_json(spec)) == text
        assert spec_from_json(json.loads(text)) == spec

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            spec_from_json({"family": "fibonacci"})

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"family": "geometric", "m": 1, "beta": "7"}, "'beta'"),
            ({"family": "linear", "C": "1", "tail_rule": {"family": "linear", "C": "1"}}, "'tail_rule'"),
            ({"family": "power", "C": "1", "beta": "2", "gamma": "0", "m": 3}, "'gamma', 'm'"),
            ({"family": "custom", "table": [[1, 2]], "tail_rule": {"family": "linear", "C": "1", "beta": "2"}}, "'beta'"),
            ({"family": "growth", "C": "1", "beta": "0", "gamma": "1", "Gamma": "1"}, "'Gamma'"),
        ],
        ids=["geometric", "linear", "power", "nested-tail-rule", "case"],
    )
    def test_stray_fields_are_named(self, data, named):
        with pytest.raises(DomainError, match=f"takes no field {named}$"):
            spec_from_json(data)

    @pytest.mark.parametrize("data", [[{"family": "geometric", "m": 1}], "[1]", "3", 3, None])
    def test_non_object_is_rejected(self, data):
        with pytest.raises(DomainError, match="must be an object"):
            spec_from_json(data)

    @pytest.mark.parametrize("spec", [5, None, {"family": "geometric", "m": 1}, Exponents("1/2", 2)])
    def test_non_family_has_no_json(self, spec):
        with pytest.raises(DomainError, match="unknown sequence family"):
            spec_to_json(spec)

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"family": "geometric"}, "m"),
            ({"family": "geometric", "m": "three"}, "m"),
            ({"family": "geometric", "m": 2.5}, "m"),
            ({"family": "geometric", "m": None}, "m"),
            ({"family": "power", "C": "1"}, "beta"),
            ({"family": "power", "C": [1], "beta": "1"}, "C"),
            ({"family": "linear"}, "C"),
            ({"family": "growth", "C": "1", "beta": "0"}, "gamma"),
            ({"family": "growth", "C": "1", "beta": 0.5, "gamma": "1"}, "beta"),
            ({"family": "custom", "tail_rule": {"family": "geometric", "m": 1}}, "table"),
            ({"family": "custom", "table": [[2, 3]]}, "tail_rule"),
            ({"family": "custom", "table": [[2, 3]], "tail_rule": {"family": "geometric"}}, "m"),
            ({"family": "custom", "table": [[2.5, 3]], "tail_rule": {"family": "geometric", "m": 1}}, "n"),
            ({"family": "custom", "table": 7, "tail_rule": {"family": "geometric", "m": 1}}, "table"),
            ({"family": "geometric", "m": True}, "m"),
            ({"family": "linear", "C": True}, "C"),
            ({"family": "power", "C": "1", "beta": False}, "beta"),
            ({"family": "growth", "C": "1", "beta": "0", "gamma": True}, "gamma"),
        ],
    )
    def test_bad_fields_raise_domain_error_naming_them(self, data, field):
        with pytest.raises(DomainError, match=f"\\b{field}\\b"):
            spec_from_json(data)

    def test_malformed_json_text(self):
        # text is not decoded here (the command line decodes its JSON flags): it is not an object
        with pytest.raises(DomainError, match="must be an object"):
            spec_from_json('{"family": "geometric", "m": ')
