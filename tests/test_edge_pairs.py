"""Exponent pairs at the edges of the double range: admitted pairs are served, the rest refused at construction.

Pairs are drawn by the bit lengths of p - 1 = P/Q and of ap = an/v, up to
2**1022, with tiny and huge p - 1 on both branches.  ``Exponents`` is the
one place that decides whether the kernel can serve a pair, so every pair
it admits must answer each engine with finite values, and every pair it
refuses must be refused there, with a DomainError.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from capatree import (
    CylinderSet,
    DomainError,
    Exponents,
    Geometric,
    Linear,
    cap_component,
    capacity_recursive,
    classify,
    comparability_report,
    full_tree_capacity,
)
from capatree.capacity import _geometric_terms

# the pair on which `capatree cap-component` exited 3, "oracle failure", as a 1-ulp miss of log2 c ~ -6.5e15
ULP_MISS = (Fraction(987277, 264717303884510109978), Fraction(132358651942255054989, 987277))
# q ap = 1/(2**1023 - 2): log2 c = -(p-1) log2 G(inf, -q ap) overflows to -inf
LOG2_C_OVERFLOW = (Fraction(1, 2**1023 - 1), Fraction(2**1023 - 1))


def _ints(low, high):
    """Integers whose bit length is drawn from low..high."""
    return st.integers(low, high).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


_int, _huge, _small = st.one_of(_ints(1, 64), _ints(960, 1022), _ints(1, 1022)), _ints(990, 1022), _ints(1, 8)


@st.composite
def edge_pairs(draw):
    P, Q = draw(st.one_of(st.tuples(_int, _int), st.tuples(_huge, _small), st.tuples(_small, _huge)))  # p - 1 = P/Q
    p = 1 + Fraction(P, Q)
    if draw(st.booleans()):
        return 1 / p, p  # critical
    v = draw(_int.filter(lambda v: v > 1))
    an = draw(st.one_of(st.integers(1, v - 1), st.integers(1, min(8, v - 1)), st.integers(max(1, v - 8), v - 1)))
    return Fraction(an, v) / p, p


def _served(a, p) -> bool:
    """The kernel's condition, read from Fractions: q ap >= 2**-1010 and, below the critical line,
    q b >= 2**-1010 and q/v >= 2**-1022, with q = 1/(p-1), b = 1 - ap and v the denominator of ap."""
    ap, q = a * p, 1 / (p - 1)
    if max(p.numerator, p.denominator, ap.denominator).bit_length() > 1023:
        return False
    if q * ap < Fraction(1, 2**1010):
        return False
    return ap == 1 or q * (1 - ap) >= Fraction(1, 2**1010) and q / ap.denominator >= Fraction(1, 2**1022)


def _floats(value):
    """Every float in nested dicts, lists and tuples."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _floats(item)


class TestEdgePairs:
    @settings(max_examples=300, deadline=None)
    @given(edge_pairs())
    @example(ULP_MISS)
    @example(LOG2_C_OVERFLOW)
    def test_admitted_pairs_are_served_and_the_rest_refused_at_construction(self, pair):
        a, p = pair
        if not _served(a, p):
            with pytest.raises(DomainError, match="double range"):
                Exponents(a, p)
            return
        e = Exponents(a, p)
        reports = [full_tree_capacity(e), cap_component(1, 1, e), capacity_recursive(CylinderSet(("01", "1")), e)]
        assert all(math.isfinite(report.value.log2) and not report.value.is_zero for report in reports)
        rows = comparability_report(e, (1, 3), Linear(1))
        verdict = classify(Geometric(1), e)
        assert len(rows["rows"]) == 3 and verdict.outcome is not None
        assert all(map(math.isfinite, _floats([rows, verdict.evidence])))
        # the branch, run and chain-index sums each have a finite cut where their ratio is below 1
        q = e.q_f
        for t in (-q * e.ap_f, -q * float(1 - e.ap), q * (e.ap_f - 1.0)):
            if t:
                assert math.isfinite(_geometric_terms(t)[1]), t

    @pytest.mark.parametrize("ap, p, served", [
        (1, 1 + Fraction(2) ** 1010, True), (1, 1 + Fraction(2) ** 1011, False),  # q ap = 2**-1010, 2**-1011
        (1 - Fraction(1, 2**1010), 2, True), (1 - Fraction(1, 2**1011), 2, False),  # q b = 2**-1010, 2**-1011
        (Fraction(2**21 + 1, 2**22), 1 + Fraction(2) ** 1000, True),  # q/v = 2**-1022
        (Fraction(2**22 + 1, 2**23), 1 + Fraction(2) ** 1000, False),  # q/v = 2**-1023
    ], ids=["q-ap-served", "q-ap-refused", "q-b-served", "q-b-refused", "q-v-served", "q-v-refused"])
    def test_each_condition_is_exact_at_its_power_of_two(self, ap, p, served):
        if served:
            e = Exponents(ap / p, p)
            assert math.isfinite(full_tree_capacity(e).value.log2) and math.isfinite(cap_component(1, 1, e).value.log2)
        else:
            with pytest.raises(DomainError, match="double range"):
                Exponents(ap / p, p)
