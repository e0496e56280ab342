"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Criterion 6 is parametrized per exponent pair; the four
combinations whose truncation error provably exceeds the target at depth
60 are marked as strict expected failures (see the reason strings).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from capatree import (
    DyadicDensity,
    DyadicTangentPole,
    Exponents,
    Geometric,
    Linear,
    LogValue,
    Outcome,
    Power,
    agreement_battery,
    cap_component,
    capacity_recursive,
    circle_full_capacity,
    comparability_report,
    d_cylinder_set,
    dimension_profile,
    dobinski_full,
    full_tree_capacity,
    phi_apply,
    riesz_potential,
    product_identity,
    sigma_closed_form,
    truncated_tree_capacity,
)
from conftest import rel_diff, sigma_direct

_LN2 = math.log(2.0)


def _report(number: int, name: str, detail: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS - {detail}")


def test_criterion_1_semigroup_and_scaling_laws():
    rng = np.random.default_rng(20240811)
    p_choices = [Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)]
    exps = [Exponents(1 / p, p) for p in p_choices]
    t0 = time.perf_counter()
    count = 10_000
    worst_semi = worst_scale = 0.0
    for _ in range(count):
        e = exps[rng.integers(len(exps))]
        r = LogValue.from_log2(rng.uniform(-20.0, 40.0))
        s = LogValue.from_log2(rng.uniform(-20.0, 40.0))
        x = LogValue.from_log2(rng.uniform(-20.0, 10.0))
        composed = phi_apply(r, phi_apply(s, x, e), e)
        direct = phi_apply(r + s, x, e)
        worst_semi = max(worst_semi, rel_diff(composed, direct))
        two_x = LogValue.from_log2(x.log2 + 1.0)
        lhs = phi_apply(r, two_x, e)
        rhs = phi_apply(LogValue.from_log2(r.log2 + e.q_f), x, e)
        worst_scale = max(worst_scale, rel_diff(lhs, LogValue.from_log2(rhs.log2 + 1.0)))
    elapsed = time.perf_counter() - t0
    assert worst_semi <= 1e-11
    assert worst_scale <= 1e-11
    assert elapsed < 1.0
    _report(1, "semigroup & scaling", f"worst {worst_semi:.2e} / {worst_scale:.2e} in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rows = agreement_battery(count=200, seed=0, max_depth=8, tol=1e-5)
    elapsed = time.perf_counter() - t0
    worst = max(row["rel_diff"] for row in rows)
    assert all(row["ok"] for row in rows)
    assert worst <= 5e-5
    assert elapsed < 120.0
    _report(2, "oracle equivalence", f"200 problems, worst rel diff {worst:.2e} in {elapsed:.1f}s")


def test_criterion_3_closed_form_vs_engine():
    exponent_pairs = [
        Exponents(ap / p, p)
        for p in (Fraction(3, 2), Fraction(2), Fraction(3))
        for ap in (Fraction(1), Fraction(1, 2))
    ]
    t0 = time.perf_counter()
    worst_cap = worst_sigma = 0.0
    cases = 0
    for e, n, kappa in itertools.product(exponent_pairs, range(0, 9), range(1, 9)):
        closed = cap_component(n, kappa, e).value
        engine = capacity_recursive(d_cylinder_set(n, kappa), e).value
        worst_cap = max(worst_cap, rel_diff(closed, engine))
        worst_sigma = max(
            worst_sigma, rel_diff(sigma_closed_form(n, kappa, e), sigma_direct(n, kappa, e))
        )
        cases += 1
    elapsed = time.perf_counter() - t0
    assert worst_cap <= 1e-10
    assert worst_sigma <= 1e-10
    assert elapsed < 30.0
    _report(
        3,
        "closed form vs engine",
        f"{cases} cases, worst cap {worst_cap:.2e}, worst sigma {worst_sigma:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_capacity_jump_of_the_run_union():
    t0 = time.perf_counter()
    for k in range(1, 11):
        p = 1 + Fraction(k, 10)
        verdict = dobinski_full(Exponents(1 / p, p))
        assert verdict.outcome is Outcome.POSITIVE, f"p={p}"
    for k in range(1, 11):
        p = 2 + Fraction(3 * k, 10)
        verdict = dobinski_full(Exponents(1 / p, p))
        assert verdict.outcome is Outcome.ZERO, f"p={p}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, "capacity jump at p=2", f"Positive on (1,2], Zero on (2,5], {elapsed:.2f}s")


def test_criterion_5_comparability_bands():
    e = Exponents("1/2", 2)
    t0 = time.perf_counter()
    for spec in (Power(Fraction(1), Fraction(0)), Linear(Fraction(1))):
        report = comparability_report(e, (1, 1000), spec)
        assert 1e-3 <= report["ratio_min"] <= report["ratio_max"] <= 1.0, spec
    balanced = comparability_report(e, (1, 1000), Geometric(1))
    for row in balanced["rows"]:
        assert abs(row["ratio"] - 1 / 3) <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "comparability",
        f"bands within [1e-3, 1]; balanced family pinned at 1/3, {elapsed:.1f}s",
    )


_N60_CASES = [
    pytest.param(Fraction(3, 2), Fraction(1), id="p=3/2,ap=1"),
    pytest.param(Fraction(3, 2), Fraction(3, 4), id="p=3/2,ap=3/4"),
    pytest.param(Fraction(3, 2), Fraction(1, 2), id="p=3/2,ap=1/2"),
    pytest.param(Fraction(2), Fraction(1), id="p=2,ap=1"),
    pytest.param(Fraction(2), Fraction(3, 4), id="p=2,ap=3/4"),
    pytest.param(
        Fraction(2),
        Fraction(1, 2),
        id="p=2,ap=1/2",
        marks=pytest.mark.xfail(
            strict=True,
            reason="truncation contracts by 2**(-ap/(p-1)) = 2**(-1/2) per level; "
            "depth 60 leaves ~7e-10 relative error, above the 1e-10 target",
        ),
    ),
    pytest.param(
        Fraction(3),
        Fraction(1),
        id="p=3,ap=1",
        marks=pytest.mark.xfail(
            strict=True,
            reason="contraction 2**(-1/2) per level leaves ~1e-9 at depth 60",
        ),
    ),
    pytest.param(
        Fraction(3),
        Fraction(3, 4),
        id="p=3,ap=3/4",
        marks=pytest.mark.xfail(
            strict=True,
            reason="contraction 2**(-3/8) per level leaves ~3e-7 at depth 60",
        ),
    ),
    pytest.param(
        Fraction(3),
        Fraction(1, 2),
        id="p=3,ap=1/2",
        marks=pytest.mark.xfail(
            strict=True,
            reason="contraction 2**(-1/4) per level leaves ~5e-5 at depth 60",
        ),
    ),
]


@pytest.mark.parametrize("p,ap", _N60_CASES)
def test_criterion_6_truncation_reaches_fixed_point(p, ap):
    e = Exponents(ap / p, p)
    truncated = truncated_tree_capacity(e, 60)
    closed = full_tree_capacity(e).value
    err = rel_diff(truncated, closed)
    assert err <= 1e-10, f"relative error {err:.3e}"
    _report(6, "fixed-point constant", f"p={p}, ap={ap}: rel err {err:.2e} at depth 60")


def test_criterion_6_exact_truncation_sequence_linear_critical():
    e = Exponents("1/2", 2)
    for depth in range(0, 61):
        value = truncated_tree_capacity(e, depth)
        expected_log2 = depth - (depth + 1) - math.log1p(-(2.0 ** -(depth + 1))) / _LN2
        assert abs(math.expm1((value.log2 - expected_log2) * _LN2)) <= 1e-12
    _report(6, "fixed-point constant", "truncation sequence equals 2**N/(2**(N+1)-1) to 1e-12")


def test_criterion_7_dimension_bracket_collapses_to_zero():
    t0 = time.perf_counter()
    grid = [
        (ap / p, p)
        for ap in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
        for p in (Fraction(2), Fraction(3))
    ]
    for m in (1, 2, 5):
        bracket = dimension_profile(Geometric(m), grid)
        assert bracket.lower == 0
        assert bracket.upper == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(7, "dimension bracket", f"[0, 0] on the 8-point grid, {elapsed:.2f}s")


def test_criterion_8_tangent_product_identity():
    t0 = time.perf_counter()
    lhs, rhs = product_identity("1/3", 40)
    assert rhs == pytest.approx(3.0, rel=1e-14)
    assert abs(lhs - 3.0) <= 1e-9
    lhs5, rhs5 = product_identity("1/5", 40)
    assert rhs5 == pytest.approx((2 * math.sin(math.pi / 5)) ** 2, rel=1e-14)
    assert abs(lhs5 - rhs5) <= 1e-6
    for bad in ("1/2", "3/4", "5/8"):
        with pytest.raises(DyadicTangentPole):
            product_identity(bad, 16)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(8, "tangent product", f"1/3 within {abs(lhs - 3.0):.1e} of 3, {elapsed:.2f}s")


def test_criterion_9_circle_side_constancy_and_stability():
    e = Exponents("1/2", 2)
    density = DyadicDensity.constant(1.0, depth=4)
    values = [riesz_potential(density, (k + 0.31) / 64, e.a, rel_tol=1e-8) for k in range(64)]
    mean = sum(values) / len(values)
    spread = (max(values) - min(values)) / mean
    assert spread <= 1e-7
    v1 = circle_full_capacity(e, rel_tol=1e-10)
    v2 = circle_full_capacity(e, rel_tol=5e-11)
    drift = abs(v1 - v2) / v1
    assert drift <= 1e-7
    _report(9, "circle capacity", f"potential spread {spread:.1e}, tolerance drift {drift:.1e}")
