"""Limsup run sets: classification, capacity bounds, and the dimension bracket.

A sequence of run lengths kappa_n defines the limsup set of boundary points
that begin a run of kappa_n zeros right after position n.  Whether such a
set carries positive capacity is decided by one of four sufficient
conditions, depending on the branch of a*p:

    critical (ap = 1):   (i)  limsup 2**n / kappa_n**(p-1) > 0   -> positive
                         (ii) sum   2**n / kappa_n**(p-1) < inf  -> zero
    subcritical (ap<1):  (a)  limsup (ap*n - (1-ap)*kappa_n) > -inf -> positive
                         (b)  sum 2**(ap*n - (1-ap)*kappa_n) < inf  -> zero

The conditions leave a gap, so `Indeterminate` is a first-class verdict.
Every symbolic family is a Growth, kappa_n = ceil(C * n**beta * 2**(gamma*n)),
and a verdict comes from that (C, beta, gamma) alone, by exact rational
comparison of growth exponents, never by numeric truncation of tails.  Only
`classify` wraps a verdict in evidence, a 16-row trace of the decisive
statistic included; the other callers decide without building it.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .capacity import (
    BoundKind,
    CapacityReport,
    Method,
    _kernel,
)
from .errors import DomainError
from .exponents import Exponents, LogValue, RationalLike, Record, _set, as_fraction

_LN2 = math.log(2.0)


# ----------------------------------------------------------------------
# Sequence families
# ----------------------------------------------------------------------

class Growth(Record):
    """General symbolic family kappa_n = ceil(C * n**beta * 2**(gamma*n)), such as n * 2**n.

    Every rule family is a Growth: each named one below fixes the parameters
    it lacks, so it carries its normalized C, beta and gamma, while equality,
    hash, repr, pickling and JSON read only its ``_fields``.  |beta|, |gamma|
    <= 2**16 with denominators <= 2**8 bound kappa_n's exact powers.
    """

    _fields = ("C", "beta", "gamma")
    _family = "growth"

    def __init__(self, C: RationalLike, beta: RationalLike, gamma: RationalLike):
        _set(self, "C", as_fraction(C))
        for name, value in (("beta", beta), ("gamma", gamma)):
            value = as_fraction(value)
            if abs(value) > 2 ** 16 or value.denominator > 2 ** 8:
                raise DomainError(f"{self._family} family needs |{name}| <= 2**16 with denominator <= 2**8, "
                                  f"got {name}={value}")
            _set(self, name, value)
        if self.C <= 0:
            raise DomainError(f"{self._family} family needs C > 0, got {self.C}")


class Geometric(Growth):
    """kappa_n = ceil(2**n / m) for a positive integer m: C = 1/m, beta = 0, gamma = 1."""

    _fields = ("m",)
    _family = "geometric"

    def __init__(self, m: int):
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise DomainError(f"geometric family needs a positive integer m, got {m}")
        _set(self, "m", m)
        super().__init__(Fraction(1, m), 0, 1)


class Power(Growth):
    """kappa_n = ceil(C * n**beta): gamma = 0."""

    _fields = ("C", "beta")
    _family = "power"

    def __init__(self, C: RationalLike, beta: RationalLike):
        super().__init__(C, beta, 0)


class Linear(Growth):
    """kappa_n = ceil(C * n): beta = 1, gamma = 0."""

    _fields = ("C",)
    _family = "linear"

    def __init__(self, C: RationalLike):
        super().__init__(C, 1, 0)


class Custom(Record):
    """Finitely many tabulated values with a symbolic tail rule.

    Classification is a tail property, so the verdict comes from the tail
    rule, a Growth or a Custom family; the table only affects pointwise kappa
    lookups.  Table entries are (n, kappa) pairs of integral numbers, stored
    as ints; a non-integral value, a bool or a repeated n raises DomainError.
    """

    _fields = ("table", "tail_rule")
    _family = "custom"

    def __init__(self, table, tail_rule: Growth | Custom):
        if not isinstance(tail_rule, (Growth, Custom)):
            raise DomainError("custom family requires an explicit tail rule" if tail_rule is None
                              else f"custom family needs a sequence family as its tail rule, got {tail_rule!r}")
        try:
            pairs = [(n, k) for n, k in table]
        except (TypeError, ValueError) as exc:
            raise DomainError(f"table must be a sequence of (n, kappa) pairs, got {table!r}") from exc
        table = tuple((_integral(n, "table n"), _integral(k, "table kappa")) for n, k in pairs)
        seen = set()
        for n, k in table:
            if n < 1 or k < 1:
                raise DomainError(f"table entries need n >= 1 and kappa >= 1, got ({n}, {k})")
            if n in seen:
                raise DomainError(f"duplicate table entry for n={n}")
            seen.add(n)
        _set(self, "table", table)
        _set(self, "tail_rule", tail_rule)


def _integral(value: object, name: str) -> int:
    """``value`` as an int when it is an integral number; DomainError otherwise (bools too)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise DomainError(f"{name} must be an integer, got {value!r}")


SequenceSpec = Union[Growth, Custom]
_FAMILIES = {cls._family: cls for cls in (Geometric, Power, Linear, Growth, Custom)}


def _coefficients(spec: SequenceSpec) -> tuple[Fraction, Fraction, Fraction]:
    """(C, beta, gamma) of a family's rule; a Custom family gives its tail rule's."""
    while isinstance(spec, Custom):
        spec = spec.tail_rule
    if not isinstance(spec, Growth):
        raise DomainError(f"unknown sequence family: {spec!r}")
    return spec.C, spec.beta, spec.gamma


def _iroot_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) for nonnegative integers: ``math.isqrt`` for k = 2, else integer Newton.

    Newton starts from a float root raised by 2**-40, far above log2's rounding,
    and checked by one exact power; 2**ceil(bits/k) takes over if the check fails.
    """
    if x < 0 or k < 1:
        raise DomainError("iroot needs x >= 0 and k >= 1")
    if x == 0 or k == 1:
        return x
    if k == 2:  # exact, and far cheaper than Newton's full-size divisions
        return math.isqrt(x)
    shift = max(0, x.bit_length() // k - 60)  # the root is about m * 2**shift with m < 2**61
    r = (math.floor(2.0 ** (math.log2(x >> k * shift) / k) * (1 + 2.0 ** -40)) + 1) << shift
    if r ** k < x:
        r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


class _Kappa:
    """kappa_n of one family, normalized once so each lookup is integer arithmetic.

    ``lookup`` takes table entries first (an outer Custom's before its tail
    rule's), and ``rule``, ceil(C * n**beta * 2**(gamma*n)), for every other n;
    a family with no table has ``rule`` itself as its lookup.  ``values(ns)``
    iterates the lookups over ns, forming each kappa_n only when it is reached:
    for a rule with integer beta and gamma and no table, one generator over
    the exact integer expression of ``rule``, else ``lookup`` mapped.  All
    close over the family's integers, so a lookup reads no attributes.  None
    checks n: every caller passes ints n >= 1, and ``kappa_value`` checks
    outside input.
    """

    __slots__ = ("table", "C", "beta", "gamma", "rule", "lookup", "values")

    def __init__(self, spec: SequenceSpec):
        table: dict[int, int] = {}
        while isinstance(spec, Custom):
            table = dict(spec.table) | table
            spec = spec.tail_rule
        self.table, get = table, table.get
        self.C, self.beta, self.gamma = C, beta, gamma = _coefficients(spec)
        (num, den), (bn, bd), (gn, gd) = C.as_integer_ratio(), beta.as_integer_ratio(), gamma.as_integer_ratio()
        pa, pb, ga, gb = max(bn, 0), max(-bn, 0), max(gn, 0), max(-gn, 0)  # n's and 2's powers above and below

        def rule(n: int) -> int:
            """ceil(C * n**beta * 2**(gamma*n)) as an exact integer, at least 1 as C > 0."""
            rest = gn * n % gd
            if bd == 1 and not rest:
                return -(-(num * n ** pa << ga * n // gd) // (den * n ** pb << gb * n // gd))
            # irrational value: x**L = a / b in integers, for L the lcm of the
            # denominators of beta and gamma*n; ceil(x) is the integer L-th root
            # of a // b, or one more
            L = math.lcm(bd, gd // math.gcd(rest, gd))
            a, b = num ** L, den ** L
            n_exp, two_exp = bn * (L // bd), gn * n * L // gd
            if n_exp >= 0:
                a *= n ** n_exp
            else:
                b *= n ** -n_exp
            if two_exp >= 0:
                a <<= two_exp
            else:
                b <<= -two_exp
            k = _iroot_floor(a // b, L)
            return k if k >= 1 and k ** L * b >= a else k + 1

        def lookup(n: int) -> int:
            k = get(n)
            return rule(n) if k is None else k
        self.rule, self.lookup = rule, lookup if table else rule
        if bd == gd == 1 and not table:  # rule's integer branch, for every n
            self.values = lambda ns: (-(-(num * n ** pa << ga * n) // (den * n ** pb << gb * n)) for n in ns)
        else:
            self.values = functools.partial(map, self.lookup)


def kappa_value(spec: SequenceSpec, n: int) -> int:
    """Exact kappa_n as an integer (arbitrary precision; never truncated).

    The one entry point that takes n from outside, so the one that checks it:
    n must be an int >= 1.  ``_Kappa``'s lookups trust their callers' ranges.
    """
    if type(n) is not int:
        raise DomainError(f"n must be an int, got {n!r}")
    if n < 1:
        raise DomainError(f"sequences are indexed from n = 1, got n={n}")
    return _Kappa(spec).lookup(n)


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------

class Outcome(enum.Enum):
    POSITIVE = "Positive"
    ZERO = "Zero"
    INDETERMINATE = "Indeterminate"


class Verdict(Record):
    _fields = ("outcome", "condition", "evidence")

    def __init__(self, outcome: Outcome, condition: str | None, evidence: dict):
        _set(self, "outcome", outcome)
        _set(self, "condition", condition)
        _set(self, "evidence", evidence)

    def to_json(self) -> dict:
        # the wire format carries the numeric trace as the evidence array,
        # with the symbolic reasoning alongside
        analysis = {k: v for k, v in self.evidence.items() if k != "trace"}
        return {
            "outcome": self.outcome.value,
            "condition": self.condition,
            "evidence": self.evidence.get("trace", []),
            "analysis": analysis,
        }


_TRACE_ROWS = range(1, 17)  # the n of the evidence trace's 16 rows
_KAPPA_BITS = 2 ** 20  # the largest log2 kappa_n that a row of ratios or bounds forms


def _log2_bound(kappa: _Kappa):
    """n -> B(n) = log2 C + beta log2 n + gamma n, log2 of the rule's kappa_n before its ceiling.

    log2 C is read as ``_remainder`` reads it, through LogValue.from_fraction.
    """
    log2_c, beta, gamma = LogValue.from_fraction(kappa.C).log2, float(kappa.beta), float(kappa.gamma)
    return lambda n: log2_c + beta * math.log2(n) + gamma * n


def _check_kappa_bits(kappa: _Kappa, lo: int, hi: int) -> None:
    """DomainError, before any kappa_n is formed, if the rule's B(n) passes 2**20 for some n in lo..hi.

    B is concave for beta > 0 and convex for beta < 0, so its largest value on
    the range is at an end or, for beta > 0 > gamma, next to its one stationary
    point -beta / (gamma ln 2).  One check per call, whatever the range's length.
    """
    log2_bound, ns = _log2_bound(kappa), [lo, hi]
    if kappa.beta.numerator > 0 > kappa.gamma.numerator and lo < (x := float(-kappa.beta / kappa.gamma) / _LN2) < hi:
        ns += [math.floor(x), math.ceil(x)]
    worst = max(map(log2_bound, ns))
    if worst > _KAPPA_BITS:
        raise DomainError(f"kappa_n reaches 2**{worst:.6g} for n in {lo}..{hi}, and ratios and bounds form "
                          "kappa_n only up to 2**(2**20); shorten the range")


def _trace(kappa: _Kappa, e: Exponents) -> list[dict]:
    """Finite-window values of the run-set kernel's statistic, for the evidence field.

    One rule for both branches.  A table entry, or a rule row whose lower
    bound B = log2 C + beta log2 n + gamma n on log2 kappa_n is at most
    log2 v + 1088 (v the denominator of ap), is formed and read through the
    kernel's statistic.  Past that limit kappa_n is never formed.  B then
    exceeds log2 v + 1024 by a 64-bit margin, far above its rounding, so
    |ap n - b kappa_n| > 2**1088 - n and a subcritical row is null (past the
    double range).  A critical row reads n - (p-1) B: as kappa_n = ceil(x) with
    log2 x >= 1088, log2 kappa_n is within 2**-1087 of log2 x, so this differs
    from n - (p-1) log2 kappa_n only by the rounding of B, a few ulps.
    """
    statistic, log2_bound = _kernel(e).statistic, _log2_bound(kappa)
    limit = math.log2(e.ap.denominator) + 1024 + 64

    def row(n: int) -> float | None:
        bound = log2_bound(n)
        if n in kappa.table or bound <= limit:
            return statistic(n, kappa.lookup(n))
        return n - e.pm1_f * bound if e.is_critical else None
    return [{"n": n, "log2_stat" if e.is_critical else "exponent": row(n)} for n in _TRACE_ROWS]


def _decide(C: Fraction, beta: Fraction, gamma: Fraction, e: Exponents) -> tuple[Outcome, str | None, dict]:
    """(outcome, condition, symbolic facts) for kappa_n = ceil(C n**beta 2**(gamma n)) at ``e``."""
    if e.is_critical:
        p = e.p
        slope = 1 - (p - 1) * gamma  # per-n log2 growth of the condition statistic
        facts = {"slope_log2": str(slope)}
        if slope > 0:
            return Outcome.POSITIVE, "(i)", facts | {"limsup": "+inf"}
        if slope < 0:
            return Outcome.ZERO, "(ii)", facts | {"series": "geometric, convergent"}
        # balanced exponential growth; the polynomial factor decides
        if beta < 0:
            return Outcome.POSITIVE, "(i)", facts | {"limsup": "+inf"}
        if beta == 0:
            limsup = str(C ** -(p - 1)) if (p - 1).denominator == 1 else "positive constant"
            return Outcome.POSITIVE, "(i)", facts | {"limsup": limsup}
        if (p - 1) * beta > 1:
            return Outcome.ZERO, "(ii)", facts | {"series": "p-series, convergent"}
        facts |= {"limsup": "0", "series": "p-series with exponent <= 1, divergent"}
        return Outcome.INDETERMINATE, None, facts

    # subcritical branch
    if gamma > 0:
        return Outcome.ZERO, "(b)", {"series": "super-exponentially convergent"}
    if gamma < 0 or beta < 1:
        return Outcome.POSITIVE, "(a)", {"limsup": "+inf"}
    if beta > 1:
        return Outcome.ZERO, "(b)", {"series": "convergent (superlinear run lengths)"}
    slope = e.ap - (1 - e.ap) * C  # beta == 1, gamma == 0
    facts = {"slope": str(slope)}
    if slope > 0:
        return Outcome.POSITIVE, "(a)", facts | {"limsup": "+inf"}
    if slope == 0:
        limsup = f"bounded in [{-float(1 - e.ap):.6g}, 0] by the ceiling offset"
        return Outcome.POSITIVE, "(a)", facts | {"limsup": limsup}
    return Outcome.ZERO, "(b)", facts | {"series": "geometric, convergent"}


def classify(spec: SequenceSpec, e: Exponents) -> Verdict:
    """Decide positive / zero / indeterminate capacity for the limsup set.

    The verdict compares exact rational growth exponents of the family's
    normalized (C, beta, gamma), so it reflects the true tail behaviour
    rather than any finite horizon.  Only this function builds evidence.
    """
    kappa = _Kappa(spec)
    evidence: dict = {
        "family": spec_to_json(spec),
        "normalized": {"C": str(kappa.C), "beta": str(kappa.beta), "gamma": str(kappa.gamma)},
        "branch": e.branch.value,
        "trace": _trace(kappa, e),
    }
    if isinstance(spec, Custom):
        evidence["note"] = "table entries are a finite prefix and cannot affect the verdict"
    outcome, condition, facts = _decide(kappa.C, kappa.beta, kappa.gamma, e)
    return Verdict(outcome, condition, evidence | facts)


def dobinski_full(e: Exponents) -> Verdict:
    """Verdict for the union over m of both run halves (zeros and ones).

    The halves are bit-flip images of each other, so they classify
    identically; positivity of any geometric component is inherited by the
    union, and countable subadditivity passes zero capacity to it.
    """
    # a geometric family's outcome and condition do not depend on m
    ((outcome, condition),) = {_decide(*_coefficients(Geometric(m)), e)[:2] for m in (1, 2, 3)}
    evidence = {
        "construction": "union over m >= 1 of run sets with kappa_n = ceil(2**n/m), "
        "for runs of zeros and (by bit-flip symmetry) runs of ones",
        "component_condition": condition,
        "branch": e.branch.value,
        "sampled_m": [1, 2, 3],
    }
    return Verdict(outcome, condition, evidence)


# ----------------------------------------------------------------------
# Capacity bounds and comparability
# ----------------------------------------------------------------------

_WINDOW = 256  # exact tail terms at most before the closed-form remainder takes over


def _log2_up(*parts: float) -> float:
    """sum(parts) raised by 2**-40 (1 + sum |parts|), far above the few ulps
    that evaluating the parts in floats can lose: an upper bound on the true sum."""
    return sum(parts) + 2.0 ** -40 * (1 + sum(map(abs, parts)))


def _remainder(kappa: _Kappa, e: Exponents):
    """N -> log2 of a proven bound on sum_{n >= N} of the rule's per-term majorant.

    For a Zero family only.  With kappa_n >= g(n) = C n**beta 2**(gamma n),
    cap(D(n, kappa_n)) is at most 2**n kappa_n**-(p-1) on the critical branch
    and c 2**(ap n - (1-ap) kappa_n) below it (Phi_r(x) <= min(x, r**-(p-1))).
    The function returns None at an N where its closed form does not hold yet.
    """
    C, beta, gamma = kappa.C, kappa.beta, kappa.gamma
    if e.is_critical:
        # majorant m_n = C**-(p-1) n**-sigma 2**(s n)
        lead = -e.pm1_f * LogValue.from_fraction(C).log2
        sigma, s = float(beta * (e.p - 1)), 1 - (e.p - 1) * gamma
        if s == 0:  # sigma > 1: sum_{n >= N} n**-sigma <= N**-sigma + N**(1-sigma)/(sigma-1)
            def remainder(N: int) -> float:
                return _log2_up(lead, -sigma * math.log2(N), math.log2(1 + N / (sigma - 1)))
            return remainder
        s = float(s)
        growth = max(0.0, -sigma)

        def remainder(N: int) -> float | None:
            # m_{n+1}/m_n = 2**s (1 + 1/n)**-sigma <= rho_N for every n >= N;
            # both addends are below |s| wherever rho_N < 1
            log2_rho = s + growth * math.log1p(1 / N) / _LN2 + 2.0 ** -40 * (1 - s)
            if log2_rho >= 0:
                return None
            return _log2_up(
                lead, -sigma * math.log2(N), s * N, -math.log2(-math.expm1(log2_rho * _LN2))
            )
        return remainder

    ap, b = e.ap, 1 - e.ap
    kernel = _kernel(e)
    log2_c = kernel.c.value.log2
    if gamma == 0 and beta == 1:
        # f(n) = ap n - b C n is linear: a geometric series of ratio 2**(ap - bC) < 1
        slope = ap - b * C

        def remainder(N: int) -> float:
            return _log2_up(log2_c, float(slope * N), -math.log2(-math.expm1(float(slope) * _LN2)))
        return remainder
    # g'' = g ((beta/x + gamma ln 2)**2 - beta/x**2), so g is convex wherever
    # gamma x ln 2 >= sqrt(beta) - beta: everywhere for beta <= 0 or beta >= 1
    # (gamma >= 0), and for 0 < beta < 1 (then gamma > 0) from x = 1/(2 gamma) on,
    # as sqrt(beta) - beta <= 1/4 < (ln 2)/2.  On that range the increments of
    # f(n) = ap n - b g(n) never increase, so from any N where the increment is
    # negative, sum_{n >= N} 2**f(n) <= 2**f(N) / (1 - 2**(f(N+1) - f(N))).
    convex_from = math.ceil(1 / (2 * gamma)) if 0 < beta < 1 else 1
    statistic = kernel.statistic  # f(N) <= statistic(N, kappa_N - 1), rounded once

    def remainder(N: int) -> float | None:
        if N < convex_from:
            return None
        # kappa_n - 1 < g(n) <= kappa_n bounds f(N) and its increment from above, exactly
        k0, k1 = kappa.rule(N), kappa.rule(N + 1)
        step = ap - b * (k1 - k0 - 1)
        f = statistic(N, k0 - 1)
        if step >= 0 or f is None:  # None: f(N) is beyond the double range
            return None
        return _log2_up(log2_c, f, -math.log2(-math.expm1(float(step) * _LN2)))
    return remainder


def _tail_upper(kappa: _Kappa, e: Exponents, start: int) -> LogValue | None:
    """Proven upper bound on sum_{n >= start} cap(D(n, kappa_n)) for a Zero family.

    Sums the exact terms n = start .. N-1 and adds the closed-form remainder
    R(N).  The window closes once R(N) <= 2**-40 times the partial sum, or
    after ``_WINDOW`` terms; None when R has no closed form by then.  Table
    entries at or past N are added exactly (R already bounds the rule there,
    and a table entry only adds a term).  Terms come from the pair's kernel.
    """
    remainder, log2_cap = _remainder(kappa, e), _kernel(e).log2_cap
    total = LogValue.zero()
    for N in range(start, start + _WINDOW):
        rem = remainder(N)
        if rem is not None and N > start and rem <= total.log2 - 40.0:
            break
        total = total + LogValue.from_log2(log2_cap(N, kappa.lookup(N)))
    else:
        N = start + _WINDOW
        rem = remainder(N)
        if rem is None:
            return None
    for n, k in kappa.table.items():
        if n >= N:
            total = total + LogValue.from_log2(log2_cap(n, k))
    total = total + LogValue.from_log2(rem)
    # cap_component's log2 is good to about 1e-13 plus a few ulps of its
    # magnitude, and each of the window's additions loses half an ulp:
    # raising log2 by 2**-29 multiplies by more than 1 + 2**-30, and
    # 2**-40 |log2| covers the ulps of a log2 too large for that margin to show
    return LogValue.from_log2(total.log2 + 2.0 ** -29 + 2.0 ** -40 * abs(total.log2))


def capacity_bounds(
    spec: SequenceSpec, e: Exponents, n_max: int
) -> tuple[CapacityReport, CapacityReport | None]:
    """Lower bound for the first n_max components and proven upper bound for the limsup set.

    Lower: the largest single component capacity cap(D(n, kappa_n)) over
    n <= n_max.  By monotonicity of capacity it is a lower bound for
    cap(union_{n <= n_max} D(n, kappa_n)), not for the limsup set.

    Upper: the limsup set lies in union_{n >= n_max} D(n, kappa_n), so by
    subadditivity its capacity is at most the tail sum from n_max, which is
    bounded by exact terms plus a closed-form remainder.  ``None`` when the
    verdict, decided from (C, beta, gamma) with no trace, is not Zero (the
    series diverges, so no tail sum bounds anything), and for the rare Zero
    family whose majorant does not start to decay within the exact window.
    ``n_max`` is an int of at most 10 000, as in ``comparability_report``;
    the lower bound's loop grows with it.
    """
    if type(n_max) is not int or not (1 <= n_max <= 10_000):
        raise DomainError(f"n_max must be an int with 1 <= n_max <= 10000, got {n_max!r}")
    kappa, ns = _Kappa(spec), range(1, n_max + 1)
    _check_kappa_bits(kappa, 1, n_max)
    best = LogValue.from_log2(max(map(_kernel(e).log2_cap, ns, kappa.values(ns))))
    lower = CapacityReport(best, Method.CLOSED_FORM, BoundKind.LOWER)
    if _decide(kappa.C, kappa.beta, kappa.gamma, e)[0] is not Outcome.ZERO:
        return lower, None
    tail = _tail_upper(kappa, e, n_max)
    upper = None if tail is None else CapacityReport(tail, Method.CLOSED_FORM, BoundKind.UPPER)
    return lower, upper


def comparability_report(
    e: Exponents, n_range: tuple[int, int], spec: SequenceSpec
) -> dict:
    """Ratio of component capacities to the branch comparison quantity.

    The comparison quantity 2**s, s the run-set kernel's statistic
    (2**n * kappa**-(p-1) on the critical branch, 2**(ap*n - (1-ap)*kappa) on
    the subcritical one), is clamped at 1 before dividing: capacities never
    exceed 1, and the clamped quantity is the two-sided comparable proxy, so
    the ratio stays in a fixed band.  The kappas of the range come from one
    range lookup, and ``_Kernel.rows`` builds the rows and ratio range in one
    loop: the ratio is cap where s >= 0, elsewhere it is factored from cap's
    sums, so no logs of size n or kappa enter a difference.
    """
    lo, hi = n_range
    if type(lo) is not int or type(hi) is not int or not (1 <= lo <= hi <= 10_000):
        raise DomainError(f"n range must be ints with 1 <= lo <= hi <= 10000, got {n_range!r}")
    ns, family = range(lo, hi + 1), _Kappa(spec)
    _check_kappa_bits(family, lo, hi)
    return _kernel(e).rows(ns, family.values(ns))


# ----------------------------------------------------------------------
# Dimension bracket
# ----------------------------------------------------------------------

class DimensionBracket(Record):
    _fields = ("lower", "upper", "points")

    def __init__(self, lower: Fraction, upper: Fraction, points: tuple[dict, ...]):
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "points", points)

    def to_json(self) -> dict:
        return {
            "lower": str(self.lower),
            "upper": str(self.upper),
            "points": list(self.points),
        }


def dimension_profile(
    spec: SequenceSpec, grid: Iterable[tuple[RationalLike, RationalLike]]
) -> DimensionBracket:
    """Bracket the Hausdorff dimension from verdicts over an exponent grid.

    The family is normalized to (C, beta, gamma) once, and each grid point
    is decided from it, without ``classify``'s evidence or trace.
    Lower endpoint: the largest 1 - a*p whose point classifies Positive.
    Upper endpoint: the largest 1 - a*p whose point does not classify Zero.
    The endpoints agree whenever no grid point is Indeterminate.  Both
    default to 0 for an all-Zero grid (dimension is nonnegative); an empty
    grid is rejected, since it gives no evidence for any bracket.
    """
    coefficients = _coefficients(spec)
    lower = upper = Fraction(0)
    points = []
    for a_like, p_like in grid:
        e = Exponents(a_like, p_like)
        outcome, condition, _ = _decide(*coefficients, e)
        co_dim = 1 - e.ap
        if outcome is Outcome.POSITIVE:
            lower = max(lower, co_dim)
        if outcome is not Outcome.ZERO:
            upper = max(upper, co_dim)
        points.append(
            {
                "a": str(e.a),
                "p": str(e.p),
                "one_minus_ap": str(co_dim),
                "outcome": outcome.value,
                "condition": condition,
            }
        )
    if not points:
        raise DomainError("empty exponent grid: no point to bracket the dimension from")
    return DimensionBracket(lower, upper, tuple(points))


# ----------------------------------------------------------------------
# JSON wire format
# ----------------------------------------------------------------------

def spec_to_json(spec: SequenceSpec) -> dict:
    """The family's name, then each of its ``_fields``: rationals as strings, m as an int."""
    if not isinstance(spec, (Growth, Custom)):
        raise DomainError(f"unknown sequence family: {spec!r}")

    def encode(name: str):
        value = getattr(spec, name)
        if name in ("table", "tail_rule"):
            return [list(entry) for entry in value] if name == "table" else spec_to_json(value)
        return value if name == "m" else str(value)
    return {"family": spec._family} | {name: encode(name) for name in spec._fields}


def spec_from_json(data: Mapping) -> SequenceSpec:
    """Read a decoded sequence spec; a missing, malformed or stray field raises DomainError naming it."""
    if not isinstance(data, Mapping):
        raise DomainError("sequence spec JSON must be an object")
    family = str(data.get("family", "")).lower()

    def parse(name: str):
        """Field ``name`` of the class's ``_fields``: m an integer, the table as given, a tail rule a spec."""
        if name not in data:
            raise DomainError(f"{family} sequence spec needs the field {name!r}")
        value = data[name]
        if name == "m":
            return _integral(value, "field 'm' of the geometric sequence spec")
        if name in ("table", "tail_rule"):
            return value if name == "table" else spec_from_json(value)
        try:
            return as_fraction(value)
        except DomainError as exc:
            raise DomainError(f"field {name!r} of the {family} sequence spec: {exc}") from exc

    if family not in _FAMILIES:
        raise DomainError(f"unknown sequence family: {family!r}")
    cls = _FAMILIES[family]
    if stray := [key for key in data if key != "family" and key not in cls._fields]:
        raise DomainError(f"{family} sequence spec takes no field {', '.join(map(repr, stray))}")
    return cls(*map(parse, cls._fields))
