"""Circle-side companion: binary run lengths, the tangent product, the circle's
capacity in closed form, and Riesz potentials from the kernel's antiderivative.

Digit streams are exact: the binary expansion of a rational is computed by
long division as a preamble and a repeating cycle, so run lengths (each one
finite or provably infinite) and the doubling orbit 2**n x mod 1 never
suffer floating-point drift or a finite horizon.  Potentials integrate
against the chord-distance kernel (2*sin(pi*s))**(a-1), integrable for
0 < a < 1, through its antiderivative in closed form (an incomplete beta
function summed as a power series), so its endpoint singularities need no
special handling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, DyadicTangentPole
from .exponents import Exponents, RationalLike, Record, _set, as_fraction


_DIGIT_BUDGET = 2**16  # digits one DigitStream may hold: the cycle of 1/q can be q - 1 digits long


class DigitStream(Record):
    """Binary digits of a rational point of [0, 1), computed by long division.

    The digits are the ``preamble`` followed by the ``cycle`` repeated for
    ever; a dyadic rational's cycle is (0,).  Digits are indexed from 1.
    ``from_rational`` raises DomainError past ``_DIGIT_BUDGET`` digits
    (preamble and one cycle), as its time and memory grow with them.
    """

    _fields = ("preamble", "cycle", "dyadic", "value")

    def __init__(self, preamble: tuple[int, ...], cycle: tuple[int, ...], dyadic: bool,
                 value: Fraction | None = None):
        _set(self, "preamble", preamble)
        _set(self, "cycle", cycle)
        _set(self, "dyadic", dyadic)
        _set(self, "value", value)

    @classmethod
    def from_rational(cls, x: RationalLike) -> "DigitStream":
        x = as_fraction(x)
        if not (0 <= x <= 1):
            raise DomainError(f"need x in [0, 1], got {x}")
        x = x % 1  # 1 wraps to 0 on the circle
        rem, den, digits, cycle_rem = x.numerator, x.denominator, bytearray(), None
        start = (den & -den).bit_length() - 1  # den = 2**start * odd: the cycle starts after digit start
        while rem and rem != cycle_rem:
            if len(digits) == _DIGIT_BUDGET:
                raise DomainError(f"x has more than {_DIGIT_BUDGET} binary digits before its cycle ends")
            if len(digits) == start:
                cycle_rem = rem
            rem *= 2
            digits.append(rem // den)
            rem %= den
        if rem == 0:  # only a dyadic rational's division terminates
            return cls(tuple(digits), (0,), True, x)
        return cls(tuple(digits[:start]), tuple(digits[start:]), False, x)

    def digit(self, n: int) -> int:
        """The n-th binary digit (1-indexed)."""
        if n < 1:
            raise DomainError(f"digits are indexed from 1, got {n}")
        idx = n - 1
        if idx < len(self.preamble):
            return self.preamble[idx]
        return self.cycle[(idx - len(self.preamble)) % len(self.cycle)]


class RunLength(Record):
    """s_n for one position: the maximal run starting at n, minus one.

    ``infinite`` marks runs that never terminate (constant tails of dyadic
    rationals).
    """

    _fields = ("n", "value", "infinite")

    def __init__(self, n: int, value: int, infinite: bool = False):
        _set(self, "n", n)
        _set(self, "value", value)
        _set(self, "infinite", infinite)

    def to_json(self) -> dict:
        return {"n": self.n, "s": "inf" if self.infinite else self.value}


def run_lengths(stream: DigitStream, count: int) -> list[RunLength]:
    """s_n for n = 1..count, with count at most 10 000.

    One backward pass over the first max(count, |preamble|) + |cycle| + 1
    digits: the run from n ends at the first later digit that differs, and
    a run that reaches the end of the scan is infinite, since it has
    survived one whole cycle past the preamble (after that the digits
    repeat verbatim).
    """
    if type(count) is not int or count < 1:
        raise DomainError(f"need an int count >= 1, got {count!r}")
    if count > 10_000:
        raise DomainError(f"need count <= 10000, got {count}")
    preamble, cycle = stream.preamble, stream.cycle
    size = max(count, len(preamble)) + len(cycle) + 1
    digits = preamble + cycle * -(-(size - len(preamble)) // len(cycle))
    out: list[RunLength] = []
    end = None  # 0-based index of the first digit after digit i that differs from it
    for i in range(size - 2, -1, -1):
        if digits[i] != digits[i + 1]:
            end = i + 1
        if i < count:
            out.append(RunLength(i + 1, 0, infinite=True) if end is None else RunLength(i + 1, end - 1 - i))
    return out[::-1]


def membership_score(stream: DigitStream, count: int) -> float:
    """Finite-horizon proxy max_{n <= count} s_n / 2**n.

    Membership in the limsup set is a tail property, so no finite horizon
    decides it; this score only witnesses lower bounds.  Dyadic rationals
    score infinity outright (their constant tail is an infinite run); no
    other rational has an infinite run, as its cycle holds both digits.
    """
    if stream.dyadic:
        return math.inf
    return max(math.ldexp(rl.value, -rl.n) for rl in run_lengths(stream, count))  # 0.0 once 2**-n underflows


def product_identity(x: RationalLike, n_terms: int) -> tuple[float, float]:
    """Partial tangent product vs the squared-sine closed form.

    Accumulates sum_{n < N} 2**-n * log|tan(pi * (2**n x mod 1))| with the
    orbit advanced in exact rational arithmetic, and returns
    (exp(partial sum), (2 sin(pi x))**2).  Dyadic x hits a tangent pole.
    A denominator of at most 1022 bits keeps pi * rem below 2**1024.
    """
    x = as_fraction(x)
    den, rem = x.denominator, x.numerator
    if not (0 < x < 1):
        raise DomainError(f"need x in (0, 1), got {x}")
    if den & (den - 1) == 0:
        raise DyadicTangentPole(f"{x} is a dyadic rational; the product hits a pole")
    if den.bit_length() > 1022:
        raise DomainError(f"need a denominator of at most 1022 bits, got {den.bit_length()}")
    if type(n_terms) is not int or not (1 <= n_terms <= 64):
        raise DomainError(f"need an int N with 1 <= N <= 64, got {n_terms!r}")
    log_sum = 0.0
    for n in range(n_terms):
        t = abs(math.tan(math.pi * rem / den))
        log_sum += math.log(t) * 2.0 ** (-n)
        rem = (rem * 2) % den
    rhs = (2.0 * math.sin(math.pi * float(x))) ** 2
    return math.exp(log_sum), rhs


# ----------------------------------------------------------------------
# Riesz potentials on the circle
# ----------------------------------------------------------------------

class DyadicDensity(Record):
    """Piecewise-constant density on the 2**depth dyadic arcs of [0, 1)."""

    _fields = ("depth", "values")

    def __init__(self, depth: int, values: Sequence[float]):
        if type(depth) is not int or depth < 0:
            raise DomainError(f"depth must be an int >= 0, got {depth!r}")
        values = tuple(float(v) for v in values)
        if len(values).bit_length() != depth + 1 or len(values) & (len(values) - 1):  # != 2**depth, unformed
            raise DomainError(f"need 2**{depth} arc values at depth {depth}, got {len(values)}")
        if any(v < 0 or not math.isfinite(v) for v in values):
            raise DomainError("density values must be finite and nonnegative")
        _set(self, "depth", depth)
        _set(self, "values", values)

    @classmethod
    def constant(cls, value: float, depth: int = 0) -> "DyadicDensity":
        return cls(depth, (float(value),) * len(_arcs(depth)))

    @classmethod
    def indicator(cls, lo_arc: int, hi_arc: int, depth: int) -> "DyadicDensity":
        return cls(depth, [1.0 if lo_arc <= i < hi_arc else 0.0 for i in _arcs(depth)])


def _arcs(depth: int) -> range:
    """range(2**depth) for the builders, checked first: a potential over 2**20 arcs already takes seconds."""
    if type(depth) is not int or not 0 <= depth <= 20:
        raise DomainError(f"a built density needs an int depth in [0, 20], got {depth!r}")
    return range(2 ** depth)


def _beta_series(x: float, alpha: float, beta: float) -> float:
    """x**-alpha B_x(alpha, beta) = sum_n (1-beta)_n x**n / (n! (alpha+n)), for 0 <= x <= 1/2;
    the terms are positive and fall like 2**-n, so at most about 55 are summed."""
    term, total, n = 1.0, 1.0 / alpha, 0
    while term > 1e-17 * total:
        term *= (n + 1 - beta) * x / (n + 1)
        n += 1
        total += term / (alpha + n)
    return total


def riesz_potential(
    f: DyadicDensity, y: RationalLike | float, a: RationalLike, rel_tol: float = 1e-8
) -> float:
    """Potential of a dyadic-arc density at the point y.

    The integral of f(t) (2|sin(pi (t - y))|)**(a-1) dt over the circle is
    sum_j f_j (F(t_(j+1) - y) - F(t_j - y)) over the arcs [t_j, t_(j+1)], with F
    the kernel's antiderivative, so the singularity at t = y needs no special
    case.  On [0, 1/4], F(s) = 2**(a-2)/pi B_u(a/2, 1/2), u = sin(pi s)**2; on
    [1/4, 1/2] it is K/2 - 2**(a-2)/pi B_(1-u)(1/2, a/2), K the kernel integral,
    so the series only runs at u <= 1/2.  The kernel is even and symmetric about
    1/2, so F(-s) = -F(s) and F(1-s) = K - F(s).  Each edge value is kept as
    m K/2 plus a remainder anchored at s = 0, +-1/2 or +-1, so the K/2 parts
    cancel exactly between edges with the same anchor, and an arc's
    difference loses about |remainder|/|dF| ulps.  Against a 30-digit
    reference the relative error measured at most 3.7e-15 on random densities
    up to depth 8 with a in [1/10, 99/100]; at depth 10 and a = 1/100 it was
    2.8e-16 on the arc opposite y, but 2.5e-11 on the arc a quarter turn from
    y, where F is near K/2 yet anchored at 0.  ``rel_tol`` is unused.
    """
    if isinstance(y, float) and not math.isfinite(y):
        raise DomainError(f"need a finite y, got y={y}")
    k = kernel_integral(a)[0]
    a_f = float(as_fraction(a))
    scale = 2.0 ** (a_f - 2.0) / math.pi

    def half(s: float) -> tuple[int, float]:  # F on [0, 1/2] as (m, rest), F = m K/2 + rest
        if s <= 0.25:
            sin = math.sin(math.pi * s)
            return 0, scale * sin ** a_f * _beta_series(sin * sin, 0.5 * a_f, 0.5)
        cos = math.sin(math.pi * (0.5 - s))  # keeps the bits of cos(pi s) near 1/2
        return 1, -scale * cos * _beta_series(cos * cos, 0.5, 0.5 * a_f)

    def antiderivative(s: float) -> tuple[int, float]:  # F on [-1, 1] as (m, rest)
        sign, r = (1, s) if s >= 0 else (-1, -s)
        if r <= 0.5:
            m, rest = half(r)
        else:  # F(r) = K - F(1 - r)
            m, rest = half(1.0 - r)
            m, rest = 2 - m, -rest
        return sign * m, sign * rest

    y_f = float(as_fraction(y)) % 1.0 if not isinstance(y, float) else y % 1.0
    n_arcs = len(f.values)
    edges = [antiderivative(j / n_arcs - y_f) for j in range(n_arcs + 1)]
    return math.fsum(v * ((m_hi - m_lo) * 0.5 * k + (hi - lo))
                     for v, (m_hi, hi), (m_lo, lo) in zip(f.values, edges[1:], edges))


def kernel_integral(a: RationalLike, rel_tol: float = 1e-10) -> tuple[float, float]:
    """integral over [0,1] of (2 sin(pi t))**(a-1) dt, with a rounding bound.

    This is the potential of the unit density at any point (rotation
    invariance makes it y-free).  It is Gamma(a) / Gamma((a+1)/2)**2 (the sine
    power integral and the duplication formula).  Sampled against mpmath it
    errs by at most about 10 ulps (near a = 1, from ``math.lgamma``); the bound
    allows 32.  The closed form meets any tolerance quadrature could, so
    ``rel_tol`` does not change the value.
    """
    a = as_fraction(a)
    if not (0 < a < 1):
        raise DomainError(f"Riesz exponent must satisfy 0 < a < 1, got {a}")
    a_f = float(a)
    lg_a, lg_half = math.lgamma(a_f), math.lgamma((a_f + 1.0) / 2.0)
    value = math.exp(lg_a - 2.0 * lg_half)
    return value, 32.0 * math.ulp(1.0) * (1.0 + abs(lg_a) + 2.0 * abs(lg_half)) * value


def circle_full_capacity(e: Exponents, rel_tol: float = 1e-10) -> float:
    """Riesz (a,p)-capacity of the whole circle.

    The equilibrium density of a rotation-invariant problem is constant, so
    the capacity is (integral of the kernel)**(-p); ``rel_tol`` is unused.
    """
    integral, _ = kernel_integral(e.a, rel_tol)
    return integral ** (-e.p_f)
