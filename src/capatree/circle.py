"""Circle-side companion: binary run lengths, the tangent product, the circle's
capacity in closed form, and Riesz potentials by singularity-aware quadrature.

Binary expansions of rationals are computed by exact long division, so
run-length statistics and the doubling orbit 2**n x mod 1 never suffer
floating-point drift.  Potentials integrate against the chord-distance
kernel (2*sin(pi*s))**(a-1); its endpoint singularities are integrable for
0 < a < 1 and are handled by splitting at the singular point and using a
power-law endpoint rule on the touching pieces.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, DyadicTangentPole
from .exponents import Exponents, RationalLike, Record, _set, as_fraction


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first use.

    scipy takes about a second to import, and most callers never integrate.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _is_dyadic(x: Fraction) -> bool:
    den = x.denominator
    return den & (den - 1) == 0


class DigitStream(Record):
    """Binary digits of a point of [0, 1).

    Exact streams come from rationals (eventually periodic, computed by
    long division); finite streams carry only the digits given and are
    censored beyond them.  Digits are indexed from 1.
    """

    _fields = ("preamble", "cycle", "dyadic", "value")  # cycle is empty for finite (censored) streams

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
        dyadic = _is_dyadic(x)
        digits: list[int] = []
        seen: dict[int, int] = {}
        rem = x.numerator
        den = x.denominator
        while rem and rem not in seen:
            seen[rem] = len(digits)
            rem *= 2
            digits.append(rem // den)
            rem %= den
        if rem == 0:
            return cls(tuple(digits), (0,), True, x)
        start = seen[rem]
        return cls(tuple(digits[:start]), tuple(digits[start:]), dyadic, x)

    @classmethod
    def from_digits(cls, digits: Sequence[int]) -> "DigitStream":
        digits = tuple(int(d) for d in digits)
        if any(d not in (0, 1) for d in digits):
            raise DomainError("digits must be 0 or 1")
        return cls(digits, (), False, None)

    @property
    def finite(self) -> bool:
        return not self.cycle

    @property
    def horizon(self) -> int | None:
        return len(self.preamble) if self.finite else None

    def digit(self, n: int) -> int:
        """The n-th binary digit (1-indexed)."""
        if n < 1:
            raise DomainError(f"digits are indexed from 1, got {n}")
        idx = n - 1
        if idx < len(self.preamble):
            return self.preamble[idx]
        if self.finite:
            raise DomainError(f"digit {n} lies beyond the finite stream")
        return self.cycle[(idx - len(self.preamble)) % len(self.cycle)]


class RunLength(Record):
    """s_n for one position: the maximal run starting at n, minus one.

    ``infinite`` marks runs that never terminate (constant tails of dyadic
    rationals); ``censored`` marks runs still alive at the horizon of a
    finite stream, in which case ``value`` is the observed lower bound.
    """

    _fields = ("n", "value", "infinite", "censored")

    def __init__(self, n: int, value: int, infinite: bool = False, censored: bool = False):
        _set(self, "n", n)
        _set(self, "value", value)
        _set(self, "infinite", infinite)
        _set(self, "censored", censored)

    def to_json(self) -> dict:
        out: dict = {"n": self.n, "s": "inf" if self.infinite else self.value}
        if self.censored:
            out["censored"] = True
        return out


def run_lengths(stream: DigitStream, count: int) -> list[RunLength]:
    """s_n for n = 1..count, with count at most 10 000.

    Exact streams are scanned until the run breaks or provably never does
    (one full cycle beyond the preamble with no change of digit).  Finite
    streams are scanned to their horizon, censoring still-alive runs.
    """
    if count < 1:
        raise DomainError(f"need count >= 1, got {count}")
    if count > 10_000:
        raise DomainError(f"need count <= 10000, got {count}")
    horizon = len(stream.preamble)
    if stream.finite and count > horizon:
        raise DomainError(f"stream has {horizon} digits, cannot report n up to {count}")
    out: list[RunLength] = []
    for n in range(1, count + 1):
        d = stream.digit(n)
        # an exact stream's run is infinite iff it survives one whole cycle
        # past the preamble (after that the digits repeat verbatim)
        limit = horizon if stream.finite else max(n, horizon) + len(stream.cycle) + 1
        j = n + 1
        while j <= limit and stream.digit(j) == d:
            j += 1
        if j <= limit:
            out.append(RunLength(n, j - 1 - n))
        elif stream.finite:
            out.append(RunLength(n, horizon - n, censored=True))
        else:
            out.append(RunLength(n, 0, infinite=True))
    return out


def membership_score(stream: DigitStream, count: int) -> float:
    """Finite-horizon proxy max_{n <= count} s_n / 2**n over uncensored entries.

    Membership in the limsup set is a tail property, so no finite horizon
    decides it; this score only witnesses lower bounds.  Dyadic rationals
    score infinity outright (their constant tail is an infinite run).
    """
    if stream.dyadic:
        return math.inf
    best = 0.0
    for rl in run_lengths(stream, count):
        if rl.infinite:
            return math.inf
        if rl.censored:
            continue
        best = max(best, math.ldexp(rl.value, -rl.n))  # 0.0 once 2**-n underflows
    return best


def product_identity(x: RationalLike, n_terms: int) -> tuple[float, float]:
    """Partial tangent product vs the squared-sine closed form.

    Accumulates sum_{n < N} 2**-n * log|tan(pi * (2**n x mod 1))| with the
    orbit advanced in exact rational arithmetic, and returns
    (exp(partial sum), (2 sin(pi x))**2).  Dyadic x hits a tangent pole.
    """
    x = as_fraction(x)
    if not (0 < x < 1):
        raise DomainError(f"need x in (0, 1), got {x}")
    if _is_dyadic(x):
        raise DyadicTangentPole(f"{x} is a dyadic rational; the product hits a pole")
    if not (1 <= n_terms <= 64):
        raise DomainError(f"need 1 <= N <= 64, got {n_terms}")
    den = x.denominator
    rem = x.numerator
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
        if depth < 0:
            raise DomainError(f"depth must be >= 0, got {depth}")
        values = tuple(float(v) for v in values)
        if len(values) != 2 ** depth:
            raise DomainError(f"need {2 ** depth} arc values at depth {depth}, got {len(values)}")
        if any(v < 0 or not math.isfinite(v) for v in values):
            raise DomainError("density values must be finite and nonnegative")
        _set(self, "depth", depth)
        _set(self, "values", values)

    def integral(self) -> float:
        return math.fsum(self.values) / len(self.values)

    def value_at(self, t: float) -> float:
        idx = min(int((t % 1.0) * len(self.values)), len(self.values) - 1)
        return self.values[idx]

    @classmethod
    def constant(cls, value: float, depth: int = 0) -> "DyadicDensity":
        return cls(depth, (float(value),) * 2 ** depth)

    @classmethod
    def indicator(cls, lo_arc: int, hi_arc: int, depth: int) -> "DyadicDensity":
        return cls(depth, [1.0 if lo_arc <= i < hi_arc else 0.0 for i in range(2 ** depth)])

    def to_json(self) -> dict:
        return {"depth": self.depth, "values": list(self.values)}

    @classmethod
    def from_json(cls, data) -> "DyadicDensity":
        return cls(int(data["depth"]), data["values"])


def _kernel_piece(s0: float, s1: float, a: float, epsrel: float) -> tuple[float, float]:
    """Integral of (2 sin(pi s))**(a-1) over [s0, s1] within [0, 1].

    Endpoint singularities (s = 0 or 1) are peeled off with an algebraic
    weight; interior pieces use plain adaptive quadrature.
    """
    am1 = a - 1.0

    def smooth_left(s: float) -> float:
        # kernel * s**(1-a) == (2 sin(pi s) / s)**(a-1)
        return (2.0 * math.sin(math.pi * s) / s) ** am1 if s > 0 else (2.0 * math.pi) ** am1

    def smooth_right(s: float) -> float:
        u = 1.0 - s
        return (2.0 * math.sin(math.pi * u) / u) ** am1 if u > 0 else (2.0 * math.pi) ** am1

    def kernel(s: float) -> float:
        return (2.0 * math.sin(math.pi * s)) ** am1

    touches_left = s0 <= 1e-15
    touches_right = s1 >= 1.0 - 1e-15
    if touches_left and touches_right:

        def both(s: float) -> float:
            return smooth_left(s) * (1.0 - s) ** (1.0 - a) if s <= 0.5 else smooth_right(s) * s ** (1.0 - a)

        return quad(both, 0.0, 1.0, weight="alg", wvar=(am1, am1), epsabs=0.0, epsrel=epsrel)
    if touches_left:
        return quad(smooth_left, 0.0, s1, weight="alg", wvar=(am1, 0.0), epsabs=0.0, epsrel=epsrel)
    if touches_right:
        return quad(smooth_right, s0, 1.0, weight="alg", wvar=(0.0, am1), epsabs=0.0, epsrel=epsrel)
    return quad(kernel, s0, s1, epsabs=0.0, epsrel=epsrel, limit=200)


def _check_a(a: Fraction) -> float:
    if not (0 < a < 1):
        raise DomainError(f"Riesz exponent must satisfy 0 < a < 1, got {a}")
    return float(a)


def riesz_potential(
    f: DyadicDensity, y: RationalLike | float, a: RationalLike, rel_tol: float = 1e-8
) -> float:
    """Potential of a dyadic-arc density at the point y.

    Integrates f(t) * (2|sin(pi (y - t))|)**(a-1) dt over the circle using
    the substitution s = t - y, which places the (integrable) kernel
    singularities exactly at the endpoints s = 0 and s = 1.
    """
    a_f = _check_a(as_fraction(a))
    y_f = float(as_fraction(y)) % 1.0 if not isinstance(y, float) else y % 1.0
    n_arcs = len(f.values)
    breaks = sorted({(k / n_arcs - y_f) % 1.0 for k in range(n_arcs)} | {0.0, 1.0})
    total = 0.0
    piece_tol = rel_tol * 0.1
    for s0, s1 in zip(breaks, breaks[1:]):
        if s1 - s0 < 1e-14:
            continue
        density = f.value_at(y_f + 0.5 * (s0 + s1))
        if density == 0.0:
            continue
        val, _err = _kernel_piece(s0, s1, a_f, piece_tol)
        total += density * val
    return total


def kernel_integral(a: RationalLike, rel_tol: float = 1e-10) -> tuple[float, float]:
    """integral over [0,1] of (2 sin(pi t))**(a-1) dt, with a rounding bound.

    This is the potential of the unit density at any point (rotation
    invariance makes it y-free).  It is Gamma(a) / Gamma((a+1)/2)**2 (the sine
    power integral and the duplication formula).  Sampled against mpmath it
    errs by at most about 10 ulps (near a = 1, from ``math.lgamma``); the bound
    allows 32.  The closed form meets any tolerance quadrature could, so
    ``rel_tol`` does not change the value.
    """
    a_f = _check_a(as_fraction(a))
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
