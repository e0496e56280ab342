import math
from fractions import Fraction

from capatree import Exponents, LogValue

# the six (a, p) pairs of acceptance criterion 3
PAIRS = [
    Exponents(ap / p, p)
    for p in (Fraction(3, 2), Fraction(2), Fraction(3))
    for ap in (Fraction(1), Fraction(1, 2))
]


def rel_diff(u, v) -> float:
    """Relative difference of two positive quantities given as LogValue or float."""
    lu = u.log2 if isinstance(u, LogValue) else math.log2(u)
    lv = v.log2 if isinstance(v, LogValue) else math.log2(v)
    return abs(math.expm1((lu - lv) * math.log(2.0)))


def phi_composition_exponents(n: int, kappa: int, e: Exponents) -> list[float]:
    """log2 of each Phi index in the unrolled recursion for D(n, kappa).

    The first n factors come from the branching levels, the remaining kappa
    from the forced-run levels; their plain sum is sigma.  Each exponent is
    formed exactly in rationals and rounded once.
    """
    q = e.p_prime - 1
    b = 1 - e.ap
    out = [float(q * ((n + 1 - m) + (m - 1) * b)) for m in range(1, n + 1)]
    out.extend(float(q * (m - 1) * b) for m in range(n + 1, n + kappa + 1))
    return out


def sigma_direct(n: int, kappa: int, e: Exponents) -> LogValue:
    """sigma by direct log-domain summation of the composition indices."""
    total = LogValue.zero()
    for exponent in phi_composition_exponents(n, kappa, e):
        total = total + LogValue.from_log2(exponent)
    return total
