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
