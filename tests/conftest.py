import math
from fractions import Fraction

from capatree import Custom, DomainError, Exponents, LogValue, cap_component, kappa_value
from capatree.dobinski import _iroot_floor, to_growth

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


def kappa_reference(spec, n: int) -> int:
    """kappa_n as the package computed it before the integer fast path.

    Rebuilds the normalized family on every call and works in Fraction
    arithmetic, with an exact integer root where the value is irrational.
    """
    if n < 1:
        raise DomainError(f"sequences are indexed from n = 1, got n={n}")
    if isinstance(spec, Custom):
        for tn, tk in spec.table:
            if tn == n:
                return tk
        return kappa_reference(spec.tail_rule, n)
    g = to_growth(spec)
    exp2 = g.gamma * n
    if g.beta.denominator == 1 and exp2.denominator == 1:
        x = g.C * Fraction(n) ** int(g.beta) * Fraction(2) ** int(exp2)
        return max(1, -((-x.numerator) // x.denominator))
    L = math.lcm(g.beta.denominator, exp2.denominator)
    xl = g.C ** L * Fraction(n) ** int(g.beta * L) * Fraction(2) ** int(exp2 * L)
    a, b = xl.numerator, xl.denominator
    k = _iroot_floor(a // b, L)
    m = k if k >= 1 and k ** L * b >= a else k + 1
    return max(1, m)


def comparability_reference(e: Exponents, n_range: tuple[int, int], spec) -> dict:
    """``comparability_report`` as the package computed it before the run-set kernel.

    One public ``cap_component`` call and one ``kappa_reference`` lookup per
    row, and the subcritical exponent from Fraction arithmetic.
    """
    lo, hi = n_range
    if not (1 <= lo <= hi <= 10_000):
        raise DomainError(f"n range must satisfy 1 <= lo <= hi <= 10000, got {n_range}")
    rows = []
    ratio_min, ratio_max = math.inf, -math.inf
    for n in range(lo, hi + 1):
        kappa = kappa_reference(spec, n)
        cap = cap_component(n, kappa, e).value
        log2_kappa = math.log2(kappa)
        if e.is_critical:
            proxy_log2 = n - float(e.p - 1) * log2_kappa
        else:
            try:
                proxy_log2 = float(e.ap * n - (1 - e.ap) * kappa)
            except OverflowError as exc:
                raise DomainError(
                    f"comparison exponent exceeds double range at n={n}"
                ) from exc
        ratio_log2 = cap.log2 - min(0.0, proxy_log2)
        ratio = 2.0 ** ratio_log2
        ratio_min = min(ratio_min, ratio)
        ratio_max = max(ratio_max, ratio)
        rows.append(
            {
                "n": n,
                "kappa": kappa if kappa < 2 ** 53 else None,
                "kappa_log2": log2_kappa,
                "cap_linear": 2.0 ** cap.log2 if abs(cap.log2) < 1020 else None,
                "cap_log2": cap.log2,
                "proxy_log2": proxy_log2,
                "ratio": ratio,
            }
        )
    return {"rows": rows, "ratio_min": ratio_min, "ratio_max": ratio_max}


def tail_sum_reference(spec, e: Exponents, start: int, count: int = 2001):
    """sum_{n = start .. start+count-1} cap(D(n, kappa_n)) in mpmath at 50 digits.

    Each term is (A + B + D)**-(p-1) with A = G(n, -q ap),
    B = 2**(q(b(kappa-1) - ap n)) G(kappa, -qb) and
    D = 2**(q(b kappa - ap n)) G(inf, -q ap), q = 1/(p-1), b = 1-ap, every
    power of two taken from its exact rational exponent.  The sum stops
    early once a term falls below 2**-10000.
    """
    import mpmath  # imported here so that only the tests that use it need it

    q = 1 / (e.p - 1)
    # q ap = A/D and q b = B/D, so every exponent is an integer over D
    D = math.lcm((q * e.ap).denominator, (q * (1 - e.ap)).denominator)
    A, B = int(q * e.ap * D), int(q * (1 - e.ap) * D)
    pm1 = e.p - 1
    with mpmath.workdps(50):
        roots = [mpmath.power(2, mpmath.mpf(j) / D) for j in range(D)]

        def pow2(k: int):  # 2**(k/D)
            return mpmath.ldexp(roots[k % D], k // D)

        def geometric(k: int, t: int):  # G(k, -t/D)
            return k if t == 0 else (1 - pow2(-k * t)) / (1 - pow2(-t))

        exponent = -(pm1.numerator if pm1.denominator == 1 else mpmath.mpf(pm1.numerator) / pm1.denominator)
        tiny = mpmath.ldexp(1, -10000)
        full = 1 / (1 - pow2(-A))
        total = mpmath.mpf(0)
        for n in range(start, start + count):
            kappa = kappa_value(spec, n)
            run = B * (kappa - 1) - A * n
            inner = geometric(n, A) + pow2(run) * geometric(kappa, B) + pow2(run + B) * full
            term = mpmath.power(inner, exponent)
            total += term
            if term < tiny:
                break
        return +total
