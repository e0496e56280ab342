import functools
import math
from fractions import Fraction
from typing import Mapping

from capatree import (
    Custom, CylinderSet, DomainError, Exponents, Geometric, Linear, LogValue, Power, cap_component, kappa_value,
)
from capatree.capacity import _LN2, _geometric, _log2_1p_exp2
from capatree.dobinski import _iroot_floor
from capatree.tree import validate_word

# the six (a, p) pairs of acceptance criterion 3
PAIRS = [
    Exponents(ap / p, p)
    for p in (Fraction(3, 2), Fraction(2), Fraction(3))
    for ap in (Fraction(1), Fraction(1, 2))
]


# words that int(w, 2) or str.isdigit accept but that are not over {0,1}
NON_BINARY_WORDS = ["0_1", " 01", "01\n", "+1", "-1", "\uff10\uff11", "0\u0661", "0\u00e9", "\ud800"]


def rel_diff(u, v) -> float:
    """Relative difference of two positive quantities given as LogValue or float."""
    lu = u.log2 if isinstance(u, LogValue) else math.log2(u)
    lv = v.log2 if isinstance(v, LogValue) else math.log2(v)
    return abs(math.expm1((lu - lv) * math.log(2.0)))


def rel_error(u: LogValue, v: LogValue) -> float:
    """|u/v - 1| with zero-aware semantics (inf when exactly one is zero)."""
    if u.is_zero and v.is_zero:
        return 0.0
    if u.is_zero or v.is_zero:
        return math.inf
    d = u.log2 - v.log2
    if abs(d) > 60:
        return math.inf
    return abs(math.expm1(d * _LN2))


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


def coefficients_reference(spec) -> tuple[Fraction, Fraction, Fraction]:
    """(C, beta, gamma) of a family's rule from the family's definition, not the package's normalization."""
    if isinstance(spec, Custom):
        return coefficients_reference(spec.tail_rule)
    if isinstance(spec, Geometric):
        return Fraction(1, spec.m), Fraction(0), Fraction(1)
    if isinstance(spec, Power):
        return spec.C, spec.beta, Fraction(0)
    if isinstance(spec, Linear):
        return spec.C, Fraction(1), Fraction(0)
    return spec.C, spec.beta, spec.gamma  # a Growth


def kappa_reference(spec, n: int) -> int:
    """kappa_n as the package computed it before the integer fast path.

    Normalizes the family from its definition on every call, works in Fraction
    arithmetic, with an exact integer root where the value is irrational.
    """
    if n < 1:
        raise DomainError(f"sequences are indexed from n = 1, got n={n}")
    if isinstance(spec, Custom):
        for tn, tk in spec.table:
            if tn == n:
                return tk
        return kappa_reference(spec.tail_rule, n)
    C, beta, gamma = coefficients_reference(spec)
    exp2 = gamma * n
    if beta.denominator == 1 and exp2.denominator == 1:
        x = C * Fraction(n) ** int(beta) * Fraction(2) ** int(exp2)
        return max(1, -((-x.numerator) // x.denominator))
    L = math.lcm(beta.denominator, exp2.denominator)
    xl = C ** L * Fraction(n) ** int(beta * L) * Fraction(2) ** int(exp2 * L)
    a, b = xl.numerator, xl.denominator
    k = _iroot_floor(a // b, L)
    m = k if k >= 1 and k ** L * b >= a else k + 1
    return max(1, m)


def comparability_reference(e: Exponents, n_range: tuple[int, int], spec) -> dict:
    """``comparability_report`` rows as the package computed them before the run-set kernel.

    One public ``cap_component`` call and one ``kappa_reference`` lookup per
    row, and the subcritical exponent from Fraction arithmetic.  The rows
    carry no ratio: ``ratio_reference`` gives it.
    """
    lo, hi = n_range
    if not (1 <= lo <= hi <= 10_000):
        raise DomainError(f"n range must satisfy 1 <= lo <= hi <= 10000, got {n_range}")
    rows = []
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
        rows.append(
            {
                "n": n,
                "kappa": kappa if kappa < 2 ** 53 else None,
                "kappa_log2": log2_kappa,
                "cap_linear": 2.0 ** cap.log2 if abs(cap.log2) < 1020 else None,
                "cap_log2": cap.log2,
                "proxy_log2": proxy_log2,
            }
        )
    return {"rows": rows}


def _exact_powers(e: Exponents):
    """(A, B, pow2, geometric, -(p-1)) with q ap = A/D and q b = B/D, q = 1/(p-1).

    pow2(k) = 2**(k/D) and geometric(k, t) = G(k, -t/D) are exact to the
    mpmath working precision of the call, for integers k of any size.
    """
    import mpmath  # imported here so that only the tests that use it need it

    q = 1 / (e.p - 1)
    # q ap = A/D and q b = B/D, so every exponent is an integer over D
    D = math.lcm((q * e.ap).denominator, (q * (1 - e.ap)).denominator)
    roots = [mpmath.power(2, mpmath.mpf(j) / D) for j in range(D)]

    def pow2(k: int):  # 2**(k/D)
        return mpmath.ldexp(roots[k % D], k // D)

    def geometric(k: int, t: int):  # G(k, -t/D)
        return k if t == 0 else (1 - pow2(-k * t)) / (1 - pow2(-t))

    pm1 = e.p - 1
    exponent = -(pm1.numerator if pm1.denominator == 1 else mpmath.mpf(pm1.numerator) / pm1.denominator)
    return int(q * e.ap * D), int(q * (1 - e.ap) * D), pow2, geometric, exponent


def tail_sum_reference(spec, e: Exponents, start: int, count: int = 2001):
    """sum_{n = start .. start+count-1} cap(D(n, kappa_n)) in mpmath at 50 digits.

    Each term is (A + B + D)**-(p-1) with A = G(n, -q ap),
    B = 2**(q(b(kappa-1) - ap n)) G(kappa, -qb) and
    D = 2**(q(b kappa - ap n)) G(inf, -q ap), q = 1/(p-1), b = 1-ap, every
    power of two taken from its exact rational exponent.  The sum stops
    early once a term falls below 2**-10000.
    """
    import mpmath

    with mpmath.workdps(50):
        A, B, pow2, geometric, exponent = _exact_powers(e)
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


def ratio_reference(e: Exponents, n: int, kappa: int) -> float:
    """The comparability ratio cap(D(n, kappa)) / min(1, 2**s), 60 digits, s the branch statistic.

    Below the critical line s = ap n - b kappa, and where 2**s < 1 the ratio is
    (2**-qb G(kappa, -qb) + G(inf, -q ap) + 2**(-q(b kappa - ap n)) G(n, -q ap))**-(p-1).
    On the critical branch 2**s = 2**n kappa**-(p-1), and where it is below 1 the
    ratio is (1 + (2**(qn) G(n, -q) + G(inf, -q)) / kappa)**-(p-1).  Elsewhere
    the ratio is cap itself, the term of ``tail_sum_reference``.
    """
    import mpmath

    with mpmath.workdps(60):
        A, B, pow2, geometric, exponent = _exact_powers(e)
        full = 1 / (1 - pow2(-A))
        if e.is_critical:
            pm1 = e.p - 1
            if 2 ** (n * pm1.denominator) < kappa ** pm1.numerator:  # 2**s < 1, decided exactly
                inner = 1 + (pow2(A * n) * geometric(n, A) + full) / kappa
            else:
                inner = geometric(n, A) + pow2(-A * n) * (kappa + full)
            return float(mpmath.power(inner, exponent))
        x = B * kappa - A * n  # D q (b kappa - ap n), over the denominator D of _exact_powers
        if x > 0:
            inner = pow2(-B) * geometric(kappa, B) + full + pow2(-x) * geometric(n, A)
        else:
            inner = geometric(n, A) + pow2(x - B) * geometric(kappa, B) + pow2(x) * full
        return float(mpmath.power(inner, exponent))


def log2_fraction(x: Fraction) -> float:
    """log2 of a positive Fraction of any size, from one correctly rounded quotient near 1."""
    shift = x.numerator.bit_length() - x.denominator.bit_length()
    num, den = x.numerator << max(0, -shift), x.denominator << max(0, shift)
    return shift + math.log2(num / den)


def half_two_sweep(words, leaf: Fraction) -> Fraction:
    """The two-child recursion at (a, p) = (1/2, 2) in exact rationals.

    There ap = 1, so lambda = 1, q = 1 and a node's value is Phi_1(l + r) with
    Phi_1(x) = x / (1 + x): every finite set's capacity is rational.  Each word
    of ``words`` roots a subtree of normalized value ``leaf``, a missing child
    counts 0.  A level where the two children differ adds their denominators'
    sizes, so denominators double in size per differing level: this serves
    small sets only, as a reference, never as an engine.
    """
    words = set(words)

    def value(prefix: str) -> Fraction:
        if prefix in words:
            return leaf
        if not any(w.startswith(prefix) for w in words):
            return Fraction(0)
        x = value(prefix + "0") + value(prefix + "1")
        return x / (1 + x)
    return value("")


def half_two_capacity(words) -> Fraction:
    """Exact capacity at (1/2, 2) of the cylinder set on ``words``: generators take c = 1/2."""
    return half_two_sweep(words, Fraction(1, 2))


def half_two_finite_tree(target_leaves) -> Fraction:
    """Exact capacity at (1/2, 2) of a finite-tree problem: each target leaf takes 1."""
    return half_two_sweep(target_leaves, Fraction(1))


def half_two_component(n: int, kappa: int) -> Fraction:
    """Exact cap(D(n, kappa)) at (1/2, 2): 2**n / (2**(n+1) + kappa)."""
    return Fraction(2 ** n, 2 ** (n + 1) + kappa)


def half_two_critical_ratio(n: int, kappa: int) -> Fraction:
    """Exact comparability ratio at (1/2, 2) for kappa >= 2**n: kappa / (2**(n+1) + kappa)."""
    assert kappa >= 2 ** n
    return Fraction(kappa, 2 ** (n + 1) + kappa)


def half_two_union(kappas: Mapping[int, int]) -> Fraction:
    """Exact U(N, M) = cap(union_{n=N..M} D(n, kappa_n)) at (1/2, 2), by a DP over (depth d, zero run r).

    ``kappas`` maps every n of [N, M] to kappa_n.  A node at depth d whose
    last r digits are zeros (and whose digit before them is a 1) can still
    meet D(n, kappa_n) only for n in [max(N, d - r), M]; it is full (value
    c = 1/2) once one of those n has n + kappa_n <= d, and empty once none is
    left.  Its children are (d + 1, r + 1) and (d + 1, 0), combined by
    Phi_1(x) = x / (1 + x) as in ``half_two_sweep``, so the value depends on
    (d, r) alone.  Denominators still double in size per level where the two
    children differ: this serves windows of a few levels, as a reference.
    """
    N, M = min(kappas), max(kappas)

    @functools.cache
    def value(d: int, r: int) -> Fraction:
        live = range(max(N, d - r), M + 1)
        if not live:
            return Fraction(0)
        if any(n <= d and n + kappas[n] <= d for n in live):
            return Fraction(1, 2)
        x = value(d + 1, r + 1) + value(d + 1, 0)
        return x / (1 + x)
    return value(0, 0)


def node_index(word: str) -> int:
    """Heap index of a word in the oracle's dense layout: 2**|w| - 1 + int(w, 2)."""
    return 2 ** len(word) - 1 + (int(word, 2) if word else 0)


def dense_witness(result) -> dict[str, float]:
    """An ``OracleResult``'s witness on every node of its tree, zeros included, keyed by word."""
    words = [format(i, f"0{d}b") if d else "" for d in range(result.depth + 1) for i in range(2 ** d)]
    return dict(zip(words, map(float, result.witness)))


def potential_eval(phi: Mapping[str, float], x: str) -> float:
    """Sum of phi over the root-to-x path, endpoints included."""
    validate_word(x)
    return sum(phi.get(x[:i], 0.0) for i in range(len(x) + 1))


def energy_eval(phi: Mapping[str, float], problem) -> float:
    """sum over the nodes of a ``FiniteProblem``'s tree of phi(x)**p * weight(x)."""
    w = problem.weight_array()
    p = problem.exponents.p_f
    total = 0.0
    for word, value in phi.items():
        if value < 0:
            raise DomainError(f"phi must be nonnegative, got {word!r}: {value}")
        if len(word) > problem.depth:
            raise DomainError(f"{word!r} lies outside the depth-{problem.depth} tree")
        total += value ** p * w[node_index(word)]
    return total


def sweep_reference(cyl: CylinderSet, generator_value: LogValue, e: Exponents) -> LogValue:
    """``capacity._sweep`` as the package computed it before branch reuse.

    One Python loop for the neighbour LCPs and one Phi evaluation per edge
    of the compressed trie, every branch computed afresh.  The body is kept
    verbatim, so the current sweep must match it bit for bit.
    """
    generators = cyl.generators
    if not generators:
        return LogValue.zero()
    s = e.ap_f - 1.0  # log2 lambda
    q = e.q_f
    pm1 = e.pm1_f
    qs = q * s  # log2 lambda**q
    # log2 S_k = qs + log2 G(k, qs) for every chain length k a lift can need;
    # k = 0 never looks it up
    log2_sum = _geometric(qs)
    log2_index = [math.nan] + [qs + log2_sum(k) for k in range(1, max(map(len, generators)) + 1)]

    def lift(v: float, k: int) -> float:
        """log2 of the value k one-child levels above a node of log2 value v."""
        if k == 0:
            return v
        return k * s + v - pm1 * _log2_1p_exp2(log2_index[k] + q * v)

    # Two neighbouring generators first differ at the highest set bit of the
    # XOR of their first m = min(len) digits, read as binary integers.
    depths = [len(g) for g in generators]
    keys = [int(g or "0", 2) for g in generators]
    lcps = []
    for a, la, b, lb in zip(keys, depths, keys[1:], depths[1:]):
        m = min(la, lb)
        lcps.append(m - ((a >> (la - m)) ^ (b >> (lb - m))).bit_length())
    leaf = generator_value.log2
    stack = []
    for depth, join, next_join in zip(depths, [-1] + lcps, lcps + [-1]):
        stack.append((join, depth, leaf))
        while stack[-1][0] > next_join:
            # close the branch at depth b where the top subtree meets the one below it
            b, right_depth, right = stack.pop()
            left_join, left_depth, left = stack[-1]
            u = lift(left, left_depth - b - 1)
            v = lift(right, right_depth - b - 1)
            hi, lo = (u, v) if u >= v else (v, u)
            stack[-1] = (left_join, b, lift(hi + math.log1p(2.0 ** (lo - hi)) / _LN2, 1))
    ((_, depth, v),) = stack
    return LogValue.from_log2(lift(v, depth))


def run_lengths_reference(stream, count: int) -> list[tuple[int, int, bool]]:
    """``circle.run_lengths`` as the package computed it before the one-pass scan.

    Digit by digit from each n, until the run breaks or provably never does
    (one full cycle beyond the preamble with no change of digit).  Each
    entry is the (n, value, infinite) fields of a ``RunLength``, as plain
    tuples keep a comparison over a hundred thousand cases quick.
    """
    horizon, period = len(stream.preamble), len(stream.cycle)
    # digit[j] is the j-th digit, from 1, up to the last one any scan below reads
    digit = (None,) + stream.preamble + stream.cycle * (max(count - horizon, 0) // period + 2)
    out = []
    for n in range(1, count + 1):
        d = digit[n]
        # a run is infinite iff it survives one whole cycle past the preamble
        # (after that the digits repeat verbatim)
        limit = max(n, horizon) + period + 1
        j = n + 1
        while j <= limit and digit[j] == d:
            j += 1
        out.append((n, j - 1 - n, False) if j <= limit else (n, 0, True))
    return out
