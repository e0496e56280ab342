"""Discrete (a,p)-capacity on the dyadic tree.

Everything here runs in the log2 domain.  The building block is the
one-step combination map

    Phi_r(x) = x / (1 + r * x**(p'-1))**(p-1),

which satisfies the semigroup law Phi_r(Phi_s(x)) = Phi_{r+s}(x) and the
scaling identity Phi_r(lambda x) = lambda * Phi_{lambda**q r}(x) for any
lambda > 0, with q = p'-1.  In normalized form a node's value is
Phi_1(lambda * (left + right)) with lambda = 2**(ap-1), the sum of its two
children's values.  A chain of k one-child nodes above a value y therefore
composes to

    lambda**k * Phi_{S_k}(y),   S_k = sum_{j=1..k} lambda**(j q),

where S_k = k on the critical branch a*p = 1 and a geometric sum below it.
So the capacity of a finite union of cylinders costs one Phi evaluation
per edge of the compressed trie of its generators (branch nodes and
generators only), walked bottom-up in one pass over the sorted generators;
and the capacity of a run set D(n, kappa) collapses further, to a single
Phi at a geometric-sum index sigma.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ConvergenceError, DomainError
from .exponents import Exponents, LogValue, rel_error
from .tree import CylinderSet

_LN2 = math.log(2.0)


class Method(enum.Enum):
    RECURSION = "recursion"
    CLOSED_FORM = "closed_form"
    FIXED_POINT = "fixed_point"


class BoundKind(enum.Enum):
    EXACT = "exact"
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class CapacityReport:
    value: LogValue
    method: Method
    bound_kind: BoundKind

    def to_json(self) -> dict:
        return {
            "value_log2": None if self.value.is_zero else self.value.log2,
            "is_zero": self.value.is_zero,
            "method": self.method.value,
            "bound_kind": self.bound_kind.value,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "CapacityReport":
        value = (
            LogValue.zero()
            if data["is_zero"]
            else LogValue.from_log2(float(data["value_log2"]))
        )
        return cls(value, Method(data["method"]), BoundKind(data["bound_kind"]))


def _log2_1p_exp2(t: float) -> float:
    """log2(1 + 2**t), stable across the whole float range of t."""
    if t >= 0:
        return t + math.log1p(2.0 ** (-t)) / _LN2
    return math.log1p(2.0 ** t) / _LN2


def _log2_exp2m1(y: float) -> float:
    """log2(2**y - 1) for y > 0, stable for both tiny and large y."""
    if y <= 0:
        raise DomainError(f"need a positive exponent, got {y}")
    if y > 54:
        # 2**y - 1 and 2**y agree to the last ulp here.
        return y
    return math.log2(math.expm1(y * _LN2))


def phi_apply(r: LogValue, x: LogValue, e: Exponents) -> LogValue:
    """Evaluate Phi_r(x) in the log domain.

    Phi_0(x) = x, Phi_r(0) = 0, and the result never exceeds x.
    """
    if x.is_zero:
        return LogValue.zero()
    if r.is_zero:
        return x
    t = r.log2 + e.q_f * x.log2
    return LogValue.from_log2(x.log2 - e.pm1_f * _log2_1p_exp2(t))


def phi_fixed_point_iterate(
    e: Exponents,
    start: LogValue,
    steps: int | None = None,
    rel_tol: float = 1e-13,
    max_steps: int = 100_000,
) -> LogValue:
    """Iterate c -> Phi_1(2**ap * c).

    With ``steps`` given, performs exactly that many iterations (the
    depth-``steps`` truncated-tree value when started from 1).  Otherwise
    iterates until the relative change drops below ``rel_tol``.
    """
    two_ap = LogValue.from_log2(e.ap_f)
    one = LogValue.one()
    c = start
    count = steps if steps is not None else max_steps
    for _ in range(count):
        nxt = phi_apply(one, two_ap * c, e)
        if steps is None and rel_error(nxt, c) < rel_tol:
            return nxt
        c = nxt
    if steps is None:
        raise ConvergenceError("fixed-point iteration did not settle within budget")
    return c


@functools.cache
def full_tree_capacity(e: Exponents) -> CapacityReport:
    """Capacity of the whole boundary: the positive fixed point of c = Phi_1(2**ap c).

    Solving the fixed-point equation gives the closed form
    c = 2**(-ap) * (2**(ap*(p'-1)) - 1)**(p-1); the iteration from 1 is run
    as an internal consistency check.
    """
    y = float(e.ap * (e.p_prime - 1))
    log2_c = -e.ap_f + e.pm1_f * _log2_exp2m1(y)
    value = LogValue.from_log2(log2_c)
    iterated = phi_fixed_point_iterate(e, LogValue.one())
    if rel_error(value, iterated) > 1e-10:
        raise ConvergenceError(
            f"fixed point and closed form disagree for {e}: "
            f"{value!r} vs {iterated!r}"
        )
    return CapacityReport(value, Method.FIXED_POINT, BoundKind.EXACT)


def truncated_tree_capacity(e: Exponents, depth: int) -> LogValue:
    """Capacity of the depth-N tree with every depth-N leaf required.

    Each leaf contributes its own weight (a one-node shifted problem), so in
    normalized form the leaf value is 1 and each level up applies
    c -> Phi_1(2**ap c).  The sequence is nonincreasing in N and converges
    to the full-tree constant.
    """
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    return phi_fixed_point_iterate(e, LogValue.one(), steps=depth)


def _sweep(cyl: CylinderSet, generator_value: LogValue, e: Exponents) -> LogValue:
    """Bottom-up two-child recursion, walked over the compressed trie of ``cyl``.

    Every generator takes the normalized value ``generator_value``, a
    missing sibling contributes zero, and a node's value is
    Phi_1(lambda * (left + right)) with lambda = 2**(ap-1).  A chain of k
    one-child nodes above a value y therefore lifts it to
    lambda**k * Phi_{S_k}(y) with S_k = sum_{j=1..k} lambda**(jq), q = p'-1
    (module docstring), so only the edges of the compressed trie cost a
    Phi evaluation.

    The trie is never materialised.  Its branch nodes sit at the longest
    common prefixes of neighbouring generators in sorted order, so one pass
    with a stack builds it as the Cartesian tree of that LCP array: each
    entry is (join, depth, log2 value) for a finished subtree whose root
    lies at ``depth`` and which meets the entry below it at a branch of
    depth ``join``.  A branch closes once the next LCP is shallower than
    it; its two subtrees are lifted to depth join+1, added, and lifted one
    more level.  Every value is positive, so the loop runs on log2 floats.
    """
    generators = cyl.generators
    if not generators:
        return LogValue.zero()
    s = e.ap_f - 1.0  # log2 lambda
    q = e.q_f
    pm1 = e.pm1_f
    qs = q * s  # log2 lambda**q
    chain_lengths = range(1, max(map(len, generators)) + 1)
    # log2 S_k for every chain length k a lift can need; k = 0 never looks it up
    if e.is_critical:
        log2_index = [math.nan] + [math.log2(k) for k in chain_lengths]
    else:
        den = math.log2(-math.expm1(qs * _LN2))
        log2_index = [math.nan] + [
            qs + (math.log2(-math.expm1(k * qs * _LN2)) - den) for k in chain_lengths
        ]

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


def capacity_recursive(cyl: CylinderSet, e: Exponents) -> CapacityReport:
    """Exact capacity of a finite union of cylinders via the two-child recursion.

    Generators root full shifted subtrees, so their normalized value is the
    full-tree constant.  The empty set has capacity zero.
    """
    if cyl.is_empty():
        return CapacityReport(LogValue.zero(), Method.RECURSION, BoundKind.EXACT)
    value = _sweep(cyl, full_tree_capacity(e).value, e)
    return CapacityReport(value, Method.RECURSION, BoundKind.EXACT)


def finite_tree_capacity(depth: int, target_leaves: Sequence[str], e: Exponents) -> LogValue:
    """Capacity of a depth-N problem whose targets are given leaves.

    Each target is a one-node base case with normalized value 1.  Targets
    must be binary words of length ``depth``; the empty target set has
    capacity zero.
    """
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    for leaf in target_leaves:
        if len(leaf) != depth:
            raise DomainError(f"target {leaf!r} does not have length {depth}")
    return _sweep(CylinderSet.from_words(target_leaves), LogValue.one(), e)


# ----------------------------------------------------------------------
# Run sets D(n, kappa): composition indices, sigma, and the closed form.
# ----------------------------------------------------------------------

def _exact_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError as exc:
        raise DomainError("exponent exceeds the double-precision log2 range") from exc


def phi_composition_exponents(n: int, kappa: int, e: Exponents) -> list[float]:
    """log2 of each Phi index in the unrolled recursion for D(n, kappa).

    The first n factors come from the branching levels, the remaining kappa
    from the forced-run levels; their plain sum is sigma.
    """
    if n < 0 or kappa < 1:
        raise DomainError(f"need n >= 0 and kappa >= 1, got n={n}, kappa={kappa}")
    if n + kappa > 100_000:
        raise DomainError("composition list too long; use sigma_closed_form")
    q = e.p_prime - 1
    b = 1 - e.ap
    out = [_exact_float(q * ((n + 1 - m) + (m - 1) * b)) for m in range(1, n + 1)]
    out.extend(_exact_float(q * (m - 1) * b) for m in range(n + 1, n + kappa + 1))
    return out


def sigma_direct(n: int, kappa: int, e: Exponents) -> LogValue:
    """sigma by direct log-domain summation of the composition indices."""
    total = LogValue.zero()
    for exponent in phi_composition_exponents(n, kappa, e):
        total = total + LogValue.from_log2(exponent)
    return total


def sigma_closed_form(n: int, kappa: int, e: Exponents) -> LogValue:
    """The two geometric sums in closed form, per branch of a*p.

    Critical branch:  (2**(nq) - 1)/(1 - 2**(1-p')) + kappa.
    Subcritical:      (2**(nq) - 2**(nqb)) / (1 - 2**(-q*ap))
                      + (2**(qb(n+kappa)) - 2**(qbn)) / (2**(qb) - 1)
    with q = p'-1, b = 1-ap.  Numerator differences are evaluated as
    max-factored log1p terms so nothing overflows.
    """
    if n < 0 or kappa < 1:
        raise DomainError(f"need n >= 0 and kappa >= 1, got n={n}, kappa={kappa}")
    q = e.p_prime - 1
    if e.is_critical:
        branching = LogValue.zero()
        if n > 0:
            num = _log2_exp2m1(_exact_float(Fraction(n) * q))
            den = math.log2(-math.expm1(_exact_float(1 - e.p_prime) * _LN2))
            branching = LogValue.from_log2(num - den)
        run = LogValue.from_log2(math.log2(kappa))
        return branching + run
    b = 1 - e.ap
    branching = LogValue.zero()
    if n > 0:
        # 2**(nq) - 2**(nqb) = 2**(nq) * (1 - 2**(-nq*ap))
        hi = _exact_float(Fraction(n) * q)
        num = hi + math.log2(-math.expm1(_exact_float(-Fraction(n) * q * e.ap) * _LN2))
        den = math.log2(-math.expm1(_exact_float(-q * e.ap) * _LN2))
        branching = LogValue.from_log2(num - den)
    # 2**(qb(n+kappa)) - 2**(qbn) = 2**(qb(n+kappa)) * (1 - 2**(-qb*kappa))
    hi = _exact_float(q * b * (n + kappa))
    num = hi + math.log2(-math.expm1(_exact_float(-q * b * kappa) * _LN2))
    den = math.log2(math.expm1(_exact_float(q * b) * _LN2))
    run = LogValue.from_log2(num - den)
    return branching + run


def sigma(n: int, kappa: int, e: Exponents, verify: bool = False) -> LogValue:
    """Branch-appropriate closed form; optionally checked against direct summation."""
    value = sigma_closed_form(n, kappa, e)
    if verify:
        direct = sigma_direct(n, kappa, e)
        if rel_error(value, direct) > 1e-10:
            raise ConvergenceError(
                f"sigma closed form disagrees with direct summation at n={n}, kappa={kappa}"
            )
    return value


def cap_component(n: int, kappa: int, e: Exponents) -> CapacityReport:
    """Capacity of the run set D(n, kappa): 2**n * Phi_sigma(w * c).

    The base argument carries the weight w = 2**(-(n+kappa)(1-ap)) of the
    level where the forced run ends (the rooted subtree there contributes
    w*c, and unrolling the recursion keeps that factor inside Phi).  On
    the critical branch w = 1.  Exactness is checked against the explicit
    recursion in the test suite.
    """
    s = sigma_closed_form(n, kappa, e)
    c = full_tree_capacity(e).value
    base = LogValue.from_log2(c.log2 + _exact_float(-(n + kappa) * (1 - e.ap)))
    value = phi_apply(s, base, e)
    return CapacityReport(
        LogValue.from_log2(value.log2 + n), Method.CLOSED_FORM, BoundKind.EXACT
    )
