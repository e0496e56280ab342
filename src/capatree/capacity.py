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
So the capacity of a finite union of cylinders costs at most one Phi
evaluation per edge of the compressed trie of its generators (branch nodes
and generators only), walked bottom-up in one pass over the sorted
generators, whose loop computes each branch's depth as the join of two
neighbours; a repeated branch reuses its value.  The capacity of a run
set D(n, kappa) collapses further, to one Phi at an index sigma.

Every closed form here is one geometric sum

    G(k, t) = sum_{j=0..k-1} 2**(j t),

evaluated in log2 by ``_geometric``.  With q = p'-1, the depth-N
truncated tree and the whole boundary have

    truncated(N) = G(N+1, -apq)**-(p-1),   c = G(inf, -apq)**-(p-1),

and S_k = lambda**q * G(k, q log2 lambda); sigma is two such sums.
"""

from __future__ import annotations

import enum
import functools
import math
from itertools import chain, repeat
from typing import Sequence

from .errors import ConvergenceError, DomainError
from .exponents import Exponents, LogValue, Record, _set, rel_error
from .tree import CylinderSet, _check_run_set, _sorted_words

_LN2 = math.log(2.0)


class Method(enum.Enum):
    RECURSION = "recursion"
    CLOSED_FORM = "closed_form"
    FIXED_POINT = "fixed_point"


class BoundKind(enum.Enum):
    EXACT = "exact"
    UPPER = "upper"
    LOWER = "lower"


class CapacityReport(Record):
    _fields = ("value", "method", "bound_kind")

    def __init__(self, value: LogValue, method: Method, bound_kind: BoundKind):
        _set(self, "value", value)
        _set(self, "method", method)
        _set(self, "bound_kind", bound_kind)

    def to_json(self) -> dict:
        return {
            "value_log2": None if self.value.is_zero else self.value.log2,
            "is_zero": self.value.is_zero,
            "method": self.method.value,
            "bound_kind": self.bound_kind.value,
        }


def _log2_1p_exp2(t: float) -> float:
    """log2(1 + 2**t), stable across the whole float range of t."""
    if t >= 0:
        return t + math.log1p(2.0 ** (-t)) / _LN2
    return math.log1p(2.0 ** t) / _LN2


def _times(k: int, x: float) -> float:
    """k * x for an integer k of any size; DomainError outside the double range."""
    if x == 0:
        return 0.0
    try:
        out = k * x
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise DomainError("exponent exceeds the double-precision log2 range")
    return out


def _geometric(t: float):
    """k -> log2 G(k, t) = log2 sum_{j=0..k-1} 2**(j t), for one t <= 0.

    The k-independent part is computed here once.  k is an int >= 1, or inf
    when t < 0.  A sum with t > 0 is 2**((k-1) t) G(k, -t), which callers
    factor out so that nothing overflows.  The term 2**(k t) is dropped once
    it underflows, which gives the k = inf limit without converting k to a
    float; a k too large for a float otherwise raises DomainError.
    """
    if t == 0:
        def log2_sum(k: int | float) -> float:
            if k == math.inf:
                raise DomainError("a geometric sum with ratio 1 has no limit")
            return math.log2(k)  # exact for an int of any size
        return log2_sum
    den = math.log2(-math.expm1(t * _LN2))
    cut = 1100 / -t  # past it 2**(k t) < 2**-1100 rounds to 0

    def log2_sum(k: int | float) -> float:
        if k == math.inf or k > cut:
            return -den
        return math.log2(-math.expm1(_times(k, t) * _LN2)) - den
    return log2_sum


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


@functools.cache
def full_tree_capacity(e: Exponents) -> CapacityReport:
    """Capacity of the whole boundary: the positive fixed point of c = Phi_1(2**ap c).

    Solving the fixed-point equation gives c = G(inf, -apq)**-(p-1)
    (module docstring); one application of the map checks it.
    """
    value = LogValue.from_log2(-e.pm1_f * _geometric(-e.ap_f * e.q_f)(math.inf))
    image = phi_apply(LogValue.one(), LogValue.from_log2(value.log2 + e.ap_f), e)
    if rel_error(image, value) > 1e-10:
        raise ConvergenceError(
            f"closed form is not a fixed point for {e}: {value!r} maps to {image!r}"
        )
    return CapacityReport(value, Method.FIXED_POINT, BoundKind.EXACT)


def truncated_tree_capacity(e: Exponents, depth: int) -> LogValue:
    """Capacity of the depth-N tree with every depth-N leaf required.

    Each leaf contributes its own weight (a one-node shifted problem), so in
    normalized form the leaf value is 1 and each level up applies
    c -> Phi_1(2**ap c).  N levels of that map compose to
    G(N+1, -apq)**-(p-1) (module docstring), which is nonincreasing in N
    and converges to the full-tree constant.
    """
    if type(depth) is not int or depth < 0:
        raise DomainError(f"depth must be an int >= 0, got {depth!r}")
    return LogValue.from_log2(-e.pm1_f * _geometric(-e.ap_f * e.q_f)(depth + 1))


def _sweep(cyl: CylinderSet, generator_value: LogValue, e: Exponents) -> LogValue:
    """Bottom-up two-child recursion, walked over the compressed trie of ``cyl``.

    Every generator takes the normalized value ``generator_value``, a
    missing sibling contributes zero, and a node's value is
    Phi_1(lambda * (left + right)) with lambda = 2**(ap-1).  A chain of k
    one-child nodes above a value y therefore lifts it to
    lambda**k * Phi_{S_k}(y) with S_k = sum_{j=1..k} lambda**(jq), q = p'-1
    (module docstring), so only the edges of the compressed trie cost a
    Phi evaluation.

    The trie is never materialised.  Its branch nodes sit where neighbouring
    generators in sorted order join, so one pass with a stack builds it as
    the Cartesian tree of those join depths.  Each entry is (join, depth,
    log2 value) for a finished subtree whose root lies at ``depth`` and
    which meets the entry below it at a branch of depth ``join``; the top
    entry is kept in locals and pushed when the next generator arrives.  A
    generator's join with the previous one is m minus the bit length of the
    XOR of their first m = min(len) digits read as binary integers, so keys
    are read one at a time and no word is padded (time and memory linear in
    the digits).  A branch closes once the next join is shallower than it:
    its two subtrees are lifted to depth join+1, added, and lifted one more
    level; a sentinel join of -1 closes the rest.  Values are positive, so
    the loop runs on log2 floats.  Every generator takes the same value, so
    a branch's value depends only on its two (value, chain length) pairs; a
    dict local to the call computes each distinct branch once, by the same
    float operations, so the result is bit-identical.
    """
    generators = cyl.generators
    if not generators:
        return LogValue.zero()
    s = e.ap_f - 1.0  # log2 lambda
    q = e.q_f
    pm1 = e.pm1_f
    qs = q * s  # log2 lambda**q
    log2_sum = _geometric(qs)
    log2_index = {}  # chain length k -> log2 S_k = qs + log2 G(k, qs), filled on first use

    def lift(v: float, k: int) -> float:
        """log2 of the value k one-child levels above a node of log2 value v."""
        if k == 0:
            return v
        index = log2_index.get(k)
        if index is None:
            index = log2_index[k] = qs + log2_sum(k)
        return k * s + v - pm1 * _log2_1p_exp2(index + q * v)

    top = leaf = generator_value.log2
    first, rest = generators[0], generators[1:]
    top_join, top_depth, top_key = -1, len(first), int(first or "0", 2)  # the root "" has key 0
    branches = {}  # (left, kl, right, kr) -> log2 value of the branch
    stack = []
    # (depth, key) of each further generator; the sentinel joins every word at -1
    for depth, key in chain(zip(map(len, rest), map(int, rest, repeat(2))), ((-1, 0),)):
        # the top is the previous generator; the two words share exactly their first join digits
        join = (depth - (key ^ top_key >> (top_depth - depth)).bit_length() if depth <= top_depth
                else top_depth - (top_key ^ key >> (depth - top_depth)).bit_length())
        top_key = key
        while top_join > join:
            # close the branch at depth b where the top subtree meets the one below it
            b = top_join
            top_join, left_depth, left = stack.pop()
            kl, kr = left_depth - b - 1, top_depth - b - 1
            branch = (left, kl, top, kr)
            w = branches.get(branch)
            if w is None:
                u = lift(left, kl)
                v = lift(top, kr)
                hi, lo = (u, v) if u >= v else (v, u)
                w = branches[branch] = lift(hi + math.log1p(2.0 ** (lo - hi)) / _LN2, 1)
            top_depth, top = b, w
        stack.append((top_join, top_depth, top))
        top_join, top_depth, top = join, depth, leaf
    ((_, depth, v),) = stack
    return LogValue.from_log2(lift(v, depth))


def capacity_recursive(cyl: CylinderSet, e: Exponents) -> CapacityReport:
    """Exact capacity of a finite union of cylinders via the two-child recursion.

    Generators root full shifted subtrees, so their normalized value is the
    full-tree constant.  The empty set has capacity zero.
    """
    value = _sweep(cyl, full_tree_capacity(e).value, e)
    return CapacityReport(value, Method.RECURSION, BoundKind.EXACT)


def finite_tree_capacity(depth: int, target_leaves: Sequence[str], e: Exponents) -> LogValue:
    """Capacity of a depth-N problem whose targets are given leaves.

    Each target is a one-node base case with normalized value 1.  Targets
    must be binary words of length ``depth``; the empty target set has
    capacity zero.
    """
    if type(depth) is not int or depth < 0:
        raise DomainError(f"depth must be an int >= 0, got {depth!r}")
    leaves = _sorted_words(target_leaves)  # strings, read once even from an iterator
    if set(map(len, leaves)) - {depth}:
        leaf = next(w for w in leaves if len(w) != depth)
        raise DomainError(f"target {leaf!r} does not have length {depth}")
    return _sweep(CylinderSet.from_words(leaves), LogValue.one(), e)


# ----------------------------------------------------------------------
# Run sets D(n, kappa): sigma and the closed form.
# ----------------------------------------------------------------------

def sigma_closed_form(n: int, kappa: int, e: Exponents) -> LogValue:
    """sigma, the Phi index of D(n, kappa), as two geometric sums.

    Unrolling the recursion for D(n, kappa) composes n branching-level
    indices 2**(q(n - j ap)), j < n, and kappa run-level indices
    2**(qb(n + j)), j < kappa, with q = p'-1 and b = 1-ap.  So

        sigma = 2**(qn) G(n, -q ap) + 2**(qb(n+kappa-1)) G(kappa, -qb),

    the run sum read from its top term down.  On the critical branch
    (b = 0) this is (2**(nq) - 1)/(1 - 2**-q) + kappa.
    """
    _check_run_set(n, kappa)
    q = e.q_f
    qb = q * (1.0 - e.ap_f)
    run = LogValue.from_log2(_times(n + kappa - 1, qb) + _geometric(-qb)(kappa))
    if n == 0:
        return run
    return LogValue.from_log2(_times(n, q) + _geometric(-q * e.ap_f)(n)) + run


def _component_kernel(e: Exponents):
    """(log2_cap, log2_cap_ratio) of one exponent pair: (n, kappa) -> log2 cap(D(n, kappa)), as in
    ``cap_component``, and (n, kappa) -> that log2 paired with the log2 of the ratio
    cap(D(n, kappa)) 2**(b kappa - ap n), both from one evaluation of the sums.

    Every constant that does not depend on (n, kappa) is computed once, here,
    so a caller that evaluates many components builds one kernel per query.
    The kernels do not check their arguments; each returns a finite log2 or
    raises DomainError.  Cap's three terms are 2**x, x = q(b kappa - ap n), times
    2**-qb G(kappa, -qb), G(inf, -q ap) and 2**-x G(n, -q ap); as (p-1)q = 1 the
    ratio is the sum of those cofactors to the power -(p-1), so x cancels exactly.
    """
    q = e.q_f
    v = e.ap.denominator
    ap_num = e.ap.numerator
    vb = v - ap_num  # v * b
    q_v = q / v
    qb = q * (1.0 - e.ap_f)
    run_sum = _geometric(-qb)  # G(kappa, -qb)
    branch_sum = _geometric(-q * e.ap_f)  # G(n, -q ap)
    full = branch_sum(math.inf)
    pm1 = e.pm1_f

    def log2_power(t0: float, t1: float, t2: float) -> float:  # log2 (2**t0 + 2**t1 + 2**t2)**-(p-1)
        hi = max(t0, t1, t2)
        out = -pm1 * (hi + math.log2(2.0 ** (t0 - hi) + 2.0 ** (t1 - hi) + 2.0 ** (t2 - hi)))
        if not math.isfinite(out):
            raise DomainError("component capacity exceeds the double-precision log2 range")
        return out

    def log2_cap(n: int, kappa: int) -> float:
        run = vb * (kappa - 1) - ap_num * n  # v * (b(kappa-1) - ap n)
        t2 = branch_sum(n) if n else -math.inf  # G(0, .) = 0 drops out of the sum
        return log2_power(_times(run, q_v) + run_sum(kappa), _times(run + vb, q_v) + full, t2)

    def log2_cap_ratio(n: int, kappa: int) -> tuple[float, float]:
        run = vb * (kappa - 1) - ap_num * n
        x, rs = _times(run + vb, q_v), run_sum(kappa)
        t2 = branch_sum(n) if n else -math.inf
        return log2_power(_times(run, q_v) + rs, x + full, t2), log2_power(rs - qb, full, t2 - x)
    return log2_cap, log2_cap_ratio


def cap_component(n: int, kappa: int, e: Exponents) -> CapacityReport:
    """Capacity of the run set D(n, kappa): 2**n * Phi_sigma(w * c).

    The base argument carries the weight w = 2**(-(n+kappa)(1-ap)) of the
    level where the forced run ends (the rooted subtree there contributes
    w*c, and unrolling the recursion keeps that factor inside Phi).  On
    the critical branch w = 1.  Since q(p-1) = 1 the value is
    (2**(-qn) sigma + 2**(-qn) (w c)**-q)**-(p-1), where with b = 1-ap

        2**(-qn) sigma = G(n, -q ap) + 2**(q(b(kappa-1) - ap n)) G(kappa, -qb),
        2**(-qn) (w c)**-q = 2**(q(b kappa - ap n)) G(inf, -q ap),

    as c**-q = G(inf, -q ap).  Both exponents are formed as exact integers
    over the denominator of ap, so no terms of size n cancel in floats.
    The formula lives in ``_component_kernel``; callers that evaluate many
    components of one exponent pair build that kernel once.  Exactness is
    checked against the explicit recursion in the test suite.
    """
    _check_run_set(n, kappa)
    value = LogValue.from_log2(_component_kernel(e)[0](n, kappa))
    return CapacityReport(value, Method.CLOSED_FORM, BoundKind.EXACT)
