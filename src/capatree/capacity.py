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
neighbours; each branch is computed where it closes, by one kernel step
that adds its two children and lifts the sum one level, and a dense set of
one depth enters 8 leaves at a time, from a table.  The capacity of a run set
D(n, kappa) collapses further, to one Phi at an index sigma.

Every closed form here is one geometric sum

    G(k, t) = sum_{j=0..k-1} 2**(j t),

evaluated in log2 by ``_geometric``.  With q = p'-1, the depth-N
truncated tree and the whole boundary have

    truncated(N) = G(N+1, -apq)**-(p-1),   c = G(inf, -apq)**-(p-1),

and S_k = lambda**q * G(k, q log2 lambda); sigma is two such sums.  The
constants and closed forms of one pair (a, p) live in one cached kernel,
built on its first use and read by every later call at that pair.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from itertools import chain, compress, count, repeat
from typing import Iterable, Sequence

from .errors import ConvergenceError, DomainError
from .exponents import _LN2, Exponents, LogValue, Record, _set
from .tree import CylinderSet, _check_run_set, _leaves


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


_EXPONENT_RANGE = "exponent exceeds the double-precision log2 range"
_CAP_RANGE = "component capacity exceeds the double-precision log2 range"


def _times(k: int, x: float) -> float:
    """k * x for an integer k of any size; DomainError outside the double range."""
    if x == 0:
        return 0.0
    try:
        out = k * x
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise DomainError(_EXPONENT_RANGE)
    return out


def _geometric_terms(t: float) -> tuple[float, float]:
    """(den, cut) for one t < 0: log2 G(k, t) is -den past cut, else log2(-expm1(k t ln 2)) - den."""
    return math.log2(-math.expm1(t * _LN2)), 1100 / -t  # past cut 2**(k t) < 2**-1100 rounds to 0


def _geometric(t: float):
    """k -> log2 G(k, t) = log2 sum_{j=0..k-1} 2**(j t), for one t <= 0.

    k is an int >= 1, or inf when t < 0.  A sum with t > 0 is 2**((k-1) t)
    G(k, -t), which callers factor out so that nothing overflows.  The
    k-independent (den, cut) come from ``_geometric_terms``, as in the
    comparability rows: past cut = 1100/-t the term 2**(k t) underflows, so
    the sum is its k = inf limit, -den, and k is never converted to a float;
    below the cut |k t| <= 1100, so k t is formed directly.  ``Exponents``
    admits only pairs whose kernel sums have a finite cut.
    """
    log2, expm1 = math.log2, math.expm1
    if t == 0:
        def log2_sum(k: int | float) -> float:
            if k == math.inf:
                raise DomainError("a geometric sum with ratio 1 has no limit")
            return log2(k)  # exact for an int of any size
        return log2_sum
    den, cut = _geometric_terms(t)

    def log2_sum(k: int | float) -> float:
        if k > cut:  # inf too
            return -den
        return log2(-expm1(k * t * _LN2)) - den
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


class _Kernel:
    """The closed forms of one exponent pair; ``_kernel(e)`` builds one per pair, once.

    ``c`` is the full-tree report, and ``branch_sum`` and ``run_sum`` are
    k -> log2 G(k, -q ap) and log2 G(k, -qb), b = 1-ap.  ``lift(v, k)`` is the
    log2 value k one-child levels above a node of log2 value v (``_sweep``);
    the chain indices log2 S_k it fills on first use serve every later sweep
    at the pair, each formed by the same float operations.  ``branch(u, v)``,
    the walk's combine step, is lift(log2(2**u + 2**v), 1) for two children
    lifted to one level below the branch: the hi/lo log-sum and ``lift``'s
    float operations at k = 1 inlined, so it has their bits.  ``blocks(v)``,
    for generators of log2 value v (c or 1), gives per 8-leaf mask (bit r
    for leaf r) the depth below the block's root of its top node and that
    node's log2 value, all 255 built on the first call by ``_walk`` itself.

    ``log2_cap(n, kappa)`` is log2 cap(D(n, kappa)), as in ``cap_component``.
    ``statistic`` is the log2 s of the branch's comparison quantity, whose
    limsup sorts run sets: n - (p-1) log2 kappa on the critical branch, and
    below it the exact quotient (v ap n - v b kappa) / v, v the denominator of
    ap, rounded once (None past the double range).  ``rows(ns, kappas)``
    returns ``comparability_report``'s dict for the (n, kappa) pairs of the
    two iterables from one plain loop per branch, which builds each row dict
    and tracks the least and largest ratio cap 2**-min(0, s).  Both geometric
    sums (``_geometric_terms``) and the log-sums are inlined with the
    closures' bits; n = 0 gives no branch terms, a subcritical int past the
    double range raises the closures' DomainError, and a critical n stays
    below 2**1024.

    The closures do not check their arguments; the cap closures return a
    finite log2 or raise DomainError, and ``Exponents`` admits only pairs
    whose constants here are finite.  ``qb`` is q times the exact 1 - ap, so
    it keeps its bits next to the critical line.  Below the critical line
    cap's three terms are 2**x, x = -q s, times 2**-qb G(kappa, -qb),
    G(inf, -q ap) and 2**-x G(n, -q ap); as (p-1)q = 1 the ratio is the sum
    of those cofactors to the power -(p-1), so x cancels exactly.  On the
    critical branch the cofactors are 1, G(inf, -q)/kappa and
    2**(qn) G(n, -q)/kappa, with x = log2 kappa - qn formed as
    (E P - n Q)/P + log2(kappa / 2**E), E the bit length of kappa and
    p-1 = P/Q, so no terms of size n cancel in floats.
    """

    __slots__ = ("c", "branch_sum", "run_sum", "lift", "branch", "blocks", "log2_cap", "statistic", "rows")

    def __init__(self, e: Exponents):
        q, pm1, log2_lambda = e.q_f, e.pm1_f, e.ap_f - 1.0
        v, ap_num = e.ap.denominator, e.ap.numerator
        vb = v - ap_num  # v * b
        P, Q = (e.p - 1).numerator, (e.p - 1).denominator
        q_v, qb, qs, t_n = q / v, q * float(1 - e.ap), q * log2_lambda, -q * e.ap_f  # qs = log2 lambda**q; b exact
        self.run_sum = run_sum = _geometric(-qb)  # G(kappa, -qb)
        self.branch_sum = branch_sum = _geometric(t_n)  # G(n, -q ap)
        full = branch_sum(math.inf)
        (den_n, cut_n), (den_b, cut_b) = _geometric_terms(t_n), _geometric_terms(-qb) if qb else (0.0, math.inf)
        index_sum, log2_index = _geometric(qs), {}  # k -> log2 S_k = qs + log2 G(k, qs), filled on first use
        log2, expm1, isfinite, inf, no_terms = math.log2, math.expm1, math.isfinite, math.inf, -math.inf

        value = LogValue.from_log2(-pm1 * full)  # c = G(inf, -apq)**-(p-1); one application of the map checks it
        image = phi_apply(LogValue.one(), LogValue.from_log2(value.log2 + e.ap_f), e)
        if abs(image.log2 - value.log2) > 1e-10 / _LN2 + 4 * math.ulp(value.log2):  # 1e-10 relative plus 4 ulps
            raise ConvergenceError(f"closed form is not a fixed point for {e}: {value!r} maps to {image!r}")
        self.c = CapacityReport(value, Method.FIXED_POINT, BoundKind.EXACT)

        def lift(y: float, k: int) -> float:
            if k == 0:
                return y
            index = log2_index.get(k)
            if index is None:
                index = log2_index[k] = qs + index_sum(k)
            return k * log2_lambda + y - pm1 * _log2_1p_exp2(index + q * y)

        index_1, log1p = qs + index_sum(1), math.log1p

        def branch(u: float, v: float) -> float:  # lift(log2(2**u + 2**v), 1), _log2_1p_exp2 inlined
            y = u + log1p(2.0 ** (v - u)) / _LN2 if u >= v else v + log1p(2.0 ** (u - v)) / _LN2
            t = index_1 + q * y
            return log2_lambda + y - pm1 * (t + log1p(2.0 ** -t) / _LN2 if t >= 0 else log1p(2.0 ** t) / _LN2)

        def log2_cap(n: int, kappa: int) -> float:
            run = vb * (kappa - 1) - ap_num * n  # v * (b(kappa-1) - ap n)
            t2 = branch_sum(n) if n else no_terms  # G(0, .) = 0 drops out of the sum
            t0, t1 = _times(run, q_v) + run_sum(kappa), _times(run + vb, q_v) + full
            out = -pm1 * ((h := max(t0, t1, t2)) + log2(2.0 ** (t0 - h) + 2.0 ** (t1 - h) + 2.0 ** (t2 - h)))
            if not isfinite(out):
                raise DomainError(_CAP_RANGE)
            return out

        def statistic(n: int, kappa: int) -> float | None:
            if not vb:
                return n - pm1 * log2(kappa)
            try:
                return (ap_num * n - vb * kappa) / v  # int / int rounds once
            except OverflowError:
                return None

        def subcritical(ns: Iterable[int], kappas: Iterable[int]) -> dict:
            rows, low, high = [], inf, -inf
            for n, kappa in zip(ns, kappas):
                w = vb * kappa - ap_num * n  # v (b kappa - ap n) = -v s; the run term's exponent is q (w - vb) / v
                try:  # the sums inlined; an int past the double range raises
                    x, rs = w * q_v, -den_b if kappa > cut_b else log2(-expm1(kappa * -qb * _LN2)) - den_b
                    t2 = (-den_n if n > cut_n else log2(-expm1(n * t_n * _LN2)) - den_n) if n else no_terms
                    y = (w - vb) * q_v
                except OverflowError:
                    raise DomainError(_EXPONENT_RANGE) from None
                t0, t1 = y + rs, x + full
                h = t0 if t0 > t1 and t0 > t2 else t1 if t1 > t2 else t2  # max(t0, t1, t2), without a call
                cap = -pm1 * (h + log2(2.0 ** (t0 - h) + 2.0 ** (t1 - h) + 2.0 ** (t2 - h)))
                if not (isfinite(cap) and x < inf and no_terms < y):  # as y <= x, both are then finite
                    raise DomainError(_CAP_RANGE if x < inf and no_terms < y else _EXPONENT_RANGE)
                s, ratio = -w / v, cap  # (ap_num n - vb kappa) / v, as in statistic
                if s < 0:
                    t0, t2 = rs - qb, t2 - x
                    h = t0 if t0 > full and t0 > t2 else full if full > t2 else t2
                    ratio = -pm1 * (h + log2(2.0 ** (t0 - h) + 2.0 ** (full - h) + 2.0 ** (t2 - h)))
                    if not isfinite(ratio):
                        raise DomainError(_CAP_RANGE)
                rows.append({"n": n, "kappa": kappa if kappa < 2 ** 53 else None, "kappa_log2": log2(kappa),
                             "cap_linear": 2.0 ** cap if abs(cap) < 1020 else None, "cap_log2": cap,
                             "proxy_log2": s, "ratio": (ratio := 2.0 ** ratio)})
                low, high = ratio if ratio < low else low, ratio if ratio > high else high
            return {"rows": rows, "ratio_min": low, "ratio_max": high}

        def critical(ns: Iterable[int], kappas: Iterable[int]) -> dict:
            rows, low, high = [], inf, -inf
            for n, kappa in zip(ns, kappas):  # v = 1, run = -n and G(kappa, 0) = log2 kappa
                log2_kappa, x = log2(kappa), n * t_n  # x = -n q, and the branch sum's n t
                t2 = (-den_n if n > cut_n else log2(-expm1(x * _LN2)) - den_n) if n else no_terms
                s, t0, t1 = n - pm1 * log2_kappa, x + log2_kappa, x + full
                h = t0 if t0 > t1 and t0 > t2 else t1 if t1 > t2 else t2  # max(t0, t1, t2), without a call
                cap = ratio = -pm1 * (h + log2(2.0 ** (t0 - h) + 2.0 ** (t1 - h) + 2.0 ** (t2 - h)))
                if s < 0:
                    E = kappa.bit_length()  # x + log2 kappa, formed without cancelling terms of size n
                    t1, t2 = full - log2_kappa, t2 - ((E * P - n * Q) / P + log2(kappa / (1 << E)))
                    h = t1 if t1 > t2 and t1 > 0.0 else t2 if t2 > 0.0 else 0.0
                    ratio = -pm1 * (h + log2(2.0 ** -h + 2.0 ** (t1 - h) + 2.0 ** (t2 - h)))
                if not (no_terms < x and isfinite(cap) and isfinite(ratio)):  # x = -inf leaves cap finite
                    raise DomainError(_CAP_RANGE if no_terms < x else _EXPONENT_RANGE)
                rows.append({"n": n, "kappa": kappa if kappa < 2 ** 53 else None, "kappa_log2": log2_kappa,
                             "cap_linear": 2.0 ** cap if abs(cap) < 1020 else None, "cap_log2": cap,
                             "proxy_log2": s, "ratio": (ratio := 2.0 ** ratio)})
                low, high = ratio if ratio < low else low, ratio if ratio > high else high
            return {"rows": rows, "ratio_min": low, "ratio_max": high}
        tables = {}  # generator log2 value -> (tops, values), filled on first use

        def blocks(leaf: float) -> tuple[tuple, tuple]:
            if leaf not in tables:  # mask 0, an empty block, is never read
                tables[leaf] = tuple(zip((None, None), *(
                    _walk(((3, r, 3, leaf) for r in range(8) if mask >> r & 1), self) for mask in range(1, 256))))
            return tables[leaf]
        self.lift, self.branch, self.log2_cap, self.statistic, self.blocks = lift, branch, log2_cap, statistic, blocks
        self.rows = subcritical if vb else critical


_kernel = functools.cache(_Kernel)  # one kernel per exponent pair, for the life of the process


def full_tree_capacity(e: Exponents) -> CapacityReport:
    """Capacity of the whole boundary: the positive fixed point of c = Phi_1(2**ap c).

    Solving the fixed-point equation gives c = G(inf, -apq)**-(p-1)
    (module docstring); the pair's kernel forms it once, and one
    application of the map checks it.
    """
    return _kernel(e).c


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
    return LogValue.from_log2(-e.pm1_f * _kernel(e).branch_sum(depth + 1))


def _sweep(generators: Sequence[str], generator_value: LogValue, e: Exponents) -> LogValue:
    """Bottom-up two-child recursion, walked over the compressed trie of ``generators``.

    ``generators`` is a sorted antichain of words, such as a ``CylinderSet``'s
    generators or a finite problem's checked leaves.  Each takes the normalized
    value ``generator_value``, a missing sibling contributes zero, and a node's
    value is Phi_1(lambda * (left + right)) with lambda = 2**(ap-1).

    A generator enters the walk with its length and value, unless all have
    one length L >= 4 and there is one per 4 words of that length or more.
    Then they mark a bytearray of 2**L ASCII digits, read as one base-2
    integer whose bit i is leaf i.  Its little-endian bytes are the masks of
    the 8-leaf blocks; each nonempty block enters as one entry keyed at
    depth L-3, with its top node's depth and value from ``_Kernel.blocks``.
    The walk closes a block's branches before any above it, so that table,
    filled by the same walk on the block's leaves, moves no bit.  At
    L = 6 to 16 this path measured 5-15% faster than the plain walk with two
    leaves in every block, 30-45% faster with four, and 30-45% slower with
    one in every block, where random sets of one per 8 words break even; its
    bitmap, integer and masks take under 5 bytes per generator.  Its keys are
    parsed 4096 words at a time: a chunk's words, padded to 16, 32 or 64 bits,
    join into one base-2 integer whose native-order bytes a memoryview reads
    as keys, in under 50 bytes per word of the chunk.  Parsing and marking took
    110-150 ns per word at L = 10 to 18, 185-290 with one int() per word.
    """
    if not generators:
        return LogValue.zero()
    kernel, leaf, n, size = _kernel(e), generator_value.log2, len(generators), len(generators[0])
    if n == 1:  # the root "" has no integer key
        return LogValue.from_log2(kernel.lift(leaf, size))
    sizes = list(map(len, generators))
    if 4 <= size < (n << 2).bit_length() and sizes.count(size) == n:  # 2**size <= 4n, without forming 2**size
        marks = bytearray(b"0") * (1 << size)
        bits, code = (16, "H") if size <= 16 else (32, "I") if size <= 32 else (64, "Q")
        pad = "0" * (bits - size)
        for i in range(0, n, 4096):  # each chunk's keys as one integer of bits-bit fields
            chunk = generators[i:i + 4096]
            keys = int(pad.join(chunk), 2).to_bytes(len(chunk) * bits >> 3, sys.byteorder)
            for key in memoryview(keys).cast(code):
                marks[~key] = 49  # ord("1"); bit i of the integer is leaf i
        masks = int(marks, 2).to_bytes(1 << size >> 3, "little")
        nonempty = masks.replace(b"\0", b"")
        (tops, values), base = kernel.blocks(leaf), size - 3
        entries = zip(repeat(base), compress(count(), masks),
                      map(base.__add__, map(tops.__getitem__, nonempty)), map(values.__getitem__, nonempty))
    else:
        entries = zip(sizes, map(int, generators, repeat(2)), sizes, repeat(leaf))
    depth, v = _walk(entries, kernel)
    return LogValue.from_log2(kernel.lift(v, depth))


def _walk(entries: Iterable[tuple[int, int, int, float]], kernel: _Kernel) -> tuple[int, float]:
    """(depth, log2 value) of the top node of the compressed trie that ``entries`` span.

    An entry (key depth, key, depth, log2 value) is a finished subtree, in
    sorted order of keys: the first ``key depth`` digits of its words read
    as a binary integer.  Its top node lies at ``depth``.  The trie is never
    materialised: its branches sit where neighbouring keys join, so one pass
    with a stack of (join, depth, log2 value) builds it as the Cartesian
    tree of the join depths, the top entry kept in locals.  Two keys join at
    m minus the bit length of the XOR of their first m = min key depth
    digits, so nothing is padded (time and memory linear in the digits).  A
    branch closes once the next join is shallower: ``lift`` raises each
    subtree that lies deeper to depth join+1, and ``branch`` combines the two;
    a sentinel join of -1 closes the rest.  Both steps are the kernel's, and
    the stack is the walk's only state.
    """
    entries, lift, branch = iter(entries), kernel.lift, kernel.branch
    top_key_depth, top_key, top_depth, top = next(entries)
    top_join, stack = -1, []
    for key_depth, key, depth, value in chain(entries, ((-1, 0, -1, 0.0),)):  # the sentinel joins every key at -1
        # the two keys share exactly their first join digits
        join = (key_depth - (key ^ top_key >> (top_key_depth - key_depth)).bit_length() if key_depth <= top_key_depth
                else top_key_depth - (top_key ^ key >> (key_depth - top_key_depth)).bit_length())
        top_key_depth, top_key = key_depth, key
        while top_join > join:
            # close the branch at depth b where the top subtree meets the one below it
            b = top_join
            top_join, left_depth, left = stack.pop()
            if k := left_depth - b - 1:
                left = lift(left, k)
            if k := top_depth - b - 1:
                top = lift(top, k)
            top_depth, top = b, branch(left, top)
        stack.append((top_join, top_depth, top))
        top_join, top_depth, top = join, depth, value
    ((_, depth, v),) = stack
    return depth, v


def capacity_recursive(cyl: CylinderSet, e: Exponents) -> CapacityReport:
    """Exact capacity of a finite union of cylinders via the two-child recursion.

    Generators root full shifted subtrees, so their normalized value is the
    full-tree constant.  The empty set has capacity zero.
    """
    value = _sweep(cyl.generators, full_tree_capacity(e).value, e)
    return CapacityReport(value, Method.RECURSION, BoundKind.EXACT)


def finite_tree_capacity(depth: int, target_leaves: Sequence[str], e: Exponents) -> LogValue:
    """Capacity of a depth-N problem whose targets are given leaves.

    Each target is a one-node base case with normalized value 1.  Targets
    must be binary words of length ``depth``; the empty target set has
    capacity zero.
    """
    if type(depth) is not int or depth < 0:
        raise DomainError(f"depth must be an int >= 0, got {depth!r}")
    return _sweep(_leaves(target_leaves, depth), LogValue.one(), e)


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
    kernel, q = _kernel(e), e.q_f
    run = LogValue.from_log2(_times(n + kappa - 1, q * float(1 - e.ap)) + kernel.run_sum(kappa))
    if n == 0:
        return run
    return LogValue.from_log2(_times(n, q) + kernel.branch_sum(n)) + run


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
    The formula lives in the pair's kernel (``_kernel``), which is built
    once per pair and read by every later call.  Exactness is
    checked against the explicit recursion in the test suite.
    """
    _check_run_set(n, kappa)
    value = LogValue.from_log2(_kernel(e).log2_cap(n, kappa))
    return CapacityReport(value, Method.CLOSED_FORM, BoundKind.EXACT)
