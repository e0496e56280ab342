"""Exact exponent pairs (a, p) and overflow-free log-domain magnitudes.

Capacities and the sigma sums grow like 2**(n*(p'-1)), which leaves linear
double precision around n ~ 1000.  All magnitudes therefore live as base-2
logarithms with an explicit zero flag (`LogValue`), while the parameters
themselves stay exact rationals so the critical branch test a*p == 1 is
never a floating-point comparison.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from operator import attrgetter
from typing import Union

from .errors import DomainError

_LN2 = math.log(2.0)

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Parse a rational given as Fraction, int (not bool), or a "num/den" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction spends seconds on 10**exponent past Python's int digit cap, 4300: refuse that first
        digits = value.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
        if digits.isdecimal() and (len(digits) > 4 or int(digits) > 4300):
            raise DomainError(f"decimal exponent past 4300 in magnitude in the rational literal {value!r}")
        try:
            f = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed rational literal: {value!r}") from exc
        # nor past 4300 digits in the numerator or denominator, which str() cannot print (10**4300 > 2**14284)
        if (m := max(abs(f.numerator), f.denominator)).bit_length() > 14284 and m >= 10 ** 4300:
            raise DomainError(f"a numerator or denominator past 4300 digits in the rational literal {value!r}")
        return f
    raise DomainError(f"cannot interpret {value!r} as a rational")


def conjugate(p: RationalLike) -> Fraction:
    """Hoelder conjugate p/(p-1); requires p > 1."""
    p = as_fraction(p)
    if p <= 1:
        raise DomainError(f"conjugate exponent needs p > 1, got {p}")
    return p / (p - 1)


_set = object.__setattr__  # assigns a field of a record, past its guard


class Record:
    """Base of the package's value types: equality, hash, repr, and no assignment.

    A subclass lists its fields in constructor order in ``_fields`` and
    sets them in its own ``__init__`` with ``_set``.  Records are equal when
    they have the same class and equal fields, and hash as their fields do;
    assigning or deleting an attribute raises AttributeError.  Plain classes
    keep start-up cheap: nothing is generated or ``exec``-ed when a module
    defines one.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls._fields)  # the field values (a one-field record's value itself)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


class ApBranch(enum.Enum):
    CRITICAL = "critical"      # a*p == 1
    SUBCRITICAL = "subcritical"  # a*p < 1


class Exponents(Record):
    """The parameter pair (a, p) with derived product ap, conjugate and branch flag.

    Both parameters are exact rationals.  Construction rejects a*p > 1
    (singletons would carry positive capacity there), p <= 1, pairs past the
    double range (read from bit lengths), and every pair the log-domain kernel
    cannot serve: with q = 1/(p-1), b = 1-ap and v the denominator of ap it
    needs q ap >= 2**-1010 and, if ap < 1, q b >= 2**-1010 and q/v >= 2**-1022,
    tested on exact integers.  So every geometric-sum cut the kernel forms is
    finite (branch t = -q ap, run t = -q b, chain index t = q (ap_f - 1)),
    q/v (>= 2**-1022) is normal and log2 c is finite.  Equality and the
    hash use a and p, which fix everything else; the hash is formed once,
    here, as every cache keyed by a pair hashes it on each lookup.
    """

    _fields = ("a", "p")

    def __init__(self, a: RationalLike, p: RationalLike):
        a = as_fraction(a)
        p = as_fraction(p)
        if a <= 0:
            raise DomainError(f"need a > 0, got a={a}")
        if p <= 1:
            raise DomainError(f"need p > 1, got p={p}")
        ap = a * p
        if ap > 1:
            raise DomainError(f"need a*p <= 1, got a*p={ap}")
        if max(p.numerator, p.denominator, ap.denominator).bit_length() > 1023:  # p, p-1, p'-1, q/den(ap): finite floats
            raise DomainError("need p's numerator and denominator and a*p's denominator below 2**1023 (double range)")
        Q, an, v = p.denominator, ap.numerator, ap.denominator  # p - 1 = P/Q: q ap < 2**-k reads Q an << k < P v
        if Q * an << 1010 < (P_v := (p.numerator - Q) * v) or an < v and (Q * (v-an) << 1010 < P_v or Q << 1022 < P_v):
            raise DomainError(f"a={a}, p={p} is past the kernel's double range: q = 1/(p-1) needs q*a*p >= 2**-1010 "
                              "and, if a*p < 1, q*(1-a*p) >= 2**-1010 and q/den(a*p) >= 2**-1022")
        _set(self, "a", a)
        _set(self, "p", p)
        _set(self, "ap", ap)
        _set(self, "p_prime", conjugate(p))
        _set(self, "branch", ApBranch.CRITICAL if ap == 1 else ApBranch.SUBCRITICAL)
        _set(self, "_hash", hash((a, p)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_critical(self) -> bool:
        return self.branch is ApBranch.CRITICAL

    # Float views used by the log-domain kernels, computed once per instance
    # (cached in the instance dict, so they stay out of __eq__ and __hash__).
    @functools.cached_property
    def p_f(self) -> float:
        return float(self.p)

    @functools.cached_property
    def q_f(self) -> float:
        """float(p' - 1) = 1/(p - 1)."""
        return float(self.p_prime - 1)

    @functools.cached_property
    def pm1_f(self) -> float:
        return float(self.p - 1)

    @functools.cached_property
    def ap_f(self) -> float:
        return float(self.ap)

    def __repr__(self) -> str:
        return f"Exponents(a={self.a}, p={self.p})"


class LogValue(Record):
    """A nonnegative real stored as its base-2 logarithm.

    ``is_zero`` marks an exact zero (log2 is then ignored).  Ordering and
    arithmetic follow ordinary nonnegative-real semantics.
    """

    __slots__ = _fields = ("log2", "is_zero")

    def __init__(self, log2: float = 0.0, is_zero: bool = False):
        _set(self, "log2", log2)
        _set(self, "is_zero", is_zero)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "LogValue":
        return cls(0.0, True)

    @classmethod
    def one(cls) -> "LogValue":
        return cls(0.0, False)

    @classmethod
    def from_log2(cls, log2: float) -> "LogValue":
        log2 = float(log2)
        if not math.isfinite(log2):
            raise DomainError(f"LogValue requires a finite log2, got {log2}")
        return cls(log2, False)

    # -- conversions ---------------------------------------------------
    def to_float(self) -> float:
        if self.is_zero:
            return 0.0
        if self.log2 > 1023:
            return math.inf
        if self.log2 < -1074:
            return 0.0
        return 2.0 ** self.log2

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "LogValue") -> "LogValue":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        hi, lo = (self.log2, other.log2) if self.log2 >= other.log2 else (other.log2, self.log2)
        d = lo - hi  # <= 0
        # 2**d underflows harmlessly to 0 for d << 0 (log1p(0) == 0).
        return LogValue(hi + math.log1p(2.0 ** d) / _LN2, False)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.is_zero or other.is_zero:
            return LogValue.zero()
        return LogValue(self.log2 + other.log2, False)

    # -- comparisons (monotone in the represented value) ---------------
    def _key(self) -> tuple:
        return (0, 0.0) if self.is_zero else (1, self.log2)

    def __lt__(self, other: "LogValue") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "LogValue") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "LogValue") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "LogValue") -> bool:
        return self._key() >= other._key()

    def __repr__(self) -> str:
        return "LogValue(zero)" if self.is_zero else f"LogValue(2^{self.log2:.12g})"

