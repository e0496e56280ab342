"""The package's value types: construction, equality, hashing, immutability, validation."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from capatree.capacity import BoundKind, CapacityReport, Method
from capatree.circle import DigitStream, DyadicDensity, RunLength
from capatree.dobinski import Custom, DimensionBracket, Geometric, Growth, Linear, Outcome, Power, Verdict
from capatree.errors import DomainError
from capatree.exponents import Exponents, LogValue, Record
from capatree.oracle import FiniteProblem, OracleResult, solve_capacity
from capatree.tree import CylinderSet

E = Exponents("1/3", 3)
WITNESS = np.zeros(3)

# cls: (fields in constructor order, fields of an unequal instance, fields that fail
# validation or None, hashable, repr)
RECORDS = {
    Exponents: (
        {"a": "1/3", "p": 3}, {"a": "1/2", "p": 2}, {"a": "1/2", "p": 3}, True, "Exponents(a=1/3, p=3)",
    ),
    LogValue: ({"log2": 1.5, "is_zero": False}, {"log2": 0.0, "is_zero": True}, None, True, "LogValue(2^1.5)"),
    CylinderSet: (
        {"generators": ("10", "0")}, {"generators": ("1",)}, {"generators": ("0", "01")}, True,
        "CylinderSet(generators=('0', '10'))",
    ),
    CapacityReport: (
        {"value": LogValue(-1.0), "method": Method.RECURSION, "bound_kind": BoundKind.EXACT},
        {"value": LogValue(-1.0), "method": Method.RECURSION, "bound_kind": BoundKind.LOWER},
        None,
        True,
        "CapacityReport(value=LogValue(2^-1), method=<Method.RECURSION: 'recursion'>, "
        "bound_kind=<BoundKind.EXACT: 'exact'>)",
    ),
    Geometric: ({"m": 2}, {"m": 3}, {"m": 0}, True, "Geometric(m=2)"),
    Power: (
        {"C": "1/2", "beta": 3}, {"C": 1, "beta": 3}, {"C": 0, "beta": 1}, True,
        "Power(C=Fraction(1, 2), beta=Fraction(3, 1))",
    ),
    Linear: ({"C": 2}, {"C": 3}, {"C": -1}, True, "Linear(C=Fraction(2, 1))"),
    Growth: (
        {"C": 1, "beta": "1/2", "gamma": 1}, {"C": 1, "beta": "1/2", "gamma": 2}, {"C": 0, "beta": 0, "gamma": 1},
        True, "Growth(C=Fraction(1, 1), beta=Fraction(1, 2), gamma=Fraction(1, 1))",
    ),
    Custom: (
        {"table": ((1, 2),), "tail_rule": Geometric(1)},
        {"table": ((1, 3),), "tail_rule": Geometric(1)},
        {"table": ((1, 2), (1, 3)), "tail_rule": Geometric(1)},
        True,
        "Custom(table=((1, 2),), tail_rule=Geometric(m=1))",
    ),
    Verdict: (
        {"outcome": Outcome.ZERO, "condition": "(ii)", "evidence": {"trace": []}},
        {"outcome": Outcome.POSITIVE, "condition": "(i)", "evidence": {"trace": []}},
        None,
        False,  # the evidence dict
        "Verdict(outcome=<Outcome.ZERO: 'Zero'>, condition='(ii)', evidence={'trace': []})",
    ),
    DimensionBracket: (
        {"lower": Fraction(0), "upper": Fraction(1, 2), "points": ()},
        {"lower": Fraction(0), "upper": Fraction(1), "points": ()},
        None,
        True,
        "DimensionBracket(lower=Fraction(0, 1), upper=Fraction(1, 2), points=())",
    ),
    DigitStream: (
        {"preamble": (), "cycle": (0, 1)},
        {"preamble": (1,), "cycle": (0,)},
        None,
        True,
        "DigitStream(preamble=(), cycle=(0, 1))",
    ),
    RunLength: (
        {"n": 3, "value": 2, "infinite": False},
        {"n": 3, "value": 0, "infinite": True},
        None,
        True,
        "RunLength(n=3, value=2, infinite=False)",
    ),
    DyadicDensity: (
        {"depth": 1, "values": (1.0, 2.0)}, {"depth": 0, "values": (1.0,)}, {"depth": 1, "values": (1.0,)}, True,
        "DyadicDensity(depth=1, values=(1.0, 2.0))",
    ),
    FiniteProblem: (
        {"depth": 1, "target_leaves": ("1", "0"), "exponents": E, "weights": {"0": 2.0}},
        {"depth": 1, "target_leaves": ("1", "0"), "exponents": E, "weights": None},
        {"depth": 2, "target_leaves": ("0",), "exponents": E, "weights": None},
        True,
        "FiniteProblem(depth=1, target_leaves=('0', '1'), exponents=Exponents(a=1/3, p=3), weights={'0': 2.0})",
    ),
    OracleResult: (
        {"value": 1.0, "witness": WITNESS, "lower": 0.5, "gap": 0.1, "violation": 0.0, "iterations": 3, "depth": 1},
        {"value": 2.0, "witness": WITNESS, "lower": 0.5, "gap": 0.1, "violation": 0.0, "iterations": 3, "depth": 1},
        None,
        False,  # mutable
        f"OracleResult(value=1.0, witness={WITNESS!r}, lower=0.5, gap=0.1, violation=0.0, iterations=3, depth=1)",
    ),
}


def test_every_record_type_is_covered():
    # walk subclasses of subclasses too (the named families are Growths),
    # skipping the ones tests define
    found, stack = set(), [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("capatree."):
                found.add(sub)
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaviour(cls):
    fields, other_fields, bad_fields, hashable, expected_repr = RECORDS[cls]
    x = cls(**fields)
    assert x == cls(*fields.values())
    assert x != cls(**other_fields) and cls(*other_fields.values()) == cls(**other_fields)
    assert repr(x) == expected_repr
    # equal only to records of its own class
    for other_cls, (values, *_) in RECORDS.items():
        if other_cls is not cls:
            assert x != other_cls(**values)
    assert x.__eq__(tuple(fields.values())) is NotImplemented
    if hashable:
        assert hash(x) == hash(cls(*fields.values()))
        assert len({x, cls(**fields), cls(**other_fields)}) == 2
        assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x
    else:
        with pytest.raises(TypeError):
            hash(x)
    if cls is OracleResult:
        x.value = 3.0
        assert x.value == 3.0
    else:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 1
    if bad_fields is not None:
        with pytest.raises(DomainError):
            cls(**bad_fields)
        with pytest.raises(DomainError):
            cls(*bad_fields.values())


def test_no_equality_across_families_with_the_same_rule():
    # Power(C, beta) and Growth(C, beta, 0) describe the same kappa_n but are different records
    assert Power(1, 2) != Growth(1, 2, 0)
    assert Linear(1) != Power(1, 1)

    class Subclass(Geometric):
        pass

    assert Subclass(1) != Geometric(1) and Geometric(1) != Subclass(1)


def test_exponents_cached_floats_stay_out_of_equality_and_hash():
    e = Exponents("1/3", 3)
    fresh = Exponents("1/3", 3)
    before = hash(e)
    assert (e.p_f, e.q_f, e.pm1_f, e.ap_f) == (3.0, 0.5, 2.0, 1.0)
    assert e == fresh and hash(e) == before == hash(fresh)


def test_defaults_match_the_keyword_forms():
    assert LogValue() == LogValue(0.0, False)
    assert RunLength(1, 2) == RunLength(1, 2, infinite=False)
    assert FiniteProblem(1, ("0",), E) == FiniteProblem(1, ("0",), E, weights=None)


def test_oracle_results_compare_witnesses_by_value():
    fields = {"value": 1.0, "lower": 0.5, "gap": 0.1, "violation": 0.0, "iterations": 3, "depth": 1}
    x = OracleResult(witness=np.zeros(3), **fields)
    assert x == OracleResult(witness=np.zeros(3), **fields)  # distinct arrays, equal values
    assert x != OracleResult(witness=np.array([0.0, 0.0, 1.0]), **fields)
    assert x != OracleResult(witness=np.zeros(4), **fields)


def test_two_solves_of_one_problem_are_equal():
    problem = FiniteProblem(3, ("000", "011", "101"), E)
    first, second = solve_capacity(problem), solve_capacity(problem)
    assert first.witness is not second.witness
    assert first == second and not first != second
    assert solve_capacity(FiniteProblem(3, ("000", "111"), E)) != first
