"""Every bit of the run-set kernels on a fixed grid, against tests/data/kernel_bits.json.

The file holds ``float.hex`` of each comparability-row field, of both
``capacity_bounds`` values, of the ``classify`` trace rows and of
``cap_component`` and ``sigma_closed_form``, or the text of the DomainError
a call raised, for 7 families at 28 exponent pairs.  A change that is meant
to keep every number must leave it as it is; regenerate it only for a change
that is meant to move numbers:

    PYTHONPATH=src python tests/test_kernel_bits.py
"""

import json
from fractions import Fraction
from pathlib import Path

from capatree import (
    Custom,
    DomainError,
    Exponents,
    Geometric,
    Growth,
    Linear,
    Power,
    cap_component,
    capacity_bounds,
    classify,
    comparability_report,
    kappa_value,
    sigma_closed_form,
)

DATA = Path(__file__).with_name("data") / "kernel_bits.json"

FAMILIES = [
    Geometric(1),
    Geometric(5),
    Power("3/2", "2/3"),
    Linear("1/3"),
    Growth(2, "-1/2", "1/4"),
    Growth(1, 0, 65),
    Custom([(1, 9), (2, 4), (16, 2 ** 70)], Growth(1, "1/3", "3/4")),
]
# five values of p, each at ap = 1 (critical) and four subcritical ap, then
# three pairs at 1 - ap = 10**-20, where 1 - ap as a float difference would be 0
PAIRS = [
    Exponents(ap / p, p)
    for p in (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4))
    for ap in (Fraction(1), Fraction(7, 8), Fraction(1, 2), Fraction(1, 3), Fraction(1, 10))
] + [Exponents((1 - Fraction(1, 10**20)) / p, p) for p in (Fraction(3, 2), Fraction(2), Fraction(3))]
STARTS = (1, 40, 333, 2500, 9981)  # first n of a window, cycled over the cases
WINDOW = 5  # rows per comparability window
N_MAX = (1, 7, 60)  # capacity_bounds' n_max, one per family modulo 3


def _hex(x):
    return None if x is None else float.hex(x)


def _bits(call):
    """The value ``call()`` maps to, or the DomainError it raised as text."""
    try:
        return call()
    except DomainError as exc:
        return f"DomainError: {exc}"


def case(i: int, j: int) -> dict:
    spec, e = FAMILIES[i], PAIRS[j]
    lo = STARTS[(i + j) % len(STARTS)]
    ends = [(n, kappa_value(spec, n)) for n in (lo, lo + WINDOW - 1)]

    def rows():
        return [
            [r["n"], r["kappa"]] + [_hex(r[k]) for k in ("kappa_log2", "cap_linear", "cap_log2", "proxy_log2", "ratio")]
            for r in comparability_report(e, (lo, lo + WINDOW - 1), spec)["rows"]
        ]

    def bounds():
        return [None if b is None else [_hex(b.value.log2), b.value.is_zero, b.bound_kind.value]
                for b in capacity_bounds(spec, e, N_MAX[i % len(N_MAX)])]

    def trace():
        return [_hex(r.get("log2_stat", r.get("exponent"))) for r in classify(spec, e).evidence["trace"]]  # n = 1..16

    return {
        "family": i,
        "a": str(e.a),
        "p": str(e.p),
        "rows": _bits(rows),
        "bounds": _bits(bounds),
        "trace": _bits(trace),
        "cap": [_bits(lambda: _hex(cap_component(n, k, e).value.log2)) for n, k in ends],
        "sigma": [_bits(lambda: _hex(sigma_closed_form(n, k, e).log2)) for n, k in ends],
    }


def kernel_bits() -> list[dict]:
    return [case(i, j) for i in range(len(FAMILIES)) for j in range(len(PAIRS))]


def test_kernels_keep_every_bit():
    expected = json.loads(DATA.read_text())
    got = kernel_bits()
    assert len(got) == len(expected)
    for g, x in zip(got, expected):
        assert g == x, (FAMILIES[g["family"]], g["a"], g["p"])


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("[\n" + ",\n".join(json.dumps(c, separators=(",", ":")) for c in kernel_bits()) + "\n]\n")
