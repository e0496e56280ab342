"""Closed-form capacities of single run sets D(n, kappa) and their bands.

The recursion collapses to one application of the combination map at a
geometric-sum index sigma, which keeps n up to 10^4 and kappa up to 2^50
in reach through log-domain arithmetic.

Run:  python demos/03_component_capacity_and_bands.py
"""

from fractions import Fraction

from capatree import (
    Exponents,
    Geometric,
    Linear,
    Power,
    cap_component,
    capacity_bounds,
    capacity_recursive,
    comparability_report,
    d_cylinder_set,
    sigma_closed_form,
)

e = Exponents("1/2", 2)

# ----------------------------------------------------------------------
# sigma: the closed form vs the exact critical-branch integer.  At (1/2, 2)
# the branching levels sum to 2^(n+1) - 2 and the run levels to kappa.
# ----------------------------------------------------------------------
print("sigma at (1/2, 2):")
for n, kappa in ((1, 1), (4, 8), (6, 3)):
    closed = sigma_closed_form(n, kappa, e).to_float()
    exact = 2 ** (n + 1) - 2 + kappa
    print(f"  n={n}, kappa={kappa}: closed {closed:.10f}   2^(n+1)-2+kappa = {exact}")

# At (1/2, 2) the component capacity is 2^n / (2^(n+1) + kappa).
print("\ncomponent capacities vs the explicit recursion:")
for n, kappa in ((1, 1), (3, 2), (5, 4)):
    closed = cap_component(n, kappa, e).value.to_float()
    engine = capacity_recursive(d_cylinder_set(n, kappa), e).value.to_float()
    simple = 2**n / (2 ** (n + 1) + kappa)
    print(f"  D({n},{kappa}): closed {closed:.12f}  recursion {engine:.12f}  2^n/(2^(n+1)+k) {simple:.12f}")

# Far beyond linear floating point: n = 2000 with kappa = 2^n stays exact
# in the log domain (the value is exactly 1/3 for kappa = 2^n).
big = cap_component(2000, 2**2000, e).value
print(f"\ncap D(2000, 2^2000) = 2^{big.log2:.12f} (log2(1/3) = {-1.584962500721156:.12f})")

# ----------------------------------------------------------------------
# Comparability: capacity vs min(1, comparison quantity).  The ratio sits
# in a fixed band; for kappa = 2^n it is exactly 1/3 at every n.
# ----------------------------------------------------------------------
print("\ncomparability bands at (1/2, 2), n <= 1000:")
for label, spec in (
    ("kappa = 1", Power(Fraction(1), Fraction(0))),
    ("kappa = n", Linear(Fraction(1))),
    ("kappa = 2^n", Geometric(1)),
):
    report = comparability_report(e, (1, 1000), spec)
    print(f"  {label:>12}: ratio in [{report['ratio_min']:.6g}, {report['ratio_max']:.6g}]")

# Subcritical pair: the band claim for kappa = n over a hundred levels.
sub = comparability_report(Exponents("1/4", 2), (1, 100), Linear(Fraction(1)))
print(f"  kappa = n at (1/4, 2): ratio in [{sub['ratio_min']:.6g}, {sub['ratio_max']:.6g}]")

# ----------------------------------------------------------------------
# Capacity bounds: the best single component up to n_max bounds the union
# of the first n_max run sets from below (not the limsup set); the tail sum
# from n_max, exact terms plus a closed-form remainder, bounds the limsup set
# from above when the family classifies Zero.
# ----------------------------------------------------------------------
print("\nbounds for the geometric family m=1:")
lower, upper = capacity_bounds(Geometric(1), e, 30)
print(f"  at (1/2, 2): lower 2^{lower.value.log2:.6f}, upper {'unbounded' if upper is None else upper.value.log2}")
e33 = Exponents("1/3", 3)
lower, upper = capacity_bounds(Geometric(1), e33, 30)
print(f"  at (1/3, 3): lower 2^{lower.value.log2:.3f}, upper 2^{upper.value.log2:.3f} (tail converges)")
