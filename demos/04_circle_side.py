"""Circle-side companion: run lengths, the tangent product, and potentials.

Binary expansions and doubling orbits are computed in exact rational
arithmetic, so none of the digit statistics drift; potentials integrate
the chord-distance kernel through its antiderivative in closed form, so
its endpoint singularity needs no special handling.

Run:  python demos/04_circle_side.py
"""

from fractions import Fraction

from capatree import (
    DigitStream,
    DyadicDensity,
    Exponents,
    circle_full_capacity,
    kernel_integral,
    membership_score,
    product_identity,
    riesz_potential,
    run_lengths,
)

# ----------------------------------------------------------------------
# Run lengths s_n: the maximal block of equal digits starting at n, minus
# one.  Dyadic rationals end in a constant tail, so their late runs are
# infinite and their membership score is infinity.
# ----------------------------------------------------------------------
for x in ("1/3", "7/16", "1/5"):
    stream = DigitStream.from_rational(x)
    rows = run_lengths(stream, 8)
    shown = ["inf" if r.infinite else str(r.value) for r in rows]
    score = membership_score(stream, 24)
    print(f"x = {x:>5}: s_1..s_8 = {shown}, score = {score}")

# ----------------------------------------------------------------------
# The absolute tangent product: partial products converge to the squared
# sine closed form exactly when the run lengths stay tame.
# ----------------------------------------------------------------------
print("\ntangent product vs (2 sin pi x)^2:")
for x in ("1/3", "1/5", "3/7", "5/11"):
    lhs, rhs = product_identity(x, 48)
    print(f"  x = {x:>5}: partial {lhs:.12f}   closed {rhs:.12f}   diff {abs(lhs-rhs):.2e}")

# ----------------------------------------------------------------------
# Riesz potentials of piecewise-constant densities.  The potential of the
# unit density is rotation invariant: the same value at every point.
# ----------------------------------------------------------------------
a = Fraction(1, 2)
unit = DyadicDensity.constant(1.0, depth=3)
values = [riesz_potential(unit, y, a) for y in (0.05, 0.33, 0.5, 0.875)]
print(f"\npotential of the unit density at a={a}: {[f'{v:.10f}' for v in values]}")
integral, err = kernel_integral(a)
print(f"kernel integral in closed form: {integral:.12f} (rounding bound {err:.1e})")

# A lopsided density is not rotation invariant, but linearity still holds.
half = DyadicDensity.indicator(0, 4, 3)
other = DyadicDensity.indicator(4, 8, 3)
y = 0.21
split = riesz_potential(half, y, a) + riesz_potential(other, y, a)
print(f"linearity check at y={y}: split {split:.12f} vs whole {riesz_potential(unit, y, a):.12f}")

# ----------------------------------------------------------------------
# Full-circle capacity: the equilibrium density is constant, so the value
# is (kernel integral)**(-p).  It grows toward 1 as a -> 1.
# ----------------------------------------------------------------------
print("\nfull-circle capacities:")
for a_str, p_str in (("1/4", "2"), ("1/2", "2"), ("2/3", "3/2"), ("255/256", "256/255")):
    value = circle_full_capacity(Exponents(a_str, p_str))
    print(f"  (a={a_str}, p={p_str}): {value:.10f}")
