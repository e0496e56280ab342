"""capatree: exact discrete (a,p)-capacities on the dyadic tree.

The package computes boundary capacities through an exact two-child
recursion and closed forms, classifies limsup run sets as positive / zero
/ indeterminate capacity, brackets Hausdorff dimension through the
capacity profile, and cross-validates everything against an independent
convex-program oracle (numpy, imported on first use) and the circle side
(closed forms, and potentials by scipy quadrature, imported on first use).
"""

from .capacity import (
    BoundKind,
    CapacityReport,
    Method,
    cap_component,
    capacity_recursive,
    finite_tree_capacity,
    full_tree_capacity,
    phi_apply,
    sigma_closed_form,
    truncated_tree_capacity,
)
from .circle import (
    DigitStream,
    DyadicDensity,
    RunLength,
    circle_full_capacity,
    kernel_integral,
    membership_score,
    product_identity,
    riesz_potential,
    run_lengths,
)
from .dobinski import (
    Custom,
    DimensionBracket,
    Geometric,
    Growth,
    Linear,
    Outcome,
    Power,
    Verdict,
    capacity_bounds,
    classify,
    comparability_report,
    dimension_profile,
    dobinski_full,
    kappa_value,
    spec_from_json,
    spec_to_json,
)
from .errors import ConvergenceError, DomainError, DyadicTangentPole
from .exponents import (
    ApBranch,
    Exponents,
    LogValue,
    as_fraction,
    conjugate,
    rel_error,
)
from .tree import CylinderSet, d_cylinder_set, lambda_interval, meet, metric, weight

__version__ = "0.1.0"

# The oracle imports numpy, which no other module needs: its names are
# resolved on each access (PEP 562), so a patched oracle function shows here.
_ORACLE_NAMES = frozenset({
    "FiniteProblem", "OracleResult", "agreement_battery", "emulated_infinite_problem",
    "energy_eval", "potential_eval", "solve_capacity", "solve_from_json",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
