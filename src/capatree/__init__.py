"""capatree: exact discrete (a,p)-capacities on the dyadic tree.

The package computes boundary capacities through an exact two-child
recursion and closed forms, classifies limsup run sets as positive / zero
/ indeterminate capacity, brackets Hausdorff dimension through the
capacity profile, and cross-validates everything against an independent
convex-program oracle (numpy, imported on first use) and the circle side,
whose capacities and potentials come in closed form.

``import capatree`` loads no engine module: each public name below is
looked up in its defining module on every access (PEP 562), which imports
that module the first time.  So a CLI subcommand loads only the modules it
runs, and a function patched in its module shows through the root too.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in (
        ("capacity", "BoundKind CapacityReport Method cap_component capacity_recursive finite_tree_capacity "
                     "full_tree_capacity phi_apply sigma_closed_form truncated_tree_capacity"),
        ("circle", "DigitStream DyadicDensity RunLength circle_full_capacity kernel_integral membership_score "
                   "product_identity riesz_potential run_lengths"),
        ("dobinski", "Custom DimensionBracket Geometric Growth Linear Outcome Power Verdict capacity_bounds "
                     "classify comparability_report dimension_profile dobinski_full kappa_value spec_from_json "
                     "spec_to_json"),
        ("errors", "ConvergenceError DomainError DyadicTangentPole"),
        ("exponents", "ApBranch Exponents LogValue as_fraction conjugate"),
        ("tree", "CylinderSet d_cylinder_set"),
        ("oracle", "FiniteProblem OracleResult agreement_battery emulated_infinite_problem solve_capacity"),
    )
    for name in names.split()
}

# `from capatree import *` binds every name and module but the oracle's,
# which would import numpy.
__all__ = [name for name, module in _EXPORTS.items() if module != "oracle"]
__all__ += sorted(set(_EXPORTS.values()) - {"oracle"})


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
