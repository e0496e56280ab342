"""Independent capacity oracle: solve the defining convex program directly.

The discrete capacity is the minimum of sum(w(x) * phi(x)**p) over
nonnegative phi whose root-to-leaf sums reach 1 on every target leaf of a
truncated tree.  This module attacks that program head-on with a quadratic
penalty and projected first-order descent, completely independent of the
recursion engine it is used to corroborate.  Plain linear doubles
throughout; depth is capped at 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .capacity import finite_tree_capacity, full_tree_capacity
from .errors import ConvergenceError, DomainError
from .exponents import Exponents
from .tree import validate_word

MAX_DEPTH = 12


def _node_index(word: str) -> int:
    return 2 ** len(word) - 1 + (int(word, 2) if word else 0)


def _word_of(index: int, depth: int) -> str:
    return format(index - (2 ** depth - 1), f"0{depth}b") if depth else ""


@dataclass(frozen=True)
class FiniteProblem:
    """A depth-N capacity problem over the truncated tree.

    ``weights`` overrides the default node weight 2**(-|x|(1-ap)) where
    given (keyed by word).
    """

    depth: int
    target_leaves: tuple[str, ...]
    exponents: Exponents
    weights: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.depth <= MAX_DEPTH):
            raise DomainError(f"depth must be in [0, {MAX_DEPTH}], got {self.depth}")
        if not self.target_leaves:
            raise DomainError("target leaf set must be nonempty")
        for leaf in self.target_leaves:
            validate_word(leaf)
            if len(leaf) != self.depth:
                raise DomainError(f"target {leaf!r} does not have length {self.depth}")
        object.__setattr__(self, "target_leaves", tuple(sorted(set(self.target_leaves))))

    @property
    def n_nodes(self) -> int:
        return 2 ** (self.depth + 1) - 1

    def weight_array(self) -> np.ndarray:
        one_minus_ap = float(1 - self.exponents.ap)
        w = np.empty(self.n_nodes)
        for d in range(self.depth + 1):
            w[2 ** d - 1 : 2 ** (d + 1) - 1] = 2.0 ** (-d * one_minus_ap)
        if self.weights:
            for word, value in self.weights.items():
                if value <= 0:
                    raise DomainError(f"weights must be positive, got {word!r}: {value}")
                w[_node_index(validate_word(word))] = float(value)
        return w

    def target_indices(self) -> np.ndarray:
        return np.array([_node_index(leaf) for leaf in self.target_leaves], dtype=np.int64)

    def to_json(self) -> dict:
        out = {
            "depth": self.depth,
            "target_leaves": list(self.target_leaves),
            "a": str(self.exponents.a),
            "p": str(self.exponents.p),
        }
        if self.weights:
            out["weights"] = {k: float(v) for k, v in self.weights.items()}
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "FiniteProblem":
        return cls(
            depth=int(data["depth"]),
            target_leaves=tuple(data["target_leaves"]),
            exponents=Exponents(data["a"], data["p"]),
            weights=data.get("weights"),
        )


def potential_eval(phi: Mapping[str, float], x: str) -> float:
    """Sum of phi over the root-to-x path, endpoints included."""
    validate_word(x)
    return sum(phi.get(x[:i], 0.0) for i in range(len(x) + 1))


def energy_eval(phi: Mapping[str, float], problem: FiniteProblem) -> float:
    """sum over tree nodes of phi(x)**p * weight(x)."""
    w = problem.weight_array()
    p = problem.exponents.p_f
    total = 0.0
    for word, value in phi.items():
        if value < 0:
            raise DomainError(f"phi must be nonnegative, got {word!r}: {value}")
        if len(word) > problem.depth:
            raise DomainError(f"{word!r} lies outside the depth-{problem.depth} tree")
        total += value ** p * w[_node_index(word)]
    return total


@dataclass
class OracleResult:
    value: float
    witness: np.ndarray
    violation: float
    iterations: int
    mu_final: float
    depth: int

    def witness_dict(self, include_zero: bool = False) -> dict[str, float]:
        out = {}
        for d in range(self.depth + 1):
            for i in range(2 ** d - 1, 2 ** (d + 1) - 1):
                v = float(self.witness[i])
                if include_zero or v > 0:
                    out[_word_of(i, d)] = v
        return out

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "witness": self.witness_dict(),
            "violation": self.violation,
            "iterations": self.iterations,
        }


class _TreeArrays:
    """Vectorized prefix sums and subtree sums for a dense heap layout."""

    def __init__(self, depth: int):
        self.depth = depth
        self.n_nodes = 2 ** (depth + 1) - 1
        self.levels = [(2 ** d - 1, 2 ** (d + 1) - 1) for d in range(depth + 1)]
        self.parents = [
            (np.arange(a, b, dtype=np.int64) - 1) // 2 for a, b in self.levels
        ]

    def path_sums(self, phi: np.ndarray) -> np.ndarray:
        out = phi.copy()
        for d in range(1, self.depth + 1):
            a, b = self.levels[d]
            out[a:b] += out[self.parents[d]]
        return out

    def subtree_sums(self, leaf_values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_nodes)
        a, b = self.levels[self.depth]
        out[a:b] = leaf_values
        for d in range(self.depth - 1, -1, -1):
            a, b = self.levels[d]
            ca, cb = self.levels[d + 1]
            out[a:b] = out[ca:cb:2] + out[ca + 1 : cb : 2]
        return out


def solve_capacity(problem: FiniteProblem, tol: float = 1e-5) -> OracleResult:
    """Penalty method: energy + mu * sum(max(0, 1 - path_sum(leaf))**2).

    The penalty weight mu ramps geometrically until (a) it clears the floor
    p/tol, below which even the exact penalized minimizer could sit closer
    to feasibility than its distance to the constrained optimum, and (b)
    the worst constraint violation of the inner minimizer drops below
    ``tol``.  The iterate is then rescaled by 1/min(path sums) so the
    returned witness is exactly admissible.  The reported value is the
    rescaled witness energy, hence a true upper bound within about p*tol
    of the minimum.

    Each inner problem is smooth and convex; it is minimized with
    bound-constrained L-BFGS (gradient-only), warm-started across stages
    and restarted with fresh curvature memory while its line search keeps
    terminating abnormally but the objective still improves.  The start
    point is pushed strictly inside the feasible region so the first
    iterate does not sit on the penalty kink.

    Raises ConvergenceError when the evaluation budget runs out; never
    returns a silently unconverged value.
    """
    from scipy.optimize import minimize

    if not (1e-8 <= tol <= 1e-3):
        raise DomainError(f"tol must lie in [1e-8, 1e-3], got {tol}")
    exps = problem.exponents
    p = exps.p_f
    tree = _TreeArrays(problem.depth)
    w_raw = problem.weight_array()
    scale = float(w_raw.max())
    w = w_raw / scale  # normalized so the result scales exactly with the weights
    targets = problem.target_indices()
    leaf_slice_start = 2 ** problem.depth - 1
    target_leaf_mask = np.zeros(2 ** problem.depth)
    target_leaf_mask[targets - leaf_slice_start] = 1.0
    leaf_counts = tree.subtree_sums(target_leaf_mask)
    on_support = leaf_counts > 0

    phi = np.where(on_support, 1.05 / (problem.depth + 1), 0.0)

    budget = 1_000_000
    evaluations = 0
    mu = 100.0
    mu_floor = p / tol
    max_mu = 1e12
    bounds = [(0.0, None)] * tree.n_nodes

    def residuals(phi_: np.ndarray) -> np.ndarray:
        path = tree.path_sums(phi_)
        return np.maximum(0.0, 1.0 - path[targets])

    while True:

        def fun_and_grad(phi_: np.ndarray) -> tuple[float, np.ndarray]:
            nonlocal evaluations
            evaluations += 1
            res = residuals(phi_)
            value = float(np.sum(w * phi_ ** p) + mu * np.sum(res ** 2))
            grad = p * w * phi_ ** (p - 1.0)
            leaf_res = np.zeros(2 ** problem.depth)
            leaf_res[targets - leaf_slice_start] = res
            grad -= 2.0 * mu * tree.subtree_sums(leaf_res)
            return value, grad

        f_prev = math.inf
        for _attempt in range(12):
            result = minimize(
                fun_and_grad,
                phi,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={
                    "maxiter": 3000,
                    "ftol": 1e-18,
                    "gtol": 1e-12,
                    "maxcor": 20,
                    "maxls": 100,
                },
            )
            phi = np.maximum(0.0, result.x)
            if result.status == 0 or result.fun >= f_prev - 1e-16 * max(1.0, abs(f_prev)):
                break
            f_prev = result.fun
        violation = float(residuals(phi).max(initial=0.0))
        if violation < tol and mu >= mu_floor:
            break
        if evaluations >= budget:
            raise ConvergenceError(
                f"oracle exhausted {budget} evaluations (violation {violation:.3g}, mu={mu:.3g})"
            )
        if mu >= max_mu:
            raise ConvergenceError(
                f"oracle penalty saturated at mu={mu:.3g} with violation {violation:.3g}"
            )
        mu *= 10.0
    iterations = evaluations

    path = tree.path_sums(phi)
    min_potential = float(path[targets].min())
    if min_potential <= 0:
        raise ConvergenceError("oracle iterate has a zero-potential target leaf")
    witness = phi / min_potential
    energy_unscaled = float(np.sum(w * phi ** p)) * scale
    value = energy_unscaled / min_potential ** p
    return OracleResult(
        value=value,
        witness=witness,
        violation=violation,
        iterations=iterations,
        mu_final=mu,
        depth=problem.depth,
    )


def solve_from_json(data: Mapping, tol: float = 1e-5) -> dict:
    """JSON-in / JSON-out wrapper around :func:`solve_capacity`."""
    return solve_capacity(FiniteProblem.from_json(data), tol=tol).to_json()


# ----------------------------------------------------------------------
# Randomized recursion-vs-oracle battery (shared by tests and the CLI).
# ----------------------------------------------------------------------

_BATTERY_P = (Fraction(3, 2), Fraction(2), Fraction(3))
_BATTERY_AP = (Fraction(1), Fraction(1, 2))


def random_problem(rng: np.random.Generator, max_depth: int = 8) -> FiniteProblem:
    depth = int(rng.integers(1, max_depth + 1))
    p = _BATTERY_P[rng.integers(len(_BATTERY_P))]
    ap = _BATTERY_AP[rng.integers(len(_BATTERY_AP))]
    density = float(rng.choice([0.9, 0.5, 0.25, 0.1]))
    n_leaves = 2 ** depth
    mask = rng.random(n_leaves) < density
    if not mask.any():
        mask[rng.integers(n_leaves)] = True
    leaves = tuple(format(i, f"0{depth}b") for i in np.flatnonzero(mask))
    return FiniteProblem(depth=depth, target_leaves=leaves, exponents=Exponents(ap / p, p))


def agreement_battery(
    count: int = 200,
    seed: int = 0,
    max_depth: int = 8,
    tol: float = 1e-5,
) -> list[dict]:
    """Solve ``count`` random problems both ways; one row per problem."""
    rng = np.random.default_rng(seed)
    problems = [random_problem(rng, max_depth) for _ in range(count)]

    def run(i: int, prob: FiniteProblem) -> dict:
        recursion = finite_tree_capacity(
            prob.depth, prob.target_leaves, prob.exponents
        ).to_float()
        solved = solve_capacity(prob, tol=tol)
        rel = abs(solved.value - recursion) / recursion
        return {
            "index": i,
            "depth": prob.depth,
            "n_targets": len(prob.target_leaves),
            "a": str(prob.exponents.a),
            "p": str(prob.exponents.p),
            "recursion": recursion,
            "oracle": solved.value,
            "rel_diff": rel,
            "iterations": solved.iterations,
            "ok": bool(rel <= 5 * tol),
        }

    return [run(i, prob) for i, prob in enumerate(problems)]


def emulated_infinite_problem(cyl, e: Exponents, depth: int | None = None) -> FiniteProblem:
    """Finite problem whose value equals the infinite capacity of a cylinder set.

    A leaf weighted by v has rooted capacity v, so giving each covered
    depth-N leaf the weight pi(leaf) * c (the full shifted subtree below it)
    makes the truncated program agree exactly with the infinite one.
    """
    if cyl.is_empty():
        raise DomainError("cannot emulate the empty set as a finite problem")
    n = depth if depth is not None else max((len(g) for g in cyl.generators), default=0)
    n = max(n, 1)
    if n > MAX_DEPTH:
        raise DomainError(f"generators too deep for the oracle (depth {n})")
    c = full_tree_capacity(e).value.to_float()
    one_minus_ap = float(1 - e.ap)
    leaves = []
    weights = {}
    for i in range(2 ** n):
        word = format(i, f"0{n}b")
        if cyl.covers(word):
            leaves.append(word)
            weights[word] = 2.0 ** (-n * one_minus_ap) * c
    return FiniteProblem(depth=n, target_leaves=tuple(leaves), exponents=e, weights=weights)
