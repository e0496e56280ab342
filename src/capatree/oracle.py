"""Independent capacity oracle: solve the defining convex program directly.

The discrete capacity is the minimum of sum(w(x) * phi(x)**p) over
nonnegative phi whose root-to-leaf sums reach 1 on every target leaf of a
truncated tree.  This module solves that program through its dual, a
concave maximization over masses on the target leaves, and returns a
certified bracket: every mass gives a lower bound, and the function it
induces, rescaled to be admissible, gives an upper bound.  It shares no
code with the recursion engine it is used to corroborate.  Plain linear
doubles throughout; depth is capped at 12.
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
    given (keyed by word).  Each key must be a binary word of length at
    most ``depth`` and each value finite and positive; both are checked
    on construction, which keeps its own copy, so later changes to the
    caller's mapping do not reach the problem, and it hashes by content.
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
        if self.weights is not None:
            object.__setattr__(self, "weights", dict(self.weights))
        for word, value in (self.weights or {}).items():
            validate_word(word)
            if len(word) > self.depth:
                raise DomainError(f"weight on {word!r} lies outside the depth-{self.depth} tree")
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"weights must be positive and finite, got {word!r}: {value}")

    def __hash__(self) -> int:
        weights = None if self.weights is None else frozenset(self.weights.items())
        return hash((self.depth, self.target_leaves, self.exponents, weights))

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
                w[_node_index(word)] = float(value)
        return w

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
    lower: float
    gap: float
    violation: float
    iterations: int
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
            "lower": self.lower,
            "gap": self.gap,
            "violation": self.violation,
            "iterations": self.iterations,
        }


class _TreeArrays:
    """Vectorized prefix sums and subtree sums for a dense heap layout."""

    def __init__(self, depth: int):
        self.depth = depth
        self.n_nodes = 2 ** (depth + 1) - 1
        self.levels = [(2 ** d - 1, 2 ** (d + 1) - 1) for d in range(depth + 1)]

    def path_sums(self, phi: np.ndarray) -> np.ndarray:
        out = phi.copy()
        for (pa, pb), (a, b) in zip(self.levels, self.levels[1:]):
            out[a:b] += np.repeat(out[pa:pb], 2)
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
    """Capacity of a finite problem, certified by a bracket from its dual.

    The dual maximizes, over masses mu >= 0 on the target leaves, the
    concave g(mu) = |mu| - sum_x phi(x) * M(x) / p', where M(x) is the mass
    below x and phi = (M / (p*w))**(p'-1) minimizes the Lagrangian; the
    gradient of g at a target is 1 minus the potential of phi there.  Every
    evaluated mu brackets the capacity: with s = sum(phi * M) and m the least
    target potential, its best multiple gives the lower bound
    |mu|**p / (p * s**(p-1)), and phi / m is admissible with energy
    (s/p) / m**p.  ``value`` and ``witness`` are the best upper bound and its
    function, ``lower`` the best lower bound, ``gap`` = (value - lower) /
    lower <= ``tol``, and ``violation`` = max(0, 1 - m) of the unscaled phi.

    From uniform mass times its best multiple, at most 25 iterations of
    bound-constrained L-BFGS run until the gap closes; at most 30 projected
    Newton steps on the targets with mass or potential below 1, solved by
    conjugate gradients and halved until g rises, close the rest.  An
    evaluation and a Hessian-vector product cost two tree sweeps each;
    ``iterations`` counts both.  Raises ConvergenceError when the gap is
    still open after the Newton steps.
    """
    from scipy.optimize import minimize
    from scipy.sparse.linalg import LinearOperator, cg

    if not (1e-8 <= tol <= 1e-3):
        raise DomainError(f"tol must lie in [1e-8, 1e-3], got {tol}")
    p = problem.exponents.p_f
    q = 1.0 / (p - 1.0)  # p' - 1
    tree = _TreeArrays(problem.depth)
    w = problem.weight_array()
    scale = float(w.max())
    phi_coeff = (p * w / scale) ** -q  # normalized so the result scales exactly with the weights
    leaf_start = 2 ** problem.depth - 1
    targets = np.array([_node_index(leaf) - leaf_start for leaf in problem.target_leaves])
    leaf_mass = np.zeros(2 ** problem.depth)
    iterations, lower, upper, best = 0, 0.0, math.inf, (None, 0.0)

    def evaluate(mu: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """-g(mu), its gradient, M and phi; records the bracket mu certifies."""
        nonlocal iterations, lower, upper, best
        iterations += 1
        leaf_mass[targets] = mu
        mass = tree.subtree_sums(leaf_mass)
        phi = phi_coeff * mass ** q
        potential = tree.path_sums(phi)[leaf_start + targets]
        s, total, m = float(phi @ mass), float(mu.sum()), float(potential.min())
        lower = max(lower, total ** p / (p * s ** (p - 1.0)))
        if s / p / m ** p < upper:
            upper, best = s / p / m ** p, (phi, m)
        return s / (q + 1.0) - total, potential - 1.0, mass, phi

    def closed() -> bool:
        return upper - lower <= tol * lower

    def stop_when_closed(intermediate_result) -> None:
        if closed():
            raise StopIteration

    # uniform mass times its best multiple (|mu|/s)**(p-1), with s at unit mass
    leaf_mass[targets] = 1.0
    s = float(phi_coeff @ tree.subtree_sums(leaf_mass) ** (q + 1.0))
    mu = np.full(len(targets), (len(targets) / s) ** (p - 1.0))
    evaluate(mu)
    if not closed():
        # L-BFGS converges slowly where the dual is badly conditioned (p near
        # 1), so after a few iterations the Newton steps below are cheaper
        mu = minimize(
            lambda x: evaluate(x)[:2],
            mu,
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, None)] * len(targets),
            callback=stop_when_closed,
            options={"maxiter": 25, "ftol": 0.0, "gtol": 0.0},
        ).x
    for _newton_step in range(30):
        if closed():
            break
        value, grad, mass, phi = evaluate(mu)
        free = np.flatnonzero((mu > 0) | (grad < 0))
        curvature = np.divide(q * phi, mass, out=np.zeros_like(phi), where=mass > 0)

        def hessian(v: np.ndarray) -> np.ndarray:
            nonlocal iterations
            iterations += 1
            leaf_mass[targets] = 0.0
            leaf_mass[targets[free]] = v
            return tree.path_sums(curvature * tree.subtree_sums(leaf_mass))[leaf_start + targets[free]]

        hessian_op = LinearOperator((len(free), len(free)), matvec=hessian, dtype=float)
        step = cg(hessian_op, -grad[free], rtol=1e-4)[0]
        # halve until g rises: for p > 2 the curvature at a massless target
        # is infinite, which the step above does not see
        for _halving in range(30):
            trial = mu.copy()
            trial[free] = np.maximum(mu[free] + step, 0.0)
            if evaluate(trial)[0] <= value:
                break
            step /= 2
        mu = trial
    if not closed():
        raise ConvergenceError(f"oracle gap {(upper - lower) / lower:.3g} exceeds tol {tol:.3g}")
    return OracleResult(
        value=upper * scale,
        lower=lower * scale,
        gap=(upper - lower) / lower,
        witness=best[0] / best[1],
        violation=max(0.0, 1.0 - best[1]),
        iterations=iterations,
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
