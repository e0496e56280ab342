"""Independent capacity oracle: solve the defining convex program directly.

The discrete capacity is the minimum of sum(w(x) * phi(x)**p) over
nonnegative phi whose root-to-leaf sums reach 1 on every target leaf of a
truncated tree.  This module solves that program through its dual, a
concave maximization over masses on the target leaves, and returns a
certified bracket: every mass gives a lower bound, and the function it
induces, with each target leaf moved so that its potential is 1 where it
can be, gives an upper bound.  It shares no code with the recursion engine
it is used to corroborate.  Plain linear doubles throughout; depth is
capped at 20, where the dense heap arrays hold 2M doubles each.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain, islice, repeat
from typing import Mapping, Sequence

import numpy as np

from .capacity import finite_tree_capacity, full_tree_capacity
from .errors import ConvergenceError, DomainError
from .exponents import Exponents, Record, _set
from .tree import _sorted_words, _validate_words

MAX_DEPTH = 20


def _node_indices(words: Sequence[str]) -> np.ndarray:
    """Heap indices of many words, one int() call each: int("1" + w, 2) - 1 = 2**|w| - 1 + int(w, 2)."""
    prefixed = map(operator.add, repeat("1"), words)
    return np.fromiter(map(int, prefixed, repeat(2)), np.int64, len(words)) - 1


_BYTE_PLACES = np.array([1, 1 << 8, 1 << 16])  # a leaf offset has at most MAX_DEPTH = 20 bits


def _leaf_offsets(leaves: Sequence[str], depth: int) -> np.ndarray:
    """int(w, 2) of many length-``depth`` words at once: each word's bits packed low bit first, bytes read by place."""
    bits = np.frombuffer("".join(leaves).encode(), np.uint8).reshape(len(leaves), depth)[:, ::-1] & 1
    return np.packbits(bits, axis=1, bitorder="little") @ _BYTE_PLACES[: (depth + 7) // 8]


class FiniteProblem(Record):
    """A depth-N capacity problem over the truncated tree.

    ``weights`` overrides the default node weight 2**(-|x|(1-ap)) where
    given (keyed by word).  Each key must be a binary word of length at
    most ``depth`` and each value finite and positive; both are checked
    on construction, which keeps its own copy, so later changes to the
    caller's mapping do not reach the problem, and it hashes by content.
    """

    _fields = ("depth", "target_leaves", "exponents", "weights")

    def __init__(self, depth: int, target_leaves: Sequence[str], exponents: Exponents,
                 weights: Mapping[str, float] | None = None):
        if type(depth) is not int or not (0 <= depth <= MAX_DEPTH):
            raise DomainError(f"depth must be an int in [0, {MAX_DEPTH}], got {depth!r}")
        if not target_leaves:
            raise DomainError("target leaf set must be nonempty")
        leaves = _sorted_words(target_leaves)
        if any(map(operator.eq, leaves, islice(leaves, 1, None))):  # duplicates are neighbours
            leaves = list(dict.fromkeys(leaves))
        leaves = tuple(leaves)
        if set(map(len, leaves)) != {depth}:
            leaf = next(w for w in leaves if len(w) != depth)
            raise DomainError(f"target {leaf!r} does not have length {depth}")
        if weights is not None:
            weights = dict(weights)
            _validate_words(list(weights))
            if max(map(len, weights), default=0) > depth:
                word = next(w for w in weights if len(w) > depth)
                raise DomainError(f"weight on {word!r} lies outside the depth-{depth} tree")
            values = np.fromiter(weights.values(), float, len(weights))
            bad = ~(np.isfinite(values) & (values > 0))
            if bad.any():
                word = list(weights)[int(bad.argmax())]
                raise DomainError(f"weights must be positive and finite, got {word!r}: {weights[word]}")
        _set(self, "depth", depth)
        _set(self, "target_leaves", leaves)
        _set(self, "exponents", exponents)
        _set(self, "weights", weights)

    def __hash__(self) -> int:
        weights = None if self.weights is None else frozenset(self.weights.items())
        return hash((self.depth, self.target_leaves, self.exponents, weights))

    def weight_array(self) -> np.ndarray:
        one_minus_ap, levels = float(1 - self.exponents.ap), range(self.depth + 1)
        w = np.array([2.0 ** (-d * one_minus_ap) for d in levels]).repeat([2 ** d for d in levels])
        if self.weights:
            w[_node_indices(list(self.weights))] = list(self.weights.values())
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
            depth=data["depth"],
            target_leaves=tuple(data["target_leaves"]),
            exponents=Exponents(data["a"], data["p"]),
            weights=data.get("weights"),
        )


class OracleResult(Record):
    """The solve's bracket and witness; unlike the other records it is mutable and unhashable."""

    _fields = ("value", "witness", "lower", "gap", "violation", "iterations", "depth")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, value: float, witness: np.ndarray, lower: float, gap: float, violation: float,
                 iterations: int, depth: int):
        self.value = value
        self.witness = witness
        self.lower = lower
        self.gap = gap
        self.violation = violation
        self.iterations = iterations
        self.depth = depth

    def witness_dict(self) -> dict[str, float]:
        """The positive values, keyed by word: node i holds the word bin(i + 1) without its "0b1"."""
        return {bin(i + 1)[3:]: float(self.witness[i]) for i in np.flatnonzero(self.witness > 0).tolist()}

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
    """Vectorized sweeps over a dense heap layout: path sums, subtree sums, tree solves."""

    def __init__(self, depth: int):
        self.depth = depth
        self.levels = [(2 ** d - 1, 2 ** (d + 1) - 1) for d in range(depth + 1)]

    def path_sums(self, phi: np.ndarray) -> np.ndarray:
        out = phi.copy()
        for (pa, pb), (a, b) in zip(self.levels, self.levels[1:]):
            children = out[a:b].reshape(-1, 2)  # a view: one row per parent
            children += out[pa:pb, None]
        return out

    def subtree_sums(self, leaf_values: np.ndarray) -> np.ndarray:
        out = np.empty(2 ** (self.depth + 1) - 1)
        out[self.levels[-1][0] :] = leaf_values
        for (pa, pb), (a, b) in zip(self.levels[-2::-1], self.levels[:0:-1]):
            np.add(out[a:b:2], out[a + 1 : b : 2], out=out[pa:pb])
        return out

    def solve(self, d: np.ndarray, free: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
        """Solve (H + ridge*I) z = rhs on the free leaves; z is zero elsewhere.

        H_ij sums ``d`` (one entry per node) over the common ancestors of
        leaves i and j, so on the subtree of x it is d_x plus the block
        diagonal of the children's.  Sherman-Morrison gives, bottom up, S_x =
        1'H_x^-1 1 and T_x = 1'H_x^-1 rhs from the children's sums S_B, T_B as
        S_B/(1 + d_x S_B) and T_B/(1 + d_x S_B); top down, each subtree solves
        its children with rhs shifted by its parent's shift plus d_x times its
        own T at that shift, which is (shift + d_x T_B)/(1 + d_x S_B).
        """
        a, b = self.levels[-1]
        st = np.empty((2, b - a))  # S and T of each subtree, one row each
        inverse = np.divide(free, d[a:b] + ridge, out=st[0])
        np.multiply(rhs, inverse, out=st[1])
        sums = []  # 1 + d_x S_B and d_x T_B per level, leaves excluded, one row per parent
        for a, b in reversed(self.levels[:-1]):
            st = st[:, ::2] + st[:, 1::2]
            dst = d[a:b] * st
            dst[0] += 1.0
            st /= dst[0]
            sums.append(dst.reshape(2, -1, min(2, b - a)))
        shift = np.zeros((1, 1))  # a column: each parent's shift, broadcast to its children
        while sums:  # top down, each level freed once used
            den, dt = sums.pop()
            shift = ((shift + dt) / den).reshape(-1, 1)
        return ((rhs.reshape(len(shift), -1) - shift) * inverse.reshape(len(shift), -1)).ravel()


def solve_capacity(problem: FiniteProblem, tol: float = 1e-5) -> OracleResult:
    """Capacity of a finite problem, certified by a bracket from its dual.

    The dual maximizes, over masses mu >= 0 on the target leaves, the
    concave g(mu) = |mu| - sum_x phi(x) * M(x) / p', where M(x) is the mass
    below x and phi = (M / (p*w))**(p'-1) minimizes the Lagrangian; the
    gradient of g at a target is 1 minus the potential of phi there.  Every
    evaluated mu brackets the capacity.  With s = sum(phi * M), phi's
    energy s/p, its best multiple gives the lower bound
    |mu|**p / (p * s**(p-1)).  Setting each target leaf t to
    max(0, phi(t) + 1 - P_t), P_t its potential, gives an admissible phi'
    whose energy is the upper bound.  By KKT the energy's gradient at the
    optimum is sum_t mu_t grad P_t, so phi', with potential 1 on every
    target whose leaf can drop that far, misses the optimum at second order
    in the error of mu, as the lower bound does (phi rescaled by its least
    potential misses at first order).  ``value`` and ``witness`` are the
    best upper bound and its phi', ``lower`` the best lower bound, ``gap``
    = (value - lower) / lower <= ``tol``, and ``violation`` = max(0, 1 -
    least target potential) of the unadjusted phi behind ``witness``.

    From uniform mass times its best multiple, projected Newton steps on the
    targets with mass or potential below 1 close the gap.  Each step solves
    the Newton system exactly with one tree solve, then halves until g
    rises.  An evaluation and a tree solve cost two tree sweeps each;
    ``iterations`` counts evaluations plus tree solves: at most 3 at p = 2,
    where a step is exact, and typically 5 otherwise at tol 1e-5, 7 at 1e-8.
    Raises ConvergenceError when the gap is still open after 30 steps.
    """
    if not (1e-8 <= tol <= 1e-3):
        raise DomainError(f"tol must lie in [1e-8, 1e-3], got {tol}")
    p = problem.exponents.p_f
    q = 1.0 / (p - 1.0)  # p' - 1
    tree = _TreeArrays(problem.depth)
    w = problem.weight_array()
    scale = float(w.max())
    targets = _leaf_offsets(problem.target_leaves, problem.depth)
    target_nodes = targets + (2 ** problem.depth - 1)
    target_weight = w[target_nodes] / scale
    phi_coeff = (p * w / scale) ** -q  # normalized so the result scales exactly with the weights
    del w  # of the dense arrays, only those the Newton steps read stay alive
    leaf_mass = np.zeros(2 ** problem.depth)
    iterations, lower, upper, best = 0, 0.0, math.inf, None

    def evaluate(mu: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """-g(mu), its gradient, M and phi; records the bracket mu certifies."""
        nonlocal iterations, lower, upper, best
        iterations += 1
        leaf_mass[targets] = mu
        mass = tree.subtree_sums(leaf_mass)
        phi = phi_coeff * mass ** q
        grad = tree.path_sums(phi)[target_nodes] - 1.0
        s, total = float(phi @ mass), float(mu.sum())
        lower = max(lower, total ** p / (p * s ** (p - 1.0)))
        # phi' differs from phi only on the target leaves, where w*phi**p = phi*mu/p
        leaf = phi[target_nodes]
        adjusted = np.maximum(leaf - grad, 0.0)
        energy = (s - float(leaf @ mu)) / p + float(target_weight @ adjusted ** p)
        if energy < upper:
            upper, best = energy, (phi, adjusted, float(grad.min()))
        return s / (q + 1.0) - total, grad, mass, phi

    def closed() -> bool:
        return upper - lower <= tol * lower

    # uniform mass times its best multiple (|mu|/s)**(p-1), with s at unit mass
    leaf_mass[targets] = 1.0
    s = float(phi_coeff @ tree.subtree_sums(leaf_mass) ** (q + 1.0))
    mu = np.full(len(targets), (len(targets) / s) ** (p - 1.0))
    value, grad, mass, phi = evaluate(mu)
    for _newton_step in range(30):
        if closed():
            break
        free = (mu > 0) | (grad < 0)
        empty = free & (mu == 0)
        curvature = np.divide(q * phi, mass, out=np.zeros_like(phi), where=mass > 0)
        # A massless target's curvature is 0 for p < 2 and infinite for p > 2;
        # give it the secant curvature of its own term c*t**q at the t where
        # that term alone cancels the gradient, t = (-grad/c)**(1/q).
        nodes = target_nodes[empty]
        curvature[nodes] = phi_coeff[nodes] ** (1.0 / q) * (-grad[empty]) ** (1.0 - 1.0 / q)
        free_leaves, rhs = np.zeros(len(leaf_mass)), np.zeros(len(leaf_mass))
        free_leaves[targets], rhs[targets] = free, np.where(free, -grad, 0.0)
        # For p < 2 a nearly massless target has nearly no curvature: H is
        # singular to working precision and the target's step is huge.  A
        # ridge of 1e-11 times H's largest diagonal entry damps both.  On
        # random weighted problems at tol 1e-8, 1e-12 to 1e-10 closed every
        # one; 1e-13 and 1e-9 left a few open.
        ridge = 1e-11 * float(tree.path_sums(curvature)[target_nodes[free]].max())
        iterations += 1
        step = tree.solve(curvature, free_leaves, rhs, ridge)[targets]
        del curvature, free_leaves, rhs  # freed before the halving evaluations allocate theirs
        # halve until g rises: the quadratic model sees neither the bound
        # mu >= 0 nor how fast the curvature changes away from p = 2
        for _halving in range(30):
            trial = np.maximum(mu + step, 0.0)
            trial_value, grad, mass, phi = evaluate(trial)
            if trial_value <= value:
                break
            step /= 2
        mu, value = trial, trial_value
    if not closed():
        raise ConvergenceError(f"oracle gap {(upper - lower) / lower:.3g} exceeds tol {tol:.3g}")
    witness, adjusted, least_grad = best
    witness[target_nodes] = adjusted  # phi' is built once, in place: nothing reads that phi again
    return OracleResult(
        value=upper * scale,
        lower=lower * scale,
        gap=(upper - lower) / lower,
        witness=witness,
        violation=max(0.0, -least_grad),
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
    if type(max_depth) is not int or not (1 <= max_depth <= MAX_DEPTH):  # before 2**depth leaves are drawn
        raise DomainError(f"max_depth must be in [1, {MAX_DEPTH}], got {max_depth!r}")
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
    if type(count) is not int or count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
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


def emulated_infinite_problem(cyl, e: Exponents) -> FiniteProblem:
    """Finite problem whose value equals the infinite capacity of a cylinder set.

    Cut at the depth N of the longest generator (at least 1): a leaf weighted
    by v has rooted capacity v, so giving each covered depth-N leaf the weight
    pi(leaf) * c (the full shifted subtree below it) makes the truncated
    program agree exactly with the infinite one.
    """
    if cyl.is_empty():
        raise DomainError("cannot emulate the empty set as a finite problem")
    n = max(1, *map(len, cyl.generators))
    if n > MAX_DEPTH:
        raise DomainError(f"generators too deep for the oracle (depth {n})")
    # a generator g covers g followed by every word of length n - |g|
    tables = {0: ("",), 1: ("0", "1")}

    def words(k: int) -> Sequence[str]:
        """The words of length k in order: one concatenation per word of two half-length tables."""
        if k not in tables:
            tables[k] = [head + tail for head in words(k - k // 2) for tail in words(k // 2)]
        return tables[k]

    covered = (map(operator.add, repeat(g), words(n - len(g))) for g in cyl.generators)
    leaves = tuple(chain.from_iterable(covered))
    weight = 2.0 ** (-n * float(1 - e.ap)) * full_tree_capacity(e).value.to_float()
    return FiniteProblem(
        depth=n, target_leaves=leaves, exponents=e, weights=dict.fromkeys(leaves, weight)
    )
