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

import functools
import math
import operator
from fractions import Fraction
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .capacity import finite_tree_capacity, full_tree_capacity
from .errors import ConvergenceError, DomainError
from .exponents import Exponents, Record, _set
from .tree import _leaves, _validate_words

MAX_DEPTH = 20


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
        leaves = _leaves(target_leaves, depth)
        if not leaves:
            raise DomainError("target leaf set must be nonempty")
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
        if self.weights:  # heap indices, one int() call each: int("1" + x, 2) - 1 = 2**|x| - 1 + int(x, 2)
            nodes = map(int, map(operator.add, repeat("1"), self.weights), repeat(2))
            w[np.fromiter(nodes, np.int64, len(self.weights)) - 1] = list(self.weights.values())
        return w


class OracleResult(Record):
    """The solve's bracket, which holds only up to rounding (``solve_capacity``), and witness; unlike
    the other records it is mutable and unhashable, and its equality compares the witness arrays by value."""

    _fields = ("value", "witness", "lower", "gap", "violation", "iterations", "depth")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, value: float, witness: np.ndarray, lower: float, gap: float, violation: float,
                 iterations: int, depth: int):
        self.value, self.witness, self.lower, self.gap = value, witness, lower, gap
        self.violation, self.iterations, self.depth = violation, iterations, depth

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(x is y or np.array_equal(x, y) for x, y in zip(self._values(self), self._values(other)))


@functools.cache
def _levels(depth: int) -> tuple[tuple[int, int], ...]:
    """Heap index bounds [a, b) of each level 0..depth of the dense layout."""
    return tuple((2 ** d - 1, 2 ** (d + 1) - 1) for d in range(depth + 1))


def _leaf_potentials(phi: np.ndarray, depth: int) -> np.ndarray:
    """Sum of ``phi`` (one entry per node) along each leaf's root path, one level at a time."""
    acc = phi[:1]
    for a, b in _levels(depth)[1:]:
        acc = acc.repeat(2) + phi[a:b]
    return acc


def _subtree_sums(leaf_values: np.ndarray, depth: int) -> np.ndarray:
    """Sum of ``leaf_values`` below each node, one entry per node."""
    levels = _levels(depth)
    out = np.empty(2 ** (depth + 1) - 1)
    out[levels[-1][0] :] = leaf_values
    for (pa, pb), (a, b) in zip(levels[-2::-1], levels[:0:-1]):
        np.add(out[a:b:2], out[a + 1 : b : 2], out=out[pa:pb])
    return out


def _tree_solve(d: np.ndarray, free: np.ndarray, rhs: np.ndarray, ridge: float, depth: int) -> np.ndarray:
    """Solve (H + ridge*I) z = rhs on the free leaves; z is zero elsewhere.

    H_ij sums ``d`` (one entry per node) over the common ancestors of
    leaves i and j, so on the subtree of x it is d_x plus the block
    diagonal of the children's.  Sherman-Morrison gives, bottom up, S_x =
    1'H_x^-1 1 and T_x = 1'H_x^-1 rhs from the children's sums S_B, T_B as
    S_B/(1 + d_x S_B) and T_B/(1 + d_x S_B); top down, each subtree solves
    its children with rhs shifted by its parent's shift plus d_x times its
    own T at that shift, which is (shift + d_x T_B)/(1 + d_x S_B).
    """
    inverse = free / (d[2 ** depth - 1 :] + ridge)
    s, t = inverse, rhs * inverse  # S and T of each subtree
    sums = []  # 1 + d_x S_B and d_x T_B per level, leaves excluded
    for a, b in reversed(_levels(depth)[:-1]):
        s, t, dx = s[::2] + s[1::2], t[::2] + t[1::2], d[a:b]
        den, dt = dx * s, dx * t
        den += 1.0
        s /= den
        t /= den
        sums.append((den, dt))
    shift = 0.0  # each node's shift, repeated to its children
    while sums:  # top down, each level freed once used
        den, dt = sums.pop()
        shift = ((shift + dt) / den).repeat(2)
    return (rhs - shift) * inverse


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
    least target potential) of the unadjusted phi behind ``witness``.  The
    bracket holds only up to rounding: value can fall below lower, so gap can
    be a few eps below 0 (-14 eps at worst on random problems of depth <= 8).

    From uniform mass times its best multiple, projected Newton steps on the
    targets with mass or potential below 1 close the gap.  Each step solves
    the Newton system exactly with one tree solve, then halves until g
    rises.  An evaluation sweeps mass up and potential down to the leaves
    (the first takes the start's unit-mass sweep times its multiple); a step
    sweeps curvature down for its ridge and solves once, up and down.
    ``iterations`` counts evaluations plus tree solves: at most 3 at p = 2,
    where a step is exact, and typically 5 otherwise at tol 1e-5, 7 at 1e-8.
    Raises ConvergenceError when the gap is still open after 30 steps.
    """
    if not (1e-8 <= tol <= 1e-3):
        raise DomainError(f"tol must lie in [1e-8, 1e-3], got {tol}")
    p = problem.exponents.p_f
    q = 1.0 / (p - 1.0)  # p' - 1
    depth = problem.depth
    w = problem.weight_array()
    scale = float(w.max())
    targets = _leaf_offsets(problem.target_leaves, depth)
    target_nodes = targets + (2 ** depth - 1)
    target_weight = w[target_nodes] / scale
    phi_coeff = (p * w / scale) ** -q  # normalized so the result scales exactly with the weights
    del w  # of the dense arrays, only those the Newton steps read stay alive
    leaf_mass = np.zeros(2 ** depth)
    iterations, lower, upper, best = 0, 0.0, math.inf, None

    def evaluate(mu: np.ndarray, mass: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """-g(mu), its gradient and phi, given mu's M; records the bracket mu certifies."""
        nonlocal iterations, lower, upper, best
        iterations += 1
        phi = phi_coeff * mass ** q
        grad = _leaf_potentials(phi, depth)[targets] - 1.0
        s, total = float(phi @ mass), float(mu.sum())
        lower = max(lower, total ** p / (p * s ** (p - 1.0)))
        # phi' differs from phi only on the target leaves, where w*phi**p = phi*mu/p
        leaf = phi[target_nodes]
        adjusted = np.maximum(leaf - grad, 0.0)
        energy = (s - float(leaf @ mu)) / p + float(target_weight @ adjusted ** p)
        if energy < upper:
            upper, best = energy, (phi, adjusted, float(grad.min()))
        return s / (q + 1.0) - total, grad, phi

    def closed() -> bool:
        return upper - lower <= tol * lower

    # uniform mass times its best multiple (|mu|/s)**(p-1), with s at unit
    # mass; M is linear in mu, so the unit sweep times that multiple is the start's M
    leaf_mass[targets] = 1.0
    unit = _subtree_sums(leaf_mass, depth)
    multiple = (len(targets) / float(phi_coeff @ unit ** (q + 1.0))) ** (p - 1.0)
    mu, mass = np.full(len(targets), multiple), unit * multiple
    del unit  # at depth 20 it holds 2M doubles
    value, grad, phi = evaluate(mu, mass)
    for _newton_step in range(30):
        if closed():
            break
        free = (mu > 0) | (grad < 0)
        empty = free & (mu == 0)
        curvature = np.divide(q * phi, mass, out=np.zeros_like(phi), where=mass > 0)
        if empty.any():
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
        ridge = 1e-11 * float(_leaf_potentials(curvature, depth)[targets[free]].max())
        iterations += 1
        step = _tree_solve(curvature, free_leaves, rhs, ridge, depth)[targets]
        del curvature, free_leaves, rhs  # freed before the halving evaluations allocate theirs
        # halve until g rises: the quadratic model sees neither the bound
        # mu >= 0 nor how fast the curvature changes away from p = 2
        for _halving in range(30):
            trial = np.maximum(mu + step, 0.0)
            leaf_mass[targets] = trial
            mass = _subtree_sums(leaf_mass, depth)
            trial_value, grad, phi = evaluate(trial, mass)
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
        depth=depth,
    )


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

    Cut at the depth N of the longest generator (at least 1).  Each generator
    g is one target, g padded with zeros to depth N, at the end of a chain of
    m = N - |g| + 1 nodes from g, each of weight c w(g) m**(p-1), with
    w(g) = 2**(-|g|(1-ap)) and c the full-tree constant.  Potentials summing
    to t along m nodes of weight W cost at least W m**-(p-1) t**p (Hoelder,
    equality at equal shares), so each chain costs c w(g) t**p, as g's full
    shifted subtree does.  No target lies off the chains, so the truncated
    program's value is the set's capacity; where every |g| = N, each target
    is one node of weight pi(leaf) * c.
    """
    if not cyl.generators:
        raise DomainError("cannot emulate the empty set as a finite problem")
    n = max(1, *map(len, cyl.generators))
    if n > MAX_DEPTH:
        raise DomainError(f"generators too deep for the oracle (depth {n})")
    c, one_minus_ap, weights = full_tree_capacity(e).value.to_float(), float(1 - e.ap), {}
    for g in cyl.generators:  # the chain g, g0, ..., g0**(m-1)
        m = n - len(g) + 1
        weights |= dict.fromkeys([g + "0" * k for k in range(m)], 2.0 ** (-len(g) * one_minus_ap) * c * m ** e.pm1_f)
    targets = [g.ljust(n, "0") for g in cyl.generators]
    return FiniteProblem(depth=n, target_leaves=targets, exponents=e, weights=weights)
