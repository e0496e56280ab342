import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from capatree import (
    DomainError,
    Exponents,
    FiniteProblem,
    agreement_battery,
    finite_tree_capacity,
    solve_capacity,
)
from capatree.oracle import _leaf_offsets, _leaf_potentials, _subtree_sums, _tree_solve, random_problem
from conftest import NON_BINARY_WORDS, PAIRS, dense_witness, energy_eval, node_index, potential_eval

E = Exponents("1/2", 2)  # weights identically 1


def random_leaves(rng: np.random.Generator, depth: int, density: float) -> tuple[str, ...]:
    count = max(1, round(density * 2 ** depth))
    return tuple(format(int(i), f"0{depth}b") for i in rng.choice(2 ** depth, count, replace=False))


class TestProblemValidation:
    def test_leaf_lengths_must_match_depth(self):
        with pytest.raises(DomainError):
            FiniteProblem(2, ("0",), E)

    def test_nonempty_targets(self):
        for leaves in ((), iter(())):  # an empty iterator is found empty once read
            with pytest.raises(DomainError, match="nonempty"):
                FiniteProblem(2, leaves, E)

    def test_depth_cap(self):
        with pytest.raises(DomainError):
            FiniteProblem(21, ("0" * 21,), E)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_weights_must_be_finite(self, value):
        with pytest.raises(DomainError):
            FiniteProblem(1, ("0",), E, weights={"0": value}).weight_array()

    @pytest.mark.parametrize("value", [math.inf, -1.0])
    def test_weights_checked_on_construction(self, value):
        with pytest.raises(DomainError):
            FiniteProblem(1, ("0",), E, weights={"0": value})

    @pytest.mark.parametrize("word", ["00", "0a"])
    def test_weight_keys_must_be_words_of_the_tree(self, word):
        with pytest.raises(DomainError):
            FiniteProblem(1, ("0",), E, weights={word: 2.0})

    def test_equal_problems_hash_equal(self):
        first = FiniteProblem(1, ("0",), E, weights={"0": 2.0})
        second = FiniteProblem(1, ("0",), E, weights={"0": 2.0})
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second, FiniteProblem(1, ("0",), E)}) == 2

    def test_weights_are_copied_on_construction(self):
        source = {"0": 2.0}
        prob = FiniteProblem(1, ("0",), E, weights=source)
        before = prob.weight_array()
        source["0"] = 5.0
        source["1"] = 3.0
        np.testing.assert_array_equal(prob.weight_array(), before)

    @pytest.mark.parametrize("bad", ["0110a0110011", "01100110011", "0110011001101"] + NON_BINARY_WORDS)
    def test_bad_target_deep_in_a_long_list_is_named(self, bad):
        leaves = [format(i, "012b") for i in range(4096)]
        leaves[3001] = bad
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            FiniteProblem(12, tuple(leaves), E)

    def test_bad_weight_key_is_named(self):
        weights = dict.fromkeys((format(i, "012b") for i in range(4096)), 1.0)
        weights["01x"] = 1.0
        with pytest.raises(DomainError, match="'01x'"):
            FiniteProblem(12, ("0" * 12,), E, weights=weights)

    @pytest.mark.parametrize("leaves", ["01", ["0", 1], [1, 0], ["1", None]])
    def test_a_bare_string_and_non_string_targets_are_rejected(self, leaves):
        # iterating the string "01" would give the targets "0" and "1"
        with pytest.raises(DomainError, match="string"):
            FiniteProblem(1, leaves, E)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_sizes_must_be_ints(self, bad):
        # True and 2.0 equal ints and "2" is no number: each is refused up front
        leaves = ("0" * int(bad), "1" * int(bad))
        with pytest.raises(DomainError, match="int"):
            FiniteProblem(bad, leaves, E)
        with pytest.raises(DomainError, match="count must be >= 1"):
            agreement_battery(count=bad)
        with pytest.raises(DomainError, match="max_depth must be in"):
            agreement_battery(count=1, max_depth=bad)

    def test_depth_is_not_truncated(self):
        with pytest.raises(DomainError, match="int"):
            FiniteProblem(2.7, ("00",), E)

    def test_duplicate_targets_collapse(self):
        prob = FiniteProblem(2, ("11", "00", "11", "01", "00"), E)
        assert prob.target_leaves == ("00", "01", "11")

    @pytest.mark.parametrize(
        "leaves, message",
        [
            (("00", "011", "1"), "target '011' does not have length 2"),
            ("0101", "expected an iterable of words, got the string '0101'"),
            (("00", "0x"), "got '0x'"),
        ],
        ids=["wrong-length", "bare-string", "non-binary"],
    )
    def test_recursion_and_oracle_refuse_leaves_with_one_message(self, leaves, message):
        errors = []
        for build in (finite_tree_capacity, FiniteProblem):
            with pytest.raises(DomainError, match=re.escape(message)) as caught:
                build(2, leaves, E)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    def test_recursion_and_oracle_agree_on_repeated_leaves(self):
        repeated = ("11", "00", "11", "01", "00")
        prob = FiniteProblem(2, repeated, E)
        assert finite_tree_capacity(2, repeated, E) == finite_tree_capacity(2, prob.target_leaves, E)
        assert finite_tree_capacity(2, iter(repeated), E) == finite_tree_capacity(2, ("00", "01", "11"), E)

    def test_weight_array_matches_word_by_word(self):
        rng = np.random.default_rng(7)
        words = {format(int(i), f"0{d}b") if d else "" for d in range(7) for i in rng.integers(0, 2 ** d, 5)}
        weights = {w: float(v) for w, v in zip(sorted(words), rng.uniform(0.5, 2.0, len(words)))}
        prob = FiniteProblem(6, ("000000",), Exponents("1/4", 2), weights=weights)
        reference = FiniteProblem(6, ("000000",), Exponents("1/4", 2)).weight_array()
        for word, value in weights.items():
            reference[node_index(word)] = value
        np.testing.assert_array_equal(prob.weight_array(), reference)


class TestEvaluators:
    def test_potential_of_zero_function(self):
        assert potential_eval({}, "0110") == 0.0

    def test_root_mass_reaches_everywhere(self):
        phi = {"": 1.0}
        for x in ("", "0", "1101"):
            assert potential_eval(phi, x) == 1.0

    def test_unit_mass_path_count(self):
        phi = {w: 1.0 for w in ("", "0", "1", "00", "01", "011")}
        assert potential_eval(phi, "011") == 4.0

    def test_energy_zero(self):
        assert energy_eval({}, FiniteProblem(1, ("0",), E)) == 0.0

    def test_energy_depth_one(self):
        prob = FiniteProblem(1, ("0", "1"), E)
        phi = {"": 2 / 3, "0": 1 / 3, "1": 1 / 3}
        assert energy_eval(phi, prob) == pytest.approx(2 / 3, rel=1e-14)

    def test_energy_single_node_cubic(self):
        prob = FiniteProblem(0, ("",), Exponents("1/3", 3))
        assert energy_eval({"": 1.0}, prob) == pytest.approx(1.0)

    def test_energy_rejects_negative(self):
        with pytest.raises(DomainError):
            energy_eval({"0": -0.5}, FiniteProblem(1, ("0",), E))


class TestTreeSolve:
    @staticmethod
    def dense_solve(depth, d, free, rhs, ridge):
        """(H + ridge*I) z = rhs on the free leaves, H_ij = sum of d over common ancestors."""
        leaf_start = 2 ** depth - 1
        ancestors = []
        for i in range(2 ** depth):
            x, path = leaf_start + i, set()
            while True:
                path.add(x)
                if x == 0:
                    break
                x = (x - 1) // 2
            ancestors.append(path)
        idx = np.flatnonzero(free)
        h = np.array([[sum(d[x] for x in ancestors[i] & ancestors[j]) for j in idx] for i in idx])
        z = np.zeros(2 ** depth)
        z[idx] = np.linalg.solve(h + ridge * np.eye(len(idx)), rhs[idx])
        return z

    @pytest.mark.parametrize("depth", [0, 1, 2, 5, 7, 8])
    def test_matches_dense_solve(self, depth):
        rng = np.random.default_rng(depth)
        n_nodes = 2 ** (depth + 1) - 1
        d = rng.random(n_nodes) * (rng.random(n_nodes) < 0.8)  # some massless nodes
        free = (rng.random(2 ** depth) < 0.7).astype(float)
        free[0] = 1.0
        rhs = rng.standard_normal(2 ** depth) * free
        z = _tree_solve(d, free, rhs, 1e-3, depth)
        expected = self.dense_solve(depth, d, free, rhs, 1e-3)
        assert np.abs(z - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())
        assert not z[free == 0].any()


class TestTreeSweeps:
    @pytest.mark.parametrize("depth", range(10))
    def test_leaf_potentials_match_word_by_word(self, depth):
        rng = np.random.default_rng(depth)
        phi = rng.random(2 ** (depth + 1) - 1) * (rng.random(2 ** (depth + 1) - 1) < 0.7)
        words = [format(i, f"0{d}b") if d else "" for d in range(depth + 1) for i in range(2 ** d)]
        expected = [potential_eval(dict(zip(words, phi)), leaf) for leaf in words[2 ** depth - 1 :]]
        np.testing.assert_allclose(_leaf_potentials(phi, depth), expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("depth", range(10))
    def test_subtree_sums_match_word_by_word(self, depth):
        rng = np.random.default_rng(depth)
        leaf_values = rng.random(2 ** depth) * (rng.random(2 ** depth) < 0.7)
        leaves = [format(i, f"0{depth}b") if depth else "" for i in range(2 ** depth)]
        words = [format(i, f"0{d}b") if d else "" for d in range(depth + 1) for i in range(2 ** d)]
        expected = [sum(v for leaf, v in zip(leaves, leaf_values) if leaf.startswith(word)) for word in words]
        np.testing.assert_allclose(_subtree_sums(leaf_values, depth), expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("depth", [0, 1, 7, 8, 9, 16, 20])
    def test_leaf_offsets_read_words_as_binary(self, depth):
        rng = np.random.default_rng(depth)
        words = [format(int(i), f"0{depth}b") if depth else "" for i in rng.integers(0, 2 ** depth, 50)]
        words += ["0" * depth, "1" * depth]
        assert _leaf_offsets(words, depth).tolist() == [int(w or "0", 2) for w in words]


class TestSolveCapacity:
    def test_depth_one_both_leaves(self):
        res = solve_capacity(FiniteProblem(1, ("0", "1"), E))
        assert res.value == pytest.approx(2 / 3, rel=1e-6)

    def test_depth_one_single_leaf(self):
        res = solve_capacity(FiniteProblem(1, ("0",), E))
        assert res.value == pytest.approx(1 / 2, rel=1e-6)

    def test_depth_two_all_leaves(self):
        res = solve_capacity(FiniteProblem(2, ("00", "01", "10", "11"), E))
        assert res.value == pytest.approx(4 / 7, rel=1e-6)

    def test_witness_is_admissible_and_energy_matches(self):
        prob = FiniteProblem(3, ("000", "011", "110"), Exponents("1/4", 2))
        res = solve_capacity(prob)
        phi = dense_witness(res)
        for leaf in prob.target_leaves:
            assert potential_eval(phi, leaf) >= 1.0 - 1e-12
        assert energy_eval(phi, prob) >= res.value * (1 - 1e-12)

    def test_weight_doubling_doubles_value(self):
        base = FiniteProblem(4, tuple(format(i, "04b") for i in range(0, 16, 3)), E)
        words = [format(i - (2 ** d - 1), f"0{d}b") if d else "" for d in range(5) for i in range(2 ** d - 1, 2 ** (d + 1) - 1)]
        doubled = FiniteProblem(
            base.depth, base.target_leaves, base.exponents, weights={w: 2.0 for w in words}
        )
        v1 = solve_capacity(base).value
        v2 = solve_capacity(doubled).value
        assert abs(v2 - 2 * v1) <= 1e-8 * abs(v2)

    def test_default_weights_given_explicitly_change_nothing(self):
        e = Exponents("1/4", 2)  # ap = 1/2: the default weight 2**(-|x|/2) varies with depth
        leaves = tuple(format(i, "06b") for i in range(0, 64, 5))
        words = [format(i, f"0{d}b") if d else "" for d in range(7) for i in range(2 ** d)]
        weighted = FiniteProblem(6, leaves, e, weights={w: 2.0 ** (-len(w) * 0.5) for w in words})
        plain, given = solve_capacity(FiniteProblem(6, leaves, e)), solve_capacity(weighted)
        assert (given.value, given.lower, given.iterations) == (plain.value, plain.lower, plain.iterations)

    def test_tolerance_domain(self):
        with pytest.raises(DomainError):
            solve_capacity(FiniteProblem(1, ("0",), E), tol=1e-2)

    def test_two_sibling_targets(self):
        res = solve_capacity(FiniteProblem(1, ("0", "1"), E))
        assert res.value == pytest.approx(2 / 3, rel=1e-6)
        assert res.violation < 1e-5
        assert res.gap <= 1e-5

    @pytest.mark.parametrize("e", PAIRS, ids=str)
    def test_bracket_contains_recursion(self, e):
        rng = np.random.default_rng(3)
        for depth in range(1, 11):
            leaves = random_leaves(rng, depth, (0.9, 0.5, 0.25, 0.1)[depth % 4])
            recursion = finite_tree_capacity(depth, leaves, e).to_float()
            res = solve_capacity(FiniteProblem(depth, leaves, e))
            assert res.lower <= recursion * (1 + 1e-12)
            assert res.value >= recursion * (1 - 1e-12)
            assert res.gap <= 1e-5

    @pytest.mark.parametrize("depth", [8, 12, 16])
    @pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(2), Fraction(3)], ids=str)
    def test_tightest_tolerance_closes(self, depth, p):
        rng = np.random.default_rng(depth)
        for ap in (Fraction(1), Fraction(1, 2)):
            e = Exponents(ap / p, p)
            leaves = random_leaves(rng, depth, 0.5)
            recursion = finite_tree_capacity(depth, leaves, e).to_float()
            res = solve_capacity(FiniteProblem(depth, leaves, e), tol=1e-8)
            assert res.gap <= 1e-8
            assert abs(res.value - recursion) / recursion <= 5e-8

    @pytest.mark.parametrize("p", [Fraction(5, 4), Fraction(5)], ids=str)
    def test_randomly_weighted_problems_close(self, p):
        # weights over four decades leave targets with almost no mass (tiny
        # curvature for p < 2) and massless ones (infinite curvature for p > 2)
        rng = np.random.default_rng(11)
        words = [format(i, f"0{d}b") if d else "" for d in range(11) for i in range(2 ** d)]
        for ap in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            for density in (0.9, 0.5, 0.25):
                weights = dict(zip(words, 10.0 ** rng.uniform(-2, 2, len(words))))
                prob = FiniteProblem(10, random_leaves(rng, 10, density), Exponents(ap / p, p), weights=weights)
                res = solve_capacity(prob, tol=1e-8)
                assert res.gap <= 1e-8
                phi = dense_witness(res)
                assert min(potential_eval(phi, leaf) for leaf in prob.target_leaves) >= 1.0 - 1e-12
                assert energy_eval(phi, prob) == pytest.approx(res.value, rel=1e-12)

    def test_bracket_inverts_only_by_rounding(self):
        # value can fall below lower by rounding, so the gap can be slightly negative
        # (-13.9 eps at worst here); the bracket holds only up to rounding
        eps = np.finfo(float).eps
        rng = np.random.default_rng(0)  # the problems of agreement_battery(200)
        problems = [random_problem(rng, 8) for _ in range(200)]
        problems += [FiniteProblem(1, leaves, Exponents(a, p)) for leaves, a, p in (
            (("0",), "1/3", "3/2"), (("0",), "1/6", 3), (("0", "1"), "1/6", 3), (("0", "1"), "1/2", 2))]
        for tol in (1e-5, 1e-8):
            gaps = [solve_capacity(prob, tol=tol).gap for prob in problems]
            assert min(gaps) >= -64 * eps, (tol, min(gaps) / eps)
            assert max(gaps) <= tol


class TestLeafAdjustedWitness:
    """The upper bound's witness: phi with each target leaf moved to bring its potential to 1."""

    @pytest.mark.parametrize("p", [Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)], ids=str)
    @pytest.mark.parametrize("depth, leaves", [
        (0, ("",)),
        (3, ("010",)),
        (4, ("0000", "0010", "0110", "1010", "1100")),
        (6, tuple(format(i, "06b") for i in range(0, 64, 6))),
    ])
    def test_witness_is_admissible_and_carries_the_value(self, p, depth, leaves):
        for ap in (Fraction(1, 2), Fraction(1)):
            prob = FiniteProblem(depth, leaves, Exponents(ap / p, p))
            res = solve_capacity(prob)
            phi = dense_witness(res)
            assert min(potential_eval(phi, leaf) for leaf in leaves) >= 1.0 - 1e-12
            assert energy_eval(phi, prob) == pytest.approx(res.value, rel=1e-12)
            if depth == 0:  # the start, unit mass at its best multiple, is optimal: phi is 1 at the root
                assert res.violation == 0.0
                continue
            # No two targets here are siblings, so a target's mass is its parent's, and
            # phi(t) = phi(parent) * (w(parent)/w(t))**(p'-1) recovers the unadjusted phi.
            w = prob.weight_array()
            raw = []
            for leaf in leaves:
                parent = leaf[:-1]
                leaf_value = phi[parent] * (w[node_index(parent)] / w[node_index(leaf)]) ** (1 / (p - 1))
                raw.append(potential_eval(phi, parent) + leaf_value)
            assert res.violation == pytest.approx(max(0.0, 1.0 - min(raw)), abs=1e-12)

    def test_violation_reads_the_unadjusted_phi(self):
        # off p = 2 the last Newton step leaves phi's least potential short of 1,
        # which phi' hides; violation still reports it
        prob = FiniteProblem(4, ("0000", "0010", "0110", "1010", "1100"), Exponents(Fraction(1, 3), 3))
        assert solve_capacity(prob).violation > 0.0

    def test_bracket_closes_in_two_newton_steps(self):
        # 5 iterations are the start's evaluation and two Newton steps (a tree solve and
        # an evaluation each); an upper bound of first order needs a third step on most rows
        rows = agreement_battery(count=200, seed=0, max_depth=8, tol=1e-5)
        off_two = [row for row in rows if row["p"] != "2" and row["depth"] >= 3]
        assert sum(row["iterations"] <= 5 for row in off_two) >= 0.85 * len(off_two)
        assert sum(row["iterations"] for row in rows) <= 660
        assert all(row["ok"] for row in rows)
        # the Newton path itself is pinned: a change to the solver's arithmetic that moves it shows here
        assert Counter(row["iterations"] for row in rows) == {1: 63, 3: 57, 5: 73, 7: 7}


class TestAgreementBattery:
    def test_small_battery_agrees(self):
        rows = agreement_battery(count=12, seed=7, max_depth=6)
        assert all(row["ok"] for row in rows)
        assert max(row["rel_diff"] for row in rows) <= 5e-5

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_is_rejected(self, count):
        with pytest.raises(DomainError, match="count must be >= 1"):
            agreement_battery(count=count)

    @pytest.mark.parametrize("max_depth", [0, -3, 21, 22])
    def test_max_depth_outside_the_oracle_range_is_rejected(self, max_depth):
        # checked before 2**depth random leaves are drawn
        with pytest.raises(DomainError, match=r"max_depth must be in \[1, 20\]"):
            agreement_battery(count=1, max_depth=max_depth)

    def test_deterministic_for_fixed_seed(self):
        a = agreement_battery(count=4, seed=42, max_depth=5)
        b = agreement_battery(count=4, seed=42, max_depth=5)
        assert a == b

    def test_matches_recursion_on_full_leaf_sets(self):
        for depth in (2, 3, 4):
            leaves = tuple(format(i, f"0{depth}b") for i in range(2 ** depth))
            for e in (E, Exponents("1/4", 2), Exponents("1/2", "3/2")):
                recursion = finite_tree_capacity(depth, leaves, e).to_float()
                solved = solve_capacity(FiniteProblem(depth, leaves, e)).value
                assert abs(solved - recursion) / recursion <= 5e-5
