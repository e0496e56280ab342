import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capatree import (
    CylinderSet,
    DomainError,
    Exponents,
    LogValue,
    cap_component,
    capacity_recursive,
    d_cylinder_set,
    finite_tree_capacity,
    full_tree_capacity,
    phi_apply,
    sigma_closed_form,
    truncated_tree_capacity,
)
from capatree.capacity import BoundKind, Method, _geometric, _sweep
from conftest import PAIRS, phi_composition_exponents, rel_diff, sigma_direct, sweep_reference

E_HALF_2 = Exponents("1/2", 2)
E_THIRD_3 = Exponents("1/3", 3)
E_QUARTER_2 = Exponents("1/4", 2)


def lv(x: float) -> LogValue:
    return LogValue.from_float(x)


def reference_sweep(words, generator_value: LogValue, e: Exponents) -> LogValue:
    """Node-by-node two-child recursion over every prefix of every generator."""
    generators = set(words)
    scale = LogValue.from_log2(e.ap_f - 1.0)
    gamma = {}
    for node in sorted({w[:i] for w in words for i in range(len(w) + 1)}, key=len, reverse=True):
        if node in generators:
            gamma[node] = generator_value
        else:
            children = gamma.get(node + "0", LogValue.zero()) + gamma.get(node + "1", LogValue.zero())
            gamma[node] = phi_apply(LogValue.one(), scale * children, e)
    return gamma[""]


class TestPhiApply:
    def test_point_values(self):
        assert phi_apply(lv(1), lv(1), E_HALF_2).to_float() == pytest.approx(0.5, rel=1e-14)
        assert phi_apply(lv(2), lv(0.5), E_HALF_2).to_float() == pytest.approx(0.25, rel=1e-14)
        assert phi_apply(lv(1), lv(1), E_THIRD_3).to_float() == pytest.approx(0.25, rel=1e-14)

    def test_identity_and_annihilation(self):
        x = lv(0.7)
        assert phi_apply(LogValue.zero(), x, E_HALF_2) == x
        assert phi_apply(lv(3), LogValue.zero(), E_HALF_2).is_zero

    def test_never_exceeds_argument(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = LogValue.from_log2(rng.uniform(-20, 40))
            x = LogValue.from_log2(rng.uniform(-20, 10))
            assert phi_apply(r, x, E_THIRD_3) <= x

    def test_semigroup_law_spot(self):
        r, s, x = lv(1.5), lv(0.25), lv(3.0)
        for e in (E_HALF_2, E_THIRD_3, Exponents("1/5", 5)):
            lhs = phi_apply(r, phi_apply(s, x, e), e)
            rhs = phi_apply(r + s, x, e)
            assert rel_diff(lhs, rhs) <= 1e-12

    def test_scaling_identity_spot(self):
        r, x = lv(2.5), lv(0.8)
        for e in (E_HALF_2, E_THIRD_3):
            lhs = phi_apply(r, LogValue.from_float(2.0) * x, e)
            rhs = LogValue.from_float(2.0) * phi_apply(r * LogValue.from_log2(e.q_f), x, e)
            assert rel_diff(lhs, rhs) <= 1e-12

    def test_monotone_in_x_and_r(self):
        rng = np.random.default_rng(11)
        for e in (E_HALF_2, E_THIRD_3):
            for _ in range(100):
                r = LogValue.from_log2(rng.uniform(-10, 10))
                x = LogValue.from_log2(rng.uniform(-10, 10))
                x_up = LogValue.from_log2(x.log2 + 0.1)
                r_up = LogValue.from_log2(r.log2 + 0.1)
                assert phi_apply(r, x_up, e) > phi_apply(r, x, e)
                assert phi_apply(r_up, x, e) < phi_apply(r, x, e)

    def test_extreme_indices_stay_finite(self):
        out = phi_apply(LogValue.from_log2(4000.0), lv(1.0), E_HALF_2)
        assert out.log2 == pytest.approx(-4000.0, rel=1e-12)
        out = phi_apply(LogValue.from_log2(-4000.0), lv(1.0), E_HALF_2)
        assert out.log2 == pytest.approx(0.0, abs=1e-12)


class TestGeometricSum:
    """_geometric(t)(k) = log2 sum_{j<k} 2**(j t), t <= 0."""

    @pytest.mark.parametrize("t", [0.0, -1e-3, -0.25, -1.0, -3.0])
    def test_matches_direct_sum(self, t):
        for k in range(1, 41):
            direct = math.log2(math.fsum(2.0 ** (j * t) for j in range(k)))
            assert _geometric(t)(k) == pytest.approx(direct, rel=1e-13, abs=1e-13)

    def test_huge_k_is_the_limit(self):
        limit = -math.log2(1 - 2**-0.5)
        assert _geometric(-0.5)(math.inf) == pytest.approx(limit, rel=1e-15)
        assert _geometric(-0.5)(10**400) == _geometric(-0.5)(math.inf)

    @pytest.mark.parametrize(
        "k,t", [(10**400, -1e-306), (math.inf, 0.0)], ids=["huge-k", "ratio-1"]
    )
    def test_outside_the_double_range_raises_domain_error(self, k, t):
        with pytest.raises(DomainError):
            _geometric(t)(k)


class TestFullTreeCapacity:
    def test_linear_critical(self):
        report = full_tree_capacity(E_HALF_2)
        assert report.method is Method.FIXED_POINT
        assert report.bound_kind is BoundKind.EXACT
        assert report.value.to_float() == pytest.approx(0.5, rel=1e-13)

    def test_nonlinear_critical(self):
        expected = 0.5 * (math.sqrt(2) - 1) ** 2
        assert full_tree_capacity(E_THIRD_3).value.to_float() == pytest.approx(expected, rel=1e-13)

    def test_subcritical(self):
        expected = 1 - 2 ** (-0.5)
        assert full_tree_capacity(E_QUARTER_2).value.to_float() == pytest.approx(expected, rel=1e-13)

    def test_is_fixed_point_of_combination(self):
        for e in (E_HALF_2, E_THIRD_3, E_QUARTER_2, Exponents("2/9", "3/2")):
            c = full_tree_capacity(e).value
            image = phi_apply(LogValue.one(), LogValue.from_log2(c.log2 + e.ap_f), e)
            assert rel_diff(image, c) <= 1e-12


class TestTruncatedTreeCapacity:
    def test_depth_examples(self):
        assert truncated_tree_capacity(E_HALF_2, 0).to_float() == 1.0
        assert truncated_tree_capacity(E_HALF_2, 1).to_float() == pytest.approx(2 / 3, rel=1e-14)
        assert truncated_tree_capacity(E_HALF_2, 3).to_float() == pytest.approx(8 / 15, rel=1e-14)

    def test_matches_explicit_leaf_problem(self):
        for depth in range(5):
            leaves = ["".join(b) for b in itertools.product("01", repeat=depth)]
            via_leaves = finite_tree_capacity(depth, leaves, E_HALF_2)
            assert rel_diff(via_leaves, truncated_tree_capacity(E_HALF_2, depth)) <= 1e-12

    @pytest.mark.parametrize("leaves", [["2x"], ["0a", "01"]])
    def test_finite_problem_rejects_non_binary_targets(self, leaves):
        with pytest.raises(DomainError):
            finite_tree_capacity(2, leaves, E_HALF_2)

    @pytest.mark.parametrize("leaves", ["01", "0", [0, 1], ["1", 10], [b"0"]])
    def test_finite_problem_rejects_a_bare_string_and_non_string_targets(self, leaves):
        # iterating the string "01" would give the leaves "0" and "1", the whole depth-1 tree
        with pytest.raises(DomainError, match="string"):
            finite_tree_capacity(1, leaves, E_HALF_2)

    def test_finite_problem_names_a_target_of_the_wrong_length(self):
        for leaves in (["00", "011", "1"], iter(["011", "11"])):  # an iterator is read once
            with pytest.raises(DomainError, match="'011' does not have length 2"):
                finite_tree_capacity(2, leaves, E_HALF_2)
        assert rel_diff(finite_tree_capacity(1, iter(["0", "1"]), E_HALF_2), truncated_tree_capacity(E_HALF_2, 1)) <= 1e-12

    @pytest.mark.parametrize("depth", [True, 2.0, "2"])
    def test_finite_problem_depth_must_be_an_int(self, depth):
        # True would pass for 1 and return the depth-1 capacity
        leaves = ["0" * int(depth), "1" * int(depth)]
        with pytest.raises(DomainError, match="int"):
            finite_tree_capacity(depth, leaves, E_HALF_2)

    @pytest.mark.parametrize("depth", [2.5, True, "3"])
    def test_depth_must_be_an_int(self, depth):
        # a float depth would sum a fractional number of geometric terms
        with pytest.raises(DomainError, match="int"):
            truncated_tree_capacity(E_HALF_2, depth)

    def test_astronomical_depth_is_the_full_tree_value(self):
        e = Exponents("1/2", 2)
        assert truncated_tree_capacity(e, 10**400) == full_tree_capacity(e).value

    def test_nonincreasing_and_converges(self):
        for e in (E_HALF_2, E_THIRD_3, E_QUARTER_2):
            values = [truncated_tree_capacity(e, n) for n in range(0, 80, 4)]
            assert all(a >= b for a, b in zip(values, values[1:]))
        c = full_tree_capacity(Exponents("1/2", 2)).value
        assert rel_diff(truncated_tree_capacity(Exponents("1/2", 2), 80), c) < 1e-12


SMALL_AP = [Exponents(Fraction(1, 1378), 2), Exponents(Fraction(1, 100000), 2)]


class TestSmallAp:
    """a*p near 0, where the map c -> Phi_1(2**ap c) contracts very slowly."""

    @staticmethod
    def closed_form(e: Exponents) -> float:
        # p = 2: c = 1 - 2**(-ap)
        return -math.expm1(-e.ap_f * math.log(2.0))

    @pytest.mark.parametrize("e", SMALL_AP)
    def test_full_tree_matches_closed_form(self, e):
        assert rel_diff(full_tree_capacity(e).value, self.closed_form(e)) <= 1e-13

    def test_every_unit_fraction(self):
        for k in range(2, 3000):
            e = Exponents(Fraction(1, k), 2)
            assert rel_diff(full_tree_capacity(e).value, self.closed_form(e)) <= 1e-12

    @pytest.mark.parametrize("e", SMALL_AP)
    def test_recursion_and_component_are_finite(self, e):
        c = full_tree_capacity(e).value
        union = capacity_recursive(CylinderSet.from_words(["0", "11"]), e).value
        assert math.isfinite(union.log2) and union < c
        closed = cap_component(3, 5, e).value
        assert math.isfinite(closed.log2)
        assert rel_diff(closed, capacity_recursive(d_cylinder_set(3, 5), e).value) <= 1e-10

    @pytest.mark.parametrize("e", SMALL_AP)
    def test_truncation_nonincreasing_to_full_tree(self, e):
        depths = [0, 1, 2, 10, 100, 10**3, 10**4, 10**5, 10**6, 10**8]
        values = [truncated_tree_capacity(e, n) for n in depths]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]
        assert rel_diff(values[-1], full_tree_capacity(e).value) <= 1e-12


class TestCapacityRecursive:
    def test_single_cylinder(self):
        report = capacity_recursive(CylinderSet.from_words(["0"]), E_HALF_2)
        assert report.method is Method.RECURSION
        assert report.value.to_float() == pytest.approx(1 / 3, rel=1e-13)

    def test_whole_boundary(self):
        for e in (E_HALF_2, E_THIRD_3, E_QUARTER_2, Exponents("1/5", "7/2")):
            report = capacity_recursive(CylinderSet.from_words(["0", "1"]), e)
            assert rel_diff(report.value, full_tree_capacity(e).value) <= 1e-12

    def test_depth_two_cylinder(self):
        # two recursion steps from the full-tree base value 1/2:
        # Phi_1(1/2) = 1/3, then Phi_1(1/3) = 1/4
        report = capacity_recursive(CylinderSet.from_words(["00"]), E_HALF_2)
        assert report.value.to_float() == pytest.approx(0.25, rel=1e-13)

    def test_mixed_depth_antichain(self):
        # hand minimization: t**2 + (5/6)(1-t)**2 over the shared root mass,
        # optimal at t = 5/11 with value 5/11
        report = capacity_recursive(CylinderSet.from_words(["0", "10"]), E_HALF_2)
        assert report.value.to_float() == pytest.approx(5 / 11, rel=1e-13)

    def test_empty_set(self):
        assert capacity_recursive(CylinderSet.empty(), E_HALF_2).value.is_zero

    def test_root_generator(self):
        report = capacity_recursive(CylinderSet.from_words([""]), E_THIRD_3)
        assert rel_diff(report.value, full_tree_capacity(E_THIRD_3).value) == 0

    def test_bit_flip_symmetry(self):
        rng = random.Random(5)
        for _ in range(25):
            words = {"".join(rng.choice("01") for _ in range(rng.randint(1, 6))) for _ in range(rng.randint(1, 8))}
            cyl = CylinderSet.from_words(words)
            for e in (E_HALF_2, E_QUARTER_2):
                direct = capacity_recursive(cyl, e).value
                flipped = capacity_recursive(cyl.bit_flip(), e).value
                assert direct.log2 == flipped.log2

    def test_monotone_under_inclusion_exhaustive_depth3(self):
        def antichains(prefix: str, depth: int):
            yield frozenset()
            yield frozenset({prefix})
            if depth > 0:
                for left in antichains(prefix + "0", depth - 1):
                    for right in antichains(prefix + "1", depth - 1):
                        if left or right:
                            if left == frozenset({prefix + "0"}) and right == frozenset({prefix + "1"}):
                                continue  # equals {prefix}, already yielded
                            yield left | right

        all_sets = [CylinderSet.from_words(ws) for ws in antichains("", 3)]
        caps = [capacity_recursive(cyl, E_HALF_2).value for cyl in all_sets]
        for (cyl_a, cap_a), (cyl_b, cap_b) in itertools.product(zip(all_sets, caps), repeat=2):
            if cyl_b.contains_set(cyl_a):
                assert cap_a <= cap_b or rel_diff(cap_a, cap_b) <= 1e-12

    def test_subadditive_on_random_antichains(self):
        rng = random.Random(17)
        for _ in range(50):
            def rand_cyl():
                words = {
                    "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 10))
                }
                return CylinderSet.from_words(words)

            e_set, f_set = rand_cyl(), rand_cyl()
            union = e_set.union(f_set)
            for e in (E_HALF_2, E_THIRD_3):
                cap_union = capacity_recursive(union, e).value
                cap_sum = capacity_recursive(e_set, e).value + capacity_recursive(f_set, e).value
                assert cap_union <= cap_sum or rel_diff(cap_union, cap_sum) <= 1e-12


word_lists = st.lists(st.text(alphabet="01", max_size=20), min_size=1, max_size=40)
leaf_sets = st.integers(0, 20).flatmap(
    lambda d: st.tuples(
        st.just(d), st.lists(st.text(alphabet="01", min_size=d, max_size=d), min_size=1, max_size=40)
    )
)


class TestSweepEngine:
    """The compressed-trie sweep against the node-by-node recursion it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(word_lists, st.sampled_from(PAIRS))
    def test_capacity_recursive_matches_reference(self, words, e):
        cyl = CylinderSet.from_words(words)
        expected = reference_sweep(cyl.generators, full_tree_capacity(e).value, e)
        assert rel_diff(capacity_recursive(cyl, e).value, expected) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(leaf_sets, st.sampled_from(PAIRS))
    def test_finite_tree_capacity_matches_reference(self, depth_and_leaves, e):
        depth, leaves = depth_and_leaves
        expected = reference_sweep(set(leaves), LogValue.one(), e)
        assert rel_diff(finite_tree_capacity(depth, leaves, e), expected) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(word_lists, st.sampled_from(PAIRS))
    def test_bit_flip_is_exact(self, words, e):
        cyl = CylinderSet.from_words(words)
        assert capacity_recursive(cyl.bit_flip(), e) == capacity_recursive(cyl, e)

    def test_bit_identical_to_the_reference_sweep(self):
        """Neighbour LCPs from maps and reuse of repeated branches change no bit."""
        rng = random.Random(20261018)
        exps = PAIRS + [Exponents("1/8", 2), Exponents("3/10", "5/2"), Exponents("1/5", 5)]
        one = LogValue.one()
        singles = roots = deepest = 0
        for i in range(1000):
            e = rng.choice(exps)
            kind = ("mixed", "dense", "run", "single")[i % 4]
            if kind == "mixed":
                words = ["".join(rng.choices("01", k=rng.randint(0, 40))) for _ in range(rng.randint(1, 80))]
            elif kind == "dense":
                d = min(rng.randint(0, 12), rng.randint(0, 12))  # fewer of the slow deep sets
                count = rng.randint(1, 2 ** d)
                deepest = max(deepest, d)
                words = [format(j, f"0{d}b") if d else "" for j in rng.sample(range(2 ** d), count)]
            elif kind == "run":
                n = rng.randint(0, 7)
                words = list(d_cylinder_set(n, rng.randint(1, 3 * n + 3)).generators)
            else:
                words = ["".join(rng.choices("01", k=rng.choice((0, 0, 1, 5, 40))))]
            cyl = CylinderSet.from_words(words)
            singles += len(cyl) == 1
            roots += cyl.generators == ("",)
            c = full_tree_capacity(e).value
            assert capacity_recursive(cyl, e).value.log2 == sweep_reference(cyl, c, e).log2, (words, e)
            depths = set(map(len, cyl.generators))
            if len(depths) == 1:
                got = finite_tree_capacity(depths.pop(), cyl.generators, e)
            else:
                got = _sweep(cyl, one, e)
            assert got.log2 == sweep_reference(cyl, one, e).log2, (words, e)
        assert singles >= 250 and roots >= 40 and deepest == 12

    def test_bit_identical_on_unsorted_repeated_and_ragged_input(self):
        """Input order, repeats and neighbours of very different lengths change no bit."""
        rng = random.Random(20261019)
        exps = PAIRS + [Exponents("1/8", 2), Exponents("1/5", 5)]
        one = LogValue.one()

        def bits(k):
            return "".join(rng.choices("01", k=k))

        for i in range(120):
            e = rng.choice(exps)
            kind = ("unsorted", "repeated", "flipped", "ragged")[i % 4]
            words = [bits(rng.randint(1, 14)) for _ in range(rng.randint(2, 120))]
            if kind == "repeated":
                words = rng.choices(words, k=2 * len(words))
            elif kind == "flipped":
                # bit_flip images reach from_words in reverse-sorted order
                words = sorted(CylinderSet.from_words(words).generators, reverse=True)
            elif kind == "ragged":
                # neighbours that differ in length by >= 10 000 digits, long-short and short-long
                words = []
                for _ in range(rng.randint(1, 4)):
                    stem = bits(rng.randint(0, 30))
                    long_tail = bits(rng.randint(10_000, 12_000))
                    words += [stem + "0" + long_tail, stem + "1"] if rng.random() < 0.5 else [stem + "0", stem + "1" + long_tail]
                rng.shuffle(words)
            present = set(words)
            canonical = CylinderSet(w for w in present if not any(w != v and w.startswith(v) for v in present))
            cyl = CylinderSet.from_words(words)
            assert cyl == canonical, (kind, words)
            c = full_tree_capacity(e).value
            assert capacity_recursive(cyl, e).value.log2 == sweep_reference(canonical, c, e).log2, (kind, e)
            assert _sweep(cyl, one, e).log2 == sweep_reference(canonical, one, e).log2, (kind, e)
            if kind == "flipped":
                assert capacity_recursive(cyl.bit_flip(), e) == capacity_recursive(cyl, e)
        # a chain of 100 000 levels next to a generator at depth 1
        cyl = CylinderSet.from_words(["0" * 100_000 + "1", "1"])
        c = full_tree_capacity(E_THIRD_3).value
        assert capacity_recursive(cyl, E_THIRD_3).value.log2 == sweep_reference(cyl, c, E_THIRD_3).log2
        assert _sweep(cyl, one, E_THIRD_3).log2 == sweep_reference(cyl, one, E_THIRD_3).log2

    def test_memory_is_linear_in_the_digits(self):
        # padding every word to the deepest one would hold 8192 100000-digit keys
        words = ["1" * 100_000] + [format(i, "014b") for i in range(2 ** 13)]
        cyl = CylinderSet.from_words(words)
        tracemalloc.start()
        try:
            value = capacity_recursive(cyl, E_THIRD_3).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert value.log2 == sweep_reference(cyl, full_tree_capacity(E_THIRD_3).value, E_THIRD_3).log2

    def test_deep_comb(self):
        # "1", "01", "001", ...: a chain of 3000 branch nodes, each with one
        # generator hanging off it; the bottom node has a single child
        depth = 3000
        cyl = CylinderSet.from_words("0" * k + "1" for k in range(depth))
        c = full_tree_capacity(E_THIRD_3).value
        scale = LogValue.from_log2(E_THIRD_3.ap_f - 1.0)
        one = LogValue.one()
        value = phi_apply(one, scale * c, E_THIRD_3)
        for _ in range(depth - 1):
            value = phi_apply(one, scale * (value + c), E_THIRD_3)
        assert rel_diff(capacity_recursive(cyl, E_THIRD_3).value, value) <= 1e-12


class TestOracleCrossChecks:
    """Infinite cylinder capacities re-derived by the convex program.

    Leaves covered by the set get weight pi(leaf) * c, which makes the
    finite program equal to the infinite one exactly.
    """

    @pytest.mark.parametrize(
        "words,expected",
        [(["0"], 1 / 3), (["00"], 1 / 4), (["00", "01", "1"], 1 / 2), (["00", "1"], None)],
    )
    def test_emulated_problem_agrees(self, words, expected):
        from capatree import emulated_infinite_problem, solve_capacity

        cyl = CylinderSet.from_words(words)
        recursion = capacity_recursive(cyl, E_HALF_2).value.to_float()
        if expected is not None:
            assert recursion == pytest.approx(expected, rel=1e-12)
        solved = solve_capacity(emulated_infinite_problem(cyl, E_HALF_2), tol=1e-6)
        assert abs(solved.value - recursion) / recursion <= 5e-6

    def test_emulated_problem_subcritical(self):
        from capatree import emulated_infinite_problem, solve_capacity

        cyl = CylinderSet.from_words(["01", "001", "11"])
        for e in (E_QUARTER_2, Exponents("1/6", 3)):
            recursion = capacity_recursive(cyl, e).value.to_float()
            solved = solve_capacity(emulated_infinite_problem(cyl, e), tol=1e-6)
            assert abs(solved.value - recursion) / recursion <= 5e-6

    @pytest.mark.parametrize("e", PAIRS, ids=str)
    def test_run_sets_at_depth_sixteen(self, e):
        from capatree import emulated_infinite_problem, solve_capacity

        for n in range(0, 12, 2):
            closed = cap_component(n, 16 - n, e).value.to_float()
            solved = solve_capacity(emulated_infinite_problem(d_cylinder_set(n, 16 - n), e), tol=1e-8)
            assert solved.lower <= closed * (1 + 1e-12)
            assert solved.value >= closed * (1 - 1e-12)

    def test_covered_leaves_match_word_by_word_scan(self):
        from capatree import emulated_infinite_problem

        rng = random.Random(5)
        for _ in range(40):
            words = {
                "".join(rng.choice("01") for _ in range(rng.randint(0, 7)))
                for _ in range(rng.randint(1, 6))
            }
            cyl = CylinderSet.from_words(words)
            n = max(1, *(len(g) for g in cyl.generators))
            leaves = [format(i, f"0{n}b") for i in range(2 ** n) if cyl.covers(format(i, f"0{n}b"))]
            prob = emulated_infinite_problem(cyl, E_THIRD_3)
            assert prob.depth == n
            assert prob.target_leaves == tuple(leaves)
            assert set(prob.weights) == set(leaves)

    def test_leaves_and_weights_match_the_per_leaf_construction(self):
        from capatree import emulated_infinite_problem

        weight_below = full_tree_capacity(E_THIRD_3).value.to_float()
        rng = random.Random(14)
        sets = [[""], ["0", "10"]] + [
            {"".join(rng.choice("01") for _ in range(rng.randint(0, 12))) for _ in range(rng.randint(1, 8))}
            for _ in range(30)
        ]
        for words in sets:
            cyl = CylinderSet.from_words(words)
            n = max(1, *(len(g) for g in cyl.generators))
            # one format() per covered leaf, the construction the suffix tables replace
            leaves = tuple(
                format((int(g or "0", 2) << (n - len(g))) + i, f"0{n}b")
                for g in cyl.generators
                for i in range(2 ** (n - len(g)))
            )
            prob = emulated_infinite_problem(cyl, E_THIRD_3)
            assert prob.target_leaves == leaves
            weight = 2.0 ** (-n * float(1 - E_THIRD_3.ap)) * weight_below
            assert prob.weights == dict.fromkeys(leaves, weight)


class TestSigma:
    def test_critical_values(self):
        for n, kappa, expected in ((1, 1, 3.0), (4, 8, 38.0)):
            closed = sigma_closed_form(n, kappa, E_HALF_2)
            assert closed.to_float() == pytest.approx(expected, rel=1e-12)
            assert rel_diff(closed, sigma_direct(n, kappa, E_HALF_2)) <= 1e-10

    def test_subcritical_value(self):
        expected = 4 + 2 ** 1.5 + 2 + 2 ** 1.5  # direct summation of the four indices
        closed = sigma_closed_form(2, 2, E_QUARTER_2)
        assert closed.to_float() == pytest.approx(expected, rel=1e-12)
        assert rel_diff(closed, sigma_direct(2, 2, E_QUARTER_2)) <= 1e-10

    @pytest.mark.parametrize("e", [E_HALF_2, E_THIRD_3, E_QUARTER_2, Exponents("1/3", "3/2")])
    def test_closed_form_matches_direct_sum(self, e):
        for n in range(0, 7):
            for kappa in (1, 2, 5, 17):
                closed = sigma_closed_form(n, kappa, e)
                direct = sigma_direct(n, kappa, e)
                assert rel_diff(closed, direct) <= 1e-10

    def test_huge_arguments_stay_in_log_range(self):
        value = sigma_closed_form(10_000, 2**50, E_THIRD_3)
        assert math.isfinite(value.log2)

    @pytest.mark.parametrize("n,kappa", [(1, 2**2000), (2**2000, 1)])
    def test_beyond_the_double_range_raises_domain_error(self, n, kappa):
        with pytest.raises(DomainError):
            sigma_closed_form(n, kappa, E_QUARTER_2)
        with pytest.raises(DomainError):
            cap_component(n, kappa, E_QUARTER_2)

    @pytest.mark.parametrize("n,kappa", [(2.5, 3), (2.0, 3), (True, 3), (2, 3.0), (2, True), (Fraction(2), 3), ("2", 3)])
    def test_non_int_arguments_raise_domain_error(self, n, kappa):
        for f in (sigma_closed_form, cap_component):
            with pytest.raises(DomainError, match="need ints"):
                f(n, kappa, E_HALF_2)

    def test_critical_run_sum_takes_any_kappa(self):
        # at (1/2, 2) sigma = 2**(n+1) - 2 + kappa exactly
        assert sigma_closed_form(1, 2**2000, E_HALF_2).log2 == pytest.approx(2000.0, abs=1e-12)
        assert cap_component(1, 2**2000, E_HALF_2).value.log2 == pytest.approx(-1999.0, abs=1e-12)

    def test_composition_order_independence(self):
        rng = random.Random(23)
        for e in (E_HALF_2, E_THIRD_3, E_QUARTER_2):
            c = full_tree_capacity(e).value
            factors = phi_composition_exponents(3, 4, e)
            reference = None
            for _ in range(6):
                order = factors[:]
                rng.shuffle(order)
                out = c
                for exponent in order:
                    out = phi_apply(LogValue.from_log2(exponent), out, e)
                direct = phi_apply(sigma_closed_form(3, 4, e), c, e)
                assert rel_diff(out, direct) <= 1e-11
                if reference is not None:
                    assert rel_diff(out, reference) <= 1e-12
                reference = out


class TestCapComponent:
    def test_critical_examples(self):
        assert cap_component(1, 1, E_HALF_2).value.to_float() == pytest.approx(2 / 5, rel=1e-12)
        assert cap_component(0, 1, E_HALF_2).value.to_float() == pytest.approx(1 / 3, rel=1e-12)
        assert cap_component(10, 1024, E_HALF_2).value.to_float() == pytest.approx(1 / 3, rel=1e-12)

    def test_component_zero_matches_plain_cylinder(self):
        direct = capacity_recursive(CylinderSet.from_words(["0"]), E_HALF_2).value
        assert rel_diff(cap_component(0, 1, E_HALF_2).value, direct) <= 1e-12

    def test_closed_form_matches_recursion_on_explicit_sets(self):
        for e in (E_HALF_2, E_THIRD_3, E_QUARTER_2):
            for n in range(0, 5):
                for kappa in (1, 2, 3):
                    closed = cap_component(n, kappa, e).value
                    explicit = capacity_recursive(d_cylinder_set(n, kappa), e).value
                    assert rel_diff(closed, explicit) <= 1e-10

    def test_log_domain_far_beyond_linear_range(self):
        # subcritical run sets decay like 2**(ap*n - (1-ap)*kappa), far
        # below what linear doubles can represent
        out = cap_component(100, 2**20, E_QUARTER_2)
        assert math.isfinite(out.value.log2)
        assert out.value.log2 < -500_000

    def test_huge_n_stays_at_or_below_the_full_tree(self):
        # at (1/3, 3) with kappa fixed the components rise to c itself; at
        # (1/6, 3) with kappa = n they tend to c (2 + 2**(-1/4))**-2
        c = full_tree_capacity(E_THIRD_3).value.log2
        out = cap_component(10**20, 5, E_THIRD_3).value.log2
        assert c - 1e-12 <= out <= c
        e = Exponents("1/6", 3)
        c = full_tree_capacity(e).value.log2
        out = cap_component(10**20, 10**20, e).value.log2
        assert out <= c
        assert out == pytest.approx(c - 2 * math.log2(2 + 2 ** -0.25), abs=1e-12)

    def test_critical_branch_saturates_for_slow_runs(self):
        # with kappa far below 2**n the branching term dominates sigma and
        # cancels the 2**n prefactor exactly, so the value stays order one
        out = cap_component(5000, 2**20, E_THIRD_3)
        assert -10 < out.value.log2 < 0
