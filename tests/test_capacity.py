import functools
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
    Geometric,
    LogValue,
    cap_component,
    capacity_recursive,
    comparability_report,
    d_cylinder_set,
    finite_tree_capacity,
    full_tree_capacity,
    phi_apply,
    sigma_closed_form,
    truncated_tree_capacity,
)
from capatree import capacity
from capatree.capacity import _LN2, BoundKind, Method, _geometric, _kernel, _sweep, _times
from conftest import (
    PAIRS,
    half_two_capacity,
    half_two_component,
    half_two_critical_ratio,
    half_two_finite_tree,
    half_two_union,
    log2_fraction,
    phi_composition_exponents,
    rel_diff,
    sigma_direct,
    sweep_reference,
)
from test_kernel_bits import PAIRS as KERNEL_BITS_PAIRS

E_HALF_2 = Exponents("1/2", 2)
E_THIRD_3 = Exponents("1/3", 3)
E_QUARTER_2 = Exponents("1/4", 2)
# the pairs of the bit-identity tests of the sweep
SWEEP_PAIRS = PAIRS + [Exponents("1/8", 2), Exponents("3/10", "5/2"), Exponents("1/5", 5)]


def lv(x: float) -> LogValue:
    return LogValue.from_log2(math.log2(x))


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
            lhs = phi_apply(r, LogValue.from_log2(1.0) * x, e)
            rhs = LogValue.from_log2(1.0) * phi_apply(r * LogValue.from_log2(e.q_f), x, e)
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

    @pytest.mark.parametrize("t", [-1.0, -0.5, -2.75, -1100 / 2 ** 40, -1e-306])
    def test_the_cut_keeps_the_guarded_formula(self, t):
        # k t is formed directly only below a finite cut, where |k t| <= 1100
        den = math.log2(-math.expm1(t * _LN2))
        cut = 1100 / -t

        def guarded(k):
            if k == math.inf or k > cut:
                return -den
            return math.log2(-math.expm1(_times(k, t) * _LN2)) - den
        ks = [math.inf, 10 ** 300] if cut == math.inf else [int(cut) - 1, int(cut), int(cut) + 1, math.inf]
        for k in ks:
            assert _geometric(t)(k) == guarded(k), k


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


class TestKernel:
    def test_equal_pairs_share_one_kernel(self):
        e, f = Exponents("1/2", 2), Exponents(Fraction(1, 2), 2)
        assert e is not f and e == f and hash(e) == hash(f) == hash((Fraction(1, 2), Fraction(2)))
        assert _kernel(e) is _kernel(f)
        assert full_tree_capacity(e) is full_tree_capacity(f) is _kernel(e).c
        assert _kernel(Exponents("1/3", 3)) is not _kernel(e)

    @pytest.mark.parametrize("e", PAIRS + [E_QUARTER_2, Exponents("1/6", 3), Exponents("1/8", 5)])
    def test_range_rows_carry_the_bits_of_cap_and_statistic(self, e):
        # one pass over a whole range gives every row the bits of the per-component closures
        kernel = _kernel(e)
        rng = random.Random(20261027)
        ns = [0, 1, 2, 5, 60, 999, 1000, 4000] + sorted(rng.sample(range(3, 3000), 100))
        kappas = [rng.choice((1, n + 1, 2 ** min(n, 900), 2 ** (n // 3) + 5, rng.randint(1, 2 ** 60))) for n in ns]
        report = kernel.rows(ns, kappas)
        rows = report["rows"]
        assert [(row["n"], row["kappa"]) for row in rows] == [(n, k if k < 2 ** 53 else None) for n, k in zip(ns, kappas)]
        for row, kappa in zip(rows, kappas):
            n, ratio = row["n"], row["ratio"]
            assert (row["kappa_log2"], row["proxy_log2"], row["cap_log2"]) == (
                math.log2(kappa), kernel.statistic(n, kappa), kernel.log2_cap(n, kappa))
            assert ratio == kernel.rows([n], [kappa])["rows"][0]["ratio"], (n, kappa)
            assert 0.0 < ratio <= 1.0, (n, kappa)
        assert (report["ratio_min"], report["ratio_max"]) == (min(r["ratio"] for r in rows), max(r["ratio"] for r in rows))


class TestTruncatedTreeCapacity:
    def test_depth_examples(self):
        assert truncated_tree_capacity(E_HALF_2, 0).to_float() == 1.0
        assert truncated_tree_capacity(E_HALF_2, 1).to_float() == pytest.approx(2 / 3, rel=1e-14)
        assert truncated_tree_capacity(E_HALF_2, 3).to_float() == pytest.approx(8 / 15, rel=1e-14)

    def test_matches_explicit_leaf_problem(self):
        # full trees are the densest sets the sweep's block table gets
        for depth in range(17):
            leaves = ["".join(b) for b in itertools.product("01", repeat=depth)]
            for e in PAIRS:
                via_leaves = finite_tree_capacity(depth, leaves, e)
                assert rel_diff(via_leaves, truncated_tree_capacity(e, depth)) <= 1e-12, (depth, e)

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
        assert capacity_recursive(CylinderSet(()), E_HALF_2).value.is_zero

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
            if all(any(a.startswith(b) for b in cyl_b.generators) for a in cyl_a.generators):
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
            union = CylinderSet.from_words(e_set.generators + f_set.generators)
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
        """Neighbour LCPs from maps and the 8-leaf block table change no bit."""
        rng = random.Random(20261018)
        exps = SWEEP_PAIRS
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
            singles += len(cyl.generators) == 1
            roots += cyl.generators == ("",)
            c = full_tree_capacity(e).value
            assert capacity_recursive(cyl, e).value.log2 == sweep_reference(cyl, c, e).log2, (words, e)
            depths = set(map(len, cyl.generators))
            if len(depths) == 1:
                got = finite_tree_capacity(depths.pop(), cyl.generators, e)
            else:
                got = _sweep(cyl.generators, one, e)
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
            assert _sweep(cyl.generators, one, e).log2 == sweep_reference(canonical, one, e).log2, (kind, e)
            if kind == "flipped":
                assert capacity_recursive(cyl.bit_flip(), e) == capacity_recursive(cyl, e)
        # a chain of 100 000 levels next to a generator at depth 1
        cyl = CylinderSet.from_words(["0" * 100_000 + "1", "1"])
        c = full_tree_capacity(E_THIRD_3).value
        assert capacity_recursive(cyl, E_THIRD_3).value.log2 == sweep_reference(cyl, c, E_THIRD_3).log2
        assert _sweep(cyl.generators, one, E_THIRD_3).log2 == sweep_reference(cyl, one, E_THIRD_3).log2

    @pytest.mark.parametrize("e", SWEEP_PAIRS, ids=str)
    def test_bit_identical_on_both_sides_of_the_block_table_bound(self, e):
        """Sets of one depth L take the 8-leaf block table from L = 4 and one generator per 4 words."""
        rng = random.Random(20261020)
        c, one = full_tree_capacity(e).value, LogValue.one()
        for depth in (3, 4, 5, 8, 12, 14):
            size, bound, blocks = 2**depth, 2 ** (depth - 2), range(2 ** (depth - 3))
            start = 8 * rng.choice(blocks)
            for leaves in (
                rng.sample(range(size), bound),  # at the bound
                rng.sample(range(size), bound - 1),  # one below it
                range(size),  # the full tree
                range(start, start + 8),  # one full block
                rng.sample(range(start, start + 8), rng.randint(1, 7)),  # one partial block
                [8 * b + rng.randrange(8) for b in blocks],  # one leaf in every block
                [8 * b + r for b in blocks for r in rng.sample(range(8), 2)],  # two in every block, at the bound
            ):
                cyl = CylinderSet(format(i, f"0{depth}b") for i in leaves)
                assert capacity_recursive(cyl, e).value.log2 == sweep_reference(cyl, c, e).log2, (depth, cyl)
                assert finite_tree_capacity(depth, cyl.generators, e).log2 == sweep_reference(cyl, one, e).log2, (depth, cyl)

    @pytest.mark.parametrize("e", [Exponents("2/7", "7/3"), Exponents("3/7", "7/3")])
    def test_bit_identical_whatever_was_swept_before_at_the_pair(self, e, monkeypatch):
        """Every sweep at a pair shares its kernel's chain-index and block tables; what filled them changes no bit."""
        rng = random.Random(20261026)
        one = LogValue.one()
        sets = [
            CylinderSet.from_words("".join(rng.choices("01", k=rng.randint(0, 60))) for _ in range(rng.randint(1, 30)))
            for _ in range(40)
        ]
        # dense sets of one depth, which read the block tables
        for depth in rng.choices(range(4, 11), k=12):
            count = rng.randint(2 ** (depth - 2), 2**depth)
            sets.append(CylinderSet(format(i, f"0{depth}b") for i in sorted(rng.sample(range(2**depth), count))))
        expected = [sweep_reference(cyl, one, e).log2 for cyl in sets]
        n = len(sets)
        for order in (range(n), range(n - 1, -1, -1), rng.sample(range(n), n)):
            # a fresh kernel per order, so its tables fill after a different run of sweeps
            monkeypatch.setattr(capacity, "_kernel", functools.cache(capacity._Kernel))
            for i in order:
                assert _sweep(sets[i].generators, one, e).log2 == expected[i], (i, sets[i])
            c = full_tree_capacity(e).value
            assert capacity_recursive(sets[order[0]], e).value.log2 == sweep_reference(sets[order[0]], c, e).log2

    @pytest.mark.parametrize("e", sorted(set(PAIRS + KERNEL_BITS_PAIRS), key=str), ids=str)
    def test_branch_is_the_log_sum_lifted_one_level(self, e):
        """``_Kernel.branch`` keeps every bit of the walk's former log-sum and one-level ``lift``."""
        rng = random.Random(f"branch:{e}")
        kernel = _kernel(e)
        pivot = 1.0 - e.ap_f  # t = q (log2 lambda + y) of _log2_1p_exp2 changes sign at y = 1 - ap
        signs = set()
        for i in range(600):
            u = pivot + rng.choice((rng.uniform(-4, 4), rng.uniform(-2000, 2000)))
            v = (u, u + rng.uniform(-3, 3), u + rng.choice((-1, 1)) * rng.uniform(1100, 3000))[i % 3]
            hi, lo = max(u, v), min(u, v)
            y = hi + math.log1p(2.0 ** (lo - hi)) / _LN2
            signs.add(e.q_f * (e.ap_f - 1.0) + e.q_f * y >= 0)
            expected = float.hex(kernel.lift(y, 1))
            assert float.hex(kernel.branch(u, v)) == float.hex(kernel.branch(v, u)) == expected, (u, v)
        assert signs == {True, False}

    @pytest.mark.parametrize("depth", [16, 17], ids=["16-bit-keys", "32-bit-keys"])
    def test_bit_identical_when_the_bitmap_keys_span_several_chunks(self, depth):
        """Keys parsed 4096 words at a time, padded to 16 or 32 bits, mark the same leaves."""
        rng = random.Random(20261101 + depth)
        one = LogValue.one()
        # whole chunks, or a last chunk of one word; every set is dense enough for the block path
        for e, count in ((E_THIRD_3, 2**depth), (E_HALF_2, 2 ** (depth - 2) + 4097), (Exponents("1/5", 5), 3 * 2**14 + 1)):
            cyl = CylinderSet(format(i, f"0{depth}b") for i in rng.sample(range(2**depth), count))
            c = full_tree_capacity(e).value
            assert capacity_recursive(cyl, e).value.log2 == sweep_reference(cyl, c, e).log2, (depth, count)
            assert finite_tree_capacity(depth, cyl.generators, e).log2 == sweep_reference(cyl, one, e).log2

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

    def test_block_table_memory_is_linear_in_the_generators(self):
        # one byte per word of length L, at most 4 per generator, beside a list of lengths (8 per
        # generator); a list of 2**L Python objects would take 32 or more
        rng = random.Random(20261027)
        full = tuple(format(i, "018b") for i in range(2**18))
        at_bound = tuple(format(8 * b + r, "018b") for b in range(2**15) for r in sorted(rng.sample(range(8), 2)))
        one = LogValue.one()
        _sweep(tuple(format(i, "04b") for i in range(4)), one, E_THIRD_3)  # builds the block table first
        for leaves in (full, at_bound):
            tracemalloc.start()
            try:
                value = _sweep(leaves, one, E_THIRD_3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * len(leaves), (len(leaves), peak)
            if leaves is full:
                assert rel_diff(value, truncated_tree_capacity(E_THIRD_3, 18)) <= 1e-12

    def test_walk_memory_is_the_lengths_list_and_the_stack(self):
        # off the block path the sweep holds one list of lengths (8 bytes per generator) and the
        # walk's stack, whose height is at most the depth; nothing else grows with the generators
        rng = random.Random(20261030)
        antichain = CylinderSet.from_words(
            "".join(rng.choices("01", k=rng.randint(30, 40))) for _ in range(2**15)).generators
        sparse = tuple(format(i, "018b") for i in sorted(rng.sample(range(2**18), 2**15)))  # one per 8 words
        one = LogValue.one()
        for leaves in (antichain, sparse):
            _sweep(leaves[:2], one, E_THIRD_3)  # builds the pair's kernel first
            tracemalloc.start()
            try:
                _sweep(leaves, one, E_THIRD_3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * len(leaves), (len(leaves), peak)

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
            leaves = [format(i, f"0{n}b") for i in range(2 ** n) if any(format(i, f"0{n}b").startswith(g) for g in cyl.generators)]
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

    def test_empty_and_too_deep_sets_are_rejected(self):
        from capatree import emulated_infinite_problem

        with pytest.raises(DomainError, match="empty set"):
            emulated_infinite_problem(CylinderSet(()), E_THIRD_3)
        with pytest.raises(DomainError, match="depth 21"):
            emulated_infinite_problem(CylinderSet.from_words(["0" * 21]), E_THIRD_3)


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

    @pytest.mark.parametrize("e", PAIRS + [E_QUARTER_2, Exponents("1/6", 3), Exponents("1/8", 5)])
    def test_component_rows_carry_the_bits_of_cap_and_statistic(self, e):
        # one-row ranges of the comparability rows; past the double range both raise alike
        kernel = _kernel(e)
        log2_cap, statistic = kernel.log2_cap, kernel.statistic
        for n in (0, 1, 5, 60, 1000):
            for kappa in (1, 2, n + 1, 3 * n + 7, 2 ** n, 2 ** 200 + 1, 2 ** 1000, 2 ** 1030):
                try:
                    expected = (math.log2(kappa), statistic(n, kappa), log2_cap(n, kappa))
                except DomainError:
                    with pytest.raises(DomainError):
                        kernel.rows([n], [kappa])
                    continue
                (row,) = kernel.rows([n], [kappa])["rows"]
                assert (row["n"], row["kappa"]) == (n, kappa if kappa < 2 ** 53 else None)
                assert (row["kappa_log2"], row["proxy_log2"], row["cap_log2"]) == expected, (n, kappa)
                if row["proxy_log2"] is not None and row["proxy_log2"] >= 0:
                    assert row["ratio"] == 2.0 ** row["cap_log2"], (n, kappa)
                assert 0.0 < row["ratio"] <= 1.0, (n, kappa)

    @pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(2), Fraction(3)], ids=str)
    @pytest.mark.parametrize("b", [Fraction(1, 10**20), Fraction(1, 3 * 2**50)], ids=["1e-20", "2^-50/3"])
    def test_near_critical_run_sets_match_600_bit_mpmath(self, p, b):
        # 1 - ap is 0 or loses most of its bits as a float difference here; sigma,
        # cap and the comparability rows form the run rate from the exact 1 - ap
        import mpmath

        e = Exponents((1 - b) / p, p)
        with mpmath.workprec(600):
            b_ = mpmath.mpf(b.numerator) / b.denominator
            q, ap_ = mpmath.mpf((p - 1).denominator) / (p - 1).numerator, 1 - b_

            def geometric(k, t):  # G(k, t) = sum_{j < k} 2**(j t)
                return (1 - mpmath.power(2, k * t)) / (1 - mpmath.power(2, t))

            def sigma_log2(n, kappa):
                return mpmath.log(mpmath.power(2, q * n) * geometric(n, -q * ap_)
                                  + mpmath.power(2, q * b_ * (n + kappa - 1)) * geometric(kappa, -q * b_), 2)

            def cap_log2(n, kappa):
                inner = (geometric(n, -q * ap_) + mpmath.power(2, q * (b_ * (kappa - 1) - ap_ * n)) * geometric(kappa, -q * b_)
                         + mpmath.power(2, q * (b_ * kappa - ap_ * n)) / (1 - mpmath.power(2, -q * ap_)))
                return -mpmath.log(inner, 2) / q

            cases = [(5, 2**70), (5, 2**52), (1, 2**60), (20, 2**40)]
            for n, kappa in cases:
                assert sigma_closed_form(n, kappa, e).log2 == pytest.approx(float(sigma_log2(n, kappa)), rel=1e-13)
                assert cap_component(n, kappa, e).value.log2 == pytest.approx(float(cap_log2(n, kappa)), rel=1e-13)
            for row in comparability_report(e, (50, 70), Geometric(1))["rows"]:
                assert row["cap_log2"] == pytest.approx(float(cap_log2(row["n"], 2 ** row["n"])), rel=1e-13)

    def test_critical_branch_saturates_for_slow_runs(self):
        # with kappa far below 2**n the branching term dominates sigma and
        # cancels the 2**n prefactor exactly, so the value stays order one
        out = cap_component(5000, 2**20, E_THIRD_3)
        assert -10 < out.value.log2 < 0


class TestExactRationalsAtTheLogarithmicPoint:
    """At (1/2, 2) every finite set's capacity is rational: exact references, no rounding."""

    @staticmethod
    def close(got: float, exact) -> bool:
        ref = log2_fraction(exact)
        return abs(got - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_cylinder_sets_match_the_rational_recursion(self):
        rng = random.Random(20261019)
        checked = 0
        while checked < 300:
            words, depth = [], rng.randint(1, 12)

            def grow(w):
                if len(w) == depth or rng.random() < 0.25:
                    if rng.random() < 0.8:
                        words.append(w)
                    return
                for digit in "01":
                    if rng.random() < 0.75:
                        grow(w + digit)
            grow("")
            if not words:
                continue
            got = capacity_recursive(CylinderSet.from_words(words), E_HALF_2).value.log2
            assert self.close(got, half_two_capacity(words)), words
            checked += 1

    def test_finite_tree_problems_match_the_rational_recursion(self):
        rng = random.Random(20261020)
        for _ in range(100):
            depth = rng.randint(0, 10)
            leaves = [format(i, f"0{depth}b") if depth else "" for i in range(2 ** depth)]
            targets = rng.sample(leaves, rng.randint(1, min(len(leaves), 40)))
            got = finite_tree_capacity(depth, targets, E_HALF_2).log2
            assert self.close(got, half_two_finite_tree(targets)), targets

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 53, 200, 1000, 3000])
    def test_components_and_critical_ratios_match_the_closed_forms(self, n):
        kernel = _kernel(E_HALF_2)
        log2_cap, statistic = kernel.log2_cap, kernel.statistic
        kappas = {1, 2, 3, 1000, 2 ** 53 + 1, 2 ** 1000 - 1, 2 ** 1000}
        kappas |= {2 ** n - 1, 2 ** n, 2 ** n + 1, n * 2 ** n, 3 * 2 ** n + 1} - {0}
        for kappa in sorted(kappas):
            # cap forms -qn + log2 kappa, which loses about an ulp of n: 3.8e-14 at n = 3000
            if n <= 1000:
                assert self.close(cap_component(n, kappa, E_HALF_2).value.log2, half_two_component(n, kappa)), kappa
            (row,) = kernel.rows([n], [kappa])["rows"]
            stat, cap, ratio = row["proxy_log2"], row["cap_log2"], row["ratio"]
            assert (row["kappa_log2"], stat, cap) == (math.log2(kappa), statistic(n, kappa), log2_cap(n, kappa)), kappa
            if stat >= 0:
                assert ratio == 2.0 ** cap, kappa
            if kappa >= 2 ** n:  # the row keeps 2**ratio: log2 of it is within 2e-16 of the kernel's log2 ratio
                assert self.close(math.log2(ratio), half_two_critical_ratio(n, kappa)), kappa

    def test_unions_of_run_sets_match_the_rational_union_dp(self):
        # U(N, M) over explicit unions of d_cylinder_set; the DP also equals the
        # rational recursion over the same generators, exactly
        rng = random.Random(20261022)
        rules = {"2**n": lambda n: 2 ** n, "n+1": lambda n: n + 1, "random": lambda n: rng.randint(1, 24)}
        checked = 0
        for N in range(5):
            for M in range(N, 6):
                for name, rule in rules.items():
                    kappas = {n: rule(n) for n in range(N, M + 1)}
                    words = [g for n, k in kappas.items() for g in d_cylinder_set(n, k).generators]
                    exact = half_two_union(kappas)
                    assert exact == half_two_capacity(words), (N, M, name)
                    got = capacity_recursive(CylinderSet.from_words(words), E_HALF_2).value.log2
                    assert self.close(got, exact), (N, M, kappas)
                    checked += 1
        assert checked == 60

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    def test_a_one_start_union_is_the_component(self, n):
        for kappa in (1, 2, n + 1, 2 ** n, 2 ** n + 3, 97):
            assert half_two_union({n: kappa}) == half_two_component(n, kappa), kappa
