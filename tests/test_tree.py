import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from capatree import CylinderSet, DomainError, d_cylinder_set
from conftest import NON_BINARY_WORDS

words_st = st.text(alphabet="01", max_size=10)


class TestCylinderSet:
    def test_prefix_absorbs_extension(self):
        assert CylinderSet.from_words({"0", "01"}).generators == ("0",)

    def test_antichain_unchanged(self):
        assert CylinderSet.from_words({"00", "01", "1"}).generators == ("00", "01", "1")

    def test_root_absorbs_everything(self):
        assert CylinderSet.from_words({"", "0110"}).generators == ("",)

    def test_rejects_non_antichain_direct_construction(self):
        with pytest.raises(DomainError):
            CylinderSet(("0", "01"))

    def test_rejects_bad_alphabet(self):
        with pytest.raises(DomainError):
            CylinderSet.from_words({"0a1"})

    @pytest.mark.parametrize("bad", NON_BINARY_WORDS)
    def test_rejects_any_character_outside_the_alphabet_naming_the_word(self, bad):
        good = [format(i, "012b") for i in range(64)]
        for build in (CylinderSet.from_words, CylinderSet):
            for words in ([bad], good + [bad], [bad] + good):
                with pytest.raises(DomainError, match=re.escape(repr(bad))):
                    build(tuple(words))

    @given(st.sets(words_st, max_size=12))
    def test_canonical_form_is_antichain_with_same_cover(self, words):
        cyl = CylinderSet.from_words(words)
        gens = cyl.generators
        for g, h in itertools.permutations(gens, 2):
            assert not h.startswith(g)
        # same boundary set: every input word is covered, every generator was input-covered
        for w in words:
            assert any(w.startswith(g) for g in gens)
        for g in gens:
            assert g in words

    @given(st.sets(words_st, max_size=12))
    def test_canonicalize_idempotent(self, words):
        once = CylinderSet.from_words(words)
        assert CylinderSet.from_words(once.generators).generators == once.generators

    @pytest.mark.parametrize("word", [10, 1, 1.5, True, None, b"01"])
    def test_rejects_non_string_words_naming_them(self, word):
        for build in (CylinderSet.from_words, CylinderSet):
            for words in ([word], ["0", word], [word, "1"], [word, word]):
                with pytest.raises(DomainError, match=re.escape(repr(word))):
                    build(iter(words))

    def test_rejects_a_bare_string(self):
        # iterating "0101" would give the words "0" and "1", the whole boundary
        for build in (CylinderSet.from_words, CylinderSet):
            for text in ("0101", "1", ""):
                with pytest.raises(DomainError, match="string"):
                    build(text)

    def test_from_words_equals_a_prefix_dropping_reference(self):
        rng = random.Random(20261019)
        for _ in range(400):
            pool = ["".join(rng.choices("01", k=rng.randint(1, 9))) for _ in range(rng.randint(1, 30))]
            pool += [""] * (rng.random() < 0.05)
            words = rng.choices(pool, k=rng.randint(1, 60))  # repeats on purpose
            present = set(words)
            expected = tuple(sorted(w for w in present if not any(w[:i] in present for i in range(len(w)))))
            for order in (words, sorted(words), sorted(words, reverse=True)):
                assert CylinderSet.from_words(order).generators == expected, words

    def test_dropped_words_are_still_validated(self):
        with pytest.raises(DomainError):
            CylinderSet.from_words(["0", "0x"])

    @given(st.sets(words_st, max_size=12))
    def test_from_words_equals_direct_construction(self, words):
        cyl = CylinderSet.from_words(words)
        direct = CylinderSet(tuple(reversed(cyl.generators)))
        assert direct == cyl
        assert hash(direct) == hash(cyl)
        assert direct.generators == cyl.generators == tuple(sorted(cyl.generators))

    def test_direct_construction_is_canonical(self):
        reversed_order = CylinderSet(("1", "01", "000"))
        canonical = CylinderSet.from_words(["000", "01", "1"])
        assert reversed_order == canonical
        assert hash(reversed_order) == hash(canonical)
        assert reversed_order.generators == ("000", "01", "1")

    def test_bit_flip(self):
        assert CylinderSet.from_words({"01", "1"}).bit_flip().generators == ("0", "10")


class TestRunSetGenerators:
    def test_single_cylinder(self):
        assert d_cylinder_set(0, 2).generators == ("00",)

    def test_branching_level(self):
        assert d_cylinder_set(1, 1).generators == ("00", "10")

    def test_counts(self):
        cyl = d_cylinder_set(3, 2)
        assert len(cyl.generators) == 8
        assert all(len(g) == 5 and g.endswith("00") for g in cyl.generators)

    def test_size_guard(self):
        with pytest.raises(DomainError):
            d_cylinder_set(12, 10)

    def test_size_guard_edges(self):
        # the largest sets the guard admits, and the smallest n it refuses for every kappa
        assert len(d_cylinder_set(11, 5).generators) == 2 ** 11
        assert len(d_cylinder_set(0, 2 ** 15).generators) == 1
        for n, kappa in ((11, 6), (12, 1), (15, 1), (0, 2 ** 15 + 1)):
            with pytest.raises(DomainError, match="too large"):
                d_cylinder_set(n, kappa)

    def test_huge_n_fails_fast(self):
        # (n + kappa) * 2**n at n = 10**8 would be a 12.5 MB integer
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="too large"):
                d_cylinder_set(10**8, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_validates_arguments(self):
        with pytest.raises(DomainError):
            d_cylinder_set(-1, 1)
        with pytest.raises(DomainError):
            d_cylinder_set(2, 0)
