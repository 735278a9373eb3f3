import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st
from sympy.combinatorics import Permutation

from rauzycert.diagram import build_path
from rauzycert.errors import PermutationParseError
from rauzycert.perm import (
    MAX_LETTERS,
    LabeledPermutation,
    _cycles,
    central,
    default_alphabet,
    fg_start,
    from_rows,
    is_irreducible,
    parse,
    unlabeled,
)

from helpers import all_standard_permutations


@st.composite
def labeled_permutations(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    top = tuple(draw(st.permutations(list(range(n)))))
    bottom = tuple(draw(st.permutations(list(range(n)))))
    return LabeledPermutation(default_alphabet(n), top, bottom)


class TestParse:
    def test_single_line_form(self):
        p = parse("A B C / C B A")
        assert p.top_letters() == ("A", "B", "C")
        assert p.bottom_letters() == ("C", "B", "A")

    def test_two_line_form(self):
        assert parse("A B C\nC B A") == parse("A B C / C B A")

    def test_degenerate_size_rejected(self):
        with pytest.raises(PermutationParseError):
            parse("A / A")

    def test_length_mismatch_rejected(self):
        with pytest.raises(PermutationParseError):
            parse("A B / B A A")

    def test_duplicate_letter_rejected(self):
        with pytest.raises(PermutationParseError):
            parse("A A / A A")

    def test_different_letter_sets_rejected(self):
        with pytest.raises(PermutationParseError):
            parse("A B / A C")

    def test_single_row_rejected(self):
        with pytest.raises(PermutationParseError):
            parse("A B C")

    @given(labeled_permutations())
    def test_display_roundtrip(self, p):
        # parsing fixes the alphabet order from the top row, so compare the
        # two-row content (and the object itself once already parse-normalized)
        q = parse(p.display())
        assert q.top_letters() == p.top_letters()
        assert q.bottom_letters() == p.bottom_letters()
        assert parse(q.display()) == q

    @given(labeled_permutations())
    def test_json_roundtrip(self, p):
        data = json.loads(json.dumps(p.to_json_dict()))
        assert from_rows(tuple(data["alphabet"]), data["top"], data["bottom"]) == p


class TestUnlabeled:
    def test_three_cycle(self):
        assert unlabeled(parse("A C B / B A C")).images == (2, 3, 1)

    def test_equal_rows_give_identity(self):
        assert unlabeled(parse("A B / A B")).images == (1, 2)

    def test_central_four_reverses(self):
        assert unlabeled(central(4)).images == (4, 3, 2, 1)

    def test_flip_matches_conjugation_formula(self):
        # unlabeled(flip(p)) only depends on unlabeled(p), so the identity-top
        # representatives below are exhaustive for n <= 6.
        for n in range(2, 7):
            for p in all_standard_permutations(n):
                images = unlabeled(p).images
                inverse = [0] * n
                for i, img in enumerate(images, start=1):
                    inverse[img - 1] = i
                expected = tuple(n + 1 - inverse[n + 1 - i - 1] for i in range(1, n + 1))
                assert unlabeled(build_path(p, "f").end).images == expected


class TestIrreducibility:
    def test_three_cycle_irreducible(self):
        assert is_irreducible(parse("A C B / B A C"))

    def test_identity_reducible(self):
        assert not is_irreducible(parse("A B / A B"))

    def test_prefix_invariant_reducible(self):
        # images (2, 1, 3): the prefix {1, 2} is invariant
        assert unlabeled(parse("A B C / B A C")).images == (2, 1, 3)
        assert not is_irreducible(parse("A B C / B A C"))

    def test_irreducible_implies_distinct_last_letters(self):
        for n in range(2, 7):
            for p in all_standard_permutations(n):
                if is_irreducible(p):
                    assert p.top[-1] != p.bottom[-1]


class TestConstructors:
    def test_central_display(self):
        assert central(3).display() == "a1 a2 a3 / a3 a2 a1"
        assert central(2).display() == "a1 a2 / a2 a1"

    def test_central_rejects_small_n(self):
        with pytest.raises(PermutationParseError):
            central(1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_central_irreducible(self, n):
        assert is_irreducible(central(n))

    def test_family_start_displays(self):
        assert fg_start(2).display() == "a1 a2 a3 a4 / a4 a1 a3 a2"
        assert fg_start(3).display() == "a1 a2 a3 a4 a5 a6 / a6 a2 a1 a5 a4 a3"

    def test_built_starts_stop_at_max_letters(self):
        assert central(MAX_LETTERS).n == fg_start(MAX_LETTERS // 2).n == MAX_LETTERS
        line = "^central permutation n must be <= 100000, got 100001$"
        with pytest.raises(PermutationParseError, match=line):
            central(MAX_LETTERS + 1)
        line = "^family genus g must be <= 50000, got 50001$"
        with pytest.raises(PermutationParseError, match=line):
            fg_start(MAX_LETTERS // 2 + 1)

    def test_family_start_rejects_small_genus(self):
        with pytest.raises(PermutationParseError):
            fg_start(1)

    @pytest.mark.parametrize("g", range(2, 11))
    def test_family_start_irreducible(self, g):
        assert is_irreducible(fg_start(g))

    def test_family_start_is_not_central(self):
        for g in range(2, 6):
            assert fg_start(g) != central(2 * g)

    def test_custom_alphabet_preserved(self):
        p = LabeledPermutation(("X", "Y", "Z"), (0, 1, 2), (2, 1, 0))
        assert p.display() == "X Y Z / Z Y X"


class TestEqualUnlabeled:
    def test_reflexive(self):
        p = parse("A B C / C A B")
        assert unlabeled(p) == unlabeled(p)

    def test_flip_partner(self):
        assert unlabeled(parse("A B C / C A B")) == unlabeled(parse("B A C / C B A"))

    def test_negative_case(self):
        assert unlabeled(parse("A B C / C B A")) != unlabeled(parse("A C B / C B A"))


class TestCycles:
    @staticmethod
    def check(seq):
        # sympy lists each cycle from its least element, singletons
        # included, in the order of those least elements
        labels, count = _cycles(seq)
        perm = Permutation(list(seq))
        assert count == perm.cycles
        expected = [0] * len(seq)
        for number, cycle in enumerate(sorted(perm.full_cyclic_form)):
            for x in cycle:
                expected[x] = number
        assert labels == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_permutation_against_sympy(self, n):
        for seq in itertools.permutations(range(n)):
            self.check(seq)

    def test_random_permutations_against_sympy(self):
        rng = random.Random(20261020)
        for _ in range(300):
            seq = list(range(rng.randint(1, 60)))
            rng.shuffle(seq)
            self.check(tuple(seq))
