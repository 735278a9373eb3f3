import random

import pytest
from hypothesis import given, strategies as st

from rauzycert.errors import ReducibleError
from rauzycert.induction import (
    MOVES,
    Move,
    _step,
    apply_bottom,
    apply_flip,
    apply_move,
    apply_top,
    edge_matrix,
)
from rauzycert.linalg import IntMatrix, det
from rauzycert.perm import LabeledPermutation, central, default_alphabet, fg_start, is_irreducible, parse

from helpers import all_standard_permutations, oracle_explore, oracle_move, random_irreducible


@st.composite
def labeled_permutations(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    top = tuple(draw(st.permutations(list(range(n)))))
    bottom = tuple(draw(st.permutations(list(range(n)))))
    return LabeledPermutation(default_alphabet(n), top, bottom)


def test_move_from_letter():
    assert Move.from_letter("t") is Move.TOP
    assert Move.from_letter("f") is Move.FLIP
    with pytest.raises(Exception):
        Move.from_letter("x")


class TestTopMove:
    def test_worked_example(self):
        edge = apply_top(parse("A B C D / D C B A"))
        assert edge.target.display() == "A B C D / D A C B"
        assert (edge.winner, edge.loser) == ("D", "A")

    def test_on_three_letter_component(self):
        assert apply_top(parse("A B C / C B A")).target.display() == "A B C / C A B"

    def test_rejects_reducible(self):
        with pytest.raises(ReducibleError):
            apply_top(parse("A B / A B"))


class TestBottomMove:
    def test_worked_example(self):
        edge = apply_bottom(parse("A B C D / D C B A"))
        assert edge.target.display() == "A D B C / D C B A"
        assert (edge.winner, edge.loser) == ("A", "D")

    def test_on_three_letter_component(self):
        assert apply_bottom(parse("A B C / C B A")).target.display() == "A C B / C B A"

    @pytest.mark.parametrize("g", range(2, 11))
    def test_bottom_power_fixes_family_start(self, g):
        current = fg_start(g)
        for _ in range(g):
            current = apply_bottom(current).target
        assert current == fg_start(g)

    def test_rejects_reducible(self):
        with pytest.raises(ReducibleError):
            apply_bottom(parse("A B / A B"))


class TestFlip:
    def test_worked_example(self):
        assert apply_flip(parse("A C B / B A C")).target.display() == "C A B / B C A"

    def test_second_worked_example(self):
        assert apply_flip(parse("A B C / C A B")).target.display() == "B A C / C B A"

    def test_no_winner_or_loser(self):
        edge = apply_flip(central(3))
        assert edge.winner is None and edge.loser is None

    @given(labeled_permutations())
    def test_involution(self, p):
        assert apply_flip(apply_flip(p).target).target == p

    def test_defined_on_reducible(self):
        apply_flip(parse("A B / A B"))  # no exception


class TestEdgeMatrix:
    def test_top_example(self):
        edge = apply_top(parse("A B C D / D C B A"))
        expected = IntMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
        )
        assert edge_matrix(edge) == expected

    def test_flip_is_identity(self):
        edge = apply_flip(parse("A B C / C A B"))
        assert edge_matrix(edge) == IntMatrix.identity(3)

    def test_first_bottom_edge_of_family_start(self):
        edge = apply_bottom(fg_start(2))
        assert (edge.winner, edge.loser) == ("a2", "a4")
        expected = IntMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert edge_matrix(edge) == expected

    def test_unimodular(self):
        for move in (Move.TOP, Move.BOTTOM, Move.FLIP):
            edge = apply_move(central(4), move)
            assert det(edge_matrix(edge)) == 1


def test_moves_preserve_irreducibility_exhaustively():
    # Irreducibility depends only on the unlabeled permutation, so the
    # identity-top representatives are exhaustive for n <= 6.
    for n in range(2, 7):
        for p in all_standard_permutations(n):
            if not is_irreducible(p):
                continue
            assert is_irreducible(apply_top(p).target)
            assert is_irreducible(apply_bottom(p).target)


def _kernel_cases():
    """(permutation, moves) pairs: t and b on every vertex of the central
    components n = 3..8, t, b and f on the augmented ones n = 3..6, and all
    three on 200 seeded random irreducible permutations with n <= 10."""
    for n in range(3, 9):
        for p in oracle_explore(central(n))[0]:
            yield p, MOVES[:2]
    for n in range(3, 7):
        for p in oracle_explore(central(n), augmented=True)[0]:
            yield p, MOVES
    rng = random.Random(20261018)
    for _ in range(200):
        yield random_irreducible(rng, rng.randint(2, 10)), MOVES


def test_step_matches_object_oracle():
    count = 0
    for p, moves in _kernel_cases():
        for move in moves:
            edge = oracle_move(p, move)
            duel = None
            if edge.winner is not None:
                duel = (p.alphabet.index(edge.winner), p.alphabet.index(edge.loser))
            assert _step(p.top, p.bottom, MOVES.index(move)) == (
                edge.target.top, edge.target.bottom, duel
            ), (p.display(), move)
            count += 1
    assert count > 1000
