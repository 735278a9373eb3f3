import random

import pytest
from hypothesis import given, strategies as st

from rauzycert.errors import ReducibleError
from rauzycert.induction import (
    MOVES,
    Move,
    _step,
    apply_move,
    edge_matrix,
)
from rauzycert.linalg import IntMatrix
from rauzycert.perm import LabeledPermutation, central, default_alphabet, fg_start, is_irreducible, parse

from helpers import all_standard_permutations, det, oracle_explore, oracle_move, random_irreducible


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
        edge = apply_move(parse("A B C D / D C B A"), Move.TOP)
        assert edge.target.display() == "A B C D / D A C B"
        assert (edge.winner, edge.loser) == ("D", "A")

    def test_on_three_letter_component(self):
        assert apply_move(parse("A B C / C B A"), Move.TOP).target.display() == "A B C / C A B"

    def test_rejects_reducible(self):
        with pytest.raises(ReducibleError):
            apply_move(parse("A B / A B"), Move.TOP)


class TestBottomMove:
    def test_worked_example(self):
        edge = apply_move(parse("A B C D / D C B A"), Move.BOTTOM)
        assert edge.target.display() == "A D B C / D C B A"
        assert (edge.winner, edge.loser) == ("A", "D")

    def test_on_three_letter_component(self):
        assert apply_move(parse("A B C / C B A"), Move.BOTTOM).target.display() == "A C B / C B A"

    @pytest.mark.parametrize("g", range(2, 11))
    def test_bottom_power_fixes_family_start(self, g):
        current = fg_start(g)
        for _ in range(g):
            current = apply_move(current, Move.BOTTOM).target
        assert current == fg_start(g)

    def test_rejects_reducible(self):
        with pytest.raises(ReducibleError):
            apply_move(parse("A B / A B"), Move.BOTTOM)


class TestFlip:
    def test_worked_example(self):
        assert apply_move(parse("A C B / B A C"), Move.FLIP).target.display() == "C A B / B C A"

    def test_second_worked_example(self):
        assert apply_move(parse("A B C / C A B"), Move.FLIP).target.display() == "B A C / C B A"

    def test_no_winner_or_loser(self):
        edge = apply_move(central(3), Move.FLIP)
        assert edge.winner is None and edge.loser is None

    @given(labeled_permutations())
    def test_involution(self, p):
        assert apply_move(apply_move(p, Move.FLIP).target, Move.FLIP).target == p

    def test_defined_on_reducible(self):
        apply_move(parse("A B / A B"), Move.FLIP)  # no exception


class TestEdgeMatrix:
    def test_top_example(self):
        edge = apply_move(parse("A B C D / D C B A"), Move.TOP)
        expected = IntMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
        )
        assert edge_matrix(edge) == expected

    def test_flip_is_identity(self):
        edge = apply_move(parse("A B C / C A B"), Move.FLIP)
        assert edge_matrix(edge) == IntMatrix.identity(3)

    def test_first_bottom_edge_of_family_start(self):
        edge = apply_move(fg_start(2), Move.BOTTOM)
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
            assert is_irreducible(apply_move(p, Move.TOP).target)
            assert is_irreducible(apply_move(p, Move.BOTTOM).target)


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
