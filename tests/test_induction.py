import random

import pytest
from hypothesis import given, strategies as st

from rauzycert.diagram import AllowedPath
from rauzycert.errors import ReducibleError
from rauzycert.induction import MOVES, _duel, _position_tables, _step
from rauzycert.linalg import IntMatrix, _column_product
from rauzycert.perm import LabeledPermutation, central, default_alphabet, fg_start, is_irreducible, parse

from helpers import all_standard_permutations, det, oracle_explore, oracle_move, random_irreducible


@st.composite
def labeled_permutations(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    top = tuple(draw(st.permutations(list(range(n)))))
    bottom = tuple(draw(st.permutations(list(range(n)))))
    return LabeledPermutation(default_alphabet(n), top, bottom)


def target(p: LabeledPermutation, move: str) -> LabeledPermutation:
    """The end of the one-move path."""
    return AllowedPath(p, move).end


def duel(p: LabeledPermutation, move: str):
    """The (winner, loser) letter names of the one-move path, None for f."""
    updates = AllowedPath(p, move).updates
    return tuple(p.alphabet[i] for i in updates[0]) if updates else None


def move_matrix(p: LabeledPermutation, move: str) -> IntMatrix:
    """The matrix of the one-move path, as ``rauzycert move`` prints it."""
    return _column_product(p.n, AllowedPath(p, move).updates, tuple(range(p.n)))


class TestTopMove:
    def test_worked_example(self):
        p = parse("A B C D / D C B A")
        assert target(p, "t").display() == "A B C D / D A C B"
        assert duel(p, "t") == ("D", "A")

    def test_on_three_letter_component(self):
        assert target(parse("A B C / C B A"), "t").display() == "A B C / C A B"

    def test_rejects_reducible(self):
        with pytest.raises(ReducibleError, match="top move undefined on reducible"):
            target(parse("A B / A B"), "t")


class TestBottomMove:
    def test_worked_example(self):
        p = parse("A B C D / D C B A")
        assert target(p, "b").display() == "A D B C / D C B A"
        assert duel(p, "b") == ("A", "D")

    def test_on_three_letter_component(self):
        assert target(parse("A B C / C B A"), "b").display() == "A C B / C B A"

    @pytest.mark.parametrize("g", range(2, 11))
    def test_bottom_power_fixes_family_start(self, g):
        assert AllowedPath(fg_start(g), "b" * g).end == fg_start(g)

    def test_rejects_reducible(self):
        with pytest.raises(ReducibleError, match="bottom move undefined on reducible"):
            target(parse("A B / A B"), "b")


class TestFlip:
    def test_worked_example(self):
        assert target(parse("A C B / B A C"), "f").display() == "C A B / B C A"

    def test_second_worked_example(self):
        assert target(parse("A B C / C A B"), "f").display() == "B A C / C B A"

    def test_no_winner_or_loser(self):
        assert duel(central(3), "f") is None

    @given(labeled_permutations())
    def test_involution(self, p):
        assert AllowedPath(p, "ff").end == p

    def test_defined_on_reducible(self):
        assert target(parse("A B / A B"), "f").display() == "B A / B A"


class TestEdgeMatrix:
    def test_top_example(self):
        expected = IntMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
        )
        assert move_matrix(parse("A B C D / D C B A"), "t") == expected

    def test_flip_is_identity(self):
        assert move_matrix(parse("A B C / C A B"), "f") == IntMatrix.identity(3)

    def test_first_bottom_edge_of_family_start(self):
        assert duel(fg_start(2), "b") == ("a2", "a4")
        expected = IntMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert move_matrix(fg_start(2), "b") == expected

    def test_unimodular(self):
        for move in MOVES:
            assert det(move_matrix(central(4), move)) == 1


def test_moves_preserve_irreducibility_exhaustively():
    # Irreducibility depends only on the unlabeled permutation, so the
    # identity-top representatives are exhaustive for n <= 6.
    for n in range(2, 7):
        for p in all_standard_permutations(n):
            if not is_irreducible(p):
                continue
            assert is_irreducible(target(p, "t"))
            assert is_irreducible(target(p, "b"))


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
            index = MOVES.index(move)
            row, target = p.top + p.bottom, edge.target.top + edge.target.bottom
            # the same move on a path's tuple row and a diagram's bytes row
            assert _step(row, index) == target, (p.display(), move)
            assert _step(bytes(row), index) == bytes(target), (p.display(), move)
            if edge.winner is not None:
                duel = (p.alphabet.index(edge.winner), p.alphabet.index(edge.loser))
                assert _duel(p.top[-1], p.bottom[-1], index) == duel, (p.display(), move)
            count += 1
    assert count > 1000


def _position_row(row) -> bytes:
    """The position row of a packed letter row: byte x is the top position
    of letter x, byte n + x is n plus its bottom position."""
    n = len(row) // 2
    key = bytearray(2 * n)
    for p, x in enumerate(row):
        key[x + n * (p >= n)] = p
    return bytes(key)


@pytest.mark.parametrize("n", range(2, 129))
def test_position_tables_match_step(n):
    # one row per value the winner's position can take: t's winner at each
    # bottom position 0..n-2, b's at each top position 0..n-2
    rng = random.Random(n)
    after, flip = _position_tables(n)
    assert [v for v, table in enumerate(after) if table is None] == [n - 1, 2 * n - 1]
    assert {len(table) for table in after if table is not None} | {len(flip)} == {256}
    for j in range(n - 1):
        for move in (0, 1):
            kept = rng.sample(range(n), n)
            winner = kept[-1]
            others = [x for x in range(n) if x != winner]
            rng.shuffle(others)
            moved = others[:j] + [winner] + others[j:]
            row = tuple(kept + moved) if move == 0 else tuple(moved + kept)
            key = _position_row(row)
            if move == 0:
                assert key.index(n - 1) == winner
                target = key.translate(after[key[key.index(n - 1) + n]])
            else:
                assert key.index(2 * n - 1) - n == winner
                target = key.translate(after[key[key.index(2 * n - 1) - n]])
            assert target == _position_row(_step(row, move)), (n, j, move)
        row = tuple(rng.sample(range(n), n) + rng.sample(range(n), n))
        key = _position_row(row)
        assert (key[n:] + key[:n]).translate(flip) == _position_row(_step(row, 2)), (n, j)
