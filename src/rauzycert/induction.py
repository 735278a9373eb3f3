"""The three moves on labeled permutations and their per-edge matrices.

A top move keeps the top row and reinserts the bottom-last letter (the
loser) immediately to the right of the top-last letter (the winner) in the
bottom row.  A bottom move is the mirror image: the bottom row is kept and
the top-last letter is reinserted right of the bottom-last letter.  The
flip reverses both rows and swaps them; it has no winner or loser.

``_step`` is the one implementation of this rule, on index rows.  Top and
bottom moves need irreducible rows, whose last top and bottom letters differ.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import PermutationParseError, ReducibleError
from .linalg import IntMatrix
from .perm import LabeledPermutation, is_irreducible


class Move(enum.Enum):
    TOP = "t"
    BOTTOM = "b"
    FLIP = "f"

    @staticmethod
    def from_letter(letter: str) -> "Move":
        try:
            return Move(letter)
        except ValueError:
            raise PermutationParseError("unknown move %r (expected t, b or f)" % letter) from None


@dataclass(frozen=True)
class EdgeRecord:
    """One move with both endpoints and its winner/loser letters.

    ``winner`` and ``loser`` are letter names; both are None exactly for
    flip edges.
    """

    kind: Move
    source: LabeledPermutation
    target: LabeledPermutation
    winner: str | None
    loser: str | None


# The moves by their index in ``_step`` and in the diagram tables.
MOVES = (Move.TOP, Move.BOTTOM, Move.FLIP)


def _step(top: tuple[int, ...], bottom: tuple[int, ...], move: int):
    """The index rows after move ``move`` (0 = t, 1 = b, 2 = f; t and b need
    irreducible rows) and its (winner, loser) letter indices, None for f."""
    if move == 0:
        winner, loser = top[-1], bottom[-1]
        k = bottom.index(winner) + 1
        return top, bottom[:k] + bottom[-1:] + bottom[k:-1], (winner, loser)
    if move == 1:
        winner, loser = bottom[-1], top[-1]
        k = top.index(winner) + 1
        return top[:k] + top[-1:] + top[k:-1], bottom, (winner, loser)
    return bottom[::-1], top[::-1], None


def apply_move(p: LabeledPermutation, move: Move) -> EdgeRecord:
    """The edge of ``move`` from ``p``, with winner and loser by name.

    >>> from .perm import parse
    >>> apply_move(parse("A B C D / D C B A"), Move.TOP).target.display()
    'A B C D / D A C B'
    >>> apply_move(parse("A B C D / D C B A"), Move.BOTTOM).target.display()
    'A D B C / D C B A'
    >>> apply_move(parse("A C B / B A C"), Move.FLIP).target.display()
    'C A B / B C A'
    """
    if move is not Move.FLIP and not is_irreducible(p):
        text = "%s move undefined on reducible permutation %s"
        raise ReducibleError(text % (move.name.lower(), p.display()))
    top, bottom, duel = _step(p.top, p.bottom, MOVES.index(move))
    winner, loser = (None, None) if duel is None else (p.alphabet[duel[0]], p.alphabet[duel[1]])
    return EdgeRecord(move, p, LabeledPermutation(p.alphabet, top, bottom), winner, loser)


def edge_matrix(e: EdgeRecord) -> IntMatrix:
    """Identity plus a single 1 at (winner, loser); the identity for flips.

    Rows and columns follow the alphabet order of the source permutation.
    """
    n = e.source.n
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if e.kind is not Move.FLIP:
        index = e.source.alphabet.index
        rows[index(e.winner)][index(e.loser)] += 1
    return IntMatrix.from_rows(rows)
