"""The three moves on labeled permutations.

A top move keeps the top row and reinserts the bottom-last letter (the
loser) immediately to the right of the top-last letter (the winner) in the
bottom row.  A bottom move is the mirror image: the bottom row is kept and
the top-last letter is reinserted right of the bottom-last letter.  The
flip reverses both rows and swaps them; it has no winner or loser.  The
matrix of a t or b move is Id + E(winner, loser), of a flip the identity.

``_step`` is the one implementation of this rule, on index rows.  Top and
bottom moves need irreducible rows, whose last top and bottom letters differ.
"""

from __future__ import annotations

import enum


class Move(enum.Enum):
    TOP = "t"
    BOTTOM = "b"
    FLIP = "f"


# The moves by their index in ``_step`` and in the diagram tables.
MOVES = (Move.TOP, Move.BOTTOM, Move.FLIP)


def _step(top: tuple[int, ...], bottom: tuple[int, ...], move: int):
    """The index rows after move ``move`` (0 = t, 1 = b, 2 = f; t and b need
    irreducible rows) and its (winner, loser) letter indices, None for f.

    >>> from .perm import LabeledPermutation, parse
    >>> def show(text, move):
    ...     p = parse(text)
    ...     top, bottom, duel = _step(p.top, p.bottom, move)
    ...     return LabeledPermutation(p.alphabet, top, bottom).display(), duel
    >>> show("A B C D / D C B A", 0)
    ('A B C D / D A C B', (3, 0))
    >>> show("A B C D / D C B A", 1)
    ('A D B C / D C B A', (0, 3))
    >>> show("A C B / B A C", 2)
    ('C A B / B C A', None)
    """
    if move == 0:
        winner, loser = top[-1], bottom[-1]
        k = bottom.index(winner) + 1
        return top, bottom[:k] + bottom[-1:] + bottom[k:-1], (winner, loser)
    if move == 1:
        winner, loser = bottom[-1], top[-1]
        k = top.index(winner) + 1
        return top[:k] + top[-1:] + top[k:-1], bottom, (winner, loser)
    return bottom[::-1], top[::-1], None
