"""The three moves on labeled permutations.

A top move keeps the top row and reinserts the bottom-last letter (the
loser) immediately to the right of the top-last letter (the winner) in the
bottom row.  A bottom move is the mirror image: the bottom row is kept and
the top-last letter is reinserted right of the bottom-last letter.  The
flip reverses both rows and swaps them; it has no winner or loser.  The
matrix of a t or b move is Id + E(winner, loser), of a flip the identity.

``_step`` is the one implementation of this rule, on a packed row of letter
indices (top row, then bottom row), and ``_duel`` the one statement of a
move's winner and loser.  Top and bottom moves need irreducible rows, whose
last top and bottom letters differ.
"""

from __future__ import annotations

import enum


class Move(enum.Enum):
    TOP = "t"
    BOTTOM = "b"
    FLIP = "f"


# The moves by their index in ``_step`` and in the diagram tables.
MOVES = (Move.TOP, Move.BOTTOM, Move.FLIP)


def _duel(top_last, bottom_last, move: int):
    """The (winner, loser) of move ``move`` (0 = t, 1 = b) from the last
    letters of the top and bottom rows, or from tables of them: t's winner
    is the top-last letter, b's the bottom-last one."""
    return (top_last, bottom_last) if move == 0 else (bottom_last, top_last)


def _step(row, move: int):
    """The packed row (top row, then bottom row; ``bytes`` or a tuple) after
    move ``move``: 0 = t, 1 = b (both need an irreducible row), 2 = f.

    >>> from .perm import LabeledPermutation, parse
    >>> def show(text, move):
    ...     p = parse(text)
    ...     row = _step(p.top + p.bottom, move)
    ...     return LabeledPermutation(p.alphabet, row[: p.n], row[p.n :]).display()
    >>> show("A B C D / D C B A", 0)
    'A B C D / D A C B'
    >>> show("A B C D / D C B A", 1)
    'A D B C / D C B A'
    >>> show("A C B / B A C", 2)
    'C A B / B C A'
    """
    n = len(row) >> 1
    if move == 0:
        # the winner's bottom position; the top row is kept
        k = row.index(row[n - 1], n) + 1
        return row[:k] + row[-1:] + row[k:-1]
    if move == 1:
        # the winner's top position (the first of its two); the bottom row is kept
        k = row.index(row[-1]) + 1
        return row[:k] + row[n - 1 : n] + row[k : n - 1] + row[n:]
    return row[::-1]
