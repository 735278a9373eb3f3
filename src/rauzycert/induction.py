"""The three moves on labeled permutations.

A top move keeps the top row and reinserts the bottom-last letter (the
loser) immediately to the right of the top-last letter (the winner) in the
bottom row.  A bottom move is the mirror image: the bottom row is kept and
the top-last letter is reinserted right of the bottom-last letter.  The
flip reverses both rows and swaps them; it has no winner or loser.  The
matrix of a t or b move is Id + E(winner, loser), of a flip the identity.

``_step`` applies this rule to a packed row of letter indices (top row,
then bottom row), and ``_duel`` is the one statement of a move's winner and
loser.  Top and bottom moves need irreducible rows, whose last top and
bottom letters differ.

``_position_tables`` states the same rule on a *position row*, the inverse
of a packed row: byte x holds the top position of letter x, and byte n + x
holds n plus its bottom position.  A move there only renumbers positions,
so each move is one ``bytes.translate`` of the whole row.  The diagram
search uses it; paths, which may run to 10^5 letters, use ``_step``.
"""

from __future__ import annotations

# The letter of each move by its index in ``_step`` and in the diagram tables.
MOVES = "tbf"

_BYTES = bytes(range(256))


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


def _position_tables(n: int) -> tuple[list, bytes]:
    """The moves on a position row of ``n`` <= 128 letters as 256-byte
    ``bytes.translate`` tables, built afresh on each call: ``(after, flip)``.

    A t or b move puts the last letter of one row right after the winner in
    that row: ``after[v]``, for the winner's position value v in that row,
    keeps the values up to v, adds 1 to the values from v + 1 to the row's
    last value but one and maps the row's last value to v + 1.  On a
    position row ``key``, t's winner is ``key.index(n - 1)``, so t is
    ``key.translate(after[key[key.index(n - 1) + n]])``, and b's winner is
    ``key.index(2n - 1) - n``, so b is
    ``key.translate(after[key[key.index(2n - 1) - n]])``.  The flip is
    ``(key[n:] + key[:n]).translate(flip)``: it swaps the two halves and maps
    each value v to 2n - 1 - v.  A row's last value is never a winner's, so
    ``after`` holds None there.

    >>> after, flip = _position_tables(3)
    >>> key = bytes([0, 1, 2, 5, 4, 3])  # A B C / C B A
    >>> list(key.translate(after[key[key.index(2) + 3]]))  # t: A B C / C A B
    [0, 1, 2, 4, 5, 3]
    >>> list(key.translate(after[key[key.index(5) - 3]]))  # b: A C B / C B A
    [0, 2, 1, 5, 4, 3]
    """
    m = 2 * n
    after: list = [None] * m
    for end in (n, m):
        for v in range(end - n, end - 1):
            after[v] = _BYTES[: v + 1] + _BYTES[v + 2 : end] + _BYTES[v + 1 : v + 2] + _BYTES[end:]
    return after, _BYTES[m - 1 :: -1] + _BYTES[m:]
