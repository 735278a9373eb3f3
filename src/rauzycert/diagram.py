"""Connected components of the (augmented) move diagram, and move paths.

``explore`` closes a seed permutation under the top and bottom moves (plus
the flip when augmented) by breadth-first search with a fixed child order
t, b, f; vertex numbering is therefore reproducible across runs.  A
component is stored as integer tables: the index rows of each vertex as one
``bytes`` (so at most 256 letters) and, per move, its successor, winner and loser.
``to_json`` and ``to_dot`` write a component to a text stream, ``BLOCK``
vertices at a time, so no whole document is held.

A path is a start permutation plus a sequence of moves in execution order.
It is *allowed* when its endpoints define the same unlabeled permutation;
only allowed paths induce a mapping class and a path matrix.  Move words
are written over {t, b, f} with an optional ^k repeat, expand to at most
``MAX_MOVES`` moves, and are read right-to-left by default ("ftb" applies
b, then t, then f); pass ``reading="ltr"`` for left-to-right.
"""

from __future__ import annotations

import io
import json
import re
from functools import cached_property
from itertools import chain, cycle
from operator import itemgetter

from .errors import EnumerationCapError, PermutationParseError, ReducibleError
from .induction import MOVES, Move, _duel, _step
from .jsonutil import dumps
from .perm import LabeledPermutation, _images, _irreducible, _relabel, is_irreducible

DEFAULT_CAP = 10**6
MAX_MOVES = 10**6
# Vertices rendered per write of ``to_json`` and ``to_dot``.
BLOCK = 2048


class RauzyDiagram:
    """A component as integer tables over ``alphabet``.

    ``rows[v]`` is vertex v, in BFS order from the seed (vertex 0), as one
    ``bytes`` of 2n letter indices, top row then bottom row; ``pair(v)``
    splits it.  ``succ[move][v]`` is the vertex the move leads to from v
    (move 0 = t, 1 = b and, when augmented, 2 = f), and ``winner[move][v]``
    and ``loser[move][v]`` are the letter indices of the t and b edges.
    ``vertices`` views the rows as permutation objects, built on first use.
    """

    def __init__(self, alphabet, rows, succ):
        self.alphabet: tuple[str, ...] = tuple(alphabet)
        self.rows = rows
        self.succ = succ
        self.augmented = len(succ) == 3
        lasts = [list(map(itemgetter(k), rows)) for k in (len(self.alphabet) - 1, -1)]
        self.winner, self.loser = zip(_duel(*lasts, 0), _duel(*lasts, 1))

    def __len__(self) -> int:
        return len(self.rows)

    def pair(self, v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (top, bottom) index rows of vertex ``v``."""
        n = len(self.alphabet)
        return tuple(self.rows[v][:n]), tuple(self.rows[v][n:])

    @cached_property
    def vertices(self) -> tuple[LabeledPermutation, ...]:
        return tuple(LabeledPermutation(self.alphabet, *self.pair(v)) for v in range(len(self)))

    def successor(self, index: int, move: Move) -> int:
        """Index of the target of the given move from vertex ``index``."""
        table = MOVES.index(move)
        if table >= len(self.succ):
            raise KeyError("vertex %d has no %s edge" % (index, move.value))
        return self.succ[table][index]

    def to_json_dict(self) -> dict:
        """The document of ``to_json`` without its seed, size and
        injective keys."""
        text = io.StringIO()
        to_json(self, text)
        doc = json.loads(text.getvalue())
        for key in ("seed", "size", "injective"):
            del doc[key]
        return doc


def explore(
    seed: LabeledPermutation, augmented: bool = False, cap: int = DEFAULT_CAP
) -> RauzyDiagram:
    """Breadth-first closure of ``seed`` under the moves.

    Raises ReducibleError for a reducible seed and EnumerationCapError past
    256 letters (one byte per letter in a row) or ``cap`` vertices.
    """
    if seed.n > 256:
        raise EnumerationCapError("diagrams hold at most 256 letters, got %d" % seed.n)
    # The seed's check covers every vertex: t and b keep a permutation
    # irreducible (acceptance criterion 9), and a flip maps the first k
    # letters of both rows to the last k, so a flip of an irreducible
    # permutation has no invariant prefix either.
    if not is_irreducible(seed):
        raise ReducibleError("cannot explore from reducible seed %s" % seed.display())
    rows = [bytes(seed.top + seed.bottom)]
    index = {rows[0]: 0}
    succ: tuple[list[int], ...] = ([], [], []) if augmented else ([], [])
    # The loop visits the rows appended while it runs, in BFS order.
    for row in rows:
        for move, table in enumerate(succ):
            target = _step(row, move)
            v = index.get(target)
            if v is None:
                if len(rows) >= cap:
                    raise EnumerationCapError(
                        "component exceeds the %d-vertex cap from %s" % (cap, seed.display())
                    )
                v = index[target] = len(rows)
                rows.append(target)
            table.append(v)
    return RauzyDiagram(seed.alphabet, rows, succ)


def injectivity_check(d: RauzyDiagram) -> bool:
    """No two distinct vertices define the same unlabeled permutation."""
    n = len(d.alphabet)
    positions = bytes(range(n))
    # letters to bottom positions: top half ``perm._images`` - 1, bottom half 0..n-1
    return len({row.translate(bytes.maketrans(row[n:], positions)) for row in d.rows}) == len(d)


# A run of letters that no ^ follows, one letter with an optional ^k, or
# any other non-space character; whitespace between tokens is skipped.
_TOKEN_RE = re.compile(r"([tbf]+)(?!\^)|([tbf])(?:\^(\d+))?|(\S)")
_MOVE_OF = {move.value: move for move in Move}


def parse_move_word(word: str) -> tuple[Move, ...]:
    """Parse a move word like ``"ftb^3"`` into moves in written order."""
    moves: list[Move] = []
    for match in _TOKEN_RE.finditer(word):
        run, letter, repeat, bad = match.groups()
        if bad is not None:
            raise PermutationParseError("unexpected %r in move word %r" % (bad, word))
        count = len(run) if run else 1
        if repeat is not None:
            repeat = repeat.lstrip("0")
            if not repeat:
                raise PermutationParseError("repeat must be >= 1 in move word %r" % word)
            # more digits than MAX_MOVES is past the cap (int() refuses > 4,300)
            count = int(repeat) if len(repeat) <= len(str(MAX_MOVES)) else MAX_MOVES + 1
        if len(moves) + count > MAX_MOVES:
            raise PermutationParseError("move word expands past %d moves" % MAX_MOVES)
        moves.extend(map(_MOVE_OF.__getitem__, run) if run else [_MOVE_OF[letter]] * count)
    return tuple(moves)


class AllowedPath:
    """A start permutation plus moves in execution order.

    The endpoint, the allowed/not-allowed verdict, ``updates``, the
    (winner, loser) letter indices of the t and b moves in order, and, for
    an allowed path, ``relabel``, the relabeling of its endpoints as a
    letter-index map (None otherwise), are derived eagerly, so a path
    object is self-checking from birth.
    """

    def __init__(self, start: LabeledPermutation, moves):
        self.start = start
        self.moves: tuple[Move, ...] = tuple(moves)
        # Every move keeps a permutation irreducible or reducible (see
        # explore), so the start decides for every station.
        irreducible = _irreducible(start.top, start.bottom)
        n = start.n
        row = start.top + start.bottom
        updates = []
        for move in self.moves:
            index = MOVES.index(move)
            if index < 2:
                if not irreducible:
                    station = LabeledPermutation(start.alphabet, row[:n], row[n:]).display()
                    text = "%s move undefined on reducible permutation %s"
                    raise ReducibleError(text % (move.name.lower(), station))
                updates.append(_duel(row[n - 1], row[-1], index))
            row = _step(row, index)
        self.updates: tuple[tuple[int, int], ...] = tuple(updates)
        top, bottom = row[:n], row[n:]
        self.end = LabeledPermutation(start.alphabet, top, bottom)
        self.allowed: bool = _images(start.top, start.bottom) == _images(top, bottom)
        self.relabel = _relabel(start.top, top) if self.allowed else None

    @property
    def word(self) -> str:
        """The move word in execution order (left-to-right)."""
        return "".join(move.value for move in self.moves)

    def __repr__(self) -> str:
        return "AllowedPath(%s, %r, allowed=%s)" % (self.start.display(), self.word, self.allowed)


def build_path(
    start: LabeledPermutation, word: str, reading: str = "paper"
) -> AllowedPath:
    """Build the path of ``word`` from ``start`` and report its verdict.

    ``reading="paper"`` (the default) reads the word right-to-left, so the
    rightmost letter is the first move executed; ``reading="ltr"`` executes
    the word as written.
    """
    written = parse_move_word(word)
    if reading == "paper":
        execution = tuple(reversed(written))
    elif reading == "ltr":
        execution = written
    else:
        raise ValueError("reading must be 'paper' or 'ltr', got %r" % reading)
    return AllowedPath(start, execution)


def _blocks(d: RauzyDiagram) -> list[tuple[int, int]]:
    """The vertex ranges lo..hi-1 that ``to_json`` and ``to_dot`` write at once."""
    return [(lo, min(lo + BLOCK, len(d))) for lo in range(0, len(d), BLOCK)]


def _letters(d: RauzyDiagram, lo: int, hi: int, plain, top_last, bottom_last) -> str:
    """Rows ``lo`` to ``hi`` - 1 of ``d`` as text, each letter index looked
    up in ``top_last`` at the last letter of a top row, in ``bottom_last``
    at the last of a bottom row and in ``plain`` elsewhere (lists by letter
    index), in one pass over the joined rows."""
    n = len(d.alphabet)
    by_position = [plain] * (n - 1) + [top_last] + [plain] * (n - 1) + [bottom_last]
    return "".join(map(list.__getitem__, cycle(by_position), b"".join(d.rows[lo:hi])))


def to_dot(d: RauzyDiagram, out) -> None:
    """Write the deterministic DOT rendering to the text stream ``out``, one
    block of ``BLOCK`` vertices per write: vertices by BFS index, then the
    edges labeled t/b/f in (vertex, move) order."""
    names = [name.replace("%", "%%") for name in d.alphabet]
    head = '  v%d [label="'
    plain, top_last = [x + " " for x in names], [x + "\\n" for x in names]
    bottom_last = [x + '"];\n' + head for x in names]
    edge = '  v%%d -> v%%d [label="%s"];\n'
    edges = "".join([edge % move.value for move in MOVES[: len(d.succ)]])
    out.write('digraph rauzy {\n  rankdir=LR;\n  node [shape=box, fontname="monospace"];\n')
    for lo, hi in _blocks(d):
        text = head + _letters(d, lo, hi, plain, top_last, bottom_last)
        out.write(text[: -len(head)] % tuple(range(lo, hi)))
    for lo, hi in _blocks(d):
        columns = [column for table in d.succ for column in (range(lo, hi), table[lo:hi])]
        out.write(edges * (hi - lo) % tuple(chain.from_iterable(zip(*columns))))
    out.write("}\n")


def to_json(d: RauzyDiagram, out) -> None:
    """Write the ``diagram`` command's document to the text stream ``out``,
    one block of ``BLOCK`` vertices per write: ``to_json_dict()`` plus the
    seed (vertex 0), the size and the injectivity verdict, exactly as
    ``jsonutil.dumps(document)`` reads it (no final newline)."""
    names = [dumps(name) for name in d.alphabet]
    items = ",\n".join(["        " + x for x in names])
    head = '    {\n      "alphabet": [\n%s\n      ],\n      "top": [\n' % items
    plain = ["        %s,\n" % x for x in names]
    top_last = ['        %s\n      ],\n      "bottom": [\n' % x for x in names]
    bottom_last = ["        %s\n      ]\n    },\n%s" % (x, head) for x in names]
    out.write('{\n  "augmented": %s,\n  "vertices": [\n%s' % (dumps(d.augmented), head))
    for lo, hi in _blocks(d):
        text = _letters(d, lo, hi, plain, top_last, bottom_last)
        out.write(text if hi < len(d) else text[: -len(",\n" + head)])
    # One vertex's edges in move order, by source, target, winner and loser.
    edge = (
        '    {\n      "src": %%d,\n      "dst": %%d,\n      "kind": "%s",\n'
        '      "winner": %s,\n      "loser": %s\n    },\n'
    )
    edges = edge % ("t", "%s", "%s") + edge % ("b", "%s", "%s")
    edges += edge % ("f", "null", "null") if d.augmented else ""
    out.write('\n  ],\n  "edges": [\n')
    for lo, hi in _blocks(d):
        columns = []
        for move, table in enumerate(d.succ):
            columns += [range(lo, hi), table[lo:hi]]
            if move < 2:
                columns += [map(names.__getitem__, x[move][lo:hi]) for x in (d.winner, d.loser)]
        text = edges * (hi - lo) % tuple(chain.from_iterable(zip(*columns)))
        out.write(text if hi < len(d) else text[:-2])
    seed = " / ".join(" ".join([d.alphabet[i] for i in row]) for row in d.pair(0))
    out.write(
        '\n  ],\n  "seed": %s,\n  "size": %d,\n  "injective": %s\n}'
        % (dumps(seed), len(d), dumps(injectivity_check(d)))
    )
