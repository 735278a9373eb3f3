"""Connected components of the (augmented) move diagram, and move paths.

``explore`` closes a seed permutation under the top and bottom moves (plus
the flip when augmented) by breadth-first search with a fixed child order
t, b, f; vertex numbering is therefore reproducible across runs.  A
component is stored as integer tables: the index rows of each vertex as one
``bytes`` (so at most 256 letters) and, per move, its successor, winner and loser.

A path is a start permutation plus a sequence of moves in execution order.
It is *allowed* when its endpoints define the same unlabeled permutation;
only allowed paths induce a mapping class and a path matrix.  Move words
are written over {t, b, f} with an optional ^k repeat, expand to at most
``MAX_MOVES`` moves, and are read right-to-left by default ("ftb" applies
b, then t, then f); pass ``reading="ltr"`` for left-to-right.
"""

from __future__ import annotations

import json
import re
from functools import cache, cached_property

from .errors import EnumerationCapError, PermutationParseError, ReducibleError
from .induction import MOVES, Move, _step
from .jsonutil import _json_list, dumps
from .perm import LabeledPermutation, _images, _irreducible, _relabel, is_irreducible

DEFAULT_CAP = 10**6
MAX_MOVES = 10**6


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
        n = len(self.alphabet)
        top_last = [row[n - 1] for row in rows]
        bottom_last = [row[-1] for row in rows]
        # t: the top-last letter beats the bottom-last one; b: the reverse.
        self.winner = (top_last, bottom_last)
        self.loser = (bottom_last, top_last)

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
        doc = json.loads(to_json(self))
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
    n = seed.n
    if n > 256:
        raise EnumerationCapError("diagrams hold at most 256 letters, got %d" % n)
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
        top, bottom = row[:n], row[n:]
        for move, table in enumerate(succ):
            top_after, bottom_after, _ = _step(top, bottom, move)
            target = top_after + bottom_after
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


_TOKEN_RE = re.compile(r"([tbf])(?:\^(\d+))?|(\S)")


def parse_move_word(word: str) -> tuple[Move, ...]:
    """Parse a move word like ``"ftb^3"`` into moves in written order."""
    moves: list[Move] = []
    for match in _TOKEN_RE.finditer(word):
        letter, repeat, bad = match.groups()
        if bad is not None:
            raise PermutationParseError("unexpected %r in move word %r" % (bad, word))
        count = 1
        if repeat is not None:
            repeat = repeat.lstrip("0")
            if not repeat:
                raise PermutationParseError("repeat must be >= 1 in move word %r" % word)
            # more digits than MAX_MOVES is past the cap (int() refuses > 4,300)
            count = int(repeat) if len(repeat) <= len(str(MAX_MOVES)) else MAX_MOVES + 1
        if len(moves) + count > MAX_MOVES:
            raise PermutationParseError("move word expands past %d moves" % MAX_MOVES)
        moves.extend([Move(letter)] * count)
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
        top, bottom = start.top, start.bottom
        updates = []
        for move in self.moves:
            if not irreducible and move is not Move.FLIP:
                station = LabeledPermutation(start.alphabet, top, bottom).display()
                text = "%s move undefined on reducible permutation %s"
                raise ReducibleError(text % (move.name.lower(), station))
            top, bottom, duel = _step(top, bottom, MOVES.index(move))
            if duel is not None:
                updates.append(duel)
        self.updates: tuple[tuple[int, int], ...] = tuple(updates)
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


def _interleave(per_move: list[list[str]]) -> list[str]:
    """The items of each move's list, in (vertex, move) order."""
    out = [""] * sum(map(len, per_move))
    for move, items in enumerate(per_move):
        out[move :: len(per_move)] = items
    return out


def to_dot(d: RauzyDiagram) -> str:
    """Deterministic DOT rendering: vertices by BFS index, edges labeled t/b/f."""
    n = len(d.alphabet)
    spaced = cache(lambda row: " ".join([d.alphabet[i] for i in row]))
    parts = ['digraph rauzy {\n  rankdir=LR;\n  node [shape=box, fontname="monospace"];\n']
    for v, row in enumerate(d.rows):
        parts.append('  v%d [label="%s\\n%s"];\n' % (v, spaced(row[:n]), spaced(row[n:])))
    lines = ['  v%%d -> v%%d [label="%s"];\n' % move.value for move in MOVES]
    parts += _interleave([[line % e for e in enumerate(t)] for line, t in zip(lines, d.succ)])
    parts.append("}\n")
    return "".join(parts)


def to_json(d: RauzyDiagram) -> str:
    """The ``diagram`` command's document: ``to_json_dict()`` plus the seed
    (vertex 0), the size and the injectivity verdict.  It is written from
    the tables and reads exactly as ``jsonutil.dumps(document)``."""
    n = len(d.alphabet)
    letters = [dumps(name) for name in d.alphabet]
    items = ["        " + name for name in letters]
    listed = cache(lambda row: "".join(_json_list(",\n".join([items[i] for i in row]), "      ")))
    alphabet = listed(bytes(range(n)))
    vertex = '    {\n      "alphabet": %s,\n      "top": %s,\n      "bottom": %s\n    }'
    vertices = ",\n".join([vertex % (alphabet, listed(row[:n]), listed(row[n:])) for row in d.rows])
    # The kind, winner and loser lines of an edge, by move, winner and loser.
    tail = '"kind": "%s",\n      "winner": %s,\n      "loser": %s\n    }'
    tails = [
        [[tail % (kind, letters[w], letters[l]) for l in range(n)] for w in range(n)]
        for kind in "tb"
    ]
    flip = tail % ("f", "null", "null")
    edge = '    {\n      "src": %d,\n      "dst": %d,\n      %s'
    per_move = [
        [edge % (v, dst, by[w][l]) for v, dst, w, l in zip(range(len(d)), table, won, lost)]
        for table, by, won, lost in zip(d.succ, tails, d.winner, d.loser)
    ]
    per_move += [[edge % (v, dst, flip) for v, dst in enumerate(table)] for table in d.succ[2:]]
    edges = ",\n".join(_interleave(per_move))
    del per_move  # frees the edge strings before the document is joined: a lower peak
    seed = " / ".join(" ".join([d.alphabet[i] for i in row]) for row in d.pair(0))
    return "".join(
        ['{\n  "augmented": %s,\n  "vertices": ' % dumps(d.augmented)]
        + _json_list(vertices, "  ")
        + [',\n  "edges": ']
        + _json_list(edges, "  ")
        + [
            ',\n  "seed": %s,\n  "size": %d,\n  "injective": %s\n}'
            % (dumps(seed), len(d), dumps(injectivity_check(d)))
        ]
    )
