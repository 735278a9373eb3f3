"""Shared test helpers: independent oracles and random-path generators."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from hypothesis import assume, strategies as st

from rauzycert.diagram import AllowedPath, RauzyDiagram
from rauzycert.errors import EnumerationCapError, NotAllowedError, ReducibleError
from rauzycert.induction import Move, _step
from rauzycert.linalg import IntMatrix, wielandt_bound
from rauzycert.perm import (
    LabeledPermutation,
    default_alphabet,
    is_irreducible,
    unlabeled,
)


def bisect_largest_root(coeffs, lo, hi, tol=Fraction(1, 10**12)):
    """Bracket a root of the integer polynomial (coeffs high power first) by
    exact-rational bisection on [lo, hi]; the polynomial must change sign."""

    def value(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * x + c
        return acc

    lo, hi = Fraction(lo), Fraction(hi)
    flo, fhi = value(lo), value(hi)
    assert flo * fhi < 0, "bisection bracket must straddle a sign change"
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fmid = value(mid)
        if fmid == 0:
            return mid, mid
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo, hi


def berkowitz_charpoly(m: IntMatrix) -> list[int]:
    """det(xI - m), highest power first, by Berkowitz's division-free
    algorithm (Inf. Proc. Letters 18, 1984): the polynomial of each leading
    (k+1) x (k+1) block is a lower-triangular Toeplitz matrix with first
    column (1, -a_kk, -R C, -R A C, ..., -R A^(k-1) C) times the polynomial
    of the leading k x k block A, where R and C are the new row and column."""
    a = m.rows
    n = len(a)
    poly = [1, -a[0][0]]
    for k in range(1, n):
        row = a[k][:k]
        lead = [[(j, x) for j, x in enumerate(a[i][:k]) if x] for i in range(k)]
        column = [1, -a[k][k]]
        v = [a[i][k] for i in range(k)]
        for _ in range(k):
            column.append(-sum(r * x for r, x in zip(row, v)))
            v = [sum(x * v[j] for j, x in sparse) for sparse in lead]
        poly = [
            sum(column[i - j] * poly[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
            for i in range(k + 2)
        ]
    return poly


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Product of two integer polynomials, coefficients highest power first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m.rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_positive(m: IntMatrix) -> bool:
    return all(x > 0 for row in m.rows for x in row)


def min_row_sum(m: IntMatrix) -> int:
    """Minimum over rows of the entry sum; a Collatz-Wielandt lower bound for
    the spectral radius of a nonnegative matrix."""
    return min(sum(row) for row in m.rows)


def sparse_rows(m: IntMatrix) -> list[dict[int, int]]:
    """Each row of m as {column: entry} over its nonzeros, the form of the
    twist family's powers and closed form."""
    return [{j: x for j, x in enumerate(row) if x} for row in m.rows]


def relabel_matrix(start: LabeledPermutation, end: LabeledPermutation) -> IntMatrix:
    """Permutation matrix of the relabeling between two unlabeled-equal
    vertices, by letter name: a letter b goes to the letter occupying, in
    the end top row, the position b has in the start top row, and the matrix
    has a 1 at (relabel(b), b).  The two vertices may list one letter set in
    different alphabet orders."""
    if set(start.alphabet) != set(end.alphabet):
        raise NotAllowedError("relabeling needs matching letter sets")
    if unlabeled(start) != unlabeled(end):
        raise NotAllowedError(
            "endpoints do not define the same unlabeled permutation: %s vs %s"
            % (start.display(), end.display())
        )
    image = dict(zip(start.top_letters(), end.top_letters()))
    index = {letter: i for i, letter in enumerate(start.alphabet)}
    rows = [[0] * start.n for _ in range(start.n)]
    for letter in start.alphabet:
        rows[index[image[letter]]][index[letter]] = 1
    return IntMatrix.from_rows(rows)


def _reinsert_after(row: tuple[int, ...], moved: int, anchor: int) -> tuple[int, ...]:
    out = [x for x in row if x != moved]
    out.insert(out.index(anchor) + 1, moved)
    return tuple(out)


class OracleEdge(NamedTuple):
    """One move with both endpoints and its winner and loser letter names,
    both None exactly for a flip."""

    kind: Move
    source: LabeledPermutation
    target: LabeledPermutation
    winner: str | None
    loser: str | None


def oracle_move(p: LabeledPermutation, move: Move) -> OracleEdge:
    """One move on permutation objects, written apart from the index-row
    kernel: t takes the bottom-last letter (the loser) out of the bottom row
    and puts it back right of the top-last letter (the winner), b does the
    same with the rows exchanged, and f reverses both rows and swaps them.
    ``p`` must be irreducible for t and b."""
    if move is Move.FLIP:
        target = LabeledPermutation(p.alphabet, tuple(reversed(p.bottom)), tuple(reversed(p.top)))
        return OracleEdge(move, p, target, None, None)
    if move is Move.TOP:
        winner, loser = p.top[-1], p.bottom[-1]
        target = LabeledPermutation(p.alphabet, p.top, _reinsert_after(p.bottom, loser, winner))
    else:
        winner, loser = p.bottom[-1], p.top[-1]
        target = LabeledPermutation(p.alphabet, _reinsert_after(p.top, loser, winner), p.bottom)
    return OracleEdge(move, p, target, p.alphabet[winner], p.alphabet[loser])


def oracle_edge_matrix(edge: OracleEdge) -> list[list[int]]:
    """Dense Id + E(winner, loser) in the source's alphabet order, as rows;
    the identity for a flip."""
    alphabet = edge.source.alphabet
    rows = [[int(i == j) for j in range(len(alphabet))] for i in range(len(alphabet))]
    if edge.winner is not None:
        rows[alphabet.index(edge.winner)][alphabet.index(edge.loser)] += 1
    return rows


def _dense_mul(a: list[list[int]], b) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def dense_path_matrix(path: AllowedPath) -> IntMatrix:
    """The path matrix as the dense product, on plain lists, of the edge
    matrices of ``oracle_move``, first edge leftmost, times the relabeling
    matrix."""
    n = path.start.n
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    current = path.start
    for move in path.moves:
        edge = oracle_move(current, move)
        result = _dense_mul(result, oracle_edge_matrix(edge))
        current = edge.target
    return IntMatrix.from_rows(_dense_mul(result, relabel_matrix(path.start, current).rows))


def oracle_explore(seed: LabeledPermutation, augmented: bool = False, cap: int = 10**6):
    """Breadth-first closure of ``seed`` with one permutation object and one
    ``OracleEdge`` per vertex and edge, keyed by display strings: the vertices
    in BFS order and the out-edges of each vertex in t, b(, f) order."""
    if not is_irreducible(seed):
        raise ReducibleError("cannot explore from reducible seed %s" % seed.display())
    moves = (Move.TOP, Move.BOTTOM, Move.FLIP) if augmented else (Move.TOP, Move.BOTTOM)
    vertices: list[LabeledPermutation] = [seed]
    index: dict[str, int] = {seed.display(): 0}
    out_edges: list[tuple[OracleEdge, ...]] = []
    frontier = 0
    while frontier < len(vertices):
        edges = tuple(oracle_move(vertices[frontier], move) for move in moves)
        out_edges.append(edges)
        for edge in edges:
            key = edge.target.display()
            if key not in index:
                if len(vertices) >= cap:
                    raise EnumerationCapError(
                        "component exceeds the %d-vertex cap from %s" % (cap, seed.display())
                    )
                index[key] = len(vertices)
                vertices.append(edge.target)
        frontier += 1
    return vertices, out_edges


def step_explore(seed: LabeledPermutation, augmented: bool = False, cap: int = 10**6):
    """Breadth-first closure of ``seed`` on letter rows, one ``_step`` per
    edge, the reference for ``diagram.explore``: the rows in BFS order and
    the successor tables, as a ``RauzyDiagram``."""
    rows = [bytes(seed.top + seed.bottom)]
    index = {rows[0]: 0}
    succ: tuple[list[int], ...] = ([], [], []) if augmented else ([], [])
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


def oracle_diagram_doc(seed: LabeledPermutation, augmented: bool = False) -> dict:
    """The ``diagram`` command's JSON document, built as nested dicts."""
    vertices, out_edges = oracle_explore(seed, augmented)
    index = {v.display(): i for i, v in enumerate(vertices)}
    return {
        "augmented": augmented,
        "vertices": [v.to_json_dict() for v in vertices],
        "edges": [
            {
                "src": i,
                "dst": index[edge.target.display()],
                "kind": edge.kind.value,
                "winner": edge.winner,
                "loser": edge.loser,
            }
            for i, out in enumerate(out_edges)
            for edge in out
        ],
        "seed": seed.display(),
        "size": len(vertices),
        "injective": len({unlabeled(v).images for v in vertices}) == len(vertices),
    }


def oracle_dot(seed: LabeledPermutation, augmented: bool = False) -> str:
    """The DOT rendering, one formatted line per vertex and per edge."""
    vertices, out_edges = oracle_explore(seed, augmented)
    index = {v.display(): i for i, v in enumerate(vertices)}
    lines = ["digraph rauzy {", "  rankdir=LR;", '  node [shape=box, fontname="monospace"];']
    for i, v in enumerate(vertices):
        label = " ".join(v.top_letters()) + "\\n" + " ".join(v.bottom_letters())
        lines.append('  v%d [label="%s"];' % (i, label))
    for i, out in enumerate(out_edges):
        for edge in out:
            lines.append(
                '  v%d -> v%d [label="%s"];' % (i, index[edge.target.display()], edge.kind.value)
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def brute_force_closed_words(step, start: int, max_len: int) -> dict[int, list[tuple]]:
    """Every word of move indices of length 1..max_len from ``start``, in
    order of length then lexicographic, grouped by the vertex it ends at."""
    words: dict[int, list[tuple]] = {}
    for length in range(1, max_len + 1):
        for word in itertools.product(range(len(step)), repeat=length):
            state = start
            for move in word:
                state = step[move][state]
            words.setdefault(state, []).append(word)
    return words


def unpruned_closed_words(step, start: int, end: int, max_len: int):
    """Words over {t, b}, as tuples of move indices, of length 1..max_len
    leading from vertex ``start`` to vertex ``end``, in order of length then
    lexicographic (t < b): the candidate words of ``fg._closed_words``
    before its win/loss pruning.

    Each length is one depth-first search in t, b order that drops every
    prefix whose vertex is farther from ``end`` than the moves it has left,
    with distances from a breadth-first search backwards from ``end``.
    """
    far = max_len + 1
    dist = [far] * len(step[0])
    dist[end] = 0
    preds: list[list[int]] = [[] for _ in dist]
    for table in step:
        for u, v in enumerate(table):
            preds[v].append(u)
    frontier = [end]
    for d in range(1, max_len + 1):
        nxt = []
        for v in frontier:
            for u in preds[v]:
                if dist[u] == far:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    # moves[d] is the move last tried at depth d (-1 before the first) and
    # states[d] the vertex it leaves from.
    moves = [0] * max_len
    states = [start] * max_len
    for length in range(max(1, dist[start]), max_len + 1):
        depth = 0
        moves[0] = -1
        while depth >= 0:
            move = moves[depth] + 1
            if move == 2:
                depth -= 1
                continue
            moves[depth] = move
            state = step[move][states[depth]]
            left = length - depth - 1
            if dist[state] > left:
                continue
            if left == 0:
                yield tuple(moves[:length])
            else:
                depth += 1
                states[depth] = state
                moves[depth] = -1


def cycle_masks(relabel: tuple[int, ...]) -> tuple[int, ...]:
    """The cycles of the letter map ``relabel``, each as a bit mask of
    letters, in the order of their least letters."""
    masks = []
    seen = 0
    for start in range(len(relabel)):
        if seen >> start & 1:
            continue
        mask, letter = 0, start
        while not mask >> letter & 1:
            mask |= 1 << letter
            letter = relabel[letter]
        masks.append(mask)
        seen |= mask
    return tuple(masks)


def never_primitive(updates, cycles) -> bool:
    """Whether some cycle of the relabeling (bit masks, as ``cycle_masks``
    gives them) never wins or never loses in ``updates``, which rules out a
    primitive path matrix.

    In the unipotent part (Id + E(w1, l1)) ... (Id + E(wk, lk)) a letter
    that never wins keeps its unit row and one that never loses keeps its
    unit column.  The relabeling P maps the unit rows (columns) of a whole
    such cycle onto unit rows (columns) of the same cycle, so every power
    of the path matrix keeps them, and none is positive.
    """
    won = lost = 0
    for w, l in updates:
        won |= 1 << w
        lost |= 1 << l
    return any(not (cycle & won and cycle & lost) for cycle in cycles)


def oracle_cover_loop(step, winner, base: int, letter_order) -> tuple[int, ...]:
    """A closed loop at ``base`` on which every letter wins, found with one
    breadth-first search per candidate vertex: for each uncovered letter,
    the first vertex (by index, then t before b) whose edge wins it at a
    strictly shorter distance than any earlier one."""

    def shortest_word(src: int, dst: int) -> list[int]:
        if src == dst:
            return []
        prev: dict[int, tuple[int, int] | None] = {src: None}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for move in (0, 1):
                    v = step[move][u]
                    if v in prev:
                        continue
                    prev[v] = (u, move)
                    if v == dst:
                        out = []
                        while prev[v] is not None:
                            v, move = prev[v]
                            out.append(move)
                        return list(reversed(out))
                    nxt.append(v)
            frontier = nxt
        raise RuntimeError("component is not strongly connected")

    word: list[int] = []
    current = base
    covered: set[int] = set()
    for letter in letter_order:
        if letter in covered:
            continue
        best = None
        for i in range(len(step[0])):
            for move in (0, 1):
                if winner[move][i] != letter:
                    continue
                approach = shortest_word(current, i)
                if best is None or len(approach) < len(best[0]):
                    best = (approach, i, move)
        approach, vertex, move = best
        word.extend(approach)
        word.append(move)
        state = current
        for mv in approach:
            covered.add(winner[mv][state])
            state = step[mv][state]
        covered.add(winner[move][vertex])
        current = step[move][vertex]
    word.extend(shortest_word(current, base))
    return tuple(word)


def linear_min_positive_power(m: IntMatrix) -> int | None:
    """Smallest p up to the Wielandt bound with m**p positive, trying
    p = 1, 2, ... on the 0/1 pattern of the powers."""
    def pattern(a: IntMatrix) -> IntMatrix:
        return IntMatrix.from_rows([[1 if x else 0 for x in row] for row in a.rows])

    base = pattern(m)
    power = base
    for p in range(1, wielandt_bound(m.order) + 1):
        if is_positive(power):
            return p
        power = pattern(power * base)
    return None


def random_labeled_permutation(rng: random.Random, n: int) -> LabeledPermutation:
    top = list(range(n))
    bottom = list(range(n))
    rng.shuffle(top)
    rng.shuffle(bottom)
    return LabeledPermutation(default_alphabet(n), tuple(top), tuple(bottom))


def random_irreducible(rng: random.Random, n: int) -> LabeledPermutation:
    while True:
        p = random_labeled_permutation(rng, n)
        if is_irreducible(p):
            return p


def random_allowed_paths(
    rng: random.Random,
    count: int,
    min_n: int = 2,
    max_n: int = 6,
    augmented: bool = True,
    max_walk: int = 300,
) -> list[AllowedPath]:
    """Allowed paths found by random walks that return to an unlabeled-equal
    vertex; components are finite and strongly connected, so walks close fast."""
    paths: list[AllowedPath] = []
    while len(paths) < count:
        start = random_irreducible(rng, rng.randint(min_n, max_n))
        moves: list[Move] = []
        current = start
        for _ in range(max_walk):
            roll = rng.random()
            if augmented and roll < 0.1:
                move = Move.FLIP
            elif roll < 0.55:
                move = Move.TOP
            else:
                move = Move.BOTTOM
            moves.append(move)
            current = oracle_move(current, move).target
            if unlabeled(start) == unlabeled(current):
                paths.append(AllowedPath(start, moves))
                break
    return paths


@st.composite
def allowed_paths(draw, max_n: int = 6, max_moves: int = 400) -> AllowedPath:
    """Hypothesis strategy: an irreducible start, then t, b and f moves drawn
    one at a time until the walk reaches an unlabeled-equal vertex."""
    n = draw(st.integers(2, max_n))
    top = draw(st.permutations(range(n)))
    bottom = draw(st.permutations(range(n)))
    start = LabeledPermutation(default_alphabet(n), tuple(top), tuple(bottom))
    assume(is_irreducible(start))
    moves: list[Move] = []
    current = start
    while len(moves) < max_moves:
        move = draw(st.sampled_from((Move.TOP, Move.BOTTOM, Move.FLIP)))
        moves.append(move)
        current = oracle_move(current, move).target
        if unlabeled(start) == unlabeled(current):
            return AllowedPath(start, moves)
    assume(False)


def all_standard_permutations(n: int):
    """Every labeled permutation with identity top row; irreducibility and
    the unlabeled image only depend on this representative."""
    import itertools

    alphabet = default_alphabet(n)
    for images in itertools.permutations(range(n)):
        yield LabeledPermutation(alphabet, tuple(range(n)), tuple(images))


class UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def union_find_glue(p: LabeledPermutation) -> tuple[int, dict[str, bool]]:
    """The vertex count and side flags of ``surface.glue``, from a
    union-find over all 2n corners: top corners 0..n, and bottom corner k
    as n + k for 0 < k < n, its ends being the top chain's."""
    n = p.n
    uf = UnionFind(2 * n)

    def bottom_corner(k: int) -> int:
        return k if k in (0, n) else n + k

    top_pos = p.top_positions()
    bottom_pos = p.bottom_positions()
    for letter in range(n):
        i, j = top_pos[letter], bottom_pos[letter]
        uf.union(i, bottom_corner(j))  # left endpoints
        uf.union(i + 1, bottom_corner(j + 1))  # right endpoints
    vertex_count = sum(uf.find(corner) == corner for corner in range(2 * n))
    side_closed = {
        p.alphabet[letter]: uf.find(top_pos[letter]) == uf.find(top_pos[letter] + 1)
        for letter in range(n)
    }
    return vertex_count, side_closed


def face_boundary_relation(p: LabeledPermutation) -> list[int]:
    """Abelianized boundary word of the single face of the glued 2n-gon:
    +1 per top traversal, -1 per bottom traversal of each side.  A closed
    side's cycle bounds only if its basis vector lies in the lattice this
    relation spans."""
    relation = [0] * p.n
    for letter in p.top:
        relation[letter] += 1
    for letter in p.bottom:
        relation[letter] -= 1
    return relation
