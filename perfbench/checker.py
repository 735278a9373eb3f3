"""Independent checks of rauzycert outputs.

Nothing here imports rauzycert: the moves, path matrices, primitivity
exponents, spectral brackets and twist matrices are computed again from
their definitions, so a fault in the program cannot hide behind the same
fault in the check.

A permutation is a pair of tuples ``(top, bottom)`` of letter indices
0..n-1; letter ``i`` is named ``a{i+1}`` unless an alphabet is given.
Matrices are lists of rows of Python ints.  Every ``check_*`` function
takes the parsed program output and raises ``CheckError`` on the first
claim it cannot confirm.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction


class CheckError(Exception):
    """An output claim that the independent computation does not confirm."""


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- moves


def top_move(p):
    """Keep the top row; reinsert the last bottom letter (loser) right of the
    last top letter (winner) in the bottom row.  Returns (target, winner, loser)."""
    top, bottom = p
    winner, loser = top[-1], bottom[-1]
    rest = [x for x in bottom if x != loser]
    rest.insert(rest.index(winner) + 1, loser)
    return (top, tuple(rest)), winner, loser


def bottom_move(p):
    """Mirror image of ``top_move``: the bottom row is kept."""
    top, bottom = p
    winner, loser = bottom[-1], top[-1]
    rest = [x for x in top if x != loser]
    rest.insert(rest.index(winner) + 1, loser)
    return (tuple(rest), bottom), winner, loser


def flip_move(p):
    top, bottom = p
    return (tuple(reversed(bottom)), tuple(reversed(top))), None, None


MOVES = {"t": top_move, "b": bottom_move, "f": flip_move}


def unlabeled(p) -> tuple[int, ...]:
    top, bottom = p
    bottom_pos = {letter: i for i, letter in enumerate(bottom)}
    return tuple(bottom_pos[letter] for letter in top)


def central(n: int):
    return (tuple(range(n)), tuple(range(n - 1, -1, -1)))


def family_start(g: int):
    n = 2 * g
    bottom = (n - 1,) + tuple(range(g - 2, -1, -1)) + tuple(range(n - 2, g - 2, -1))
    return (tuple(range(n)), bottom)


def names(n: int) -> list[str]:
    return ["a%d" % (i + 1) for i in range(n)]


def display(p) -> str:
    alphabet = names(len(p[0]))
    return " ".join(alphabet[i] for i in p[0]) + " / " + " ".join(alphabet[i] for i in p[1])


def perm_from_letters(alphabet, top_letters, bottom_letters):
    index = {letter: i for i, letter in enumerate(alphabet)}
    return (tuple(index[x] for x in top_letters), tuple(index[x] for x in bottom_letters))


def perm_from_json(data):
    return perm_from_letters(data["alphabet"], data["top"], data["bottom"])


def perm_from_display(text: str, alphabet):
    top, bottom = text.split("/")
    return perm_from_letters(alphabet, top.split(), bottom.split())


def walk(start, word: str):
    """Apply an execution-order word; returns (end, [(winner, loser), ...])."""
    current = start
    edges = []
    for letter in word:
        current, winner, loser = MOVES[letter](current)
        edges.append((winner, loser))
    return current, edges


# ---------------------------------------------------------------- matrices


def path_matrix(start, word: str):
    """Edge products as column updates, then the relabeling; None if the
    endpoints differ as unlabeled permutations."""
    end, edges = walk(start, word)
    if unlabeled(start) != unlabeled(end):
        return None
    n = len(start[0])
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for winner, loser in edges:
        if winner is None:
            continue
        for row in m:
            row[loser] += row[winner]
    end_top = end[0]
    relabel = [0] * n
    for position, letter in enumerate(start[0]):
        relabel[letter] = end_top[position]
    return [[row[relabel[b]] for b in range(n)] for row in m]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matpow(m, e: int):
    n = len(m)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = m
    while e:
        if e & 1:
            result = matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
    return result


def _bool_rows(m) -> list[int]:
    return [sum(1 << j for j, x in enumerate(row) if x) for row in m]


def _bool_mul(a: list[int], b: list[int]) -> list[int]:
    out = []
    for row in a:
        acc = 0
        for j, bits in enumerate(b):
            if row >> j & 1:
                acc |= bits
        out.append(acc)
    return out


def exponent(m) -> int | None:
    """Smallest p with bool(M)^p full, found by stepping through every power
    up to the Wielandt bound; None when no power is full."""
    n = len(m)
    full = (1 << n) - 1
    base = _bool_rows(m)
    power = base
    for p in range(1, (n - 1) ** 2 + 2):
        if all(r == full for r in power):
            return p
        power = _bool_mul(power, base)
    return None


def power_full(m, p: int) -> bool:
    """Whether bool(M)^p has every entry set (p >= 1)."""
    full = (1 << len(m)) - 1
    base = _bool_rows(m)
    power = base
    for _ in range(p - 1):
        power = _bool_mul(power, base)
    return all(r == full for r in power)


def cw_bracket(m) -> tuple[Fraction, Fraction]:
    """Collatz-Wielandt bracket min/max (Mv)_i / v_i for the positive integer
    vector v obtained by rounding a numpy Perron vector; exact rationals."""
    import numpy as np  # imported here so that input generation stays light

    values, vectors = np.linalg.eig(np.array(m, dtype=float))
    k = int(np.argmax(values.real))
    perron = np.abs(vectors[:, k].real)
    perron = perron / perron.max()
    v = [max(1, int(round(float(x) * 2.0**60))) for x in perron]
    w = [sum(a * b for a, b in zip(row, v)) for row in m]
    quotients = [Fraction(wi, vi) for wi, vi in zip(w, v)]
    return min(quotients), max(quotients)


def rational(data) -> Fraction:
    return Fraction(int(data["num"]), int(data["den"]))


def matrix_from_json(rows):
    return [[int(x) for x in row] for row in rows]


def check_bracket(bracket, m, tol: Fraction):
    """Width within tol and overlap with the checker's own CW bracket."""
    low, high = rational(bracket["low"]), rational(bracket["high"])
    ensure(low <= high, "bracket is inverted")
    ensure(high - low <= tol, "bracket width %s exceeds tol %s" % (high - low, tol))
    own_low, own_high = cw_bracket(m)
    ensure(
        low <= own_high and own_low <= high,
        "bracket [%s, %s] misses the checker's [%s, %s]"
        % (float(low), float(high), float(own_low), float(own_high)),
    )
    return low, high


# ---------------------------------------------------------------- surface


def genus_and_closed(p):
    """Genus of the glued 2n-gon and the closed-side flag of each letter."""
    top, bottom = p
    n = len(top)
    parent = list(range(2 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    def bottom_corner(k):
        return k if k in (0, n) else n + k

    top_pos = {x: i for i, x in enumerate(top)}
    bottom_pos = {x: i for i, x in enumerate(bottom)}
    for letter in range(n):
        i, j = top_pos[letter], bottom_pos[letter]
        union(i, bottom_corner(j))
        union(i + 1, bottom_corner(j + 1))
    vertex_count = len({find(c) for c in range(2 * n)})
    genus = (2 - (vertex_count - n + 1)) // 2
    closed = [find(top_pos[x]) == find(top_pos[x] + 1) for x in range(n)]
    return genus, closed


def orbit_bound(start, word: str):
    """The longest trajectory of the orbit map from a closed never-winner
    side to a winner (first such side on ties); None when no side gives one."""
    end, edges = walk(start, word)
    n = len(start[0])
    winners = {w for w, _ in edges if w is not None}
    end_pos = {x: i for i, x in enumerate(end[0])}
    sigma = [start[0][end_pos[x]] for x in range(n)]
    _, closed = genus_and_closed(start)
    best = None
    for letter in range(n):
        if letter in winners or not closed[letter]:
            continue
        trajectory = [letter]
        current = letter
        while True:
            current = sigma[current]
            trajectory.append(current)
            if current in winners:
                if best is None or len(trajectory) > len(best):
                    best = trajectory
                break
            if current in trajectory[:-1]:
                break
    return best


# ---------------------------------------------------------------- outputs


def check_certificate(cert, start, word: str, tol: Fraction, expect_genus: int):
    """A ``certify`` document (or the certificate inside ``fg --genus``)."""
    n = len(start[0])
    alphabet = names(n)
    ensure(cert["word"] == word, "word %r != %r" % (cert["word"], word))
    ensure(perm_from_json(cert["start"]) == start, "start permutation differs")
    ensure(cert["allowed"] is True, "path not reported allowed")
    m = path_matrix(start, word)
    ensure(m is not None, "checker finds the path not allowed")
    ensure(matrix_from_json(cert["matrix"]) == m, "matrix differs from the checker's product")
    own = exponent(m)
    genus, _ = genus_and_closed(start)
    ensure(cert["genus"] == genus == expect_genus, "genus %r != %d" % (cert["genus"], genus))
    if own is None:
        ensure(cert["primitive"] is False and cert["positive_power"] is None,
               "checker finds the matrix not primitive")
        ensure(cert["verdict"] == "inconclusive", "verdict %r" % cert["verdict"])
        ensure(cert["lambda"] is None and cert["lc_lower"] is None,
               "bracket or lower bound on a non-primitive matrix")
    else:
        p = cert["positive_power"]
        ensure(cert["primitive"] is True and cert["verdict"] == "pseudo-Anosov", "verdict")
        ensure(isinstance(p, int) and p >= 1 and power_full(m, p)
               and (p == 1 or not power_full(m, p - 1)),
               "exponent %r is not two-sided (checker: %d)" % (p, own))
        check_bracket(cert["lambda"], m, tol)
        positive_diagonal = any(m[i][i] > 0 for i in range(n))
        if positive_diagonal:
            ensure(rational(cert["lc_lower"]) == Fraction(1, 12 * genus - 12 + 2 * n),
                   "lc_lower %r" % cert["lc_lower"])
        else:
            ensure(cert["lc_lower"] is None, "diagonal-cap bound on a zero diagonal")
    trajectory = orbit_bound(start, word)
    if trajectory is None:
        ensure(cert["lc_upper"] is None, "lc_upper without an admissible orbit")
    else:
        steps = len(trajectory) - 1
        orbit = cert["orbit"]
        ensure(rational(cert["lc_upper"]) == Fraction(2, steps), "lc_upper %r" % cert["lc_upper"])
        ensure(orbit["steps"] == steps, "orbit steps")
        reported = [alphabet.index(x) for x in orbit["trajectory"]]
        end, edges = walk(start, word)
        winners = {w for w, _ in edges if w is not None}
        end_pos = {x: i for i, x in enumerate(end[0])}
        ensure(reported[0] not in winners and reported[-1] in winners
               and len(reported) == steps + 1, "trajectory ends")
        for a, b in zip(reported, reported[1:]):
            ensure(start[0][end_pos[a]] == b, "trajectory does not follow the orbit map")
    return m


def check_family(doc, g: int, tol: Fraction):
    """``fg --genus g``."""
    ensure(doc["g"] == g and doc["passed"] is True, "fg report not passed")
    start = family_start(g)
    word = "b" * g + "tf"
    cert = doc["certificate"]
    ensure(doc["execution_word"] == word, "family word")
    check_certificate(cert, start, word, tol, g)
    ensure(rational(cert["lambda"]["low"]) ** 2 >= 2, "lambda_low^2 < 2")
    ensure(rational(cert["lc_upper"]) == Fraction(1, g - 1), "lc_upper != 1/(g-1)")
    ensure(rational(cert["lc_lower"]) == Fraction(1, 16 * g - 12), "lc_lower != 1/(16g-12)")
    ensure(rational(doc["upper_bound"]) == Fraction(1, g - 1), "upper_bound")
    ensure(rational(doc["lower_bound"]) == Fraction(1, 16 * g - 12), "lower_bound")


def twist_matrix(g: int, n: int):
    """The 3g x 3g block-companion matrix of the n-fold twist family."""
    a = [[n + 1, 1, 1], [n, 1, 0], [n + 1, 1, 2]]
    b = [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    c = [[0, 0, 1], [0, 0, 0], [0, 0, 1]]
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    blocks = {(0, g - 1): eye, (1, 0): a, (1, 1): b, (1, g - 1): c}
    for i in range(2, g):
        blocks[(i, i - 1)] = eye
    m = [[0] * (3 * g) for _ in range(3 * g)]
    for (bi, bj), block in blocks.items():
        for i in range(3):
            for j in range(3):
                m[3 * bi + i][3 * bj + j] += block[i][j]
    return m


SLACK = Fraction(1, 10**6)


def check_twist(doc, g: int, n: int, tol: Fraction):
    """``penner --genus g --n n``."""
    m = twist_matrix(g, n)
    ensure(doc["g"] == g and doc["n"] == n and doc["passed"] is True, "penner report")
    ensure(matrix_from_json(doc["matrix"]) == m, "twist matrix differs")
    low, _ = check_bracket(doc["rho"], m, tol)
    ensure(low**g >= n + 1 - SLACK, "rho_low^g < n + 1")
    power_rows = min(sum(row) for row in matpow(m, g))
    ensure(power_rows == n + 1 == doc["min_row_sum_power"], "min row sum of M^g")
    ensure(rational(doc["lc_upper"]) == Fraction(1, g - 1), "lc_upper")


def check_diverge(doc, g: int, tol: Fraction):
    """``penner diverge --genus g``."""
    n = g**g
    ensure(doc["g"] == g and doc["n"] == n and doc["passed"] is True, "diverge report")
    low, _ = check_bracket(doc["rho"], twist_matrix(g, n), tol)
    ensure(low >= g - SLACK, "rho_low < g")


def explore(seed, augmented: bool):
    """BFS closure under t, b (and f); vertices in discovery order."""
    letters = "tbf" if augmented else "tb"
    index = {seed: 0}
    order = [seed]
    for current in order:
        for letter in letters:
            target = MOVES[letter](current)[0]
            if target not in index:
                index[target] = len(order)
                order.append(target)
    return order


@functools.lru_cache(maxsize=None)
def _central_component(n: int, augmented: bool) -> frozenset:
    return frozenset(explore(central(n), augmented))


def component_size(start, augmented: bool) -> int:
    """Size of the component of the central permutation, which ``start``
    must belong to (explored once per n)."""
    component = _central_component(len(start[0]), augmented)
    ensure(start in component, "the start is not in the central component")
    return len(component)


def check_central(doc, n: int):
    """``fg central --n n``."""
    g = n // 2
    cap = 4 * g + 2
    ensure(doc["n"] == n and doc["passed"] is True, "central report")
    ensure(doc["component_size"] == 2 ** (n - 1) - 1 == component_size(central(n), False),
           "component size %r" % doc["component_size"])
    ensure(rational(doc["lc_lower"]) == Fraction(1, 12 * g - 12 + cap), "lc_lower")
    families = {s["family"] for s in doc["samples"]}
    ensure(families == {1, 2}, "sample families %r" % families)
    alphabet = names(n)
    for sample in doc["samples"]:
        start = perm_from_display(sample["start"], alphabet)
        m = path_matrix(start, sample["word"])
        ensure(m is not None, "sample path not allowed")
        own = exponent(m)
        ensure(own is not None and own == sample["primitive_exponent"] and own <= cap,
               "sample exponent %r (checker %r)" % (sample["primitive_exponent"], own))
        ensure(power_full(m, cap), "M^(4g+2) not positive")


def check_diagram_json(doc, start, augmented: bool):
    """``diagram --start S [--augmented]`` in JSON, S a vertex of the
    component of the central permutation."""
    n = len(start[0])
    alphabet = names(n)
    vertices = [perm_from_letters(alphabet, v["top"], v["bottom"]) for v in doc["vertices"]]
    ensure(vertices[0] == start, "the seed is not vertex 0")
    ensure(len(set(vertices)) == len(vertices) == doc["size"] == component_size(start, augmented),
           "vertex count")
    if not augmented:
        ensure(len(vertices) == 2 ** (n - 1) - 1, "size %d != 2^(n-1)-1" % len(vertices))
    degree = 3 if augmented else 2
    out_degree = [0] * len(vertices)
    for edge in doc["edges"]:
        src, dst = edge["src"], edge["dst"]
        target, winner, loser = MOVES[edge["kind"]](vertices[src])
        ensure(vertices[dst] == target, "edge %d -%s-> %d has the wrong target"
               % (src, edge["kind"], dst))
        expect = (None, None) if winner is None else (alphabet[winner], alphabet[loser])
        ensure((edge["winner"], edge["loser"]) == expect, "edge winner/loser")
        out_degree[src] += 1
    ensure(all(d == degree for d in out_degree), "out-degree is not %d" % degree)
    return len(vertices), len(doc["edges"])


_NODE = re.compile(r'^  v(\d+) \[label="([^"]*)"\];$')
_EDGE = re.compile(r'^  v(\d+) -> v(\d+) \[label="([tbf])"\];$')


def check_diagram_dot(text: str, start, augmented: bool):
    """``diagram --start S --format dot``: the same checks on the DOT text,
    and node/edge counts equal to the checker's own component."""
    n = len(start[0])
    alphabet = names(n)
    vertices = {}
    edges = []
    for line in text.splitlines():
        node = _NODE.match(line)
        if node:
            top, bottom = node.group(2).split("\\n")
            vertices[int(node.group(1))] = perm_from_letters(alphabet, top.split(), bottom.split())
            continue
        edge = _EDGE.match(line)
        if edge:
            edges.append((int(edge.group(1)), int(edge.group(2)), edge.group(3)))
    ensure(vertices.get(0) == start, "the seed is not v0")
    for src, dst, kind in edges:
        ensure(vertices[dst] == MOVES[kind](vertices[src])[0],
               "DOT edge v%d -%s-> v%d has the wrong target" % (src, kind, dst))
    size = component_size(start, augmented)
    degree = 3 if augmented else 2
    ensure(len(vertices) == size and len(set(vertices.values())) == size, "DOT node count")
    ensure(len(edges) == degree * size, "DOT edge count")
    return len(vertices), len(edges)
