"""The minimal-stretch family on 2g letters and the central-component checks.

``family_loop(g)`` is the loop of g bottom moves, one top move and one flip
from the family's start permutation; its matrix certifies a pseudo-Anosov
whose stable curve-graph translation length is pinned between 1/(16g-12)
and 1/(g-1).  ``family_report`` re-derives every closed-form claim about that
loop (intermediate permutations, winner-loser sequence, block shape of the
path matrix, orbit of the best starting side) and runs the certificate.

``central_component_checks`` works on the component of the central permutation on n
letters (n = 2g or 2g+1): injectivity of the labeled-to-unlabeled map, the
closed forms of the loop of top moves, the pairing m <-> n-m-1 between a
flipped loop vertex and its unique unlabeled partner, the (n,n) entry of
the relabeling matrix, and the positive-power bound 1/(16g-10) on sampled
primitive paths of the two shapes every pseudo-Anosov of the component
factors through.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .diagram import AllowedPath, explore, injectivity_check
from .errors import check_range
from .induction import MOVES, Move, _step
from .linalg import (
    DEFAULT_TOL,
    IntMatrix,
    SpectralBracket,
    _column_product,
    min_positive_power,
    root_above_one,
)
from .pa import PACertificate, certify, lc_lower_bound
from .perm import LabeledPermutation, _cycles, _images, _invert, _relabel, central
from .perm import default_alphabet, fg_start


# Largest genus that family_loop accepts, and so ``fg --genus`` and ``fg
# table --gmax``.  The table is the slower of the two, as it reports every
# genus up to its --gmax; see the README for measured times.  The cap
# guards runtime and output size, not exactness.
GENUS_MAX = 250


def family_loop(g: int) -> AllowedPath:
    """The loop: g bottom moves, then a top move, then a flip."""
    check_range("family genus g", g, 2, GENUS_MAX)
    return AllowedPath(fg_start(g), (Move.BOTTOM,) * g + (Move.TOP, Move.FLIP))


# A (top, bottom) pair of letter-index rows.
_Rows = tuple[tuple[int, ...], tuple[int, ...]]


def _fg_end(g: int) -> _Rows:
    """Closed form of the loop endpoint, after the final flip."""
    n = 2 * g
    return tuple(range(g, n - 1)) + tuple(range(g)) + (n - 1,), tuple(range(n - 1, -1, -1))


def _stations(path: AllowedPath) -> list[_Rows]:
    """The index rows after each move of ``path``."""
    n = path.start.n
    row = path.start.top + path.start.bottom
    rows = []
    for move in path.moves:
        row = _step(row, MOVES.index(move))
        rows.append((row[:n], row[n:]))
    return rows


def _closed_forms(g: int) -> list[_Rows]:
    """The closed forms after each move of the loop.  After k bottom moves,
    1 <= k <= g, the last k letters of the start's top row sit right after
    its first g, and the bottom row is the start's (k = g gives the start).
    The top move then gives g top moves from the central permutation."""
    n, bottom = 2 * g, fg_start(g).bottom
    after_b = [
        (tuple(range(g)) + tuple(range(n - k, n)) + tuple(range(g, n - k)), bottom)
        for k in range(1, g + 1)
    ]
    after_t = central_after_t(n, g)
    return after_b + [(after_t.top, after_t.bottom), _fg_end(g)]


def expected_winner_losers(g: int) -> list[tuple[str, str]]:
    a = default_alphabet(2 * g)
    pairs = [(a[g - 1], a[2 * g - 1 - j]) for j in range(g)]
    pairs.append((a[2 * g - 1], a[g - 1]))
    return pairs


def block_matrix(g: int) -> IntMatrix:
    """The path matrix of the loop, assembled from its block closed form.

    Rows 1..g carry an all-ones last row in the first g-1 columns, the
    identity (with a 2 in its corner) in the middle g columns and a single 1
    closing the corner; rows g+1..2g-1 are a shifted identity; the last row
    has 1s in columns 2g-1 and 2g.
    """
    n = 2 * g
    unit = IntMatrix.identity(n).rows
    corner = (1,) * (g - 1) + (0,) * (g - 1) + (2, 1)
    return IntMatrix(unit[g - 1 : n - 2] + (corner,) + unit[: g - 1] + ((0,) * (n - 2) + (1, 1),))


def family_polynomial(g: int) -> list[int]:
    """Coefficients, highest power first, of
    p_g(x) = x^(2g+1) - 2 x^(2g-1) - 2 x^2 + 1, whose root above sqrt 2 is
    the minimal stretch factor of the hyperelliptic component
    (Boissy-Lanneau, GAFA 22, 2012).

    Every eigenvalue x of ``block_matrix(g)`` is a root of p_g.  Write
    Mv = xv with v_0 .. v_(2g-1), u = v_(2g-1) and w = v_(2g-2).  The last
    row gives w = (x - 1) u.  Rows 0..g-2 give v_(g-1+r) = x v_r and rows
    g..2g-2 give v_(r-g) = x v_r, so, alternating between the two,
    v_(g-1-k) = x^(2k-1) w for 1 <= k <= g-1 and v_(2g-1-k) = x^(2k-2) w
    for 1 <= k <= g.  Row g-1 then reads
    w (x + x^3 + ... + x^(2g-3) + 2 - x^(2g-1)) + u = 0.  Put w = (x - 1) u
    and multiply by x + 1: as (x^2 - 1)(x + x^3 + ... + x^(2g-3)) =
    x^(2g-1) - x, it becomes -u p_g(x) = 0.  u = 0 would make w and every v_i zero, so p_g(x) = 0.
    The tests check the stronger identity (x + 1) chi(x) = p_g(x) against
    exact characteristic polynomials of ``block_matrix(g)``.

    For g >= 2 the spectral radius rho is p_g's only root above 1.  rho is
    an eigenvalue (Perron-Frobenius), so a root of p_g, and rho >= 1, the
    minimum row sum (Collatz-Wielandt).  On [1, sqrt 2],
    p_g(x) = x^(2g-1) (x^2 - 2) + 1 - 2 x^2 <= -1.  On [sqrt 2, inf),
    p_g'(x) = x^(2g-2) ((2g+1) x^2 - 2(2g-1)) - 4x >= 4x (x^(2g-3) - 1) > 0.
    So p_g has one root above 1, it is above sqrt 2, and it is rho.
    """
    coeffs = [0] * (2 * g + 2)
    coeffs[0] = coeffs[2 * g + 1] = 1
    coeffs[2] = coeffs[2 * g - 1] = -2
    return coeffs


def family_bracket(g: int, tol: Fraction | str | float = DEFAULT_TOL) -> SpectralBracket:
    """A bracket of width at most ``tol`` on lambda_g, the root of
    ``family_polynomial(g)`` above sqrt 2, whose low end is above sqrt 2.

    lambda_g - sqrt 2 is about 1.5 * 2^-g, so from g = 37 at the default tol
    the bisection's low end lies below sqrt 2; it is then lifted.  Past
    sqrt 2, p_g''(x) >= (16g - 4) x^(2g-3) - 4 > 0, so p_g' grows; with
    p_g(sqrt 2) = -3 and p_g(lambda_g) = 0, the mean value theorem gives
    lambda_g - sqrt 2 >= 3 / p_g'(high) > 2^-k, k = bitlen(ceil(p_g'(high) / 3)).
    So ceil(sqrt 2 * 2^k) / 2^k, above the old low end, is in (sqrt 2, lambda_g).
    """
    lam = root_above_one(family_polynomial(g), tol)
    if lam.low**2 < 2:
        h = lam.high
        slope = (2 * g + 1) * h ** (2 * g) - 2 * (2 * g - 1) * h ** (2 * g - 2) - 4 * h
        k = math.ceil(slope / 3).bit_length()
        # sqrt 2 * 2^k is irrational, so its ceiling is isqrt(2 * 4^k) + 1
        lam = lam._replace(low=Fraction(math.isqrt(2 << 2 * k) + 1, 1 << k))
    return lam


def family_certificate(g: int, tol: Fraction | str | float = DEFAULT_TOL) -> PACertificate:
    """The certificate of ``family_loop(g)`` on the bracket ``family_bracket(g, tol)``."""
    return certify(family_loop(g), tol, bracket=family_bracket(g, tol))


def expected_orbit_trajectory(g: int) -> tuple[str, ...]:
    """Iterates of the best starting side: odd steps land on a_{g-(k+1)/2},
    even steps on a_{2g-(k+2)/2}, ending on the winner a_g after 2g-2 steps."""
    a = default_alphabet(2 * g)
    out = [a[2 * g - 2]]
    for k in range(1, 2 * g - 1):
        if k % 2 == 1:
            out.append(a[g - (k + 1) // 2 - 1])
        else:
            out.append(a[2 * g - (k + 2) // 2 - 1])
    return tuple(out)


class FamilyReport(namedtuple("FamilyReport", "g certificate upper_bound lower_bound checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def family_report(g: int, tol: Fraction | str | float = DEFAULT_TOL) -> FamilyReport:
    """Certify the genus-g loop and verify each closed-form claim about it.

    Check failures are collected per item rather than raised.
    """
    cert = family_certificate(g, tol)
    path = cert.path
    upper = Fraction(1, g - 1)
    lower = Fraction(1, 16 * g - 12)

    stations, names = _stations(path), path.start.alphabet
    checks: dict[str, bool] = {}
    checks["winner_loser_sequence"] = [
        (names[winner], names[loser]) for winner, loser in path.updates
    ] == expected_winner_losers(g)
    checks["intermediate_closed_forms"] = stations == _closed_forms(g)
    checks["block_form"] = cert.matrix == block_matrix(g)
    checks["genus_is_g"] = cert.genus == g
    checks["exact_exponent_at_most_4g_minus_4"] = (
        cert.positive_power is not None and cert.positive_power <= 4 * g - 4
    )
    checks["lambda_low_at_least_sqrt2"] = cert.lam is not None and cert.lam.low**2 >= 2
    checks["lc_upper_is_one_over_g_minus_1"] = cert.lc_upper == upper
    checks["orbit_trajectory_closed_form"] = (
        cert.orbit is not None and cert.orbit.trajectory == expected_orbit_trajectory(g)
    )
    checks["lc_lower_diagonal_cap"] = cert.lc_lower == lower

    return FamilyReport(g=g, certificate=cert, upper_bound=upper, lower_bound=lower, checks=checks)


def central_after_t(n: int, m: int) -> LabeledPermutation:
    """Closed form of m top moves applied to the central permutation,
    0 <= m <= n-1 (both ends give the central permutation back)."""
    bottom = (n - 1,) + tuple(range(m - 1, -1, -1)) + tuple(range(n - 2, m - 1, -1))
    return LabeledPermutation(default_alphabet(n), tuple(range(n)), bottom)


class SampledPath(namedtuple("SampledPath", "family start_display word primitive_exponent"
                             " diagonal_positive power_positive")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "start": self.start_display,
            "word": self.word,
            "primitive_exponent": self.primitive_exponent,
            "diagonal_positive": self.diagonal_positive,
            "power_positive": self.power_positive,
        }


class CentralComponentReport(namedtuple("CentralComponentReport",
                                        "n g component_size lc_lower samples checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _closed_words(diagram, back, start: int, end: int, max_len: int, cycles):
    """Words over {t, b}, as tuples of move indices, of length 1..max_len
    leading from vertex ``start`` to vertex ``end`` on which every cycle of
    the relabeling (``cycles``, each letter's cycle number and their count,
    from ``perm._cycles``) both wins and loses, in order of length then
    lexicographic (t < b).

    ``reach[k]`` maps a vertex v to two sets of cycles, one bit per cycle:
    those that some walk of exactly k moves from v to ``end`` wins, and
    those that some such walk loses; v is absent when no such walk exists.
    Only vertices that a word of at most ``max_len`` moves can pass are
    kept: v enters ``reach[k]`` only when its distance from ``start`` plus
    k is at most ``max_len`` (distances from two breadth-first searches,
    backwards along the inverse tables ``back`` from ``end`` and then
    forwards from ``start`` inside that bound).  Level k is built from
    level k - 1 when the length loop first reaches k.

    Each length L is one depth-first search in t, b order, run only when
    ``reach[L][start]`` wins and loses every cycle.  A prefix with k moves
    left is dropped when its vertex is absent from ``reach[k]``, or when
    the cycles it has won (lost) together with those ``reach[k]`` can still
    win (lose) are not all of them.  No completion of a dropped prefix is a
    word, so the words and their order are those of the unpruned search
    filtered by the cycle rule.
    """
    step, winner, loser = diagram.succ, diagram.winner, diagram.loser
    far = max_len + 1
    to_end = [far] * len(step[0])
    to_end[end] = 0
    frontier = [end]
    d = 0
    while frontier and d < max_len:
        d += 1
        nxt = []
        for into in back:
            for v in frontier:
                u = into[v]
                if to_end[u] == far:
                    to_end[u] = d
                    nxt.append(u)
        frontier = nxt
    if to_end[start] > max_len:
        return
    # room[v] is the most moves a word can have left on reaching v.
    room = {start: max_len}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            moves_left = room[u] - 1
            for table in step:
                v = table[u]
                if v not in room and to_end[v] <= moves_left:
                    room[v] = moves_left
                    nxt.append(v)
        frontier = nxt
    labels, count = cycles
    bit = [1 << c for c in labels]
    full = (1 << count) - 1
    reach = [{end: (0, 0)}]
    # moves[d] is the move last tried at depth d (-1 before the first);
    # states[d] is the vertex it leaves from, won[d] and lost[d] the cycles
    # won and lost before it.
    moves = [0] * max_len
    states = [start] * max_len
    won, lost = [0] * max_len, [0] * max_len
    for length in range(1, max_len + 1):
        last, level = reach[-1], {}
        for into in back:
            for u in last:
                v = into[u]
                if v in level or room.get(v, -1) < length:
                    continue
                w = l = 0
                for move, table in enumerate(step):
                    masks = last.get(table[v])
                    if masks is not None:
                        w |= masks[0] | bit[winner[move][v]]
                        l |= masks[1] | bit[loser[move][v]]
                level[v] = (w, l)
        if not level:
            return
        reach.append(level)
        if level.get(start) != (full, full):
            continue
        depth = 0
        moves[0] = -1
        while depth >= 0:
            move = moves[depth] + 1
            if move == 2:
                depth -= 1
                continue
            moves[depth] = move
            vertex = states[depth]
            state = step[move][vertex]
            left = length - depth - 1
            masks = reach[left].get(state)
            if masks is None:
                continue
            w = won[depth] | bit[winner[move][vertex]]
            l = lost[depth] | bit[loser[move][vertex]]
            if w | masks[0] != full or l | masks[1] != full:
                continue
            if left == 0:
                yield tuple(moves[:length])
            else:
                states[depth + 1] = state
                won[depth + 1], lost[depth + 1] = w, l
                depth += 1
                moves[depth] = -1


def _word_text(word) -> str:
    return "".join("tb"[move] for move in word)


def _nearest(step, back, src: int, is_target) -> tuple[int, list[int]]:
    """The lowest-index vertex satisfying ``is_target`` among those nearest
    to ``src``, and the moves of its path in the breadth-first tree that
    tries t before b; ``via[v]`` is the move into v, from ``back[via[v]][v]``."""
    via = {src: -1}
    layer = [src]
    while layer:
        hits = [v for v in layer if is_target(v)]
        if hits:
            v = target = min(hits)
            word = []
            while v != src:
                word.append(via[v])
                v = back[word[-1]][v]
            return target, word[::-1]
        nxt = []
        for u in layer:
            for move in (0, 1):
                v = step[move][u]
                if v not in via:
                    via[v] = move
                    nxt.append(v)
        layer = nxt
    raise RuntimeError("no target reachable from vertex %d" % src)


def _cover_loop(step, back, winner, base: int, letter_order) -> tuple[int, ...]:
    """A closed loop at ``base`` on which every letter wins at least once.

    Greedily walks to the nearest edge winning each still-uncovered letter
    (in the given order; ties go to the lowest vertex index, then t before
    b) and returns to base.  From n = 5 on no closed loop of length up to
    2n at the central vertex wins and loses every letter, so this is the
    workhorse behind primitive samples.
    """
    word: list[int] = []
    current = base
    covered: set[int] = set()
    for letter in letter_order:
        if letter in covered:
            continue
        vertex, approach = _nearest(
            step, back, current, lambda v, x=letter: x in (winner[0][v], winner[1][v])
        )
        move = 0 if winner[0][vertex] == letter else 1
        word.extend(approach)
        word.append(move)
        for mv in approach:
            covered.add(winner[mv][current])
            current = step[mv][current]
        covered.add(letter)
        current = step[move][vertex]
    word.extend(_nearest(step, back, current, base.__eq__)[1])
    return tuple(word)


# Largest n that central_component_checks accepts: on a 2-vCPU VM n = 20
# (524,287 vertices) takes 3-4 s at 170 MiB, and each further letter about
# doubles both, to 10-17 s at 585 MiB for n = 22 (2,097,151 vertices).
CENTRAL_N_MAX = 22

# Largest loop_len and samples that central_component_checks accepts, timed
# on a 2-vCPU VM.  The closed-word search grows about fourfold per letter
# near the n where closed loops at the central vertex first win every
# letter (3.5n to 4n moves): loop_len 48 with 12 samples takes about 15 s at
# n = 13, its slowest n below 22 (n = 14 takes 21 s at loop_len 52).  Each
# shape-1 sample past the enumerated words is a cover loop, one
# breadth-first search per letter in the whole component: at n = 22, 12
# samples take 18-21 s at 585 MiB (16 took 30 s and 22 took 36 s).
LOOP_LEN_MAX = 48
SAMPLES_MAX = 12


def central_component_checks(
    n: int, loop_len: int | None = None, samples: int = 3
) -> CentralComponentReport:
    """Structural checks on the central component of n letters (n >= 3).

    Samples up to ``samples`` primitive paths from each of the two shapes
    (closed loops; loop-vertex-to-partner paths ending in one flip) and
    verifies the positive diagonal entry and the positivity of the
    (4g+2)-nd matrix power behind the 1/(16g-10) bound.  The bound needs
    genus >= 2, so n = 3 has none.  ``samples`` is at most
    ``SAMPLES_MAX``.  ``loop_len`` (default 2n, 1 to ``LOOP_LEN_MAX``)
    bounds the length of the enumerated candidate words only: the cover
    loops that fill the closed-loop quota may be longer.
    """
    check_range("n", n, 3, CENTRAL_N_MAX)
    check_range("samples", samples, 0, SAMPLES_MAX)
    if loop_len is None:
        loop_len = 2 * n
    check_range("loop_len", loop_len, 1, LOOP_LEN_MAX)
    g = n // 2
    diagram = explore(central(n), cap=2 ** (n - 1) - 1)
    power = 4 * g + 2

    # Distinct vertices have distinct unlabeled permutations.
    checks: dict[str, bool] = {"injective": injectivity_check(diagram)}

    # Closed forms of the loop of top moves, walked on the t table from the
    # seed, vertex 0: walk[m] is the vertex after m top moves.
    pair = diagram.pair
    walk = [0]
    loop_ok = True
    for m in range(1, n):
        walk.append(diagram.succ[0][walk[-1]])
        expected = central_after_t(n, m)
        loop_ok = loop_ok and pair(walk[m]) == (expected.top, expected.bottom)
    checks["central_loop_closed_forms"] = loop_ok and walk[-1] == 0

    # Each flipped loop vertex has exactly one unlabeled partner in the
    # component, namely the m <-> n-m-1 mirror, and the relabeling between
    # the two path endpoints fixes the last letter.  The endpoint and the
    # relabeling of a shape-2 path depend on m only, not on its word.  Only
    # the mirror is compared here: that no other vertex shares its unlabeled
    # permutation is the ``injective`` check.
    partner_ok = True
    corner_ok = True
    flip_paths = []
    for m in range(1, n):
        src, dst = walk[m], walk[n - m - 1]
        flipped = _step(diagram.rows[src], 2)
        partner_ok = partner_ok and _images(flipped[:n], flipped[n:]) == _images(*pair(dst))
        relabel = _relabel(pair(src)[0], _step(diagram.rows[dst], 2)[:n])
        corner_ok = corner_ok and relabel[n - 1] == n - 1
        flip_paths.append((src, dst, relabel, _cycles(relabel)))
    checks["flip_partner_identity"] = partner_ok
    checks["relabel_corner_entry"] = corner_ok

    sampled: list[SampledPath] = []
    step, winner, loser = diagram.succ, diagram.winner, diagram.loser
    # back[move][v] is the one vertex whose move leads to v.  explore closed
    # the seed under t and b, so each table maps the component into itself,
    # one-to-one and so onto: t keeps the top row and puts the loser right
    # after the winner (the top row's last letter) in the bottom row, and
    # moving the letter after the winner back to the end undoes it; b mirrors t.
    back = tuple(map(_invert, step))

    def sample(family: int, src: int, word, relabel) -> bool:
        """Record the path of ``word`` from vertex ``src`` when its matrix is
        primitive.  A shape-2 path ends in a flip, whose diagonal entry of
        interest is the (n, n) one."""
        updates = []
        state = src
        for move in word:
            updates.append((winner[move][state], loser[move][state]))
            state = step[move][state]
        matrix = _column_product(n, updates, relabel)
        exponent = min_positive_power(matrix)
        if exponent is None:
            return False
        diagonal = matrix.diagonal()
        sampled.append(
            SampledPath(
                family=family,
                start_display=LabeledPermutation(diagram.alphabet, *pair(src)).display(),
                word=_word_text(word) + ("f" if family == 2 else ""),
                primitive_exponent=exponent,
                diagonal_positive=min(diagonal if family == 1 else diagonal[-1:]) >= 1,
                # a primitive matrix has no zero row, so every power past the
                # first positive one is positive too
                power_positive=exponent <= power,
            )
        )
        return True

    # Shape 1: closed loops at the central vertex, which is vertex 0.  Short
    # closed loops that win and lose every letter are enumerated first; up
    # to length 2n there are 10 at n = 3, 2 at n = 4 and none for n = 5..20,
    # so deterministic cover loops (one per rotation of the alphabet) fill
    # the remaining quota.  From n = 5 the search's reachability masks rule
    # out the lengths below about 1.4n at its root and cut every branch of
    # the longer ones within a few moves (the first such loop has 2.4n
    # moves at n = 5 and 3.7n at n = 12).
    covers = (
        _cover_loop(step, back, winner, 0, list(range(r, n)) + list(range(r))) for r in range(n)
    )
    identity = tuple(range(n))
    singletons = _cycles(identity)
    words = itertools.chain(_closed_words(diagram, back, 0, 0, loop_len, singletons), covers)
    tried: set[tuple[int, ...]] = set()
    found = 0
    while found < samples and (word := next(words, None)) is not None:
        if word not in tried:
            tried.add(word)
            found += sample(1, 0, word, identity)

    # Shape 2: from a loop vertex to its unlabeled partner, then one flip.
    found = 0
    for src, dst, relabel, cycles in flip_paths:
        if found == samples:
            break
        candidates = _closed_words(diagram, back, src, dst, loop_len, cycles)
        found += any(sample(2, src, word, relabel) for word in candidates)

    checks["family1_samples_found"] = any(s.family == 1 for s in sampled)
    checks["family2_samples_found"] = any(s.family == 2 for s in sampled)
    checks["sampled_diagonal_positive"] = all(s.diagonal_positive for s in sampled)
    checks["sampled_power_positive"] = all(s.power_positive for s in sampled)

    return CentralComponentReport(
        n=n,
        g=g,
        component_size=len(diagram),
        lc_lower=lc_lower_bound(g, power) if g >= 2 else None,
        samples=sampled,
        checks=checks,
    )
