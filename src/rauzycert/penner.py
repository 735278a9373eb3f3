"""Twist-family matrices on a rotationally symmetric genus-g surface.

For g >= 3 the surface carries a rotation of order g and three curves a, b,
c supported in one rotor; composing the rotation with twists (n of them
about b) gives a family of pseudo-Anosov classes whose curve-count matrix
``M_n`` is block-companion of size 3g x 3g.  Its g-th power has a closed
block form whose minimum row sum is n + 1, so the stretch factor grows like
n^(1/g) while the rotation orbit of b keeps the stable curve-graph
translation length at most 1/(g-1).  Choosing n = g^g then sends the
stretch translation length to infinity while the curve-graph length still
tends to zero.  The stretch factor itself is bracketed as the one root above
1 of a closed-form polynomial Q_n of degree 2g (see ``twist_polynomial``).

M_n^g is never dense: ``stretch_bounds`` reads the nonzeros of M_n once and
builds M_n^g from them as sparse rows by left products, which reuse the
rows of the previous power that M_n's shift rows pick (``_power``).  The
closed form is assembled as the same sparse rows and compared row by row,
and the minimum row sum and the primitivity search read those rows too.
The dense 3g x 3g matrix is built once, for ``PennerMatrices.m``.

The final helper checks that powers of [[1, b], [0, A]] keep the
block-triangular shape with top-right row b(I + A + ... + A^(n-1)).  The
identity holds for every square A, row b and n >= 1, so the helper is a
check of the exact matrix arithmetic (acceptance criterion 8), not a
conjugacy invariant.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import compress

from .errors import NotPrimitiveError
from .linalg import DEFAULT_TOL, IntMatrix, _min_positive_power, root_above_one

# Largest genus that build accepts, and so ``penner --genus`` and ``penner
# sweep --gmax``.  The dense and the printed 3g x 3g matrix and the
# primitivity search on M^g (g/2 + 2 steps of 3g bitset rows from g = 10)
# grow with g^2; M^g itself takes g - 1 steps of three row sums.  See the
# README for measured times.  The cap guards runtime and output size, not
# exactness.
GENUS_MAX = 150


def _block_a(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[n + 1, 1, 1], [n, 1, 0], [n + 1, 1, 2]])


_BLOCK_B = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
_BLOCK_C = IntMatrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 1]])


# The 3x3 blocks and the assembled 3g x 3g curve-count matrix ``m``.
PennerMatrices = namedtuple("PennerMatrices", "g n a b c d m")


def _assemble(g: int, blocks: list[tuple[tuple[int, int], IntMatrix]]) -> list[dict[int, int]]:
    """The 3g x 3g sum of nonnegative 3x3 blocks, given as ((block row,
    block column), block) pairs, as sparse rows: row i is {column: entry}
    over its nonzeros."""
    rows = [{} for _ in range(3 * g)]
    for (bi, bj), block in blocks:
        for row, line in zip(rows[3 * bi:3 * bi + 3], block.rows):
            for j, x in enumerate(line, 3 * bj):
                if x:
                    row[j] = row.get(j, 0) + x
    return rows


def build(g: int, n: int) -> PennerMatrices:
    """Blocks and companion matrix of the n-fold twist family at genus g.

    Block row 1 has the identity in the last column; block row 2 carries
    A_n, B_n and C_n; the remaining rows shift the identity.
    """
    if g < 3:
        raise ValueError("twist family needs g >= 3, got %d" % g)
    if g > GENUS_MAX:
        raise ValueError("twist family needs g <= %d, got %d" % (GENUS_MAX, g))
    if n < 1:
        raise ValueError("twist count must be >= 1, got %d" % n)
    a = _block_a(n)
    d = a + _BLOCK_B * _BLOCK_C
    identity = IntMatrix.identity(3)
    blocks = [((0, g - 1), identity), ((1, 0), a), ((1, 1), _BLOCK_B), ((1, g - 1), _BLOCK_C)]
    blocks += [((i, i - 1), identity) for i in range(2, g)]
    dense = [[0] * (3 * g) for _ in range(3 * g)]
    for line, row in zip(dense, _assemble(g, blocks)):
        for j, x in row.items():
            line[j] = x
    m = IntMatrix(tuple(map(tuple, dense)))
    return PennerMatrices(g=g, n=n, a=a, b=_BLOCK_B, c=_BLOCK_C, d=d, m=m)


def power_closed_form(p: PennerMatrices) -> list[dict[int, int]]:
    """The expected block form of the g-th power of the companion matrix,
    as sparse rows (see ``_assemble``).

    Blocks that share a position add up: at g = 3 the ``c * c`` block (and
    c * c = c) lands on ``b * a`` at (1, 2).
    """
    g, a, b, c, d = p.g, p.a, p.b, p.c, p.d
    ba = b * a
    blocks = [
        ((0, 0), a),
        ((0, 1), b),
        ((0, g - 1), c),
        ((1, 0), c * a),
        ((1, 1), d + c * b),
        ((1, 2), ba),
        ((1, g - 1), c * c),
        ((g - 1, 0), ba),
        ((g - 1, g - 2), c),
        ((g - 1, g - 1), d),
    ]
    for i in range(2, g - 1):
        blocks += [((i, i - 1), c), ((i, i), d), ((i, i + 1), ba)]
    return _assemble(g, blocks)


def verify_power_identity(p: PennerMatrices, power: list[dict[int, int]]) -> bool:
    """Exact equality, row by row, of ``power``, the sparse rows of the g-th
    power of ``p.m``, with its block closed form."""
    return power == power_closed_form(p)


class StretchReport(namedtuple("StretchReport", "g n power_min_row_sum rho checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def twist_polynomial(g: int, n: int) -> list[int]:
    """Coefficients, highest power first, of
    Q_n(x) = x^(2g) - x^(g+1) - (n+4) x^g - x^(g-1) + 1.

    The characteristic polynomial of M_n is (x^g - 1) Q_n(x).  Block rows 0
    and 2..g-1 of M_n only shift, so an eigenvector for x has blocks
    v_i = x^-(i-1) v_1, and x != 0 is an eigenvalue exactly when
    det(x^g I - x^(g-1) B - x C - A_n) = 0; that 3 x 3 determinant expands
    to (x^g - 1) Q_n(x).  The tests check the identity against exact
    characteristic polynomials of ``build(g, n).m``.

    Q_n has exactly one root above 1.  Q_n(x) / x^g = h(x) with
    h(x) = x^g + x^-g - x - x^-1 - (n+4).  For x > 1,
    h'(x) = g (x^(g-1) - x^(-g-1)) - (1 - x^-2) >= (g^2 - 1)(1 - x^-2) > 0,
    since g (x^(g-1) - x^(-g-1)) = g (x^2 - 1) * sum_{k<g} x^(2k-g-1) and the
    terms of that sum pair off (k with g-1-k) into sums of at least 2 x^-2.
    With h(1) = -(n+4) < 0 and h growing without bound, Q_n < 0 on (1, root)
    and Q_n > 0 past it.
    """
    coeffs = [0] * (2 * g + 1)
    coeffs[0] = coeffs[2 * g] = 1
    coeffs[g - 1] = coeffs[g + 1] = -1
    coeffs[g] = -(n + 4)
    return coeffs


def _power(rows: list[dict[int, int]], exponent: int) -> list[dict[int, int]]:
    """Sparse rows of M**exponent (exponent >= 1) from those of M, by left
    products M^(p+1) = M * M^p.  A row of M whose only nonzero is a 1 at
    column j makes row j of M^p, the same dict, not a copy; any other row
    sums x * (row j of M^p) over its nonzeros x at columns j.  Every row of
    M_n but the three of block row 1 is such a pick, so a step costs those
    three sums and one list of references."""
    sums = [(i, row) for i, row in enumerate(rows) if list(row.values()) != [1]]
    picks = [min(row, default=0) for row in rows]  # a summed row's pick is overwritten
    power = rows
    for _ in range(exponent - 1):
        product = list(map(power.__getitem__, picks))
        for i, row in sums:
            acc: dict[int, int] = {}
            for j, x in row.items():
                for k, y in power[j].items():
                    acc[k] = acc.get(k, 0) + x * y
            product[i] = acc
        power = product
    return power


def stretch_bounds(p: PennerMatrices, tol: Fraction | str | float = DEFAULT_TOL) -> StretchReport:
    """Bracket the stretch factor and check it is at least (n+1)^(1/g).

    The g-th power's minimum row sum is checked to be exactly n + 1.  By
    Collatz-Wielandt rho^g is at least that sum, so the check decides
    rho^g >= n + 1 exactly, whatever the bracket's width.

    The bracket is ``root_above_one`` on Q_n (``twist_polynomial``): exact
    bisection on its sign from 1, where Q_n(1) = -(n+4) < 0, to Cauchy's
    bound 1 + max|coefficient| = n + 5.  rho is that root of Q_n: rho
    is an eigenvalue of the nonnegative M_n (Perron-Frobenius), so a root
    of (x^g - 1) Q_n(x); it is above 1, as rho^g >= n + 1 >= 2 by the
    minimum-row-sum check, while the roots of x^g - 1 lie on the unit
    circle; and Q_n has only one root above 1.  Non-primitive input is
    rejected before any report.  The search runs on M^g, whose exponent is
    about g times smaller: M^g is primitive exactly when M is, since
    (M^g)^k = M^(gk), and if M^q is full then M has no zero row, so every
    later power of M, M^(gq) among them, is full too.
    """
    rho = root_above_one(twist_polynomial(p.g, p.n), tol)
    columns = range(p.m.order)
    power = _power([{j: line[j] for j in compress(columns, line)} for line in p.m.rows], p.g)
    if _min_positive_power([list(row) for row in power]) is None:
        raise NotPrimitiveError("twist matrix is not primitive")
    mrs = min(map(sum, map(dict.values, power)))
    checks = {
        "power_identity": verify_power_identity(p, power),
        "min_row_sum_is_n_plus_1": mrs == p.n + 1,
    }
    return StretchReport(g=p.g, n=p.n, power_min_row_sum=mrs, rho=rho, checks=checks)


RotationOrbitReport = namedtuple("RotationOrbitReport", "g bound orbit")


def lc_upper_rotation(g: int) -> RotationOrbitReport:
    """Translation-length upper bound 1/(g-1) from the rotation orbit of b.

    The curve b_1 avoids the twisted triple, so the map just rotates it:
    b_1 -> b_2 -> ... -> b_0 in g-1 steps, and b_0 is disjoint from b_1,
    giving distance 1 after g-1 iterates.  Both disjointness facts (every
    rotor other than rotor 0 avoids the twisted triple; distinct b curves
    are disjoint) are asserted inputs read off the rotor picture, not
    derived here.
    """
    if g < 3:
        raise ValueError("rotation orbit needs g >= 3, got %d" % g)
    return RotationOrbitReport(
        g=g,
        bound=Fraction(1, g - 1),
        orbit=tuple("b%d" % (i % g) for i in range(1, g + 1)),
    )


# Largest power, matrix order and absolute entry (of A and of b) that
# homology_power_check accepts.  Entries of A^n grow like rho(A)^n, so at
# n = 10^4 the cost of one call grows with the order and the entries:
# 1.4 ms for [[1,1],[1,1]], 0.06-0.07 s for a 4 x 4 matrix of 5s and
# 0.56-0.63 s for the largest accepted input, a 6 x 6 matrix and a vector
# of 10s (or of -10s), on a 2-vCPU VM.
HOMOLOGY_N_MAX = 10**4
HOMOLOGY_DIM_MAX = 6
HOMOLOGY_ENTRY_MAX = 10


def _geometric_sum(a: IntMatrix, n: int) -> tuple[IntMatrix, IntMatrix]:
    """G_n = I + A + ... + A^(n-1) and A^n (n >= 1), by doubling on the bits
    of n from the top: G_2k = G_k + A^k G_k and G_(k+1) = G_k + A^k, so
    O(log n) products in place of n - 1."""
    geometric, power = IntMatrix.identity(a.order), a  # G_1, A^1
    for bit in bin(n)[3:]:
        geometric, power = geometric + power * geometric, power * power
        if bit == "1":
            geometric, power = geometric + power, power * a
    return geometric, power


def homology_power_check(a: IntMatrix, b, n: int) -> bool:
    """Exact check of [[1, b], [0, A]]^n == [[1, b(I + A + ... + A^(n-1))], [0, A^n]]."""
    if n < 1:
        raise ValueError("power must be >= 1, got %d" % n)
    if n > HOMOLOGY_N_MAX:
        raise ValueError("power must be <= %d, got %d" % (HOMOLOGY_N_MAX, n))
    d = a.order
    b = tuple(int(x) for x in b)
    if len(b) != d:
        raise ValueError("row vector length %d != matrix order %d" % (len(b), d))
    if d > HOMOLOGY_DIM_MAX:
        raise ValueError("matrix order must be <= %d, got %d" % (HOMOLOGY_DIM_MAX, d))
    largest = max(map(abs, b + sum(a.rows, ())))
    if largest > HOMOLOGY_ENTRY_MAX:
        raise ValueError(
            "entries must be at most %d in absolute value, got %d" % (HOMOLOGY_ENTRY_MAX, largest)
        )
    block = IntMatrix.from_rows(
        [[1] + list(b)] + [[0] + list(row) for row in a.rows]
    )
    lhs = block**n
    geometric, a_n = _geometric_sum(a, n)
    top_right = [sum(b[k] * geometric.rows[k][j] for k in range(d)) for j in range(d)]
    rhs = IntMatrix.from_rows(
        [[1] + top_right] + [[0] + list(row) for row in a_n.rows]
    )
    return lhs == rhs


# Largest genus that diverging_sequence accepts: the twist count n = g^g
# stays <= 10^8 exactly for g <= 8 (8^8 = 16,777,216, 9^9 = 387,420,489).
# The cap guards runtime, not exactness, and is checked before any power.
DIVERGE_G_MAX = 8


def diverging_sequence(g: int) -> PennerMatrices:
    """The n = g^g member, whose stretch translation length is at least log g
    while the curve-graph bound stays 1/(g-1).

    Its ``stretch_bounds`` report decides rho > g exactly: the minimum row
    sum of M^g is n + 1 = g^g + 1, and by Collatz-Wielandt rho^g is at
    least that sum.
    """
    if g < 3:
        raise ValueError("sequence needs g >= 3, got %d" % g)
    if g > DIVERGE_G_MAX:
        raise ValueError("need g <= %d (n = g^g is capped at 10^8), got %d" % (DIVERGE_G_MAX, g))
    return build(g, g**g)
