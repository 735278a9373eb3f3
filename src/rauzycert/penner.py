"""Twist-family matrices on a rotationally symmetric genus-g surface.

For g >= 3 the surface carries a rotation of order g and three curves a, b,
c supported in one rotor; composing the rotation with twists (n of them
about b) gives a family of pseudo-Anosov classes whose curve-count matrix
``M_n`` is block-companion of size 3g x 3g.  Its g-th power has a closed
block form whose minimum row sum is n + 1, so the stretch factor grows like
n^(1/g) while the rotation orbit of b keeps the stable curve-graph
translation length at most 1/(g-1).  Choosing n = g^g then sends the
stretch translation length to infinity while the curve-graph length still
tends to zero.

The final helper checks the homology block identity used to separate
conjugacy classes: powers of [[1, b], [0, A]] keep the block-triangular
shape with top-right row b(I + A + ... + A^(n-1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import IntMatrix, SpectralBracket, min_row_sum, spectral_radius


def _block_a(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[n + 1, 1, 1], [n, 1, 0], [n + 1, 1, 2]])


_BLOCK_B = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
_BLOCK_C = IntMatrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 1]])


@dataclass
class PennerMatrices:
    """The 3x3 blocks and the assembled 3g x 3g curve-count matrix."""

    g: int
    n: int
    a: IntMatrix
    b: IntMatrix
    c: IntMatrix
    d: IntMatrix
    m: IntMatrix


def _assemble(g: int, blocks: dict[tuple[int, int], IntMatrix]) -> IntMatrix:
    """Place 3x3 blocks into a 3g x 3g matrix; absent blocks are zero."""
    size = 3 * g
    rows = [[0] * size for _ in range(size)]
    for (bi, bj), block in blocks.items():
        for i in range(3):
            for j in range(3):
                rows[3 * bi + i][3 * bj + j] = block.rows[i][j]
    return IntMatrix.from_rows(rows)


def build(g: int, n: int) -> PennerMatrices:
    """Blocks and companion matrix of the n-fold twist family at genus g.

    Block row 1 has the identity in the last column; block row 2 carries
    A_n, B_n and C_n; the remaining rows shift the identity.
    """
    if g < 3:
        raise ValueError("twist family needs g >= 3, got %d" % g)
    if n < 1:
        raise ValueError("twist count must be >= 1, got %d" % n)
    a = _block_a(n)
    d = a + _BLOCK_B * _BLOCK_C
    identity = IntMatrix.identity(3)
    blocks: dict[tuple[int, int], IntMatrix] = {
        (0, g - 1): identity,
        (1, 0): a,
        (1, 1): _BLOCK_B,
        (1, g - 1): _BLOCK_C,
    }
    for i in range(2, g):
        blocks[(i, i - 1)] = identity
    return PennerMatrices(g=g, n=n, a=a, b=_BLOCK_B, c=_BLOCK_C, d=d, m=_assemble(g, blocks))


def power_closed_form(g: int, n: int, matrices: PennerMatrices | None = None) -> IntMatrix:
    """The expected block form of the g-th power of the companion matrix.

    ``matrices`` is ``build(g, n)`` when the caller has already built it."""
    p = matrices or build(g, n)
    a, b, c, d = p.a, p.b, p.c, p.d
    if g == 3:
        blocks = {
            (0, 0): a,
            (0, 1): b,
            (0, 2): c,
            (1, 0): c * a,
            (1, 1): d + c * b,
            (1, 2): b * a + c,
            (2, 0): b * a,
            (2, 1): c,
            (2, 2): d,
        }
    else:
        blocks = {
            (0, 0): a,
            (0, 1): b,
            (0, g - 1): c,
            (1, 0): c * a,
            (1, 1): d + c * b,
            (1, 2): b * a,
            (1, g - 1): c * c,
            (g - 1, 0): b * a,
            (g - 1, g - 2): c,
            (g - 1, g - 1): d,
        }
        for i in range(2, g - 1):
            blocks[(i, i - 1)] = c
            blocks[(i, i)] = d
            blocks[(i, i + 1)] = b * a
    return _assemble(g, blocks)


def verify_power_identity(
    g: int, n: int, power: IntMatrix | None = None, matrices: PennerMatrices | None = None
) -> bool:
    """Exact equality of the g-th matrix power with its block closed form.

    ``power`` is that g-th power and ``matrices`` is ``build(g, n)`` when the
    caller has already computed them."""
    matrices = matrices or build(g, n)
    if power is None:
        power = matrices.m ** g
    return power == power_closed_form(g, n, matrices)


@dataclass
class StretchReport:
    g: int
    n: int
    power_min_row_sum: int
    rho: SpectralBracket
    teich_length: tuple[float, float]
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def stretch_bounds(
    g: int,
    n: int,
    tol: Fraction | str | float = Fraction(1, 10**9),
    matrices: PennerMatrices | None = None,
) -> StretchReport:
    """Bracket the stretch factor and check it is at least (n+1)^(1/g).

    The g-th power's minimum row sum is asserted to be exactly n + 1.  By
    Collatz-Wielandt rho^g is at least that sum, so the check on rho^g is
    decided exactly from it, whatever the bracket's width.  ``matrices`` is
    ``build(g, n)`` when the caller has already built it.
    """
    p = matrices or build(g, n)
    rho = spectral_radius(p.m, tol)
    power = p.m**g
    mrs = min_row_sum(power)
    checks = {
        "power_identity": verify_power_identity(g, n, power, p),
        "min_row_sum_is_n_plus_1": mrs == n + 1,
        "rho_power_at_least_n_plus_1": mrs >= n + 1,
    }
    return StretchReport(
        g=g,
        n=n,
        power_min_row_sum=mrs,
        rho=rho,
        teich_length=rho.log_bounds(),
        checks=checks,
    )


@dataclass
class RotationOrbitReport:
    g: int
    bound: Fraction
    orbit: tuple[str, ...]


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


def homology_power_check(a: IntMatrix, b, n: int) -> bool:
    """Exact check of [[1, b], [0, A]]^n == [[1, b(I + A + ... + A^(n-1))], [0, A^n]]."""
    if n < 1:
        raise ValueError("power must be >= 1, got %d" % n)
    d = a.order
    b = tuple(int(x) for x in b)
    if len(b) != d:
        raise ValueError("row vector length %d != matrix order %d" % (len(b), d))
    block = IntMatrix.from_rows(
        [[1] + list(b)] + [[0] + list(row) for row in a.rows]
    )
    lhs = block**n
    geometric = IntMatrix.identity(d)
    power = IntMatrix.identity(d)
    for _ in range(n - 1):
        power = power * a
        geometric = geometric + power
    top_right = [sum(b[k] * geometric.rows[k][j] for k in range(d)) for j in range(d)]
    a_n = power * a
    rhs = IntMatrix.from_rows(
        [[1] + top_right] + [[0] + list(row) for row in a_n.rows]
    )
    return lhs == rhs


@dataclass
class DivergenceReport:
    g: int
    n: int
    rho: SpectralBracket
    teich_low: float
    lc_upper: Fraction
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def diverging_sequence(
    g: int,
    tol: Fraction | str | float = Fraction(1, 10**9),
    n_cap: int = 10**8,
) -> DivergenceReport:
    """The n = g^g member: stretch translation length at least log g while the
    curve-graph bound stays 1/(g-1).  ``n_cap`` guards runtime, not exactness.

    By Collatz-Wielandt rho^g is at least the minimum row sum of M^g, so
    rho >= g is decided exactly from M^g applied to the all-ones vector.
    """
    if g < 3:
        raise ValueError("sequence needs g >= 3, got %d" % g)
    n = g**g
    if n > n_cap:
        raise ValueError("g^g = %d exceeds the size cap %d" % (n, n_cap))
    p = build(g, n)
    rho = spectral_radius(p.m, tol)
    row_sums = [1] * (3 * g)
    for _ in range(g):
        row_sums = [sum(a * x for a, x in zip(row, row_sums)) for row in p.m.rows]
    return DivergenceReport(
        g=g,
        n=n,
        rho=rho,
        teich_low=rho.log_bounds()[0],
        lc_upper=lc_upper_rotation(g).bound,
        checks={"rho_at_least_g": min(row_sums) > n},
    )
