"""Exact integer matrices, path matrices, primitivity and spectral brackets.

Everything here is exact: matrices hold arbitrary-precision integers (path
matrix entries grow like a power of the stretch factor and overflow any
fixed width quickly), and spectral radii are reported as rational brackets
rather than as floats: certified by the Collatz-Wielandt inequality, or by
exact bisection on the sign of a polynomial whose root the caller has shown
to be the spectral radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce
from operator import itemgetter, or_
from typing import TYPE_CHECKING

from .errors import ConvergenceError, NotAllowedError, NotPrimitiveError

if TYPE_CHECKING:  # pragma: no cover
    from .diagram import AllowedPath

# Width of a spectral bracket when the caller asks for none.
DEFAULT_TOL = Fraction(1, 10**9)


@dataclass(frozen=True)
class IntMatrix:
    """A square matrix of Python ints, row-major."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0 or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and non-empty")

    @property
    def order(self) -> int:
        return len(self.rows)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.order != other.order:
            raise ValueError("order mismatch")
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.order != other.order:
            raise ValueError("order mismatch")
        cols = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows
            )
        )

    def __pow__(self, exponent: int) -> "IntMatrix":
        if exponent < 0:
            raise ValueError("negative power")
        result = IntMatrix.identity(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def is_nonnegative(self) -> bool:
        return min(map(min, self.rows)) >= 0

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(self.order))

    def to_json(self) -> list[list[str]]:
        """Row-major nested lists of decimal strings (entries may exceed 64 bits)."""
        return [[decimal_text(x) for x in row] for row in self.rows]


def decimal_text(x: int) -> str:
    """str(x) at any size: past the interpreter's digit limit for str()
    (4,300 by default from CPython 3.10.7), through the exact Decimal."""
    try:
        return str(x)
    except ValueError:
        return str(Decimal(x))


def min_row_sum(m: IntMatrix) -> int:
    """Minimum over rows of the entry sum; a Collatz-Wielandt lower bound for
    the spectral radius of a nonnegative matrix."""
    return min(sum(row) for row in m.rows)


def _column_product(n: int, updates, relabel: tuple[int, ...]) -> IntMatrix:
    """(Id + E(w1, l1)) ... (Id + E(wk, lk)) P for ``updates`` = ((w1, l1), ...),
    with P the permutation matrix that has a 1 at (relabel[b], b).

    Right-multiplying by Id + E(w, l) adds column w to column l, and by P
    puts column relabel[b] in place b, so the product costs O(n) additions
    per update instead of a dense n^3 multiply.
    """
    cols = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    for w, l in updates:
        cols[l] = [x + y for x, y in zip(cols[l], cols[w])]
    return IntMatrix(tuple(zip(*(cols[source] for source in relabel))))


def path_matrix(path: "AllowedPath") -> IntMatrix:
    """Product of the moves' matrices Id + E(winner, loser), first move leftmost,
    relabeling last."""
    if not path.allowed:
        raise NotAllowedError("path is not allowed: %s -> %s" % (path.start, path.end))
    return _column_product(path.start.n, path.updates, path.relabel)


def _times(pickers, power: list[int]) -> list[int]:
    """Bitset rows of M * P, from the row pickers of M and the bitset rows
    of P: a one-nonzero row of M picks the row of P at its column, a row
    with several nonzeros ORs the rows its itemgetter picks, a zero row
    (picker None) gives 0."""
    return [
        power[pick] if pick.__class__ is int else reduce(or_, pick(power)) if pick else 0
        for pick in pickers
    ]


def wielandt_bound(n: int) -> int:
    """Largest possible primitivity exponent of an n x n primitive matrix."""
    return (n - 1) ** 2 + 1


def min_positive_power(m: IntMatrix) -> int | None:
    """Smallest p with all entries of m**p positive, or None.

    Works over the boolean semiring, so entries never blow up during the
    search.  It steps through the patterns of M, M^2, ... as bitset rows,
    each M^(p+1) = M * M^p at one OR per nonzero of M (the supports of
    M's rows are found once, see ``_times``), and stops at the
    first of three things: a full power, whose exponent it returns; the
    Wielandt bound (n-1)^2 + 1, the largest exponent a primitive matrix
    can have; or a power equal to the anchor M^(2^k), re-set each time p
    reaches a power of two (Brent's cycle search).  If
    M^q = M^r with r < q, then M^(q+i) = M^(r+i) for every i >= 0, so every
    later power repeats one of M^r .. M^(q-1), which were already found
    not full: no power is ever full.  So a pattern that is never full stops
    at the first repeat of an anchor or at the bound, whichever comes
    first; one whose powers cycle with a period above the bound, such as a
    block of coprime cycles beside an all-ones block, steps all the way to
    the bound.
    """
    if not m.is_nonnegative():
        raise ValueError("primitivity is only defined for nonnegative matrices")
    full = (1 << m.order) - 1
    supports = [[j for j, x in enumerate(row) if x] for row in m.rows]
    pickers = [s[0] if len(s) == 1 else itemgetter(*s) if s else None for s in supports]
    power, anchor = [sum(1 << j for j in s) for s in supports], None
    for p in range(1, wielandt_bound(m.order) + 1):
        if min(power) == full:
            return p
        if power == anchor:
            return None
        if p & (p - 1) == 0:
            anchor = power
        power = _times(pickers, power)
    return None


@dataclass(frozen=True)
class SpectralBracket:
    """Certified rational bracket low <= spectral radius <= high."""

    low: Fraction
    high: Fraction
    iterations: int

    def log_bounds(self) -> tuple[float, float]:
        """Natural-log bracket, e.g. for translation lengths, rounded outward:
        the first float is at most ln(low), the second at least ln(high)."""
        return (_log_fraction(self.low, -math.inf), _log_fraction(self.high, math.inf))


_LOG_DIGITS = 40


def _log_fraction(x: Fraction, toward: float) -> float:
    """ln(x) as a float on the side of ``toward`` (-inf or inf) of the exact value."""
    if x <= 0:
        raise ValueError("log of non-positive bracket endpoint")
    with localcontext() as ctx:
        ctx.prec = _LOG_DIGITS
        value = (Decimal(x.numerator) / Decimal(x.denominator)).ln()
        # The quotient and its log are each correctly rounded, so value is
        # within 10^(1-prec) * (|ln x| + 1.02) / 2 of ln(x).  The bit count
        # exceeds |ln x| + 1, so that is below 10^(1-prec) * bits, and the
        # margin is a hundred times that.
        bits = x.numerator.bit_length() + x.denominator.bit_length()
        margin = bits * Decimal(10) ** (3 - _LOG_DIGITS)
        bound = value + margin if toward > 0 else value - margin
    result = float(bound)  # nearest float: at most one step on the wrong side
    if (Decimal(result) < bound) if toward > 0 else (Decimal(result) > bound):
        result = math.nextafter(result, toward)
    return result


def _poly_sign(coeffs, num: int, den: int) -> int:
    """Sign of the integer polynomial ``coeffs`` (highest power first) at
    num/den, den > 0, read off the integer den^d * p(num/den).

    Horner's rule over the nonzero coefficients only: a run of k zeros
    costs one k-th power of num instead of k products, so the sparse
    closed forms of the two families cost a few big products at any
    degree."""
    acc, den_power, last = 0, 1, 0
    for i, c in enumerate(coeffs):
        if c:
            den_power *= den ** (i - last)
            acc = acc * num ** (i - last) + c * den_power
            last = i
    acc *= num ** (len(coeffs) - 1 - last)
    return (acc > 0) - (acc < 0)


def bisect_root(coeffs, low, high, tol: Fraction | str | float = DEFAULT_TOL) -> SpectralBracket:
    """Bracket a root of the integer polynomial ``coeffs`` (highest power
    first) in [low, high], halving until the width is at most ``tol``.

    Every sign is exact: the polynomial is evaluated at num/den as the
    integer den^d * p(num/den).  It must be at most 0 at ``low`` and at
    least 0 at ``high``; each halving keeps that, so the bracket holds a
    root.  A midpoint that is a root returns the bracket [root, root].
    ``iterations`` counts the halvings.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    low, high = Fraction(low), Fraction(high)
    den = low.denominator * high.denominator
    lo, hi = low.numerator * high.denominator, high.numerator * low.denominator
    if lo > hi or _poly_sign(coeffs, lo, den) > 0 or _poly_sign(coeffs, hi, den) < 0:
        raise ValueError("the polynomial does not change sign from <= 0 to >= 0 on [%s, %s]"
                         % (low, high))
    halvings = 0
    while (hi - lo) * tol.denominator > tol.numerator * den:
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2
        sign = _poly_sign(coeffs, mid, den)
        halvings += 1
        if sign == 0:
            lo = hi = mid
        elif sign < 0:
            lo = mid
        else:
            hi = mid
    return SpectralBracket(Fraction(lo, den), Fraction(hi, den), halvings)


def root_above_one(coeffs, tol: Fraction | str | float = DEFAULT_TOL) -> SpectralBracket:
    """Bracket the root above 1 of the integer polynomial ``coeffs``
    (highest power first) by ``bisect_root`` on [1, 1 + max|c|].

    The caller shows that the polynomial has only one root above 1.  The
    interval holds it: every root is below Cauchy's bound
    1 + max|c_i| / |c_0| <= 1 + max|c|, and past that bound the sign is
    the sign of c_0.  So the polynomial must be at most 0 at 1 and have a
    positive leading coefficient; ``bisect_root`` raises ValueError
    otherwise.
    """
    return bisect_root(coeffs, 1, 1 + max(abs(c) for c in coeffs), tol)


_SHIFT_WARMUP = 48
# Steps after which spectral_radius gives up with ConvergenceError.
_MAX_ITERATIONS = 200_000


def spectral_radius(
    m: IntMatrix,
    tol: Fraction | str | float = DEFAULT_TOL,
    positive_power: int | None = None,
) -> SpectralBracket:
    """Bracket the dominant eigenvalue of a primitive matrix.

    Iterates v <- M v from the all-ones vector; at each step the quotients
    (Mv)_i / v_i of the current positive integer vector bracket the spectral
    radius (Collatz-Wielandt), and for a primitive matrix the bracket
    tightens to any tolerance.  Non-primitive input is rejected up front:
    its bracket need not tighten at all.  ``positive_power``, when given,
    is a primitivity exponent of ``m`` already found by min_positive_power,
    and the search is not repeated.

    The quotients bracket the radius for *any* positive vector, so the
    iterate is kept short: after each step one right shift truncates it so
    that its smallest entry keeps 2 * bitlen(ceil(1/tol)) + 64 bits, plus
    the bits of the largest row sum (an upper bound on the radius).  Every
    quotient is then known to far better than ``tol``, so the bracket
    cannot stall on precision, and the precision only sets how fast the
    bracket shrinks, never whether it is valid.  Quotients are compared by
    integer cross-multiplication; fractions are built only for the returned
    bracket.

    After a short warmup the iteration switches to M + s*I with s the floor
    of the best lower bound so far, still reporting quotients of M itself.
    The shift keeps the Perron vector and pushes complex subdominant
    eigenvalues off the dominant ray, which otherwise make the quotients
    converge arbitrarily slowly on matrices with near-rotational spectrum.
    As s <= rho it never passes the dominant eigenvalue, so it cannot
    flatten the spectral gap the way an overestimated shift would.

    Raises ConvergenceError, carrying the best bracket reached, when the
    bracket is still wider than ``tol`` after ``_MAX_ITERATIONS`` steps.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if positive_power is None and min_positive_power(m) is None:
        raise NotPrimitiveError("matrix is not primitive; spectral bracket may not tighten")
    n = m.order
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in m.rows]
    # Truncating v changes a quotient by about rho * 2^-(precision-2); the
    # largest row sum bounds rho, so its bits keep that error below tol^2.
    precision = (
        2 * (-(-tol.denominator // tol.numerator)).bit_length()
        + 64
        + max(sum(row) for row in m.rows).bit_length()
    )
    v = [1] * n
    shift = 0
    # Best bracket so far as numerator/denominator pairs.
    low_num, low_den, high_num, high_den = 0, 1, 1, 0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        w = [sum(a * v[j] for j, a in row) for row in rows]
        lo = hi = 0
        for i in range(1, n):
            if w[i] * v[lo] < w[lo] * v[i]:
                lo = i
            elif w[i] * v[hi] > w[hi] * v[i]:
                hi = i
        if w[lo] * low_den > low_num * v[lo]:
            low_num, low_den = w[lo], v[lo]
        if w[hi] * high_den < high_num * v[hi]:
            high_num, high_den = w[hi], v[hi]
        if (high_num * low_den - low_num * high_den) * tol.denominator <= (
            tol.numerator * high_den * low_den
        ):
            return SpectralBracket(
                Fraction(low_num, low_den), Fraction(high_num, high_den), iteration
            )
        if shift:
            w = [x + shift * y for x, y in zip(w, v)]
        excess = min(w).bit_length() - precision
        if excess > 0:
            w = [x >> excess for x in w]
        v = w
        if iteration == _SHIFT_WARMUP:
            shift = low_num // low_den
    best = SpectralBracket(
        Fraction(low_num, low_den), Fraction(high_num, high_den), _MAX_ITERATIONS
    )
    raise ConvergenceError(
        "spectral bracket did not reach width %s in %d iterations; best bracket [%s, %s]"
        % (tol, _MAX_ITERATIONS, best.low, best.high),
        best,
    )
