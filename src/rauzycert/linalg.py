"""Exact integer matrices, path matrices, primitivity and spectral brackets.

Everything here is exact: matrices hold arbitrary-precision integers (path
matrix entries grow like a power of the stretch factor and overflow any
fixed width quickly), and spectral radii are reported as rational brackets
rather than as floats, each proven by exact signs of a polynomial: by a
witness on the characteristic polynomial (``perron_bracket``), or by
bisection on a polynomial whose root the caller has shown to be the
spectral radius (``bisect_root``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce
from operator import itemgetter, mul, or_

from .errors import NotAllowedError

# Width of a spectral bracket when the caller asks for none.
DEFAULT_TOL = Fraction(1, 10**9)


class IntMatrix(namedtuple("IntMatrix", "rows")):
    """A square matrix of Python ints, row-major: ``rows`` is a tuple of
    int tuples."""

    __slots__ = ()

    def __new__(cls, rows):
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        return tuple.__new__(cls, (rows,))

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


class SpectralBracket(namedtuple("SpectralBracket", "low high iterations")):
    """Certified rational bracket low <= spectral radius <= high (Fractions),
    and the iterations that found it."""

    __slots__ = ()

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


def _poly_value(coeffs, num: int, den: int) -> int:
    """den^d * p(num/den) for the integer polynomial p = ``coeffs`` (highest
    power first) of degree d and den > 0, by Horner's rule over the nonzero
    coefficients only: a run of k zeros costs one k-th power of num instead
    of k products, so the sparse closed forms of the two families cost a
    few big products at any degree."""
    acc, den_power, last = 0, 1, 0
    for i, c in enumerate(coeffs):
        if c:
            den_power *= den ** (i - last)
            acc = acc * num ** (i - last) + c * den_power
            last = i
    return acc * num ** (len(coeffs) - 1 - last)


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
    if lo > hi or _poly_value(coeffs, lo, den) > 0 or _poly_value(coeffs, hi, den) < 0:
        raise ValueError("the polynomial does not change sign from <= 0 to >= 0 on [%s, %s]"
                         % (low, high))
    halvings = 0
    while (hi - lo) * tol.denominator > tol.numerator * den:
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2
        value = _poly_value(coeffs, mid, den)
        halvings += 1
        if value == 0:
            lo = hi = mid
        elif value < 0:
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


def charpoly(m: IntMatrix) -> list[int]:
    """det(xI - m), highest power first, by Berkowitz's division-free
    algorithm (Inf. Proc. Letters 18, 1984): the polynomial of each leading
    (k+1) x (k+1) block is the lower-triangular Toeplitz matrix with first
    column (1, -a_kk, -R C, -R A C, ..., -R A^(k-1) C) times that of the
    leading k x k block A, R and C the new row and column."""
    a = m.rows
    poly, lead = [1, -a[0][0]], []  # lead: the rows of A as {column: nonzero}
    for k in range(1, m.order):
        for nonzeros, full in zip(lead, a):
            if full[k - 1]:
                nonzeros[k - 1] = full[k - 1]
        lead.append({j: x for j, x in enumerate(a[k - 1][:k]) if x})
        row, v = a[k][:k], [r[k] for r in a[:k]]
        column = [1, -a[k][k], -sum(map(mul, row, v))]
        for _ in range(k - 1):
            v = [sum(map(mul, r.values(), map(v.__getitem__, r))) for r in lead]
            column.append(-sum(map(mul, row, v)))
        poly = [sum(map(mul, column[i::-1], poly)) for i in range(k + 2)]
    return poly


def _shift_positive(coeffs, x: Fraction) -> bool:
    """Whether p(x + u) has only positive coefficients as a polynomial in u:
    with x = a/b, b^d p((a + v)/b) has the coefficients c_i b^i in powers
    of a + v, and each Horner pass of the Taylor shift by a fixes one."""
    a, shifted = x.numerator, [c * x.denominator**i for i, c in enumerate(coeffs)]
    for end in range(len(shifted), 1, -1):
        acc = 0
        shifted = [acc := acc * a + c for c in shifted[:end]]
        if acc <= 0:
            return False
    return shifted[0] > 0


def perron_witness(chi, low: Fraction, high: Fraction) -> bool:
    """Whether chi(low) < 0 and chi(high + u) has only positive coefficients,
    which proves low < rho < high for chi = det(xI - M) and the spectral
    radius rho of a nonnegative M: the monic chi has a real root above low
    and none at or above high, and rho is its largest (Perron-Frobenius)."""
    return _poly_value(chi, low.numerator, low.denominator) < 0 and _shift_positive(chi, high)


def _float_seed(chi, top: int) -> Fraction:
    """Float Newton on chi from ``top`` >= rho, its largest real root, up to
    a step outside (2^-45 y, y), raised by 2^-20.  With x = y 2^bitlen(top),
    the step is y sum c_i x^-i / sum (d - i) c_i x^-i, by Horner's rule in
    1/y; each term is at most binomial(d, i) for x >= rho, so none overflows."""
    e = top.bit_length()
    scaled, y = [c / (1 << (e * i)) for i, c in enumerate(chi)][::-1], top / (1 << e)
    while True:
        value = slope = 0.0
        for i, c in enumerate(scaled):
            value, slope = value / y + c, slope / y + i * c
        if not (slope > 0 and 2.0**-45 < value / slope < 1):
            return Fraction(y + y * 2.0**-20) * (1 << e)
        y -= y * value / slope


def perron_bracket(m: IntMatrix, tol: Fraction | str | float = DEFAULT_TOL) -> SpectralBracket:
    """Bracket the spectral radius rho of a primitive matrix to width ``tol``.

    Newton on chi = ``charpoly(m)`` steps down to rho from above: for
    x > rho, chi'/chi(x) sums 1/(x - r) over the roots r, each of positive
    real part and modulus at most 1/(x - rho), so delta = chi/chi'(x) puts
    rho in [x - d delta, x - delta].  The steps are rounded up to a grid
    2^-b that starts 64 bits below the start point, at most tol / (2d + 2),
    and doubles its bits when the next point is no lower.  The start is
    ``_float_seed`` if chi(seed + u) has only positive coefficients, else
    the least of the largest row and column sums.  A grid where chi(low) < 0
    and the bounds are within ``tol`` ends it, as rho is a simple root, and
    ``perron_witness`` must then prove the bracket (RuntimeError, a fault
    here, if not).  ``iterations`` counts the Newton steps."""
    tol = min(Fraction(tol), Fraction(1, 2))  # rho >= 1, so the low end stays positive
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    chi, d = charpoly(m), m.order
    slope = [c * (d - i) for i, c in enumerate(chi[:-1])]
    top = min(max(map(sum, m.rows)), max(map(sum, zip(*m.rows))))
    seed = _float_seed(chi, top)
    start = seed if _shift_positive(chi, seed) else Fraction(top)
    need = ((2 * (d + 1) * tol.denominator - 1) // tol.numerator).bit_length()
    bits = min(need, 64 - int(start).bit_length())
    high, steps = math.ceil(start * Fraction(2) ** bits), 0
    while True:
        lift, den = max(-bits, 0), 1 << max(bits, 0)
        value = _poly_value(chi, high << lift, den)
        divisor = _poly_value(slope, high << lift, den) << lift
        whole, part = divmod(value, divisor)  # delta is whole + part / divisor grid steps
        low, step_to = high - 1 - d * whole - d * part // divisor, high + 1 - whole - (part > 0)
        wide = (step_to - low) * tol.denominator > tol.numerator * den
        if not wide and _poly_value(chi, low, den) < 0:
            break
        if step_to < high:
            high, steps = step_to, steps + 1
        else:
            high, bits = high << high.bit_length(), bits + high.bit_length()
    bracket = SpectralBracket(Fraction(low, den), Fraction(step_to, den), steps)
    if not perron_witness(chi, bracket.low, bracket.high):
        raise RuntimeError("internal error: no witness for [%s, %s]" % (bracket.low, bracket.high))
    return bracket
