"""Deterministic JSON rendering of exact values.

Rationals are emitted as a truncated decimal string plus the exact
numerator/denominator pair (as strings, since either may exceed 64 bits).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import SpectralBracket

DECIMAL_DIGITS = 12


def decimal_str(x: Fraction) -> str:
    """Decimal rendering truncated toward zero after ``DECIMAL_DIGITS`` places."""
    sign = "-" if x < 0 else ""
    numerator, denominator = abs(x.numerator), x.denominator
    integer, remainder = divmod(numerator, denominator)
    if remainder == 0:
        return "%s%d" % (sign, integer)
    frac = remainder * 10**DECIMAL_DIGITS // denominator
    tail = str(frac).rjust(DECIMAL_DIGITS, "0").rstrip("0")
    return "%s%d.%s" % (sign, integer, tail)


def rational_json(x: Fraction | None) -> dict | None:
    if x is None:
        return None
    x = Fraction(x)
    return {"decimal": decimal_str(x), "num": str(x.numerator), "den": str(x.denominator)}


def bracket_json(b: SpectralBracket | None) -> dict | None:
    if b is None:
        return None
    return {
        "low": rational_json(b.low),
        "high": rational_json(b.high),
        "iterations": b.iterations,
    }
