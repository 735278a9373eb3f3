"""Deterministic JSON rendering of exact values, and the indent-2 writer.

Rationals are emitted as a truncated decimal string plus the exact
numerator/denominator pair (as strings, since either may exceed 64 bits).
``dumps`` writes a document as ``json.dumps(obj, indent=2)`` does, with
``_json_list`` the layout of one list or object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .linalg import SpectralBracket, decimal_text

DECIMAL_DIGITS = 12


def _json_list(body: str, indent: str, brackets: str = "[]") -> list[str]:
    """The pieces of a list, or of an object when ``brackets`` is "{}",
    whose items, joined by ",\\n", make ``body``, laid out as
    ``json.dumps(..., indent=2)`` lays it out."""
    return [brackets[0] + "\n", body, "\n" + indent + brackets[1]] if body else [brackets]


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# The encoder of each scalar type, as json.dumps writes it.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: _float,
}


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with str keys,
    lists, tuples, str, int, bool, None and float; TypeError on anything
    else, a non-str key included."""
    return _encode(obj, "")


def _encode(obj, indent: str) -> str:
    kind = obj.__class__
    if kind in _SCALARS:
        return _SCALARS[kind](obj)
    inner = indent + "  "
    if kind is dict:
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in obj.items()]
    elif kind is list or kind is tuple:
        kinds = set(map(type, obj))
        if len(kinds) == 1 and kinds <= _SCALARS.keys():
            # one join for a list of one scalar type: a matrix row, an index row
            items = map(_SCALARS[kinds.pop()], obj)
        else:
            items = [_encode(item, inner) for item in obj]
    else:
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)
    body = inner + (",\n" + inner).join(items) if obj else ""
    return "".join(_json_list(body, indent, "{}" if kind is dict else "[]"))


def decimal_str(x: Fraction) -> str:
    """Decimal rendering truncated toward zero after ``DECIMAL_DIGITS`` places."""
    sign = "-" if x < 0 else ""
    numerator, denominator = abs(x.numerator), x.denominator
    integer, remainder = divmod(numerator, denominator)
    if remainder == 0:
        return sign + decimal_text(integer)
    frac = remainder * 10**DECIMAL_DIGITS // denominator
    tail = str(frac).rjust(DECIMAL_DIGITS, "0").rstrip("0")
    return "%s%s.%s" % (sign, decimal_text(integer), tail)


def rational_json(x: Fraction | None) -> dict | None:
    if x is None:
        return None
    x = Fraction(x)
    num, den = decimal_text(x.numerator), decimal_text(x.denominator)
    return {"decimal": decimal_str(x), "num": num, "den": den}


def bracket_json(b: SpectralBracket | None) -> dict | None:
    if b is None:
        return None
    return {
        "low": rational_json(b.low),
        "high": rational_json(b.high),
        "iterations": b.iterations,
    }
