import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rauzycert.jsonutil import bracket_json, decimal_str, dumps, rational_json
from rauzycert.linalg import SpectralBracket


class TestDecimalStr:
    def test_integer(self):
        assert decimal_str(Fraction(7)) == "7"

    def test_terminating(self):
        assert decimal_str(Fraction(1, 4)) == "0.25"
        assert decimal_str(Fraction(1, 20)) == "0.05"

    def test_truncation(self):
        assert decimal_str(Fraction(1, 3)) == "0.333333333333"
        assert decimal_str(Fraction(2, 3)) == "0.666666666666"

    def test_negative(self):
        assert decimal_str(Fraction(-1, 8)) == "-0.125"

    def test_huge_values(self):
        assert decimal_str(Fraction(10**30)) == str(10**30)
        # past the 4,300 digits that str() writes by default
        assert decimal_str(Fraction(10**5000)) == "1" + "0" * 5000
        assert decimal_str(Fraction(-(10**5000) - 1, 2)) == "-5" + "0" * 4999 + ".5"
        assert rational_json(Fraction(10**5000, 3))["num"] == "1" + "0" * 5000


class TestRationalJson:
    @given(st.fractions())
    def test_roundtrip(self, x):
        data = rational_json(x)
        assert Fraction(int(data["num"]), int(data["den"])) == x

    def test_none_passthrough(self):
        assert rational_json(None) is None

    def test_shape(self):
        assert rational_json(Fraction(1, 20)) == {
            "decimal": "0.05",
            "num": "1",
            "den": "20",
        }


class TestBracketJson:
    def test_roundtrip(self):
        bracket = SpectralBracket(Fraction(3, 2), Fraction(8, 5), 12)
        data = bracket_json(bracket)
        low, high = (Fraction(int(data[k]["num"]), int(data[k]["den"])) for k in ("low", "high"))
        assert SpectralBracket(low, high, data["iterations"]) == bracket

    def test_none_passthrough(self):
        assert bracket_json(None) is None


# Every scalar the CLI emits, with the edge cases of the stdlib encoder:
# quotes, control characters and non-ASCII in strings, ints past 64 bits,
# bools (an int subclass written as true/false), and non-finite floats.
SCALARS = (
    st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀 '))
    | st.text()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.sampled_from((10**40, -(10**40), 2**64, -(2**63)))
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from((math.inf, -math.inf, math.nan, -0.0, 1e308, 5e-324))
)
DOCUMENTS = st.recursive(
    SCALARS
    | st.lists(st.text(), max_size=5)  # one-join lists of one scalar type, or empty
    | st.lists(st.integers(min_value=-(2**80), max_value=2**80), max_size=5),
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=5)
    ),
    max_leaves=30,
)


class TestDumps:
    @given(DOCUMENTS)
    def test_matches_stdlib_indent_2(self, document):
        assert dumps(document) == json.dumps(document, indent=2)

    @pytest.mark.parametrize(
        "document",
        [
            [],
            {},
            (),
            [[], {}, ()],
            ["a", 1],
            [1, "a", True],
            [True, False],
            [1, True],
            [1.5, 2],
            {"k": [float("nan"), float("inf"), float("-inf"), -0.0]},
            ["\u2028", "\ud800", 'q"uote', "back\\slash"],
            [10**100, -(10**100)],
        ],
    )
    def test_matches_stdlib_on_mixed_lists(self, document):
        assert dumps(document) == json.dumps(document, indent=2)

    @pytest.mark.parametrize(
        "document",
        [{1, 2}, {1: "a"}, {"a": {None: 1}}, [{"a": frozenset()}], Fraction(1, 2), b"x"],
    )
    def test_rejects_other_types(self, document):
        with pytest.raises(TypeError):
            dumps(document)
