from fractions import Fraction

from hypothesis import given, strategies as st

from rauzycert.jsonutil import bracket_json, decimal_str, rational_json
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
