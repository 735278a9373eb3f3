import pytest

from rauzycert.errors import PermutationParseError, check_range


class TestCheckRange:
    def test_accepts_both_ends(self):
        for value in (3, 4, 7):
            assert check_range("k", value, 3, 7) is None

    @pytest.mark.parametrize(
        "value, line", [(2, "k must be >= 3, got 2"), (8, "k must be <= 7, got 8")]
    )
    def test_refuses_one_past_each_end(self, value, line):
        with pytest.raises(ValueError) as info:
            check_range("k", value, 3, 7)
        assert type(info.value) is ValueError and str(info.value) == line

    def test_no_upper_limit_without_high(self):
        check_range("k", 10**100, 1)
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            check_range("k", 0, 1)

    def test_error_sets_the_class(self):
        with pytest.raises(PermutationParseError, match="^n must be <= 5, got 6$"):
            check_range("n", 6, 2, 5, PermutationParseError)
