import random
from fractions import Fraction

import pytest
import sympy

from rauzycert.errors import NotPrimitiveError
from rauzycert.linalg import IntMatrix, min_positive_power, min_row_sum
from rauzycert.penner import (
    _geometric_sum,
    _power,
    build,
    DIVERGE_G_MAX,
    diverging_sequence,
    GENUS_MAX,
    homology_power_check,
    lc_upper_rotation,
    power_closed_form,
    stretch_bounds,
    twist_polynomial,
    verify_power_identity,
)

from helpers import berkowitz_charpoly, bisect_largest_root, poly_mul
from test_linalg import block_cyclic, contains_perron_root


def q_sign(g: int, n: int, x: Fraction) -> int:
    """Sign of Q_n at x, evaluated on fractions from its five terms."""
    value = x ** (2 * g) - x ** (g + 1) - (n + 4) * x**g - x ** (g - 1) + 1
    return (value > 0) - (value < 0)


class TestBuild:
    def test_first_block_at_genus_three(self):
        assert build(3, 1).a.rows == ((2, 1, 1), (1, 1, 0), (2, 1, 2))

    def test_top_right_block_is_identity(self):
        m = build(4, 2).m
        assert m.order == 12
        top_right = tuple(tuple(row[9:]) for row in m.rows[:3])
        assert top_right == IntMatrix.identity(3).rows

    def test_b_and_c_blocks_independent_of_n(self):
        assert build(3, 1).b == build(5, 99).b
        assert build(3, 1).c == build(5, 99).c

    def test_coupling_block_identity(self):
        for n in range(1, 101):
            p = build(3, n)
            assert p.d == p.a + p.b * p.c

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build(2, 1)
        with pytest.raises(ValueError):
            build(3, 0)
        with pytest.raises(ValueError, match=r"g <= %d, got %d$" % (GENUS_MAX, GENUS_MAX + 1)):
            build(GENUS_MAX + 1, 5)

    @pytest.mark.parametrize("g", range(3, 9))
    def test_primitive_exactly_when_its_g_th_power_is(self, g):
        # stretch_bounds searches M^g, whose exponent is about g times
        # smaller.  The twist matrices are all primitive, so the identity and
        # the block-cyclic patterns of every period d | 3g (M^g reducible
        # when d | g, block-cyclic again otherwise) run the other branch.
        inputs = [build(g, n).m for n in range(1, 6)] + [IntMatrix.identity(3 * g)]
        inputs += [block_cyclic(3 * g, d) for d in range(2, 3 * g + 1) if 3 * g % d == 0]
        primitive = [min_positive_power(m) is not None for m in inputs]
        assert primitive == [True] * 5 + [False] * (len(inputs) - 5)
        for m, expected in zip(inputs, primitive):
            assert (min_positive_power(_power(m, g)) is not None) == expected

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_zero_pattern_and_exponent_do_not_depend_on_n(self, g):
        # only the n-entries of A_n move with n, and they stay positive, so
        # one primitivity search covers every n
        def pattern(m):
            return [[x != 0 for x in row] for row in m.rows]

        first = build(g, 1).m
        exponent = min_positive_power(first)
        assert exponent is not None
        for n in range(2, 51):
            m = build(g, n).m
            assert pattern(m) == pattern(first)
            assert min_positive_power(m) == exponent


class TestPowerIdentity:
    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100])
    def test_grid(self, g, n):
        p = build(g, n)
        assert verify_power_identity(p, p.m**g)

    def test_closed_form_is_actually_the_power(self):
        assert power_closed_form(build(5, 7)) == build(5, 7).m ** 5

    @pytest.mark.parametrize("g", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("n", [1, 2, 27, 3125])
    def test_sparse_power_is_the_dense_power(self, g, n):
        m = build(g, n).m
        assert _power(m, g) == m**g
        assert _power(m, 1) == m


class TestTwistPolynomial:
    X = sympy.symbols("x")

    def expected_charpoly(self, g, n):
        """(x^g - 1) Q_n(x), highest power first."""
        return poly_mul([1] + [0] * (g - 1) + [-1], twist_polynomial(g, n))

    @pytest.mark.parametrize("g", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("n", [1, 2, 9, 27, 3125])
    def test_factorization_against_sympy(self, g, n):
        charpoly = sympy.Matrix(build(g, n).m.rows).charpoly(self.X).as_expr()
        coeffs = [int(c) for c in sympy.Poly(charpoly, self.X).all_coeffs()]
        assert coeffs == self.expected_charpoly(g, n)

    @pytest.mark.parametrize("g", [10, 16])
    @pytest.mark.parametrize("n", [1, 5, 3125])
    def test_factorization_against_berkowitz(self, g, n):
        assert berkowitz_charpoly(build(g, n).m) == self.expected_charpoly(g, n)

    def test_terms(self):
        # x^6 - x^4 - 9 x^3 - x^2 + 1
        assert twist_polynomial(3, 5) == [1, 0, -1, -9, -1, 0, 1]


class TestStretchBounds:
    def test_min_row_sum_small_case(self):
        assert min_row_sum(build(3, 1).m ** 3) == 2

    def test_min_row_sum_bigger_case(self):
        assert min_row_sum(build(4, 10).m ** 4) == 11

    def test_genus_three_eight_twists(self):
        report = stretch_bounds(build(3, 8))
        assert report.passed
        assert report.rho.low ** 3 >= 9 - Fraction(1, 10**6)

    def test_genus_four_single_twist(self):
        report = stretch_bounds(build(4, 1))
        assert report.passed
        assert report.rho.low ** 4 >= 2 - Fraction(1, 10**6)

    def test_rho_strictly_increasing_in_n(self):
        previous = None
        for n in range(1, 21):
            bracket = stretch_bounds(build(5, n)).rho
            if previous is not None:
                assert bracket.low > previous.high
            previous = bracket

    def test_verdicts_do_not_depend_on_the_tolerance(self):
        # a 1/10-wide bracket does not reach rho^5 >= 1001 on its own, but
        # the minimum row sum of M^5 decides it exactly
        report = stretch_bounds(build(5, 1000), tol=Fraction(1, 10))
        assert report.rho.low ** 5 < 1001 <= report.rho.high ** 5
        assert report.passed

    @pytest.mark.parametrize("tol", [Fraction(1, 10), Fraction(1, 10**9), Fraction(1, 10**30)])
    def test_brackets_rechecked_by_exact_signs(self, tol):
        for g, n in [(3, 1), (3, 300), (3, 10**12), (4, 7), (5, 3125), (6, 20), (12, 5), (40, 2)]:
            rho = stretch_bounds(build(g, n), tol=tol).rho
            assert 1 <= rho.low <= rho.high <= n + 5
            assert rho.high - rho.low <= tol
            assert q_sign(g, n, rho.low) <= 0 <= q_sign(g, n, rho.high)
            low, high = bisect_largest_root(twist_polynomial(g, n), 1, n + 5, tol)
            assert rho.low <= high and low <= rho.high

    @pytest.mark.parametrize("g, n", [(3, 1), (3, 250), (4, 9), (5, 3125)])
    def test_bracket_holds_the_perron_root_of_the_matrix(self, g, n):
        p = build(g, n)
        assert contains_perron_root(p.m, stretch_bounds(p).rho)

    def test_gap_free_at_huge_n(self):
        # the spectral gap closes as n grows; bisection on Q_n does not read it
        for n in (10**12, 10**30):
            report = stretch_bounds(build(3, n))
            assert report.passed
            assert report.rho.high - report.rho.low <= Fraction(1, 10**9)

    def test_iterations_count_the_halvings(self):
        # from [1, n + 5] down to width tol, one halving at a time
        rho = stretch_bounds(build(3, 5), tol=Fraction(1, 8)).rho
        assert rho.iterations == 7 and rho.high - rho.low == Fraction(10 - 1, 2**7)

    def test_rejects_non_primitive_and_bad_tolerance(self):
        p = build(3, 1)
        with pytest.raises(NotPrimitiveError):
            stretch_bounds(p._replace(m=IntMatrix.identity(9)))
        with pytest.raises(ValueError, match="tolerance must be positive"):
            stretch_bounds(p, tol=0)

    def test_power_bracket_starts_at_row_sums(self):
        from rauzycert.linalg import perron_bracket

        m = build(3, 2).m ** 3
        assert perron_bracket(m).low >= min_row_sum(m) == 3


class TestRotationOrbit:
    def test_genus_three(self):
        report = lc_upper_rotation(3)
        assert report.bound == Fraction(1, 2)
        assert report.orbit == ("b1", "b2", "b0")
        assert report.bound.numerator == 1

    def test_genus_seven(self):
        assert lc_upper_rotation(7).bound == Fraction(1, 6)

    def test_disjoint_endpoints_give_unit_numerator(self):
        report = lc_upper_rotation(5)
        assert report.bound.numerator == 1

    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            lc_upper_rotation(2)


class TestHomologyPower:
    def test_power_one_is_base_matrix(self):
        a = IntMatrix.from_rows([[2, 1], [1, 1]])
        assert homology_power_check(a, [3, 4], 1)

    def test_zero_vector_gives_block_diagonal(self):
        a = IntMatrix.from_rows([[2, 1], [1, 1]])
        assert homology_power_check(a, [0, 0], 9)

    def test_hundred_random_instances(self):
        rng = random.Random(0)
        for _ in range(100):
            d = rng.randint(1, 4)
            a = IntMatrix.from_rows(
                [[rng.randint(0, 5) for _ in range(d)] for _ in range(d)]
            )
            b = [rng.randint(0, 5) for _ in range(d)]
            assert homology_power_check(a, b, rng.randint(1, 10))

    def test_rejects_bad_inputs(self):
        a = IntMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            homology_power_check(a, [1], 2)
        with pytest.raises(ValueError):
            homology_power_check(a, [1, 1], 0)

    def test_order_and_entry_caps(self):
        # the largest accepted input at n = 1, then one past each cap
        assert homology_power_check(IntMatrix.from_rows([[10] * 6] * 6), [-10] * 6, 1)
        with pytest.raises(ValueError, match="order must be <= 6"):
            homology_power_check(IntMatrix.from_rows([[1] * 7] * 7), [1] * 7, 1)
        with pytest.raises(ValueError, match="at most 10 in absolute value, got 11"):
            homology_power_check(IntMatrix.from_rows([[1, -11], [0, 1]]), [0, 0], 1)
        with pytest.raises(ValueError, match="at most 10 in absolute value, got 11"):
            homology_power_check(IntMatrix.from_rows([[1, 1], [0, 1]]), [0, 11], 1)

    def test_doubled_sum_matches_explicit_sum(self):
        # every n up to 70 walks each bit pattern of its low bits; orders 1 to 6
        rng = random.Random(7)
        for _ in range(40):
            d = rng.randint(1, 6)
            a = IntMatrix.from_rows([[rng.randint(-10, 10) for _ in range(d)] for _ in range(d)])
            geometric, power = IntMatrix.identity(d), IntMatrix.identity(d)
            for n in range(1, 71):
                power = power * a
                assert _geometric_sum(a, n) == (geometric, power), (a.rows, n)
                geometric = geometric + power


class TestDivergingSequence:
    def test_genus_three(self):
        report = stretch_bounds(diverging_sequence(3))
        assert report.n == 27
        assert report.passed
        assert report.rho.low >= 3
        assert report.rho.log_bounds()[0] >= 1.09  # log 3 ~ 1.0986

    def test_genus_four(self):
        report = stretch_bounds(diverging_sequence(4))
        assert report.n == 256
        assert report.rho.low >= 4

    @pytest.mark.parametrize("g", [6, 7])
    def test_genus_six_and_seven(self, g):
        report = stretch_bounds(diverging_sequence(g))
        assert report.n == g**g
        assert report.passed
        assert report.rho.high - report.rho.low <= Fraction(1, 10**9)

    @pytest.mark.parametrize("g", [4, 5])
    def test_coarse_bracket_still_passes(self, g):
        # halving [1, g^g + 5] down to width 1/10 stops with the low end
        # below g, but the minimum row sum of M^g decides rho^g >= g^g + 1
        # exactly
        report = stretch_bounds(diverging_sequence(g), tol=Fraction(1, 10))
        assert report.rho.low < g
        assert report.passed

    def test_lc_upper_reported(self):
        assert lc_upper_rotation(3).bound == Fraction(1, 2)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            diverging_sequence(9)

    def test_size_cap_is_decided_before_any_power(self):
        # 10^6 to the 10^6 has six million digits: the cap is decided on g
        with pytest.raises(ValueError, match=r"need g <= %d .*, got 1000000$" % DIVERGE_G_MAX):
            diverging_sequence(10**6)

    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            diverging_sequence(2)
