import random
import signal
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings

from rauzycert import linalg, pa
from rauzycert.diagram import AllowedPath, build_path
from rauzycert.errors import NotAllowedError
from rauzycert.fg import family_polynomial
from rauzycert.induction import Move
from rauzycert.linalg import (
    IntMatrix,
    SpectralBracket,
    _poly_value,
    _times,
    bisect_root,
    charpoly,
    min_positive_power,
    path_matrix,
    perron_bracket,
    perron_witness,
    root_above_one,
    wielandt_bound,
)
from rauzycert.penner import twist_polynomial
from rauzycert.perm import LabeledPermutation, central, fg_start, from_rows, parse

from helpers import (
    allowed_paths,
    berkowitz_charpoly,
    bisect_largest_root,
    dense_path_matrix,
    det,
    is_positive,
    linear_min_positive_power,
    min_row_sum,
    random_allowed_paths,
    relabel_matrix,
)

GAMMA2_MATRIX = IntMatrix.from_rows(
    [[0, 1, 0, 0], [1, 0, 2, 1], [1, 0, 0, 0], [0, 0, 1, 1]]
)


def gamma(g):
    return build_path(fg_start(g), "ftb^%d" % g)


class TestIntMatrix:
    def test_identity_multiplication(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m * IntMatrix.identity(2) == m
        assert IntMatrix.identity(2) * m == m

    def test_power(self):
        m = IntMatrix.from_rows([[1, 1], [0, 1]])
        assert (m**5).rows == ((1, 5), (0, 1))
        assert m**0 == IntMatrix.identity(2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_json_roundtrip_with_huge_entries(self):
        m = IntMatrix.from_rows([[10**30, 1], [0, 2**100]])
        assert IntMatrix.from_rows(m.to_json()) == m

    def test_determinant_against_oracle(self):
        rng = random.Random(3)
        for _ in range(30):
            d = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            assert det(IntMatrix.from_rows(rows)) == int(sympy.Matrix(rows).det())


class TestRelabelMatrix:
    def test_flip_example(self):
        p = relabel_matrix(parse("A B C / C A B"), parse("B A C / C B A"))
        assert p.rows == ((0, 1, 0), (1, 0, 0), (0, 0, 1))

    def test_identity_when_endpoints_equal(self):
        assert relabel_matrix(central(4), central(4)) == IntMatrix.identity(4)

    def test_family_loop_relabeling(self):
        path = gamma(2)
        p = relabel_matrix(path.start, path.end)
        assert p.rows == ((0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 1))

    def test_rejects_unlabeled_mismatch(self):
        with pytest.raises(NotAllowedError):
            relabel_matrix(parse("A B C / C B A"), parse("A C B / C B A"))


class TestPathRelabelMap:
    """``AllowedPath.relabel`` is the letter map of ``relabel_matrix`` of the
    path's endpoints, and both follow the definition by letter name."""

    @staticmethod
    def read_off(matrix):
        # relabel_matrix has its 1 at (relabel[b], b)
        return tuple(column.index(1) for column in zip(*matrix.rows))

    @staticmethod
    def by_name(start, end):
        # b goes to the letter at b's start top-row position in the end top row
        image = dict(zip(start.top_letters(), end.top_letters()))
        return tuple(start.alphabet.index(image[letter]) for letter in start.alphabet)

    def test_random_paths(self):
        paths = random_allowed_paths(random.Random(5), 100, max_n=7)
        assert any(path.start.top != tuple(range(path.start.n)) for path in paths)
        assert any(path.relabel != tuple(range(path.start.n)) for path in paths)
        for path in paths:
            expected = self.by_name(path.start, path.end)
            assert path.relabel == expected
            assert self.read_off(relabel_matrix(path.start, path.end)) == expected

    def test_alphabets_out_of_name_order(self):
        # rename the letters so that the alphabet is not in name order, and
        # give relabel_matrix the end over the sorted alphabet, so that only
        # the letter names tie its rows to the path's index rows
        rng = random.Random(6)
        for path in random_allowed_paths(rng, 60, max_n=7):
            names = list("ZYXWVUT"[: path.start.n])
            rng.shuffle(names)
            start = LabeledPermutation(tuple(names), path.start.top, path.start.bottom)
            renamed = AllowedPath(start, path.moves)
            end = from_rows(
                tuple(sorted(names)), renamed.end.top_letters(), renamed.end.bottom_letters()
            )
            assert renamed.relabel == path.relabel == self.by_name(start, end)
            assert renamed.relabel == self.read_off(relabel_matrix(start, end))

    def test_not_allowed_path_has_no_map(self):
        assert build_path(central(3), "b").relabel is None


class TestPathMatrix:
    def test_single_flip_gives_relabeling_matrix(self):
        path = build_path(parse("A B C / C A B"), "f")
        assert path_matrix(path) == IntMatrix.from_rows(
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )

    def test_empty_path_gives_identity(self):
        assert path_matrix(AllowedPath(central(3), ())) == IntMatrix.identity(3)

    def test_genus_two_loop(self):
        assert path_matrix(gamma(2)) == GAMMA2_MATRIX

    def test_rejects_not_allowed(self):
        with pytest.raises(NotAllowedError):
            path_matrix(build_path(central(3), "b"))

    def test_unimodular_on_family(self):
        for g in range(2, 7):
            assert abs(det(path_matrix(gamma(g)))) == 1

    def test_closed_loop_concatenation_multiplies(self):
        # two labeled loops at the same vertex compose multiplicatively
        first = AllowedPath(central(3), (Move.BOTTOM, Move.BOTTOM))
        second = AllowedPath(central(3), (Move.TOP, Move.TOP))
        assert first.end == central(3) and second.end == central(3)
        combined = AllowedPath(central(3), first.moves + second.moves)
        assert path_matrix(combined) == path_matrix(first) * path_matrix(second)


class TestColumnUpdatesAgainstDenseProduct:
    @settings(max_examples=150, deadline=None)
    @given(allowed_paths())
    def test_random_allowed_path(self, path):
        assert path_matrix(path) == dense_path_matrix(path)

    def test_corpus_with_flips_and_relabelings(self):
        paths = random_allowed_paths(random.Random(11), 100, max_n=7)
        assert any(Move.FLIP in path.moves for path in paths)
        assert any(path.end != path.start for path in paths)  # a relabeling other than Id
        for path in paths:
            assert path_matrix(path) == dense_path_matrix(path)


def block_cyclic(n: int, d: int) -> IntMatrix:
    """The 0/1 pattern with n/d-blocks, block i sending every row to every
    column of block i + 1 mod d: imprimitive with period d when d > 1."""
    size = n // d
    return IntMatrix.from_rows(
        [[int(j // size == (i // size + 1) % d) for j in range(n)] for i in range(n)]
    )


class TestMinPositivePower:
    def test_identity_never_positive(self):
        assert min_positive_power(IntMatrix.identity(3)) is None

    def test_permutation_matrix_never_positive(self):
        cycle = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert min_positive_power(cycle) is None

    def test_genus_two_loop_exponent(self):
        # frozen value: the boolean cube still has a zero, the fourth power
        # is full (worked out by hand on the 4x4 pattern)
        assert min_positive_power(GAMMA2_MATRIX) == 4

    @pytest.mark.parametrize("g", range(2, 9))
    def test_family_exponent_at_most_4g(self, g):
        assert min_positive_power(path_matrix(gamma(g))) <= 4 * g

    def test_minimality_is_exact(self):
        for m in (GAMMA2_MATRIX, path_matrix(gamma(3))):
            p = min_positive_power(m)
            assert not is_positive(m ** (p - 1))
            assert is_positive(m**p)

    def test_one_by_one(self):
        assert min_positive_power(IntMatrix.from_rows([[2]])) == 1
        assert min_positive_power(IntMatrix.from_rows([[0]])) is None

    def test_wielandt_bound(self):
        assert wielandt_bound(4) == 10
        assert min_positive_power(GAMMA2_MATRIX) <= wielandt_bound(4)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            min_positive_power(IntMatrix.from_rows([[1, -1], [1, 1]]))

    def test_matches_linear_search_on_random_patterns(self):
        rng = random.Random(7)
        patterns = []
        for _ in range(300):
            n = rng.randint(1, 6)
            density = rng.choice((0.2, 0.35, 0.5, 0.7))
            patterns.append(
                [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
            )
        # imprimitive: block-cyclic of every period d dividing n, with dense
        # and with sparse blocks
        for n in range(1, 9):
            for d in (d for d in range(1, n + 1) if n % d == 0):
                dense = block_cyclic(n, d).rows
                patterns.append(dense)
                patterns.append([[x if rng.random() < 0.6 else 0 for x in row] for row in dense])
        # reducible: a zero row, a zero column, an identity block that the
        # rest of the matrix never reaches
        for _ in range(60):
            n = rng.randint(2, 8)
            rows = [[1 if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
            k = rng.randrange(n)
            patterns.append([[0] * n if i == k else row for i, row in enumerate(rows)])
            patterns.append([[0 if j == k else x for j, x in enumerate(row)] for row in rows])
            patterns.append(
                [[int(i == j) if i <= k else (0 if j <= k else x) for j, x in enumerate(row)]
                 for i, row in enumerate(rows)]
            )
        # rows with exactly one nonzero: an n-cycle, or any permutation, plus
        # one chord, so that every row but one takes the one-nonzero step
        for _ in range(80):
            n = rng.randint(1, 12)
            order = rng.sample(range(n), n)
            if rng.random() < 0.7:
                image = dict(zip(order, order[1:] + order[:1]))
            else:
                image = dict(zip(range(n), order))
            rows = [[int(j == image[i]) for j in range(n)] for i in range(n)]
            rows[rng.randrange(n)][rng.randrange(n)] = 1
            patterns.append(rows)
        # entries above 1, which the boolean search reads as 1
        for _ in range(60):
            n = rng.randint(1, 8)
            patterns.append(
                [[rng.choice((0, 0, 1, 2, 7, 2**70)) for _ in range(n)] for _ in range(n)]
            )
        # orders up to 12
        for _ in range(60):
            n = rng.randint(9, 12)
            density = rng.choice((0.1, 0.2, 0.35))
            patterns.append(
                [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
            )
        for rows in patterns:
            m = IntMatrix.from_rows(rows)
            assert min_positive_power(m) == linear_min_positive_power(m)

    @pytest.mark.parametrize("d", [d for d in range(1, 49) if 48 % d == 0])
    def test_cycle_stop_bounds_the_work(self, d, monkeypatch):
        # A work count rather than a timing: a block-cyclic pattern of
        # period d > 1 repeats its powers with period d and is never full.
        # Without the cycle stop the search would step to the Wielandt bound,
        # 2,210 products at n = 48; with it, d = 2 takes 3 and d = 48 takes
        # 111 (the anchor M^64 comes back at M^112).
        calls = 0

        def counting_times(pickers, power):
            nonlocal calls
            calls += 1
            return _times(pickers, power)

        monkeypatch.setattr(linalg, "_times", counting_times)
        assert min_positive_power(block_cyclic(48, d)) == (1 if d == 1 else None)
        assert calls <= 4 * 48

    @pytest.mark.parametrize("n", range(2, 9))
    def test_wielandt_matrix_reaches_the_bound(self, n):
        # the n-cycle plus one chord has the largest exponent (n-1)^2 + 1
        rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
        rows[n - 1][0] = rows[n - 1][1] = 1
        m = IntMatrix.from_rows(rows)
        bound = wielandt_bound(n)
        assert min_positive_power(m) == linear_min_positive_power(m) == bound


class TestSpectralRadius:
    def test_genus_two_stretch_factor_against_root_oracle(self):
        # independent oracle: characteristic polynomial via sympy, largest
        # root bracketed by exact bisection
        x = sympy.symbols("x")
        charpoly = sympy.Matrix(GAMMA2_MATRIX.rows).charpoly(x).as_expr()
        assert sympy.expand(charpoly - (x**4 - x**3 - x**2 - x + 1)) == 0
        root_low, root_high = bisect_largest_root([1, -1, -1, -1, 1], 1.5, 2)
        bracket = perron_bracket(GAMMA2_MATRIX, Fraction(1, 10**9))
        # both intervals contain the dominant eigenvalue, so they intersect
        assert bracket.low <= root_high and root_low <= bracket.high
        assert bracket.high - bracket.low <= Fraction(1, 10**9)

    def test_low_end_at_least_min_row_sum(self):
        m = path_matrix(gamma(3))
        bracket = perron_bracket(m)
        assert bracket.low >= min_row_sum(m)

    def test_power_brackets_match_powered_endpoints(self):
        tol = Fraction(1, 10**9)
        base = perron_bracket(GAMMA2_MATRIX, tol)
        for k in (2, 3):
            powered = perron_bracket(GAMMA2_MATRIX**k, tol)
            assert abs(powered.low - base.low**k) < Fraction(1, 10**6)
            assert abs(powered.high - base.high**k) < Fraction(1, 10**6)

    def test_rejects_permutation_matrix(self, monkeypatch):
        # The engine asks for a primitive matrix, and certify only runs it on
        # one: the identity of the empty path gets no bracket.
        def fail(*args):
            raise AssertionError("bracket asked for a non-primitive matrix")

        monkeypatch.setattr(pa, "perron_bracket", fail)
        cert = pa.certify(AllowedPath(central(3), ()))
        assert cert.matrix == IntMatrix.identity(3)
        assert (cert.primitive, cert.lam) == (False, None)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            perron_bracket(GAMMA2_MATRIX, 0)

    def test_irreducible_but_imprimitive_matrix_is_bracketed(self):
        bracket = perron_bracket(IntMatrix.from_rows([[0, 1], [1, 0]]))
        assert bracket.low < 1 < bracket.high

    @staticmethod
    def check_nonnegative(rows, tol):
        # At a Perron root of even multiplicity chi(low) < 0 never holds, and
        # a loop that waited for it never ended; at rho = 0 the float seed
        # halved y down to the smallest subnormal and spun there.
        def stop(signum, frame):
            raise TimeoutError("perron_bracket still running after 1 s")

        m = IntMatrix.from_rows(rows)
        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 1)
        try:
            bracket = perron_bracket(m, tol)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert bracket.high - bracket.low <= tol
        assert perron_witness(charpoly(m), bracket.low, bracket.high)
        assert contains_perron_root(m, bracket)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0], [0, 1]],
            [[1, 1], [0, 1]],
            [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]],
            [[0, 1], [0, 0]],
        ],
        ids=["identity", "Jordan block", "block diagonal", "nilpotent"],
    )
    def test_brackets_a_reducible_matrix(self, rows):
        self.check_nonnegative(rows, linalg.DEFAULT_TOL)

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_matrix_is_not_primitive(self, order):
        # no power is positive, and its bracket holds rho = 0
        rows = [[0] * order] * order
        assert min_positive_power(IntMatrix.from_rows(rows)) is None
        self.check_nonnegative(rows, linalg.DEFAULT_TOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_brackets_any_nonnegative_matrix(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            n = rng.randint(1, 7)
            density = rng.choice((0.1, 0.3, 0.6, 1.0))
            rows = [[rng.randint(1, 5) if rng.random() < density else 0 for _ in range(n)]
                    for _ in range(n)]
            tol = rng.choice((Fraction(1, 3), Fraction(1, 10**9), Fraction(1, 10**40)))
            self.check_nonnegative(rows, tol)

    def test_deterministic(self):
        a = perron_bracket(GAMMA2_MATRIX)
        b = perron_bracket(GAMMA2_MATRIX)
        assert (a.low, a.high, a.iterations) == (b.low, b.high, b.iterations)

    @pytest.mark.parametrize(
        "rows",
        [[[1, 1], [2**140, 1]], [[0, 1, 0], [0, 0, 1], [2**64, 1, 0]]],
        ids=["subdominant 1 - 2^70", "companion of x^3 - x - 2^64"],
    )
    def test_gapless_matrices_bracket_in_under_a_second(self, rows):
        # Collatz-Wielandt never reached 1e-9 on these: the subdominant
        # eigenvalue has modulus close to rho.  Newton on chi does not read
        # the gap.
        m = IntMatrix.from_rows(rows)
        start = time.perf_counter()
        bracket = perron_bracket(m)
        assert time.perf_counter() - start < 1
        assert bracket.high - bracket.low <= Fraction(1, 10**9)
        assert contains_perron_root(m, bracket)

    def test_tight_tolerance_in_under_a_second(self):
        m = path_matrix(build_path(fg_start(2), "ftbb"))
        tol = Fraction(1, 10**3000)
        start = time.perf_counter()
        bracket = perron_bracket(m, tol)
        assert time.perf_counter() - start < 1
        assert bracket.high - bracket.low <= tol
        assert perron_witness(charpoly(m), bracket.low, bracket.high)


class TestCharpoly:
    @settings(max_examples=60, deadline=None)
    @given(allowed_paths(max_n=8, max_moves=60))
    def test_against_the_sparse_oracle_and_sympy(self, path):
        m = path_matrix(path)
        x = sympy.symbols("x")
        own = sympy.Poly(sympy.Matrix(m.rows).charpoly(x).as_expr(), x).all_coeffs()
        assert charpoly(m) == berkowitz_charpoly(m) == [int(c) for c in own]

    def test_order_one_and_a_zero_leading_block(self):
        assert charpoly(IntMatrix.from_rows([[5]])) == [1, -5]
        # the leading 1 x 1 block is 0, so Berkowitz divides by nothing
        assert charpoly(IntMatrix.from_rows([[0, 1], [1, 0]])) == [1, 0, -1]


class TestPerronWitness:
    def test_holds_on_the_engine_bracket(self):
        bracket = perron_bracket(GAMMA2_MATRIX)
        assert perron_witness(charpoly(GAMMA2_MATRIX), bracket.low, bracket.high)

    def test_fails_when_an_end_crosses_rho(self):
        chi = charpoly(GAMMA2_MATRIX)
        bracket = perron_bracket(GAMMA2_MATRIX)
        width = bracket.high - bracket.low
        # the low end raised above rho, the high end lowered below it
        assert not perron_witness(chi, bracket.high, bracket.high + width)
        assert not perron_witness(chi, bracket.low - width, bracket.low)
        # it proves low <= rho < high: a low end at rho holds, a high end fails
        assert perron_witness([1, -3], Fraction(3), Fraction(4))
        assert not perron_witness([1, -3], Fraction(2), Fraction(3))

    def test_a_lower_real_root_inside_the_bracket_does_not_fail_it(self):
        # (x - 3)(x - 2) has the roots 2 and 3; the witness asks only that
        # chi(low + u) has a coefficient <= 0, which any low <= 3 gives
        chi = [1, -5, 6]
        assert perron_witness(chi, Fraction(5, 2), Fraction(7, 2))
        assert perron_witness(chi, Fraction(1), Fraction(7, 2))
        assert perron_witness(chi, Fraction(3), Fraction(7, 2))
        assert not perron_witness(chi, Fraction(31, 10), Fraction(7, 2))


class TestBisectRoot:
    def test_square_root_of_two(self):
        bracket = bisect_root([1, 0, -2], 1, 2, Fraction(1, 10**12))
        assert bracket.low**2 < 2 < bracket.high**2
        assert bracket.high - bracket.low <= Fraction(1, 10**12)
        assert bracket.iterations == 40  # 2^-40 <= 10^-12 < 2^-39

    def test_agrees_with_the_fraction_oracle(self):
        rng = random.Random(15)
        for _ in range(50):
            roots = sorted(Fraction(rng.randint(1, 400), rng.randint(1, 9)) for _ in range(3))
            # (x - r1)(x - r2)(x - r3) scaled to integers, largest root bracketed
            coeffs = [1]
            for r in roots:
                coeffs = [a * r.denominator - b * r.numerator
                          for a, b in zip(coeffs + [0], [0] + coeffs)]
            low, high = roots[-1] - Fraction(1, 3), roots[-1] + 1
            if any(low < r for r in roots[:-1]):
                continue
            bracket = bisect_root(coeffs, low, high, Fraction(1, 10**6))
            assert bracket.low <= roots[-1] <= bracket.high
            oracle = bisect_largest_root(coeffs, low, high, Fraction(1, 10**6))
            assert bracket.low <= oracle[1] and oracle[0] <= bracket.high

    def test_midpoint_root_is_returned_exactly(self):
        # x - 3/2 on [1, 2]: the first midpoint is the root
        assert bisect_root([2, -3], 1, 2) == SpectralBracket(Fraction(3, 2), Fraction(3, 2), 1)

    def test_endpoint_root_and_point_bracket(self):
        assert bisect_root([1, -1], 1, 1) == SpectralBracket(Fraction(1), Fraction(1), 0)
        bracket = bisect_root([1, -2], 1, 2, Fraction(1, 4))
        assert bracket == SpectralBracket(Fraction(7, 4), Fraction(2), 2)

    def test_rejects_a_bracket_without_a_sign_change(self):
        with pytest.raises(ValueError, match="does not change sign"):
            bisect_root([1, 0, -2], 2, 3)
        with pytest.raises(ValueError, match="does not change sign"):
            bisect_root([-1, 0, 2], 1, 2)
        with pytest.raises(ValueError, match="does not change sign"):
            bisect_root([1, 0, -2], 2, 1)

    @pytest.mark.parametrize("tol", [0, -1, "-1/10"])
    def test_rejects_non_positive_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            bisect_root([1, 0, -2], 1, 2, tol)

    def test_sign_skips_zero_coefficients(self):
        rng = random.Random(20)
        for _ in range(300):
            coeffs = [rng.choice([0, 0, 0, rng.randint(-9, 9)]) for _ in range(rng.randint(1, 30))]
            num, den = rng.randint(-50, 50), rng.randint(1, 40)
            value = sum(c * Fraction(num, den) ** (len(coeffs) - 1 - i)
                        for i, c in enumerate(coeffs))
            assert _poly_value(coeffs, num, den) == value * den ** (len(coeffs) - 1)


class TestRootAboveOne:
    def test_is_bisection_from_one_to_cauchys_bound(self):
        for coeffs in ([1, 0, -2], [1, -1, -1, -1, 1], [2, -3, 0, -5]):
            bound = 1 + max(abs(c) for c in coeffs)
            assert root_above_one(coeffs) == bisect_root(coeffs, 1, bound)

    @pytest.mark.parametrize(
        "coeffs",
        [[1, 0, 1], [1, -5, 6], [-1, 0, 0]],
        ids=["no real root", "two roots above 1", "negative lead"],
    )
    def test_precondition_sign_at_one_and_at_the_bound(self, coeffs):
        # it needs p(1) <= 0 and p > 0 at 1 + max|c|, so a positive lead
        with pytest.raises(ValueError, match="does not change sign"):
            root_above_one(coeffs)

    @pytest.mark.parametrize("g", [2, 3, 7, 30])
    def test_both_families_meet_the_precondition(self, g):
        polynomials = [family_polynomial(g)]
        if g >= 3:
            polynomials += [twist_polynomial(g, n) for n in (1, 5, 10**12)]
        for coeffs in polynomials:
            bound = 1 + max(abs(c) for c in coeffs)
            assert _poly_value(coeffs, 1, 1) < 0 < _poly_value(coeffs, bound, 1)


def contains_perron_root(m: IntMatrix, bracket: SpectralBracket) -> bool:
    """Exact oracle: the characteristic polynomial has a root in
    [low, high] and none above high (the Perron root is the largest real
    eigenvalue)."""
    x = sympy.symbols("x")
    poly = sympy.Poly(sympy.Matrix(m.rows).charpoly(x).as_expr(), x)
    low = sympy.Rational(bracket.low.numerator, bracket.low.denominator)
    high = sympy.Rational(bracket.high.numerator, bracket.high.denominator)
    at_or_above_high = 1 if poly.eval(high) == 0 else 0
    return poly.count_roots(low, high) >= 1 and poly.count_roots(high, None) == at_or_above_high


def random_primitive(rng: random.Random, n: int) -> IntMatrix:
    while True:
        m = IntMatrix.from_rows(
            [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        )
        if min_positive_power(m) is not None:
            return m


def wide_range_matrix(rng: random.Random, n: int, step: int = 35) -> IntMatrix:
    """u w^T plus small noise, u = (1, 2^step, 2^(2 step), ...): the Perron
    vector is close to u and spans about (n - 1) * step bits."""
    u = [1 << (step * i) for i in range(n)]
    w = [1 << (step * (n - 1 - j)) for j in range(n)]
    return IntMatrix.from_rows([[u[i] * w[j] + rng.randint(0, 3) for j in range(n)]
                                for i in range(n)])


class TestBoundedPrecisionEngine:
    TOL = Fraction(1, 10**9)

    def check(self, m):
        bracket = perron_bracket(m, self.TOL)
        assert bracket.high - bracket.low <= self.TOL
        assert contains_perron_root(m, bracket)

    def test_random_dense_and_sparse_primitive(self):
        rng = random.Random(11)
        for _ in range(25):
            self.check(random_primitive(rng, rng.randint(2, 7)))

    def test_block_companion_twist_matrices(self):
        from rauzycert.penner import build

        rng = random.Random(12)
        for g in (3, 4, 5):
            for n in (1, rng.randint(2, 50), rng.randint(500, 3000)):
                self.check(build(g, n).m)

    def test_perron_vector_spanning_more_than_sixty_bits(self):
        rng = random.Random(13)
        for n in (3, 4, 5):
            self.check(wide_range_matrix(rng, n))

    def test_family_loop_at_genus_100_against_numpy(self):
        # 200 x 200, Perron vector spanning about 99 bits; float oracle with
        # a slack of 1e-12, far above float64 rounding on 0/1/2 entries.
        from rauzycert.fg import block_matrix

        m = block_matrix(100)
        bracket = perron_bracket(m, self.TOL)
        values = np.linalg.eigvals(np.array(m.rows, dtype=float))
        root = Fraction(float(values[np.argmax(values.real)].real))
        slack = Fraction(1, 10**12)
        assert bracket.high - bracket.low <= self.TOL
        assert bracket.low - slack <= root <= bracket.high + slack


def _ln60(x: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(x.numerator).ln() - Decimal(x.denominator).ln()


class TestLogBounds:
    def test_rounded_outward_on_family_and_twist_brackets(self):
        from rauzycert.fg import family_report
        from rauzycert.penner import build, stretch_bounds

        brackets = [family_report(g).certificate.lam for g in range(2, 12)]
        brackets += [stretch_bounds(build(g, n)).rho for g in (3, 4) for n in range(1, 8)]
        for bracket in brackets:
            low, high = bracket.log_bounds()
            assert Decimal(low) <= _ln60(bracket.low)
            assert Decimal(high) >= _ln60(bracket.high)
            assert high - low < 1e-6

    def test_rounded_outward_on_random_rationals(self):
        rng = random.Random(14)
        for _ in range(500):
            den = rng.randint(1, 1 << rng.choice((2, 20, 64, 200)))
            x = Fraction(den + rng.randint(-den + 1, 3 * den), den)
            low, high = SpectralBracket(x, x, 1).log_bounds()
            assert Decimal(low) <= _ln60(x) <= Decimal(high)
