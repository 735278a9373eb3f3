import random
import types
from fractions import Fraction

import pytest
import sympy

from rauzycert import cli
from rauzycert.diagram import AllowedPath, build_path, explore
from rauzycert.fg import (
    CENTRAL_N_MAX,
    GENUS_MAX,
    LOOP_LEN_MAX,
    SAMPLES_MAX,
    _closed_forms,
    _closed_words,
    _cover_loop,
    _stations,
    FamilyReport,
    block_matrix,
    family_loop,
    central_after_t,
    expected_orbit_trajectory,
    expected_winner_losers,
    family_bracket,
    family_polynomial,
    family_report,
    central_component_checks,
)
from rauzycert.induction import MOVES, Move
from rauzycert.linalg import (
    DEFAULT_TOL,
    _column_product,
    min_positive_power,
    path_matrix,
    perron_bracket,
    root_above_one,
)
from rauzycert.pa import lc_lower_bound
from rauzycert.perm import _cycles, _invert, central, fg_start, parse, unlabeled

from helpers import (
    berkowitz_charpoly,
    bisect_largest_root,
    brute_force_closed_words,
    cycle_masks,
    is_positive,
    never_primitive,
    oracle_cover_loop,
    poly_mul,
    unpruned_closed_words,
)


def _inverse_tables(d):
    return tuple(map(_invert, d.succ))


def _duels(path: AllowedPath) -> list[tuple[str, str]]:
    """The (winner, loser) letter names of the t and b moves of ``path``."""
    names = path.start.alphabet
    return [(names[winner], names[loser]) for winner, loser in path.updates]


class TestGamma:
    @pytest.mark.parametrize("g", range(2, 11))
    def test_allowed(self, g):
        path = family_loop(g)
        assert path.allowed
        assert len(path.moves) == g + 2
        assert path.word == "b" * g + "tf"

    @pytest.mark.parametrize("g", range(2, 11))
    def test_bottom_moves_return_to_start(self, g):
        assert _stations(family_loop(g))[g - 1] == (fg_start(g).top, fg_start(g).bottom)

    def test_winner_loser_sequence_genus_two(self):
        assert _duels(family_loop(2)) == [("a2", "a4"), ("a2", "a3"), ("a4", "a2")]

    @pytest.mark.parametrize("g", range(2, 11))
    def test_winner_loser_closed_form(self, g):
        assert _duels(family_loop(g)) == expected_winner_losers(g)


class TestIntermediateForms:
    def test_first_bottom_move_genus_two(self):
        target = AllowedPath(fg_start(2), family_loop(2).moves[:1]).end
        assert target.display() == "a1 a2 a4 a3 / a4 a1 a3 a2"

    def test_third_bottom_move_genus_three_is_start(self):
        assert AllowedPath(fg_start(3), family_loop(3).moves[:3]).end == fg_start(3)

    @pytest.mark.parametrize("g", range(2, 11))
    def test_closed_forms(self, g):
        assert _stations(family_loop(g)) == _closed_forms(g)

    def test_endpoint_genus_two(self):
        assert family_loop(2).end.display() == "a3 a1 a2 a4 / a4 a3 a2 a1"


class TestBlockMatrix:
    def test_genus_two_rows(self):
        assert block_matrix(2).rows == (
            (0, 1, 0, 0),
            (1, 0, 2, 1),
            (1, 0, 0, 0),
            (0, 0, 1, 1),
        )

    @pytest.mark.parametrize("g", range(2, 11))
    def test_matches_path_matrix(self, g):
        assert block_matrix(g) == path_matrix(family_loop(g))

    def test_matches_path_matrix_at_genus_100(self):
        # 200 x 200: the column-update path matrix makes this a fast check
        assert block_matrix(100) == path_matrix(family_loop(100))

    @pytest.mark.parametrize("g", range(2, 8))
    def test_row_after_first_block_is_first_unit_vector(self, g):
        row = block_matrix(g).rows[g]
        assert row == tuple(1 if j == 0 else 0 for j in range(2 * g))


def p_sign(g: int, x: Fraction) -> int:
    """Sign of p_g at x = a/b, read off the integer b^(2g+1) p_g(a/b)."""
    a, b = x.numerator, x.denominator
    value = a ** (2 * g + 1) - 2 * a ** (2 * g - 1) * b**2
    value += b ** (2 * g + 1) - 2 * a**2 * b ** (2 * g - 1)
    return (value > 0) - (value < 0)


class TestFamilyBracket:
    def _holds(self, g, lam, tol):
        assert p_sign(g, lam.low) < 0 < p_sign(g, lam.high), g
        assert lam.low**2 >= 2 and lam.high - lam.low <= tol, g

    def test_every_genus(self):
        for g in range(2, GENUS_MAX + 1):
            self._holds(g, family_bracket(g), DEFAULT_TOL)

    @pytest.mark.parametrize("tol", [Fraction(1, 10**3), Fraction(1, 10**20), Fraction(1, 10**40)])
    def test_other_tolerances(self, tol):
        # the lift first applies at g = 11, 69 and 135 (37 at the default)
        for g in (2, 5, 10, 11, 37, 68, 69, 134, 135, 200, GENUS_MAX):
            self._holds(g, family_bracket(g, tol), tol)

    @pytest.mark.parametrize("g", [37, 40, 120, GENUS_MAX])
    def test_lift_keeps_the_bisection_but_its_low_end(self, g):
        bisection = root_above_one(family_polynomial(g))
        lam = family_bracket(g)
        assert bisection.low**2 < 2 < lam.low**2
        assert (lam.high, lam.iterations) == (bisection.high, bisection.iterations)
        # the low end is the least multiple of 1 / 2^k above sqrt 2
        step = Fraction(1, lam.low.denominator)
        assert lam.low.denominator & (lam.low.denominator - 1) == 0
        assert (lam.low - step) ** 2 < 2


class TestFamilyPolynomial:
    X = sympy.symbols("x")

    def test_terms(self):
        # x^5 - 2 x^3 - 2 x^2 + 1
        assert family_polynomial(2) == [1, 0, -2, -2, 0, 1]

    @pytest.mark.parametrize("g", range(2, 13))
    def test_identity_against_sympy(self, g):
        charpoly = sympy.Matrix(block_matrix(g).rows).charpoly(self.X).as_expr()
        coeffs = [int(c) for c in sympy.Poly(charpoly, self.X).all_coeffs()]
        assert poly_mul([1, 1], coeffs) == family_polynomial(g)

    @pytest.mark.parametrize("g", [16, 20])
    def test_identity_against_berkowitz(self, g):
        assert poly_mul([1, 1], berkowitz_charpoly(block_matrix(g))) == family_polynomial(g)

    def test_table_brackets_overlap_collatz_wielandt(self, capsys):
        # The chi-witness bracket of block_matrix(g) (Collatz-Wielandt's until
        # that engine went) stays an independent oracle: it reads the matrix,
        # not the family polynomial.  The table's decimals are truncated
        # after 12 places, hence the slack.
        assert cli.main(["fg", "table", "--gmax", "30"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(2, 31))
        slack = Fraction(1, 10**12)
        for row in rows:
            g, low, high = row.split(",")[:3]
            low, high = Fraction(low), Fraction(high)
            own = perron_bracket(block_matrix(int(g)))
            assert low <= own.high and own.low <= high + slack, g
            assert high - low <= DEFAULT_TOL + slack


def _updates(d, src, word):
    """The (winner, loser) pairs of ``word`` from vertex ``src`` of ``d``."""
    updates = []
    for move in word:
        updates.append((d.winner[move][src], d.loser[move][src]))
        src = d.succ[move][src]
    return updates


def _shapes(d, n):
    """The (family, src, dst, relabel) of both path shapes in the central
    component ``d``: closed words at the central vertex, and the words from
    each loop vertex to its partner, whose relabeling comes from the path
    with the flip."""
    walk = [0]
    for _ in range(1, n):
        walk.append(d.succ[0][walk[-1]])
    shapes = [(1, 0, 0, tuple(range(n)))]
    for m in range(1, n):
        src, dst = walk[m], walk[n - m - 1]
        word = next(unpruned_closed_words(d.succ, src, dst, 2 * n))
        moves = tuple(MOVES[move] for move in word) + (Move.FLIP,)
        path = AllowedPath(d.vertices[src], moves)
        assert path.allowed
        shapes.append((2, src, dst, path.relabel))
    return shapes


def _rule_keeps(d, src, dst, max_len, cycles):
    """The unpruned candidate words that ``never_primitive`` keeps."""
    return [
        word
        for word in unpruned_closed_words(d.succ, src, dst, max_len)
        if not never_primitive(_updates(d, src, word), cycles)
    ]


def _walks(d, src, max_len):
    """Every word of 1..max_len moves from vertex ``src`` of ``d``, in order
    of length then lexicographic, with the vertex it ends at and the masks
    of the letters it wins and loses."""
    walks, layer = [], [((), src, 0, 0)]
    for _ in range(max_len):
        layer = [
            (word + (move,), table[v], won | 1 << d.winner[move][v], lost | 1 << d.loser[move][v])
            for word, v, won, lost in layer
            for move, table in enumerate(d.succ)
        ]
        walks += layer
    return walks


def _unwon_unlost(updates, cycles) -> tuple[int, int]:
    """How many cycles never win, and how many never lose, in ``updates``."""
    won = {w for w, _ in updates}
    lost = {l for _, l in updates}
    letters = [{x for x in range(cycle.bit_length()) if cycle >> x & 1} for cycle in cycles]
    return sum(not c & won for c in letters), sum(not c & lost for c in letters)


class TestInverseTables:
    @pytest.mark.parametrize("n", range(3, 17))
    def test_successor_tables_are_permutations(self, n):
        # central_component_checks reads every reverse edge from the inverse
        # tables, which needs t and b to be bijections of the component
        d = explore(central(n))
        vertices = list(range(len(d)))
        for table, inverse in zip(d.succ, _inverse_tables(d)):
            assert sorted(table) == vertices
            assert [inverse[v] for v in table] == vertices
            assert [table[v] for v in inverse] == vertices


class TestClosedWords:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_pruned_search_matches_brute_force(self, n):
        # the candidate words before the win/loss pruning
        step = explore(central(n)).succ
        for start in range(len(step[0])):
            expected = brute_force_closed_words(step, start, 2 * n)
            for end in range(len(step[0])):
                words = list(unpruned_closed_words(step, start, end, 2 * n))
                assert words == expected.get(end, [])

    @pytest.mark.parametrize("n", range(3, 10))
    def test_yields_the_candidates_the_cycle_rule_keeps(self, n):
        # the same words, in the same order, as filtering the unpruned
        # candidates through never_primitive; up to n = 7 also at
        # max_len = 3n, where closed loops at the central vertex that win
        # and lose every letter exist (the first has 2.4n moves at n = 5,
        # 3n at n = 8), so the masks no longer decide shape 1 at its root
        d = explore(central(n))
        back = _inverse_tables(d)
        for max_len in (2 * n, 3 * n) if n <= 7 else (2 * n,):
            kept = 0
            for _, src, dst, relabel in _shapes(d, n):
                expected = _rule_keeps(d, src, dst, max_len, cycle_masks(relabel))
                words = _closed_words(d, back, src, dst, max_len, _cycles(relabel))
                assert list(words) == expected
                kept += len(expected)
            assert kept > 0

    @pytest.mark.parametrize("n", range(3, 6))
    def test_any_endpoints_and_cycles(self, n):
        # Between two distinct vertices a word can win every letter without
        # losing every letter, and the reverse, so both halves of the prune
        # are exercised here; the cycles come from the identity and from a
        # seeded random relabeling.
        d = explore(central(n))
        back = _inverse_tables(d)
        relabel = list(range(n))
        random.Random(n).shuffle(relabel)
        for letters in (tuple(range(n)), tuple(relabel)):
            masks, cycles = cycle_masks(letters), _cycles(letters)
            for src in range(len(d)):
                for dst in range(len(d)):
                    expected = _rule_keeps(d, src, dst, 2 * n, masks)
                    assert list(_closed_words(d, back, src, dst, 2 * n, cycles)) == expected

    @pytest.mark.parametrize("n", range(3, 6))
    def test_any_endpoints_and_cycles_past_2n(self, n):
        # The same comparison at max_len = 3n, with the candidates of each
        # start enumerated once for every end and both cycle sets, and
        # never_primitive's rule read off their won and lost letters.
        d = explore(central(n))
        back = _inverse_tables(d)
        relabel = list(range(n))
        random.Random(n).shuffle(relabel)
        for src in range(len(d)):
            walks = _walks(d, src, 3 * n)
            for letters in (tuple(range(n)), tuple(relabel)):
                masks, cycles = cycle_masks(letters), _cycles(letters)
                expected: dict[int, list[tuple[int, ...]]] = {dst: [] for dst in range(len(d))}
                for word, dst, won, lost in walks:
                    if all(cycle & won and cycle & lost for cycle in masks):
                        expected[dst].append(word)
                for dst, words in expected.items():
                    assert list(_closed_words(d, back, src, dst, 3 * n, cycles)) == words

    def test_prunes_inside_the_search(self):
        # A work count rather than a timing: at n = 12 the closed loops at
        # the central vertex take about a sixty-eighth of the successor
        # lookups of the unpruned search, so a search that only filtered
        # finished words would fail here.
        class Counting(list):
            lookups = 0

            def __getitem__(self, index):
                Counting.lookups += 1
                return list.__getitem__(self, index)

        n = 12
        d = explore(central(n))
        counted = types.SimpleNamespace(
            succ=tuple(map(Counting, d.succ)), winner=d.winner, loser=d.loser, alphabet=d.alphabet
        )
        words = list(unpruned_closed_words(counted.succ, 0, 0, 2 * n))
        unpruned, Counting.lookups = Counting.lookups, 0
        cycles = _cycles(tuple(range(n)))
        kept = list(_closed_words(counted, _inverse_tables(d), 0, 0, 2 * n, cycles))
        assert len(words) > len(kept)
        assert Counting.lookups * 60 < unpruned

    @pytest.mark.parametrize("n", range(3, 17))
    def test_closed_loops_at_the_central_vertex(self, n):
        # Shape 1's enumerated candidates: 10 words at n = 3, 2 at n = 4 and
        # none from n = 5 on, where every shape-1 sample is a cover loop.
        # Only the depth-first search indexes the successor tables by move;
        # the breadth-first searches and the masks iterate over them.  From
        # n = 5 the masks rule out the lengths below about 1.4n at the root
        # and cut every branch of the longer ones within a few moves: some
        # closed walk of each such length wins every letter, and some loses
        # every letter, but no one walk does both.  That takes 53 to 59
        # lookups by move, against 135 at n = 3 and 107 at n = 4.
        class ByMove(tuple):
            lookups = 0

            def __getitem__(self, index):
                ByMove.lookups += 1
                return tuple.__getitem__(self, index)

        d = explore(central(n))
        counted = types.SimpleNamespace(
            succ=ByMove(d.succ), winner=d.winner, loser=d.loser, alphabet=d.alphabet
        )
        singletons = _cycles(tuple(range(n)))
        words = list(_closed_words(counted, _inverse_tables(d), 0, 0, 2 * n, singletons))
        assert len(words) == {3: 10, 4: 2}.get(n, 0)
        assert (ByMove.lookups <= 64) == (n >= 5)

    @pytest.mark.parametrize("n", range(5, 8))
    def test_prune_allowance_is_tight(self, n):
        # Each move wins one letter and loses one, so no prefix of a kept
        # word has more unwon, or unlost, cycles than moves left.  Some
        # kept word has a prefix with exactly as many unwon cycles as moves
        # left, and one with exactly as many unlost cycles: a prune by these
        # counts with an allowance of one move fewer would drop a kept word.
        d = explore(central(n))
        back = _inverse_tables(d)
        tight_won = tight_lost = False
        for _, src, dst, relabel in _shapes(d, n):
            masks = cycle_masks(relabel)
            for word in _closed_words(d, back, src, dst, 2 * n, _cycles(relabel)):
                updates = _updates(d, src, word)
                for k in range(1, len(word)):
                    unwon, unlost = _unwon_unlost(updates[:k], masks)
                    assert unwon <= len(word) - k and unlost <= len(word) - k
                    tight_won = tight_won or unwon == len(word) - k
                    tight_lost = tight_lost or unlost == len(word) - k
        assert tight_won and tight_lost


class TestTheorem11:
    @pytest.mark.parametrize("g", range(2, 11))
    def test_all_checks_pass(self, g):
        report = family_report(g)
        assert report.passed, {k: v for k, v in report.checks.items() if not v}

    @pytest.mark.parametrize("g", [190, 200])
    def test_all_checks_pass_past_the_default_tolerance(self, g):
        # lambda_g - sqrt 2 is about 1.5 * 2^-g, far below the default width
        report = family_report(g)
        assert report.passed, {k: v for k, v in report.checks.items() if not v}
        lam = report.certificate.lam
        assert lam.low**2 >= 2
        assert p_sign(g, lam.low) <= 0 <= p_sign(g, lam.high)

    @pytest.mark.parametrize("g", [2, 12, 24, 36])
    def test_bracket_is_the_bisection_at_the_tolerance(self, g):
        # from [1, 3] to width 10^-9 takes 31 halvings; up to g = 36 the
        # bracket already decides lambda_g >= sqrt 2, so its low end stays
        lam = family_report(g).certificate.lam
        assert lam.iterations == 31 and lam.high - lam.low == Fraction(2, 2**31)
        assert p_sign(g, lam.low) <= 0 <= p_sign(g, lam.high)

    def test_genus_two_values(self):
        report = family_report(2)
        assert report.upper_bound == 1
        assert report.lower_bound == Fraction(1, 20)
        root_low, root_high = bisect_largest_root([1, -1, -1, -1, 1], 1.5, 2)
        lam = report.certificate.lam
        assert abs((lam.low + lam.high) / 2 - (root_low + root_high) / 2) < Fraction(1, 10**6)

    def test_genus_five_values(self):
        report = family_report(5)
        assert report.certificate.lc_upper == Fraction(1, 4)
        assert report.certificate.lc_lower == Fraction(1, 68)

    def test_genus_ten_orbit_length(self):
        report = family_report(10)
        assert report.certificate.orbit.steps == 18

    def test_genus_cap(self):
        line = "^family genus g must be <= %d, got %d$" % (GENUS_MAX, GENUS_MAX + 1)
        with pytest.raises(ValueError, match=line):
            family_loop(GENUS_MAX + 1)

    def test_orbit_trajectory_visits_all_non_winners(self):
        for g in (2, 4, 6):
            trajectory = expected_orbit_trajectory(g)
            interior = set(trajectory[:-1])
            assert interior == {"a%d" % i for i in range(1, 2 * g + 1)} - {
                "a%d" % g,
                "a%d" % (2 * g),
            }
            assert trajectory[-1] == "a%d" % g

    def test_report_shape(self):
        report = family_report(3)
        assert isinstance(report, FamilyReport)
        assert report.checks["block_form"] and report.checks["intermediate_closed_forms"]


class TestCentralLoop:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_closed_form_matches_repeated_top_moves(self, n):
        for m in range(1, n):
            assert AllowedPath(central(n), (Move.TOP,) * m).end == central_after_t(n, m)
        assert AllowedPath(central(n), (Move.TOP,) * (n - 1)).end == central(n)

    def test_three_letter_loop(self):
        assert central_after_t(3, 1).display() == "a1 a2 a3 / a3 a1 a2"
        assert central_after_t(3, 2) == central(3)


class TestTheorem12:
    def test_three_letter_component_is_the_displayed_diagram(self):
        report = central_component_checks(3)
        assert report.component_size == 3
        assert report.passed

    @pytest.mark.parametrize("n", range(3, 8))
    def test_all_checks_pass(self, n):
        report = central_component_checks(n)
        assert report.passed, {k: v for k, v in report.checks.items() if not v}

    def test_four_letter_bound(self):
        report = central_component_checks(4)
        assert report.lc_lower == Fraction(1, 22)
        assert report.samples

    def test_bound_is_the_certificate_formula(self):
        # genus 1 has no curve-graph bound, as in a certificate
        assert central_component_checks(3).lc_lower is None
        for n in range(4, 10):
            g = n // 2
            assert central_component_checks(n).lc_lower == lc_lower_bound(g, 4 * g + 2)

    def test_sampled_families_both_present(self):
        report = central_component_checks(5)
        assert {s.family for s in report.samples} == {1, 2}

    def test_family_two_words_end_with_flip(self):
        report = central_component_checks(4)
        for s in report.samples:
            if s.family == 2:
                assert s.word.endswith("f")
                assert "f" not in s.word[:-1]

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            central_component_checks(2)

    def test_rejects_large_n_before_exploring(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("explore ran")

        monkeypatch.setattr("rauzycert.fg.explore", fail)
        line = "^n must be <= %d, got %d$" % (CENTRAL_N_MAX, CENTRAL_N_MAX + 1)
        with pytest.raises(ValueError, match=line):
            central_component_checks(CENTRAL_N_MAX + 1)

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="^samples must be >= 0, got -1$"):
            central_component_checks(4, loop_len=14, samples=-1)

    def test_rejects_loop_len_below_one(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("explore ran")

        monkeypatch.setattr("rauzycert.fg.explore", fail)
        for loop_len in (0, -3):
            with pytest.raises(ValueError, match="^loop_len must be >= 1, got %d$" % loop_len):
                central_component_checks(5, loop_len=loop_len)

    def test_rejects_samples_and_loop_len_above_caps_before_exploring(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("explore ran")

        monkeypatch.setattr("rauzycert.fg.explore", fail)
        line = "^%s must be <= %d, got %d$"
        with pytest.raises(ValueError, match=line % ("samples", SAMPLES_MAX, SAMPLES_MAX + 1)):
            central_component_checks(4, samples=SAMPLES_MAX + 1)
        with pytest.raises(ValueError, match=line % ("loop_len", LOOP_LEN_MAX, LOOP_LEN_MAX + 1)):
            central_component_checks(4, loop_len=LOOP_LEN_MAX + 1)

    def test_default_loop_len_is_within_its_cap(self):
        assert 2 * CENTRAL_N_MAX <= LOOP_LEN_MAX

    @pytest.mark.parametrize("n", range(4, 15))
    def test_builds_a_matrix_only_for_kept_words(self, n, monkeypatch):
        # A work count rather than a timing: the closed-word search drops
        # every word the cycle rule would reject, and no cover loop breaks
        # the rule, so each word that reaches the sampler gives a primitive
        # matrix; each successor table is inverted once per diagram.
        calls = {"invert": 0, "power": 0, "imprimitive": 0, "product": 0}

        def invert(table):
            calls["invert"] += 1
            return _invert(table)

        def power(matrix):
            calls["power"] += 1
            exponent = min_positive_power(matrix)
            calls["imprimitive"] += exponent is None
            return exponent

        def product(*args):
            calls["product"] += 1
            return _column_product(*args)

        monkeypatch.setattr("rauzycert.fg._invert", invert)
        monkeypatch.setattr("rauzycert.fg.min_positive_power", power)
        monkeypatch.setattr("rauzycert.fg._column_product", product)
        report = central_component_checks(n)
        assert len(report.samples) == 6
        assert calls == {"invert": 2, "power": 6, "imprimitive": 0, "product": 6}

    @pytest.mark.parametrize("n", range(3, 13))
    def test_flipped_loop_vertex_has_one_unlabeled_partner(self, n):
        # The uniqueness behind flip_partner_identity, by brute force over
        # every vertex: after m top moves and a flip, the only vertex of the
        # component with the same unlabeled permutation is the mirror, the
        # vertex after n-m-1 top moves.
        d = explore(central(n))
        images = [unlabeled(v).images for v in d.vertices]
        walk = [0]
        for _ in range(1, n):
            walk.append(d.succ[0][walk[-1]])
        for m in range(1, n):
            flipped = unlabeled(AllowedPath(d.vertices[walk[m]], (Move.FLIP,)).end).images
            assert [v for v, other in enumerate(images) if other == flipped] == [walk[n - m - 1]]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_power_positive_is_exponent_at_most_4g_plus_2(self, n):
        # rebuild each sampled matrix from its start and word and raise it
        # to the power the bound uses
        power = 4 * (n // 2) + 2
        for s in central_component_checks(n).samples:
            matrix = path_matrix(build_path(parse(s.start_display), s.word, reading="ltr"))
            assert min_positive_power(matrix) == s.primitive_exponent
            assert is_positive(matrix**power) == (s.primitive_exponent <= power)
            assert s.power_positive == (s.primitive_exponent <= power)


class TestNeverPrimitive:
    """The cycle rule that ``_closed_words`` prunes by, stated on its own as
    ``never_primitive``, only rejects words whose path matrix has no
    positive power."""

    @pytest.mark.parametrize("n", range(3, 8))
    def test_rejected_candidate_words_are_not_primitive(self, n):
        # Every candidate word of both shapes up to length 2n: closed words at
        # the central vertex, and the words from each loop vertex to its
        # partner, whose relabeling comes from the path with the flip.
        d = explore(central(n))
        identity = tuple(range(n))
        rejected = {1: 0, 2: 0}
        for family, src, dst, relabel in _shapes(d, n):
            cycles = cycle_masks(relabel)
            for word in unpruned_closed_words(d.succ, src, dst, 2 * n):
                updates = _updates(d, src, word)
                if never_primitive(updates, cycles):
                    assert min_positive_power(_column_product(n, updates, relabel)) is None
                    rejected[family] += family == 1 or relabel != identity
        assert rejected[1] > 0
        assert rejected[2] > 0  # with a relabeling that is not the identity

    @pytest.mark.parametrize("seed", range(4))
    def test_random_updates_and_relabelings(self, seed):
        rng = random.Random(seed)
        rejected = 0
        for _ in range(500):
            n = rng.randint(2, 8)
            relabel = list(range(n))
            rng.shuffle(relabel)
            updates = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))]
            if never_primitive(updates, cycle_masks(tuple(relabel))):
                rejected += 1
                assert min_positive_power(_column_product(n, updates, tuple(relabel))) is None
        assert rejected > 0

    @pytest.mark.parametrize(
        "relabel, labels, masks",
        [
            ((0, 1, 2), [0, 1, 2], (1, 2, 4)),
            ((1, 2, 0), [0, 0, 0], (7,)),
            ((2, 0, 1, 3), [0, 0, 0, 1], (7, 8)),
            ((1, 0, 3, 2), [0, 0, 1, 1], (3, 12)),
        ],
    )
    def test_cycles(self, relabel, labels, masks):
        # the cycle numbers _closed_words reads and the masks never_primitive
        # reads number the same cycles
        assert _cycles(relabel) == (labels, len(masks))
        assert cycle_masks(relabel) == masks


class TestCoverLoop:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_matches_per_target_search(self, n):
        d = explore(central(n))
        back = _inverse_tables(d)
        for base in range(len(d)):
            for r in range(n):
                order = list(range(r, n)) + list(range(r))
                loop = _cover_loop(d.succ, back, d.winner, base, order)
                assert loop == oracle_cover_loop(d.succ, d.winner, base, order)


def test_family_start_is_a_distinct_vertex_of_the_central_component():
    # the family start is one top move past the central permutation: same
    # component, different vertex, and the constructors never conflate them
    component = explore(central(4))
    assert bytes(fg_start(2).top + fg_start(2).bottom) in component.rows
    assert fg_start(2) != central(4)
    assert AllowedPath(central(4), (Move.TOP,)).end == fg_start(2)
