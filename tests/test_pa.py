import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from rauzycert.diagram import AllowedPath, build_path
from rauzycert.errors import NotAllowedError
from rauzycert.linalg import IntMatrix, min_positive_power, path_matrix
from rauzycert.pa import (
    certificate_to_json,
    certify,
    check_never_winner_rows,
    lc_lower_bound,
    lc_upper_bound,
)
from rauzycert.perm import (
    LabeledPermutation,
    central,
    default_alphabet,
    fg_start,
    is_irreducible,
    parse,
)
from rauzycert.surface import glue

from helpers import allowed_paths, random_allowed_paths


def _walked_orbit(path, surface):
    """Oracle for ``lc_upper_bound``: walk sigma from every admissible start
    until a winner, or back to the start, and keep the first longest run.
    Returns (steps, trajectory, skipped sides, cycle warnings), or None."""
    names = path.start.alphabet
    winners = {winner for winner, _ in path.updates}
    sigma = {image: letter for letter, image in enumerate(path.relabel)}
    skipped, warnings, best = [], [], []
    for letter in range(path.start.n):
        if letter in winners:
            continue
        if not surface.side_closed[names[letter]]:
            skipped.append(names[letter])
            continue
        trajectory = [letter]
        while True:
            trajectory.append(sigma[trajectory[-1]])
            if trajectory[-1] in winners:
                if len(trajectory) > len(best):
                    best = trajectory
                break
            if trajectory[-1] == letter:
                warnings.append(names[letter])
                break
    if not best:
        return None
    return len(best) - 1, tuple(names[x] for x in best), tuple(skipped), tuple(warnings)


def _orbit_fields(result):
    """The fields of an ``lc_upper_bound`` result that ``_walked_orbit`` gives."""
    if result is None:
        return None
    bound, orbit = result
    assert bound == Fraction(2, orbit.steps) and orbit.best_start == orbit.trajectory[0]
    return orbit.steps, orbit.trajectory, orbit.skipped_sides, orbit.cycle_warnings


def gamma(g):
    return build_path(fg_start(g), "ftb^%d" % g)


@st.composite
def arbitrary_paths(draw):
    n = draw(st.integers(2, 5))
    top = tuple(draw(st.permutations(list(range(n)))))
    bottom = tuple(draw(st.permutations(list(range(n)))))
    start = LabeledPermutation(default_alphabet(n), top, bottom)
    assume(is_irreducible(start))
    return AllowedPath(start, draw(st.text("tbf", max_size=12)))


@given(arbitrary_paths())
@settings(max_examples=60, deadline=None)
def test_certify_is_internally_consistent_on_arbitrary_paths(path):
    if not path.allowed:
        with pytest.raises(NotAllowedError):
            certify(path)
        return
    cert = certify(path, tol=Fraction(1, 10**6))
    assert cert.primitive == (cert.positive_power is not None)
    assert (cert.lam is not None) == cert.primitive
    assert cert.verdict == ("pseudo-Anosov" if cert.primitive else "inconclusive")
    if cert.genus < 2:
        assert cert.lc_upper is None and cert.lc_lower is None and cert.lc_lower_exact is None
        assert cert.warnings
    else:
        assert (cert.lc_lower_exact is not None) == cert.primitive
    if cert.lc_lower is not None:
        assert cert.lc_lower <= cert.lc_lower_exact
    if cert.lc_lower_exact is not None and cert.lc_upper is not None:
        assert cert.lc_lower_exact <= cert.lc_upper
    data = certificate_to_json(cert)
    assert json.loads(json.dumps(data)) == data


class TestCertify:
    @pytest.mark.parametrize("g", range(2, 9))
    def test_family_certified(self, g):
        cert = certify(gamma(g))
        assert cert.verdict == "pseudo-Anosov"
        assert cert.primitive
        assert cert.lam.low**2 >= 2
        assert cert.genus == g

    def test_single_flip_inconclusive(self):
        path = build_path(parse("A B C / C A B"), "f")
        cert = certify(path)
        assert not cert.primitive
        assert cert.verdict == "inconclusive"
        assert cert.matrix * cert.matrix == IntMatrix.identity(3)

    def test_empty_path_inconclusive(self):
        cert = certify(AllowedPath(central(3), ""))
        assert cert.verdict == "inconclusive"
        assert cert.lam is None and cert.lc_lower is None and cert.lc_lower_exact is None

    def test_rejects_not_allowed(self):
        with pytest.raises(NotAllowedError):
            certify(build_path(central(3), "b"))

    def test_torus_case_flagged(self):
        cert = certify(AllowedPath(central(2), "tt"))
        assert cert.genus == 1
        assert cert.lc_upper is None and cert.lc_lower is None and cert.lc_lower_exact is None
        assert any("torus" in w or "genus" in w for w in cert.warnings)

    def test_stretch_length_is_log_of_bracket(self):
        cert = certify(gamma(2))
        low, high = cert.lam.log_bounds()
        assert math.isclose(low, math.log(float(cert.lam.low)), rel_tol=1e-9)
        assert low <= high

    def test_json_roundtrip(self):
        # every value is JSON-native: no tuple, Fraction or int-valued key
        data = certificate_to_json(certify(gamma(3)))
        assert json.loads(json.dumps(data)) == data


class TestUpperBound:
    @pytest.mark.parametrize("g", range(2, 9))
    def test_family_bound(self, g):
        path = gamma(g)
        bound, orbit = lc_upper_bound(path, glue(path.start))
        assert bound == Fraction(1, g - 1)
        assert orbit.steps == 2 * g - 2
        assert orbit.best_start == "a%d" % (2 * g - 1)
        assert orbit.winners == {"a%d" % g, "a%d" % (2 * g)}

    def test_genus_two_trajectory(self):
        path = gamma(2)
        _, orbit = lc_upper_bound(path, glue(path.start))
        assert orbit.trajectory == ("a3", "a1", "a2")

    def test_trajectory_interior_avoids_winners(self):
        for g in (3, 5):
            path = gamma(g)
            _, orbit = lc_upper_bound(path, glue(path.start))
            assert all(x not in orbit.winners for x in orbit.trajectory[:-1])
            assert orbit.trajectory[-1] in orbit.winners

    def test_full_winner_set_yields_none(self):
        # a primitive loop wins with every letter, leaving no side to track
        path = build_path(central(4), "ttbtbbtb", reading="ltr")
        assert path.end == central(4)
        assert {winner for winner, _ in path.updates} == set(range(4))
        assert min_positive_power(path_matrix(path)) is not None
        assert lc_upper_bound(path, glue(path.start)) is None

    def test_genus_below_two_refused(self):
        path = AllowedPath(central(2), "tt")
        with pytest.raises(ValueError):
            lc_upper_bound(path, glue(path.start))

    def test_orbit_map_matches_top_rows(self):
        path = gamma(2)
        _, orbit = lc_upper_bound(path, glue(path.start))
        assert orbit.orbit_map == {"a1": "a2", "a2": "a3", "a3": "a1", "a4": "a4"}

    def test_orbit_map_inverts_the_path_relabeling(self):
        for g in range(2, 9):
            path = gamma(g)
            names = path.start.alphabet
            sigma = lc_upper_bound(path, glue(path.start))[1].orbit_map
            assert sorted(sigma) == sorted(names)
            for letter, image in enumerate(path.relabel):
                assert sigma[names[image]] == names[letter]

    @pytest.mark.parametrize("g", range(2, 8))
    def test_best_steps_match_matrix_row_oracle(self, g):
        # independent oracle: read the image of each never-winner side off
        # its unit matrix row instead of the top-row map, then re-derive the
        # longest run before hitting a winner
        path = gamma(g)
        matrix = path_matrix(path)
        winners = {path.start.alphabet[winner] for winner, _ in path.updates}
        alphabet = path.start.alphabet
        index = {letter: i for i, letter in enumerate(alphabet)}
        image = {}
        for letter in alphabet:
            if letter in winners:
                continue
            row = matrix.rows[index[letter]]
            assert sum(row) == 1
            image[letter] = alphabet[row.index(1)]
        best = 0
        for start in image:
            steps, current, seen = 0, start, {start}
            while current in image:
                current = image[current]
                steps += 1
                if current in seen:
                    steps = 0
                    break
                seen.add(current)
            best = max(best, steps)
        bound, orbit = lc_upper_bound(path, glue(path.start))
        assert orbit.steps == best
        assert bound == Fraction(2, best)

    @settings(max_examples=150, deadline=None)
    @given(allowed_paths(max_n=7))
    def test_matches_walk_from_every_start(self, path):
        surface = glue(path.start)
        if surface.genus < 2:
            with pytest.raises(ValueError):
                lc_upper_bound(path, surface)
        else:
            assert _orbit_fields(lc_upper_bound(path, surface)) == _walked_orbit(path, surface)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_walk_on_any_sigma_and_winners(self, data):
        # lc_upper_bound reads only these fields, so any relabeling, winner
        # set and closed sides reach every branch: skipped sides, winnerless
        # cycles, ties between starts
        n = data.draw(st.integers(2, 12))
        relabel = tuple(data.draw(st.permutations(range(n))))
        winners = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        closed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        start = SimpleNamespace(n=n, alphabet=default_alphabet(n))
        path = SimpleNamespace(
            allowed=True, start=start, relabel=relabel, updates=[(w, 0) for w in winners]
        )
        surface = SimpleNamespace(genus=2, side_closed=dict(zip(start.alphabet, closed)))
        assert _orbit_fields(lc_upper_bound(path, surface)) == _walked_orbit(path, surface)


class TestNeverWinnerRows:
    def test_family_rows_are_units(self):
        for g in (2, 3, 4):
            path = gamma(g)
            check_never_winner_rows(path, path_matrix(path))

    def test_random_paths(self):
        rng = random.Random(11)
        for path in random_allowed_paths(rng, 40):
            check_never_winner_rows(path, path_matrix(path))

    def test_not_allowed_path_refused(self):
        with pytest.raises(NotAllowedError):
            check_never_winner_rows(build_path(central(3), "b"), IntMatrix.identity(3))

    def test_tampered_matrix_detected(self):
        path = gamma(2)
        rows = [list(r) for r in path_matrix(path).rows]
        rows[0][0] += 1  # a1 never wins, so its row must stay a unit vector
        with pytest.raises(RuntimeError):
            check_never_winner_rows(path, IntMatrix.from_rows(rows))

    def test_certify_checks_its_matrix(self, monkeypatch):
        import rauzycert.pa as pa

        path = gamma(2)
        rows = [list(r) for r in path_matrix(path).rows]
        rows[0][0] += 1
        monkeypatch.setattr(pa, "path_matrix", lambda p: IntMatrix.from_rows(rows))
        with pytest.raises(RuntimeError, match="never-winner row 'a1'"):
            certify(path)


class TestLowerBound:
    @pytest.mark.parametrize("g", range(2, 9))
    def test_family_diagonal_cap(self, g):
        cert = certify(gamma(g))
        assert cert.lc_lower == lc_lower_bound(g, 4 * g) == Fraction(1, 16 * g - 12)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_family_exact_at_least_paper(self, g):
        cert = certify(gamma(g))
        assert cert.lc_lower_exact == lc_lower_bound(g, cert.positive_power)
        assert cert.positive_power <= 4 * g
        assert cert.lc_lower_exact >= cert.lc_lower

    def test_exact_exponent_never_exceeds_cap_when_diagonal_positive(self):
        for g in range(2, 7):
            matrix = path_matrix(gamma(g))
            assert any(x > 0 for x in matrix.diagonal())
            assert min_positive_power(matrix) <= 2 * matrix.order

    def test_non_primitive_gives_none(self):
        cert = certify(AllowedPath(central(4), ""))
        assert cert.genus == 2 and not cert.primitive
        assert cert.lc_lower is None and cert.lc_lower_exact is None

    def test_zero_diagonal_refused_in_diagonal_cap(self):
        # a genus-2 loop whose primitive path matrix has a zero diagonal
        path = build_path(parse("a5 a3 a1 a4 a2 / a4 a2 a5 a1 a3"), "tbbf", reading="ltr")
        cert = certify(path)
        assert cert.genus == 2 and cert.positive_power == 6
        assert not any(cert.matrix.diagonal())
        assert cert.lc_lower is None
        assert cert.lc_lower_exact == lc_lower_bound(2, 6) == Fraction(1, 18)

    def test_bounds_are_ordered(self):
        for g in range(2, 9):
            cert = certify(gamma(g))
            assert cert.lc_lower <= cert.lc_lower_exact <= cert.lc_upper

    def test_genus_below_two_refused(self):
        path = AllowedPath(central(2), "tb")
        power = min_positive_power(path_matrix(path))
        assert power is not None
        with pytest.raises(ValueError):
            lc_lower_bound(glue(path.start).genus, power)


class TestOrderingOnRandomPaths:
    def test_lower_at_most_upper_whenever_both_exist(self):
        rng = random.Random(23)
        seen = 0
        for path in random_allowed_paths(rng, 60, min_n=4, max_n=6):
            cert = certify(path, tol=Fraction(1, 10**6))
            if cert.lam is not None:
                # primitive integer matrices of order >= 2 stretch strictly
                assert cert.lam.low >= 1
                assert cert.lam.high > 1
            if cert.lc_lower_exact is not None and cert.lc_upper is not None:
                seen += 1
                assert cert.lc_lower_exact <= cert.lc_upper
        # the property must actually have been exercised
        assert seen >= 1
