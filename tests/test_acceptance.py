"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from rauzycert.cli import main as cli_main
from rauzycert.diagram import AllowedPath, build_path, explore
from rauzycert.fg import block_matrix, family_loop, family_report, central_component_checks
from rauzycert.linalg import IntMatrix, path_matrix
from rauzycert.pa import check_never_winner_rows
from rauzycert.penner import (
    build,
    homology_power_check,
    diverging_sequence,
    lc_upper_rotation,
    stretch_bounds,
    verify_power_identity,
)
from rauzycert.perm import central, fg_start, is_irreducible, parse
from rauzycert.surface import glue

from helpers import (
    all_standard_permutations,
    bisect_largest_root,
    det,
    min_row_sum,
    random_allowed_paths,
    sparse_rows,
)

TOL = Fraction(1, 10**9)
SLACK = Fraction(1, 10**6)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d (%s): FAIL" % (number, name))
        raise
    print("ACCEPTANCE %d (%s): PASS" % (number, name))


def test_criterion_1_worked_examples():
    with criterion(1, "worked move examples and the single-flip matrix"):
        assert build_path(parse("A B C D / D C B A"), "t").end.display() == "A B C D / D A C B"
        assert build_path(parse("A B C D / D C B A"), "b").end.display() == "A D B C / D C B A"
        assert build_path(parse("A C B / B A C"), "f").end.display() == "C A B / B C A"
        assert build_path(parse("A B C / C A B"), "f").end.display() == "B A C / C B A"
        flip_path = build_path(parse("A B C / C A B"), "f")
        assert path_matrix(flip_path) == IntMatrix.from_rows(
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )


def test_criterion_2_three_letter_component():
    with criterion(2, "three-letter component shape"):
        component = explore(parse("A B C / C B A"))
        assert {v.display() for v in component.vertices} == {
            "A C B / C B A",
            "A B C / C B A",
            "A B C / C A B",
        }
        displays = [v.display() for v in component.vertices]
        edges = [
            (displays[v], "tb"[move], displays[table[v]])
            for move, table in enumerate(component.succ)
            for v in range(len(component))
        ]
        assert len(edges) == 6
        assert ("A C B / C B A", "t", "A C B / C B A") in edges  # t self-loop
        assert ("A B C / C A B", "b", "A B C / C A B") in edges  # b self-loop
        assert ("A B C / C B A", "t", "A B C / C A B") in edges
        assert ("A B C / C A B", "t", "A B C / C B A") in edges
        assert ("A B C / C B A", "b", "A C B / C B A") in edges
        assert ("A C B / C B A", "b", "A B C / C B A") in edges


def test_criterion_3_family_loops():
    with criterion(3, "family loops: allowed, closed forms, surface"):
        for g in range(2, 11):
            path = family_loop(g)
            assert path.allowed
            assert AllowedPath(fg_start(g), path.moves[:g]).end == fg_start(g)
            assert path_matrix(path) == block_matrix(g)
            surface = glue(fg_start(g))
            assert surface.vertex_count == 1
            assert surface.genus == g


def test_criterion_4_translation_length_bounds():
    with criterion(4, "translation-length bounds for the family"):
        for g in range(2, 11):
            report = family_report(g, tol=TOL)
            cert = report.certificate
            assert cert.lc_upper == Fraction(1, g - 1)
            assert cert.orbit.steps == 2 * g - 2
            assert cert.lc_lower == Fraction(1, 16 * g - 12)
            assert cert.lc_lower_exact == Fraction(1, 12 * g - 12 + cert.positive_power)
            assert cert.lc_lower_exact >= cert.lc_lower
            assert cert.positive_power <= 4 * g - 4
            assert cert.lam.high - cert.lam.low <= TOL
            assert cert.lam.low**2 >= 2
        # genus 2: stretch factor against the bisected largest root of
        # x^4 - x^3 - x^2 - x + 1 (independent exact oracle)
        root_low, root_high = bisect_largest_root([1, -1, -1, -1, 1], 1.5, 2)
        lam = family_report(2, tol=TOL).certificate.lam
        mid = (lam.low + lam.high) / 2
        assert abs(mid - (root_low + root_high) / 2) <= Fraction(1, 10**6)


def test_criterion_5_central_component_checks():
    with criterion(5, "central-component structural checks"):
        for n in range(3, 8):
            report = central_component_checks(n)
            assert report.passed, report.checks
        started = time.monotonic()
        report = central_component_checks(8)
        elapsed = time.monotonic() - started
        assert report.passed, report.checks
        assert report.component_size == 127
        assert elapsed <= 5.0, "n = 8 took %.2fs" % elapsed


def test_criterion_6_twist_family_grid():
    with criterion(6, "twist-family power identity and stretch bounds"):
        for g in (3, 4, 5, 6):
            for n in (1, 2, 3, 10, 100):
                p = build(g, n)
                power = p.m**g
                assert verify_power_identity(p, sparse_rows(power))
                assert min_row_sum(power) == n + 1
                report = stretch_bounds(p, tol=TOL)
                assert report.rho.low**g >= n + 1 - SLACK
            assert lc_upper_rotation(g).bound == Fraction(1, g - 1)


def test_criterion_7_diverging_stretch_sequence():
    with criterion(7, "diverging stretch with bounded curve-graph length"):
        for g in (3, 4):
            report = stretch_bounds(diverging_sequence(g), tol=TOL)
            assert report.rho.low >= g - SLACK
        started = time.monotonic()
        report = stretch_bounds(diverging_sequence(5), tol=TOL)
        elapsed = time.monotonic() - started
        assert report.rho.low >= 5 - SLACK
        assert elapsed <= 30.0, "g = 5 took %.2fs" % elapsed


def test_criterion_8_homology_power_identity():
    with criterion(8, "block-triangular homology powers"):
        rng = random.Random(2024)
        for _ in range(100):
            d = rng.randint(1, 4)
            a = IntMatrix.from_rows(
                [[rng.randint(0, 5) for _ in range(d)] for _ in range(d)]
            )
            b = [rng.randint(0, 5) for _ in range(d)]
            assert homology_power_check(a, b, rng.randint(1, 10))


def test_criterion_9_property_suites(capsys):
    with criterion(9, "property suites"):
        # unimodular path matrices on 200 random allowed loops with n <= 6
        rng = random.Random(99)
        paths = random_allowed_paths(rng, 200, min_n=2, max_n=6)
        for path in paths:
            assert abs(det(path_matrix(path))) == 1

        # never-winner rows are unit vectors at the orbit-map image
        for path in paths[:50]:
            check_never_winner_rows(path, path_matrix(path))
        for g in range(2, 7):
            check_never_winner_rows(family_loop(g), path_matrix(family_loop(g)))

        # move-irreducibility preservation, exhaustive over the identity-top
        # representatives (irreducibility only depends on the unlabeled image)
        for n in range(2, 7):
            for p in all_standard_permutations(n):
                if is_irreducible(p):
                    assert is_irreducible(build_path(p, "t").end)
                    assert is_irreducible(build_path(p, "b").end)

        # flip involution, exhaustively for n <= 5 representatives plus the
        # random loop starts above
        for n in range(2, 6):
            for p in all_standard_permutations(n):
                assert build_path(p, "ff").end == p
        for path in paths[:50]:
            assert build_path(path.start, "ff").end == path.start

        # output determinism, byte for byte across two CLI runs
        for argv in (
            ["certify", "--start", "a1 a2 a3 a4 / a4 a1 a3 a2", "--moves", "ftbb"],
            ["diagram", "--central", "4", "--format", "dot"],
            ["fg", "table", "--gmin", "2", "--gmax", "3"],
        ):
            assert cli_main(list(argv)) in (0, 2)
            first = capsys.readouterr().out
            assert cli_main(list(argv)) in (0, 2)
            second = capsys.readouterr().out
            assert first == second and first
