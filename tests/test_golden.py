"""Golden corpus: CLI stdout bytes and exit codes, compared byte for byte.

Each case in ``CASES`` has its captured stdout in ``tests/golden/<name>.out``
and its exit code in ``tests/golden/exits.json``.  A change that is meant
to alter an output regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py --capture

and the diff of ``tests/golden/`` then shows every altered byte.  Naming
cases after ``--capture`` rewrites only those cases and their exit codes,
so that a new case can be added without touching the captured ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rauzycert.cli import build_parser, main
from rauzycert.perm import central

GOLDEN = Path(__file__).parent / "golden"

FG_START_2 = "a1 a2 a3 a4 / a4 a1 a3 a2"
CENTRAL_5000 = central(5000).display()
LETTERS_97 = ["a%d" % i for i in range(1, 98)]

CASES: dict[str, tuple[str, ...]] = {
    **{"fg_central_n%d" % n: ("fg", "central", "--n", str(n)) for n in range(3, 15)},
    "fg_central_n9_loop12_samples5": (
        "fg", "central", "--n", "9", "--loop-len", "12", "--samples", "5"
    ),
    "fg_central_n8_loop24": ("fg", "central", "--n", "8", "--loop-len", "24"),
    "fg_central_n10_loop30": ("fg", "central", "--n", "10", "--loop-len", "30"),
    **{"fg_genus_%d" % g: ("fg", "--genus", str(g)) for g in range(2, 13)},
    "fg_table_gmax12": ("fg", "table", "--gmax", "12"),
    # the low end is lifted above sqrt 2 from g = 37
    "fg_table_gmin36_gmax40": ("fg", "table", "--gmin", "36", "--gmax", "40"),
    "certify_readme": ("certify", "--start", FG_START_2, "--moves", "ftbb"),
    "certify_readme_tol_1e300": (
        "certify", "--start", FG_START_2, "--moves", "ftbb", "--tol", "1e-300"
    ),
    "certify_inconclusive": ("certify", "--start", FG_START_2, "--moves", "bb"),
    "path_readme_allowed": ("path", "--start", FG_START_2, "--moves", "ftb^2"),
    "path_readme_not_allowed": ("path", "--start", "A B C / C B A", "--moves", "b"),
    "penner_g3_n5": ("penner", "--genus", "3", "--n", "5"),
    "penner_g3_n10e12": ("penner", "--genus", "3", "--n", "1000000000000"),
    "perm_readme_literal": ("perm", "--perm", "A B C / C B A"),
    "perm_readme_central5": ("perm", "--central", "5"),
    "perm_readme_fg_start2_text": ("perm", "--fg-start", "2", "--format", "text"),
    "move_readme_top": ("move", "--start", "A B C D / D C B A", "--kind", "t"),
    "move_bottom": ("move", "--start", "A B C D / D C B A", "--kind", "b"),
    "move_flip": ("move", "--start", "A C B / B A C", "--kind", "f"),
    "move_reducible_flip": ("move", "--start", "A B / A B", "--kind", "f"),
    **{
        "diagram_central_n%d_%s" % (n, fmt): ("diagram", "--central", str(n), "--format", fmt)
        for n in (3, 5, 9)
        for fmt in ("json", "dot")
    },
    **{
        "diagram_central_n4_augmented_%s" % fmt: (
            "diagram", "--central", "4", "--augmented", "--format", fmt
        )
        for fmt in ("json", "dot")
    },
    **{
        "diagram_start_abcd_%s" % fmt: ("diagram", "--start", "A B C D / D A C B", "--format", fmt)
        for fmt in ("json", "dot")
    },
    "diagram_start_augmented_json": (
        "diagram", "--start", "W X Y Z / Z X W Y", "--augmented"
    ),
    "diagram_reducible": ("diagram", "--start", "A B / A B"),
    "diagram_cap_exceeded": ("diagram", "--central", "6", "--cap", "10"),
    "diagram_cap_zero": ("diagram", "--central", "3", "--cap", "0"),
    "certify_tol_zero": ("certify", "--start", FG_START_2, "--moves", "ftbb", "--tol", "0"),
    "penner_sweep_default": ("penner", "sweep"),
    "penner_diverge_g3": ("penner", "diverge", "--genus", "3"),
    # exit 1: errors raised by the program
    "perm_parse_error": ("perm", "--perm", "A B / A C"),
    "move_reducible": ("move", "--start", "A B / A B", "--kind", "t"),
    "move_reducible_bottom": ("move", "--start", "A B / A B", "--kind", "b"),
    "path_bad_move_letter": ("path", "--start", "A B C / C B A", "--moves", "x"),
    "path_reducible_start": ("path", "--start", "A B / A B", "--moves", "tf"),
    "path_reducible_flip_not_allowed": ("path", "--start", "A B C / A C B", "--moves", "f"),
    "path_moves_above_cap": ("path", "--start", "A B C / C B A", "--moves", "b^1000001"),
    "fg_bare": ("fg",),
    "fg_central_negative_samples": (
        "fg", "central", "--n", "4", "--samples", "-1", "--loop-len", "14"
    ),
    "fg_central_n_above_cap": ("fg", "central", "--n", "23"),
    "diagram_central_above_row_letters": ("diagram", "--central", "257"),
    "diagram_central_129": ("diagram", "--central", "129"),
    "perm_central_above_max_letters": ("perm", "--central", "100001"),
    "fg_central_loop_len_zero": ("fg", "central", "--n", "5", "--loop-len", "0"),
    "fg_central_loop_len_above_cap": ("fg", "central", "--n", "5", "--loop-len", "49"),
    "fg_central_samples_above_cap": ("fg", "central", "--n", "5", "--samples", "13"),
    "penner_genus_without_n": ("penner", "--genus", "3"),
    "penner_diverge_above_cap": ("penner", "diverge", "--genus", "2000"),
    "penner_genus_above_cap": ("penner", "--genus", "151", "--n", "5"),
    "penner_sweep_gmax_above_cap": ("penner", "sweep", "--gmax", "151"),
    "penner_sweep_nmax_above_cap": ("penner", "sweep", "--nmax", "5001"),
    # each flag at its cap, the grid over the 30 s budget
    "penner_sweep_grid_above_budget": ("penner", "sweep", "--gmax", "150", "--nmax", "5000"),
    "fg_genus_above_cap": ("fg", "--genus", "251"),
    "certify_letters_above_cap": (
        "certify", "--start", "%s / %s" % (" ".join(LETTERS_97), " ".join(LETTERS_97[::-1])),
        "--moves", "b",
    ),
    "fg_table_gmax_above_cap": ("fg", "table", "--gmax", "251"),
    # exit 1: an empty grid, refused before any work
    "fg_table_gmin_above_gmax": ("fg", "table", "--gmin", "5", "--gmax", "3"),
    "penner_sweep_gmax_below_3": ("penner", "sweep", "--gmax", "2"),
    "penner_sweep_nmax_zero": ("penner", "sweep", "--nmax", "0"),
    # exit 1: a flag that the chosen mode does not read
    "fg_genus_with_table": ("fg", "--genus", "5", "table", "--gmax", "3"),
    "penner_sweep_with_genus_n": ("penner", "--genus", "4", "--n", "2", "sweep"),
    "penner_diverge_with_n": ("penner", "--n", "5", "diverge", "--genus", "3"),
    "fg_central_with_tol": ("fg", "--tol", "1/10", "central", "--n", "4"),
    # exit 1: a twist count past the bisection's 60 digits (--n 10^1000 ran
    # past 120 s), a path of 10^6 moves on 5,000 letters (about 85 s) and a
    # table from genus 1, refused before any work
    "penner_n_above_limit": ("penner", "--genus", "3", "--n", str(10**60 + 1)),
    "penner_diverge_g38": ("penner", "diverge", "--genus", "38"),
    "path_letter_moves_above_limit": ("path", "--start", CENTRAL_5000, "--moves", "b^1000000"),
    "fg_table_gmin_below_2": ("fg", "table", "--gmin", "1"),
    # exit 1: a --tol below its engine's floor, refused before any work
    "fg_genus_tol_below_floor": ("fg", "--genus", "3", "--tol", "1e-10000"),
    "certify_tol_below_floor": (
        "certify", "--start", FG_START_2, "--moves", "ftbb", "--tol", "1e-1000000"
    ),
}

# exit 1: argparse rejects the command line, and main returns 1
ARGPARSE_ERROR_CASES: dict[str, tuple[str, ...]] = {
    "certify_missing_moves": ("certify", "--start", "A B C / C B A"),
    "certify_bad_tol": ("certify", "--start", "A B C / C B A", "--moves", "tb", "--tol", "abc"),
    "fg_central_missing_n": ("fg", "central"),
    # homology-check is not a command
    "homology_check_retired": ("homology-check", "--random", "1"),
}
CASES.update(ARGPARSE_ERROR_CASES)


# A preset and the command line it stands for: the exit code and the stdout
# must be equal byte for byte.
ALIASES: list[tuple[tuple[str, ...], tuple[str, ...]]] = [
    *[
        (("penner", "diverge", "--genus", str(g)), ("penner", "--genus", str(g), "--n", str(g**g)))
        for g in (3, 4)
    ],
    (("diagram", "--central", "4"), ("diagram", "--start", "a1 a2 a3 a4 / a4 a3 a2 a1")),
    (("perm", "--fg-start", "2"), ("perm", "--perm", FG_START_2)),
]


def run_case(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def capture(names=()) -> None:
    """Rewrite the named cases (all of them when none is named)."""
    unknown = set(names) - set(CASES)
    if unknown:
        raise KeyError("unknown golden case(s): %s" % ", ".join(sorted(unknown)))
    GOLDEN.mkdir(exist_ok=True)
    exits_path = GOLDEN / "exits.json"
    exits = json.loads(exits_path.read_text()) if names and exits_path.exists() else {}
    for name in names or CASES:
        code, stdout = run_case(CASES[name])
        (GOLDEN / (name + ".out")).write_bytes(stdout)
        exits[name] = code
    exits_path.write_text(json.dumps(exits, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_match_golden(name):
    code, stdout = run_case(CASES[name])
    assert code == json.loads((GOLDEN / "exits.json").read_text())[name]
    assert stdout == (GOLDEN / (name + ".out")).read_bytes()


@pytest.mark.parametrize("preset, spelled", ALIASES)
def test_preset_matches_its_spelled_out_command_line(preset, spelled):
    assert run_case(preset) == run_case(spelled)


# Outputs too large for the corpus, pinned by the SHA-1 of their stdout.
LARGE_OUTPUT_SHA1 = {
    ("diagram", "--central", "12"): "bb78e445a205919f92f842de09378aef9c7473b6",
    ("diagram", "--central", "12", "--format", "dot"): "6556a43c367224311f1bf544f1ba31df3cbee535",
    ("diagram", "--central", "6", "--augmented"): "c7e514c9f25a6664a9592b275b4ee57dc8b65658",
    ("fg", "central", "--n", "14"): "6c1b16a8593a30eb03bf98e352beeefb054c2caf",
    ("fg", "central", "--n", "16"): "2b9f6219e3b717bfb8746f86c0981ab8acc30444",
}


@pytest.mark.parametrize("argv, sha1", LARGE_OUTPUT_SHA1.items())
def test_large_output_sha1(argv, sha1):
    code, stdout = run_case(argv)
    assert (code, hashlib.sha1(stdout).hexdigest()) == (0, sha1)


# The lambda brackets of fg_genus_2 .. fg_genus_12 as (low, high) numerator
# and denominator pairs, when those files held Collatz-Wielandt brackets.
# fg_table_gmax12 printed the same brackets, truncated to decimals.
COLLATZ_WIELANDT_FAMILY_BRACKETS = {
    2: ((8746437060, 5078984561), (5020699207, 2915479020)),
    3: ((7193414736, 4622927485), (8708455627, 5596585255)),
    4: ((3159103423977, 2123801272381), (1919746732333, 1290606859904)),
    5: ((1031557480532273, 709889138944736), (1434233707338873, 986999706959221)),
    6: ((400852324088928562, 279371996375964075), (358848024414075051, 250097312365185070)),
    7: ((8462665207468912311, 5938690472940050081), (1440206646485001971, 1010667594185496701)),
    8: ((90735543781499906845, 63907966731724350792),
        (131899935196549094307, 92901373742249432188)),
    9: ((21281584119806604198999, 15018154278667873729301),
        (8930408854194723093068, 6302080573374355025819)),
    10: ((920014932423355263277319, 649887078457041268225073),
         (63734574749441035635404, 45021308994385665842041)),
    11: ((1169249416153128290522209, 826360332588248965833751),
         (1946648612237033545751902, 1375782763969848536176437)),
    12: ((12718658005700721155488021, 8991133528466425275249113),
         (122714313963027505328173151, 86749779849161804227176699)),
}


def test_family_brackets_overlap_the_collatz_wielandt_ones():
    def exact(side):
        return Fraction(int(side["num"]), int(side["den"]))

    table = (GOLDEN / "fg_table_gmax12.out").read_text().splitlines()[1:]
    assert len(table) == len(COLLATZ_WIELANDT_FAMILY_BRACKETS)
    slack = Fraction(1, 10**12)  # the table truncates to 12 decimal places
    for row in table:
        g, low, high = row.split(",")[:3]
        (old_low, old_high) = (Fraction(*pair) for pair in COLLATZ_WIELANDT_FAMILY_BRACKETS[int(g)])
        lam = json.loads((GOLDEN / ("fg_genus_%s.out" % g)).read_text())["certificate"]["lambda"]
        assert exact(lam["low"]) <= old_high and old_low <= exact(lam["high"]), g
        assert Fraction(low) <= old_high and old_low <= Fraction(high) + slack, g


# The lambda bracket of certify_readme as (low, high) numerator and
# denominator pairs, when that file held a Collatz-Wielandt bracket.
COLLATZ_WIELANDT_CERTIFY_README = ((8746437060, 5078984561), (5020699207, 2915479020))


def test_certify_bracket_overlaps_the_collatz_wielandt_one():
    def exact(side):
        return Fraction(int(side["num"]), int(side["den"]))

    old_low, old_high = (Fraction(*pair) for pair in COLLATZ_WIELANDT_CERTIFY_README)
    lam = json.loads((GOLDEN / "certify_readme.out").read_text())["lambda"]
    low, high = exact(lam["low"]), exact(lam["high"])
    assert low <= old_high and old_low <= high
    assert high - low <= Fraction(1, 10**9)


def test_shared_parser_leaks_no_state():
    """Every case in one process, forwards then backwards, with argparse
    rejections and a non-default --tol in between, matches the corpus."""
    assert build_parser() is build_parser()
    exits = json.loads((GOLDEN / "exits.json").read_text())

    def check(names):
        for name in names:
            code, stdout = run_case(CASES[name])
            assert (code, stdout) == (exits[name], (GOLDEN / (name + ".out")).read_bytes()), name

    check(sorted(CASES))
    check(sorted(ARGPARSE_ERROR_CASES))
    assert run_case(("fg", "--tol", "1/1000", "table", "--gmax", "3"))[0] == 0
    check(sorted(CASES, reverse=True))


if __name__ == "__main__":
    if sys.argv[1:2] != ["--capture"]:
        sys.exit("usage: python tests/test_golden.py --capture [NAME...]")
    capture(sys.argv[2:])
