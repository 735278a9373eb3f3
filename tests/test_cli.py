import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rauzycert import cli, diagram, fg, pa, penner
from rauzycert.cli import main
from rauzycert.jsonutil import decimal_str
from rauzycert.perm import central


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPerm:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "perm", "--fg-start", "2", "--format", "text")
        assert code == 0
        assert out == "a1 a2 a3 a4 / a4 a1 a3 a2\n"

    def test_json_output_includes_surface(self, capsys):
        code, out, _ = run(capsys, "perm", "--central", "4")
        data = json.loads(out)
        assert code == 0
        assert data["irreducible"] is True
        assert data["unlabeled"] == [4, 3, 2, 1]
        assert data["surface"]["genus"] == 2
        assert data["stratum"] == "H(2)"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "perm", "--perm", "A B / B A A")
        assert code == 1
        assert err.startswith("parse error:")


class TestMove:
    def test_top_move(self, capsys):
        code, out, _ = run(capsys, "move", "--start", "A B C D / D C B A", "--kind", "t")
        data = json.loads(out)
        assert code == 0
        assert data["target_display"] == "A B C D / D A C B"
        assert data["winner"] == "D" and data["loser"] == "A"

    def test_reducible_rejected(self, capsys):
        code, _, err = run(capsys, "move", "--start", "A B / A B", "--kind", "t")
        assert code == 1
        assert err.startswith("reducible error:")


class TestDiagram:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "diagram", "--central", "3", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count(" -> ") == 6

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "diagram", "--central", "4")
        data = json.loads(out)
        assert code == 0
        assert data["size"] == 7
        assert data["injective"] is True

    def test_cap_error(self, capsys):
        code, _, err = run(capsys, "diagram", "--central", "6", "--cap", "3")
        assert code == 1
        assert err.startswith("cap error:")

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_nonpositive_cap_rejected(self, capsys, cap):
        # checked before the path is built
        code, out, err = run(capsys, "diagram", "--start", "A B / A B", "--cap", cap)
        assert (code, out, err) == (1, "", "error: --cap must be >= 1, got %s\n" % cap)

    def test_arbitrary_start(self, capsys):
        code, out, _ = run(capsys, "diagram", "--start", "A B C D / D A C B")
        data = json.loads(out)
        assert code == 0
        assert data["seed"] == "A B C D / D A C B"
        assert data["size"] >= 1

    @pytest.mark.parametrize("fmt,bound", [("json", 1_300_000), ("dot", 210_000)])
    def test_largest_write_is_one_block(self, fmt, bound, monkeypatch):
        # --central 12 prints 1,687,060 characters of JSON and 317,950 of
        # DOT; its largest write, one block of vertex text, stays below
        # ``bound``, so a whole document or section written at once fails
        class Recorder:
            largest = total = 0

            def write(self, text):
                Recorder.largest = max(Recorder.largest, len(text))
                Recorder.total += len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["diagram", "--central", "12", "--format", fmt]) == 0
        assert Recorder.total == {"json": 1_687_060, "dot": 317_950}[fmt]
        assert 0 < Recorder.largest < bound

    @pytest.mark.parametrize("n, cap", [(6, 30), (21, diagram.DEFAULT_CAP), (128, 10**30)])
    def test_central_over_cap_exits_before_explore(self, capsys, monkeypatch, n, cap):
        # the component of central(n) has 2^(n-1) - 1 vertices, so a smaller
        # cap is refused before the search
        def fail(*args, **kwargs):
            raise AssertionError("explore ran")

        monkeypatch.setattr(diagram, "explore", fail)
        assert run(capsys, "diagram", "--central", str(n), "--cap", str(cap)) == (
            1, "", "cap error: component exceeds the %d-vertex cap from %s\n"
            % (cap, central(n).display())
        )
        # a cap that the component fits is passed on to the search
        with pytest.raises(AssertionError, match="explore ran"):
            run(capsys, "diagram", "--central", str(n), "--cap", str(2 ** (n - 1) - 1))

    def test_augmented_flag(self, capsys):
        plain = json.loads(run(capsys, "diagram", "--central", "4")[1])
        augmented = json.loads(run(capsys, "diagram", "--central", "4", "--augmented")[1])
        assert len(augmented["edges"]) == 3 * augmented["size"]
        assert len(plain["edges"]) == 2 * plain["size"]


class TestPath:
    def test_not_allowed_exits_one(self, capsys):
        code, out, _ = run(capsys, "path", "--start", "A B C / C B A", "--moves", "b")
        assert code == 1
        assert json.loads(out)["allowed"] is False

    def test_allowed_family_word(self, capsys):
        code, out, _ = run(
            capsys, "path", "--start", "a1 a2 a3 a4 / a4 a1 a3 a2", "--moves", "ftb^2"
        )
        data = json.loads(out)
        assert code == 0
        assert data["allowed"] is True
        assert data["execution_word"] == "bbtf"

    def test_reading_flag_echoed(self, capsys):
        _, out, _ = run(
            capsys,
            "path", "--start", "A B C / C B A", "--moves", "tb", "--reading", "ltr",
        )
        data = json.loads(out)
        assert data["reading"] == "ltr" and data["execution_word"] == "tb"


class TestCertify:
    def test_family_certificate(self, capsys):
        code, out, _ = run(
            capsys,
            "certify", "--start", "a1 a2 a3 a4 / a4 a1 a3 a2", "--moves", "ftbb",
        )
        data = json.loads(out)
        assert code == 0
        assert data["verdict"] == "pseudo-Anosov"
        assert data["lc_upper"]["num"] == "1" and data["lc_upper"]["den"] == "1"
        assert data["lc_lower"] == {"decimal": "0.05", "num": "1", "den": "20"}

    def test_inconclusive_exits_two(self, capsys):
        code, out, _ = run(capsys, "certify", "--start", "A B C / C A B", "--moves", "f")
        assert code == 2
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_not_allowed_is_an_error(self, capsys):
        code, _, err = run(capsys, "certify", "--start", "A B C / C B A", "--moves", "b")
        assert code == 1
        assert err.startswith("path error:")

    @pytest.mark.parametrize("tol", ["0", "-1/2"])
    def test_nonpositive_tol_rejected(self, capsys, tol):
        # checked before the path is built
        code, out, err = run(capsys, "certify", "--start", "A B / A B", "--moves", "t",
                             "--tol=" + tol)
        assert (code, out, err) == (1, "", "error: tolerance must be positive\n")

    def test_exact_lower_mode(self, capsys):
        # the exact bound 1/(12g-12+p) rides along with the diagonal cap
        code, out, _ = run(
            capsys, "certify", "--start", "a1 a2 a3 a4 / a4 a1 a3 a2", "--moves", "ftbb"
        )
        data = json.loads(out)
        assert code == 0
        assert data["positive_power"] == 4
        assert data["lc_lower_exact"] == {"decimal": "0.0625", "num": "1", "den": "16"}

    def test_letters_cap_is_checked_before_the_path(self, capsys, monkeypatch):
        from rauzycert.pa import LETTERS_MAX
        from rauzycert.perm import central

        def start(n):
            return central(n).display()

        # 97 letters: refused before any move is walked
        monkeypatch.setattr(cli.diagram_mod, "build_path", None)
        assert run(capsys, "certify", "--start", start(LETTERS_MAX + 1), "--moves", "b") == (
            1, "", "error: certify's letter count must be <= 96, got 97\n"
        )
        monkeypatch.undo()
        # 96 letters pass the cap; b alone is not a loop there
        code, out, err = run(capsys, "certify", "--start", start(LETTERS_MAX), "--moves", "b")
        assert (code, out) == (1, "") and err.startswith("path error: cannot certify")

    def test_emitted_json_roundtrips_through_schema(self, capsys):
        from rauzycert.diagram import build_path
        from rauzycert.pa import certificate_to_json, certify
        from rauzycert.perm import parse

        start = "a1 a2 a3 a4 / a4 a1 a3 a2"
        _, out, _ = run(capsys, "certify", "--start", start, "--moves", "ftbb")
        data = json.loads(out)
        schema_fields = {k: v for k, v in data.items() if k not in ("input_word", "reading")}
        cert = certify(build_path(parse(start), "ftbb"))
        assert json.loads(json.dumps(certificate_to_json(cert))) == schema_fields

    def test_long_word_prints_every_digit(self, capsys):
        # 80,000 moves: the bracket's numerator has 4,732 digits and the
        # matrix entries up to 4,722, past the 4,300 that str() writes by
        # default (CPython 3.10.7 on)
        from rauzycert.diagram import build_path
        from rauzycert.pa import certify
        from rauzycert.perm import parse

        start, word = "a1 a2 a3 a4 / a4 a1 a3 a2", "ftbb" * 20_000
        code, out, err = run(capsys, "certify", "--start", start, "--moves", word)
        assert (code, err) == (0, "")
        data = json.loads(out)
        cert = certify(build_path(parse(start), word))
        assert cert.lam.low.numerator > 10**4300
        assert max(map(max, cert.matrix.rows)) > 10**4300
        assert [[_digits(x) for x in row] for row in data["matrix"]] == list(
            map(list, cert.matrix.rows)
        )
        for end in ("low", "high"):
            exact = getattr(cert.lam, end)
            printed = data["lambda"][end]
            assert (_digits(printed["num"]), _digits(printed["den"])) == (
                exact.numerator,
                exact.denominator,
            )
            assert printed["decimal"] == decimal_str(exact)


def _digits(text: str) -> int:
    """int(text) read 1,000 digits at a time, below any digit limit of int()."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestFg:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "fg", "--genus", "2")
        data = json.loads(out)
        assert code == 0
        assert data["passed"] is True
        assert data["upper_bound"]["decimal"] == "1"

    def test_table(self, capsys):
        code, out, _ = run(capsys, "fg", "table", "--gmin", "2", "--gmax", "3")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "g,lambda_low,lambda_high,lc_upper,lc_lower_cap,lc_lower_exact"
        assert len(lines) == 3
        assert lines[1].startswith("2,1.7220838")

    @pytest.mark.parametrize("g", [2, 12, 36, 37, 40, 120])
    def test_table_and_report_print_one_bracket(self, capsys, g):
        # from g = 37 the low end is lifted above sqrt 2, in both
        _, table, _ = run(capsys, "fg", "table", "--gmin", str(g), "--gmax", str(g))
        code, report, _ = run(capsys, "fg", "--genus", str(g))
        lam = json.loads(report)["certificate"]["lambda"]
        assert code == 0
        assert table.splitlines()[1].split(",")[:3] == [
            str(g),
            lam["low"]["decimal"],
            lam["high"]["decimal"],
        ]

    def test_central_checks(self, capsys):
        code, out, _ = run(capsys, "fg", "central", "--n", "4")
        data = json.loads(out)
        assert code == 0
        assert data["passed"] is True and data["lc_lower"]["den"] == "22"

    def test_tol_before_subcommand(self, capsys):
        _, before, _ = run(capsys, "fg", "--tol", "1/1000", "table", "--gmax", "3")
        _, after, _ = run(capsys, "fg", "table", "--tol", "1/1000", "--gmax", "3")
        _, default, _ = run(capsys, "fg", "table", "--gmax", "3")
        assert before == after != default

    def test_table_exits_two_on_a_cell_that_is_not_primitive(self, capsys, monkeypatch):
        # the passing cells print as before; the cell of genus 3 (6 letters)
        # has no bracket and no lower bounds, and the table exits 2
        argv = ("fg", "table", "--gmax", "4")
        _, expected, _ = run(capsys, *argv)
        real = pa.min_positive_power
        monkeypatch.setattr(pa, "min_positive_power", lambda m: None if m.order == 6 else real(m))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (2, "")
        lines, before = out.splitlines(), expected.splitlines()
        assert lines[:2] + lines[3:] == before[:2] + before[3:]
        assert lines[2] == "3,,,%s,," % before[2].split(",")[3]

    def test_genus_required_without_subcommand(self, capsys):
        code, _, err = run(capsys, "fg")
        assert code == 1
        assert "genus" in err

    def test_genus_cap_exits_before_any_work(self, capsys, monkeypatch):
        top = fg.GENUS_MAX

        def fail(*args, **kwargs):
            raise AssertionError("an engine ran")

        monkeypatch.setattr(fg, "fg_start", fail)
        assert run(capsys, "fg", "--genus", str(top + 1)) == (
            1, "", "error: family genus g must be <= %d, got %d\n" % (top, top + 1)
        )
        monkeypatch.setattr(fg, "family_loop", fail)
        assert run(capsys, "fg", "table", "--gmax", str(top + 1)) == (
            1, "", "error: --gmax must be <= %d, got %d\n" % (top, top + 1)
        )


class TestPenner:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "penner", "--genus", "3", "--n", "2")
        data = json.loads(out)
        assert code == 0
        assert data["checks"]["power_identity"] is True
        assert data["min_row_sum_power"] == 3
        assert data["lc_upper"] == {"decimal": "0.5", "num": "1", "den": "2"}

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "penner", "sweep", "--gmax", "3", "--nmax", "2")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "g,n,rho_low,rho_high,min_row_sum_power,lc_upper"
        assert len(lines) == 3

    def test_sweep_exits_two_when_a_cell_fails(self, capsys, monkeypatch):
        # the same CSV, but a failed check in any cell is exit 2, as it is
        # for the single-cell report
        argv = ("penner", "sweep", "--gmax", "4", "--nmax", "2")
        _, expected, _ = run(capsys, *argv)
        real = penner.verify_power_identity
        monkeypatch.setattr(
            penner, "verify_power_identity", lambda p, power: (p.g, p.n) != (4, 1) and real(p, power)
        )
        assert run(capsys, *argv) == (2, expected, "")
        assert run(capsys, "penner", "--genus", "4", "--n", "1")[0] == 2
        assert run(capsys, "penner", "--genus", "3", "--n", "2")[0] == 0

    def test_diverge(self, capsys):
        code, out, _ = run(capsys, "penner", "diverge", "--genus", "3")
        data = json.loads(out)
        assert code == 0
        assert data["n"] == 27 and data["passed"] is True


    def test_tol_before_subcommand(self, capsys):
        _, loose, _ = run(capsys, "penner", "--tol", "1/10", "diverge", "--genus", "3")
        _, default, _ = run(capsys, "penner", "diverge", "--genus", "3")
        loose, default = json.loads(loose)["rho"], json.loads(default)["rho"]
        width = Fraction(int(loose["high"]["num"]), int(loose["high"]["den"])) - Fraction(
            int(loose["low"]["num"]), int(loose["low"]["den"])
        )
        assert width <= Fraction(1, 10)
        assert loose["iterations"] < default["iterations"]


    def test_matrices_built_once(self, capsys, monkeypatch):
        calls = []

        def counting_build(g, n):
            calls.append((g, n))
            return build(g, n)

        build = penner.build
        monkeypatch.setattr(penner, "build", counting_build)
        assert run(capsys, "penner", "--genus", "3", "--n", "5")[0] == 0
        assert calls == [(3, 5)]

    def test_genus_cap_exits_before_any_work(self, capsys, monkeypatch):
        top = penner.GENUS_MAX
        assert run(capsys, "penner", "--genus", str(top + 1), "--n", "5") == (
            1, "", "error: twist family genus g must be <= %d, got %d\n" % (top, top + 1)
        )

        def fail(*args, **kwargs):
            raise AssertionError("an engine ran")

        monkeypatch.setattr(penner, "build", fail)
        assert run(capsys, "penner", "sweep", "--gmax", str(top + 1)) == (
            1, "", "error: --gmax must be <= %d, got %d\n" % (top, top + 1)
        )
        top = cli.SWEEP_N_MAX
        assert run(capsys, "penner", "sweep", "--nmax", str(top + 1)) == (
            1, "", "error: --nmax must be <= %d, got %d\n" % (top, top + 1)
        )

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("--gmax", "2"), "error: --gmax must be >= 3, got 2"),
            (("--nmax", "0"), "error: --nmax must be >= 1, got 0"),
            (("--nmax", "-1"), "error: --nmax must be >= 1, got -1"),
        ],
    )
    def test_empty_grid_exits_before_any_work(self, capsys, monkeypatch, argv, line):
        # an empty grid is an error, not a bare CSV header
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran")

        monkeypatch.setattr(penner, "build", fail)
        assert run(capsys, "penner", "sweep", *argv) == (1, "", line + "\n")

    def test_grid_budget_exits_before_any_work(self, capsys, monkeypatch):
        # each flag within its cap, the grid over the budget: at --gmax 150
        # one column of n is estimated at 1.5 s, so --nmax 19 passes and 20
        # does not
        class Reached(Exception):
            pass

        def reach(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(penner, "build", reach)
        assert run(capsys, "penner", "sweep", "--gmax", "150", "--nmax", "20") == (
            1, "", "error: --nmax under the 30 s budget at --gmax 150 must be <= 19, got 20\n"
        )
        assert run(capsys, "penner", "sweep", "--gmax", "20", "--nmax", "5000") == (
            1, "", "error: --nmax under the 30 s budget at --gmax 20 must be <= 1843, got 5000\n"
        )
        for gmax, nmax in ((150, 19), (20, 1843), (6, cli.SWEEP_N_MAX), (10, cli.SWEEP_N_MAX)):
            with pytest.raises(Reached):
                run(capsys, "penner", "sweep", "--gmax", str(gmax), "--nmax", str(nmax))

    def test_verdicts_exact_at_coarse_tolerance(self, capsys):
        code, out, _ = run(capsys, "penner", "--genus", "5", "--n", "1000", "--tol", "1/10")
        data = json.loads(out)
        assert code == 0
        assert data["passed"] is True and all(data["checks"].values())


class TestTolFloor:
    """A --tol below the floor of the engine that would bracket it exits 1
    before any work, naming the floor; at the floor the command runs."""

    BISECTION = "error: --tol must be >= 1e-60, the floor of the closed-form bisection\n"

    @pytest.fixture
    def no_engine(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran")

        for module, name in ((fg, "family_report"), (fg, "family_certificate"),
                             (penner, "build"), (penner, "diverging_sequence"),
                             (cli.diagram_mod, "build_path")):
            monkeypatch.setattr(module, name, fail)

    @pytest.mark.parametrize(
        "argv",
        [
            ("fg", "--genus", "3", "--tol", "1e-10000"),
            ("fg", "--genus", "250", "--tol", "1e-61"),
            ("fg", "table", "--gmax", "250", "--tol", "1e-61"),
            ("penner", "--genus", "150", "--n", "5", "--tol", "1e-1000"),
            ("penner", "sweep", "--gmax", "40", "--nmax", "5", "--tol", "1e-300"),
            ("penner", "diverge", "--genus", "8", "--tol", "1e-61"),
        ],
    )
    def test_bisection_floor(self, capsys, no_engine, argv):
        assert cli.BISECTION_DIGITS_MAX == 60
        assert run(capsys, *argv) == (1, "", self.BISECTION)

    @pytest.mark.parametrize("letters, digits", [(4, 24000), (96, 1000)])
    def test_newton_floor_shrinks_with_the_letters(self, capsys, no_engine, letters, digits):
        rows = ["a%d" % i for i in range(1, letters + 1)]
        start = "%s / %s" % (" ".join(rows), " ".join(rows[::-1]))
        assert run(capsys, "certify", "--start", start, "--moves", "b",
                   "--tol", "1e-%d" % (digits + 1)) == (
            1, "", "error: --tol must be >= 1e-%d, the floor of certify's Newton on %d letters\n"
            % (digits, letters)
        )

    def test_the_floors_themselves_run(self, capsys):
        assert run(capsys, "fg", "--genus", "3", "--tol", "1e-60")[0] == 0
        assert run(capsys, "penner", "--genus", "3", "--n", "5", "--tol", "9e-61") == (
            1, "", self.BISECTION
        )
        assert run(capsys, "penner", "--genus", "3", "--n", "5", "--tol", "1e-60")[0] == 0
        code, out, _ = run(capsys, "certify", "--start", "a1 a2 a3 a4 / a4 a1 a3 a2",
                           "--moves", "ftbb", "--tol", "1e-24000")
        assert code == 0 and json.loads(out)["verdict"] == "pseudo-Anosov"

    @pytest.mark.parametrize(
        "argv, twist",
        [
            (("penner", "--genus", "3", "--n", str(10**60 + 1)), "--n"),
            (("penner", "--genus", "150", "--n", str(10**1000)), "--n"),
            (("penner", "diverge", "--genus", "38"), "n = g^g at --genus 38"),
        ],
    )
    def test_twist_count_limit(self, capsys, monkeypatch, argv, twist):
        # the bisection halves from n + 5, so n shares the 60-digit limit
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran")

        monkeypatch.setattr(penner, "stretch_bounds", fail)
        assert run(capsys, *argv) == (
            1, "", "error: %s must be <= 10^60, the limit of the closed-form bisection\n" % twist
        )

    def test_the_twist_count_limit_itself_runs(self, capsys):
        code, out, _ = run(capsys, "penner", "--genus", "3", "--n", str(10**60), "--tol", "1e-60")
        assert code == 0 and json.loads(out)["n"] == 10**60
        code, out, _ = run(capsys, "penner", "diverge", "--genus", "37", "--tol", "1e-60")
        assert code == 0 and json.loads(out)["n"] == 37**37

    def test_sweep_estimate_grows_with_the_bits_asked(self, capsys, monkeypatch):
        # 1e-60 asks for 200 bits, the default 1e-9 for 30: the estimate
        # grows 20/3 times, so at --gmax 40 the largest --nmax falls from
        # 485 to 72
        class Reached(Exception):
            pass

        def reach(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(penner, "build", reach)
        budget = "error: --nmax under the 30 s budget at --gmax 40 must be <= %d, got %d\n"
        argv = ("penner", "sweep", "--gmax", "40", "--nmax", "73", "--tol", "1e-60")
        assert run(capsys, *argv) == (1, "", budget % (72, 73))
        assert run(capsys, "penner", "sweep", "--gmax", "40", "--nmax", "5000") == (
            1, "", budget % (485, 5000)
        )
        for tol in ("1e-60", "1/10"):
            with pytest.raises(Reached):
                run(capsys, "penner", "sweep", "--gmax", "40", "--nmax", "72", "--tol", tol)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "--start", "a1 a2 a3 a4 / a4 a1 a3 a2", "--moves", "ftbb"),
            ("diagram", "--central", "4", "--format", "dot"),
            ("fg", "table", "--gmin", "2", "--gmax", "3"),
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2

    def test_no_ansi_escapes(self, capsys):
        _, out, err = run(capsys, "fg", "--genus", "2")
        assert "\x1b" not in out and "\x1b" not in err


class TestErrorPrefixes:
    """One input per error class, with the exact stderr line it prints."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("perm", "--perm", "A B / A C"), "parse error: rows use different letter sets"),
            (
                ("move", "--start", "A B / A B", "--kind", "t"),
                "reducible error: top move undefined on reducible permutation A B / A B",
            ),
            (
                ("certify", "--start", "A B C / C B A", "--moves", "b"),
                "path error: cannot certify: endpoints differ as unlabeled permutations"
                " (A B C / C B A vs A C B / C B A)",
            ),
            (
                ("diagram", "--central", "6", "--cap", "3"),
                "cap error: component exceeds the 3-vertex cap from"
                " a1 a2 a3 a4 a5 a6 / a6 a5 a4 a3 a2 a1",
            ),
            (("fg",), "error: fg needs --genus (or the table / central subcommand)"),
            (("fg", "table", "--gmin", "5", "--gmax", "3"), "error: --gmax must be >= 5, got 3"),
            (
                ("path", "--start", "A B / A B", "--moves", "tf"),
                "reducible error: top move undefined on reducible permutation B A / B A",
            ),
            (
                ("certify", "--start", "A B C / A C B", "--moves", "bf"),
                "reducible error: bottom move undefined on reducible permutation B C A / C B A",
            ),
            (("fg", "central", "--n", "23"), "error: n must be <= 22, got 23"),
            (
                ("diagram", "--central", "257"),
                "cap error: diagrams hold at most 128 letters, got 257",
            ),
            (
                ("perm", "--central", "100001"),
                "parse error: central permutation n must be <= 100000, got 100001",
            ),
            (
                ("diagram", "--central", "10000000"),
                "parse error: central permutation n must be <= 100000, got 10000000",
            ),
            (("fg", "table", "--gmin", "1"), "error: --gmin must be >= 2, got 1"),
            # the permutation is built before its stratum, so perm refuses
            # n = 1 as diagram does
            (("perm", "--central", "1"), "parse error: central permutation n must be >= 2, got 1"),
        ],
    )
    def test_cli_input(self, capsys, argv, line):
        assert run(capsys, *argv) == (1, "", line + "\n")



class TestIgnoredFlags:
    """A flag that the chosen mode does not read is an error, raised before
    any engine runs."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ("fg", "--genus", "5", "--tol", "1/10", "central", "--n", "4"),
                "error: fg central ignores --genus, --tol",
            ),
            (("fg", "--genus", "5", "table", "--gmax", "3"), "error: fg table ignores --genus"),
            (("fg", "--genus", "5", "central", "--n", "4"), "error: fg central ignores --genus"),
            (
                ("penner", "--genus", "4", "--n", "2", "sweep"),
                "error: penner sweep ignores --genus, --n",
            ),
            (("penner", "--n", "5", "diverge", "--genus", "3"), "error: penner diverge ignores --n"),
            (("fg", "--tol", "1/10", "central", "--n", "4"), "error: fg central ignores --tol"),
        ],
    )
    def test_exits_one_before_any_work(self, capsys, monkeypatch, argv, line):
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran")

        for module, name in [
            (penner, "build"),
            (fg, "family_report"),
            (fg, "central_component_checks"),
        ]:
            monkeypatch.setattr(module, name, fail)
        assert run(capsys, *argv) == (1, "", line + "\n")


class TestClosedPipe:
    def test_reader_closing_early_exits_one_without_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        script = "import sys; from rauzycert.cli import main; sys.exit(main(sys.argv[1:]))"
        # about 1.7 MB of JSON, far more than a pipe buffers
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "diagram", "--central", "12"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (1, b"")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "--start", "A B C / C B A"),
            ("certify", "--start", "A B C / C B A", "--moves", "tb", "--tol", "abc"),
            ("fg", "central"),
            ("certify", "--start", "A B C / C B A", "--moves", "tb", "--lower-mode", "exact"),
            ("homology-check", "--random", "1"),
            ("no-such-command",),
            (),
        ],
    )
    def test_rejected_command_line_returns_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)  # a SystemExit would fail the test
        assert (code, out) == (1, "")
        assert err.startswith("usage: rauzycert")

    def test_help_returns_zero(self, capsys):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: rauzycert")


# Every option of every command.  Adding or removing one changes this table,
# so the option surface only moves by a reviewed diff.
OPTIONS = {
    "perm": ["--perm", "--central", "--fg-start", "--format"],
    "move": ["--start", "--kind"],
    "diagram": ["--start", "--central", "--augmented", "--cap", "--format"],
    "path": ["--start", "--moves", "--reading"],
    "certify": ["--start", "--moves", "--reading", "--tol"],
    "fg": ["--genus", "--tol"],
    "fg table": ["--gmin", "--gmax", "--tol"],
    "fg central": ["--n", "--loop-len", "--samples"],
    "penner": ["--genus", "--n", "--tol"],
    "penner sweep": ["--gmax", "--nmax", "--tol"],
    "penner diverge": ["--genus", "--tol"],
}


def _option_table(parser, command=()) -> dict[str, list[str]]:
    table = {}
    if command:
        table[" ".join(command)] = [
            option
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        ]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_option_table(sub, command + (name,)))
    return table


def test_option_surface():
    assert _option_table(cli.build_parser()) == OPTIONS
