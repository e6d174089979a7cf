"""Command-line behaviour: exit codes, reports, environment, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iolog
import iolog.derivation
import iolog.output
import iolog.reference
import iolog.worlds
from conftest import NESTINGS, TOO_DEEP, nested_text
from iolog import SO, TOP, WI, Norm, TopIntro
from iolog.cli import main
from iolog.formula import MAX_DEPTH
from iolog.reference import run_reference_matrix


@pytest.fixture
def norms_file(tmp_path):
    path = tmp_path / "norms.txt"
    path.write_text("(a, e)\n(b, e)\n", encoding="utf-8")
    return str(path)


def usage_error(argv: list[str], capsys) -> str:
    """What follows ``argument`` on the one error line of argparse's exit 2 for ``argv``."""
    with pytest.raises(SystemExit) as exit:
        main(argv)
    out, err = capsys.readouterr()
    assert (exit.value.code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"iolog {argv[0]}: error: argument ")
    return errors[0].split("error: argument ", 1)[1]


class TestCheck:
    def test_holding_membership_exits_zero(self, norms_file, capsys):
        assert main(["check", "--norms", norms_file, "--input", "a", "--goal", "e"]) == 0
        out = capsys.readouterr().out
        assert "holds: yes" in out
        assert "triggered: e" in out

    def test_failing_membership_exits_one(self, norms_file, capsys):
        assert main(["check", "--norms", norms_file, "--input", "a|b", "--goal", "e"]) == 1
        assert "holds: no" in capsys.readouterr().out

    def test_syntax_error_exits_two_with_position(self, norms_file, capsys):
        assert main(["check", "--norms", norms_file, "--input", "a||b", "--goal", "e"]) == 2
        err = capsys.readouterr().err
        assert "position 3" in err

    def test_norm_file_syntax_error_names_its_column_in_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("(a, b||c)\n")
        assert main(["check", "--norms", str(path), "--input", "a", "--goal", "b"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 1: syntax error at position 7: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("separator", ["\u2028", "\x0c", "\x85"], ids=repr)
    def test_a_comment_runs_to_the_newline(self, tmp_path, separator, capsys):
        """Only \\n, \\r\\n and \\r end a norm-file line, so the comment hides ``(a, f)``."""
        path = tmp_path / "commented.txt"
        path.write_text(f"(a, e) # was:{separator}(a, f)\n", encoding="utf-8")
        assert main(["check", "--norms", str(path), "--input", "a", "--goal", "f"]) == 1
        assert capsys.readouterr().out.startswith("norms: (a, e)\n")

    def test_missing_norms_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert main(["check", "--norms", missing, "--input", "a", "--goal", "e"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_norms_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"(a, \xe9)\n")
        assert main(["check", "--norms", str(path), "--input", "a", "--goal", "e"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_a_leading_byte_order_mark_is_skipped(self, norms_file, tmp_path, fmt, capsys):
        """A norm file saved with a UTF-8 byte-order mark gives the same report."""
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(norms_file).read_bytes())
        reports = []
        for path in (norms_file, str(marked)):
            argv = ["check", "--norms", path, "--input", "a", "--goal", "e", "--format", fmt]
            assert main(argv) == 0
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1]

    def test_derivation_engine_prints_certificate(self, norms_file, capsys):
        rc = main(
            ["check", "--norms", norms_file, "--input", "a", "--goal", "e",
             "--engine", "derivation"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "certificate:" in out
        assert "AX ⊢ (a, e)" in out

    def test_lifted_engine_prints_countermodel_on_failure(self, norms_file, capsys):
        rc = main(
            ["check", "--norms", norms_file, "--input", "a|b", "--goal", "e",
             "--engine", "lifted"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "countermodel:" in out
        assert "worlds: w0 w1" in out

    @pytest.mark.parametrize("engine", ["semantic", "derivation", "triple", "lifted"])
    @pytest.mark.parametrize("max_worlds", ["0", "-3"])
    def test_nonpositive_max_worlds_rejected_for_every_engine(
        self, norms_file, engine, max_worlds, capsys
    ):
        argv = ["check", "--norms", norms_file, "--input", "a", "--goal", "e",
                "--engine", engine, "--max-worlds", max_worlds]
        assert usage_error(argv, capsys) == f"--max-worlds: must be at least 1, got {max_worlds}"

    def test_every_engine_agrees_on_the_two_queries(self, norms_file):
        for engine in ("semantic", "derivation", "triple", "lifted"):
            assert (
                main(["check", "--norms", norms_file, "--input", "a", "--goal", "e",
                      "--engine", engine])
                == 0
            )
            assert (
                main(["check", "--norms", norms_file, "--input", "a|b", "--goal", "e",
                      "--engine", engine])
                == 1
            )

    def test_structured_output_is_json_with_schema_fields(self, norms_file, capsys):
        rc = main(
            ["check", "--norms", norms_file, "--input", "a", "--goal", "e",
             "--engine", "derivation", "--format", "structured"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["query"] == {
            "norms": ["(a, e)", "(b, e)"],
            "input": "a",
            "goal": "e",
            "operation": "out1",
        }
        assert doc["engine"] == "derivation"
        assert doc["holds"] is True
        assert doc["triggered"] == ["e"]
        assert [r["rule"] for r in doc["certificate"]["nodes"]] == ["AX", "WI", "SO"]
        assert [r["premises"] for r in doc["certificate"]["nodes"]] == [[], [0], [1]]


# Each subcommand's bound flags.
BOUND_FLAGS = [
    ("check", "--atom-limit"),
    ("check", "--max-worlds"),
    ("countermodel", "--max-worlds"),
    ("countermodel", "--budget"),
    ("naive", "--atom-limit"),
]


class TestBounds:
    @pytest.mark.parametrize("command, flag", BOUND_FLAGS, ids=str)
    @pytest.mark.parametrize(
        "value, reason",
        [
            ("0", "must be at least 1, got 0"),
            ("-3", "must be at least 1, got -3"),
            ("x", "invalid int value: 'x'"),
            ("1.5", "invalid int value: '1.5'"),
        ],
    )
    def test_a_bad_bound_is_one_argparse_error(
        self, norms_file, command, flag, value, reason, capsys
    ):
        query = ["--norms", norms_file, "--input", "a", "--goal", "e"]
        assert usage_error([command, *query, flag, value], capsys) == f"{flag}: {reason}"

    def test_a_bad_bound_is_reported_before_a_missing_norm_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        argv = ["check", "--norms", missing, "--input", "a", "--goal", "e", "--max-worlds", "0"]
        assert usage_error(argv, capsys) == "--max-worlds: must be at least 1, got 0"

    def test_countermodel_has_no_atom_limit(self, norms_file, capsys):
        argv = ["countermodel", "--norms", norms_file, "--input", "a", "--goal", "e",
                "--atom-limit", "3"]
        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == 2
        assert "unrecognized arguments: --atom-limit 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--atom-limit", "--max-worlds"])
    @pytest.mark.parametrize("value", ["3", "2", "0", "-3", "x", "1.5"])
    def test_examples_has_no_bound_flags(self, flag, value, capsys):
        """The regression matrix runs at fixed bounds: no value of either
        flag, in range or not, reaches a bound check."""
        with pytest.raises(SystemExit) as exit:
            main(["examples", flag, value])
        assert exit.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1", "lots"])
    def test_no_environment_variable_sets_the_atom_limit(self, norms_file, value, monkeypatch):
        monkeypatch.setenv("IOLOG_ATOM_LIMIT", value)
        assert main(["check", "--norms", norms_file, "--input", "a", "--goal", "e"]) == 0


class TestAtomLimit:
    def test_flag_overrides_env_var(self, norms_file, monkeypatch):
        monkeypatch.setenv("IOLOG_ATOM_LIMIT", "1")
        rc = main(
            ["check", "--norms", norms_file, "--input", "a", "--goal", "e",
             "--atom-limit", "16"]
        )
        assert rc == 0

    @pytest.mark.parametrize("engine", ["semantic", "derivation"])
    @pytest.mark.parametrize("last, rc", [(16, 1), (17, 2)])
    def test_limit_counts_each_entailment(self, tmp_path, engine, last, rc, capsys):
        """The query has 17 atoms or 18; only with 18 does one entailment have 17."""
        path = tmp_path / "wide.txt"
        path.write_text("(a, " + " & ".join(f"b{i}" for i in range(1, 9)) + ")\n")
        goal = " | ".join(f"b{i}" for i in range(9, last + 1))
        argv = ["check", "--norms", str(path), "--input", "a", "--goal", goal, "--engine", engine]
        assert main(argv) == rc
        out, err = capsys.readouterr()
        assert ("holds: no" in out) == (rc == 1)
        assert ("17 atoms" in err) == (rc == 2)

    def test_nonpositive_limit_rejected(self, norms_file, capsys):
        argv = ["check", "--norms", norms_file, "--input", "a", "--goal", "e", "--atom-limit", "0"]
        assert usage_error(argv, capsys) == "--atom-limit: must be at least 1, got 0"

    @pytest.mark.parametrize("command", ["check", "naive"])
    def test_tables_beyond_memory_exit_two(self, tmp_path, command):
        """A raised limit lets a query ask for tables at the ceiling, 2^25 bits each, which
        128 MiB cannot hold: the unfolding's over all 25 atoms, or check's entailment of
        the norm's 25-atom body from the input."""
        body_atoms = {"check": 25, "naive": 24}[command]
        argv = [command, "--input", "p0", "--goal", "e", "--atom-limit", str(body_atoms + 1)]
        done = run_in_128_mib(tmp_path, body_atoms, argv)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
        assert "--atom-limit" in done.stderr

    def test_search_beyond_memory_names_the_budget(self, tmp_path):
        """A raised budget lets a 25-atom search ask for 2^25-bit tables at one world; the
        search ignores --atom-limit, so the line names --budget."""
        argv = ["countermodel", "--input", "p0", "--goal", "e", "--budget", "25", "--max-worlds", "1"]
        done = run_in_128_mib(tmp_path, 24, argv)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: out of memory (a lower --budget bounds the search)\n"

    @pytest.mark.parametrize("argv, body_atoms, refused", [
        pytest.param(["check", "--atom-limit", "64"], 36, 36, id="check"),  # triggering
        pytest.param(["naive", "--atom-limit", "64"], 36, 37, id="naive"),  # every atom
        pytest.param(["countermodel", "--budget", "28"], 27, 28, id="countermodel"),
    ])
    def test_tables_past_the_ceiling_are_refused(self, tmp_path, argv, body_atoms, refused):
        """Past the table ceiling no bound admits a table: the query is refused before one
        is built, within the memory that a table at the ceiling would overrun."""
        argv = [argv[0], "--input", "p0", "--goal", "e", *argv[1:]]
        done = run_in_128_mib(tmp_path, body_atoms, argv)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: query involves {refused} atoms, exceeding the table ceiling of 25\n")


def run_in_128_mib(tmp_path, atoms: int, argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI on the norm file ``(p0 & ... & p<atoms-1>, e)`` in a child that caps its own
    address space at 128 MiB, so only the child runs short of memory."""
    pytest.importorskip("resource")  # the child caps itself through it
    limit = 128 << 20
    path = tmp_path / "wide.txt"
    path.write_text("(" + " & ".join(f"p{i}" for i in range(atoms)) + ", e)\n")
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from iolog.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(iolog.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", script, argv[0], "--norms", str(path), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestNestingLimit:
    @pytest.mark.parametrize("kind, depth, position", TOO_DEEP)
    def test_too_deep_input_exits_two(self, norms_file, kind, depth, position, capsys):
        argv = ["check", "--norms", norms_file, "--input", nested_text(kind, depth), "--goal", "e"]
        assert main(argv) == 2
        assert f"position {position}: formula nested more than" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, depth, position", TOO_DEEP)
    def test_too_deep_norm_exits_two(self, tmp_path, kind, depth, position, capsys):
        path = tmp_path / "deep.txt"
        path.write_text(f"(a, e)\n({nested_text(kind, depth)}, e)\n")
        assert main(["check", "--norms", str(path), "--input", "a", "--goal", "e"]) == 2
        # The position counts from the start of the line, where the body starts at column 2.
        assert f"line 2: syntax error at position {position + 1}" in capsys.readouterr().err

    def test_large_certificate_renders_structured_and_reads_back(self, tmp_path, capsys):
        """600 triggered norms conjoin 599 times; the flat certificate stays two levels
        deep, so the standard json module writes it and reads it back."""
        path = tmp_path / "many.txt"
        path.write_text("(a, e)\n" * 600)
        argv = ["check", "--norms", str(path), "--input", "a", "--goal", "e",
                "--engine", "derivation", "--format", "structured"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        certificate = iolog.derivation.derivation_from_dict(json.loads(out)["certificate"])
        assert len(out.encode()) < 2 << 20
        assert out.count('"rule": "AND"') == 599
        assert out.count('"rule": "WI"') == out.count('"rule": "AX"') == 600
        norms = iolog.parse_norms(path.read_text())
        goal = Norm(iolog.Atom("a"), iolog.Atom("e"))
        assert iolog.derivation.verify_derivation(norms, certificate, goal) is None

    @pytest.mark.parametrize("n", [500, 1000])
    def test_large_certificate_renders_as_text(self, tmp_path, n, capsys):
        """The printer has no recursion, so any certificate prints as text."""
        path = tmp_path / "many.txt"
        path.write_text("(a, e)\n" * n)
        argv = ["check", "--norms", str(path), "--input", "a", "--goal", "e",
                "--engine", "derivation"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.split("\n")
        certificate = lines[lines.index("certificate:") + 1:-1]
        rules = [line.split()[0] for line in certificate]
        assert rules[0] == "SO" and rules.count("SO") == 1
        assert (rules.count("AND"), rules.count("WI"), rules.count("AX")) == (n - 1, n, n)
        assert len(rules) == 3 * n
        assert certificate[1] == "  AND ⊢ (a, " + " & ".join(["e"] * n) + ")"

    @pytest.mark.parametrize("kind", NESTINGS)
    def test_formula_at_the_limit_renders_structured_output(self, tmp_path, kind, capsys):
        text = nested_text(kind, MAX_DEPTH)
        path = tmp_path / "deep.txt"
        path.write_text(f"({text}, {text})\n")
        argv = ["check", "--norms", str(path), "--input", text, "--goal", text,
                "--engine", "derivation", "--format", "structured"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["nodes"][-1]["rule"] == "SO"
        assert iolog.derivation.derivation_from_dict(doc["certificate"]) is not None


class TestCountermodel:
    def test_found_exits_zero_and_prints_model(self, norms_file, capsys):
        rc = main(
            ["countermodel", "--norms", norms_file, "--input", "a|b", "--goal", "e",
             "--mode", "outpre"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "countermodel found at 2 worlds:" in out
        assert "a = {w0}" in out
        assert "b = {w1}" in out

    def test_absent_exits_one(self, norms_file, capsys):
        rc = main(
            ["countermodel", "--norms", norms_file, "--input", "a", "--goal", "e",
             "--mode", "outpre"]
        )
        assert rc == 1
        assert "no countermodel up to 4 worlds" in capsys.readouterr().out

    def test_budget_exhaustion_exits_two(self, tmp_path, capsys):
        """25 atoms overrun the default budget at one world, and the line names it; 26 overrun
        the ceiling, which no budget raises, so that line names the ceiling."""
        for atoms, budget, line in [
            (25, [], "countermodel search at 1 worlds over 25 atoms tests 33554432 sets, "
                     "exceeding the search budget of 2^24"),
            (26, ["--budget", "25"], "query involves 26 atoms, exceeding the table ceiling of 25"),
        ]:
            body = " & ".join(f"x{i}" for i in range(atoms - 1))
            path = tmp_path / "wide.txt"
            path.write_text(f"({body}, e)\n", encoding="utf-8")
            argv = ["countermodel", "--norms", str(path), "--input", "true", "--goal", "true"]
            assert main([*argv, *budget]) == 2
            assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_check_and_countermodel_print_the_librarys_line(self, tmp_path, capsys):
        """Both commands print the refusal as the library words it, with no flag added: 13
        atoms hold at one world, and two test more sets than the default budget's 2^24."""
        path = tmp_path / "ae.txt"
        path.write_text("(a, e)\n", encoding="utf-8")
        input = " & ".join(["a", *(f"x{i}" for i in range(11))])
        query = ["--norms", str(path), "--input", input, "--goal", "e"]
        line = ("error: countermodel search at 2 worlds over 13 atoms tests 33550336 sets, "
                "exceeding the search budget of 2^24\n")
        assert main(["countermodel", *query]) == 2
        assert capsys.readouterr() == ("", line)
        assert main(["check", *query, "--engine", "lifted"]) == 2
        assert capsys.readouterr() == ("", line)
        assert main(["check", *query, "--engine", "lifted", "--max-worlds", "1"]) == 0

    def test_check_prints_the_one_world_line_past_the_budget(self, tmp_path, capsys):
        """At 25 atoms one world overruns the default budget, which check cannot raise; past
        the table ceiling no budget would, so the line names the ceiling instead."""
        for atoms, line in [
            (25, "countermodel search at 1 worlds over 25 atoms tests 33554432 sets, "
                 "exceeding the search budget of 2^24"),
            (26, "query involves 26 atoms, exceeding the table ceiling of 25"),
        ]:
            body = " & ".join(f"x{i}" for i in range(atoms - 1))
            path = tmp_path / "wide.txt"
            path.write_text(f"({body}, e)\n", encoding="utf-8")
            argv = ["check", "--norms", str(path), "--input", body, "--goal", "e",
                    "--engine", "lifted", "--atom-limit", "32"]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {line}\n"

    def test_past_one_world_the_ceiling_bounds_a_raised_budget(self, tmp_path, capsys):
        """Two worlds over 14 atoms test C(2^14, 2) sets, past 2^25, so whatever the budget
        the line names the table ceiling, which no budget raises."""
        path = tmp_path / "ae.txt"
        path.write_text("(a, e)\n", encoding="utf-8")
        input = " & ".join(["a", *(f"x{i}" for i in range(12))])
        query = ["--norms", str(path), "--input", input, "--goal", "e", "--max-worlds", "2"]
        line = ("error: countermodel search at 2 worlds over 14 atoms tests 134209536 sets, "
                "exceeding the table ceiling of 2^25\n")
        for budget in ("25", "100"):
            assert main(["countermodel", *query, "--budget", budget]) == 2
            assert capsys.readouterr() == ("", line)
        assert main(["countermodel", *query, "--max-worlds", "1"]) == 1

    def test_a_one_world_refusal_names_the_budget(self, tmp_path, capsys):
        """One world over n atoms tests 2^n sets: a budget of n - 1 refuses it, a budget of n
        searches it and refuses two worlds."""
        for atoms in (12, 13):
            body = " & ".join(f"p{i}" for i in range(atoms - 1))
            path = tmp_path / "wide.txt"
            path.write_text(f"({body}, e)\n", encoding="utf-8")
            argv = ["countermodel", "--norms", str(path), "--input", "true", "--goal", "true"]
            assert main([*argv, "--budget", str(atoms - 1)]) == 2
            assert capsys.readouterr().err == (
                f"error: countermodel search at 1 worlds over {atoms} atoms tests {2**atoms} "
                f"sets, exceeding the search budget of 2^{atoms - 1}\n")
        assert main([*argv, "--budget", "13", "--max-worlds", "2"]) == 2
        assert "at 2 worlds over 13 atoms" in capsys.readouterr().err
        assert main([*argv, "--budget", "13", "--max-worlds", "1"]) == 1
        assert "no countermodel up to 1 worlds" in capsys.readouterr().out

    def test_budget_below_one_is_a_config_error(self, norms_file, capsys):
        for budget in ("0", "-5"):
            argv = ["countermodel", "--norms", norms_file, "--input", "a", "--goal", "e",
                    "--budget", budget]
            assert usage_error(argv, capsys) == f"--budget: must be at least 1, got {budget}"

    def test_structured_output_contains_model(self, norms_file, capsys):
        rc = main(
            ["countermodel", "--norms", norms_file, "--input", "a|b", "--goal", "e",
             "--mode", "out1", "--format", "structured"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is False
        assert doc["countermodel"]["world_count"] == 2
        assert doc["query"]["operation"] == "out1"


class TestNaive:
    def test_unsound_witness_is_flagged(self, norms_file, capsys):
        rc = main(
            ["naive", "--norms", norms_file, "--input", "a|b", "--goal", "e",
             "--mode", "outpre"]
        )
        assert rc == 0
        assert "UNSOUND ENCODING WITNESS" in capsys.readouterr().out

    def test_agreeing_verdicts_are_not_flagged(self, norms_file, capsys):
        rc = main(
            ["naive", "--norms", norms_file, "--input", "a", "--goal", "e",
             "--mode", "outpre"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "UNSOUND" not in out
        assert "verdicts agree" in out

    def test_invalid_unfolding_exits_one(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("(a, e)\n", encoding="utf-8")
        rc = main(
            ["naive", "--norms", str(path), "--input", "b", "--goal", "e",
             "--mode", "outpre"]
        )
        assert rc == 1

    def test_structured_contrast(self, norms_file, capsys):
        rc = main(
            ["naive", "--norms", norms_file, "--input", "a|b", "--goal", "e",
             "--mode", "out1", "--format", "structured"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is True
        assert doc["contrast"] == {"semantic_holds": False, "disagreement": True}


class TestExamples:
    def test_fresh_build_matches_the_matrix(self, capsys):
        assert main(["examples"]) == 0
        assert "all outcomes match" in capsys.readouterr().out

    def test_structured_matrix(self, capsys):
        assert main(["examples", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mismatches"] == 0
        assert len(doc["rows"]) == 16
        assert doc["rows"] == run_reference_matrix()
        assert {tuple(row) for row in doc["rows"]} == {("example", "engine", "expected", "actual", "ok")}

    def test_catches_a_constructor_without_side_conditions(self, capsys, monkeypatch):
        """A builder that applies SO without its entailment side condition
        must be exposed by the matrix."""

        def lax_construct(norms, input, goal, *, atom_limit=16):
            return SO(WI(TopIntro(), input), goal)

        monkeypatch.setattr(iolog.derivation, "construct_derivation", lax_construct)
        assert main(["examples"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_catches_an_inverted_naive_oracle(self, capsys, monkeypatch):
        real = iolog.worlds.naive_unfold_valid

        def inverted(*args, **kwargs):
            return not real(*args, **kwargs)

        monkeypatch.setattr(iolog.worlds, "naive_unfold_valid", inverted)
        assert main(["examples"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_catches_a_semantic_reading_that_always_holds(self, capsys, monkeypatch):
        """The matrix's semantic rows go through ``output._semantic_holds``
        at call time, so a reading that accepts ``e`` from ``a | b`` shows
        up in both modes."""
        monkeypatch.setattr(iolog.output, "_semantic_holds", lambda *args, **kwargs: True)
        assert main(["examples"]) == 1
        assert capsys.readouterr().out.count("MISMATCH") == 2

    def test_out_of_memory_names_no_flag(self, capsys, monkeypatch):
        """The matrix takes no bound flag, so its out-of-memory line suggests none."""

        def exhausted():
            raise MemoryError

        monkeypatch.setattr(iolog.reference, "run_reference_matrix", exhausted)
        assert main(["examples"]) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")


class TestDeterminism:
    def test_structured_reports_are_byte_identical_across_runs(self, norms_file, capsys):
        def run(argv):
            rc = main(argv)
            captured = capsys.readouterr()
            return rc, captured.out

        for argv in (
            ["check", "--norms", norms_file, "--input", "a", "--goal", "e",
             "--format", "structured"],
            ["check", "--norms", norms_file, "--input", "a|b", "--goal", "e",
             "--engine", "lifted", "--format", "structured"],
            ["countermodel", "--norms", norms_file, "--input", "a|b", "--goal", "e",
             "--mode", "outpre", "--format", "structured"],
        ):
            first = run(argv)
            second = run(argv)
            assert first == second
            assert first[1]


ALWAYS_LOADED = {"iolog", "iolog.cli", "iolog.formula", "iolog.norms", "iolog.entail", "iolog.output"}
WITH_WORLDS = ALWAYS_LOADED | {"iolog.worlds"}
ALL_MODULES = WITH_WORLDS | {"iolog.derivation", "iolog.reference"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["check", "--engine", "semantic"], ALWAYS_LOADED),
        (["check", "--engine", "triple", "--format", "structured"], ALWAYS_LOADED),
        (["check", "--engine", "derivation"], ALWAYS_LOADED | {"iolog.derivation"}),
        (["check", "--engine", "lifted", "--format", "structured"], WITH_WORLDS),
        (["countermodel", "--mode", "out1"], WITH_WORLDS),
        (["countermodel", "--mode", "outpre", "--format", "structured"], WITH_WORLDS),
        (["naive", "--mode", "out1", "--format", "structured"], WITH_WORLDS),
        (["naive", "--mode", "outpre"], WITH_WORLDS),
        (["examples"], ALL_MODULES),
        (["examples", "--format", "structured"], ALL_MODULES),
    ],
)
def test_each_subcommand_loads_only_its_layers(norms_file, argv, loaded):
    """A fresh process that runs one command holds exactly the iolog modules it uses."""
    if argv[0] != "examples":
        argv = [argv[0], "--norms", norms_file, "--input", "a | b", "--goal", "e", *argv[1:]]
    script = (
        "import sys\n"
        "from iolog.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'iolog'), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(iolog.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode in (0, 1), done.stderr
    assert done.stderr == f"{sorted(loaded)}\n"
