"""Norm pairs and the one-norm-per-line file format."""

import pytest

from iolog import (
    Atom,
    Norm,
    NormSet,
    NormSyntaxError,
    Or,
    load_norms,
    parse_norm,
    parse_norms,
    render_norm,
)

A, B, E = Atom("a"), Atom("b"), Atom("e")


class TestParsing:
    def test_single_norm(self):
        assert parse_norm("(a, e)") == Norm(A, E)

    def test_body_may_be_compound(self):
        assert parse_norm("(a | b, e)") == Norm(Or(A, B), E)

    def test_order_and_duplicates_preserved(self):
        ns = parse_norms("(a, e)\n(b, e)\n(a, e)")
        assert ns.norms == (Norm(A, E), Norm(B, E), Norm(A, E))
        assert len(ns) == 3
        assert ns[1] == Norm(B, E)

    def test_blank_lines_and_comments_ignored(self):
        text = "# duties\n\n(a, e)  # direct\n   \n(b, e)\n"
        assert parse_norms(text).norms == (Norm(A, E), Norm(B, E))

    def test_empty_text_is_the_empty_norm_set(self):
        assert parse_norms("# nothing\n").norms == ()

    def test_nested_parentheses_in_body(self):
        ns = parse_norms("((a | b) & a, e)")
        assert len(ns) == 1

    @pytest.mark.parametrize("separator", ["\u2028", "\x0c", "\x85"], ids=repr)
    def test_a_line_ends_only_at_a_newline(self, separator):
        """str.splitlines also breaks at these; a comment runs on past them."""
        assert parse_norms(f"(a, e) # was:{separator}(a, f)").norms == (Norm(A, E),)
        with pytest.raises(NormSyntaxError) as err:
            parse_norms(f"(a, e){separator}(b, e)\n(b, e)")
        assert err.value.line == 1

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=repr)
    def test_crlf_and_cr_end_a_line(self, newline):
        assert parse_norms(f"(a, e){newline}(b, e){newline}").norms == (Norm(A, E), Norm(B, E))
        with pytest.raises(NormSyntaxError) as err:
            parse_norms(f"# duties{newline}{newline}(a, e){newline}(b e){newline}")
        assert err.value.line == 4


class TestErrors:
    def test_missing_comma(self):
        with pytest.raises(NormSyntaxError) as err:
            parse_norms("(a e)")
        assert err.value.line == 1

    def test_missing_parens(self):
        with pytest.raises(NormSyntaxError):
            parse_norms("a, e")

    def test_error_reports_the_offending_line(self):
        with pytest.raises(NormSyntaxError) as err:
            parse_norms("(a, e)\n(b e)\n")
        assert err.value.line == 2

    def test_bad_formula_inside_norm(self):
        with pytest.raises(NormSyntaxError) as err:
            parse_norms("(a |, e)")
        assert "syntax error" in str(err.value)

    @pytest.mark.parametrize(
        "text, line, position",
        [("(a, b||c)", 1, 7), ("  (a & , b)", 1, 8), ("(a, e)\n  (b, c||d)  # note\n", 2, 9)],
        ids=["in-the-head", "at-the-comma", "second-file-line"],
    )
    def test_a_syntax_error_names_its_column_in_the_line(self, text, line, position):
        with pytest.raises(NormSyntaxError) as err:
            parse_norms(text)
        assert err.value.line == line
        assert err.value.reason.startswith(f"syntax error at position {position}: ")

    def test_parse_norm_counts_the_position_from_the_start_of_its_text(self):
        with pytest.raises(NormSyntaxError) as err:
            parse_norm("\n (a,\n b||c)")
        assert str(err.value).startswith("line 1: syntax error at position 10: ")

    def test_the_first_comma_splits_the_pair_even_inside_a_comment(self):
        with pytest.raises(NormSyntaxError):
            parse_norm("(a # (x, y\n # ) \n, e)")
        assert parse_norm("(a # note\n, e)") == Norm(A, E)


class TestFiles:
    def test_load_norms_reads_utf8(self, tmp_path):
        path = tmp_path / "norms.txt"
        path.write_text("(a, e)\n(b, e)\n", encoding="utf-8")
        assert load_norms(path).norms == (Norm(A, E), Norm(B, E))

    def test_load_norms_skips_a_leading_byte_order_mark(self, tmp_path):
        path = tmp_path / "norms.txt"
        path.write_text("\ufeff(a, e)\n(b, e)\n", encoding="utf-8")
        assert load_norms(path).norms == (Norm(A, E), Norm(B, E))

    @pytest.mark.parametrize(
        "text, line",
        [("(a, e)\n\ufeff(b, e)\n", 2), ("(a,\ufeff e)\n", 1), ("\ufeff\ufeff(a, e)\n", 1)],
        ids=["second-line", "inside-a-norm", "second-mark"],
    )
    def test_a_byte_order_mark_anywhere_else_is_an_error(self, tmp_path, text, line):
        path = tmp_path / "norms.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(NormSyntaxError) as err:
            load_norms(path)
        assert err.value.line == line

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_norms(tmp_path / "absent.txt")


class TestRendering:
    def test_render_parses_back(self):
        norm = Norm(Or(A, B), E)
        assert parse_norm(render_norm(norm)) == norm
        assert render_norm(norm) == "(a | b, e)"

    def test_norm_set_accepts_any_iterable(self):
        assert NormSet([Norm(A, E)]).norms == (Norm(A, E),)
