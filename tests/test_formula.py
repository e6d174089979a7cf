"""Formula syntax: parser, printer, and their round trip."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import NESTINGS, TOO_DEEP, formulas, nested_text
from iolog import (
    BOTTOM,
    TOP,
    And,
    Atom,
    FormulaSyntaxError,
    Implies,
    Not,
    Or,
    atoms,
    eval_formula,
    parse_formula,
    print_formula,
)
from iolog.formula import MAX_DEPTH, _tokenize
from pointwise import character_tokenize, recursive_parse_formula, recursive_print_formula

A, B, C = Atom("a"), Atom("b"), Atom("c")

# The whole lexicon, a lone '-' and '>', characters that start no token ('A',
# 'é', '$' and a vertical tab) and a comment the text may end in, run together
# without spaces as often as with them.
LEXICON = (
    "a", "b", "A", "x_1", "true", "false", "!", "&", "|", "->", "-", ">", "(", ")",
    " ", "\t", "\r", "\x0b", "# c\n", "#", "$", "é",
)
SOUP = st.lists(st.sampled_from(LEXICON), max_size=30).map("".join)
# Text at the nesting limit, one level either side, between two soups.
NEAR_THE_LIMIT = st.tuples(
    SOUP,
    st.builds(nested_text, st.sampled_from(NESTINGS), st.integers(MAX_DEPTH - 1, MAX_DEPTH + 1)),
    SOUP,
).map("".join)


class TestParsing:
    def test_implication_is_right_associative(self):
        assert parse_formula("a -> b -> c") == Implies(A, Implies(B, C))

    def test_disjunction(self):
        assert parse_formula("a | b") == Or(A, B)

    def test_precedence_not_and_or(self):
        assert parse_formula("!a & b | c") == Or(And(Not(A), B), C)

    def test_and_or_left_associative(self):
        assert parse_formula("a & b & c") == And(And(A, B), C)
        assert parse_formula("a | b | c") == Or(Or(A, B), C)

    def test_parentheses_override_precedence(self):
        assert parse_formula("a & (b | c)") == And(A, Or(B, C))
        assert parse_formula("(a -> b) -> c") == Implies(Implies(A, B), C)

    def test_constants(self):
        assert parse_formula("true") is TOP
        assert parse_formula("false") is BOTTOM
        assert parse_formula("!true") == Not(TOP)

    def test_whitespace_insignificant(self):
        assert parse_formula(" a->\n\tb ") == Implies(A, B)

    def test_comment_runs_to_end_of_line(self):
        assert parse_formula("a # ignored | b") == A
        assert parse_formula("a & # comment\n b") == And(A, B)

    def test_atom_names_allow_digits_and_underscore(self):
        assert parse_formula("h1_x") == Atom("h1_x")
        # not the reserved word: a longer identifier is an ordinary atom
        assert parse_formula("truely") == Atom("truely")


class TestParseErrors:
    def test_reports_one_based_position_and_expectation(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("a||b")
        assert err.value.position == 3
        assert "expected a formula" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("")
        assert err.value.position == 1
        assert "end of input" in str(err.value)

    def test_unclosed_parenthesis(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("(a | b")
        assert "expected ')'" in str(err.value)

    def test_trailing_input(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("a b")
        assert err.value.position == 3

    def test_lone_dash(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("a - b")
        assert "->" in str(err.value)

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("a & B")
        assert err.value.position == 5


class TestNestingLimit:
    @pytest.mark.parametrize("kind, depth, position", TOO_DEEP)
    def test_too_deep_is_a_positioned_syntax_error(self, kind, depth, position):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(nested_text(kind, depth))
        assert err.value.position == position
        assert f"nested more than {MAX_DEPTH} levels" in str(err.value)

    @pytest.mark.parametrize("kind", NESTINGS)
    def test_one_level_past_the_limit_is_rejected(self, kind):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(nested_text(kind, MAX_DEPTH + 1))

    @pytest.mark.parametrize("kind", NESTINGS)
    def test_formula_at_the_limit_evaluates_prints_and_hashes(self, kind):
        text = nested_text(kind, MAX_DEPTH)
        f = parse_formula(text)
        assert eval_formula(f, {"a": True}) is True
        again = parse_formula(print_formula(f))
        assert again == f and hash(again) == hash(f)
        assert repr(f).count("Atom") == text.count("a")

    def test_levels_of_different_kinds_add_up(self):
        parse_formula("!(" * 50 + "a" + ")" * 50)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("!(" * 50 + "a & a" + ")" * 50)


class TestAtomInvariants:
    def test_reserved_words_are_not_atom_names(self):
        with pytest.raises(ValueError):
            Atom("true")
        with pytest.raises(ValueError):
            Atom("false")

    def test_lexical_class_enforced(self):
        for bad in ("A", "1a", "", "a-b", "_a"):
            with pytest.raises(ValueError):
                Atom(bad)


class TestPrinting:
    def test_plain_disjunction(self):
        assert print_formula(Or(A, B)) == "a | b"

    def test_implication_needs_no_parens_around_disjunction(self):
        assert print_formula(Implies(Or(A, B), A)) == "a | b -> a"

    def test_forced_parenthesization(self):
        assert print_formula(And(A, Or(B, C))) == "a & (b | c)"

    def test_associativity_parens(self):
        assert print_formula(Or(A, Or(B, C))) == "a | (b | c)"
        assert print_formula(Implies(Implies(A, B), C)) == "(a -> b) -> c"
        assert print_formula(Implies(A, Implies(B, C))) == "a -> b -> c"

    def test_negation(self):
        assert print_formula(Not(Not(A))) == "!!a"
        assert print_formula(Not(And(A, B))) == "!(a & b)"


class TestAtoms:
    def test_constants_have_no_atoms(self):
        assert atoms(TOP) == frozenset()

    def test_binary(self):
        assert atoms(Or(A, B)) == {"a", "b"}

    def test_duplicates_collapse(self):
        assert atoms(And(A, Not(A))) == {"a"}

    def test_deep_formula_is_walked_without_recursion(self):
        f = A
        for _ in range(5000):
            f = Not(And(f, B))
        assert atoms(f) == {"a", "b"}

    def test_non_formula_is_a_type_error(self):
        with pytest.raises(TypeError):
            atoms(And(A, "b"))


class TestRoundTrip:
    @given(formulas())
    def test_parse_inverts_print(self, f):
        assert parse_formula(print_formula(f)) == f

    @given(formulas(), formulas())
    def test_printing_identical_iff_structurally_equal(self, f, g):
        assert (print_formula(f) == print_formula(g)) == (f == g)


def _outcome(parse, text):
    try:
        return parse(text)
    except FormulaSyntaxError as err:
        return err.position, err.reason


class TestAgainstRecursiveReference:
    """The table-driven tokenizer, parser and printer against the character loop and the
    recursive ones they replaced."""

    @settings(max_examples=500)
    @given(st.one_of(SOUP, formulas(max_leaves=16).map(recursive_print_formula)))
    def test_tokenizer_gives_the_same_tokens_or_the_same_error(self, text):
        assert _outcome(_tokenize, text) == _outcome(character_tokenize, text)

    @given(formulas(max_leaves=16))
    def test_printer(self, f):
        assert print_formula(f) == recursive_print_formula(f)

    @settings(max_examples=500)
    @given(st.one_of(SOUP, NEAR_THE_LIMIT, formulas(max_leaves=16).map(recursive_print_formula)))
    def test_parser_gives_the_same_formula_or_the_same_error(self, text):
        assert _outcome(parse_formula, text) == _outcome(recursive_parse_formula, text)

    def test_ten_thousand_deep_chains_print(self):
        left, right, negated = A, A, A
        for _ in range(10_000):
            left, right, negated = And(left, B), And(B, right), Not(negated)
        assert print_formula(left) == " & ".join(["a"] + ["b"] * 10_000)
        assert print_formula(right) == "b & (" * 9_999 + "b & a" + ")" * 9_999
        assert print_formula(negated) == "!" * 10_000 + "a"
