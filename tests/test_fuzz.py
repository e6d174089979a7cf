"""The exit-code contract on arbitrary input: the parsers raise only their own
syntax errors, and the command line answers 0, 1 or 2 and raises nothing else."""

import contextlib
import io
import os
import tempfile

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import formulas
from iolog import FormulaSyntaxError, NormSyntaxError, parse_formula, parse_norms, print_formula
from iolog.cli import main
from pointwise import depth_parse_norms

TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=20)
# Grammar tokens joined by spaces, so that some of it parses and the atoms stay
# within a, b and c: at most 3 atoms x 4 worlds (the default bound) to search.
TOKENS = ("a", "b", "c", "true", "false", "!", "&", "|", "->", "(", ")", ",", "#", "\n", "-", "é")
SOUP = st.lists(st.sampled_from(TOKENS), max_size=10).map(" ".join)
FORMULA = st.one_of(formulas(max_leaves=6).map(print_formula), SOUP)
NORM = st.tuples(FORMULA, FORMULA).map(lambda pair: f"({pair[0]}, {pair[1]})")
NORM_TEXT = st.lists(st.one_of(NORM, NORM, SOUP), max_size=4).map("\n".join)
# Single lines of the soup, bare or inside one pair of parentheses, and one-line norms.
LINE = st.lists(st.sampled_from([t for t in TOKENS if t != "\n"]), max_size=10).map(" ".join)
NORM_LINE = st.one_of(LINE, LINE.map("({})".format), NORM.filter(lambda t: "\n" not in t))

# Each subcommand's options, with values of their type; a bound below 1 is a usage error.
ATOM_LIMIT = st.integers(-1, 6).map(str)
OPTIONS = {
    "check": {
        "--engine": st.sampled_from(["semantic", "derivation", "triple", "lifted"]),
        "--max-worlds": st.integers(-1, 3).map(str),
        "--atom-limit": ATOM_LIMIT,
    },
    "countermodel": {
        "--mode": st.sampled_from(["outpre", "out1"]),
        "--max-worlds": st.integers(-1, 3).map(str),
        "--budget": st.integers(-1, 9).map(str),
    },
    "naive": {"--mode": st.sampled_from(["outpre", "out1"]), "--atom-limit": ATOM_LIMIT},
    "examples": {},
}
COMMON = {"--format": st.sampled_from(["text", "structured"])}
FLAGS = ["--norms", "--input", "--goal", *COMMON]
FLAGS += [flag for options in OPTIONS.values() for flag in options]
WORDS = st.one_of(
    st.sampled_from([*OPTIONS, *FLAGS, "-h", "lifted", "out1", "structured", "-1", "2"]),
    TEXT,
)


@st.composite
def commands(draw, norms):
    """A subcommand with its query flags and any of its options, all well formed."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    query = {"--norms": st.just(norms), "--input": FORMULA, "--goal": FORMULA}
    if command == "examples":
        query = {}
    flags = draw(st.fixed_dictionaries(query, optional={**OPTIONS[command], **COMMON}))
    return [command, *(word for pair in flags.items() for word in pair)]


def exit_code(argv, norm_bytes: bytes) -> int:
    """What ``main`` returns or exits with; ``{norms}`` in argv names a file holding
    ``norm_bytes``, and ``{dir}`` the directory it is in."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "norms.txt")
        with open(path, "wb") as handle:
            handle.write(norm_bytes)
        argv = [{"{norms}": path, "{dir}": tmp}.get(word, word) for word in argv]
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            try:
                return main(argv)
            except SystemExit as exit:  # argparse: usage errors, bad bounds and --help
                return exit.code


class TestParsers:
    @given(TEXT)
    def test_parse_formula_raises_only_its_syntax_error(self, text):
        try:
            parse_formula(text)
        except FormulaSyntaxError:
            pass

    @given(st.one_of(TEXT, NORM_TEXT))
    def test_parse_norms_raises_only_its_syntax_error(self, text):
        try:
            parse_norms(text)
        except NormSyntaxError:
            pass

    @given(NORM_LINE)
    def test_the_comma_split_reads_a_line_as_the_depth_scan_did(self, text):
        """The same lines are accepted, as the same norms, by the split at the first
        comma and by the scan for the comma at parenthesis depth 0."""

        def read(parse):
            try:
                return parse(text)
            except NormSyntaxError as exc:
                return "rejected", exc.line

        assert read(parse_norms) == read(depth_parse_norms)


class TestMain:
    @settings(max_examples=300)
    @given(commands("{norms}"), NORM_TEXT.map(str.encode))
    def test_well_formed_commands_exit_0_1_or_2(self, argv, norm_bytes):
        assert exit_code(argv, norm_bytes) in (0, 1, 2)

    @settings(max_examples=200)
    @given(
        st.one_of(commands("{norms}"), st.lists(WORDS, max_size=8)),
        st.lists(st.one_of(WORDS, st.sampled_from(["{norms}", "{dir}", "none.txt"])), max_size=2),
        st.one_of(NORM_TEXT.map(str.encode), st.binary(max_size=20)),
    )
    def test_any_argv_and_file_exit_0_1_or_2(self, argv, extra, norm_bytes):
        assert exit_code(argv + extra, norm_bytes) in (0, 1, 2)
