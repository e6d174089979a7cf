"""Conditional norms: (body, head) pairs and the norm-set file format.

A norm file holds one norm per line, written ``(BODY, HEAD)`` with both
sides in the formula grammar.  Blank lines are skipped and ``#`` starts
a comment to the end of the line.  Source order is preserved and
duplicates are permitted.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .formula import Formula, FormulaSyntaxError, _atom_names, _Value, parse_formula, print_formula

__all__ = [
    "Norm",
    "NormSet",
    "NormSyntaxError",
    "parse_norm",
    "parse_norms",
    "load_norms",
    "render_norm",
]


class NormSyntaxError(ValueError):
    """Malformed norm text, with the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


class Norm(_Value):
    """A conditional norm: when ``body`` holds, ``head`` is obligatory."""

    __slots__ = ("body", "head")

    def __init__(self, body: Formula, head: Formula):
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "head", head)


class NormSet(_Value):
    """A finite, ordered collection of norms; iteration follows source order."""

    __slots__ = ("norms", "_names")  # _names: see _norm_names

    def __init__(self, norms: Iterable[Norm] = ()):
        object.__setattr__(self, "norms", tuple(norms))

    def __iter__(self) -> Iterator[Norm]:
        return iter(self.norms)

    def __len__(self) -> int:
        return len(self.norms)

    def __getitem__(self, index: int) -> Norm:
        return self.norms[index]


def _norm_names(norms: Iterable[Norm]) -> tuple[str, ...] | set[str]:
    """The atom names of the norms' bodies and heads.  A ``NormSet`` of exactly that class
    keeps them, as one sorted tuple in its ``_names`` slot, for the next call given it; a
    list, a tuple or an instance of a subclass is walked on every call."""
    if type(norms) is not NormSet:
        return _atom_names(f for n in norms for f in (n.body, n.head))
    try:
        return norms._names
    except AttributeError:  # the first call given norms: equal tuples, if threads race
        names = tuple(sorted(_norm_names(norms.norms)))
        object.__setattr__(norms, "_names", names)
        return names


def render_norm(norm: Norm) -> str:
    return f"({print_formula(norm.body)}, {print_formula(norm.head)})"


def parse_norm(text: str, line: int = 1) -> Norm:
    """Parse a single ``(BODY, HEAD)`` norm; a syntax error counts its position from the
    start of ``text``.  Formulas hold no comma, so the first comma splits the pair, even
    one in a ``#`` comment: ``"(a # (x, y\\n # )\\n, e)"`` is rejected."""
    stripped = text.strip()
    if stripped[:1] != "(" or stripped[-1:] != ")":
        raise NormSyntaxError(line, "a norm is written (BODY, HEAD)")
    body_text, comma, head_text = stripped[1:-1].partition(",")
    if not comma:
        raise NormSyntaxError(line, "missing ',' between body and head")
    offset = len(text) - len(text.lstrip()) + 1  # characters before the body
    try:
        body = parse_formula(body_text)
        offset += len(body_text) + 1  # and before the head
        return Norm(body, parse_formula(head_text))
    except FormulaSyntaxError as exc:
        shifted = FormulaSyntaxError(exc.position + offset, exc.reason)
        raise NormSyntaxError(line, str(shifted)) from None


def parse_norms(text: str) -> NormSet:
    """Parse norm-file text into a NormSet, preserving line order."""
    norms = []
    # A line ends at \n, \r\n or \r only, as in open()'s universal newlines: str.splitlines
    # also breaks at \x0c, \x85, U+2028 and others, which would end a comment early.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            norms.append(parse_norm(line, lineno))
    return NormSet(tuple(norms))


def load_norms(path) -> NormSet:
    """Read a UTF-8 norm file from ``path``; a leading byte-order mark is skipped."""
    with open(path, encoding="utf-8-sig") as handle:
        return parse_norms(handle.read())
