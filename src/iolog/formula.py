"""Propositional formulas: syntax tree, parser, and printer.

The formula language has lowercase atoms, the constants ``true`` and
``false``, and the connectives ``!`` (negation), ``&`` (conjunction),
``|`` (disjunction), and ``->`` (implication).  Precedence, lowest to
highest: ``->`` (right-associative), ``|``, ``&`` (left-associative),
``!`` (prefix); the tokenizer, the parser and the printer read the binary
connectives from one table, ``_BINARY``.  Whitespace is insignificant and
``#`` starts a comment running to the end of the line.  Nesting deeper
than ``MAX_DEPTH`` levels, each connective and each pair of parentheses
being one, is a syntax error.

Formula values are immutable and compare structurally; two formulas
print identically exactly when they are structurally equal.  No
normalisation or simplification is ever applied.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, NamedTuple

__all__ = [
    "Formula",
    "Atom",
    "Top",
    "Bottom",
    "Not",
    "And",
    "Or",
    "Implies",
    "TOP",
    "BOTTOM",
    "FormulaSyntaxError",
    "parse_formula",
    "print_formula",
    "atoms",
]

_ATOM_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*")
_BLANKS = re.compile(r"(?:[ \t\r\n]|#[^\n]*)+")  # blanks, and comments to the end of a line
MAX_DEPTH = 100  # so that parsed formulas evaluate, print, compare and hash without overflow


class _Error(Exception):
    """Base of iolog's errors, as ``_Value`` is of its values.  A class names its fields
    in ``_fields`` and its message in ``_template``, a format string over them, or writes
    its own ``__str__``; it keeps a built-in base, such as ``ValueError``, as its second.
    The fields, given in order, are the exception's ``args`` and also its attributes, so
    an error pickles by them and reprs as ``AtomLimitError(26, 25)``."""

    _fields: tuple[str, ...] = ()
    _template = ""

    def __init__(self, *args):
        super().__init__(*args)
        self.__dict__.update(zip(self._fields, args))

    def __str__(self) -> str:
        return self._template.format_map(vars(self))


class FormulaSyntaxError(_Error, ValueError):
    """Malformed formula text: the ``reason``, at a 1-based character ``position``."""

    _fields = ("position", "reason")
    _template = "syntax error at position {position}: {reason}"


class _Value:
    """Base of iolog's immutable values.  A class names its fields in a tuple ``__slots__``
    and sets them in its ``__init__`` by ``object.__setattr__``; from the slots this base
    derives ``_fields`` and ``__match_args__``, base-class fields first, and defines ``==``
    (same class, same field values), ``hash`` (of the field tuple), a ``repr`` such as
    ``Not(operand=Atom(name='a'))``, pickling by value, and ``FrozenInstanceError`` on
    assignment and deletion.  A slot whose name starts with ``_`` is no field but a private
    cache, which none of these read.  Only ``Atom``, ``Not`` and ``_Binary`` write
    ``__eq__`` and ``__hash__`` out straight-line, with the same results: small-queries runs
    measurably slower without them, and no slower without any other's."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = tuple(
            name for base in reversed(cls.__mro__) for name in vars(base).get("__slots__", ())
            if name[0] != "_"
        )
        cls._fields = cls.__match_args__ = fields
        if not fields:  # a plain tuple, so hashing TOP or BOTTOM runs no property
            cls._values = ()
        elif len(fields) > 1:  # the field tuple, read by attrgetter without running Python code
            cls._values = property(attrgetter(*fields))
        else:
            cls._values = property(lambda self: tuple(map(self.__getattribute__, fields)))
        if vars(cls).get("__slots__"):  # a class that adds fields compares and hashes by all
            for name in ("__eq__", "__hash__"):
                if name not in vars(cls):
                    setattr(cls, name, vars(_Value)[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError  # loaded only on this error path
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Formula(_Value):
    """Base class of all formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _ATOM_NAME.fullmatch(name) or name in _CONSTANTS:
            raise ValueError(f"invalid atom name {name!r}")
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))


class Top(Formula):
    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("operand", "_atoms")  # _atoms: see _atom_names

    def __init__(self, operand: Formula):
        object.__setattr__(self, "operand", operand)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.operand,) == (other.operand,)

    def __hash__(self) -> int:
        return hash((self.operand,))


class _Binary(Formula):
    """The two-operand nodes' fields; each connective is its own subclass."""

    __slots__ = ("left", "right", "_atoms")  # _atoms: see _atom_names

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


TOP = Top()
BOTTOM = Bottom()
# The constants' words and negation's symbol, for the tokenizer, the parser and the printer.
_CONSTANTS = {"true": TOP, "false": BOTTOM}
_NOT = "!"


def atoms(f: Formula) -> frozenset[str]:
    """The set of atom names occurring in ``f``."""
    return frozenset(_atom_names((f,)))


def _atom_names(formulas: Iterable[Formula]) -> set[str]:
    """The atom names occurring in any of ``formulas``.  A ``Not`` or binary node given
    here, of exactly its class, keeps its names in its ``_atoms`` slot for the next call
    given it; a subformula, or an instance of a subclass, is walked on every call."""
    names: set[str] = set()
    for f in formulas:
        t = type(f)  # exact-type tests: about twice as fast as isinstance here
        if t is Atom:
            names.add(f.name)
        elif t is Not or t is And or t is Or or t is Implies:
            try:
                names.update(f._atoms)
            except AttributeError:  # the first call given f: equal tuples, if threads race
                object.__setattr__(f, "_atoms", own := tuple(_walk_names([f])))
                names.update(own)
        elif t is not Top and t is not Bottom:
            names |= _walk_names([f])
    return names


def _walk_names(stack: list[Formula]) -> set[str]:
    """The atom names occurring in the formulas on ``stack``, by one iterative walk."""
    names: set[str] = set()
    while stack:
        f = stack.pop()
        t = type(f)
        if t is Atom:
            names.add(f.name)
        elif t is And or t is Or or t is Implies:
            stack += (f.left, f.right)
        elif t is Not:
            stack.append(f.operand)
        elif t is not Top and t is not Bottom:
            stack.append(_as_node(f))
    return names


_NODES = (Atom, Top, Bottom, Not, And, Or, Implies)


def _as_node(f: Formula) -> Formula:
    """``f``, an instance of a subclass of a node class, copied into the first class
    of ``_NODES`` it derives from, so that the exact-type walks treat it as one."""
    for cls in _NODES:
        if isinstance(f, cls):
            node = object.__new__(cls)
            for name in cls._fields:
                object.__setattr__(node, name, getattr(f, name))
            return node
    raise TypeError(f"not a formula: {f!r}")


# The binary connectives, loosest first: token kind, symbol, node class, groups right.
# A level indexes this table; negation and the leaves are at len(_BINARY), the tightest.
_BINARY = (
    ("implies", "->", Implies, True),
    ("or", "|", Or, False),
    ("and", "&", And, False),
)
_TOKEN_LEVEL = {kind: level for level, (kind, _, _, _) in enumerate(_BINARY)}
_NODE_LEVEL = dict.fromkeys((Atom, Top, Bottom, Not), len(_BINARY))
_NODE_LEVEL.update((cls, level) for level, (_, _, cls, _) in enumerate(_BINARY))
_WORDS = {type(constant): word for word, constant in _CONSTANTS.items()}


def print_formula(f: Formula) -> str:
    """Render ``f`` with minimal parentheses, without recursion; re-parses to an equal formula."""
    parts: list[str] = []
    stack: list = [(f, 0)]  # pending text, or (subformula, loosest level it may show bare)
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        g, loosest = item
        if (t := type(g)) not in _NODE_LEVEL:
            g = _as_node(g)
            t = type(g)
        level = _NODE_LEVEL[t]
        if level < loosest:
            parts.append("(")
            stack.append(")")
        if level < len(_BINARY):
            _, symbol, _, right = _BINARY[level]
            stack += ((g.right, level + (not right)), f" {symbol} ", (g.left, level + right))
        elif t is Not:
            parts.append(_NOT)
            stack.append((g.operand, level))
        else:
            parts.append(g.name if t is Atom else _WORDS[t])
    return "".join(parts)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int  # 1-based character position


_SYMBOLS = {"(": "lparen", ")": "rparen", _NOT: "not"} | {s: k for k, s, _, _ in _BINARY}
_LONGER = {symbol[0]: symbol for symbol in _SYMBOLS if len(symbol) > 1}
_A_FORMULA = f"a formula (atom, {', '.join(map(repr, _CONSTANTS))}, {_NOT!r} or '(')"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n#":
            i = _BLANKS.match(text, i).end()
        elif (symbol := _LONGER.get(c, c)) in _SYMBOLS:  # a longer symbol is tried first
            if not text.startswith(symbol, i):
                raise FormulaSyntaxError(i + 1, f"expected {symbol!r} after {c!r}")
            tokens.append(_Token(_SYMBOLS[symbol], symbol, i + 1))
            i += len(symbol)
        elif m := _ATOM_NAME.match(text, i):
            word = m.group()
            tokens.append(_Token(word if word in _CONSTANTS else "atom", word, i + 1))
            i = m.end()
        else:
            raise FormulaSyntaxError(i + 1, f"unexpected character {c!r}")
    tokens.append(_Token("end", "", n + 1))
    return tokens


def _describe(tok: _Token) -> str:
    return "end of input" if tok.kind == "end" else repr(tok.text)


class _Parser:
    """Precedence climbing; each method returns a formula and its nesting depth."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0  # levels opened around the current token

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def level(self, tok: _Token, depth: int) -> int:
        if depth > MAX_DEPTH:
            raise FormulaSyntaxError(tok.pos, f"formula nested more than {MAX_DEPTH} levels deep")
        return depth

    def nested(self, parse) -> tuple[Formula, int]:
        """Consume an opening parenthesis, negation or implication; parse its level, if allowed."""
        self.open = self.level(self.advance(), self.open + 1)
        result = parse()
        self.open -= 1
        return result

    def node(self, cls, *parts: tuple[Formula, int]) -> tuple[Formula, int]:
        """The formula just read, its depth checked at its last token."""
        depth = self.level(self.tokens[self.pos - 1], 1 + max(d for _, d in parts))
        return cls(*(f for f, _ in parts)), depth

    def binary(self, loosest: int = 0) -> tuple[Formula, int]:
        """A formula whose connectives outside parentheses bind at ``loosest`` or tighter."""
        f = self.unary()
        while (level := _TOKEN_LEVEL.get(self.peek().kind, -1)) >= loosest:
            _, _, cls, right = _BINARY[level]
            if right:  # recurses once per connective, so it opens a level like negation
                f = self.node(cls, f, self.nested(lambda: self.binary(level)))
            else:
                self.advance()
                f = self.node(cls, f, self.binary(level + 1))
        return f

    def unary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok.kind == "not":
            return self.node(Not, self.nested(self.unary))
        if tok.kind == "atom" or tok.kind in _CONSTANTS:
            self.advance()
            return _CONSTANTS[tok.kind] if tok.kind in _CONSTANTS else Atom(tok.text), 0
        if tok.kind == "lparen":
            f, depth = self.nested(self.binary)
            closing = self.peek()
            if closing.kind != "rparen":
                raise FormulaSyntaxError(closing.pos, f"expected ')', found {_describe(closing)}")
            return f, self.level(self.advance(), depth + 1)
        raise FormulaSyntaxError(tok.pos, f"expected {_A_FORMULA}, found {_describe(tok)}")


def parse_formula(text: str) -> Formula:
    """Parse formula text, raising :class:`FormulaSyntaxError` on bad input."""
    parser = _Parser(_tokenize(text))
    f, _ = parser.binary()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise FormulaSyntaxError(trailing.pos, f"unexpected {_describe(trailing)} after the formula")
    return f
