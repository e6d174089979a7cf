"""Pointwise reference evaluators, kept as differential references.

These are the evaluators iolog used before its engines moved onto one
bit-mask truth-table kernel: a tree walker over world sets, the lifted
membership tests and countermodel enumerator built on it, and the naive
unfolding checked one valuation at a time.  The ``per_entailment_``
engines decide membership the way iolog did before an engine call
shared one set of truth tables among its entailments: one separate
entailment per triggered body, per witness triple and per side
condition, each one's own atoms held to the atom limit.  The
``recursive_`` proof-tree functions compute conclusions and check
certificates by recursion over the tree, as iolog did before one
bottom-up pass computed every node's conclusion once.  They evaluate
with the oracle in ``conftest.py`` and never call iolog's kernel, so the
tests can compare the mask engines against them.  The ``recursive_``
formula printer and parser are iolog's before one table of binary
connectives drove both: a printer that recurses once per connective, and
one recursive-descent method per precedence level over the tokens of a
loop over the characters that spells out each symbol, as iolog's
tokenizer did before it read the same tables.  ``depth_parse_norms`` reads
a norm file as iolog did before a norm's one comma split it: a scan that
counts parenthesis depth finds the comma directly inside the outer
parentheses.  The ``Dataclass`` classes are the formula nodes, ``Norm`` and
``NormSet`` as iolog defined them before its values shared one slotted base:
frozen slotted dataclasses, which print under iolog's class names.
``doubling_valuation_masks`` builds the truth tables' atom masks as iolog
did before each mask came from the previous one by one shift and one XOR:
it adds the names last to first, doubling every mask built so far.
``walking_atom_names`` collects atom names as iolog did before a ``Not`` or
binary node kept its own: one iterative walk of every formula, on every call.
``walking_query_names`` reads a query's universe as iolog did before a
``NormSet`` kept its norms' atom names: every formula of the query, every call.
``two_branch_holds`` is the lifted three-witness test as iolog wrote it
before the test read witness masks: one branch per mode over the masks of
``output._masks``, rebuilding the covering norms' heads for every point set.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields
from functools import reduce

from conftest import oracle_atoms, oracle_entails, oracle_eval, oracle_valuations
from iolog import (
    AND,
    BOTTOM,
    DEFAULT_ATOM_LIMIT,
    AtomLimitError,
    SO,
    TOP,
    WI,
    And,
    Atom,
    AxiomLeaf,
    Bottom,
    CheckFailure,
    FormulaSyntaxError,
    Implies,
    Norm,
    NormSet,
    NormSyntaxError,
    Not,
    Or,
    Top,
    TopIntro,
    UnboundAtomError,
    Verdict,
    WorldModel,
    parse_formula,
    print_formula,
    render_norm,
    source_ordered_heads,
)
from iolog.formula import MAX_DEPTH, _as_node, _atom_names, _Token


def doubling_valuation_masks(names: list[str]) -> tuple[dict[str, int], int]:
    """``entail._valuation_masks``'s atom masks and universe mask, built by doubling."""
    env, size = {}, 1
    for name in reversed(names):
        env = {other: m | m << size for other, m in env.items()}
        env[name], size = ((1 << size) - 1) << size, 2 * size
    return env, (1 << size) - 1


def walking_atom_names(formulas) -> set[str]:
    """``formula._atom_names``'s set of names, walked in full on every call."""
    names: set[str] = set()
    stack = list(formulas)
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


def walking_query_names(norms, *formulas) -> set[str]:
    """The names ``_atom_names`` finds in ``formulas`` (an input, and any goal) and every
    norm's body and head: ``_atom_names(output._query_formulas(...))``."""
    return _atom_names((*formulas, *(f for n in norms for f in (n.body, n.head))))


def two_branch_holds(mode: str, masks: tuple[int, list], sel: int) -> bool:
    """The lifted test in a model whose worlds carry exactly the points in ``sel``."""
    fails, norms = masks[0] & sel, masks[1]
    if mode == "outpre":  # some norm fits at every world
        return any(not misfit & sel for misfit in norms)
    heads = {head & fails for missed, head in norms if not missed & sel}  # of covering norms
    triples = itertools.combinations_with_replacement(heads, 3)
    return not fails or any(not h & i & j for h, i, j in triples)


def walk_extension(f, model: WorldModel) -> frozenset[int]:
    """The set of worlds where ``f`` holds, both operands always evaluated."""
    if isinstance(f, Atom):
        try:
            return model.extension[f.name]
        except KeyError:
            raise UnboundAtomError(f.name) from None
    if isinstance(f, Top):
        return model.worlds
    if isinstance(f, Bottom):
        return frozenset()
    if isinstance(f, Not):
        return model.worlds - walk_extension(f.operand, model)
    left, right = walk_extension(f.left, model), walk_extension(f.right, model)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (model.worlds - left) | right
    raise TypeError(f"not a formula: {f!r}")


def walk_outpre_member(norms, input, goal, model) -> bool:
    goal_ext = walk_extension(goal, model)
    input_ext = walk_extension(input, model)
    return any(
        walk_extension(n.head, model) == goal_ext and input_ext <= walk_extension(n.body, model)
        for n in norms
    )


def walk_out1_member(norms, input, goal, model) -> bool:
    if walk_extension(goal, model) == model.worlds:
        return True
    candidates = [
        head
        for head in dict.fromkeys(n.head for n in norms)
        if walk_outpre_member(norms, input, head, model)
    ]
    return any(
        walk_extension(Implies(And(And(h, i), j), goal), model) == model.worlds
        for h, i, j in itertools.combinations_with_replacement(candidates, 3)
    )


def walk_find_countermodel(query, max_worlds: int) -> WorldModel | None:
    """The first falsifying model in canonical order, built and tested one by one."""
    names = oracle_atoms(query.input) | oracle_atoms(query.goal)
    for n in query.norms:
        names |= oracle_atoms(n.body) | oracle_atoms(n.head)
    names = sorted(names)
    member = walk_outpre_member if query.mode == "outpre" else walk_out1_member
    for world_count in range(1, max_worlds + 1):
        for masks in itertools.product(range(2**world_count), repeat=len(names)):
            model = WorldModel(
                world_count,
                {
                    name: frozenset(w for w in range(world_count) if mask >> w & 1)
                    for name, mask in zip(names, masks)
                },
            )
            if not member(query.norms, query.input, query.goal, model):
                return model
    return None


def walk_naive_unfold_valid(norms, input, goal, mode) -> bool:
    """The naive unfolding, checked valuation by valuation."""
    names = oracle_atoms(input) | oracle_atoms(goal)
    for n in norms:
        names |= oracle_atoms(n.body) | oracle_atoms(n.head)
    for env in oracle_valuations(names):
        input_v = oracle_eval(input, env)
        goal_v = oracle_eval(goal, env)
        if mode == "outpre":
            ok = any(
                ((not input_v) or oracle_eval(n.body, env)) and goal_v == oracle_eval(n.head, env)
                for n in norms
            )
        else:
            witnesses = {
                oracle_eval(n.head, env)
                for n in norms
                if (not input_v) or oracle_eval(n.body, env)
            }
            ok = goal_v or any(
                (not (h and i and j)) or goal_v
                for h, i, j in itertools.product(sorted(witnesses), repeat=3)
            )
        if not ok:
            return False
    return True


def first_counterexample(premises, conclusion) -> dict[str, bool] | None:
    """The first valuation, in enumeration order, where the entailment fails."""
    names = oracle_atoms(conclusion)
    for p in premises:
        names |= oracle_atoms(p)
    for env in oracle_valuations(names):
        if all(oracle_eval(p, env) for p in premises) and not oracle_eval(conclusion, env):
            return env
    return None


def limited_entails(premises, conclusion, limit: int) -> bool:
    """``oracle_entails``, raising ``AtomLimitError`` when the entailment's own
    atoms exceed ``limit``."""
    premises = tuple(premises)
    names = oracle_atoms(conclusion)
    for p in premises:
        names |= oracle_atoms(p)
    if len(names) > limit:
        raise AtomLimitError(len(names), limit)
    return oracle_entails(premises, conclusion)


def per_entailment_triggered(norms, input, limit=DEFAULT_ATOM_LIMIT):
    return (n for n in norms if limited_entails((input,), n.body, limit))


def per_entailment_triggered_heads(norms, input, limit=DEFAULT_ATOM_LIMIT) -> frozenset:
    return frozenset(n.head for n in per_entailment_triggered(norms, input, limit))


def per_entailment_out1_member(norms, input, goal, limit=DEFAULT_ATOM_LIMIT) -> Verdict:
    heads = per_entailment_triggered_heads(norms, input, limit)
    return Verdict(limited_entails(heads, goal, limit), "semantic", triggered=heads)


def per_entailment_out1_triple_approx(norms, input, goal, limit=DEFAULT_ATOM_LIMIT) -> Verdict:
    heads = per_entailment_triggered_heads(norms, input, limit)
    triples = itertools.combinations_with_replacement(source_ordered_heads(norms, heads), 3)
    holds = limited_entails((), goal, limit) or any(
        limited_entails(t, goal, limit) for t in triples
    )
    return Verdict(holds, "triple-approx", triggered=heads)


def per_entailment_construct_derivation(norms, input, goal, limit=DEFAULT_ATOM_LIMIT):
    return per_entailment_derive_verdict(norms, input, goal, limit).certificate


def per_entailment_derive_verdict(norms, input, goal, limit=DEFAULT_ATOM_LIMIT) -> Verdict:
    """The canonical derivation after triggering, its final SO side condition checked on
    the combined head."""
    triggered = list(per_entailment_triggered(norms, input, limit))
    if limited_entails((), goal, limit):
        certificate = SO(WI(TopIntro(), input), goal)
    elif not triggered:
        certificate = None
    else:
        combined = reduce(AND, [WI(AxiomLeaf(n), input) for n in triggered])
        holds = limited_entails((recursive_conclusion(combined).head,), goal, limit)
        certificate = SO(combined, goal) if holds else None
    heads = frozenset(n.head for n in triggered)
    return Verdict(certificate is not None, "derivation", triggered=heads, certificate=certificate)


def recursive_conclusion(d):
    """The pair a tree concludes, each node's recomputed from its whole subtree."""
    if isinstance(d, TopIntro):
        return Norm(TOP, TOP)
    if isinstance(d, AxiomLeaf):
        return d.norm
    if isinstance(d, SO):
        return Norm(recursive_conclusion(d.premise).body, d.output)
    if isinstance(d, WI):
        return Norm(d.input, recursive_conclusion(d.premise).head)
    if isinstance(d, AND):
        left, right = recursive_conclusion(d.left), recursive_conclusion(d.right)
        return Norm(left.body, And(left.head, right.head))
    raise TypeError(f"not a derivation: {d!r}")


def recursive_verify_derivation(norms, d, goal, limit=DEFAULT_ATOM_LIMIT):
    """The first failing node in pre-order, then the goal match, by recursion."""
    failure = _recursive_verify_node(norms, d, (), limit)
    if failure is not None:
        return failure
    concluded = recursive_conclusion(d)
    if concluded != goal:
        return CheckFailure(
            (), f"conclusion {render_norm(concluded)} does not match goal {render_norm(goal)}"
        )
    return None


def _recursive_verify_node(norms, d, path, limit):
    if isinstance(d, TopIntro):
        return None
    if isinstance(d, AxiomLeaf):
        if d.norm not in norms.norms:
            return CheckFailure(path, f"axiom {render_norm(d.norm)} is not in the norm set")
        return None
    if isinstance(d, SO):
        head = recursive_conclusion(d.premise).head
        if not limited_entails((head,), d.output, limit):
            return CheckFailure(
                path,
                f"SO side condition fails: {print_formula(head)} does not entail "
                f"{print_formula(d.output)}",
            )
        return _recursive_verify_node(norms, d.premise, path + ("premise",), limit)
    if isinstance(d, WI):
        body = recursive_conclusion(d.premise).body
        if not limited_entails((d.input,), body, limit):
            return CheckFailure(
                path,
                f"WI side condition fails: {print_formula(d.input)} does not entail "
                f"{print_formula(body)}",
            )
        return _recursive_verify_node(norms, d.premise, path + ("premise",), limit)
    if isinstance(d, AND):
        lbody, rbody = recursive_conclusion(d.left).body, recursive_conclusion(d.right).body
        if lbody != rbody:
            return CheckFailure(
                path,
                f"AND premises conclude different bodies: {print_formula(lbody)} vs "
                f"{print_formula(rbody)}",
            )
        return _recursive_verify_node(norms, d.left, path + ("left",), limit) or (
            _recursive_verify_node(norms, d.right, path + ("right",), limit)
        )
    raise TypeError(f"not a derivation: {d!r}")


_TAGS = {TopIntro: "TOP", AxiomLeaf: "AX", SO: "SO", WI: "WI", AND: "AND"}


def _premises(d):
    if isinstance(d, (SO, WI)):
        return (d.premise,)
    if isinstance(d, AND):
        return (d.left, d.right)
    return ()


def recursive_render_derivation(d) -> str:
    """One line per node, by recursion, each node's conclusion recomputed."""
    lines = []

    def walk(node, depth):
        lines.append("  " * depth + f"{_TAGS[type(node)]} ⊢ {render_norm(recursive_conclusion(node))}")
        for child in _premises(node):
            walk(child, depth + 1)

    walk(d, 0)
    return "\n".join(lines)


def recursive_derivation_to_dict(d) -> dict:
    """Flat records, by recursion, each node's conclusion recomputed.  A node is written after
    its premises, the right one first, so the nodes run in reverse pre-order."""
    nodes = []

    def write(node) -> int:
        premises = [write(child) for child in reversed(_premises(node))][::-1]
        pair = recursive_conclusion(node)
        record = {
            "rule": _TAGS[type(node)],
            "conclusion_body": print_formula(pair.body),
            "conclusion_head": print_formula(pair.head),
        }
        if isinstance(node, (SO, WI)):
            record["param"] = print_formula(node.output if isinstance(node, SO) else node.input)
        record["premises"] = premises
        nodes.append(record)
        return len(nodes) - 1

    write(d)
    return {"nodes": nodes}


_IMPLIES, _OR, _AND, _UNARY = 1, 2, 3, 4


def _prec(f) -> int:
    match f:
        case Implies(_, _):
            return _IMPLIES
        case Or(_, _):
            return _OR
        case And(_, _):
            return _AND
        case _:
            return _UNARY


def _wrap(f, min_prec: int) -> str:
    text = recursive_print_formula(f)
    return text if _prec(f) >= min_prec else f"({text})"


def recursive_print_formula(f) -> str:
    """Minimal parentheses, by recursion: one call per connective."""
    match f:
        case Atom(name):
            return name
        case Top():
            return "true"
        case Bottom():
            return "false"
        case Not(g):
            return "!" + _wrap(g, _UNARY)
        case And(l, r):
            return f"{_wrap(l, _AND)} & {_wrap(r, _AND + 1)}"
        case Or(l, r):
            return f"{_wrap(l, _OR)} | {_wrap(r, _OR + 1)}"
        case Implies(l, r):
            return f"{_wrap(l, _IMPLIES + 1)} -> {_wrap(r, _IMPLIES)}"
    raise TypeError(f"not a formula: {f!r}")


def _describe(tok) -> str:
    return "end of input" if tok.kind == "end" else repr(tok.text)


class _RecursiveParser:
    """One method per precedence level; each returns a formula and its nesting depth."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.open = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def level(self, tok, depth: int) -> int:
        if depth > MAX_DEPTH:
            raise FormulaSyntaxError(tok.pos, f"formula nested more than {MAX_DEPTH} levels deep")
        return depth

    def nested(self, parse):
        self.open = self.level(self.advance(), self.open + 1)
        result = parse()
        self.open -= 1
        return result

    def node(self, cls, *parts):
        depth = self.level(self.tokens[self.pos - 1], 1 + max(d for _, d in parts))
        return cls(*(f for f, _ in parts)), depth

    def implication(self):
        left = self.disjunction()
        if self.peek().kind == "implies":
            return self.node(Implies, left, self.nested(self.implication))
        return left

    def disjunction(self):
        f = self.conjunction()
        while self.peek().kind == "or":
            self.advance()
            f = self.node(Or, f, self.conjunction())
        return f

    def conjunction(self):
        f = self.unary()
        while self.peek().kind == "and":
            self.advance()
            f = self.node(And, f, self.unary())
        return f

    def unary(self):
        tok = self.peek()
        if tok.kind == "not":
            return self.node(Not, self.nested(self.unary))
        if tok.kind == "true":
            self.advance()
            return TOP, 0
        if tok.kind == "false":
            self.advance()
            return BOTTOM, 0
        if tok.kind == "atom":
            self.advance()
            return Atom(tok.text), 0
        if tok.kind == "lparen":
            f, depth = self.nested(self.implication)
            closing = self.peek()
            if closing.kind != "rparen":
                raise FormulaSyntaxError(closing.pos, f"expected ')', found {_describe(closing)}")
            return f, self.level(self.advance(), depth + 1)
        raise FormulaSyntaxError(
            tok.pos,
            f"expected a formula (atom, 'true', 'false', '!' or '('), found {_describe(tok)}",
        )


_PUNCT = {"(": "lparen", ")": "rparen", "!": "not", "&": "and", "|": "or"}
_WORD = re.compile(r"[a-z][a-zA-Z0-9_]*")


def character_tokenize(text: str) -> list[_Token]:
    """Tokens by a loop over the characters, each symbol spelled out."""
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == "#":
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
        elif c in _PUNCT:
            tokens.append(_Token(_PUNCT[c], c, i + 1))
            i += 1
        elif c == "-":
            if text.startswith("->", i):
                tokens.append(_Token("implies", "->", i + 1))
                i += 2
            else:
                raise FormulaSyntaxError(i + 1, "expected '->' after '-'")
        elif m := _WORD.match(text, i):
            word = m.group()
            tokens.append(_Token(word if word in ("true", "false") else "atom", word, i + 1))
            i = m.end()
        else:
            raise FormulaSyntaxError(i + 1, f"unexpected character {c!r}")
    tokens.append(_Token("end", "", n + 1))
    return tokens


def recursive_parse_formula(text: str):
    """Parse by recursive descent, one method per precedence level, over the tokens of
    ``character_tokenize``."""
    parser = _RecursiveParser(character_tokenize(text))
    f, _ = parser.implication()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise FormulaSyntaxError(trailing.pos, f"unexpected {_describe(trailing)} after the formula")
    return f


def _depth_split_pair(line: str) -> tuple[str, str]:
    """Split ``(BODY, HEAD)`` at the comma sitting directly inside the outer parens."""
    stripped = line.strip()
    if not stripped.startswith("(") or not stripped.endswith(")"):
        raise ValueError("a norm is written (BODY, HEAD)")
    inner = stripped[1:-1]
    depth = 0
    for i, c in enumerate(inner):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            return inner[:i], inner[i + 1 :]
    raise ValueError("missing ',' between body and head")


def depth_parse_norms(text: str) -> NormSet:
    """Read norm-file text, each comment-free line split by the depth scan."""
    norms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                body_text, head_text = _depth_split_pair(line)
                norms.append(Norm(parse_formula(body_text), parse_formula(head_text)))
            except ValueError as exc:  # FormulaSyntaxError is a ValueError
                raise NormSyntaxError(lineno, str(exc)) from None
    return NormSet(tuple(norms))


@dataclass(frozen=True, slots=True)
class DataclassFormula:
    """Base class of all formula nodes."""


@dataclass(frozen=True, slots=True)
class DataclassAtom(DataclassFormula):
    name: str


@dataclass(frozen=True, slots=True)
class DataclassTop(DataclassFormula):
    pass


@dataclass(frozen=True, slots=True)
class DataclassBottom(DataclassFormula):
    pass


@dataclass(frozen=True, slots=True)
class DataclassNot(DataclassFormula):
    operand: DataclassFormula


@dataclass(frozen=True, slots=True)
class DataclassAnd(DataclassFormula):
    left: DataclassFormula
    right: DataclassFormula


@dataclass(frozen=True, slots=True)
class DataclassOr(DataclassFormula):
    left: DataclassFormula
    right: DataclassFormula


@dataclass(frozen=True, slots=True)
class DataclassImplies(DataclassFormula):
    left: DataclassFormula
    right: DataclassFormula


@dataclass(frozen=True, slots=True)
class DataclassNorm:
    body: DataclassFormula
    head: DataclassFormula


@dataclass(frozen=True, slots=True)
class DataclassNormSet:
    norms: tuple[DataclassNorm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "norms", tuple(self.norms))


_DATACLASSES = {
    Atom: DataclassAtom, Top: DataclassTop, Bottom: DataclassBottom, Not: DataclassNot,
    And: DataclassAnd, Or: DataclassOr, Implies: DataclassImplies, Norm: DataclassNorm,
    NormSet: DataclassNormSet,
}
for _reference in _DATACLASSES.values():
    _reference.__qualname__ = _reference.__name__.removeprefix("Dataclass")  # read by repr


def as_dataclass(value):
    """A formula, norm or norm set rebuilt from the ``Dataclass`` classes, field by field."""
    if type(value) is tuple:
        return tuple(map(as_dataclass, value))
    if type(value) not in _DATACLASSES:
        return value  # an atom's name
    cls = _DATACLASSES[type(value)]
    return cls(*(as_dataclass(getattr(value, field.name)) for field in fields(cls)))
