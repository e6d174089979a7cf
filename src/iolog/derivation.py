"""Proof trees for the norm calculus, their checker, and a canonical builder.

The calculus derives (body, head) pairs from a norm set using five
rules: the axiom pair (true, true); any norm of the set as a leaf;
weakening the output along entailment (SO); strengthening the input
along entailment (WI); and conjoining the heads of two derivations that
share the same body (AND).  SO and WI applied backwards introduce cuts,
so instead of proof search the builder assembles one canonical forward
derivation whenever the semantic engine says membership holds: widen
every triggered norm to the input, conjoin the heads left to right, and
weaken to the goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

from .entail import DEFAULT_ATOM_LIMIT, _Tables, entails
from .formula import TOP, And, Formula, parse_formula, print_formula
from .norms import Norm, NormSet, render_norm
from .output import Verdict, _query_formulas, _triggered

__all__ = [
    "Derivation",
    "TopIntro",
    "AxiomLeaf",
    "SO",
    "WI",
    "AND",
    "CheckFailure",
    "conclusion",
    "verify_derivation",
    "check_derivation",
    "construct_derivation",
    "derive_verdict",
    "render_derivation",
    "derivation_to_dict",
    "derivation_from_dict",
]


@dataclass(frozen=True)
class Derivation:
    """Base class of proof-tree nodes."""


@dataclass(frozen=True)
class TopIntro(Derivation):
    """Axiom: concludes (true, true)."""


@dataclass(frozen=True)
class AxiomLeaf(Derivation):
    """Leaf concluding one of the given norms; membership is checked, not assumed."""

    norm: Norm


@dataclass(frozen=True)
class SO(Derivation):
    """From (a, b) conclude (a, output), provided b entails output."""

    premise: Derivation
    output: Formula


@dataclass(frozen=True)
class WI(Derivation):
    """From (b, c) conclude (input, c), provided input entails b."""

    premise: Derivation
    input: Formula


@dataclass(frozen=True)
class AND(Derivation):
    """From (a, b) and (a, c) conclude (a, b & c); bodies must be structurally identical."""

    left: Derivation
    right: Derivation


# Each rule's tag, the attributes holding its premises (left before right), and the
# attribute holding its SO or WI parameter.
_RULES: dict[type, tuple[str, tuple[str, ...], str | None]] = {
    TopIntro: ("TOP", (), None),
    AxiomLeaf: ("AX", (), None),
    SO: ("SO", ("premise",), "output"),
    WI: ("WI", ("premise",), "input"),
    AND: ("AND", ("left", "right"), None),
}


def _rule(d: Derivation) -> tuple[str, tuple[str, ...], str | None]:
    """The table entry of ``d``'s rule; a node of a subclass reads as the rule it derives from."""
    for cls in type(d).__mro__:
        if (entry := _RULES.get(cls)) is not None:
            return entry
    raise TypeError(f"not a derivation: {d!r}")


def _walk(d: Derivation) -> tuple[list[tuple[Derivation, int, str]], dict[int, Norm]]:
    """Every node of ``d`` in pre-order (a node before its premises, left before right),
    each with its parent's position in the list and the attribute that holds it there;
    and every node's conclusion keyed by ``id``, computed once from its premises'."""
    order: list[tuple[Derivation, int, str]] = []
    stack = [(d, -1, "")]
    while stack:
        entry = stack.pop()
        parent = len(order)
        order.append(entry)
        node = entry[0]
        for step in reversed(_rule(node)[1]):
            stack.append((getattr(node, step), parent, step))
    concluded: dict[int, Norm] = {}
    for node, _, _ in reversed(order):  # rules tested commonest first
        if isinstance(node, WI):
            pair = Norm(node.input, concluded[id(node.premise)].head)
        elif isinstance(node, AxiomLeaf):
            pair = node.norm
        elif isinstance(node, AND):
            l, r = concluded[id(node.left)], concluded[id(node.right)]
            pair = Norm(l.body, And(l.head, r.head))
        elif isinstance(node, SO):
            pair = Norm(concluded[id(node.premise)].body, node.output)
        else:  # TopIntro, the one rule left: ``_rule`` rejects every other node
            pair = Norm(TOP, TOP)
        concluded[id(node)] = pair
    return order, concluded


def conclusion(d: Derivation) -> Norm:
    """The pair a well-formed tree concludes, computed structurally."""
    return _walk(d)[1][id(d)]


@dataclass(frozen=True)
class CheckFailure:
    """First rejected node: its attribute path from the root and the violated condition."""

    path: tuple[str, ...]
    reason: str

    def __str__(self) -> str:
        where = "root" + "".join(f".{step}" for step in self.path)
        return f"at {where}: {self.reason}"


def verify_derivation(
    norms: NormSet,
    d: Derivation,
    goal: Norm,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> CheckFailure | None:
    """Check every side condition plus the goal; None means the tree is accepted.

    Nodes are visited pre-order (a node before its premises, left before
    right) and the first violation is reported; the conclusion/goal match
    is checked last.
    """
    order, concluded = _walk(d)
    for position, (node, _, _) in enumerate(order):
        reason = _violation(norms, node, concluded, atom_limit)
        if reason is not None:
            path = []
            while position > 0:
                _, position, step = order[position]
                path.append(step)
            return CheckFailure(tuple(reversed(path)), reason)
    if (pair := concluded[id(d)]) != goal:
        reason = f"conclusion {render_norm(pair)} does not match goal {render_norm(goal)}"
        return CheckFailure((), reason)
    return None


def _violation(
    norms: NormSet, d: Derivation, concluded: dict[int, Norm], atom_limit: int
) -> str | None:
    """The side condition ``d`` violates, given its premises' conclusions, or None."""
    if isinstance(d, AxiomLeaf) and d.norm not in norms.norms:
        return f"axiom {render_norm(d.norm)} is not in the norm set"
    if isinstance(d, (SO, WI)):
        pair = concluded[id(d.premise)]
        strong, weak = (pair.head, d.output) if isinstance(d, SO) else (d.input, pair.body)
        # The conjuncts as premises: the same test, and no recursion per conjoined norm.
        if not entails(_conjuncts(strong), weak, atom_limit=atom_limit):
            return (
                f"{_rule(d)[0]} side condition fails: {print_formula(strong)} does not entail "
                f"{print_formula(weak)}"
            )
    if isinstance(d, AND):
        lbody, rbody = concluded[id(d.left)].body, concluded[id(d.right)].body
        if lbody != rbody:
            return (
                f"AND premises conclude different bodies: {print_formula(lbody)} vs "
                f"{print_formula(rbody)}"
            )
    return None


def _conjuncts(f: Formula) -> list[Formula]:
    """The conjuncts of ``f``: its subformulas below its top run of conjunctions."""
    found, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += (g.right, g.left)
        else:
            found.append(g)
    return found


def check_derivation(
    norms: NormSet,
    d: Derivation,
    goal: Norm,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> bool:
    """True when the tree is accepted as a derivation of ``goal`` from ``norms``."""
    return verify_derivation(norms, d, goal, atom_limit=atom_limit) is None


def construct_derivation(
    norms: NormSet,
    input: Formula,
    goal: Formula,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> Derivation | None:
    """Build the canonical derivation of (input, goal), or None when none exists.

    Tautological goals route through the (true, true) axiom.  Otherwise
    every triggered norm is widened to the input with WI, the results are
    conjoined left to right in norm-set order, and one final SO weakens
    the combined head to the goal; if that last entailment fails the goal
    is not derivable at all.
    """
    tables = _Tables(_query_formulas(norms, input, goal), atom_limit)
    return _canonical_derivation(_triggered(norms, input, tables), input, goal, tables)


def _canonical_derivation(
    triggered: Iterable[Norm], input: Formula, goal: Formula, tables: _Tables
) -> Derivation | None:
    # ``triggered`` is not read when the goal is a tautology.
    if tables.entails((), goal):
        return SO(WI(TopIntro(), input), goal)
    triggered = list(triggered)
    # The combined head is the conjunction of the triggered heads.
    if not triggered or not tables.entails([n.head for n in triggered], goal):
        return None
    return SO(reduce(AND, [WI(AxiomLeaf(n), input) for n in triggered]), goal)


def derive_verdict(
    norms: NormSet,
    input: Formula,
    goal: Formula,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> Verdict:
    """Membership verdict from the proof-theoretic engine, carrying the certificate."""
    tables = _Tables(_query_formulas(norms, input, goal), atom_limit)
    triggered = list(_triggered(norms, input, tables))
    certificate = _canonical_derivation(triggered, input, goal, tables)
    heads = frozenset(n.head for n in triggered)
    return Verdict(certificate is not None, "derivation", triggered=heads, certificate=certificate)


def render_derivation(d: Derivation) -> str:
    """Deterministic indented text: one node per line, rule tag plus concluded pair."""
    return "\n".join(_derivation_lines(derivation_to_dict(d)))


def _derivation_lines(record: dict) -> list[str]:
    """The text lines of a structured derivation record, from the root down."""
    nodes = record["nodes"]
    lines, stack = [], [(nodes[-1], 0)]
    while stack:
        r, depth = stack.pop()
        pair = f"({r['conclusion_body']}, {r['conclusion_head']})"
        lines.append("  " * depth + f"{r['rule']} ⊢ {pair}")
        stack += [(nodes[premise], depth + 1) for premise in reversed(r["premises"])]
    return lines


def derivation_to_dict(d: Derivation) -> dict:
    """Structured rendering: ``{"nodes": [record, ...]}`` in reverse pre-order, so each node
    comes after its premises and the root is last; a record cites its premises by index."""
    order, concluded = _walk(d)
    records: list[dict] = []
    for node, parent, _ in order:
        rule, _, param = _rule(node)
        pair = concluded[id(node)]
        record = {
            "rule": rule,
            "conclusion_body": print_formula(pair.body),
            "conclusion_head": print_formula(pair.head),
        }
        if param is not None:
            record["param"] = print_formula(getattr(node, param))
        record["premises"] = []
        if parent >= 0:  # reversed, pre-order position p is index len(order) - 1 - p
            records[parent]["premises"].append(len(order) - 1 - len(records))
        records.append(record)
    return {"nodes": records[::-1]}


def derivation_from_dict(record: dict) -> Derivation:
    """Rebuild a derivation from its structured rendering; malformed records raise ValueError.

    One forward pass builds each node from premises built before it, so a record of any size
    reads back.  Every node but the root, which is last, is cited exactly once, so the record
    is a tree no larger than itself.  Only the flat form reads: a nested record has no ``nodes``.
    """
    try:
        built: list[Derivation] = []
        cited: set[int] = set()
        for r in record["nodes"]:
            cls = next((c for c, entry in _RULES.items() if entry[0] == r["rule"]), None)
            if cls is None:
                raise ValueError(f"unknown rule tag {r['rule']!r}")
            # A premise is the index (an int, not a bool) of an earlier node no node has cited.
            # Each rule's constructor takes its premises, left first, then its parameter or norm.
            premises = r["premises"]
            fresh = {p for p in premises if type(p) is int and 0 <= p < len(built)} - cited
            if type(premises) is not list or not len(fresh) == len(premises) == len(_RULES[cls][1]):
                raise ValueError(f"node {len(built)} ({r['rule']}) cites premises {premises!r}")
            cited |= fresh
            args = [built[p] for p in premises]
            if cls is AxiomLeaf:
                body, head = r["conclusion_body"], r["conclusion_head"]
                args.append(Norm(parse_formula(body), parse_formula(head)))
            elif _RULES[cls][2] is not None:
                args.append(parse_formula(r["param"]))
            built.append(cls(*args))
        if len(cited) < len(built) - 1:
            raise ValueError(f"{len(built) - 1 - len(cited)} node(s) cited by no node")
        return built[-1]
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed derivation record: {exc!r}") from None
