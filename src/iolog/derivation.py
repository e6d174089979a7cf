"""Proof trees for the norm calculus, their checker, and a canonical builder.

The calculus derives (body, head) pairs from a norm set using four
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


def conclusion(d: Derivation) -> Norm:
    """The pair a well-formed tree concludes, computed structurally."""
    match d:
        case TopIntro():
            return Norm(TOP, TOP)
        case AxiomLeaf(norm):
            return norm
        case SO(premise, output):
            return Norm(conclusion(premise).body, output)
        case WI(premise, input):
            return Norm(input, conclusion(premise).head)
        case AND(left, right):
            l, r = conclusion(left), conclusion(right)
            return Norm(l.body, And(l.head, r.head))
    raise TypeError(f"not a derivation: {d!r}")


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
    failure = _verify_node(norms, d, (), atom_limit)
    if failure is not None:
        return failure
    concluded = conclusion(d)
    if concluded != goal:
        return CheckFailure(
            (), f"conclusion {render_norm(concluded)} does not match goal {render_norm(goal)}"
        )
    return None


def _verify_node(
    norms: NormSet, d: Derivation, path: tuple[str, ...], atom_limit: int
) -> CheckFailure | None:
    match d:
        case TopIntro():
            return None
        case AxiomLeaf(norm):
            if norm not in norms.norms:
                return CheckFailure(path, f"axiom {render_norm(norm)} is not in the norm set")
            return None
        case SO(premise, output):
            premise_head = conclusion(premise).head
            if not entails((premise_head,), output, atom_limit=atom_limit):
                return CheckFailure(
                    path,
                    f"SO side condition fails: {print_formula(premise_head)} does not entail "
                    f"{print_formula(output)}",
                )
            return _verify_node(norms, premise, path + ("premise",), atom_limit)
        case WI(premise, input):
            premise_body = conclusion(premise).body
            if not entails((input,), premise_body, atom_limit=atom_limit):
                return CheckFailure(
                    path,
                    f"WI side condition fails: {print_formula(input)} does not entail "
                    f"{print_formula(premise_body)}",
                )
            return _verify_node(norms, premise, path + ("premise",), atom_limit)
        case AND(left, right):
            lbody, rbody = conclusion(left).body, conclusion(right).body
            if lbody != rbody:
                return CheckFailure(
                    path,
                    f"AND premises conclude different bodies: {print_formula(lbody)} vs "
                    f"{print_formula(rbody)}",
                )
            return _verify_node(norms, left, path + ("left",), atom_limit) or _verify_node(
                norms, right, path + ("right",), atom_limit
            )
    raise TypeError(f"not a derivation: {d!r}")


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


_RULE_TAGS = {TopIntro: "TOP", AxiomLeaf: "AX", SO: "SO", WI: "WI", AND: "AND"}


def _children(d: Derivation) -> tuple[Derivation, ...]:
    match d:
        case SO(premise, _) | WI(premise, _):
            return (premise,)
        case AND(left, right):
            return (left, right)
        case _:
            return ()


def render_derivation(d: Derivation) -> str:
    """Deterministic indented text: one node per line, rule tag plus concluded pair."""
    lines: list[str] = []

    def walk(node: Derivation, depth: int) -> None:
        pair = conclusion(node)
        lines.append("  " * depth + f"{_RULE_TAGS[type(node)]} ⊢ {render_norm(pair)}")
        for child in _children(node):
            walk(child, depth + 1)

    walk(d, 0)
    return "\n".join(lines)


def derivation_to_dict(d: Derivation) -> dict:
    """Structured rendering: nested records with rule, concluded pair, and children."""
    pair = conclusion(d)
    record: dict = {
        "rule": _RULE_TAGS[type(d)],
        "conclusion_body": print_formula(pair.body),
        "conclusion_head": print_formula(pair.head),
    }
    match d:
        case SO(_, output):
            record["param"] = print_formula(output)
        case WI(_, input):
            record["param"] = print_formula(input)
    record["children"] = [derivation_to_dict(child) for child in _children(d)]
    return record


def derivation_from_dict(record: dict) -> Derivation:
    """Rebuild a derivation from its structured rendering; malformed records raise ValueError."""
    try:
        rule = record["rule"]
        children = [derivation_from_dict(child) for child in record.get("children", ())]
        # Each rule's constructor takes exactly its children, then its parameter.
        if rule in ("TOP", "AND"):
            return (TopIntro if rule == "TOP" else AND)(*children)
        if rule == "AX":
            body, head = record["conclusion_body"], record["conclusion_head"]
            return AxiomLeaf(*children, Norm(parse_formula(body), parse_formula(head)))
        if rule in ("SO", "WI"):
            return (SO if rule == "SO" else WI)(*children, parse_formula(record["param"]))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed derivation record: {exc!r}") from None
    raise ValueError(f"unknown rule tag {rule!r}")
