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

from functools import reduce

from .entail import DEFAULT_ATOM_LIMIT, _guard, _Tables
from .formula import TOP, And, Formula, _atom_names, _Value, parse_formula, print_formula
from .norms import Norm, NormSet, render_norm
from .output import Verdict, _trigger

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


class Derivation(_Value):
    """Base class of proof-tree nodes."""

    __slots__ = ()
    # A rule class's tag; the attributes holding its premises, left first; the attribute
    # holding its parameter (SO's and WI's formula, written as ``param``, or a leaf's norm,
    # written as its conclusion); and its conclusion as a (body, head) pair, from the node
    # and the pairs computed so far, keyed by ``id``.  The reader checks every stated
    # conclusion against the last.  A node of a subclass inherits its rule class's.
    _rule = None


class TopIntro(Derivation):
    """Axiom: concludes (true, true)."""

    __slots__ = ()
    _rule = ("TOP", (), None, lambda d, done: (TOP, TOP))


class AxiomLeaf(Derivation):
    """Leaf concluding one of the given norms; membership is checked, not assumed."""

    __slots__ = ("norm",)
    _rule = ("AX", (), "norm", lambda d, done: (d.norm.body, d.norm.head))

    def __init__(self, norm: Norm):
        object.__setattr__(self, "norm", norm)


class SO(Derivation):
    """From (a, b) conclude (a, output), provided b entails output."""

    __slots__ = ("premise", "output")
    _rule = ("SO", ("premise",), "output", lambda d, done: (done[id(d.premise)][0], d.output))

    def __init__(self, premise: Derivation, output: Formula):
        object.__setattr__(self, "premise", premise)
        object.__setattr__(self, "output", output)


class WI(Derivation):
    """From (b, c) conclude (input, c), provided input entails b."""

    __slots__ = ("premise", "input")
    _rule = ("WI", ("premise",), "input", lambda d, done: (d.input, done[id(d.premise)][1]))

    def __init__(self, premise: Derivation, input: Formula):
        object.__setattr__(self, "premise", premise)
        object.__setattr__(self, "input", input)


class AND(Derivation):
    """From (a, b) and (a, c) conclude (a, b & c); bodies must be structurally identical."""

    __slots__ = ("left", "right")
    _rule = ("AND", ("left", "right"), None, lambda d, done: (
        done[id(d.left)][0], And(done[id(d.left)][1], done[id(d.right)][1])))

    def __init__(self, left: Derivation, right: Derivation):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


_BY_TAG = {cls._rule[0]: cls for cls in (TopIntro, AxiomLeaf, SO, WI, AND)}


def _walk(d: Derivation, read: list | None = None) -> tuple[list[tuple], dict[int, tuple]]:
    """Every node of ``d`` in pre-order (a node before its premises, left before right),
    each with its parent's position in the list, the attribute that holds it there and its
    rule; every node's conclusion, a (body, head) pair keyed by ``id``, computed once from
    its premises'; and, appended to ``read``, each leaf's body and head, SO output and WI
    input, in pre-order."""
    order: list[tuple] = []
    stack = [(d, -1, "")]
    while stack:
        node, parent, step = stack.pop()
        if not isinstance(node, Derivation) or (rule := node._rule) is None:
            raise TypeError(f"not a derivation: {node!r}")
        for premise in reversed(rule[1]):
            stack.append((getattr(node, premise), len(order), premise))
        if read is not None and rule[2]:
            p = getattr(node, rule[2])
            read += (p.body, p.head) if isinstance(p, Norm) else (p,)
        order.append((node, parent, step, rule))
    concluded: dict[int, tuple] = {}
    for node, _, _, rule in reversed(order):
        concluded[id(node)] = rule[3](node, concluded)
    return order, concluded


def _as_norm(d: Derivation, pair: tuple) -> Norm:
    """The norm ``d`` concludes, given its pair: a leaf's own norm, else one built."""
    return d.norm if d._rule[0] == "AX" else Norm(*pair)


def conclusion(d: Derivation) -> Norm:
    """The norm a well-formed tree concludes, computed structurally."""
    return _as_norm(d, _walk(d)[1][id(d)])


class CheckFailure(_Value):
    """First rejected node: its attribute path from the root and the violated condition."""

    __slots__ = ("path", "reason")

    def __init__(self, path: tuple[str, ...], reason: str):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "reason", reason)

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
    is checked last.  One set of truth tables, over the atoms of every leaf's
    norm, WI input and SO output, decides every side condition in one pass;
    where those atoms are too many to share, each is decided over its own.
    """
    _guard(atom_limit, "atom_limit")  # before the walk: a bad limit is named before a bad tree
    order, concluded = _walk(d, read := [])
    # Masks are memoised by identity: the tree and ``concluded`` hold each formula asked about.
    tables = _Tables(_atom_names(read), atom_limit)
    given = set(map(id, norms.norms))  # a leaf's norm is most often one of these, not a copy
    for position, (node, _, _, (tag, _, _, _)) in enumerate(order):
        if tag == "AX":
            if id(node.norm) in given or node.norm in norms.norms:
                continue
            reason = f"axiom {render_norm(node.norm)} is not in the norm set"
        elif tag == "SO" or tag == "WI":
            body, head = concluded[id(node.premise)]
            if tag == "SO":  # the head's conjuncts: the same test, no recursion per conjoined norm
                strong, weak, premises = head, node.output, _conjuncts(head)
            else:  # the input as one premise, its mask shared by every WI node over it
                strong, weak, premises = node.input, body, (node.input,)
            if tables.entails(premises, weak):
                continue
            reason = (f"{tag} side condition fails: {print_formula(strong)} does not entail "
                      f"{print_formula(weak)}")
        elif tag == "AND":
            lbody, rbody = concluded[id(node.left)][0], concluded[id(node.right)][0]
            if lbody is rbody or lbody == rbody:
                continue
            reason = (f"AND premises conclude different bodies: {print_formula(lbody)} vs "
                      f"{print_formula(rbody)}")
        else:
            continue
        path = []
        while position > 0:
            _, position, step, _ = order[position]
            path.append(step)
        return CheckFailure(tuple(reversed(path)), reason)
    if (norm := _as_norm(d, concluded[id(d)])) != goal:
        reason = f"conclusion {render_norm(norm)} does not match goal {render_norm(goal)}"
        return CheckFailure((), reason)
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
    """The canonical derivation of (input, goal), or None when none exists: the certificate
    of ``derive_verdict``, which raises where it does."""
    return derive_verdict(norms, input, goal, atom_limit=atom_limit).certificate


def derive_verdict(
    norms: NormSet,
    input: Formula,
    goal: Formula,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> Verdict:
    """Membership verdict from the proof-theoretic engine, carrying the canonical derivation.

    Triggering is decided first.  A tautological goal then routes through the (true, true)
    axiom; otherwise the triggered norms, widened to the input with WI and conjoined in
    norm-set order, are weakened to the goal by one SO, or no derivation exists.
    """
    tables, triggered, heads = _trigger(norms, input, goal, atom_limit=atom_limit)
    if tables.entails((), goal):
        certificate = SO(WI(TopIntro(), input), goal)
    elif triggered and tables.entails(heads, goal):
        certificate = SO(reduce(AND, [WI(AxiomLeaf(n), input) for n in triggered]), goal)
    else:
        certificate = None
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
    for node, parent, _, (tag, _, param, _) in order:
        body, head = map(print_formula, concluded[id(node)])
        record = {"rule": tag, "conclusion_body": body, "conclusion_head": head}
        if param is not None and param != "norm":
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
    is a tree no larger than itself.  Each node's stated conclusion must be the one it derives,
    as ``print_formula`` prints it.  Only the flat form reads: a nested record has no ``nodes``.
    """
    try:
        built: list[Derivation] = []
        cited: set[int] = set()
        concluded: dict[int, tuple] = {}
        for r in record["nodes"]:
            if r["rule"] not in _BY_TAG:
                raise ValueError(f"unknown rule tag {r['rule']!r}")
            cls = _BY_TAG[r["rule"]]
            tag, attrs, param, conclude = cls._rule
            # A premise is the index (an int, not a bool) of an earlier node no node has cited.
            # Each rule's constructor takes its premises, left first, then its parameter.
            premises = r["premises"]
            fresh = {p for p in premises if type(p) is int and 0 <= p < len(built)} - cited
            if type(premises) is not list or not len(fresh) == len(premises) == len(attrs):
                raise ValueError(f"node {len(built)} ({tag}) cites premises {premises!r}")
            cited |= fresh
            args = [built[p] for p in premises]
            body, head = r["conclusion_body"], r["conclusion_head"]
            if param == "norm":
                args.append(Norm(parse_formula(body), parse_formula(head)))
            elif param is not None:
                args.append(parse_formula(r["param"]))
            node = cls(*args)
            pair = concluded[id(node)] = conclude(node, concluded)
            # Printed text, not parsed formulas: a long AND head nests past MAX_DEPTH.
            if print_formula(pair[0]) != body or print_formula(pair[1]) != head:
                raise ValueError(f"node {len(built)} ({tag}) misstates its conclusion")
            built.append(node)
        if len(cited) < len(built) - 1:
            raise ValueError(f"{len(built) - 1 - len(cited)} node(s) cited by no node")
        return built[-1]
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed derivation record: {exc!r}") from None
