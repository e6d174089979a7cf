"""The simple-minded output operation of input/output logic.

Given a set of conditional norms and an input situation, the operation
answers which outputs are obligatory: the classical consequences of the
heads of all norms whose body follows from the input.  Conditional norms
themselves carry no truth-functional meaning; in particular an input
never counts as its own output.

The exact operation is decided from the full triggered-head set.  The
three-witness approximation, which only sees consequences of at most
three triggered heads (plus a tautology escape for the empty case), is
the lifted three-witness test read over every valuation.  One kernel
decides that test here and in the models of :mod:`iolog.worlds`: each
witness has a mask, the points where it fails (``_witnesses``), and the
test holds on a set of points exactly when some witness's mask misses the
set (``_holds``); over every point, exactly when some mask is ``0``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .entail import DEFAULT_ATOM_LIMIT, _Tables
from .formula import And, Formula, _atom_names, _Value
from .norms import Norm, NormSet, _norm_names

if TYPE_CHECKING:  # certificate types; imported lazily to avoid cycles
    from .derivation import Derivation
    from .worlds import WorldModel

__all__ = [
    "Verdict",
    "triggered_heads",
    "source_ordered_heads",
    "out1_member",
    "out1_member_multi",
    "out1_triple_approx",
]


class Verdict(_Value):
    """Outcome of a membership query: the boolean, which engine decided it,
    the triggered heads it saw, and a certificate when one exists (a
    derivation tree for positive proof-theoretic answers, a countermodel
    for negative lifted ones)."""

    __slots__ = ("holds", "engine", "triggered", "certificate")

    def __init__(
        self,
        holds: bool,
        engine: str,
        triggered: frozenset[Formula] = frozenset(),
        certificate: "Derivation | WorldModel | None" = None,
    ):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "triggered", triggered)
        object.__setattr__(self, "certificate", certificate)


def _query_names(norms: NormSet, *formulas: Formula) -> set[str]:
    """The atom names of ``formulas`` and of the norms' bodies and heads: the universe of a
    query's tables."""
    names = _atom_names(formulas)
    names.update(_norm_names(norms))
    return names


def _trigger(
    norms: NormSet, input: Formula, *goal: Formula, atom_limit: int
) -> tuple[_Tables, list[Norm], frozenset[Formula]]:
    """One engine call's set-up: its tables over the atoms of the input, any goal and the
    norms; the norms whose body the input entails, in norm-set order; and their heads."""
    tables = _Tables(_query_names(norms, input, *goal), atom_limit)
    triggered = [n for n in norms if tables.entails((input,), n.body)]
    return tables, triggered, frozenset(n.head for n in triggered)


def triggered_heads(
    norms: NormSet,
    input: Formula,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> frozenset[Formula]:
    """Heads of the norms whose body is entailed by the input."""
    return _trigger(norms, input, atom_limit=atom_limit)[2]


def source_ordered_heads(norms: NormSet, heads: frozenset[Formula]) -> tuple[Formula, ...]:
    """The given heads, deduplicated, in first-occurrence norm order.

    Reports and deterministic enumerations use this order.
    """
    ordered = dict.fromkeys(n.head for n in norms if n.head in heads)
    return tuple(ordered)


def out1_member(
    norms: NormSet,
    input: Formula,
    goal: Formula,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> Verdict:
    """Is ``goal`` among the simple-minded outputs for ``input`` under ``norms``?

    Decided as entailment of the goal from the triggered heads.  With no
    triggered head this degenerates to a tautology check: tautologies are
    output in every situation, nothing else is.
    """
    tables, _, heads = _trigger(norms, input, goal, atom_limit=atom_limit)
    return Verdict(tables.entails(heads, goal), "semantic", triggered=heads)


def out1_member_multi(
    norms: NormSet,
    inputs: Sequence[Formula],
    goal: Formula,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> Verdict:
    """Membership for a non-empty collection of input formulas.

    The inputs are folded into one conjunction in source order; the empty
    collection is rejected rather than given a default reading.
    """
    inputs = tuple(inputs)
    if not inputs:
        raise ValueError("empty input collection: supply at least one input formula")
    while len(inputs) > 1:  # pairwise, so the conjunction is log2(n) deep
        inputs = (*map(And, inputs[::2], inputs[1::2]), *inputs[len(inputs) & ~1:])
    return out1_member(norms, inputs[0], goal, atom_limit=atom_limit)


def _semantic_holds(
    norms: NormSet, input: Formula, goal: Formula, mode: str, *, atom_limit: int = DEFAULT_ATOM_LIMIT
) -> bool:
    """The sound answer that ``naive`` and the regression matrix set against the
    naive unfolding: out1 membership, or for outpre the goal among the triggered
    heads, a syntactic reading."""
    if mode == "out1":
        return out1_member(norms, input, goal, atom_limit=atom_limit).holds
    return goal in triggered_heads(norms, input, atom_limit=atom_limit)


def _masks(
    norms: Iterable[Norm], input: Formula, goal: Formula, mode: str, mask: Callable, full: int
) -> tuple[int, list]:
    """Where the claim can fail and, per norm, what the three-witness test reads, each
    formula's ``mask`` taken over ``full``'s points.  outpre can fail anywhere and reads where
    each norm misfits; out1 fails where the goal does and reads (where the body misses, head)."""
    goal, input = mask(goal), mask(input)
    masks = [(input & ~mask(n.body), mask(n.head)) for n in norms]
    if mode == "outpre":
        return full, [head ^ goal | missed for missed, head in masks]
    return full ^ goal, masks


def _one_world_failures(mode: str, masks: tuple[int, list]) -> int:
    """Mask of the points that falsify the claim as one-world models: where every norm
    misfits (outpre), or the goal fails and each norm misses or has a true head (out1)."""
    fails, norms = masks
    for misfit in norms if mode == "outpre" else (missed | head for missed, head in norms):
        fails &= misfit
    return fails


def _witnesses(mode: str, masks: tuple[int, list]) -> Iterator[int]:
    """The lifted test's witness masks, lazily, each the points where one witness fails.
    outpre's witnesses are its norms, each failing where it misfits.  out1's are the goal,
    failing where it does, and each multiset triple of distinct (where the body misses,
    where the head holds and the goal fails) pairs, failing where one of its bodies misses
    or all three heads hold where the goal fails.  k distinct pairs give at most
    C(k + 2, 3) + 1 out1 masks; over 2^n points at most 2^(2^n) of them are distinct."""
    fails, norms = masks
    if mode == "outpre":
        yield from norms
        return
    yield fails
    pairs = dict.fromkeys((missed, head & fails) for missed, head in norms)
    for (m1, h1), (m2, h2), (m3, h3) in itertools.combinations_with_replacement(pairs, 3):
        yield m1 | m2 | m3 | h1 & h2 & h3


def _holds(witnesses: Iterable[int], sel: int) -> bool:
    """The lifted test in a model whose worlds carry exactly the points in ``sel``: some
    witness never fails there.  Over every point it holds exactly when ``0`` is a mask."""
    return not all(map(sel.__and__, witnesses))


def out1_triple_approx(
    norms: NormSet,
    input: Formula,
    goal: Formula,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> Verdict:
    """Three-witness approximation of the output operation.

    Holds when the goal is a tautology or follows from some choice of
    three triggered heads (repetition allowed, so one or two heads also
    qualify).  Sound but incomplete: consequences needing four or more
    distinct heads are missed.  Past the shared tables, each triple's
    entailment is decided over its own atoms.
    """
    tables, triggered, heads = _trigger(norms, input, goal, atom_limit=atom_limit)
    if tables.shared:
        masks = _masks(triggered, input, goal, "out1", tables.mask, tables.full)
        holds = 0 in _witnesses("out1", masks)
    else:
        triples = itertools.combinations_with_replacement(source_ordered_heads(norms, heads), 3)
        holds = tables.entails((), goal) or any(tables.entails(t, goal) for t in triples)
    return Verdict(holds, "triple-approx", triggered=heads)
