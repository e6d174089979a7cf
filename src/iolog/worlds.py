"""Possible-worlds lifting of the output operation, and a countermodel finder.

Formulas are reinterpreted as predicates over a finite, non-empty world
set, evaluated by the bit-mask kernel of :mod:`iolog.entail` with bit w
standing for world w.  A lifted formula is valid in a model when it holds
at every world.  Lifting makes nested entailment claims safe; the naive
alternative, encoding "a entails s" as the Boolean implication a -> s, is
classically valid where the entailment fails.  ``naive_unfold_valid``
runs the same per-norm "fits" masks over every valuation instead, so the
two differ only in where the quantifiers sit: lifted pre-output asks that
some norm fit at every world, the naive one that at every valuation some
norm fit.

The lifted output operation is the three-witness encoding (with a
tautology disjunct for the no-triggered-norm case), matching the
approximation in :mod:`iolog.output`; the exact operation lives there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import or_
from types import MappingProxyType
from typing import Literal, Mapping

from .entail import DEFAULT_ATOM_LIMIT, _truth_mask, _valuation_masks
from .formula import BOTTOM, Formula, _atom_names
from .norms import NormSet
from .output import Verdict, _query_formulas, triggered_heads

__all__ = [
    "DEFAULT_SEARCH_BUDGET",
    "WorldModel",
    "LiftedQuery",
    "SearchBudgetError",
    "lifted_extension",
    "lifted_valid",
    "outpre_member_lifted",
    "out1_member_lifted",
    "find_countermodel",
    "lifted_verdict",
    "naive_unfold_valid",
    "render_world_model",
    "world_model_to_dict",
]

DEFAULT_SEARCH_BUDGET = 24

Mode = Literal["outpre", "out1"]


class SearchBudgetError(RuntimeError):
    """The countermodel search would exceed its enumeration budget."""

    def __init__(self, world_count: int, atom_count: int, budget: int):
        super().__init__(
            f"countermodel search budget exceeded: {world_count} worlds x {atom_count} atoms "
            f"> {budget} (raise the budget to search anyway)"
        )
        self.world_count = world_count
        self.atom_count = atom_count
        self.budget = budget


@dataclass(frozen=True)
class WorldModel:
    """A non-empty finite world set plus a read-only map from atoms to the worlds they hold in."""

    world_count: int
    extension: Mapping[str, frozenset[int]]

    def __post_init__(self):
        if self.world_count < 1:
            raise ValueError("a world model needs at least one world")
        frozen = {name: frozenset(worlds) for name, worlds in self.extension.items()}
        for name, worlds in frozen.items():
            if not all(0 <= w < self.world_count for w in worlds):
                raise ValueError(f"extension of {name!r} mentions out-of-range worlds")
        object.__setattr__(self, "extension", MappingProxyType(frozen))

    def __hash__(self) -> int:
        return hash((self.world_count, frozenset(self.extension.items())))

    def __reduce__(self):
        return type(self), (self.world_count, dict(self.extension))

    @property
    def worlds(self) -> frozenset[int]:
        return frozenset(range(self.world_count))


@dataclass(frozen=True)
class LiftedQuery:
    """A membership question posed to the lifted encodings or the naive unfolding."""

    norms: NormSet
    input: Formula
    goal: Formula
    mode: Mode

    def __post_init__(self):
        if self.mode not in ("outpre", "out1"):
            raise ValueError(f"unknown mode {self.mode!r}; expected 'outpre' or 'out1'")


def _model_masks(model: WorldModel) -> tuple[dict[str, int], int]:
    """Atom masks over the model's worlds (bit w = world w), and the universe mask."""
    env = {name: sum(1 << w for w in worlds) for name, worlds in model.extension.items()}
    return env, (1 << model.world_count) - 1


def lifted_extension(f: Formula, model: WorldModel) -> frozenset[int]:
    """The set of worlds where ``f`` holds, computed pointwise."""
    mask = _truth_mask(f, *_model_masks(model))
    return frozenset(w for w in model.worlds if mask >> w & 1)


def lifted_valid(f: Formula, model: WorldModel) -> bool:
    """A lifted formula is valid when it holds at every world of the model."""
    return lifted_extension(f, model) == model.worlds


def _fits(norms: NormSet, input: Formula, goal: Formula, env: Mapping[str, int], full: int):
    """Per norm, lazily, the mask where it fits: its head agrees with the goal and its
    body covers the input.  A body is skipped where its head agrees nowhere."""
    goal, input = _truth_mask(goal, env, full), _truth_mask(input, env, full)
    for n in norms:
        agree = full ^ _truth_mask(n.head, env, full) ^ goal
        yield agree and agree & (full ^ input | _truth_mask(n.body, env, full))


def _outpre_lifted(norms: NormSet, input: Formula, goal: Formula, env, full: int) -> bool:
    return full in _fits(norms, input, goal, env, full)  # some norm fits at every world


def _out1_lifted(norms: NormSet, input: Formula, goal: Formula, env, full: int) -> bool:
    if (goal := _truth_mask(goal, env, full)) == full:
        return True
    input = _truth_mask(input, env, full)
    covering = (n for n in norms if not input & ~_truth_mask(n.body, env, full))
    heads = {_truth_mask(n.head, env, full) for n in covering}
    triples = itertools.combinations_with_replacement(heads, 3)
    return any(not h & i & j & ~goal for h, i, j in triples)


def outpre_member_lifted(
    norms: NormSet, input: Formula, goal: Formula, model: WorldModel
) -> bool:
    """Lifted pre-output membership: some norm has the goal as head and a body
    covering the input, both read extensionally, so it fits at every world.

    The encoding existentially quantifies over a witness predicate, but the
    witness must equal some norm body extensionally, so trying exactly the
    norm bodies is exhaustive.
    """
    return _outpre_lifted(norms, input, goal, *_model_masks(model))


def out1_member_lifted(
    norms: NormSet, input: Formula, goal: Formula, model: WorldModel
) -> bool:
    """Lifted output membership, three-witness style: the goal is valid outright, or
    follows (validly, pointwise) from three pre-output members, repetition allowed:
    heads of norms whose body covers the input at every world."""
    return _out1_lifted(norms, input, goal, *_model_masks(model))


def _query_atoms(query: LiftedQuery) -> list[str]:
    return sorted(_atom_names(_query_formulas(query.norms, query.input, query.goal)))


def find_countermodel(
    query: LiftedQuery,
    max_worlds: int,
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> WorldModel | None:
    """First model (canonical order) falsifying the query, or None up to ``max_worlds``.

    Canonical order runs the world count up from 1 and, per size, compares
    models by their atom extensions as binary numbers (bit w = membership
    of world w), atoms in lexicographic order: the first model a binary
    counter over the extensions would meet, the last atom cycling fastest.
    Sizes where world_count x atom_count would exceed the budget raise
    :class:`SearchBudgetError` instead of silently reporting absence.

    The search visits sets of distinct valuations rather than models: per
    size W, each of the C(2^n, W) sets of W valuations of the n query atoms.
    A lifted verdict depends only on the set of valuations the worlds
    carry, so a model repeating a valuation has the verdict of a smaller
    one, which comes first.  At the first size with a countermodel every
    countermodel therefore has distinct worlds: the least is the least
    arrangement of some falsifying set.  A set's least arrangement lists its
    valuations from highest to lowest, so the search takes the least of
    those over the falsifying sets of that size.  For the same reason the
    search stops after 2^n worlds, and absence beyond that is exact.
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    names = _query_atoms(query)
    member = _outpre_lifted if query.mode == "outpre" else _out1_lifted
    points, bits = 2 ** len(names), range(len(names) - 1, -1, -1)  # atom i: bit n-1-i
    for world_count in range(1, min(max_worlds, points) + 1):
        if world_count * len(names) > budget:
            raise SearchBudgetError(world_count, len(names), budget)
        full, last, least = (1 << world_count) - 1, world_count - 1, None
        # Valuations run from highest to lowest over worlds 0, 1, ...; the masks of the
        # first W-1 worlds are built once per prefix, the last world's bit once per set.
        for prefix in itertools.combinations(range(points - 1, -1, -1), last):
            base = [sum((v >> b & 1) << w for w, v in enumerate(prefix)) for b in bits]
            for v in range(min(prefix, default=points) - 1, -1, -1):
                env = {name: m | (v >> b & 1) << last for name, m, b in zip(names, base, bits)}
                if not member(query.norms, query.input, query.goal, env, full):
                    masks = tuple(env.values())
                    least = masks if least is None else min(least, masks)
        if least is not None:
            worlds = range(world_count)
            extension = {name: {w for w in worlds if m >> w & 1} for name, m in zip(names, least)}
            return WorldModel(world_count, extension)
    return None


def lifted_verdict(
    norms: NormSet,
    input: Formula,
    goal: Formula,
    *,
    max_worlds: int = 4,
    budget: int = DEFAULT_SEARCH_BUDGET,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> Verdict:
    """Membership verdict from countermodel search over the lifted output encoding.

    Holds when no model up to ``max_worlds`` falsifies the query; a found
    countermodel is attached as the certificate.
    """
    heads = triggered_heads(norms, input, atom_limit=atom_limit)  # the cheap guard first
    model = find_countermodel(LiftedQuery(norms, input, goal, "out1"), max_worlds, budget=budget)
    return Verdict(model is None, "lifted", triggered=heads, certificate=model)


def naive_unfold_valid(
    norms: NormSet,
    input: Formula,
    goal: Formula,
    mode: Mode,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> bool:
    """Classical validity of the naive Boolean unfolding of a membership claim.

    Entailment is encoded as plain implication and the witness
    quantifiers range over Booleans, so for each valuation a norm need
    only match by truth value.  This is deliberately unsound as a
    membership test: together with the law of excluded middle it
    validates claims the real operation rejects.
    """
    env, full = _valuation_masks(_query_atoms(LiftedQuery(norms, input, goal, mode)), atom_limit)
    if mode == "outpre":  # at every valuation some norm fits
        return full in itertools.accumulate(_fits(norms, input, goal, env, full), or_)
    # At every valuation the goal holds, or some norm's body covers the input and its head fails.
    fail = _fits(norms, input, BOTTOM, env, full)
    return full in itertools.accumulate(fail, or_, initial=_truth_mask(goal, env, full))


def render_world_model(model: WorldModel) -> str:
    """Countermodel text: the world names, then one extension line per atom."""
    return "\n".join(_world_model_lines(world_model_to_dict(model)))


def _world_model_lines(record: dict) -> list[str]:
    """The text lines of a structured world-model record."""
    lines = ["worlds: " + " ".join(record["worlds"])]
    return lines + [f"{name} = {{{', '.join(ws)}}}" for name, ws in record["extension"].items()]


def world_model_to_dict(model: WorldModel) -> dict:
    """Structured rendering of a model, with the same content as the text form."""
    return {
        "world_count": model.world_count,
        "worlds": [f"w{i}" for i in range(model.world_count)],
        "extension": {
            name: [f"w{i}" for i in sorted(model.extension[name])]
            for name in sorted(model.extension)
        },
    }
