"""Possible-worlds lifting of the output operation, and a countermodel finder.

Formulas are reinterpreted as predicates over a finite, non-empty world
set, evaluated by the bit-mask kernel of :mod:`iolog.entail` with bit w
standing for world w.  A lifted formula is valid in a model when it holds
at every world.  Lifting makes nested entailment claims safe; the naive
alternative, encoding "a entails s" as the Boolean implication a -> s, is
classically valid where the entailment fails.  It is the lifted encoding
read in one-world models, so the two differ only in where the quantifiers
sit: lifted pre-output asks that some norm fit at every world, the naive
one that at every valuation some norm fit.

The lifted output operation is the three-witness encoding (with a
tautology disjunct for the no-triggered-norm case).  Its test lives in
:mod:`iolog.output`, whose triple engine reads it over every valuation:
the witness masks, and the test of a set of points against them.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Callable, Literal, Mapping

# The search's refusal is worded beside the atom limit's, in the layer every table is built by.
from .entail import DEFAULT_ATOM_LIMIT, DEFAULT_SEARCH_BUDGET, SearchBudgetError
from .entail import _DEFAULT_MAX_WORLDS, _TABLE_CEILING, _guard, _Tables, _truth_mask
from .formula import Formula, _Value
from .norms import NormSet
from .output import Verdict, _holds, _masks, _one_world_failures, _query_names, _witnesses
from .output import triggered_heads

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

Mode = Literal["outpre", "out1"]


class WorldModel(_Value):
    """A non-empty finite world set plus a read-only map from atoms to the worlds they hold in."""

    __slots__ = ("world_count", "extension")

    def __init__(self, world_count: int, extension: Mapping[str, frozenset[int]]):
        # Counts and worlds are ints, not bools: True would equal world 1 but print as wTrue.
        if type(world_count) is not int or world_count < 1:
            raise ValueError(f"a world model needs an int count of worlds, at least 1, "
                             f"got {world_count!r}")
        frozen = {name: frozenset(worlds) for name, worlds in extension.items()}
        for name, worlds in frozen.items():
            if not all(type(w) is int and 0 <= w < world_count for w in worlds):
                raise ValueError(f"extension of {name!r} mentions a world that is not an int "
                                 f"in range({world_count})")
        object.__setattr__(self, "world_count", world_count)
        object.__setattr__(self, "extension", MappingProxyType(frozen))

    def __hash__(self) -> int:
        return hash((self.world_count, frozenset(self.extension.items())))

    def __reduce__(self):
        return type(self), (self.world_count, dict(self.extension))

    @property
    def worlds(self) -> frozenset[int]:
        return frozenset(range(self.world_count))


def _check_mode(mode: str) -> None:
    """Refuse a mode the encodings do not read, for a query and the naive unfolding alike."""
    if mode not in ("outpre", "out1"):
        raise ValueError(f"unknown mode {mode!r}; expected 'outpre' or 'out1'")


class LiftedQuery(_Value):
    """A membership question posed to the lifted encodings or the naive unfolding."""

    __slots__ = ("norms", "input", "goal", "mode")

    def __init__(self, norms: NormSet, input: Formula, goal: Formula, mode: Mode):
        _check_mode(mode)
        object.__setattr__(self, "norms", norms)
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "goal", goal)
        object.__setattr__(self, "mode", mode)


def _model_masks(model: WorldModel) -> tuple[Callable[[Formula], int], int]:
    """Each formula's mask over the model's worlds (bit w = world w), and the universe mask."""
    env = {name: sum(1 << w for w in worlds) for name, worlds in model.extension.items()}
    full = (1 << model.world_count) - 1
    return lambda f: _truth_mask(f, env, full), full


def lifted_extension(f: Formula, model: WorldModel) -> frozenset[int]:
    """The set of worlds where ``f`` holds, computed pointwise."""
    mask = _model_masks(model)[0](f)
    return frozenset(w for w in model.worlds if mask >> w & 1)


def lifted_valid(f: Formula, model: WorldModel) -> bool:
    """A lifted formula is valid when it holds at every world of the model."""
    return lifted_extension(f, model) == model.worlds


def outpre_member_lifted(norms: NormSet, input: Formula, goal: Formula, model: WorldModel) -> bool:
    """Lifted pre-output membership: some norm has the goal as head and a body
    covering the input, both read extensionally, so it fits at every world.

    The encoding existentially quantifies over a witness predicate, but the
    witness must equal some norm body extensionally, so trying exactly the
    norm bodies is exhaustive.
    """
    return 0 in _witnesses("outpre", _masks(norms, input, goal, "outpre", *_model_masks(model)))


def out1_member_lifted(norms: NormSet, input: Formula, goal: Formula, model: WorldModel) -> bool:
    """Lifted output membership, three-witness style: the goal is valid outright, or
    follows (validly, pointwise) from three pre-output members, repetition allowed:
    heads of norms whose body covers the input at every world."""
    return 0 in _witnesses("out1", _masks(norms, input, goal, "out1", *_model_masks(model)))


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
    A world count W over n atoms is searched only when its C(2^n, W) sets of
    distinct valuations number at most 2^min(budget, table ceiling); else it
    raises :class:`SearchBudgetError` instead of silently reporting absence.
    At one world this is n <= budget, checked before any table is built;
    whatever the budget, more atoms than the ceiling raise AtomLimitError.

    A lifted verdict depends only on the set of valuations the worlds carry,
    so a model repeating one has the verdict of a smaller model, which comes
    first.  The search reads masks of all 2^n valuations of the n query atoms.
    One world is the naive unfolding.  Past it the witness masks are built
    once, and a set of W distinct valuations, the sum of their one-bit masks,
    falsifies when it meets every witness mask; the search takes the least
    arrangement (valuations from highest to lowest) of a falsifying set.
    Absence past 2^n worlds is exact.
    """
    _guard(max_worlds, "max_worlds", 1)
    bound = min(_guard(budget, "budget"), _TABLE_CEILING)  # at most 2^bound sets a world count
    names = _query_names(query.norms, query.input, query.goal)
    if bound < len(names) <= _TABLE_CEILING:  # the one-world guard, before any table is built
        raise SearchBudgetError(1, len(names), bound)
    tables = _Tables(names, _TABLE_CEILING, whole=True)  # past the ceiling, AtomLimitError
    env, full = tables.env, tables.full
    masks = _masks(*query._values, tables.truth, full)  # its four fields

    def arrangement(chosen: tuple[int, ...]) -> tuple[int, ...]:  # by atom name, its world mask
        return tuple(sum(1 << w for w, bit in enumerate(chosen) if c & bit) for c in env.values())

    fails = _one_world_failures(query.mode, masks)
    least = (fails & -fails,) if fails else None  # the lowest valuation's one-bit mask
    world_count, points, family = 1, full.bit_length(), ()
    while least is None and world_count < min(max_worlds, points):
        world_count += 1
        if math.comb(points, world_count) > 1 << bound:  # so no one-bit masks past 13 atoms
            raise SearchBudgetError(world_count, len(names), bound)
        family = family or tuple(dict.fromkeys(_witnesses(query.mode, masks)))  # past the guard
        sets = itertools.combinations([1 << v for v in range(points - 1, -1, -1)], world_count)
        falsifying = (c for c in sets if not _holds(family, sum(c)))
        least = min(falsifying, key=arrangement, default=None)
    if least is None:
        return None
    extension = {name: {w for w, bit in enumerate(least) if m & bit} for name, m in env.items()}
    return WorldModel(len(least), extension)


def lifted_verdict(
    norms: NormSet,
    input: Formula,
    goal: Formula,
    *,
    max_worlds: int = _DEFAULT_MAX_WORLDS,
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
    _check_mode(mode)
    tables = _Tables(_query_names(norms, input, goal), atom_limit, whole=True)
    return not _one_world_failures(mode, _masks(norms, input, goal, mode, tables.truth, tables.full))


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
