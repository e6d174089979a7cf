"""Classical propositional semantics over bit-mask truth tables.

This is the evaluation kernel the rest of the toolkit is built on.  A
formula is evaluated over a whole universe of points at once: an integer
whose bit i says whether it holds at point i (Knuth, TAOCP 4A, 7.1).
Entailment's universe is every valuation of the atoms involved, guarded
by a hard atom limit (default 16, a 65536-bit table); :mod:`iolog.worlds`
uses the worlds of a model, and its countermodel search is guarded by the
search budget defined here; an engine call over few atoms shares one set of
tables among its entailments.  Whatever the limit or budget, no table spans
more than ``_TABLE_CEILING`` atoms.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .formula import And, Atom, Bottom, Formula, Implies, Not, Or, Top, _as_node, _atom_names, _Error

__all__ = [
    "DEFAULT_ATOM_LIMIT",
    "Valuation",
    "UnboundAtomError",
    "AtomLimitError",
    "eval_formula",
    "entails",
    "counterexample_valuation",
    "is_tautology",
]

DEFAULT_ATOM_LIMIT = 16
DEFAULT_SEARCH_BUDGET = 24
_DEFAULT_MAX_WORLDS = 4  # the lifted engines' default world bound, read by the CLI without worlds
_TABLE_CEILING = 25  # most atoms any truth table spans, whatever the bounds: 4 MiB a mask

Valuation = Mapping[str, bool]


def _guard(value: int, name: str, least: int = 0) -> int:
    """``value``, checked as a guard: an int (not a bool) of at least ``least``."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an int, at least {least}, got {value!r}")
    return value


class UnboundAtomError(_Error, LookupError):
    """An ``atom`` was evaluated against a valuation or model that does not map it."""

    _fields = ("atom",)
    _template = "atom {atom!r} is not mapped"


class AtomLimitError(_Error, ValueError):
    """A query involved ``count`` atoms, more than its ``limit`` or the table ceiling allows."""

    _fields = ("count", "limit")

    def __str__(self) -> str:
        bound = "table ceiling" if self.limit == _TABLE_CEILING else "atom limit"
        return f"query involves {self.count} atoms, exceeding the {bound} of {self.limit}"


class SearchBudgetError(_Error, RuntimeError):
    """The countermodel search at ``world_count`` worlds over ``atom_count`` atoms would test
    more sets of distinct valuations than 2^``budget``, the budget or the table ceiling."""

    _fields = ("world_count", "atom_count", "budget")

    def __str__(self) -> str:
        bound = "table ceiling" if self.budget == _TABLE_CEILING else "search budget"
        sets = math.comb(2**self.atom_count, self.world_count)
        return (f"countermodel search at {self.world_count} worlds over {self.atom_count} atoms "
                f"tests {sets} sets, exceeding the {bound} of 2^{self.budget}")


def _truth_mask(f: Formula, env: Mapping[str, int], full: int) -> int:
    """Mask of the points where ``f`` holds, given each atom's mask; bit i of ``full``
    is point i.  The right operand is skipped where the left one decides everywhere."""
    t = type(f)  # exact-type tests: several times faster than ``match`` class patterns
    if t is Atom:
        try:
            return env[f.name]
        except KeyError:
            raise UnboundAtomError(f.name) from None
    if t is And:
        left = _truth_mask(f.left, env, full)
        return left and left & _truth_mask(f.right, env, full)
    if t is Or:
        left = _truth_mask(f.left, env, full)
        return full if left == full else left | _truth_mask(f.right, env, full)
    if t is Not:
        return full ^ _truth_mask(f.operand, env, full)
    if t is Implies:
        left = _truth_mask(f.left, env, full)
        return full if not left else full ^ left | _truth_mask(f.right, env, full)
    if t is Top:
        return full
    if t is Bottom:
        return 0
    return _truth_mask(_as_node(f), env, full)


_JOINT_ATOMS = 16  # most atoms an engine call shares tables over: 8 KiB per formula


def _valuation_masks(names: list[str]) -> tuple[dict[str, int], int]:
    """Atom masks over all valuations of the sorted ``names``, and the universe mask.
    Point i is the i-th valuation ``itertools.product`` yields: the last name cycles fastest."""
    env, run = {}, 1 << len(names)
    full = mask = (1 << run) - 1
    for name in names:  # runs half the previous name's: one shift, one XOR (TAOCP 7.1.3)
        run >>= 1
        env[name] = mask = mask ^ mask >> run
    return env, full


class _Tables:
    """Truth tables over every valuation of the atom ``names``: every table is built here.
    ``output._trigger`` passes the names of an engine's input, any goal and every norm
    (``norms._norm_names``), and ``derivation.verify_derivation`` those of its leaves'
    norms, WI inputs and SO outputs; one entailment, the naive unfolding and the
    countermodel search pass ``whole``.  Each formula's mask is computed once, memoised
    by identity, so ask only about formulas that outlive the tables.  Unless ``whole``,
    more names than ``_JOINT_ATOMS`` or the limit get no tables, and each entailment is
    decided over its own atoms.  Either way an entailment raises AtomLimitError only
    when its own atoms exceed the limit, or ``_TABLE_CEILING``, which no limit raises."""

    def __init__(self, names: Iterable[str], atom_limit: int, whole: bool = False):
        self.atom_limit = _guard(atom_limit, "atom_limit")
        self.names = sorted(names)
        self.shared = whole or len(self.names) <= min(atom_limit, _JOINT_ATOMS)
        if self.shared:
            if len(self.names) > (limit := min(atom_limit, _TABLE_CEILING)):  # before any table
                raise AtomLimitError(len(self.names), limit)
            self.env, self.full = _valuation_masks(self.names)
            self._memo: dict[int, int] = {}

    def mask(self, f: Formula) -> int:
        if (m := self._memo.get(id(f))) is None:
            m = self._memo[id(f)] = _truth_mask(f, self.env, self.full)
        return m

    def truth(self, f: Formula) -> int:  # unmemoised, for a caller that reads each formula once
        return _truth_mask(f, self.env, self.full)

    def counterexamples(self, premises: Iterable[Formula], conclusion: Formula) -> int:
        """Mask of the valuations satisfying every premise and falsifying the conclusion."""
        witnesses = self.full ^ self.mask(conclusion)
        for f in premises:
            witnesses = witnesses and witnesses & self.mask(f)
        return witnesses

    def entails(self, premises: Iterable[Formula], conclusion: Formula) -> bool:
        if not self.shared:
            return entails(premises, conclusion, atom_limit=self.atom_limit)
        return not self.counterexamples(premises, conclusion)

    def triggered(self, input: Formula, norms: Iterable) -> list:
        """The norms whose body ``input`` entails, in order: on shared tables, one AND per norm."""
        if not self.shared:
            return [n for n in norms if self.entails((input,), n.body)]
        inp, full, mask = self.mask(input), self.full, self.mask
        return [n for n in norms if not inp & (full ^ mask(n.body))]


def eval_formula(f: Formula, valuation: Valuation) -> bool:
    """Truth value of ``f``, reading each value of ``valuation`` by truth; unmapped atoms
    reached are an error."""
    return bool(_truth_mask(f, {name: bool(value) for name, value in valuation.items()}, 1))


def counterexample_valuation(
    premises: Iterable[Formula],
    conclusion: Formula,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> dict[str, bool] | None:
    """First valuation satisfying all premises and falsifying the conclusion.

    Valuations are enumerated over the sorted joint atom set, each atom
    running False before True with the last atom cycling fastest, so the
    witness returned, the lowest set bit of the truth tables' conjunction,
    is deterministic.  Returns None when the entailment holds.
    """
    premises = tuple(premises)
    tables = _Tables(_atom_names((*premises, conclusion)), atom_limit, whole=True)
    witnesses = tables.counterexamples(premises, conclusion)
    if not witnesses:
        return None
    lowest = witnesses & -witnesses  # the first witness's bit
    return {name: bool(tables.env[name] & lowest) for name in tables.names}


def entails(
    premises: Iterable[Formula],
    conclusion: Formula,
    *,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> bool:
    """Classical entailment: every valuation satisfying the premises satisfies the conclusion."""
    return counterexample_valuation(premises, conclusion, atom_limit=atom_limit) is None


def is_tautology(f: Formula, *, atom_limit: int = DEFAULT_ATOM_LIMIT) -> bool:
    """True when ``f`` holds under every valuation (entailment from no premises)."""
    return entails((), f, atom_limit=atom_limit)
