"""Reference answers for iolog queries, computed without iolog.

Formulas here are nested tuples: ``("atom", name)``, ``("true",)``,
``("false",)``, ``("not", f)`` and ``(op, left, right)`` with ``op`` one
of ``"and"``, ``"or"``, ``"implies"``.  Over a query's sorted atom list
every formula compiles to one truth table: an int whose bit ``v`` is
the formula's value under valuation ``v``, where atom ``i`` takes bit
``n - 1 - i`` of ``v``.  Ascending ``v`` is then the order in which
iolog enumerates valuations (False before True, last atom fastest), so
the lowest set bit of ``premises & ~conclusion`` is iolog's first
counterexample.

Countermodels are searched over *sets* of valuations.  Whether a world
model falsifies a lifted query depends only on the set of valuations
its worlds carry, so the smallest countermodel has as many worlds as
the smallest falsifying set, and every falsifying model of that size
has pairwise distinct worlds.  The model iolog reports is the least one
in its enumeration order: per-atom world masks compared
lexicographically, atoms in sorted order.  That is the least mask tuple
over every arrangement of every falsifying set of the minimal size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

TRUE = ("true",)
FALSE = ("false",)


@dataclass(frozen=True)
class Query:
    """One membership question: norms as (body, head) pairs, an input and a goal."""

    norms: tuple
    input: tuple
    goal: tuple


def formula_atoms(f) -> set[str]:
    found: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node[0] == "atom":
            found.add(node[1])
        else:
            stack.extend(node[1:])
    return found


def query_atoms(q: Query) -> list[str]:
    names = formula_atoms(q.input) | formula_atoms(q.goal)
    for body, head in q.norms:
        names |= formula_atoms(body) | formula_atoms(head)
    return sorted(names)


@lru_cache(maxsize=None)
def _column(n: int, i: int) -> int:
    """Truth table of atom ``i`` of ``n``: bit v set when bit n-1-i of v is."""
    block = 1 << (n - 1 - i)
    unit = ((1 << block) - 1) << block
    col = 0
    for start in range(0, 1 << n, 2 * block):
        col |= unit << start
    return col


class Tables:
    """Truth tables of formulas over one sorted atom list."""

    def __init__(self, names):
        self.names = list(names)
        self.n = len(self.names)
        self.full = (1 << (1 << self.n)) - 1
        self.cols = {name: _column(self.n, i) for i, name in enumerate(self.names)}
        self.memo: dict = {}

    def __call__(self, f) -> int:
        table = self.memo.get(f)
        if table is None:
            table = self.memo[f] = self._compile(f)
        return table

    def _compile(self, f) -> int:
        tag = f[0]
        if tag == "atom":
            return self.cols[f[1]]
        if tag == "true":
            return self.full
        if tag == "false":
            return 0
        if tag == "not":
            return self.full & ~self(f[1])
        left, right = self(f[1]), self(f[2])
        if tag == "and":
            return left & right
        if tag == "or":
            return left | right
        if tag == "implies":
            return (self.full & ~left) | right
        raise ValueError(f"not a formula: {f!r}")


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def first_counterexample(premises, conclusion) -> int | None:
    """Index (in iolog's enumeration order) of the first valuation satisfying
    every premise and falsifying the conclusion, over their joint atoms."""
    names = formula_atoms(conclusion)
    for p in premises:
        names |= formula_atoms(p)
    t = Tables(sorted(names))
    bad = t.full & ~t(conclusion)
    for p in premises:
        bad &= t(p)
    return _lowest_bit(bad) if bad else None


def entailment_valuations(premises, conclusion) -> int:
    """Valuations an enumerating kernel visits to decide the entailment."""
    first = first_counterexample(premises, conclusion)
    if first is None:
        names = formula_atoms(conclusion).union(*(formula_atoms(p) for p in premises))
        return 1 << len(names)
    return first + 1


class Reference:
    """Every reference answer for one query, from its truth tables."""

    def __init__(self, q: Query):
        self.query = q
        self.t = Tables(query_atoms(q))
        t = self.t
        self.tin, self.tgoal = t(q.input), t(q.goal)
        self.norm_tables = [(t(b), t(h)) for b, h in q.norms]
        self.triggered = [i for i, (tb, _) in enumerate(self.norm_tables) if self.tin & ~tb == 0]

    def triggered_heads(self) -> frozenset:
        return frozenset(self.query.norms[i][1] for i in self.triggered)

    def semantic(self) -> bool:
        conj = self.t.full
        for i in self.triggered:
            conj &= self.norm_tables[i][1]
        return conj & ~self.tgoal == 0

    def triple(self) -> bool:
        if self.tgoal == self.t.full:
            return True
        witnesses = list(dict.fromkeys(self.query.norms[i][1] for i in self.triggered))
        tables = [self.t(h) for h in witnesses]
        return any(
            a & b & c & ~self.tgoal == 0
            for a, b, c in itertools.combinations_with_replacement(tables, 3)
        )

    def naive_failures(self, mode: str) -> int:
        """Valuations where the naive Boolean unfolding of the claim is false."""
        full, tin, tgoal = self.t.full, self.tin, self.tgoal
        if mode == "outpre":
            fail = full
            for tb, th in self.norm_tables:
                applicable = (full & ~tin) | tb
                fail &= full & ~(applicable & ~(th ^ tgoal))
            return fail
        # out1: the goal holds, or some applicable norm has a false head
        fail = full & ~tgoal
        for tb, th in self.norm_tables:
            applicable = (full & ~tin) | tb
            fail &= full & ~(applicable & ~th)
        return fail

    def naive(self, mode: str) -> bool:
        return self.naive_failures(mode) == 0

    def naive_valuations(self, mode: str) -> int:
        fail = self.naive_failures(mode)
        return _lowest_bit(fail) + 1 if fail else 1 << self.t.n

    def _falsifies(self, mode: str, sel: int) -> bool:
        """Does a model whose worlds carry exactly the valuations in ``sel`` falsify?"""
        tin, tgoal = self.tin, self.tgoal

        def outpre(target: int) -> bool:
            return any(
                ((th ^ target) | (tin & ~tb)) & sel == 0 for tb, th in self.norm_tables
            )

        if mode == "outpre":
            return not outpre(tgoal)
        if ~tgoal & sel == 0:
            return False
        heads = list(dict.fromkeys(th for _, th in self.norm_tables))
        candidates = [h for h in heads if outpre(h)]
        return not any(
            a & b & c & ~tgoal & sel == 0
            for a, b, c in itertools.combinations_with_replacement(candidates, 3)
        )

    def falsifying_size(self, mode: str, max_worlds: int) -> int | None:
        """World count of the smallest countermodel, or None up to ``max_worlds``."""
        for size in range(1, max_worlds + 1):
            for chosen in itertools.combinations(range(1 << self.t.n), size):
                if self._falsifies(mode, sum(1 << v for v in chosen)):
                    return size
        return None

    def countermodel(self, mode: str, max_worlds: int):
        """iolog's canonical countermodel as (world count, {atom: worlds}), or None."""
        n = self.t.n
        size = self.falsifying_size(mode, max_worlds)
        if size is None:
            return None
        best = None
        for chosen in itertools.combinations(range(1 << n), size):
            if not self._falsifies(mode, sum(1 << v for v in chosen)):
                continue
            for order in itertools.permutations(chosen):
                masks = tuple(
                    sum(((v >> (n - 1 - i)) & 1) << w for w, v in enumerate(order))
                    for i in range(n)
                )
                if best is None or masks < best:
                    best = masks
        return size, {
            name: tuple(w for w in range(size) if best[i] >> w & 1)
            for i, name in enumerate(self.t.names)
        }


def models_visited(n_atoms: int, max_worlds: int, found) -> int:
    """Models iolog's canonical-order search visits before it stops.

    ``found`` is None for an absent search, else (world count, per-atom
    world masks in sorted atom order).
    """
    if found is None:
        return sum(1 << (w * n_atoms) for w in range(1, max_worlds + 1))
    size, masks = found
    index = 0
    for mask in masks:
        index = (index << size) | mask
    return sum(1 << (w * n_atoms) for w in range(1, size)) + index + 1
