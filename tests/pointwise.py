"""Pointwise reference evaluators, kept as differential references.

These are the evaluators iolog used before its engines moved onto one
bit-mask truth-table kernel: a tree walker over world sets, the lifted
membership tests and countermodel enumerator built on it, and the naive
unfolding checked one valuation at a time.  They evaluate with the
oracle in ``conftest.py`` and never call iolog's kernel, so the tests can
compare the mask engines against them.
"""

from __future__ import annotations

import itertools

from conftest import oracle_atoms, oracle_eval, oracle_valuations
from iolog import And, Atom, Bottom, Implies, Not, Or, Top, UnboundAtomError, WorldModel


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
