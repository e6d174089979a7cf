"""Shared test helpers: an independent truth-table oracle and random generators.

The oracle re-implements classical evaluation and entailment by direct
enumeration, without touching iolog's entailment kernel, so the engines
are always checked against a separately written path.
"""

from __future__ import annotations

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, settings

from iolog import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Formula,
    Implies,
    Norm,
    NormSet,
    Not,
    Or,
    Top,
)

# No explain phase: it re-runs a failing example many times to annotate it, which made a
# failing differential test several times slower to report than its shrunk example.
settings.register_profile(
    "iolog", deadline=None, phases=[p for p in Phase if p is not Phase.explain]
)
settings.load_profile("iolog")


# --- independent oracle -------------------------------------------------


def oracle_atoms(f: Formula) -> set[str]:
    found: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            found.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or, Implies)):
            stack.append(node.left)
            stack.append(node.right)
    return found


def oracle_eval(f: Formula, env: dict[str, bool]) -> bool:
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not oracle_eval(f.operand, env)
    if isinstance(f, And):
        return oracle_eval(f.left, env) and oracle_eval(f.right, env)
    if isinstance(f, Or):
        return oracle_eval(f.left, env) or oracle_eval(f.right, env)
    if isinstance(f, Implies):
        return (not oracle_eval(f.left, env)) or oracle_eval(f.right, env)
    raise TypeError(f"not a formula: {f!r}")


def oracle_valuations(names):
    names = sorted(names)
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def oracle_entails(premises, conclusion: Formula) -> bool:
    premises = tuple(premises)
    names = set(oracle_atoms(conclusion))
    for p in premises:
        names |= oracle_atoms(p)
    for env in oracle_valuations(names):
        if all(oracle_eval(p, env) for p in premises) and not oracle_eval(conclusion, env):
            return False
    return True


# --- seeded random generators -------------------------------------------


def random_formula(rng: random.Random, names=("a", "b", "c"), depth: int = 3) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.85:
            return Atom(rng.choice(list(names)))
        return TOP if roll < 0.95 else BOTTOM
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return (And, Or, Implies)[kind - 1](left, right)


def random_norm_set(
    rng: random.Random, names=("a", "b", "c"), max_norms: int = 4, depth: int = 2
) -> NormSet:
    count = rng.randrange(max_norms + 1)
    return NormSet(
        tuple(
            Norm(random_formula(rng, names, depth), random_formula(rng, names, depth))
            for _ in range(count)
        )
    )


# --- hypothesis strategies ----------------------------------------------


def formulas(names=("a", "b", "c"), max_leaves: int = 8):
    atom = [st.builds(Atom, st.sampled_from(names))] if names else []
    leaves = st.one_of(*atom, st.just(TOP), st.just(BOTTOM))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
        ),
        max_leaves=max_leaves,
    )


def norm_sets(names=("a", "b", "c"), max_norms: int = 4):
    norm = st.builds(Norm, formulas(names, max_leaves=4), formulas(names, max_leaves=4))
    return st.builds(NormSet, st.lists(norm, max_size=max_norms).map(tuple))


# --- deeply nested formula text -----------------------------------------

NESTINGS = ("!", "&", "->", "(", "(&")


def nested_text(kind: str, depth: int) -> str:
    """Formula text over atom ``a`` nested ``depth`` levels deep by one construct:
    prefix negations, a conjunction or implication chain, parentheses, or one
    pair of parentheses around a conjunction chain."""
    if kind == "!":
        return "!" * depth + "a"
    if kind == "(":
        return "(" * depth + "a" + ")" * depth
    if kind == "(&":
        return "(" + nested_text("&", depth - 1) + ")"
    return f" {kind} ".join(["a"] * (depth + 1))


# The inputs that once overflowed the parser's recursion, plus one that is
# too deep only at its closing parenthesis, and the 1-based position of the
# error: the '!', '->' or '(' that opens level 101, or else the last token of
# the first subformula 101 levels deep.
TOO_DEEP = (
    pytest.param("!", 5000, 101, id="5000 nested !"),
    pytest.param("&", 2999, 405, id="3000-term & chain"),
    pytest.param("->", 2999, 503, id="3000-term -> chain"),
    pytest.param("(", 400, 101, id="400 nested parentheses"),
    pytest.param("(&", 101, 403, id="101-term & chain in parentheses"),
)
