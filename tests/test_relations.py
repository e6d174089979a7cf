"""How the engines relate, as one executable table over drawn queries.

1. The naive unfolding is valid exactly when no one-world model falsifies the query.
2. Every world bound from the least falsifying size on returns one model of that size.
3. Where the triple engine holds, lifted holds at every bound searched; at 2^n worlds,
   n <= 3, lifted holds exactly where the triple engine does.
4. The triple engine holds only where the semantic engine does.
5. The derivation engine agrees with the semantic one, triggered heads included; its proofs check.
6. With at most three distinct triggered heads, the triple engine agrees with the semantic one.
7. The naive unfolding validates what the semantic engine accepts: unsound, not incomplete.
8. The naive outpre unfolding validates every triggered head.

Rows 1 and 2 hold in both modes, row 8 in outpre, and the others in out1.  Over a query's
n atoms the search runs at each world bound up to 2^n, or up to 4 at four atoms.
"""

import pytest
from hypothesis import given, settings

from conftest import formulas, norm_sets, oracle_atoms
from iolog import (
    LiftedQuery,
    Norm,
    derive_verdict,
    find_countermodel,
    lifted_verdict,
    naive_unfold_valid,
    out1_member,
    out1_triple_approx,
    parse_formula,
    parse_norms,
    triggered_heads,
    verify_derivation,
)

NAMES = ("a", "b", "c", "d")


def query_atoms(norms, *formulas) -> int:
    formulas += tuple(f for norm in norms for f in (norm.body, norm.head))
    return len(set().union(*map(oracle_atoms, formulas)))


@settings(max_examples=400)
@given(norm_sets(NAMES), formulas(NAMES, max_leaves=4), formulas(NAMES, max_leaves=4))
def test_the_engines_relate_as_the_table_says(norms, input, goal):
    atoms = query_atoms(norms, input, goal)
    bound = 2**atoms if atoms <= 3 else 4
    for mode in ("outpre", "out1"):  # out1's verdicts stay for rows 3 and 7
        models = [find_countermodel(LiftedQuery(norms, input, goal, mode), w)
                  for w in range(1, bound + 1)]
        holds = [model is None for model in models]
        naive = naive_unfold_valid(norms, input, goal, mode)
        assert naive == holds[0]  # 1
        first = holds.index(False) if False in holds else bound
        assert models[first:] == models[first:first + 1] * (bound - first)  # 2
        assert first == bound or models[first].world_count == first + 1  # 2
        assert mode == "out1" or naive or goal not in triggered_heads(norms, input)  # 8
    semantic = out1_member(norms, input, goal)
    triple = out1_triple_approx(norms, input, goal).holds
    assert all(holds) or not triple  # 3
    if atoms <= 3:
        assert lifted_verdict(norms, input, goal, max_worlds=bound).holds == triple  # 3
    assert semantic.holds or not triple  # 4
    derivation = derive_verdict(norms, input, goal)
    assert (derivation.holds, derivation.triggered) == (semantic.holds, semantic.triggered)  # 5
    if derivation.holds:
        assert verify_derivation(norms, derivation.certificate, Norm(input, goal)) is None  # 5
    assert len(semantic.triggered) > 3 or triple == semantic.holds  # 6
    assert naive or not semantic.holds  # 7


@pytest.mark.parametrize("norms, input, goal, triple", [
    ("(a & b, c | d)", "a & b", "c | d", True),
    ("(a, c)\n(b, c)\n(d, d)", "a | b", "c", False),
    ("(a, b)\n(a, c)\n(a, d)", "a", "b & c & d", True),
    # Any three of the four heads are consistent, all four are not.
    ("(a, b)\n(a, c)\n(a, d)\n(a, !b | !c | !d)", "a", "false", False),
], ids=["one head", "disjunctive input", "three heads", "four heads"])
def test_lifted_at_sixteen_worlds_is_the_triple_engine_at_four_atoms(norms, input, goal, triple):
    """Row 3 at four atoms, whose 16 worlds the default budget admits."""
    norms, input, goal = parse_norms(norms), parse_formula(input), parse_formula(goal)
    assert query_atoms(norms, input, goal) == 4
    assert out1_triple_approx(norms, input, goal).holds is triple
    assert (find_countermodel(LiftedQuery(norms, input, goal, "out1"), 16) is None) is triple
