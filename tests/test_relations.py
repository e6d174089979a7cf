"""How the engines relate, as one executable table over drawn queries.

1. The naive unfolding is valid exactly when no one-world model falsifies the query.
2. The lifted verdict is antitone in the world bound.
3. Lifted at 2^n worlds over the query's n atoms holds exactly when the triple engine does.
4. The triple engine holds only where the semantic engine does.
5. The derivation engine agrees with the semantic engine.
6. With at most three distinct triggered heads, the triple engine agrees with the semantic one.

Rows 1 and 2 hold in both modes; the others are about out1.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import formulas, norm_sets, oracle_atoms
from iolog import (
    LiftedQuery,
    derive_verdict,
    find_countermodel,
    naive_unfold_valid,
    out1_member,
    out1_triple_approx,
    parse_formula,
    parse_norms,
    triggered_heads,
)


def query_atoms(norms, *formulas) -> int:
    names = set().union(*map(oracle_atoms, formulas))
    for norm in norms:
        names |= oracle_atoms(norm.body) | oracle_atoms(norm.head)
    return len(names)


MODES = st.sampled_from(["outpre", "out1"])


@settings(max_examples=300)
@given(norm_sets(), formulas(max_leaves=4), formulas(max_leaves=4), MODES)
def test_the_engines_relate_as_the_table_says(norms, input, goal, mode):
    query = LiftedQuery(norms, input, goal, mode)
    points = 2 ** query_atoms(norms, input, goal)
    holds = [find_countermodel(query, w) is None for w in range(1, points + 1)]
    assert naive_unfold_valid(norms, input, goal, mode) == holds[0]  # 1
    assert holds == sorted(holds, reverse=True)  # 2
    if mode == "outpre":
        return
    semantic = out1_member(norms, input, goal).holds
    triple = out1_triple_approx(norms, input, goal).holds
    assert holds[-1] == triple  # 3
    assert semantic or not triple  # 4
    assert derive_verdict(norms, input, goal).holds == semantic  # 5
    if len(triggered_heads(norms, input)) <= 3:
        assert triple == semantic  # 6


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
