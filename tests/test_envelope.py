"""How the engines' answers relate, checked from outside the kernel on random
queries: semantic and derivation agree, the triple approximation is sound, the
naive unfolding validates every claim that holds (it is unsound, not
incomplete) and is the lifted encoding read in one-world models, and the lifted
engine is the triple approximation once its world bound reaches every
valuation, and weaker below that bound."""

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import formulas, norm_sets
from iolog import (
    LiftedQuery,
    Norm,
    derive_verdict,
    find_countermodel,
    lifted_verdict,
    naive_unfold_valid,
    out1_member,
    out1_triple_approx,
    triggered_heads,
    verify_derivation,
)

NAMES = ("a", "b", "c", "d")


@settings(max_examples=300)
@given(norm_sets(NAMES), formulas(NAMES, max_leaves=4), formulas(NAMES, max_leaves=4))
def test_engine_envelope(norms, input, goal):
    semantic = out1_member(norms, input, goal)
    derivation = derive_verdict(norms, input, goal)
    assert derivation.holds == semantic.holds
    assert derivation.triggered == semantic.triggered
    if derivation.holds:
        assert verify_derivation(norms, derivation.certificate, Norm(input, goal)) is None
    if out1_triple_approx(norms, input, goal).holds:
        assert semantic.holds
    if semantic.holds:
        assert naive_unfold_valid(norms, input, goal, "out1")
    if goal in triggered_heads(norms, input):
        assert naive_unfold_valid(norms, input, goal, "outpre")


@settings(max_examples=300)
@given(norm_sets(NAMES), formulas(NAMES, max_leaves=4), formulas(NAMES, max_leaves=4),
       st.sampled_from(("outpre", "out1")))
def test_naive_is_lifted_in_one_world_models(norms, input, goal, mode):
    one_world = find_countermodel(LiftedQuery(norms, input, goal, mode), 1)
    assert naive_unfold_valid(norms, input, goal, mode) == (one_world is None)


@settings(max_examples=150)
@given(norm_sets(NAMES), formulas(NAMES, max_leaves=4), formulas(NAMES, max_leaves=4),
       st.integers(1, 4))
def test_triple_implies_lifted_at_every_world_bound(norms, input, goal, max_worlds):
    if out1_triple_approx(norms, input, goal).holds:
        assert lifted_verdict(norms, input, goal, max_worlds=max_worlds).holds


THREE = NAMES[:3]


@settings(max_examples=300)
@given(norm_sets(THREE), formulas(THREE, max_leaves=4), formulas(THREE, max_leaves=4))
def test_lifted_with_every_valuation_is_triple(norms, input, goal):
    # 2^3 worlds carry every valuation of the query's atoms; the search stops at
    # 2^n worlds when the query has fewer atoms, having seen every set of valuations.
    lifted = lifted_verdict(norms, input, goal, max_worlds=2 ** len(THREE))
    assert lifted.holds == out1_triple_approx(norms, input, goal).holds
