"""How the engines' answers relate, checked from outside the kernel on random
queries: semantic and derivation agree, the triple approximation is sound, and
the naive unfolding validates every claim that holds (it is unsound, not
incomplete)."""

from hypothesis import given, settings

from conftest import formulas, norm_sets
from iolog import (
    Norm,
    derive_verdict,
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

