"""The simple-minded output operation and its three-witness approximation."""

import itertools
import random

import pytest
from hypothesis import given

from conftest import formulas, norm_sets, oracle_entails, random_formula, random_norm_set
from iolog import (
    And,
    Atom,
    NormSet,
    Not,
    Or,
    is_tautology,
    lifted_verdict,
    out1_member,
    out1_member_multi,
    out1_triple_approx,
    parse_formula,
    parse_norms,
    render_world_model,
    source_ordered_heads,
    triggered_heads,
)
from iolog.output import _semantic_holds

A, B, E = Atom("a"), Atom("b"), Atom("e")
TWO_NORMS = parse_norms("(a, e)\n(b, e)")


class TestTriggeredHeads:
    def test_direct_input_triggers_its_norm(self):
        assert triggered_heads(TWO_NORMS, A) == {E}

    def test_disjunctive_input_triggers_nothing(self):
        # a | b entails neither body, so no norm fires.
        assert triggered_heads(TWO_NORMS, Or(A, B)) == frozenset()

    def test_empty_norm_set(self):
        assert triggered_heads(NormSet(), A) == frozenset()

    def test_heads_deduplicate_structurally(self):
        ns = parse_norms("(a, e)\n(a, e)\n(a & a, e)")
        assert triggered_heads(ns, A) == {E}

    def test_source_ordered_heads_follow_norm_order(self):
        ns = parse_norms("(a, h2)\n(a, h1)\n(a, h2)")
        heads = triggered_heads(ns, A)
        assert source_ordered_heads(ns, heads) == (Atom("h2"), Atom("h1"))


class TestOut1Member:
    def test_direct_input_obliges_head(self):
        verdict = out1_member(TWO_NORMS, A, E)
        assert verdict.holds is True
        assert verdict.engine == "semantic"
        assert verdict.triggered == {E}

    def test_disjunctive_input_does_not(self):
        verdict = out1_member(TWO_NORMS, Or(A, B), E)
        assert verdict.holds is False
        assert verdict.triggered == frozenset()

    def test_tautologies_are_always_output(self):
        assert out1_member(NormSet(), A, Or(B, Not(B))).holds is True

    def test_outputs_are_consequences_of_triggered_heads(self):
        ns = parse_norms("(a, b)\n(a, b -> e)")
        assert out1_member(ns, A, E).holds is True

    @given(norm_sets(), formulas(max_leaves=4))
    def test_no_input_output_leakage(self, ns, x):
        """An input never counts as its own output: norms carry no
        truth-functional meaning, so with no norms nothing non-tautological
        is obligatory, not even the input itself."""
        if not is_tautology(x):
            assert out1_member(NormSet(), x, x).holds is False

    @given(norm_sets(), formulas(max_leaves=3), formulas(max_leaves=3))
    def test_tautological_goals_ignore_input_and_norms(self, ns, a, x):
        if is_tautology(x):
            assert out1_member(ns, a, x).holds is True


class TestOut1MemberMulti:
    def test_inputs_fold_conjunctively(self):
        ns = parse_norms("(a & b, e)")
        assert out1_member_multi(ns, [A, B], E).holds is True

    def test_singleton_collection_matches_single_input(self):
        assert out1_member_multi(TWO_NORMS, [Or(A, B)], E).holds is False

    def test_inconsistent_inputs_trigger_everything(self):
        # a & !a entails any body, confirmed against the oracle.
        assert oracle_entails([And(A, Not(A))], A) is True
        ns = parse_norms("(a, e)")
        assert out1_member_multi(ns, [A, Not(A)], E).holds is True

    def test_long_collections_fold_without_deep_recursion(self):
        """3000 inputs fold pairwise, about 12 conjunctions deep, not 3000."""
        assert out1_member_multi(parse_norms("(a, e)"), [A] * 3000, E).holds is True
        assert out1_member_multi(parse_norms("(b, e)"), [A] * 2999 + [B], E).holds is True

    def test_the_fold_keeps_every_input(self):
        """Whatever the count's parity, the one input that fires the norm
        reaches the conjunction wherever it stands."""
        ns = parse_norms("(b, e)")
        for n in range(1, 10):
            for k in range(n):
                inputs = [A] * n
                inputs[k] = B
                assert out1_member_multi(ns, inputs, E).holds is True

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            out1_member_multi(TWO_NORMS, [], E)

    def test_multi_equals_member_on_folded_conjunction(self):
        rng = random.Random(23)
        for _ in range(50):
            ns = random_norm_set(rng)
            inputs = [random_formula(rng, depth=2) for _ in range(rng.randrange(1, 8))]
            goal = random_formula(rng, depth=2)
            folded = inputs[0]
            for f in inputs[1:]:
                folded = And(folded, f)
            assert out1_member_multi(ns, inputs, goal).holds == out1_member(ns, folded, goal).holds


class TestSemanticReading:
    """The sound answer that ``naive`` and the regression matrix set against
    the naive unfolding."""

    @given(norm_sets(), formulas(max_leaves=3), formulas(max_leaves=3))
    def test_out1_reads_membership(self, ns, a, x):
        assert _semantic_holds(ns, a, x, "out1") == out1_member(ns, a, x).holds

    @given(norm_sets(), formulas(max_leaves=3), formulas(max_leaves=3))
    def test_outpre_reads_a_triggered_head(self, ns, a, x):
        assert _semantic_holds(ns, a, x, "outpre") == (x in triggered_heads(ns, a))

    def test_outpre_reading_is_syntactic(self):
        """``e & e`` follows from the head ``e`` but is not itself a head."""
        ns, goal = parse_norms("(a, e)"), And(E, E)
        assert _semantic_holds(ns, A, goal, "out1") is True
        assert _semantic_holds(ns, A, goal, "outpre") is False


FOUR_HEADS = parse_norms("(a, h1)\n(a, h2)\n(a, h3)\n(a, h4)")
FOUR_CONJ = parse_formula("h1 & h2 & h3 & h4")


class TestTripleApprox:
    def test_single_head_consequence_holds(self):
        verdict = out1_triple_approx(TWO_NORMS, A, E)
        assert verdict.holds is True
        assert verdict.engine == "triple-approx"

    def test_four_independent_heads_expose_the_gap(self):
        """Four atomic heads cannot be recovered from any three: the
        approximation diverges from the exact operation exactly here."""
        heads = [Atom(f"h{i}") for i in range(1, 5)]
        for triple in itertools.combinations_with_replacement(heads, 3):
            assert oracle_entails(triple, FOUR_CONJ) is False
        assert oracle_entails(heads, FOUR_CONJ) is True

        assert out1_member(FOUR_HEADS, A, FOUR_CONJ).holds is True
        assert out1_triple_approx(FOUR_HEADS, A, FOUR_CONJ).holds is False

    def test_four_heads_need_four_worlds_to_fail_lifted(self):
        """A triple of heads is defeated only by a world where the fourth head alone
        fails, so a lifted countermodel needs one world per triple: four."""
        for max_worlds in (2, 3):
            assert lifted_verdict(FOUR_HEADS, A, FOUR_CONJ, max_worlds=max_worlds).holds is True
        verdict = lifted_verdict(FOUR_HEADS, A, FOUR_CONJ, max_worlds=4)
        assert verdict.holds is False
        assert render_world_model(verdict.certificate) == (
            "worlds: w0 w1 w2 w3\n"
            "a = {}\n"
            "h1 = {w0, w1, w2}\n"
            "h2 = {w0, w1, w3}\n"
            "h3 = {w0, w2, w3}\n"
            "h4 = {w1, w2, w3}"
        )

    def test_tautology_disjunct_covers_empty_norm_set(self):
        assert out1_triple_approx(NormSet(), A, parse_formula("true")).holds is True

    def test_repetition_allows_fewer_than_three_heads(self):
        ns = parse_norms("(a, h1)\n(a, h2)")
        assert out1_triple_approx(ns, A, parse_formula("h1 & h2")).holds is True
        assert out1_triple_approx(ns, A, Atom("h1")).holds is True

