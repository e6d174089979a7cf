"""Proof trees: structural conclusions, the checker, and the canonical builder."""

import json
import random

import pytest

from conftest import random_formula, random_norm_set
from iolog import (
    AND,
    SO,
    TOP,
    WI,
    And,
    Atom,
    AxiomLeaf,
    Norm,
    NormSet,
    Or,
    TopIntro,
    check_derivation,
    conclusion,
    construct_derivation,
    derivation_from_dict,
    derivation_to_dict,
    derive_verdict,
    out1_member,
    parse_formula,
    parse_norms,
    render_derivation,
    verify_derivation,
)

A, B, C, E = Atom("a"), Atom("b"), Atom("c"), Atom("e")
TWO_NORMS = parse_norms("(a, e)\n(b, e)")
ONE_NORM = parse_norms("(a, e)")


class TestConclusion:
    def test_top_axiom(self):
        assert conclusion(TopIntro()) == Norm(TOP, TOP)

    def test_axiom_leaf(self):
        assert conclusion(AxiomLeaf(Norm(A, E))) == Norm(A, E)

    def test_and_conjoins_heads(self):
        d = AND(AxiomLeaf(Norm(A, B)), AxiomLeaf(Norm(A, C)))
        assert conclusion(d) == Norm(A, And(B, C))

    def test_so_replaces_head(self):
        d = SO(AxiomLeaf(Norm(A, E)), Or(E, B))
        assert conclusion(d) == Norm(A, Or(E, B))

    def test_wi_replaces_body(self):
        d = WI(AxiomLeaf(Norm(A, E)), And(A, B))
        assert conclusion(d) == Norm(And(A, B), E)


class TestChecker:
    def test_accepts_input_strengthening(self):
        d = WI(AxiomLeaf(Norm(A, E)), And(A, B))
        assert check_derivation(ONE_NORM, d, Norm(And(A, B), E)) is True

    def test_rejects_widening_to_a_disjunction(self):
        # a | b does not entail a, so WI may not move the body there.
        d = WI(AxiomLeaf(Norm(A, E)), Or(A, B))
        assert check_derivation(ONE_NORM, d, Norm(Or(A, B), E)) is False

    def test_rejects_leaf_outside_the_norm_set(self):
        d = AxiomLeaf(Norm(B, E))
        assert check_derivation(ONE_NORM, d, Norm(B, E)) is False

    def test_rejects_so_weakening_to_non_consequence(self):
        d = SO(AxiomLeaf(Norm(A, E)), B)
        assert check_derivation(ONE_NORM, d, Norm(A, B)) is False

    def test_rejects_and_with_mismatched_bodies(self):
        d = AND(AxiomLeaf(Norm(A, E)), AxiomLeaf(Norm(B, E)))
        assert check_derivation(TWO_NORMS, d, Norm(A, And(E, E))) is False

    def test_rejects_wrong_goal(self):
        d = AxiomLeaf(Norm(A, E))
        assert check_derivation(ONE_NORM, d, Norm(B, E)) is False


class TestFailureReports:
    def test_reports_path_to_tampered_leaf(self):
        d = WI(AxiomLeaf(Norm(B, E)), And(A, B))
        failure = verify_derivation(ONE_NORM, d, Norm(And(A, B), E))
        assert failure is not None
        assert failure.path == ("premise",)
        assert "not in the norm set" in failure.reason

    def test_reports_violated_side_condition_at_root(self):
        d = WI(AxiomLeaf(Norm(A, E)), Or(A, B))
        failure = verify_derivation(ONE_NORM, d, Norm(Or(A, B), E))
        assert failure is not None
        assert failure.path == ()
        assert "WI side condition" in failure.reason
        assert "at root" in str(failure)

    def test_reports_goal_mismatch_last(self):
        d = AxiomLeaf(Norm(A, E))
        failure = verify_derivation(ONE_NORM, d, Norm(A, B))
        assert failure is not None
        assert "does not match goal" in failure.reason

    def test_accepted_tree_reports_nothing(self):
        d = AxiomLeaf(Norm(A, E))
        assert verify_derivation(ONE_NORM, d, Norm(A, E)) is None


class TestConstruct:
    def test_direct_input_yields_wi_then_so(self):
        d = construct_derivation(TWO_NORMS, A, E)
        assert isinstance(d, SO)
        assert isinstance(d.premise, WI)
        assert isinstance(d.premise.premise, AxiomLeaf)
        assert conclusion(d) == Norm(A, E)
        assert check_derivation(TWO_NORMS, d, Norm(A, E)) is True

    def test_disjunctive_input_has_no_derivation(self):
        assert construct_derivation(TWO_NORMS, Or(A, B), E) is None

    def test_two_triggered_norms_need_one_and_node(self):
        ns = parse_norms("(a, h1)\n(a, h2)")
        goal = parse_formula("h1 & h2")
        assert out1_member(ns, A, goal).holds is True
        d = construct_derivation(ns, A, goal)
        assert d is not None

        def count_ands(node):
            if isinstance(node, AND):
                return 1 + count_ands(node.left) + count_ands(node.right)
            if isinstance(node, (SO, WI)):
                return count_ands(node.premise)
            return 0

        assert count_ands(d) == 1
        assert check_derivation(ns, d, Norm(A, goal)) is True

    def test_tautological_goal_routes_through_top(self):
        d = construct_derivation(NormSet(), A, Or(B, parse_formula("!b")))
        assert d is not None
        assert isinstance(d, SO)
        assert isinstance(d.premise, WI)
        assert isinstance(d.premise.premise, TopIntro)
        assert check_derivation(NormSet(), d, Norm(A, Or(B, parse_formula("!b")))) is True

    def test_verdict_carries_certificate_and_engine_tag(self):
        verdict = derive_verdict(TWO_NORMS, A, E)
        assert verdict.holds is True
        assert verdict.engine == "derivation"
        assert conclusion(verdict.certificate) == Norm(A, E)
        missing = derive_verdict(TWO_NORMS, Or(A, B), E)
        assert missing.holds is False
        assert missing.certificate is None


class TestSoundness:
    def test_accepted_derivations_imply_semantic_membership(self):
        """Anything the checker accepts really is in the output set, including
        mutated trees that happen to still pass checking."""
        rng = random.Random(53)
        accepted = 0
        for _ in range(120):
            ns = random_norm_set(rng)
            a = random_formula(rng, depth=2)
            x = random_formula(rng, depth=2)
            d = construct_derivation(ns, a, x)
            if d is None:
                continue
            # mutate: widen the input or weaken the output once more
            mutation = rng.randrange(3)
            if mutation == 1:
                a = And(a, random_formula(rng, depth=1))
                d = WI(d, a)
            elif mutation == 2:
                x = Or(x, random_formula(rng, depth=1))
                d = SO(d, x)
            if check_derivation(ns, d, Norm(a, x)):
                accepted += 1
                assert out1_member(ns, a, x).holds
        assert accepted > 0


class TestRendering:
    def test_top_line(self):
        assert render_derivation(TopIntro()) == "TOP ⊢ (true, true)"

    def test_axiom_line(self):
        assert render_derivation(AxiomLeaf(Norm(A, E))) == "AX ⊢ (a, e)"

    def test_children_are_indented(self):
        d = WI(AxiomLeaf(Norm(A, E)), And(A, B))
        assert render_derivation(d).splitlines() == [
            "WI ⊢ (a & b, e)",
            "  AX ⊢ (a, e)",
        ]


class TestStructuredForm:
    def test_record_fields(self):
        d = SO(WI(AxiomLeaf(Norm(A, E)), And(A, B)), Or(E, C))
        record = derivation_to_dict(d)
        assert record["rule"] == "SO"
        assert record["conclusion_body"] == "a & b"
        assert record["conclusion_head"] == "e | c"
        assert record["param"] == "e | c"
        assert len(record["children"]) == 1

    def test_round_trip_preserves_tree_and_conclusion(self):
        rng = random.Random(59)
        seen = 0
        for _ in range(80):
            ns = random_norm_set(rng)
            a = random_formula(rng, depth=2)
            x = random_formula(rng, depth=2)
            d = construct_derivation(ns, a, x)
            if d is None:
                continue
            seen += 1
            reparsed = derivation_from_dict(json.loads(json.dumps(derivation_to_dict(d))))
            assert reparsed == d
            assert conclusion(reparsed) == conclusion(d)
        assert seen > 0

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            derivation_from_dict({"rule": "XX", "children": []})

    @pytest.mark.parametrize(
        "record",
        [
            {"rule": "SO", "children": []},
            {"rule": "SO", "children": [], "param": "e"},
            {"rule": "AX"},
            {"rule": "AND", "children": [{"rule": "TOP"}]},
            {"rule": "TOP", "children": [{"rule": "TOP"}]},
            {"children": []},
            {"rule": "WI", "children": "x", "param": "a"},
            ["not", "a", "record"],
        ],
    )
    def test_malformed_record_raises_value_error(self, record):
        with pytest.raises(ValueError):
            derivation_from_dict(record)
