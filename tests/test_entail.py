"""The brute-force entailment kernel against an independently written oracle."""

import random

import pytest
from hypothesis import given

from conftest import formulas, oracle_entails, random_formula
from iolog import (
    And,
    Atom,
    AtomLimitError,
    Implies,
    Not,
    Or,
    UnboundAtomError,
    counterexample_valuation,
    entails,
    eval_formula,
    is_tautology,
    parse_formula,
)

A, B, E = Atom("a"), Atom("b"), Atom("e")


class TestEval:
    def test_implication_with_false_antecedent(self):
        assert eval_formula(Implies(A, A), {"a": False}) is True

    def test_disjunction(self):
        assert eval_formula(Or(A, B), {"a": False, "b": True}) is True

    def test_contradiction(self):
        assert eval_formula(And(A, Not(A)), {"a": True}) is False

    def test_unmapped_atom_is_an_error_not_a_default(self):
        with pytest.raises(UnboundAtomError) as err:
            eval_formula(Or(A, B), {"a": False})
        assert err.value.atom == "b"

    def test_right_operand_is_skipped_when_the_left_decides(self):
        assert eval_formula(Or(A, B), {"a": True}) is True
        assert eval_formula(And(A, B), {"a": False}) is False
        assert eval_formula(Implies(A, B), {"a": False}) is True


class TestEntails:
    def test_weakening(self):
        assert entails({A}, Or(A, B)) is True

    def test_disjunction_entails_neither_disjunct(self):
        assert entails({Or(A, B)}, A) is False

    def test_modus_ponens(self):
        assert entails({A, Implies(A, E)}, E) is True

    def test_empty_premises_is_tautology_check(self):
        assert entails((), Or(A, Not(A))) is True
        assert entails((), A) is False

    def test_inconsistent_premises_entail_anything(self):
        assert entails({A, Not(A)}, E) is True


class TestIsTautology:
    def test_excluded_middle(self):
        assert is_tautology(Or(A, Not(A))) is True

    def test_top(self):
        assert is_tautology(parse_formula("true")) is True

    def test_atom_is_not(self):
        assert is_tautology(A) is False

    def test_disjunctive_weakening_split(self):
        # (a|b -> a) | (a|b -> b) is classically valid even though a|b
        # entails neither disjunct; the two accounts genuinely differ.
        assert is_tautology(parse_formula("((a | b) -> a) | ((a | b) -> b)")) is True
        assert entails({parse_formula("a | b")}, A) is False
        assert entails({parse_formula("a | b")}, B) is False


class TestAtomLimit:
    def test_limit_exceeded_reports_count(self):
        wide = parse_formula(" | ".join(f"x{i}" for i in range(17)))
        with pytest.raises(AtomLimitError) as err:
            is_tautology(wide)
        assert err.value.count == 17
        assert err.value.limit == 16
        assert "17" in str(err.value)

    def test_limit_is_configurable(self):
        f = Or(A, B)
        with pytest.raises(AtomLimitError):
            is_tautology(f, atom_limit=1)
        assert is_tautology(f, atom_limit=2) is False


class TestCounterexample:
    def test_witness_satisfies_premises_and_falsifies_conclusion(self):
        witness = counterexample_valuation({Or(A, B)}, A)
        assert witness is not None
        assert eval_formula(Or(A, B), witness) is True
        assert eval_formula(A, witness) is False

    def test_no_witness_when_entailment_holds(self):
        assert counterexample_valuation({A}, Or(A, B)) is None

    def test_first_witness_is_deterministic(self):
        assert counterexample_valuation({Or(A, B)}, A) == {"a": False, "b": True}


class TestAgainstOracle:
    @given(formulas(), formulas())
    def test_entails_matches_independent_enumeration(self, p, c):
        assert entails({p}, c) == oracle_entails([p], c)

    @given(formulas())
    def test_tautology_matches_oracle(self, f):
        assert is_tautology(f) == oracle_entails([], f)


class TestConsequenceProperties:
    @given(formulas(), formulas())
    def test_deduction_theorem(self, a, s):
        assert entails({a}, s) == is_tautology(Implies(a, s))

    def test_reflexivity_and_monotony(self):
        rng = random.Random(7)
        for _ in range(100):
            xs = [random_formula(rng) for _ in range(rng.randrange(1, 4))]
            extra = random_formula(rng)
            s = rng.choice(xs)
            assert entails(xs, s), "premises entail their own members"
            target = random_formula(rng)
            if entails(xs, target):
                assert entails(xs + [extra], target), "adding premises preserves entailment"

    def test_idempotence_over_candidate_pools(self):
        rng = random.Random(11)
        for _ in range(50):
            xs = [random_formula(rng, depth=2) for _ in range(rng.randrange(1, 3))]
            pool = xs + [random_formula(rng, depth=2) for _ in range(3)]
            closure = [t for t in pool if entails(xs, t)]
            s = random_formula(rng, depth=2)
            assert entails(xs, s) == entails(closure, s)
