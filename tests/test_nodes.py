"""Formula and norm values: slotted frozen dataclasses, and subclasses of the
node classes, which every walk treats as the node class they derive from."""

import pickle
import weakref
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given

from conftest import formulas, oracle_atoms, oracle_entails, oracle_eval
from pointwise import recursive_print_formula
from iolog import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Implies,
    Norm,
    NormSet,
    Not,
    Or,
    Top,
    atoms,
    counterexample_valuation,
    entails,
    eval_formula,
    out1_member,
    parse_formula,
    print_formula,
)

A, B = Atom("a"), Atom("b")
VALUES = (
    A, TOP, BOTTOM, Not(A), And(A, B), Or(A, B), Implies(A, B), Norm(A, B), NormSet((Norm(A, B),))
)


class Conjunction(And):
    """A plain subclass: it gains a ``__dict__`` but no fields."""


@dataclass(frozen=True)
class TaggedAtom(Atom):
    tag: str = ""


def subclassed(f):
    """``f`` with every ``And`` and ``Atom`` node replaced by an instance of a subclass."""
    if type(f) is Atom:
        return TaggedAtom(f.name, tag="x")
    if type(f) is Not:
        return Not(subclassed(f.operand))
    if type(f) in (And, Or, Implies):
        cls = Conjunction if type(f) is And else type(f)
        return cls(subclassed(f.left), subclassed(f.right))
    return f


class TestSlots:
    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_no_instance_dict_and_no_new_attributes(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(value, "extra", 1)
        # CPython 3.10-3.13 raise TypeError here for a frozen slotted dataclass.
        with pytest.raises((FrozenInstanceError, TypeError)):
            value.extra = 1
        with pytest.raises(TypeError):
            weakref.ref(value)

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_pickle_round_trips(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value) and type(copy) is type(value)

    def test_assignment_raises(self):
        with pytest.raises(FrozenInstanceError):
            A.name = "b"
        with pytest.raises(FrozenInstanceError):
            And(A, B).left = B
        with pytest.raises(FrozenInstanceError):
            Norm(A, B).head = A

    def test_eq_hash_and_repr(self):
        assert And(A, Not(B)) == parse_formula("a & !b") and And(A, B) != Or(A, B)
        assert Top() == TOP and Top() != Bottom()
        assert hash(And(A, B)) == hash((A, B)) and hash(A) == hash(("a",)) and hash(TOP) == hash(())
        assert repr(Implies(A, Not(TOP))) == (
            "Implies(left=Atom(name='a'), right=Not(operand=Top()))"
        )
        assert repr(Norm(A, BOTTOM)) == "Norm(body=Atom(name='a'), head=Bottom())"
        assert repr(NormSet([Norm(A, B)])) == (
            "NormSet(norms=(Norm(body=Atom(name='a'), head=Atom(name='b')),))"
        )

    def test_match_patterns(self):
        match parse_formula("a -> !(b | true)"):
            case Implies(Atom(x), Not(Or(Atom(y), Top()))):
                assert (x, y) == ("a", "b")
            case _:
                pytest.fail("pattern did not match")
        match Norm(A, B):
            case Norm(body=Atom("a"), head=h):
                assert h == B
            case _:
                pytest.fail("pattern did not match")


class TestSubclasses:
    def test_subclass_instances_keep_their_own_equality(self):
        assert Conjunction(A, B) != And(A, B)
        assert TaggedAtom("a", tag="x") != A

    @given(formulas(("a", "b", "c", "d")), formulas(("a", "b", "c", "d")))
    def test_evaluate_walk_and_entail_as_their_base_class(self, f, g):
        sf, sg = subclassed(f), subclassed(g)
        assert atoms(sf) == atoms(f) == oracle_atoms(f)
        env = {name: name in ("a", "c") for name in "abcd"}
        assert eval_formula(sf, env) == eval_formula(f, env) == oracle_eval(sf, env)
        assert entails([sf], sg) == entails([f], g) == oracle_entails([sf], sg)
        assert counterexample_valuation([sf], sg) == counterexample_valuation([f], g)

    @given(formulas(("a", "b", "c", "d"), max_leaves=16))
    def test_print_as_their_base_class(self, f):
        sf = subclassed(f)
        assert print_formula(sf) == recursive_print_formula(sf) == print_formula(f)

    def test_subclass_nodes_in_norms(self):
        norms = NormSet((Norm(TaggedAtom("a"), Conjunction(A, B)),))
        verdict = out1_member(norms, Conjunction(A, TaggedAtom("c")), B)
        assert verdict.holds and verdict.triggered == {Conjunction(A, B)}

    def test_a_non_formula_below_a_subclass_is_a_type_error(self):
        with pytest.raises(TypeError):
            atoms(Conjunction(A, "b"))
        with pytest.raises(TypeError):
            eval_formula(Conjunction(A, "b"), {"a": True})
        with pytest.raises(TypeError, match="not a formula: 'b'"):
            print_formula(Conjunction(A, "b"))
