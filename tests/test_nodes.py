"""iolog's values: frozen slotted classes on one shared base, subclasses of the
formula node classes, which every walk treats as the node class they derive from, and
the atom names a connective keeps once a walk has read them."""

import pickle
import sys
import threading
import weakref
from dataclasses import FrozenInstanceError
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import formulas, norm_sets, oracle_atoms, oracle_entails, oracle_eval
from pointwise import as_dataclass, recursive_print_formula, walking_atom_names
from iolog import (
    AND,
    BOTTOM,
    SO,
    TOP,
    WI,
    And,
    Atom,
    AxiomLeaf,
    Bottom,
    CheckFailure,
    Implies,
    LiftedQuery,
    Norm,
    NormSet,
    Not,
    Or,
    Top,
    TopIntro,
    Verdict,
    WorldModel,
    atoms,
    counterexample_valuation,
    entails,
    eval_formula,
    out1_member,
    parse_formula,
    print_formula,
)
from iolog.formula import _atom_names, _Binary

A, B = Atom("a"), Atom("b")
LEAF = AxiomLeaf(Norm(A, B))
MODEL = WorldModel(2, {"a": {0}, "b": {0, 1}})
VALUES = (
    A, TOP, BOTTOM, Not(A), And(A, B), Or(A, B), Implies(A, B), Norm(A, B), NormSet((Norm(A, B),)),
    Verdict(True, "derivation", frozenset({B}), SO(WI(LEAF, A), B)),
    Verdict(False, "lifted", frozenset(), MODEL),
    MODEL,
    LiftedQuery(NormSet((Norm(A, B),)), A, B, "out1"),
    TopIntro(),
    LEAF,
    SO(TopIntro(), TOP),
    WI(LEAF, A),
    AND(LEAF, LEAF),
    CheckFailure(("premise",), "no"),
)


class Conjunction(And):
    """A plain subclass: it gains a ``__dict__`` but no fields."""


class TaggedAtom(Atom):
    """A subclass with a field of its own."""

    __slots__ = ("tag",)

    def __init__(self, name: str, tag: str = ""):
        super().__init__(name)
        object.__setattr__(self, "tag", tag)


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
        with pytest.raises(FrozenInstanceError):
            value.extra = 1
        with pytest.raises(TypeError):
            weakref.ref(value)

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_fields_can_be_neither_assigned_nor_deleted(self, value):
        for name in (*type(value).__match_args__, "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, name)

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

    def test_repr_and_match_args_of_the_other_values(self):
        assert repr(SO(WI(TopIntro(), A), TOP)) == (
            "SO(premise=WI(premise=TopIntro(), input=Atom(name='a')), output=Top())"
        )
        assert repr(CheckFailure(("left",), "no")) == "CheckFailure(path=('left',), reason='no')"
        assert repr(Verdict(False, "semantic")) == (
            "Verdict(holds=False, engine='semantic', triggered=frozenset(), certificate=None)"
        )
        assert repr(WorldModel(1, {"a": {0}})) == (
            "WorldModel(world_count=1, extension=mappingproxy({'a': frozenset({0})}))"
        )
        assert Verdict.__match_args__ == ("holds", "engine", "triggered", "certificate")
        assert LiftedQuery.__match_args__ == ("norms", "input", "goal", "mode")
        assert (AND.__match_args__, TopIntro.__match_args__) == (("left", "right"), ())

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
        match out1_member(NormSet((Norm(A, B),)), A, B):
            case Verdict(True, "semantic", triggered):
                assert triggered == {B}
            case _:
                pytest.fail("pattern did not match")


    def test_no_value_class_has_a_private_field(self):
        for cls in {type(v) for v in VALUES} | {Conjunction, TaggedAtom}:
            assert not any(name.startswith("_") for name in cls._fields)
            assert cls.__match_args__ == cls._fields
        assert "_atoms" in Not.__slots__ and "_atoms" in _Binary.__slots__

    @pytest.mark.parametrize("cls", (Not, And, Or, Implies))
    def test_the_atom_cache_is_outside_value_semantics(self, cls):
        f = cls(Not(A)) if cls is Not else cls(A, Not(B))
        before = repr(f), hash(f), pickle.dumps(f)
        for _ in range(2):  # before the cache fills, and after
            with pytest.raises(FrozenInstanceError):
                f._atoms = ("z",)
            with pytest.raises(FrozenInstanceError):
                delattr(f, "_atoms")
            assert atoms(f) == oracle_atoms(f)
        assert sorted(f._atoms) == sorted(oracle_atoms(f))
        assert (repr(f), hash(f), pickle.dumps(f)) == before
        copy = pickle.loads(before[2])
        assert copy == f and f == (cls(Not(A)) if cls is Not else cls(A, Not(B)))
        assert hash(copy) == hash(f) and not hasattr(copy, "_atoms")

    def test_threads_filling_one_cache_agree(self):
        f = reduce(And, (Or(Atom(f"p{i}"), Not(Atom(f"q{i}"))) for i in range(200)))
        expected = oracle_atoms(f)
        start, results = threading.Barrier(4), [None] * 4

        def read(k):
            start.wait()
            results[k] = atoms(f)

        threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that the fills can overlap
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4 and sorted(f._atoms) == sorted(expected)


class TestAgainstDataclasses:
    """Formulas, norms and norm sets against the frozen slotted dataclasses they were:
    ``repr``, ``hash``, ``==``, ``!=`` and ``__match_args__`` agree."""

    @staticmethod
    def agree(values):
        references = [as_dataclass(v) for v in values]
        for value, reference in zip(values, references):
            assert repr(value) == repr(reference) and hash(value) == hash(reference)
            assert type(value).__match_args__ == type(reference).__match_args__
            for other, other_reference in zip(values, references):
                assert (value == other) == (reference == other_reference)
                assert (value != other) == (reference != other_reference)

    @given(formulas(("a", "b"), max_leaves=4), formulas(("a", "b"), max_leaves=4))
    def test_formulas_and_norms(self, f, g):
        copy = parse_formula(print_formula(f))  # equal to f, not the same object
        self.agree([f, g, copy, Norm(f, g), Norm(copy, g), Norm(g, f)])

    @given(norm_sets(("a", "b"), max_norms=3), norm_sets(("a", "b"), max_norms=3))
    def test_norm_sets(self, norms, others):
        self.agree([norms, others, NormSet(list(norms)), *norms, *others])


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

    def test_a_field_of_a_subclass_counts(self):
        x, y = TaggedAtom("a", tag="x"), TaggedAtom("a", tag="y")
        assert x != y and x == TaggedAtom("a", "x") and hash(x) == hash(("a", "x"))
        assert repr(x) == "TaggedAtom(name='a', tag='x')"
        assert TaggedAtom.__match_args__ == ("name", "tag")
        assert pickle.loads(pickle.dumps(x)) == x
        with pytest.raises(FrozenInstanceError):
            x.tag = "y"

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


def nodes(roots) -> dict[int, object]:
    """Every node below ``roots``, each object once, by its id."""
    found, stack = {}, list(roots)
    while stack:
        f = stack.pop()
        if id(f) not in found:
            found[id(f)] = f
            stack += [f.operand] if isinstance(f, Not) else []
            stack += [f.left, f.right] if isinstance(f, (And, Or, Implies)) else []
    return found


@st.composite
def root_lists(draw):
    """Formulas to ask for atom names, in one list: constants, subformulas of others,
    connectives over shared subtrees, and formulas with subclass nodes, some as roots.
    A pickled copy keeps the sharing and no cached names."""
    drawn = draw(st.lists(formulas(max_leaves=8), min_size=1, max_size=4))
    pool = [*drawn, *nodes(drawn).values(), *map(subclassed, drawn)]
    pool += [And(drawn[0], drawn[-1]), Not(drawn[-1]), Or(subclassed(drawn[0]), drawn[0])]
    return pickle.loads(pickle.dumps(draw(st.lists(st.sampled_from(pool), max_size=8))))


class TestAtomCache:
    """``_atom_names`` against the walk it replaced, which reads no cache; only a root
    of exactly class ``Not``, ``And``, ``Or`` or ``Implies`` keeps its names."""

    @given(root_lists())
    def test_against_the_full_walk_on_first_and_cached_calls(self, roots):
        assert not any(hasattr(f, "_atoms") for f in nodes(roots).values())
        expected = walking_atom_names(roots)
        keeping = {id(f) for f in roots if type(f) in (Not, And, Or, Implies)}
        for _ in range(2):
            assert _atom_names(roots) == expected
            assert [atoms(f) for f in roots] == [walking_atom_names([f]) for f in roots]
            for key, f in nodes(roots).items():
                assert hasattr(f, "_atoms") == (key in keeping)
                if key in keeping:
                    assert type(f._atoms) is tuple
                    assert sorted(f._atoms) == sorted(walking_atom_names([f]))

    def test_ten_thousand_deep_chains(self):
        negated, conjoined = A, A
        for i in range(10_000):
            negated, conjoined = Not(negated), And(conjoined, Atom(f"p{i % 7}"))
        names = {"a", *(f"p{i}" for i in range(7))}
        for _ in range(2):
            assert atoms(negated) == _atom_names([negated]) == {"a"}
            assert atoms(conjoined) == names and _atom_names([B, conjoined, TOP]) == names | {"b"}
        assert negated._atoms == ("a",) and not hasattr(negated.operand, "_atoms")
