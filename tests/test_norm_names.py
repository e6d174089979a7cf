"""The atom names a norm set keeps once an engine has read them: an engine call's
universe against the walk of every query formula it replaced, and the slot's contract."""

import pickle
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import formulas, norm_sets, oracle_atoms
from pointwise import (
    per_entailment_derive_verdict,
    per_entailment_out1_member,
    per_entailment_out1_triple_approx,
    per_entailment_triggered_heads,
    walk_find_countermodel,
    walk_naive_unfold_valid,
    walking_query_names,
)
from test_kernel import outcome
from test_nodes import subclassed
from iolog import (
    TOP,
    And,
    AtomLimitError,
    Atom,
    LiftedQuery,
    Norm,
    NormSet,
    Not,
    Or,
    Verdict,
    derive_verdict,
    lifted_verdict,
    naive_unfold_valid,
    out1_member,
    out1_triple_approx,
    triggered_heads,
)
from iolog import output
from iolog.entail import _Tables
from iolog.norms import _norm_names
from iolog.output import _query_names

A, B, C, D, E = map(Atom, "abcde")


class EveryOther(NormSet):
    """A norm set whose iteration yields every other norm: the engines ask only those."""

    __slots__ = ()

    def __iter__(self):
        return iter(self.norms[::2])


KINDS = (NormSet, EveryOther, list, tuple)


@st.composite
def norm_collections(draw):
    """Norms over a, b and c, or over constants alone, some with subclass nodes, as a
    ``NormSet``, a ``NormSet`` subclass, a list or a tuple; empty ones included."""
    names = draw(st.sampled_from([("a", "b", "c"), ()]))
    norms = list(draw(norm_sets(names)))
    if draw(st.booleans()):
        norms = [Norm(subclassed(n.body), n.head) for n in norms]
    return draw(st.sampled_from(KINDS))(norms)


QUERY_FORMULAS = st.one_of(formulas(max_leaves=4), formulas((), max_leaves=2))


def walk_lifted_verdict(norms, input, goal, limit, max_worlds):
    heads = per_entailment_triggered_heads(norms, input, limit)
    model = walk_find_countermodel(LiftedQuery(norms, input, goal, "out1"), max_worlds)
    return Verdict(model is None, "lifted", triggered=heads, certificate=model)


def limited_naive(norms, input, goal, mode, limit):
    """The naive unfolding holds its whole query's atoms to the limit."""
    count = len(walking_query_names(norms, input, goal))
    if count > limit:
        raise AtomLimitError(count, limit)
    return walk_naive_unfold_valid(norms, input, goal, mode)


class TestUniverse:
    """``output._query_names`` against the walk of every query formula, and every engine
    against its reference; only a ``NormSet`` of exactly that class keeps its names."""

    @given(norm_collections(), QUERY_FORMULAS, QUERY_FORMULAS)
    def test_against_the_walk_of_every_query_formula(self, norms, input, goal):
        everything = walking_query_names(norms, input, goal)
        triggering = walking_query_names(norms, input)
        for _ in range(2):  # before the names are kept, and after
            assert _query_names(norms, input, goal) == everything
            assert _query_names(norms, input) == triggering
            assert hasattr(norms, "_names") == (type(norms) is NormSet)
        if type(norms) is NormSet:
            names = set().union(*(oracle_atoms(f) for n in norms for f in (n.body, n.head)))
            assert norms._names == tuple(sorted(names))

    @settings(max_examples=150)
    @given(norm_collections(), QUERY_FORMULAS, QUERY_FORMULAS, st.integers(0, 4))
    def test_engines_match_the_references(self, norms, input, goal, limit):
        """Limits below the query's 3 atoms make some entailments fail and others not."""
        pairs = [
            (triggered_heads, per_entailment_triggered_heads, (norms, input)),
            (out1_member, per_entailment_out1_member, (norms, input, goal)),
            (out1_triple_approx, per_entailment_out1_triple_approx, (norms, input, goal)),
            (derive_verdict, per_entailment_derive_verdict, (norms, input, goal)),
        ]
        for _ in range(2):
            for engine, reference, args in pairs:
                assert outcome(engine, *args, atom_limit=limit) == outcome(reference, *args, limit)
            for mode in ("outpre", "out1"):
                assert outcome(naive_unfold_valid, norms, input, goal, mode, atom_limit=limit) == (
                    outcome(limited_naive, norms, input, goal, mode, limit)
                )
            lifted = outcome(lifted_verdict, norms, input, goal, max_worlds=2, atom_limit=limit)
            assert lifted == outcome(walk_lifted_verdict, norms, input, goal, limit, 2)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_triggered_heads_counts_the_heads_in_its_universe(self, monkeypatch, kind):
        """The heads have three atoms and the input and the bodies one: the universe is
        past the limit of 1, so no table is shared, and each entailment of one atom is
        decided over its own.  ``EveryOther`` never reads the norm ``(!a, e)``."""
        built = []

        class Recorded(_Tables):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append((self.names, self.shared))

        monkeypatch.setattr(output, "_Tables", Recorded)
        norms = kind([Norm(A, And(B, C)), Norm(Not(A), E), Norm(TOP, D)])
        for _ in range(2):
            assert triggered_heads(norms, A, atom_limit=1) == {And(B, C), D}
        universe = list("abcd" if kind is EveryOther else "abcde")
        assert built == [(universe, False)] * 2


# The six engines, each asked (norms, input, goal).
ENGINES = (
    lambda norms, input, goal: triggered_heads(norms, input),
    out1_member,
    out1_triple_approx,
    derive_verdict,
    lifted_verdict,
    lambda norms, input, goal: naive_unfold_valid(norms, input, goal, "out1"),
)


class TestSlot:
    """The names a ``NormSet`` keeps, in its private ``_names`` slot."""

    def test_the_slot_is_no_field(self):
        assert NormSet._fields == NormSet.__match_args__ == ("norms",)
        assert "_names" in NormSet.__slots__

    def test_the_names_are_outside_value_semantics(self):
        norms = NormSet((Norm(A, And(B, Not(C))), Norm(TOP, D)))
        before = repr(norms), hash(norms), pickle.dumps(norms)
        for _ in range(2):  # before the names are kept, and after
            with pytest.raises(FrozenInstanceError):
                norms._names = ()
            with pytest.raises(FrozenInstanceError):
                delattr(norms, "_names")
            assert out1_member(norms, A, Or(B, E)).holds
        assert norms._names == ("a", "b", "c", "d")
        assert (repr(norms), hash(norms), pickle.dumps(norms)) == before
        fresh = NormSet(norms.norms)
        assert norms == fresh and fresh == norms and hash(fresh) == hash(norms)
        copy = pickle.loads(before[2])
        assert copy == norms and hash(copy) == hash(norms) and not hasattr(copy, "_names")
        match norms:
            case NormSet(kept):
                assert kept == norms.norms
            case _:
                pytest.fail("pattern did not match")

    def test_threads_filling_one_cache_agree(self):
        norms = NormSet(Norm(Or(Atom(f"p{i}"), A), Not(Atom(f"q{i}"))) for i in range(200))
        names = tuple(sorted({"a", *(f"p{i}" for i in range(200)), *(f"q{i}" for i in range(200))}))
        start, results = threading.Barrier(4), [None] * 4

        def read(k):
            start.wait()
            results[k] = _norm_names(norms)

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
        assert results == [names] * 4 and norms._names == names

    @pytest.mark.parametrize("engine", range(len(ENGINES)))
    def test_lists_and_tuples_go_through_every_engine_uncached(self, engine):
        """A list that grows between calls is read afresh: the norm added brings atom e,
        which no earlier universe holds."""
        ask = ENGINES[engine]
        norms = [Norm(A, B)]
        asked = ask(norms, A, C)
        assert asked == ask(tuple(norms), A, C) == ask(NormSet(norms), A, C)
        norms.append(Norm(Or(A, E), C))
        grown = ask(norms, A, C)
        assert grown == ask(tuple(norms), A, C) == ask(NormSet(norms), A, C)
        assert grown != asked
