"""The bit-mask engines against the pointwise references in ``pointwise.py``."""

import itertools
import operator
import random
from functools import reduce

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import formulas, norm_sets, oracle_eval, oracle_valuations, random_formula, random_norm_set
from iolog import (
    DEFAULT_ATOM_LIMIT,
    TOP,
    And,
    Atom,
    AtomLimitError,
    Implies,
    LiftedQuery,
    Norm,
    NormSet,
    Not,
    Or,
    Verdict,
    WorldModel,
    atoms,
    construct_derivation,
    counterexample_valuation,
    derive_verdict,
    entails,
    eval_formula,
    find_countermodel,
    lifted_extension,
    lifted_valid,
    lifted_verdict,
    naive_unfold_valid,
    out1_member,
    out1_member_lifted,
    out1_triple_approx,
    outpre_member_lifted,
    parse_formula,
    parse_norms,
    triggered_heads,
    verify_derivation,
)
from iolog import output, worlds
from iolog.entail import _JOINT_ATOMS, _Tables, _valuation_masks
from iolog.output import _query_names
from pointwise import (
    doubling_valuation_masks,
    first_counterexample,
    per_entailment_construct_derivation,
    per_entailment_derive_verdict,
    per_entailment_out1_member,
    per_entailment_out1_triple_approx,
    per_entailment_triggered_heads,
    two_branch_holds,
    walk_extension,
    walk_find_countermodel,
    walk_naive_unfold_valid,
    walk_out1_member,
    walk_outpre_member,
)

NAMES = ("a", "b", "c")
WIDE = ("a", "b", "c", "d", "e")
MODES = st.sampled_from(("outpre", "out1"))
TRUTHS = st.one_of(st.booleans(), st.integers(), st.text(max_size=2))  # valuation values


@st.composite
def models(draw, names=NAMES, max_worlds=3):
    count = draw(st.integers(1, max_worlds))
    worlds = st.frozensets(st.integers(0, count - 1))
    return WorldModel(count, {name: draw(worlds) for name in names})


def p_atoms(count: int) -> list[str]:
    return [f"p{i:02d}" for i in range(count)]


class TestValuationMasks:
    @pytest.mark.parametrize("count", range(19))
    def test_matches_the_doubling_builder(self, count):
        """Equal dicts: the same key set, each key with the same int."""
        assert _valuation_masks(p_atoms(count)) == doubling_valuation_masks(p_atoms(count))

    @pytest.mark.parametrize("count", range(9))
    def test_point_i_is_the_ith_product_valuation(self, count):
        names = p_atoms(count)
        env, full = _valuation_masks(names)
        points = list(itertools.product((False, True), repeat=count))
        assert full == (1 << len(points)) - 1
        for i, values in enumerate(points):
            assert [bool(env[n] >> i & 1) for n in names] == list(values)

    def test_each_call_builds_its_own_tables(self):
        first, _ = _valuation_masks(p_atoms(3))
        first["p00"], first["extra"] = 0, 1
        assert _valuation_masks(p_atoms(3)) == doubling_valuation_masks(p_atoms(3))


class TestValuationTable:
    @given(st.lists(formulas(WIDE, max_leaves=10), max_size=3), formulas(WIDE, max_leaves=10))
    def test_counterexample_is_the_first_in_enumeration_order(self, premises, conclusion):
        assert counterexample_valuation(premises, conclusion) == first_counterexample(
            premises, conclusion
        )

    @pytest.mark.parametrize("count", (_JOINT_ATOMS + 1, _JOINT_ATOMS + 2))
    def test_witness_order_over_whole_tables_past_the_joint_limit(self, count):
        """Each query spans every atom through a tautological premise, so its one
        table covers all 2^count valuations, past the tables an engine call shares."""
        names = p_atoms(count)
        everything = reduce(And, map(Atom, names))
        tautology = Or(everything, Not(everything))

        def witness(premises, conclusion):
            return counterexample_valuation((*premises, tautology), conclusion, atom_limit=count)

        assert witness((), Atom("p16")) == dict.fromkeys(names, False)
        assert witness((), Not(everything)) == dict.fromkeys(names, True)
        expected = dict.fromkeys(names, False) | {"p00": True}
        assert witness((Atom("p00"),), Atom("p01")) == expected
        # Of the two valuations making exactly one of p00, p16 true, p16's comes first.
        first, last = Atom("p00"), Atom("p16")
        expected = dict.fromkeys(names, False) | {"p16": True}
        assert witness((Or(first, last),), And(first, last)) == expected

    @given(formulas(WIDE, max_leaves=10), st.fixed_dictionaries({n: TRUTHS for n in WIDE}))
    def test_eval_formula_matches_the_oracle(self, f, valuation):
        """Each value is read by its truth, as a bit mask such as ``2`` or a string may be."""
        assert eval_formula(f, valuation) is bool(oracle_eval(f, valuation))


class TestLifted:
    @given(formulas(), models())
    def test_extension_matches_the_tree_walker(self, f, model):
        assert lifted_extension(f, model) == walk_extension(f, model)
        assert lifted_valid(f, model) == (walk_extension(f, model) == model.worlds)

    @given(norm_sets(), formulas(max_leaves=4), formulas(max_leaves=4), models())
    def test_member_tests_match_the_tree_walker(self, norms, input, goal, model):
        assert outpre_member_lifted(norms, input, goal, model) == walk_outpre_member(
            norms, input, goal, model
        )
        assert out1_member_lifted(norms, input, goal, model) == walk_out1_member(
            norms, input, goal, model
        )

    def test_unmapped_atom_is_not_reached_when_the_left_operand_decides(self):
        model = WorldModel(2, {"a": frozenset({0})})
        assert lifted_extension(Or(TOP, Atom("z")), model) == {0, 1}
        assert lifted_valid(Or(TOP, Atom("z")), model)


class TestNaive:
    @given(norm_sets(), formulas(max_leaves=4), formulas(max_leaves=4), MODES)
    def test_matches_the_valuation_loop(self, norms, input, goal, mode):
        assert naive_unfold_valid(norms, input, goal, mode) == walk_naive_unfold_valid(
            norms, input, goal, mode
        )

    def test_wide_query_matches_the_valuation_loop(self):
        norms = parse_norms("(a & b, e)\n(c | d, !e)\n(f -> g, e & h)")
        for mode in ("outpre", "out1"):
            for goal in (Atom("e"), Or(Atom("e"), Atom("h"))):
                assert naive_unfold_valid(norms, Atom("a"), goal, mode) == (
                    walk_naive_unfold_valid(norms, Atom("a"), goal, mode)
                )


class TestFindCountermodel:
    @settings(max_examples=60)
    @given(
        norm_sets(max_norms=3),
        formulas(max_leaves=4),
        formulas(max_leaves=4),
        MODES,
        st.integers(1, 3),
    )
    def test_same_model_as_the_old_enumerator(self, norms, input, goal, mode, max_worlds):
        query = LiftedQuery(norms, input, goal, mode)
        assert find_countermodel(query, max_worlds) == walk_find_countermodel(query, max_worlds)

    @settings(max_examples=60)
    @given(st.data(), MODES, st.integers(1, 6))
    def test_stopping_at_two_to_the_atoms_loses_no_model(self, data, mode, max_worlds):
        # With at most two atoms the search stops at 4 worlds or fewer; the
        # old enumerator runs every size up to max_worlds.
        names = data.draw(st.sampled_from([(), ("a",), ("a", "b")]))
        norms = data.draw(norm_sets(names, max_norms=3))
        input, goal = data.draw(formulas(names, max_leaves=4)), data.draw(formulas(names, max_leaves=4))
        query = LiftedQuery(norms, input, goal, mode)
        assert find_countermodel(query, max_worlds) == walk_find_countermodel(query, max_worlds)

    def test_falsifying_sets_compare_by_their_arranged_masks(self):
        # {a & b, neither} and {a, b} both falsify at two worlds and both put a in w0;
        # masks compare as binary numbers, bit w = world w, so b = {w0} (1) comes
        # before b = {w1} (2).
        norms = parse_norms("(!c, b)\n(c, true)\n(true, !b)")
        query = LiftedQuery(norms, Atom("a"), TOP, "outpre")
        model = find_countermodel(query, 2)
        assert model == WorldModel(2, {"a": {0}, "b": {0}, "c": set()})
        assert model == walk_find_countermodel(query, 2)

    def test_no_norms_refute_a_non_tautological_goal_at_one_world(self):
        query = LiftedQuery(NormSet(), Atom("a"), Atom("b"), "out1")
        assert find_countermodel(query, 3) == walk_find_countermodel(query, 3)

    @pytest.mark.parametrize("atoms, max_worlds", [(3, 4), (4, 3)])
    @pytest.mark.parametrize("mode", ["outpre", "out1"])
    def test_absent_and_found_searches_match_the_old_enumerator(self, atoms, max_worlds, mode):
        """Absent queries shaped as the benchmark's countermodel pool shapes them: the
        covering norm first, so a point set meets its zero mask second, and heads that are
        two-literal disjunctions.  Then random queries whose least countermodel has more
        than one world, so the search tests point sets to find it."""
        rng, names = random.Random(f"{atoms}x{max_worlds}/{mode}"), "abcd"[:atoms]

        def literal(name):
            return Atom(name) if rng.random() < 0.5 else Not(Atom(name))

        def shaped(leaves):
            if leaves == 1:
                return literal(rng.choice(names))
            left = rng.randint(1, leaves - 1)
            return rng.choice((And, Or, Implies))(shaped(left), shaped(leaves - left))

        def head():
            return Or(*map(literal, rng.sample(names, 2)))

        def full_width(query):
            return len(_query_names(query.norms, query.input, query.goal)) == atoms

        absent = found = 0
        while absent < 4:
            body, goal = shaped(3), head()
            norms = NormSet((Norm(body, goal), Norm(shaped(3), head())))
            query = LiftedQuery(norms, And(body, literal(rng.choice(names))), goal, mode)
            if full_width(query):
                assert find_countermodel(query, max_worlds) is None
                assert walk_find_countermodel(query, max_worlds) is None
                absent += 1
        while found < 6:
            norms = random_norm_set(rng, names, max_norms=3)
            query = LiftedQuery(norms, random_formula(rng, names), random_formula(rng, names), mode)
            model = walk_find_countermodel(query, max_worlds) if full_width(query) else None
            if model is not None and model.world_count > 1:
                assert find_countermodel(query, max_worlds) == model
                found += 1


# Each entailment of this query stays within 16 atoms (the input and the body
# share one atom, the head and the goal have 16), but the query has 17.
LIMIT_NORMS = parse_norms("(a, " + " & ".join(f"b{i}" for i in range(1, 9)) + ")")
LIMIT_GOAL = parse_formula(" | ".join(f"b{i}" for i in range(9, 17)))
# Twenty norms over separate pairs of atoms, forty atoms in all.
SPARSE_NORMS = parse_norms("".join(f"(p{i}, q{i})\n" for i in range(20)))
SPARSE_INPUT = parse_formula("p0 & p2 & p4")

ENGINES = (
    (out1_member, per_entailment_out1_member),
    (out1_triple_approx, per_entailment_out1_triple_approx),
    (derive_verdict, per_entailment_derive_verdict),
    (construct_derivation, per_entailment_construct_derivation),
)


# The input and the norm's body have 3 atoms between them, more than the limit of 1, and
# the goal is a tautology over 1 atom.
TAUTOLOGY_AFTER_WIDE_BODY = (parse_norms("(b & c, e)"), Atom("a"), parse_formula("a | !a"))
OUT1_ENTRY_POINTS = (out1_member, out1_triple_approx, derive_verdict, construct_derivation, lifted_verdict)


def outcome(engine, *args, **kwargs):
    """What a call returns, or the count and limit of the AtomLimitError it raises."""
    try:
        return engine(*args, **kwargs)
    except AtomLimitError as err:
        return "AtomLimitError", err.count, err.limit


class TestQueryTables:
    @settings(max_examples=300)
    @given(norm_sets(), formulas(max_leaves=4), formulas(max_leaves=4), st.integers(0, 4))
    def test_engines_match_the_per_entailment_references(self, norms, input, goal, limit):
        """Limits below the query's 3 atoms make some entailments fail and others not."""
        assert outcome(triggered_heads, norms, input, atom_limit=limit) == outcome(
            per_entailment_triggered_heads, norms, input, limit
        )
        for engine, reference in ENGINES:
            assert outcome(engine, norms, input, goal, atom_limit=limit) == outcome(
                reference, norms, input, goal, limit
            )
        verdict = outcome(derive_verdict, norms, input, goal, atom_limit=limit)
        if isinstance(verdict, Verdict) and verdict.certificate is not None:
            assert verify_derivation(norms, verdict.certificate, Norm(input, goal)) is None

    @settings(max_examples=300)
    @given(norm_sets(), formulas(max_leaves=4), formulas(max_leaves=4), st.integers(0, 4))
    def test_construct_derivation_is_derive_verdicts_certificate(self, norms, input, goal, limit):
        def certificate(*args, **kwargs):
            return derive_verdict(*args, **kwargs).certificate

        assert outcome(construct_derivation, norms, input, goal, atom_limit=limit) == outcome(
            certificate, norms, input, goal, atom_limit=limit
        )

    @pytest.mark.parametrize("engine", OUT1_ENTRY_POINTS, ids=lambda engine: engine.__name__)
    def test_every_out1_entry_point_decides_triggering_first(self, engine):
        with pytest.raises(AtomLimitError) as err:
            engine(*TAUTOLOGY_AFTER_WIDE_BODY, atom_limit=1)
        assert (err.value.count, err.value.limit) == (3, 1)

    def test_atom_limit_counts_each_entailment(self):
        (norm,) = LIMIT_NORMS
        input = Atom("a")
        assert len(atoms(input) | atoms(norm.body)) == 1
        assert len(atoms(norm.head) | atoms(LIMIT_GOAL)) == 16
        for engine, reference in ENGINES:
            assert engine(LIMIT_NORMS, input, LIMIT_GOAL) == reference(LIMIT_NORMS, input, LIMIT_GOAL)
        assert not out1_member(LIMIT_NORMS, input, LIMIT_GOAL).holds
        wider = Or(LIMIT_GOAL, Atom("b17"))  # head and goal now have 17 atoms
        for engine, _ in ENGINES:
            with pytest.raises(AtomLimitError) as err:
                engine(LIMIT_NORMS, input, wider)
            assert (err.value.count, err.value.limit) == (17, 16)

    def test_tautological_goal_is_decided_before_wide_heads(self):
        """The head and the goal have 3 atoms together, more than the limit of 2."""
        norms, input, goal = parse_norms("(a, b & c)"), Atom("a"), parse_formula("a | !a")
        for engine, reference in ENGINES:
            assert outcome(engine, norms, input, goal, atom_limit=2) == outcome(
                reference, norms, input, goal, 2
            )
        assert out1_triple_approx(norms, input, goal, atom_limit=2).holds
        assert derive_verdict(norms, input, goal, atom_limit=2).holds
        with pytest.raises(AtomLimitError) as err:
            out1_member(norms, input, goal, atom_limit=2)
        assert err.value.count == 3

    @pytest.mark.parametrize("limit", [2, DEFAULT_ATOM_LIMIT, 40, 64])
    def test_sparse_query_is_decided_entailment_by_entailment(self, limit):
        """Forty atoms in all, at most four in any one entailment."""
        goal = parse_formula("q0 & q4")
        assert outcome(triggered_heads, SPARSE_NORMS, SPARSE_INPUT, atom_limit=limit) == (
            outcome(per_entailment_triggered_heads, SPARSE_NORMS, SPARSE_INPUT, limit)
        )
        for engine, reference in ENGINES:
            assert outcome(engine, SPARSE_NORMS, SPARSE_INPUT, goal, atom_limit=limit) == outcome(
                reference, SPARSE_NORMS, SPARSE_INPUT, goal, limit
            )
        if limit >= DEFAULT_ATOM_LIMIT:
            assert out1_member(SPARSE_NORMS, SPARSE_INPUT, goal, atom_limit=limit).holds


SIX = ("a", "b", "c", "d", "e", "f")
# No three of the four heads entail the goal, all four do.  The twin adds an untriggered
# norm over 13 more atoms and ``f``, 19 joint atoms, so its tables are not shared.
FOUR_HEADS = parse_norms("".join(f"(a, e{i})\n" for i in range(1, 5)))
FOUR_GOAL = parse_formula("e1 & e2 & e3 & e4")
WIDE_FOUR_HEADS = NormSet((*FOUR_HEADS, Norm(parse_formula(" & ".join(p_atoms(13))), Atom("f"))))


class TestTripleKernel:
    """The triple engine decides by ``0 in output._witnesses(...)`` on shared tables and one
    entailment per triple past them; the per-entailment reference decides both ways alike."""

    @settings(max_examples=400)
    @given(
        norm_sets(SIX, max_norms=8), formulas(SIX, max_leaves=4), formulas(SIX, max_leaves=6),
        st.integers(0, 7),
    )
    def test_both_branches_match_the_per_entailment_reference(self, norms, input, goal, limit):
        """A limit below the query's joint atoms leaves its tables unshared."""
        assert outcome(out1_triple_approx, norms, input, goal, atom_limit=limit) == outcome(
            per_entailment_out1_triple_approx, norms, input, goal, limit
        )

    @pytest.mark.parametrize("norms, shared", [(FOUR_HEADS, True), (WIDE_FOUR_HEADS, False)])
    def test_four_heads_escape_every_triple(self, norms, shared):
        input = Atom("a")
        assert _Tables(_query_names(norms, input, FOUR_GOAL), DEFAULT_ATOM_LIMIT).shared is shared
        verdict = out1_triple_approx(norms, input, FOUR_GOAL)
        assert verdict == per_entailment_out1_triple_approx(norms, input, FOUR_GOAL)
        assert verdict.holds is False
        assert out1_member(norms, input, FOUR_GOAL).holds is True

    @pytest.mark.parametrize("norms, calls", [(FOUR_HEADS, 0), (WIDE_FOUR_HEADS, 5 + 1 + 20)])
    def test_shared_tables_ask_no_entailment_per_triple(self, monkeypatch, norms, calls):
        """On shared tables no entailment is asked: triggering reads masks too.  Past them
        triggering asks one entailment per norm, and the tautology check and each of the
        C(6, 3) triples of four heads ask one more."""
        asked = []

        class Counted(_Tables):  # output's tables only: not the ones the public entails builds
            def entails(self, premises, conclusion):
                asked.append(conclusion)
                return super().entails(premises, conclusion)

        monkeypatch.setattr(output, "_Tables", Counted)
        out1_triple_approx(norms, Atom("a"), FOUR_GOAL)
        assert len(asked) == calls

    @pytest.mark.parametrize("name", ["_masks", "_witnesses", "_holds", "_one_world_failures"])
    def test_output_alone_defines_the_kernel(self, name):
        assert getattr(worlds, name) is getattr(output, name)
        assert getattr(output, name).__module__ == "iolog.output"


class TestOneWorldFailures:
    """The one-world fold that the naive unfolding and the countermodel search's first size
    read, against the three-witness test in each one-world model."""

    @settings(max_examples=300)
    @given(norm_sets(WIDE, max_norms=5), formulas(WIDE, 6), formulas(WIDE, 6), MODES)
    def test_a_point_fails_exactly_where_its_one_world_model_does(self, norms, input, goal, mode):
        """Over every valuation of at most five atoms, bit p is set exactly when the model
        whose one world carries valuation p falsifies the claim."""
        tables = _Tables(_query_names(norms, input, goal), DEFAULT_ATOM_LIMIT, whole=True)
        masks = output._masks(norms, input, goal, mode, tables.truth, tables.full)
        fails = output._one_world_failures(mode, masks)
        family = list(output._witnesses(mode, masks))
        points = tables.full.bit_length()
        assert fails >> points == 0
        for p in range(points):
            assert bool(fails >> p & 1) is not output._holds(family, 1 << p)


@st.composite
def shaped_masks(draw, mode):
    """``full`` and masks shaped as ``output._masks`` returns them, over at most six points
    and five norms: outpre fails anywhere and reads a misfit per norm, out1 reads where the
    goal fails and a (where the body misses, head) pair per norm."""
    full = (1 << draw(st.integers(1, 6))) - 1
    mask = st.integers(0, full)
    if mode == "outpre":
        return full, (full, draw(st.lists(mask, max_size=5)))
    return full, (draw(mask), draw(st.lists(st.tuples(mask, mask), max_size=5)))


class TestWitnesses:
    """The witness masks against the two-branch test they replaced, at every point set."""

    @settings(max_examples=300)
    @given(st.data(), MODES)
    def test_holds_matches_the_two_branch_test(self, data, mode):
        full, masks = data.draw(shaped_masks(mode))
        family = list(output._witnesses(mode, masks))
        for sel in range(full + 1):
            assert output._holds(family, sel) is two_branch_holds(mode, masks, sel)

    def test_holds_stops_at_the_first_mask_the_set_misses(self):
        """An absent search's sets each miss the covering norm's zero mask, which comes
        second in the benchmark's pool: no mask past the first missed one is read."""

        def witnesses():
            yield 0b10
            yield 0b01
            raise AssertionError("read past the first mask the set misses")

        assert output._holds(witnesses(), 0b10) is True

    @settings(max_examples=300)
    @given(st.data(), MODES)
    def test_one_world_failures_are_where_every_witness_fails(self, data, mode):
        full, masks = data.draw(shaped_masks(mode))
        witnesses = output._witnesses(mode, masks)
        assert output._one_world_failures(mode, masks) == reduce(operator.and_, witnesses, full)


@st.composite
def small_queries(draw, mode):
    names = draw(st.sampled_from([(), ("a",), ("a", "b"), NAMES]))
    norms = draw(norm_sets(names, max_norms=3))
    return LiftedQuery(norms, *(draw(formulas(names, max_leaves=4)) for _ in "ig"), mode)


def query_masks(query):
    """``full`` and the masks the countermodel search reads, over every valuation."""
    names = _query_names(query.norms, query.input, query.goal)
    tables = _Tables(names, DEFAULT_ATOM_LIMIT, whole=True)
    return tables.full, output._masks(*query._values, tables.truth, tables.full)


class TestAbsencePins:
    """Two facts a one-shot absence check would rest on, at up to three atoms; the search
    itself does not use them."""

    @settings(max_examples=100)
    @given(st.data(), MODES)
    def test_falsification_is_upward_closed(self, data, mode):
        query = data.draw(small_queries(mode))
        full, masks = query_masks(query)
        family = list(output._witnesses(mode, masks))
        falsifying = [sel for sel in range(1, full + 1) if not output._holds(family, sel)]
        for sel in falsifying:
            for p in range(full.bit_length()):
                assert not output._holds(family, sel | 1 << p)

    @settings(max_examples=100)
    @given(st.data(), MODES)
    def test_a_zero_mask_is_absence_at_every_world_count(self, data, mode):
        """At n <= 2 atoms the old enumerator runs all 2^n world counts.  At 3 its 2^24
        models of 8 worlds are out of reach, so the tree walker reads one model per
        non-empty set of valuations instead, each valuation at its own world: a model that
        repeats a valuation has the verdict of the one without the repeat."""
        query = data.draw(small_queries(mode))
        full, masks = query_masks(query)
        absent = 0 in output._witnesses(mode, masks)
        names = sorted(_query_names(query.norms, query.input, query.goal))
        if len(names) <= 2:
            assert absent is (walk_find_countermodel(query, full.bit_length()) is None)
        member = walk_outpre_member if mode == "outpre" else walk_out1_member
        valuations = list(oracle_valuations(names))
        models = (
            WorldModel(size, {n: {w for w, v in enumerate(chosen) if v[n]} for n in names})
            for size in range(1, len(valuations) + 1)
            for chosen in itertools.combinations(valuations, size)
        )
        assert absent is all(member(query.norms, query.input, query.goal, m) for m in models)


# Forty heads with forty distinct masks over a-d: each literal, and each conjunction of
# three literals over distinct atoms.  Norm i's body is atom i of a-d, cyclically.
FORTY_HEADS = [sign + x for x in "abcd" for sign in ("", "!")] + [
    " & ".join(sign + x for sign, x in zip(signs, trio))
    for trio in itertools.combinations("abcd", 3)
    for signs in itertools.product(("", "!"), repeat=3)
]
FORTY = parse_norms("".join(f"({'abcd'[i % 4]}, {head})\n" for i, head in enumerate(FORTY_HEADS)))


class TestManyNorms:
    """k distinct (where the body misses, head where the goal fails) pairs give at most
    C(k + 2, 3) + 1 out1 witness masks, one per multiset triple and the goal's, and over
    the 2^n valuations of n atoms at most 2^(2^n) of them are distinct."""

    def test_forty_heads_bound_the_family(self):
        query = LiftedQuery(FORTY, parse_formula("a | b"), parse_formula("a | b"), "out1")
        full, masks = query_masks(query)
        assert len({head for _, head in masks[1]}) == 40
        pairs = len({(missed, head & masks[0]) for missed, head in masks[1]})
        triples = (pairs + 2) * (pairs + 1) * pairs // 6
        assert sum(1 for _ in output._witnesses("out1", masks)) == triples + 1

    @pytest.mark.parametrize(
        "input, goal, out1_worlds",
        [("a | b", "a | b", 3), ("(a & b) | (c & d)", "a -> b", 3), ("c | d", "a", 2), ("a", "b", None)],
    )
    @pytest.mark.parametrize("mode", ["outpre", "out1"])
    def test_search_at_three_worlds_matches_the_old_enumerator(self, input, goal, out1_worlds, mode):
        """outpre finds two worlds for each query."""
        query = LiftedQuery(FORTY, parse_formula(input), parse_formula(goal), mode)
        model = find_countermodel(query, 3)
        assert model == walk_find_countermodel(query, 3)
        assert (model and model.world_count) == (out1_worlds if mode == "out1" else 2)

    @pytest.mark.parametrize("mode", ["outpre", "out1"])
    def test_a_one_world_countermodel_builds_no_family(self, monkeypatch, mode):
        """200 norms whose heads all hold where ``a`` does; the goal is a fresh atom."""
        bodies = ("a", "b", "c", "d", "true")
        norms = parse_norms("".join(f"({b}, a | {h})\n" for b in bodies for h in FORTY_HEADS))
        assert len(norms) == 200

        def refuse(mode, masks):
            raise AssertionError("the witness family was built")

        monkeypatch.setattr(output, "_witnesses", refuse)
        monkeypatch.setattr(worlds, "_witnesses", refuse)
        query = LiftedQuery(norms, Atom("a"), Atom("e"), mode)
        model = find_countermodel(query, 4)
        assert model.world_count == 1
        assert model == walk_find_countermodel(query, 1)
