"""The bit-mask engines against the pointwise references in ``pointwise.py``."""

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import formulas, norm_sets, oracle_eval
from iolog import (
    TOP,
    Atom,
    LiftedQuery,
    NormSet,
    Or,
    WorldModel,
    counterexample_valuation,
    eval_formula,
    find_countermodel,
    lifted_extension,
    lifted_valid,
    naive_unfold_valid,
    out1_member_lifted,
    outpre_member_lifted,
    parse_norms,
)
from pointwise import (
    first_counterexample,
    walk_extension,
    walk_find_countermodel,
    walk_naive_unfold_valid,
    walk_out1_member,
    walk_outpre_member,
)

NAMES = ("a", "b", "c")
WIDE = ("a", "b", "c", "d", "e")
MODES = st.sampled_from(("outpre", "out1"))


@st.composite
def models(draw, names=NAMES, max_worlds=3):
    count = draw(st.integers(1, max_worlds))
    worlds = st.frozensets(st.integers(0, count - 1))
    return WorldModel(count, {name: draw(worlds) for name in names})


class TestValuationTable:
    @given(st.lists(formulas(WIDE, max_leaves=10), max_size=3), formulas(WIDE, max_leaves=10))
    def test_counterexample_is_the_first_in_enumeration_order(self, premises, conclusion):
        assert counterexample_valuation(premises, conclusion) == first_counterexample(
            premises, conclusion
        )

    @given(formulas(WIDE, max_leaves=10), st.fixed_dictionaries({n: st.booleans() for n in WIDE}))
    def test_eval_formula_matches_the_oracle(self, f, valuation):
        assert eval_formula(f, valuation) == oracle_eval(f, valuation)


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

    def test_no_norms_refute_a_non_tautological_goal_at_one_world(self):
        query = LiftedQuery(NormSet(), Atom("a"), Atom("b"), "out1")
        assert find_countermodel(query, 3) == walk_find_countermodel(query, 3)
