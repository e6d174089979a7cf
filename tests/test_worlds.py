"""World-lifted evaluation, the countermodel finder, and the naive unfolding."""

import itertools
import math
import pickle
import random
import time

import pytest

import iolog.entail
import iolog.worlds
from conftest import (
    oracle_atoms,
    oracle_eval,
    oracle_valuations,
    random_formula,
    random_norm_set,
)
from iolog import (
    Atom,
    AtomLimitError,
    LiftedQuery,
    NormSet,
    Not,
    Or,
    SearchBudgetError,
    WorldModel,
    find_countermodel,
    is_tautology,
    lifted_extension,
    lifted_valid,
    lifted_verdict,
    naive_unfold_valid,
    out1_member_lifted,
    outpre_member_lifted,
    parse_formula,
    parse_norms,
    render_world_model,
    triggered_heads,
    world_model_to_dict,
)

A, B, E = Atom("a"), Atom("b"), Atom("e")
TWO_NORMS = parse_norms("(a, e)\n(b, e)")

# Two worlds with a and b holding in opposite ones; e nowhere.
SPLIT = WorldModel(2, {"a": frozenset({1}), "b": frozenset({0}), "e": frozenset()})


def random_model(rng, names=("a", "b", "c")):
    count = rng.randrange(1, 4)
    return WorldModel(
        count,
        {
            name: frozenset(w for w in range(count) if rng.random() < 0.5)
            for name in names
        },
    )


class TestWorldModel:
    def test_needs_at_least_one_world(self):
        with pytest.raises(ValueError):
            WorldModel(0, {})

    def test_extensions_must_be_in_bounds(self):
        with pytest.raises(ValueError):
            WorldModel(2, {"a": frozenset({2})})

    @pytest.mark.parametrize("count", [True, 2.0, "2", None], ids=repr)
    def test_the_world_count_is_an_int(self, count):
        with pytest.raises(ValueError, match="int count"):
            WorldModel(count, {})

    @pytest.mark.parametrize("world", [True, False, 1.0], ids=repr)
    def test_a_world_is_an_int(self, world):
        with pytest.raises(ValueError, match="not an int"):
            WorldModel(2, {"a": {world}})

    def test_extension_cannot_be_mutated(self):
        model = WorldModel(2, {"a": {0}})
        with pytest.raises(TypeError):
            model.extension["a"] = frozenset({5})
        with pytest.raises(TypeError):
            del model.extension["a"]
        assert model.extension == {"a": frozenset({0})}

    def test_equal_models_hash_equal_whatever_the_input_types_and_order(self):
        model = WorldModel(2, {"a": {0}, "b": [1, 0]})
        same = WorldModel(2, {"b": frozenset({0, 1}), "a": frozenset({0})})
        assert model == same and hash(model) == hash(same)
        assert model != WorldModel(3, {"a": {0}, "b": {0, 1}})
        assert len({model, same, SPLIT}) == 2

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips(self, protocol):
        again = pickle.loads(pickle.dumps(SPLIT, protocol))
        assert again == SPLIT and hash(again) == hash(SPLIT)
        with pytest.raises(TypeError):
            again.extension["a"] = frozenset()

    def test_a_verdict_carrying_a_countermodel_is_hashable(self):
        verdict = lifted_verdict(TWO_NORMS, Or(A, B), E, max_worlds=4)
        assert hash(verdict) == hash(pickle.loads(pickle.dumps(verdict)))


class TestLiftedExtension:
    def test_disjunction_unions_pointwise(self):
        assert lifted_extension(Or(A, B), SPLIT) == {0, 1}

    def test_top_is_all_worlds(self):
        assert lifted_extension(parse_formula("true"), SPLIT) == {0, 1}

    def test_contradiction_is_empty(self):
        assert lifted_extension(parse_formula("a & !a"), SPLIT) == frozenset()

    def test_unmapped_atom_is_an_error(self):
        from iolog import UnboundAtomError

        with pytest.raises(UnboundAtomError):
            lifted_extension(Atom("z"), SPLIT)

    def test_double_negation_changes_no_world(self):
        rng = random.Random(61)
        for _ in range(100):
            m = random_model(rng)
            f = random_formula(rng)
            assert lifted_extension(f, m) == lifted_extension(Not(Not(f)), m)


class TestLiftedValid:
    def test_excluded_middle_everywhere(self):
        rng = random.Random(67)
        for _ in range(20):
            assert lifted_valid(parse_formula("a | !a"), random_model(rng))

    def test_disjunction_introduction_everywhere(self):
        rng = random.Random(71)
        for _ in range(20):
            assert lifted_valid(parse_formula("a -> a | b"), random_model(rng))

    def test_split_model_refutes_disjunctive_strengthening(self):
        assert lifted_valid(parse_formula("(a | b) -> a"), SPLIT) is False


class TestOutpreLifted:
    def test_direct_input_holds_in_any_model(self):
        rng = random.Random(73)
        for _ in range(20):
            m = random_model(rng, names=("a", "b", "e"))
            assert outpre_member_lifted(TWO_NORMS, A, E, m) is True

    def test_split_model_refutes_disjunctive_input(self):
        assert outpre_member_lifted(TWO_NORMS, Or(A, B), E, SPLIT) is False

    def test_no_norms_no_members(self):
        assert outpre_member_lifted(NormSet(), A, E, SPLIT) is False

    def test_goal_matches_heads_extensionally(self):
        # e and !!e have the same extension, so either counts as a member.
        m = WorldModel(2, {"a": frozenset({0, 1}), "b": frozenset(), "e": frozenset({0})})
        assert outpre_member_lifted(TWO_NORMS, A, parse_formula("!!e"), m) is True


class TestOut1Lifted:
    def test_direct_input_holds_in_any_model(self):
        rng = random.Random(79)
        for _ in range(20):
            m = random_model(rng, names=("a", "b", "e"))
            assert out1_member_lifted(TWO_NORMS, A, E, m) is True

    def test_split_model_refutes_disjunctive_input(self):
        assert out1_member_lifted(TWO_NORMS, Or(A, B), E, SPLIT) is False

    def test_tautology_disjunct_holds_without_norms(self):
        assert out1_member_lifted(NormSet(), A, parse_formula("true"), SPLIT) is True


class TestWorldSetInvariance:
    """A lifted verdict depends only on the set of valuations the worlds carry; the
    countermodel search rests on this."""

    @pytest.mark.parametrize("member", [outpre_member_lifted, out1_member_lifted])
    def test_deduplicating_and_permuting_worlds_keeps_the_verdict(self, member):
        rng = random.Random(107)
        for _ in range(200):
            ns = random_norm_set(rng, depth=2)
            a, x = random_formula(rng, depth=2), random_formula(rng, depth=2)
            # Five worlds over three atoms' eight valuations: repeats are common.
            model = WorldModel(5, {n: {w for w in range(5) if rng.random() < 0.5} for n in "abc"})
            carried = {tuple(w in model.extension[n] for n in "abc") for w in model.worlds}
            distinct = rng.sample(sorted(carried), len(carried))
            again = WorldModel(
                len(distinct),
                {n: {w for w, v in enumerate(distinct) if v[k]} for k, n in enumerate("abc")},
            )
            assert member(ns, a, x, again) == member(ns, a, x, model)

    @pytest.mark.parametrize("member", [outpre_member_lifted, out1_member_lifted])
    def test_an_unmapped_query_atom_is_an_error_in_both_modes(self, member):
        # Every formula of the query is evaluated, the body z included, though in
        # pre-output the head a already disagrees with the goal !a at the one world.
        from iolog import UnboundAtomError

        with pytest.raises(UnboundAtomError) as err:
            member(parse_norms("(z, a)"), A, parse_formula("!a"), WorldModel(1, {"a": {0}}))
        assert err.value.atom == "z"


class TestFindCountermodel:
    def test_disjunctive_outpre_query_has_canonical_two_world_model(self):
        query = LiftedQuery(TWO_NORMS, Or(A, B), E, "outpre")
        model = find_countermodel(query, 4)
        assert model == WorldModel(
            2, {"a": frozenset({0}), "b": frozenset({1}), "e": frozenset()}
        )

    def test_direct_outpre_query_has_no_countermodel(self):
        assert find_countermodel(LiftedQuery(TWO_NORMS, A, E, "outpre"), 4) is None

    def test_tautological_goal_has_no_countermodel(self):
        query = LiftedQuery(NormSet(), A, parse_formula("a | !a"), "out1")
        assert find_countermodel(query, 4) is None

    def test_default_budget_rejects_atom_heavy_queries_up_front(self):
        # 25 atoms give one world 2^25 valuations, past the default budget of 2^24
        # sets, before anything is enumerated; 26 overflow the table ceiling,
        # which is checked first, since no budget raises it.
        def query(atoms: int) -> LiftedQuery:
            wide = parse_norms("(" + " & ".join(f"x{i}" for i in range(atoms - 1)) + ", e)")
            return LiftedQuery(wide, parse_formula("true"), parse_formula("true"), "out1")

        with pytest.raises(SearchBudgetError) as err:
            find_countermodel(query(25), 4)
        assert (err.value.world_count, err.value.atom_count, err.value.budget) == (1, 25, 24)
        assert str(err.value) == ("countermodel search at 1 worlds over 25 atoms tests 33554432 "
                                  "sets, exceeding the search budget of 2^24")
        with pytest.raises(AtomLimitError) as refused:
            find_countermodel(query(26), 4)
        assert (refused.value.count, refused.value.limit) == (26, 25)

    @pytest.mark.parametrize("atoms", [12, 13])
    def test_a_one_world_refusal_past_half_the_ceiling_names_one_world(self, atoms):
        """One world over n atoms tests 2^n sets: a budget of n searches it, and refuses
        two worlds, whose C(2^n, 2) sets pass 2^n."""
        wide = parse_norms("(" + " & ".join(f"p{i}" for i in range(atoms - 1)) + ", e)")
        query = LiftedQuery(wide, parse_formula("true"), parse_formula("true"), "out1")
        with pytest.raises(SearchBudgetError) as err:
            find_countermodel(query, 4, budget=atoms - 1)
        assert str(err.value) == (f"countermodel search at 1 worlds over {atoms} atoms tests "
                                  f"{2**atoms} sets, exceeding the search budget of 2^{atoms - 1}")
        with pytest.raises(SearchBudgetError) as err:
            find_countermodel(query, 4, budget=atoms)
        assert err.value.args == (2, atoms, atoms)
        assert find_countermodel(query, 1, budget=atoms) is None

    def test_budget_exceeded_is_an_error_not_absence(self):
        query = LiftedQuery(TWO_NORMS, A, E, "outpre")
        with pytest.raises(SearchBudgetError):
            find_countermodel(query, 4, budget=2)

    def test_budget_is_overridable(self):
        # 4 worlds over 3 atoms test C(8, 4) = 70 sets: more than 2^6, at most 2^7.
        query = LiftedQuery(TWO_NORMS, A, E, "outpre")
        with pytest.raises(SearchBudgetError) as err:
            find_countermodel(query, 4, budget=6)
        assert err.value.args == (4, 3, 6)
        assert find_countermodel(query, 4, budget=7) is None
        assert find_countermodel(query, 4, budget=11) is None

    @pytest.mark.parametrize("bound", [1.5, 2.0, True, "2", 0], ids=repr)
    def test_max_worlds_is_a_positive_int(self, bound):
        query = LiftedQuery(TWO_NORMS, Or(A, B), E, "out1")
        with pytest.raises(ValueError, match="max_worlds"):
            find_countermodel(query, bound)
        with pytest.raises(ValueError, match="max_worlds"):
            lifted_verdict(TWO_NORMS, Or(A, B), E, max_worlds=bound)

    def test_an_atomless_search_stops_after_one_world(self):
        # Running every size up to a million worlds takes minutes.
        query = LiftedQuery(NormSet(), parse_formula("true"), parse_formula("true"), "out1")
        started = time.monotonic()
        assert find_countermodel(query, 10**6) is None
        assert time.monotonic() - started < 1.0

    def test_a_one_atom_search_stops_after_two_worlds(self):
        # One atom has two valuations: no set of three distinct ones is left to test.
        query = LiftedQuery(parse_norms("(a, a)"), A, A, "out1")
        started = time.monotonic()
        assert find_countermodel(query, 30) is None
        assert time.monotonic() - started < 1.0

    def test_lifted_verdict_attaches_countermodel(self):
        verdict = lifted_verdict(TWO_NORMS, Or(A, B), E, max_worlds=4)
        assert verdict.holds is False
        assert verdict.engine == "lifted"
        assert isinstance(verdict.certificate, WorldModel)
        good = lifted_verdict(TWO_NORMS, A, E, max_worlds=4)
        assert good.holds is True
        assert good.certificate is None

    @pytest.mark.parametrize("budget", [24, 1])
    def test_lifted_verdict_checks_the_atom_limit_before_searching(self, budget):
        # Searching 7 atoms x 3 worlds first takes seconds; at budget 1 the search
        # guard would trip too, and the atom limit is still the error reported.
        norms = parse_norms("(d & e & f, g)")
        started = time.monotonic()
        with pytest.raises(AtomLimitError):
            lifted_verdict(norms, parse_formula("a & b & c"), parse_formula("g | !g"),
                           max_worlds=3, budget=budget, atom_limit=5)
        assert time.monotonic() - started < 0.5



def absent_query(atoms: int, mode: str) -> LiftedQuery:
    """The norm (c, c), input c and goal c for c the conjunction of ``atoms`` atoms (true at
    none): no model of any size falsifies it, in either mode."""
    c = " & ".join(f"p{i}" for i in range(atoms)) or "true"
    return LiftedQuery(parse_norms(f"({c}, {c})"), parse_formula(c), parse_formula(c), mode)


class Reached(Exception):
    """The search got to the world count it carries without being refused."""


class TestAdmission:
    """A world count W over n atoms is searched only when its C(2^n, W) sets of distinct
    valuations number at most 2^min(budget, 25), the table ceiling bounding every budget."""

    @staticmethod
    def first_refused(atoms: int, budget: int) -> int | None:
        points = 2**atoms
        return next((w for w in range(1, points + 1)
                     if math.comb(points, w) > 1 << min(budget, 25)), None)

    @pytest.mark.parametrize("mode", ["outpre", "out1"])
    @pytest.mark.parametrize("atoms", range(5))
    def test_the_first_world_count_past_the_budget_is_refused(self, atoms, mode):
        """Below that count the absent search answers None; from it on it is refused.  At
        4 atoms all 16 bounds under all 27 budgets take seconds, so there the bounds are
        one, sixteen and those either side of the first refusal."""
        query, points = absent_query(atoms, mode), 2**atoms
        for budget in range(27):
            first = self.first_refused(atoms, budget)
            bounds = set(range(1, points + 1))
            if atoms == 4:
                bounds = {1, points} | ({first - 1, first} - {0} if first else set())
            for max_worlds in sorted(bounds):
                if first is None or max_worlds < first:
                    assert find_countermodel(query, max_worlds, budget=budget) is None
                    continue
                with pytest.raises(SearchBudgetError) as err:
                    find_countermodel(query, max_worlds, budget=budget)
                assert err.value.args == (first, atoms, min(budget, 25))

    def test_every_size_within_worlds_x_atoms_is_still_searched(self, monkeypatch):
        """The former guard admitted W worlds over n atoms where n x W <= 24, the default
        budget, and past one world only where 2n <= 25.  Each such size still gets past the
        guard under the default budget: one world builds its tables, and past one the search
        tests a set of W valuations, every smaller set reported to hold."""

        def tables(names):
            raise Reached(1)

        def holds(family, sel):
            if bin(sel).count("1") < world_count:
                return True
            raise Reached(bin(sel).count("1"))

        monkeypatch.setattr(iolog.worlds, "_holds", holds)
        for atoms in range(25):
            for world_count in range(1, min(2**atoms, 24 // max(atoms, 1)) + 1):
                if world_count > 1 and 2 * atoms > 25:
                    continue
                with monkeypatch.context() as patch:
                    if world_count == 1:
                        patch.setattr(iolog.entail, "_valuation_masks", tables)
                    with pytest.raises(Reached) as reached:
                        find_countermodel(absent_query(atoms, "out1"), world_count)
                assert reached.value.args == (world_count,)

    @pytest.mark.parametrize("mode", ["outpre", "out1"])
    def test_four_atoms_are_searched_to_sixteen_worlds(self, mode):
        """C(16, 8) = 12870 sets at most, well within the default budget of 2^24; the
        former worlds x atoms guard refused this search at 7 worlds."""
        norms = parse_norms("(a & b, c | d)")
        query = LiftedQuery(norms, parse_formula("a & b"), parse_formula("c | d"), mode)
        assert find_countermodel(query, 16) is None


def all_valuations_model(names):
    """The model whose worlds are exactly the valuations over ``names``."""
    names = sorted(names)
    worlds = list(itertools.product((False, True), repeat=len(names)))
    return WorldModel(
        max(len(worlds), 1),
        {
            name: frozenset(i for i, world in enumerate(worlds) if world[k])
            for k, name in enumerate(names)
        },
    )


class TestCanonicalModelCorrespondence:
    def test_outpre_over_all_valuations_matches_triggered_heads(self):
        rng = random.Random(89)
        for _ in range(60):
            ns = random_norm_set(rng)
            a = random_formula(rng, depth=2)
            y = random_formula(rng, depth=2)
            names = oracle_atoms(a) | oracle_atoms(y) | {"a"}
            for n in ns:
                names |= oracle_atoms(n.body) | oracle_atoms(n.head)
            m = all_valuations_model(names)
            lifted = outpre_member_lifted(ns, a, y, m)
            goal_ext = lifted_extension(y, m)
            semantic = any(
                lifted_extension(h, m) == goal_ext for h in triggered_heads(ns, a)
            )
            assert lifted == semantic


class TestNaiveUnfolding:
    def test_disjunctive_input_wrongly_validates(self):
        assert naive_unfold_valid(TWO_NORMS, Or(A, B), E, "outpre") is True

    def test_direct_input_validates_as_intended(self):
        assert naive_unfold_valid(TWO_NORMS, A, E, "outpre") is True

    def test_unrelated_input_fails_with_a_falsifying_valuation(self):
        ns = parse_norms("(a, e)")
        # The oracle exhibits the witness directly: with a false and b true
        # no norm body is implied, so the unfolding fails at that valuation.
        witnesses = [
            env
            for env in oracle_valuations({"a", "b", "e"})
            if not any(
                ((not oracle_eval(B, env)) or oracle_eval(n.body, env))
                and oracle_eval(E, env) == oracle_eval(n.head, env)
                for n in ns
            )
        ]
        assert any(w["a"] is False and w["b"] is True for w in witnesses)
        assert naive_unfold_valid(ns, B, E, "outpre") is False

    def test_out1_mode_also_wrongly_validates_disjunction(self):
        assert naive_unfold_valid(TWO_NORMS, Or(A, B), E, "out1") is True

    def test_unsoundness_witness_contrasts_with_semantics(self):
        assert naive_unfold_valid(TWO_NORMS, Or(A, B), E, "outpre") is True
        assert E not in triggered_heads(TWO_NORMS, Or(A, B))
        assert is_tautology(parse_formula("((a | b) -> a) | ((a | b) -> b)"))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            naive_unfold_valid(TWO_NORMS, A, E, "out2")

    @pytest.mark.parametrize("mode", ["x", "OUT1", None])
    def test_an_unknown_mode_is_refused_in_the_words_of_a_query(self, mode):
        with pytest.raises(ValueError) as naive:
            naive_unfold_valid(TWO_NORMS, A, E, mode)
        with pytest.raises(ValueError) as query:
            LiftedQuery(TWO_NORMS, A, E, mode)
        assert str(naive.value) == str(query.value) == (
            f"unknown mode {mode!r}; expected 'outpre' or 'out1'"
        )


class TestRendering:
    def test_text_form(self):
        assert render_world_model(SPLIT).splitlines() == [
            "worlds: w0 w1",
            "a = {w1}",
            "b = {w0}",
            "e = {}",
        ]

    def test_structured_form_matches_text_content(self):
        assert world_model_to_dict(SPLIT) == {
            "world_count": 2,
            "worlds": ["w0", "w1"],
            "extension": {"a": ["w1"], "b": ["w0"], "e": []},
        }
