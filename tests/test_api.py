"""The public surface: ``iolog.__all__`` is the union of the six layers' ``__all__``,
and every entry point that takes a guard checks it."""

import pytest

import iolog
from iolog import derivation, entail, formula, norms, output, worlds

LAYERS = (formula, norms, entail, output, derivation, worlds)

PUBLIC_NAMES = [
    "AND",
    "And",
    "Atom",
    "AtomLimitError",
    "AxiomLeaf",
    "BOTTOM",
    "Bottom",
    "CheckFailure",
    "DEFAULT_ATOM_LIMIT",
    "DEFAULT_SEARCH_BUDGET",
    "Derivation",
    "Formula",
    "FormulaSyntaxError",
    "Implies",
    "LiftedQuery",
    "Norm",
    "NormSet",
    "NormSyntaxError",
    "Not",
    "Or",
    "SO",
    "SearchBudgetError",
    "TOP",
    "Top",
    "TopIntro",
    "UnboundAtomError",
    "Valuation",
    "Verdict",
    "WI",
    "WorldModel",
    "atoms",
    "check_derivation",
    "conclusion",
    "construct_derivation",
    "counterexample_valuation",
    "derivation_from_dict",
    "derivation_to_dict",
    "derive_verdict",
    "entails",
    "eval_formula",
    "find_countermodel",
    "is_tautology",
    "lifted_extension",
    "lifted_valid",
    "lifted_verdict",
    "load_norms",
    "naive_unfold_valid",
    "out1_member",
    "out1_member_lifted",
    "out1_member_multi",
    "out1_triple_approx",
    "outpre_member_lifted",
    "parse_formula",
    "parse_norm",
    "parse_norms",
    "print_formula",
    "render_derivation",
    "render_norm",
    "render_world_model",
    "source_ordered_heads",
    "triggered_heads",
    "verify_derivation",
    "world_model_to_dict",
]


def test_the_public_names_are_pinned():
    assert sorted(iolog.__all__) == PUBLIC_NAMES


def test_no_name_is_listed_twice():
    assert len(iolog.__all__) == len(set(iolog.__all__))


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from iolog import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES


def test_each_name_is_the_object_its_layer_defines():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(iolog, name) is getattr(layer, name), (layer.__name__, name)
    assert sum(len(layer.__all__) for layer in LAYERS) == len(PUBLIC_NAMES)


G = iolog.parse_norms("(a, e)\n(b, e)")
A, E = iolog.Atom("a"), iolog.Atom("e")
LEAF = iolog.AxiomLeaf(iolog.Norm(A, E))
# Each entry point that takes a guard, as a call given only that guard.
GUARDED = {
    "atom_limit": {
        "entails": lambda **g: iolog.entails([A], E, **g),
        "counterexample_valuation": lambda **g: iolog.counterexample_valuation([A], E, **g),
        "is_tautology": lambda **g: iolog.is_tautology(E, **g),
        "triggered_heads over no norms": lambda **g: iolog.triggered_heads(iolog.NormSet(), A, **g),
        "out1_member": lambda **g: iolog.out1_member(G, A, E, **g),
        "out1_member_multi": lambda **g: iolog.out1_member_multi(G, [A], E, **g),
        "out1_triple_approx": lambda **g: iolog.out1_triple_approx(G, A, E, **g),
        "derive_verdict": lambda **g: iolog.derive_verdict(G, A, E, **g),
        "construct_derivation": lambda **g: iolog.construct_derivation(G, A, E, **g),
        "verify_derivation of a leaf": lambda **g: iolog.verify_derivation(G, LEAF, LEAF.norm, **g),
        "check_derivation of a leaf": lambda **g: iolog.check_derivation(G, LEAF, LEAF.norm, **g),
        "lifted_verdict": lambda **g: iolog.lifted_verdict(G, A, E, **g),
        "naive_unfold_valid": lambda **g: iolog.naive_unfold_valid(G, A, E, "out1", **g),
    },
    "budget": {
        "find_countermodel": lambda **g: iolog.find_countermodel(
            iolog.LiftedQuery(G, A, E, "out1"), 4, **g
        ),
        "lifted_verdict": lambda **g: iolog.lifted_verdict(G, A, E, **g),
    },
    "max_worlds": {
        "find_countermodel": lambda **g: iolog.find_countermodel(
            iolog.LiftedQuery(G, A, E, "out1"), **g
        ),
        "lifted_verdict": lambda **g: iolog.lifted_verdict(G, A, E, **g),
    },
}
CASES = [(guard, name) for guard, calls in GUARDED.items() for name in calls]


class TestGuards:
    """The atom limit and the search budget are ints of at least 0, and ``max_worlds`` an
    int of at least 1: a bool, a float or a string is refused, even where it would compare
    as a number."""

    @pytest.mark.parametrize("guard, name", CASES, ids=str)
    @pytest.mark.parametrize("value", [True, False, 2.5, 2.0, "2", None], ids=repr)
    def test_a_guard_that_is_not_an_int_is_refused(self, guard, name, value):
        with pytest.raises(ValueError, match=f"{guard} must be an int, at least"):
            GUARDED[guard][name](**{guard: value})

    @pytest.mark.parametrize("guard, name", CASES, ids=str)
    def test_the_least_value_is_accepted_and_one_less_refused(self, guard, name):
        """0 bounds an atom limit or a budget to atomless work; a search needs a world."""
        least = 1 if guard == "max_worlds" else 0
        with pytest.raises(ValueError, match=f"{guard} must be an int, at least {least}"):
            GUARDED[guard][name](**{guard: least - 1})
        try:
            GUARDED[guard][name](**{guard: least})
        except (iolog.AtomLimitError, iolog.SearchBudgetError):
            pass

    def test_an_atomless_query_runs_within_zero(self):
        assert iolog.is_tautology(iolog.TOP, atom_limit=0)
        query = iolog.LiftedQuery(iolog.NormSet(), iolog.TOP, iolog.TOP, "out1")
        assert iolog.find_countermodel(query, 1, budget=0) is None
