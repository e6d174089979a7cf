"""The public surface: ``iolog.__all__`` is the union of the six layers' ``__all__``."""

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
