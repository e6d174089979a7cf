"""The table ceiling: no bound admits a truth table over more atoms than it.

Every table is built by ``entail._Tables`` through ``_valuation_masks``.
Each public entry point is run here on a query past the ceiling, with its
bounds raised far above it, while ``_valuation_masks`` fails on any call
over more names than the ceiling: the refusal must come first.
"""

import time

import pytest

import iolog.cli
import iolog.derivation
import iolog.entail
import iolog.formula
import iolog.norms
import iolog.output
import iolog.reference
import iolog.worlds
from iolog import (
    SO,
    TOP,
    AtomLimitError,
    LiftedQuery,
    Norm,
    NormSet,
    SearchBudgetError,
    TopIntro,
    counterexample_valuation,
    derive_verdict,
    entails,
    find_countermodel,
    lifted_verdict,
    naive_unfold_valid,
    out1_member,
    out1_triple_approx,
    parse_formula,
    parse_norms,
)
from iolog.entail import _TABLE_CEILING, _valuation_masks

WIDE_TEXT = " & ".join(f"x{i}" for i in range(30))  # 30 atoms, past the ceiling
WIDE, A, E = parse_formula(WIDE_TEXT), parse_formula("a"), parse_formula("e")
TRIGGERED_WIDE = parse_norms(f"(a, {WIDE_TEXT})")  # input a triggers a 30-atom head
WIDE_BODY = parse_norms(f"({WIDE_TEXT}, e)")  # input a entails no 31-atom body
HIGH = {"atom_limit": 64}
LAYERS = [iolog.cli, iolog.derivation, iolog.entail, iolog.formula, iolog.norms, iolog.output,
          iolog.reference, iolog.worlds]


class NoTablePastTheCeiling(AssertionError):
    pass


@pytest.fixture(autouse=True)
def no_table_past_the_ceiling(monkeypatch):
    def guarded(names):
        if len(names) > _TABLE_CEILING:
            raise NoTablePastTheCeiling(f"a table over {len(names)} atoms was built")
        return _valuation_masks(names)

    monkeypatch.setattr(iolog.entail, "_valuation_masks", guarded)
    for module in LAYERS:  # a layer that imported it by name is guarded too
        if hasattr(module, "_valuation_masks"):
            monkeypatch.setattr(module, "_valuation_masks", guarded)


def test_only_the_tables_build_valuation_masks():
    assert [m.__name__ for m in LAYERS if hasattr(m, "_valuation_masks")] == ["iolog.entail"]


def refused(call, error=AtomLimitError):
    with pytest.raises(error) as err:
        call()
    assert "table ceiling" in str(err.value)
    return err.value


REFUSED = {
    "entails": lambda: entails([WIDE], E, **HIGH),
    "counterexample_valuation": lambda: counterexample_valuation([WIDE], E, **HIGH),
    "out1_member": lambda: out1_member(WIDE_BODY, A, E, **HIGH),
    "out1_member, heads": lambda: out1_member(TRIGGERED_WIDE, A, E, **HIGH),
    "out1_triple_approx": lambda: out1_triple_approx(WIDE_BODY, A, E, **HIGH),
    "out1_triple_approx, triples": lambda: out1_triple_approx(TRIGGERED_WIDE, A, E, **HIGH),
    "derive_verdict": lambda: derive_verdict(TRIGGERED_WIDE, A, E, **HIGH),
    "verify_derivation": lambda: iolog.verify_derivation(
        NormSet(), SO(TopIntro(), WIDE), Norm(TOP, WIDE), **HIGH),
    "naive_unfold_valid": lambda: naive_unfold_valid(TRIGGERED_WIDE, A, E, "out1", **HIGH),
    "find_countermodel": lambda: find_countermodel(
        LiftedQuery(TRIGGERED_WIDE, A, E, "out1"), 4, budget=100),
    "lifted_verdict": lambda: lifted_verdict(WIDE_BODY, A, E, budget=100, **HIGH),
    "lifted_verdict, search": lambda: lifted_verdict(
        parse_norms("(a, e)"), A, WIDE, budget=100, **HIGH),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED)
def test_each_entry_point_refuses_before_building_a_table(call):
    error = refused(call)
    assert error.limit == _TABLE_CEILING and error.count > _TABLE_CEILING


@pytest.mark.parametrize("call", [REFUSED["out1_member"], REFUSED["out1_triple_approx, triples"]],
                         ids=["out1_member", "out1_triple_approx"])
def test_shared_tables_are_refused_too(call, monkeypatch):
    """With sharing widened past the ceiling, the shared set of tables is refused."""
    monkeypatch.setattr(iolog.entail, "_JOINT_ATOMS", 64)
    assert refused(call).count == 32


def test_a_limit_at_or_past_the_ceiling_refuses_at_the_ceiling():
    for limit in (_TABLE_CEILING, _TABLE_CEILING + 1, 10**6):
        assert refused(lambda: entails([WIDE], E, atom_limit=limit)).count == 31


def test_a_lower_limit_is_named_as_before():
    with pytest.raises(AtomLimitError) as err:
        entails([WIDE], E)
    assert str(err.value) == "query involves 31 atoms, exceeding the atom limit of 16"


def test_a_table_at_the_ceiling_is_built(monkeypatch):
    """At the ceiling itself the table is still built: the probe stands in for it."""
    built = []

    def probe(names):
        built.append(len(names))
        raise NoTablePastTheCeiling

    monkeypatch.setattr(iolog.entail, "_valuation_masks", probe)
    ceiling = parse_formula(" & ".join(f"x{i}" for i in range(_TABLE_CEILING - 1)))
    with pytest.raises(NoTablePastTheCeiling):
        entails([ceiling], E, atom_limit=_TABLE_CEILING)
    with pytest.raises(NoTablePastTheCeiling):
        find_countermodel(LiftedQuery(NormSet(), ceiling, E, "out1"), 1, budget=100)
    assert built == [_TABLE_CEILING, _TABLE_CEILING]


def wide_absent_search(atoms: int) -> LiftedQuery:
    """The norm (x00, e), the input x00 & ... and the goal e: no countermodel at any size."""
    input = parse_formula(" & ".join(f"x{i:02d}" for i in range(atoms - 1)))
    return LiftedQuery(parse_norms("(x00, e)"), input, E, "out1")


class TestOneBitMasks:
    """Past one world the search lists 2^n one-bit masks of up to 2^n bits.  Whatever the
    budget, it refuses two worlds where their C(2^n, 2) sets pass 2^25, the table ceiling,
    that is past 13 atoms, before the family or the list is built."""

    @pytest.fixture(autouse=True)
    def no_family(self, monkeypatch):
        def family(*args):
            raise NoTablePastTheCeiling("the witness family was built")

        monkeypatch.setattr(iolog.worlds, "_witnesses", family)

    def test_an_18_atom_search_is_refused_at_two_worlds_within_a_second(self):
        started = time.monotonic()
        error = refused(lambda: find_countermodel(wide_absent_search(18), 4, budget=100),
                        SearchBudgetError)
        assert time.monotonic() - started < 1.0
        assert (error.world_count, error.atom_count, error.budget) == (2, 18, _TABLE_CEILING)
        assert str(error) == (
            "countermodel search at 2 worlds over 18 atoms tests 34359607296 sets, "
            "exceeding the table ceiling of 2^25"
        )

    def test_the_widest_search_past_one_world_goes_on(self):
        with pytest.raises(NoTablePastTheCeiling, match="family"):
            find_countermodel(wide_absent_search(13), 2, budget=100)
        error = refused(lambda: find_countermodel(wide_absent_search(14), 2, budget=100),
                        SearchBudgetError)
        assert error.args == (2, 14, _TABLE_CEILING)

    def test_one_world_needs_no_list(self):
        assert find_countermodel(wide_absent_search(18), 1, budget=100) is None
