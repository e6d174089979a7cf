"""iolog's errors: each keeps its fields in ``args``, pickles by them, and exits 2 in the CLI."""

import functools
import importlib
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import iolog
import iolog.cli
from iolog import (
    AtomLimitError,
    FormulaSyntaxError,
    LiftedQuery,
    NormSyntaxError,
    SearchBudgetError,
    UnboundAtomError,
    entails,
    eval_formula,
    find_countermodel,
    out1_member,
    parse_formula,
    parse_norms,
)
from iolog.cli import main
from iolog.formula import _Error

E = parse_formula("e")
THIRTEEN = LiftedQuery(  # holds at one world, and two test C(2^13, 2) sets, past 2^24
    parse_norms("(a, e)"), parse_formula(" & ".join(["a", *(f"x{i}" for i in range(11))])), E,
    "out1",
)

RAISED = {  # each error as the library raises it, and its fields
    FormulaSyntaxError: (lambda: parse_formula("a ||"), ("position", "reason")),
    NormSyntaxError: (lambda: parse_norms("(a, e)\n(a, b||c)"), ("line", "reason")),
    UnboundAtomError: (lambda: eval_formula(parse_formula("x"), {}), ("atom",)),
    AtomLimitError: (lambda: entails([parse_formula("a & b")], E, atom_limit=2),
                     ("count", "limit")),
    SearchBudgetError: (lambda: find_countermodel(THIRTEEN, 4),
                        ("world_count", "atom_count", "budget")),
}


def raised(cls):
    with pytest.raises(cls) as caught:
        RAISED[cls][0]()
    return caught.value


def error_classes() -> list[type]:
    """Every subclass of ``_Error`` that the six layers define."""
    for layer in iolog._LAYERS:
        importlib.import_module(f"iolog.{layer}")
    found, bases = [], [_Error]
    while bases:
        for cls in bases.pop().__subclasses__():
            bases.append(cls)
            if cls.__module__.startswith("iolog."):
                found.append(cls)
    return found


@pytest.mark.parametrize("cls", list(RAISED), ids=lambda cls: cls.__name__)
def test_each_error_pickles_by_its_fields(cls):
    error = raised(cls)
    fields = RAISED[cls][1]
    assert error.args == tuple(getattr(error, name) for name in fields)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert [getattr(back, name) for name in fields] == [getattr(error, name) for name in fields]
    assert (back.args, str(back), repr(back)) == (error.args, str(error), repr(error))


def test_an_error_reprs_by_its_fields():
    assert repr(AtomLimitError(26, 25)) == "AtomLimitError(26, 25)"
    assert str(UnboundAtomError("x")) == "atom 'x' is not mapped"


def test_each_error_keeps_its_builtin_base_and_module():
    bases = {
        FormulaSyntaxError: (ValueError, "iolog.formula"),
        NormSyntaxError: (ValueError, "iolog.norms"),
        UnboundAtomError: (LookupError, "iolog.entail"),
        AtomLimitError: (ValueError, "iolog.entail"),
        SearchBudgetError: (RuntimeError, "iolog.entail"),
    }
    for cls, (base, module) in bases.items():
        assert issubclass(cls, base) and issubclass(cls, _Error) and cls.__module__ == module


def test_a_refusal_crosses_a_process_pool():
    """A worker's refusal reaches the caller as itself, not as a broken pool."""
    task = functools.partial(
        out1_member, parse_norms("(a & b & c, e)"), parse_formula("a & b & c"), E, atom_limit=1
    )
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        future = pool.submit(task)
        with pytest.raises(AtomLimitError) as caught:
            future.result(timeout=120)
    assert (caught.value.count, caught.value.limit) == (3, 1)


def test_the_six_layers_define_the_five_errors():
    assert set(RAISED) <= set(error_classes())


@pytest.mark.parametrize("cls", error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_exits_two_with_one_line(cls, tmp_path, monkeypatch, capsys):
    """Each error class exits 2 through the CLI's one catch, not only those it names."""
    error = cls(*range(1, len(cls._fields) + 1))

    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(iolog.cli, "out1_member", refuse)
    path = tmp_path / "norms.txt"
    path.write_text("(a, e)\n", encoding="utf-8")
    assert main(["check", "--norms", str(path), "--input", "a", "--goal", "e"]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert "\n" not in str(error)
