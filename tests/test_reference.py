"""The regression matrix behind ``iolog examples``, row by row."""

import inspect

import pytest

from iolog.reference import run_reference_matrix

# Example -> engine -> the outcome each engine must report.  On the norms
# (a, e), (b, e) every sound engine rejects e from a | b; the naive
# unfolding accepts it, and that recorded unsoundness is the paper's contrast.
EXPECTED = {
    "out1: e from a": dict.fromkeys(("semantic", "derivation", "triple", "lifted", "naive"), True),
    "out1: e from a | b": {
        "semantic": False, "derivation": False, "triple": False, "lifted": False, "naive": True,
    },
    "outpre: e from a": dict.fromkeys(("semantic", "lifted", "naive"), True),
    "outpre: e from a | b": {"semantic": False, "lifted": False, "naive": True},
}
CELLS = [(example, engine) for example, engines in EXPECTED.items() for engine in engines]


@pytest.fixture(scope="module")
def rows():
    return {(row["example"], row["engine"]): row for row in run_reference_matrix()}


def test_takes_no_parameters():
    assert inspect.signature(run_reference_matrix).parameters == {}


def test_rows_come_in_table_order(rows):
    assert list(rows) == CELLS


@pytest.mark.parametrize("example, engine", CELLS)
def test_each_engine_reports_its_expected_outcome(rows, example, engine):
    outcome = EXPECTED[example][engine]
    assert rows[example, engine] == {
        "example": example, "engine": engine, "expected": outcome, "actual": outcome, "ok": True,
    }
    assert list(rows[example, engine]) == ["example", "engine", "expected", "actual", "ok"]
