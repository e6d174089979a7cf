"""Built-in regression matrix over the canonical two-norm example.

With norms (a, e) and (b, e), the direct input ``a`` makes ``e``
obligatory while the disjunctive input ``a | b`` must not: it entails
neither body, so nothing is triggered.  Every sound engine agrees on
both queries, at the pre-output and the output level; the naive Boolean
unfolding is the lone dissenter, wrongly validating the disjunctive
cases.  The matrix freezes all of those expectations so a regression in
any engine shows up as a mismatch.
"""

from __future__ import annotations

from . import derivation, output, worlds
from .entail import DEFAULT_ATOM_LIMIT
from .formula import Formula, _Value, parse_formula
from .norms import Norm, NormSet, parse_norms

__all__ = ["REFERENCE_NORMS", "MatrixRow", "run_reference_matrix"]

REFERENCE_NORMS = parse_norms("(a, e)\n(b, e)")


class MatrixRow(_Value):
    __slots__ = ("example", "engine", "expected", "actual")

    def __init__(self, example: str, engine: str, expected: bool, actual: bool):
        object.__setattr__(self, "example", example)
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def _derivation_holds(norms: NormSet, input: Formula, goal: Formula, atom_limit: int) -> bool:
    cert = derivation.construct_derivation(norms, input, goal, atom_limit=atom_limit)
    return cert is not None and derivation.check_derivation(
        norms, cert, Norm(input, goal), atom_limit=atom_limit
    )


def run_reference_matrix(
    *, max_worlds: int = 4, atom_limit: int = DEFAULT_ATOM_LIMIT
) -> list[MatrixRow]:
    """Run every engine on the canonical queries and compare with expectations."""
    norms, goal, limit = REFERENCE_NORMS, parse_formula("e"), {"atom_limit": atom_limit}

    def lifted(mode: str):
        return lambda input: (
            worlds.find_countermodel(worlds.LiftedQuery(norms, input, goal, mode), max_worlds) is None
        )

    def naive(mode: str):
        return lambda input: worlds.naive_unfold_valid(norms, input, goal, mode, **limit)

    # Mode -> engine -> decider.  Engines are looked up on their modules at
    # call time, so the matrix checks whatever those modules hold.
    table = {
        "out1": {
            "semantic": lambda input: output.out1_member(norms, input, goal, **limit).holds,
            "derivation": lambda input: _derivation_holds(norms, input, goal, atom_limit),
            "triple": lambda input: output.out1_triple_approx(norms, input, goal, **limit).holds,
            "lifted": lifted("out1"),
            "naive": naive("out1"),
        },
        "outpre": {
            "semantic": lambda input: goal in output.triggered_heads(norms, input, **limit),
            "lifted": lifted("outpre"),
            "naive": naive("outpre"),
        },
    }
    rows = []
    for mode, engines in table.items():
        for input, sound in ((parse_formula("a"), True), (parse_formula("a | b"), False)):
            for engine, decide in engines.items():
                # The naive unfolding is expected to say "valid" even on the
                # disjunctive input; that recorded unsoundness is part of the matrix.
                expected = sound or engine == "naive"
                rows.append(MatrixRow(f"{mode}: e from {input}", engine, expected, decide(input)))
    return rows
