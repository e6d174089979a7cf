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
from .entail import _DEFAULT_MAX_WORLDS
from .formula import Formula, parse_formula
from .norms import Norm, parse_norms

__all__ = ["REFERENCE_NORMS", "run_reference_matrix"]

REFERENCE_NORMS = parse_norms("(a, e)\n(b, e)")

# Each mode's engines, in the matrix's row order.
_ENGINES = {
    "out1": ("semantic", "derivation", "triple", "lifted", "naive"),
    "outpre": ("semantic", "lifted", "naive"),
}


def _decide(engine: str, mode: str, input: Formula, goal: Formula) -> bool:
    # Engines are looked up on their modules at call time, so the matrix
    # checks whatever those modules hold.
    norms = REFERENCE_NORMS
    if engine == "semantic":
        return output._semantic_holds(norms, input, goal, mode)
    if engine == "derivation":
        cert = derivation.construct_derivation(norms, input, goal)
        return cert is not None and derivation.check_derivation(norms, cert, Norm(input, goal))
    if engine == "triple":
        return output.out1_triple_approx(norms, input, goal).holds
    if engine == "lifted":
        query = worlds.LiftedQuery(norms, input, goal, mode)
        return worlds.find_countermodel(query, _DEFAULT_MAX_WORLDS) is None
    return worlds.naive_unfold_valid(norms, input, goal, mode)


def run_reference_matrix() -> list[dict]:
    """Run every engine on the canonical queries and compare with expectations.

    Each row is a record of the ``examples`` report: its ``example``,
    ``engine``, ``expected`` and ``actual`` outcomes, and whether they agree.
    """
    goal, rows = parse_formula("e"), []
    for mode, engines in _ENGINES.items():
        for input, sound in ((parse_formula("a"), True), (parse_formula("a | b"), False)):
            for engine in engines:
                # The naive unfolding is expected to say "valid" even on the
                # disjunctive input; that recorded unsoundness is part of the matrix.
                expected = sound or engine == "naive"
                actual = _decide(engine, mode, input, goal)
                rows.append({"example": f"{mode}: e from {input}", "engine": engine,
                             "expected": expected, "actual": actual, "ok": expected == actual})
    return rows
