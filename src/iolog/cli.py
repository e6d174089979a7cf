"""Command-line front end: membership checks, countermodel search, the naive
unfolding, and the built-in regression matrix.

Exit codes are uniform across subcommands: 0 for a positive answer
(membership holds / countermodel found / unfolding valid / matrix
matches), 1 for the negative answer, 2 for configuration or input
errors.  With ``--format structured`` each run prints a single JSON
document; identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import reference
from .derivation import derive_verdict, render_derivation, derivation_to_dict
from .entail import DEFAULT_ATOM_LIMIT, AtomLimitError, UnboundAtomError
from .formula import Formula, FormulaSyntaxError, parse_formula, print_formula
from .norms import NormSet, NormSyntaxError, load_norms, render_norm
from .output import (
    Verdict,
    out1_member,
    out1_triple_approx,
    source_ordered_heads,
    triggered_heads,
)
from .worlds import (
    DEFAULT_SEARCH_BUDGET,
    LiftedQuery,
    SearchBudgetError,
    WorldModel,
    find_countermodel,
    lifted_verdict,
    naive_unfold_valid,
    render_world_model,
    world_model_to_dict,
)

__all__ = ["main"]


class CliError(Exception):
    """Bad flag or environment configuration."""


def _atom_limit(args: argparse.Namespace) -> int:
    if args.atom_limit is not None:
        limit = args.atom_limit
    else:
        raw = os.environ.get("IOLOG_ATOM_LIMIT")
        if raw is None:
            return DEFAULT_ATOM_LIMIT
        try:
            limit = int(raw)
        except ValueError:
            raise CliError(f"IOLOG_ATOM_LIMIT must be an integer, got {raw!r}") from None
    if limit < 1:
        raise CliError("the atom limit must be positive")
    return limit


def _max_worlds(args: argparse.Namespace) -> int:
    if args.max_worlds < 1:
        raise CliError("--max-worlds must be positive")
    return args.max_worlds


def _query_doc(norms: NormSet, input: Formula, goal: Formula, operation: str) -> dict:
    return {
        "norms": [render_norm(n) for n in norms],
        "input": print_formula(input),
        "goal": print_formula(goal),
        "operation": operation,
    }


def _triggered_list(norms: NormSet, verdict: Verdict) -> list[str]:
    return [print_formula(h) for h in source_ordered_heads(norms, verdict.triggered)]


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _check_report(
    form: str, norms: NormSet, input: Formula, goal: Formula, verdict: Verdict
) -> str:
    """The whole report of a ``check`` run, built before any of it is printed."""
    triggered = _triggered_list(norms, verdict)
    derivation = verdict.certificate if verdict.engine == "derivation" else None
    model = verdict.certificate if isinstance(verdict.certificate, WorldModel) else None
    if form == "structured":
        doc = {
            "query": _query_doc(norms, input, goal, "out1"),
            "engine": verdict.engine,
            "holds": verdict.holds,
            "triggered": triggered,
        }
        if derivation is not None:
            doc["certificate"] = derivation_to_dict(derivation)
        if model is not None:
            doc["countermodel"] = world_model_to_dict(model)
        return json.dumps(doc, indent=2)
    lines = [
        f"norms: {', '.join(render_norm(n) for n in norms) or '(none)'}",
        f"input: {print_formula(input)}",
        f"goal: {print_formula(goal)}",
        f"engine: {verdict.engine}",
        f"triggered: {', '.join(triggered) or '(none)'}",
        f"holds: {'yes' if verdict.holds else 'no'}",
    ]
    if derivation is not None:
        lines += ["certificate:", render_derivation(derivation)]
    if model is not None:
        lines += ["countermodel:", render_world_model(model)]
    return "\n".join(lines)


def _cmd_check(args: argparse.Namespace) -> int:
    atom_limit = _atom_limit(args)
    norms = load_norms(args.norms)
    input = parse_formula(args.input)
    goal = parse_formula(args.goal)

    if args.engine == "semantic":
        verdict = out1_member(norms, input, goal, atom_limit=atom_limit)
    elif args.engine == "triple":
        verdict = out1_triple_approx(norms, input, goal, atom_limit=atom_limit)
    elif args.engine == "derivation":
        verdict = derive_verdict(norms, input, goal, atom_limit=atom_limit)
    else:
        verdict = lifted_verdict(
            norms, input, goal, max_worlds=_max_worlds(args), atom_limit=atom_limit
        )

    try:  # a certificate of a few hundred triggered norms overflows the recursive printers
        report = _check_report(args.format, norms, input, goal, verdict)
    except RecursionError:
        raise CliError("the certificate is nested too deeply to render") from None
    print(report)
    return 0 if verdict.holds else 1


def _cmd_countermodel(args: argparse.Namespace) -> int:
    _atom_limit(args)  # validated for parity; the lifted search needs no limit
    norms = load_norms(args.norms)
    input = parse_formula(args.input)
    goal = parse_formula(args.goal)
    max_worlds = _max_worlds(args)
    if args.budget < 1:
        raise CliError("--budget must be positive")

    query = LiftedQuery(norms, input, goal, args.mode)
    model = find_countermodel(query, max_worlds, budget=args.budget)

    if args.format == "structured":
        doc = {
            "query": _query_doc(norms, input, goal, args.mode),
            "engine": "lifted",
            "holds": model is None,
            "max_worlds": max_worlds,
        }
        if model is not None:
            doc["countermodel"] = world_model_to_dict(model)
        _emit(doc)
    else:
        if model is None:
            print(f"no countermodel up to {max_worlds} worlds")
        else:
            print(f"countermodel found at {model.world_count} worlds:")
            print(render_world_model(model))
    return 1 if model is None else 0


def _cmd_naive(args: argparse.Namespace) -> int:
    atom_limit = _atom_limit(args)
    norms = load_norms(args.norms)
    input = parse_formula(args.input)
    goal = parse_formula(args.goal)

    naive = naive_unfold_valid(norms, input, goal, args.mode, atom_limit=atom_limit)
    if args.mode == "out1":
        semantic = out1_member(norms, input, goal, atom_limit=atom_limit).holds
    else:
        semantic = goal in triggered_heads(norms, input, atom_limit=atom_limit)
    disagree = naive != semantic

    if args.format == "structured":
        _emit(
            {
                "query": _query_doc(norms, input, goal, args.mode),
                "engine": "naive",
                "holds": naive,
                "contrast": {"semantic_holds": semantic, "disagreement": disagree},
            }
        )
    else:
        print(f"naive unfolding: {'valid' if naive else 'not valid'}")
        print(f"semantic engine: {'holds' if semantic else 'does not hold'}")
        if disagree:
            print("UNSOUND ENCODING WITNESS: the naive unfolding disagrees with the semantics")
        else:
            print("verdicts agree")
    return 0 if naive else 1


def _cmd_examples(args: argparse.Namespace) -> int:
    atom_limit = _atom_limit(args)
    rows = reference.run_reference_matrix(max_worlds=_max_worlds(args), atom_limit=atom_limit)
    mismatches = [row for row in rows if not row.ok]

    if args.format == "structured":
        _emit(
            {
                "rows": [
                    {
                        "example": row.example,
                        "engine": row.engine,
                        "expected": row.expected,
                        "actual": row.actual,
                        "ok": row.ok,
                    }
                    for row in rows
                ],
                "mismatches": len(mismatches),
            }
        )
    else:
        for row in rows:
            status = "ok" if row.ok else "MISMATCH"
            print(
                f"{row.example:24} engine={row.engine:10} "
                f"expected={str(row.expected):5} actual={str(row.actual):5} {status}"
            )
        if mismatches:
            print(f"{len(mismatches)} mismatch(es)")
        else:
            print("all outcomes match")
    return 1 if mismatches else 0


def _add_common(parser: argparse.ArgumentParser, *, with_query: bool = True) -> None:
    if with_query:
        parser.add_argument("--norms", required=True, help="path to the norm-set file")
        parser.add_argument("--input", required=True, help="input situation formula")
        parser.add_argument("--goal", required=True, help="candidate output formula")
    parser.add_argument(
        "--atom-limit",
        type=int,
        default=None,
        metavar="N",
        help=f"atom limit for entailment queries (default {DEFAULT_ATOM_LIMIT}; "
        "IOLOG_ATOM_LIMIT overrides the default)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report format (structured = one JSON document)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iolog",
        description="Decide norm-conditioned obligations, search countermodels, "
        "and demonstrate the unsound naive encoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide whether the goal is an output for the input")
    _add_common(check)
    check.add_argument(
        "--engine",
        choices=("semantic", "derivation", "triple", "lifted"),
        default="semantic",
        help="which engine decides membership",
    )
    check.add_argument(
        "--max-worlds", type=int, default=4, metavar="N", help="search bound for engine=lifted"
    )
    check.set_defaults(func=_cmd_check)

    counter = sub.add_parser("countermodel", help="search for a finite countermodel")
    _add_common(counter)
    counter.add_argument("--mode", choices=("outpre", "out1"), default="out1")
    counter.add_argument("--max-worlds", type=int, default=4, metavar="N")
    counter.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_SEARCH_BUDGET,
        metavar="N",
        help="guard on worlds x atoms before a size is enumerated",
    )
    counter.set_defaults(func=_cmd_countermodel)

    naive = sub.add_parser(
        "naive", help="classical validity of the naive Boolean unfolding, with contrast"
    )
    _add_common(naive)
    naive.add_argument("--mode", choices=("outpre", "out1"), default="out1")
    naive.set_defaults(func=_cmd_naive)

    examples = sub.add_parser("examples", help="run the built-in regression matrix")
    _add_common(examples, with_query=False)
    examples.add_argument("--max-worlds", type=int, default=4, metavar="N")
    examples.set_defaults(func=_cmd_examples)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        FormulaSyntaxError,
        NormSyntaxError,
        AtomLimitError,
        UnboundAtomError,
        SearchBudgetError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
