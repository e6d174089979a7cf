"""Command-line front end: membership checks, countermodel search, the naive
unfolding, and the built-in regression matrix.

Exit codes are uniform across subcommands: 0 for a positive answer
(membership holds / countermodel found / unfolding valid / matrix
matches), 1 for the negative answer, 2 for configuration or input
errors.  Each subcommand builds one report, a JSON document: ``--format
structured`` prints it as is and ``--format text`` renders it as lines,
so both carry the same content.  Identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from functools import partial
from typing import Sequence

# Only the layers every subcommand uses load here; the others are imported
# where a subcommand or engine needs them, so a run loads no layer it does not use.
from .entail import _DEFAULT_MAX_WORLDS, _TABLE_CEILING, DEFAULT_ATOM_LIMIT, DEFAULT_SEARCH_BUDGET
from .formula import Formula, _Error, parse_formula, print_formula
from .norms import NormSet, load_norms, render_norm
from .output import _semantic_holds, out1_member, out1_triple_approx, source_ordered_heads

__all__ = ["main"]


def _bound(text: str) -> int:
    """The type of every bound flag: an integer of at least 1, else argparse's usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_BOUNDS = {  # each bound flag's default and help
    "--atom-limit": (DEFAULT_ATOM_LIMIT, "most distinct atoms an entailment may involve; "
                     f"whatever the limit, no table spans more than {_TABLE_CEILING}"),
    "--max-worlds": (_DEFAULT_MAX_WORLDS, "largest world count the countermodel search tries"),
    "--budget": (DEFAULT_SEARCH_BUDGET, "a world count is searched only if it tests at most "
                 f"2^N sets of valuations; whatever the budget, at most 2^{_TABLE_CEILING}"),
}


def _query(args: argparse.Namespace) -> tuple[NormSet, Formula, Formula]:
    return load_norms(args.norms), parse_formula(args.input), parse_formula(args.goal)


def _query_doc(norms: NormSet, input: Formula, goal: Formula, operation: str) -> dict:
    return {
        "norms": [render_norm(n) for n in norms],
        "input": print_formula(input),
        "goal": print_formula(goal),
        "operation": operation,
    }


def _engine(name: str, max_worlds: int):
    """``check --engine name``'s decider, and the report key and writer of its certificate."""
    if name == "derivation":
        from .derivation import derivation_to_dict, derive_verdict
        return derive_verdict, "certificate", derivation_to_dict
    if name == "lifted":
        from .worlds import lifted_verdict, world_model_to_dict
        return partial(lifted_verdict, max_worlds=max_worlds), "countermodel", world_model_to_dict
    return {"semantic": out1_member, "triple": out1_triple_approx}[name], None, None


def _cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    norms, input, goal = _query(args)
    decide, key, write = _engine(args.engine, args.max_worlds)
    verdict = decide(norms, input, goal, atom_limit=args.atom_limit)

    report = {
        "query": _query_doc(norms, input, goal, "out1"),
        "engine": verdict.engine,
        "holds": verdict.holds,
        "triggered": [print_formula(h) for h in source_ordered_heads(norms, verdict.triggered)],
    }
    if key and verdict.certificate is not None:
        report[key] = write(verdict.certificate)
    return report, 0 if verdict.holds else 1


def _check_text(report: dict) -> list[str]:
    query = report["query"]
    lines = [
        f"norms: {', '.join(query['norms']) or '(none)'}",
        f"input: {query['input']}",
        f"goal: {query['goal']}",
        f"engine: {report['engine']}",
        f"triggered: {', '.join(report['triggered']) or '(none)'}",
        f"holds: {'yes' if report['holds'] else 'no'}",
    ]
    if "certificate" in report:
        from .derivation import _derivation_lines
        lines += ["certificate:", *_derivation_lines(report["certificate"])]
    if "countermodel" in report:
        from .worlds import _world_model_lines
        lines += ["countermodel:", *_world_model_lines(report["countermodel"])]
    return lines


def _cmd_countermodel(args: argparse.Namespace) -> tuple[dict, int]:
    from .worlds import LiftedQuery, find_countermodel, world_model_to_dict
    norms, input, goal = _query(args)
    query = LiftedQuery(norms, input, goal, args.mode)
    model = find_countermodel(query, args.max_worlds, budget=args.budget)

    report = {
        "query": _query_doc(norms, input, goal, args.mode),
        "engine": "lifted",
        "holds": model is None,
        "max_worlds": args.max_worlds,
    }
    if model is not None:
        report["countermodel"] = world_model_to_dict(model)
    return report, 1 if model is None else 0


def _countermodel_text(report: dict) -> list[str]:
    if "countermodel" not in report:
        return [f"no countermodel up to {report['max_worlds']} worlds"]
    from .worlds import _world_model_lines
    model = report["countermodel"]
    return [f"countermodel found at {model['world_count']} worlds:", *_world_model_lines(model)]


def _cmd_naive(args: argparse.Namespace) -> tuple[dict, int]:
    from .worlds import naive_unfold_valid
    norms, input, goal = _query(args)
    naive = naive_unfold_valid(norms, input, goal, args.mode, atom_limit=args.atom_limit)
    semantic = _semantic_holds(norms, input, goal, args.mode, atom_limit=args.atom_limit)

    report = {
        "query": _query_doc(norms, input, goal, args.mode),
        "engine": "naive",
        "holds": naive,
        "contrast": {"semantic_holds": semantic, "disagreement": naive != semantic},
    }
    return report, 0 if naive else 1


def _naive_text(report: dict) -> list[str]:
    contrast = report["contrast"]
    return [
        f"naive unfolding: {'valid' if report['holds'] else 'not valid'}",
        f"semantic engine: {'holds' if contrast['semantic_holds'] else 'does not hold'}",
        "UNSOUND ENCODING WITNESS: the naive unfolding disagrees with the semantics"
        if contrast["disagreement"]
        else "verdicts agree",
    ]


def _cmd_examples(args: argparse.Namespace) -> tuple[dict, int]:
    from .reference import run_reference_matrix
    rows = run_reference_matrix()
    mismatches = sum(not row["ok"] for row in rows)
    return {"rows": rows, "mismatches": mismatches}, 1 if mismatches else 0


def _examples_text(report: dict) -> list[str]:
    lines = [
        f"{row['example']:24} engine={row['engine']:10} expected={str(row['expected']):5} "
        f"actual={str(row['actual']):5} {'ok' if row['ok'] else 'MISMATCH'}"
        for row in report["rows"]
    ]
    mismatches = report["mismatches"]
    return lines + [f"{mismatches} mismatch(es)" if mismatches else "all outcomes match"]


def _add_common(parser: argparse.ArgumentParser, *bounds: str, with_query: bool = True) -> None:
    if with_query:
        parser.add_argument("--norms", required=True, help="path to the norm-set file")
        parser.add_argument("--input", required=True, help="input situation formula")
        parser.add_argument("--goal", required=True, help="candidate output formula")
    for flag in bounds:
        default, about = _BOUNDS[flag]
        parser.add_argument(
            flag, type=_bound, default=default, metavar="N", help=f"{about} (default {default})"
        )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report format (structured = one JSON document)",
    )


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        """Help goes through ``_write``, as a report does: argparse's own write drops a failed
        write, and falls back to stderr when there is no stdout."""
        if file is not None:
            return super().print_help(file)
        _write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="iolog",
        description="Decide norm-conditioned obligations, search countermodels, "
        "and demonstrate the unsound naive encoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide whether the goal is an output for the input")
    _add_common(check, "--atom-limit", "--max-worlds")
    check.add_argument(
        "--engine",
        choices=("semantic", "derivation", "triple", "lifted"),
        default="semantic",
        help="which engine decides membership (only lifted reads --max-worlds)",
    )
    check.set_defaults(func=_cmd_check, text=_check_text)

    counter = sub.add_parser("countermodel", help="search for a finite countermodel")
    _add_common(counter, "--max-worlds", "--budget")
    counter.add_argument("--mode", choices=("outpre", "out1"), default="out1")
    counter.set_defaults(func=_cmd_countermodel, text=_countermodel_text)

    naive = sub.add_parser(
        "naive", help="classical validity of the naive Boolean unfolding, with contrast"
    )
    _add_common(naive, "--atom-limit")
    naive.add_argument("--mode", choices=("outpre", "out1"), default="out1")
    naive.set_defaults(func=_cmd_naive, text=_naive_text)

    examples = sub.add_parser("examples", help="run the built-in regression matrix")
    _add_common(examples, with_query=False)
    examples.set_defaults(func=_cmd_examples, text=_examples_text)

    return parser


def _write(text: str) -> None:
    """Write text to stdout and flush it, or raise OSError; after a failed write fd 1 goes to
    os.devnull, so the exit-time flush cannot fail again (exit 120)."""
    if sys.stdout is None:  # fd 1 was closed at start-up, and print would drop the text
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except (OSError, UnicodeError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _fail(message: str) -> int:
    """Exit code 2, with one ``error:`` line on stderr if stderr takes it; if it does not, fd 2
    goes to os.devnull, as fd 1 does in ``_write``."""
    if sys.stderr is not None:  # None when fd 2 was closed at start-up
        try:
            print(f"error: {message}", file=sys.stderr, flush=True)
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except OSError as exc:  # --help that could not be written
        return _fail(str(exc))
    try:
        report, code = args.func(args)
        if args.format == "structured":
            import json  # only here: a text report does not load it
            _write(json.dumps(report, indent=2) + "\n")
        else:
            _write("\n".join(args.text(report)) + "\n")
        return code
    except (_Error, OSError, UnicodeError) as exc:  # iolog errors by their base; a failed write
        return _fail(str(exc))
    except MemoryError:
        pass  # report once the handler has dropped the traceback and the tables it holds
    # The flag that bounds the work; the matrix of ``examples`` runs at fixed bounds.
    hint = {"countermodel": " (a lower --budget bounds the search)", "examples": ""}.get(
        args.command, " (a lower --atom-limit bounds the truth tables)")
    return _fail(f"out of memory{hint}")


if __name__ == "__main__":
    sys.exit(main())
