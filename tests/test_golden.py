"""Golden CLI reports: exact stdout bytes and exit code of every subcommand.

Every subcommand runs with every engine or mode, in both formats, on the
two-norm file ``(a, e)``, ``(b, e)`` for the inputs ``a`` and ``a | b``
and the goal ``e``; ``examples`` runs in both formats.  The expected
reports live in ``golden_cli.json``.  To rewrite it after a deliberate
change of output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from iolog.cli import _build_parser, main

GOLDEN = Path(__file__).with_name("golden_cli.json")
NORMS = "(a, e)\n(b, e)\n"
VARIANTS = (
    [("check", "--engine", e) for e in ("semantic", "derivation", "triple", "lifted")]
    + [("countermodel", "--mode", m) for m in ("outpre", "out1")]
    + [("naive", "--mode", m) for m in ("outpre", "out1")]
)
FORMATS = ("text", "structured")


def cases() -> list[list[str]]:
    """Each case's argv, with ``NORMS`` standing for the norm-file path."""
    argvs = [
        [sub, "--norms", "NORMS", "--input", input, "--goal", "e", flag, value, "--format", form]
        for sub, flag, value in VARIANTS
        for input in ("a", "a | b")
        for form in FORMATS
    ]
    return argvs + [["examples", "--format", form] for form in FORMATS]


def run(argv: list[str], norms_path: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([norms_path if word == "NORMS" else word for word in argv])
    return {"exit": code, "stdout": out.getvalue()}


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "norms.txt"
        path.write_text(NORMS, encoding="utf-8")
        golden = {" ".join(argv): run(argv, str(path)) for argv in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_report_bytes(argv, golden, tmp_path):
    path = tmp_path / "norms.txt"
    path.write_text(NORMS, encoding="utf-8")
    assert run(argv, str(path)) == golden[" ".join(argv)]


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_no_environment_variable_changes_a_report(argv, golden, tmp_path, monkeypatch):
    """``IOLOG_ATOM_LIMIT`` is not read: with it set, each report keeps its golden bytes."""
    monkeypatch.setenv("IOLOG_ATOM_LIMIT", "1")
    path = tmp_path / "norms.txt"
    path.write_text(NORMS, encoding="utf-8")
    assert run(argv, str(path)) == golden[" ".join(argv)]


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_report_is_a_json_document(argv, tmp_path):
    """The report survives ``json.dumps`` and ``json.loads`` unchanged, and the text
    format renders the same lines from the loaded copy as from the original."""
    path = tmp_path / "norms.txt"
    path.write_text(NORMS, encoding="utf-8")
    args = _build_parser().parse_args([str(path) if word == "NORMS" else word for word in argv])
    report, _ = args.func(args)
    loaded = json.loads(json.dumps(report))
    assert loaded == report
    assert list(args.text(loaded)) == list(args.text(report))


if __name__ == "__main__":
    sys.exit(record())
