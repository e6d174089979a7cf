"""The lazy package: ``import iolog`` loads no layer, and the first lookup of a
name it does not hold loads the six layers and binds every public name.  No
command-line run loads ``dataclasses`` or ``inspect``, and only a structured
report loads ``json``.

Each check runs in a fresh interpreter, where nothing has loaded a layer yet.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import iolog
from test_api import PUBLIC_NAMES


def run_fresh(script: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(iolog.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_layer():
    out = run_fresh("""
        import sys
        import iolog
        print(sorted(m for m in sys.modules if m.split(".")[0] == "iolog"))
    """)
    assert out == "['iolog']\n"


@pytest.mark.parametrize("format", ["text", "structured"])
def test_no_run_loads_dataclasses_or_inspect_and_only_structured_loads_json(tmp_path, format):
    """Each module is compared with ``sys.modules`` before ``import iolog``, since
    ``site`` may have loaded it already."""
    norms = tmp_path / "duties.norms"
    norms.write_text("(a, e)\n(b, e)\n")
    out = run_fresh(f"""
        import os
        import sys
        before = set(sys.modules)
        import iolog.cli
        query = ["--norms", {str(norms)!r}, "--input", "a | b", "--goal", "e"]
        query += ["--format", {format!r}]
        runs = [["check", "--engine", engine, *query]
                for engine in ("semantic", "derivation", "triple", "lifted")]
        runs += [["countermodel", *query], ["naive", *query], ["examples", "--format", {format!r}]]
        sys.stdout = open(os.devnull, "w")
        for argv in runs:
            iolog.cli.main(argv)
            new = set(sys.modules) - before
            loaded = [m for m in ("dataclasses", "inspect", "json") if m in new]
            print(*argv[:3], loaded, file=sys.__stdout__)
    """)
    lines = out.splitlines()
    assert len(lines) == 7
    allowed = "[]" if format == "text" else ("[]", "['json']")
    assert all(line.endswith(allowed) for line in lines), out


def test_one_lookup_binds_every_public_name():
    out = run_fresh("""
        import iolog
        iolog.Atom
        print(set(iolog.__all__) <= set(vars(iolog)))
    """)
    assert out == "True\n"


def test_dir_lists_every_public_name():
    out = run_fresh("""
        import iolog
        print(" ".join(dir(iolog)))
    """)
    assert set(PUBLIC_NAMES) <= set(out.split())


def test_an_unknown_name_is_an_attribute_error_naming_the_package():
    out = run_fresh("""
        import iolog
        try:
            iolog.nope
        except AttributeError as exc:
            print(exc)
        print(hasattr(iolog, "nope"))
    """)
    assert out == "module 'iolog' has no attribute 'nope'\nFalse\n"


def test_concurrent_first_lookups_see_every_public_name():
    """8 threads released together look up different names on a freshly imported
    package, 20 times over; each gets the object its layer defines."""
    out = run_fresh("""
        import importlib
        import sys
        import threading

        LAYERS = ("formula", "norms", "entail", "output", "derivation", "worlds")
        names = [n for layer in LAYERS for n in importlib.import_module(f"iolog.{layer}").__all__]
        sys.setswitchinterval(1e-6)
        wrong = []
        for _ in range(20):
            for name in [m for m in sys.modules if m.split(".")[0] == "iolog"]:
                del sys.modules[name]
            import iolog

            start, found = threading.Barrier(8, timeout=30), {}

            def look_up(mine):
                start.wait()
                for name in mine:
                    try:
                        found[name] = getattr(iolog, name)
                    except AttributeError as exc:
                        found[name] = exc

            threads = [threading.Thread(target=look_up, args=(names[i::8],)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for layer in LAYERS:
                module = sys.modules[f"iolog.{layer}"]
                wrong += [n for n in module.__all__ if found[n] is not getattr(module, n)]
        print(len(names), wrong)
    """)
    assert out == "63 []\n"
