"""The benchmark's own checks, and the recorder of its pinned files.

    python3 perfbench/selfcheck.py            # run every check
    python3 perfbench/selfcheck.py --record   # rewrite digests.json and traffic.json

Checks:

* the same seed gives the same inputs, in this process and in a fresh
  one, and a different seed gives different inputs;
* the oracle agrees with the one in tests/conftest.py on a sample
  (skipped, and said so, where tests/ or hypothesis is missing);
* smoke: every workload at a tiny size through the real worker, checking
  verdicts and failures only, no timings;
* traffic.json and the pinned digest of seed 0 reproduce.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import random
import sys
from pathlib import Path

import oracle
import worker
import workloads
from run import run_worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_SEEDS = range(16)
SMOKE_SCALE = 0.05


def traffic(workload: str, seed: int) -> dict:
    """The shape of one workload's pool: what the timed loop cycles through."""
    pool = workloads.build(workload, seed)
    refs = [oracle.Reference(q) for q in pool.queries]
    atoms = collections.Counter(len(oracle.query_atoms(q)) for q in pool.queries)
    norms = collections.Counter(len(q.norms) for q in pool.queries)
    holds = collections.defaultdict(list)
    worlds = collections.Counter()
    for op in pool.ops:
        answer, found = worker.oracle_answer(op, refs[op.query])
        kind = worker.op_kind(op)
        holds[f"cli {kind}" if op.engine == "cli" else kind].append(answer)
        if kind == "lifted" or kind.startswith("countermodel-"):
            worlds["absent" if found is None else str(found[0])] += 1
    shape = {
        "seed": seed,
        "queries": len(pool.queries),
        "ops_per_pass": len(pool.ops),
        "atoms_histogram": {str(k): v for k, v in sorted(atoms.items())},
        "norms_histogram": {str(k): v for k, v in sorted(norms.items())},
        "holds_fraction": {k: round(sum(v) / len(v), 4) for k, v in sorted(holds.items())},
    }
    if worlds:
        shape["countermodel_worlds_histogram"] = dict(sorted(worlds.items()))
        shape["absent_share"] = round(worlds["absent"] / sum(worlds.values()), 4)
    return shape


def verdict_digest(workload: str, seed: int) -> str:
    """Digest of one pass over the pool, run in this process (the CLI too)."""
    pool = workloads.build(workload, seed)
    load = worker.Workload(worker.import_iolog(), pool, worker.norms_dir(), in_process_cli=True)
    try:
        results, _ = worker.run_pass(load.calls)
    finally:
        load.close()
    errors, digest, messages = worker.verify(pool, results)
    if errors:
        raise SystemExit(f"{workload} seed {seed}: {messages[0]}")
    return digest


def record() -> None:
    shapes = {w: traffic(w, 0) for w in workloads.WORKLOADS}
    (HERE / "traffic.json").write_text(json.dumps(shapes, indent=2) + "\n", encoding="utf-8")
    pins = {w: {str(s): verdict_digest(w, s) for s in PINNED_SEEDS} for w in workloads.WORKLOADS}
    (HERE / "digests.json").write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")


def check_inputs(problems: list[str]) -> None:
    for w in workloads.WORKLOADS:
        first = workloads.build(w, 7, SMOKE_SCALE).input_digest()
        if workloads.build(w, 7, SMOKE_SCALE).input_digest() != first:
            problems.append(f"{w}: seed 7 gave different inputs twice")
        if workloads.build(w, 8, SMOKE_SCALE).input_digest() == first:
            problems.append(f"{w}: seeds 7 and 8 gave the same inputs")
        fresh = run_worker("setup", w, 7, 0, SMOKE_SCALE)["input_digest"]
        if fresh != first:
            problems.append(f"{w}: a fresh process built different inputs for seed 7")


def check_oracle(problems: list[str], samples: int = 400) -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        conftest = importlib.import_module("conftest")
    except ImportError as exc:
        print(f"skipped: oracle comparison with tests/conftest.py ({exc})")
        return
    rng = random.Random(1803)
    names = ("a", "b", "c", "d")
    for _ in range(samples):
        premises = [conftest.random_formula(rng, names, depth=2) for _ in range(rng.randrange(4))]
        conclusion = conftest.random_formula(rng, names, depth=3)
        theirs = conftest.oracle_entails(premises, conclusion)
        ours = oracle.first_counterexample([workloads.from_iolog(p) for p in premises], workloads.from_iolog(conclusion)) is None
        if theirs != ours:
            problems.append(f"oracles disagree on {premises} |= {conclusion}")
            return


def check_smoke(problems: list[str]) -> None:
    for w in workloads.WORKLOADS:
        report = run_worker("timed", w, 3, 0, SMOKE_SCALE)
        if report["verdict_errors"] or report["failed"]:
            problems.append(f"smoke {w}: {report['verdict_errors']} wrong and {report['failed']} failed verdicts")


def check_pinned(problems: list[str]) -> None:
    shapes = json.loads((HERE / "traffic.json").read_text(encoding="utf-8"))
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    for w in workloads.WORKLOADS:
        if shapes.get(w) != traffic(w, 0):
            problems.append(f"traffic.json is stale for {w}")
        if pins.get(w, {}).get("0") != verdict_digest(w, 0):
            problems.append(f"{w}: seed 0 verdict digest differs from digests.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help="rewrite digests.json and traffic.json")
    args = parser.parse_args()
    if args.record:
        record()
        return 0
    problems: list[str] = []
    for check in (check_inputs, check_oracle, check_smoke, check_pinned):
        before = len(problems)
        check(problems)
        print(f"{check.__name__}: {'ok' if len(problems) == before else 'FAILED'}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
