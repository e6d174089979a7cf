"""Seeded, closed-loop benchmark of iolog's out1 verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh worker
processes, one after another (one client, the next op sent when the
previous one returns).  With ``--trace 0`` five workers set up, the
middle one also runs the timed loop, and every end-to-end metric is
printed; ``setup_s`` is the median of the five set-ups.  With
``--trace 1`` one worker makes an untraced and a traced pass over the
pool and the per-layer metrics are printed, with ``trace.overhead_frac``.
End-to-end numbers never come from a traced run.  End-to-end times are
scaled to a reference machine's speed, sampled through the run (see
``Speed`` in ``worker.py``); the raw wall figures are printed too.

Every verdict is checked against the oracle in ``oracle.py`` after the
timed loop.  For the seeds in ``digests.json`` the digest of all
verdicts (CLI output bytes and exit codes included) must also match the
one recorded there.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every verdict is right and no op failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small-queries", "wide-entail", "countermodel", "cli")
SETUPS = 5
WORKER_TIMEOUT_S = 150


def run_worker(mode: str, workload: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--scale", str(scale)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(seed))


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [run_worker("setup", workload, seed, 0) for _ in range(SETUPS // 2)]
    timed = run_worker("timed", workload, seed, seconds)
    setups += [timed] + [run_worker("setup", workload, seed, 0) for _ in range(SETUPS // 2)]
    metrics = {
        "queries_per_s": (timed["queries_per_s"], "1/s"),
        "latency_p50_ms": (timed["latency_p50_ms"], "ms"),
        "latency_p90_ms": (timed["latency_p90_ms"], "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    errors = timed["verdict_errors"]
    if len({s["input_digest"] for s in setups}) != 1:
        print("the same seed gave different inputs in different processes", file=sys.stderr)
        errors += 1
    facts = {
        "samples": timed["samples"],
        "beyond_p90": timed["beyond_p90"],
        "verdict_errors": errors,
        "failed_frac": timed["failed"] / timed["samples"],
        "failed": timed["failed"],
        "input_digest": timed["input_digest"],
        "verdict_digest": timed["verdict_digest"],
        "calibration_ms": round(timed["calibration_ms"], 4),
        "wall_queries_per_s": round(timed["wall_queries_per_s"], 4),
        "wall_latency_p50_ms": round(timed["wall_latency_p50_ms"], 4),
        "wall_latency_p90_ms": round(timed["wall_latency_p90_ms"], 4),
        "wall_setup_s": round(statistics.median(s["wall_setup_s"] for s in setups), 4),
    }
    if facts["beyond_p90"] < 10:
        print(f"only {facts['beyond_p90']} samples lie beyond p90", file=sys.stderr)
    return metrics, facts


def per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    report = run_worker("trace", workload, seed, 0)
    metrics = {name: tuple(value) for name, value in report["layers"].items()}
    facts = {
        "samples": report["ops"],
        "verdict_errors": report["verdict_errors"],
        "failed": report["failed"],
        "failed_frac": report["failed"] / report["ops"],
        "input_digest": report["input_digest"],
        "verdict_digest": report["verdict_digest"],
    }
    return metrics, facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "iolog" / "__init__.py").is_file():
        print(f"error: no iolog source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, facts = per_layer(args.workload, args.seed)
        else:
            metrics, facts = end_to_end(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    pinned = pinned_digest(args.workload, args.seed)
    if pinned is not None and pinned != facts["verdict_digest"]:
        print(f"verdict digest {facts['verdict_digest']} differs from the pinned {pinned}", file=sys.stderr)
        facts["verdict_errors"] += 1

    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {value:>14.6g} {unit}")
    print(f"  {'verdict_errors':40} {facts['verdict_errors']:>14} count")
    print(f"  {'failed_frac':40} {facts['failed_frac']:>14.6g} frac")
    for key in ("samples", "beyond_p90", "calibration_ms", "wall_queries_per_s", "wall_latency_p50_ms",
                "wall_latency_p90_ms", "wall_setup_s", "input_digest", "verdict_digest"):
        if key in facts:
            print(f"  {key:40} {facts[key]:>14}")
    print(f"  {'pinned_digest':40} {pinned or 'none for this seed':>14}")

    correct = facts["verdict_errors"] == 0 and facts["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": facts["samples"],
        "failed": facts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
