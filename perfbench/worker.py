"""One workload in one fresh process: set up, then a timed loop or a traced pass.

Run by ``run.py``; prints one JSON object as its last line.  Modes:

* ``setup``  — set up only, report ``setup_s`` and the input digest;
* ``timed``  — set up, run the closed loop for ``--seconds`` (and at least
  one whole pass over the pool), then check every verdict;
* ``trace``  — set up, one untraced pass, one traced pass over the same
  ops, then check the traced verdicts and derive the per-layer metrics.

Set-up is everything before the first timed op: importing iolog from the
working tree, generating the inputs and handing them to iolog's types,
and a warm-up over the front of the pool.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import array  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from oracle import Reference  # noqa: E402
from workloads import from_iolog, to_iolog, to_text  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CLI_TIMEOUT_S = 60
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
REPIN_EVERY_S = 1.0
CALIBRATE_EVERY_S = 0.02

# The calibration loop evaluates this formula under all 64 valuations of
# its atoms, by recursion over tuples with a dict per valuation: the same
# kind of work as iolog's own evaluators.
_SPIN_FORMULA = (
    "or",
    ("and", ("atom", "a"), ("not", ("atom", "b"))),
    ("implies", ("or", ("atom", "c"), ("atom", "d")), ("and", ("atom", "e"), ("atom", "f"))),
)
_SPIN_ATOMS = "abcdef"


def _evaluate(f, env) -> bool:
    tag = f[0]
    if tag == "atom":
        return env[f[1]]
    if tag == "not":
        return not _evaluate(f[1], env)
    left, right = _evaluate(f[1], env), _evaluate(f[2], env)
    if tag == "and":
        return left and right
    if tag == "or":
        return left or right
    return not left or right


def _spin() -> float:
    """Seconds one pass of the calibration loop takes, here and now."""
    start = time.perf_counter()
    for v in range(1 << len(_SPIN_ATOMS)):
        _evaluate(_SPIN_FORMULA, {name: bool(v >> i & 1) for i, name in enumerate(_SPIN_ATOMS)})
    return time.perf_counter() - start


def pin_quietest_cpu() -> tuple[float, float]:
    """Move this process to the CPU it may use that runs the calibration loop fastest.

    On a shared machine one CPU can be slowed for minutes by work outside
    this process.  Processes started afterwards inherit the choice.
    Returns the seconds the probe took and the loop's time on the chosen
    CPU.
    """
    start = time.perf_counter()
    if len(CPUS) < 2:
        return time.perf_counter() - start, min(_spin() for _ in range(3))
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        _spin()
        speed[cpu] = min(_spin() for _ in range(3))
    quietest = min(speed, key=speed.get)
    os.sched_setaffinity(0, {quietest})
    return time.perf_counter() - start, speed[quietest]


# Times are reported as they would read on a machine where one sample of
# the calibration loop takes this long.  On a shared 2-vCPU Intel Xeon host
# a sample took 125-310 us as other work came and went.
REFERENCE_LOOP_S = 250e-6

# How much a workload's ops slow when the calibration loop slows by a given
# share, fitted on log-log scales.  In-process ops slow in step with the
# loop.  A CLI op is mostly process start-up, which slows about half as
# much: on that host its time rose with the loop's to the power 0.46 in one
# measurement over 150 s and 0.47 across ten runs of the cli workload.
IN_PROCESS_ELASTICITY = 1.0
PROCESS_START_ELASTICITY = 0.5


def elasticity_for(workload: str) -> float:
    return PROCESS_START_ELASTICITY if workload == "cli" else IN_PROCESS_ELASTICITY


class Speed:
    """How fast the machine runs, sampled with the calibration loop through a run.

    Other work on a shared host can make the same code take up to twice
    as long, for seconds or minutes at a time, on one CPU or both, so raw
    wall times of the same pool drift from run to run by more than a
    regression worth catching.  Every time reported is therefore scaled by
    ``REFERENCE_LOOP_S`` over the mean of the samples just before and
    after it, raised to ``elasticity``: a slow spell of the machine slows
    the op and the loop alike and cancels out, while a slower iolog slows
    only the op.  A sample is the fastest of three passes of the loop, so
    that one interruption does not count as a slow spell.
    """

    def __init__(self, elasticity: float, since: float | None = None):
        self.elasticity = elasticity
        self.took: list[float] = []  # the loop's time at each sample
        self.spent = 0.0  # wall seconds spent sampling
        self.laps: list[tuple[float, int]] = []  # (wall seconds, sample that ends them)
        self.since = since  # end of the last lap, when laps are kept

    def calibrate(self) -> None:
        """Take one sample; with laps kept, it ends the lap since the last one."""
        start = time.perf_counter()
        if self.since is not None:
            self.laps.append((start - self.since, len(self.took)))
        self.took.append(min(_spin() for _ in range(3)))
        end = time.perf_counter()
        if self.since is not None:
            self.since = end
        self.spent += end - start

    def factor(self, k: int) -> float:
        """Scale for a time measured between sample ``k`` and the next one."""
        after = self.took[k + 1] if k + 1 < len(self.took) else self.took[k]
        return (2 * REFERENCE_LOOP_S / (self.took[k] + after)) ** self.elasticity

    def scaled_laps(self) -> float:
        """The wall time of every lap, each scaled by the samples around it."""
        return sum(wall * self.factor(k - 1 if k else 0) for wall, k in self.laps)


def import_iolog():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import iolog
    import iolog.cli

    if Path(iolog.__file__).resolve().parent != SRC / "iolog":
        raise SystemExit(f"iolog imported from {iolog.__file__}, not from {SRC}")
    return iolog


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("IOLOG_ATOM_LIMIT", "PYTHONHASHSEED")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Failed:
    """An op that raised or exited outside the 0/1 contract."""

    def __init__(self, detail: str):
        self.detail = detail


class Workload:
    """A pool with its inputs handed to iolog, and a callable per op."""

    def __init__(self, api, pool, workdir: Path, in_process_cli: bool):
        self.api, self.workdir = api, workdir
        self.calls = []
        if pool.workload == "cli":
            self.env = cli_env()
            workdir.mkdir(parents=True, exist_ok=True)
            for qi, q in enumerate(pool.queries):
                (workdir / f"norms{qi}.txt").write_text(workloads.norms_text(q), encoding="utf-8")
            for op in pool.ops:
                argv = workloads.cli_argv(pool, op, str(workdir / f"norms{op.query}.txt"))
                self.calls.append(self._cli_in_process(argv) if in_process_cli else self._cli_process(argv))
            return
        converted = {}
        for op in pool.ops:
            if op.query not in converted:
                converted[op.query] = self._convert(pool.queries[op.query])
            self.calls.append(self._engine(op, *converted[op.query]))

    def close(self) -> None:
        """Remove the norm files a cli workload wrote."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _convert(self, q):
        api = self.api
        norms = api.NormSet(tuple(api.Norm(to_iolog(api, b), to_iolog(api, h)) for b, h in q.norms))
        return norms, to_iolog(api, q.input), to_iolog(api, q.goal)

    def _engine(self, op, norms, input, goal):
        api = self.api
        if op.engine == "semantic":
            return lambda: api.out1_member(norms, input, goal)
        if op.engine == "triple":
            return lambda: api.out1_triple_approx(norms, input, goal)
        if op.engine == "derivation":
            goal_norm = api.Norm(input, goal)

            def derivation():
                verdict = api.derive_verdict(norms, input, goal)
                if verdict.certificate is None:
                    return verdict, None
                return verdict, api.verify_derivation(norms, verdict.certificate, goal_norm)

            return derivation
        if op.engine.startswith("naive-"):
            mode = op.engine.removeprefix("naive-")
            return lambda: api.naive_unfold_valid(norms, input, goal, mode)
        (max_worlds,) = op.params
        if op.engine == "lifted":
            return lambda: api.lifted_verdict(norms, input, goal, max_worlds=max_worlds)
        query = api.LiftedQuery(norms, input, goal, op.engine.removeprefix("countermodel-"))
        return lambda: api.find_countermodel(query, max_worlds)

    def _cli_process(self, argv):
        command = [sys.executable, "-m", "iolog.cli", *argv]

        def run():
            done = subprocess.run(command, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            if done.returncode not in (0, 1):
                return Failed(f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
            return done.returncode, done.stdout

        return run

    def _cli_in_process(self, argv):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.api.cli.main(argv)
            if code not in (0, 1):
                return Failed(f"exit {code}")
            return code, out.getvalue()

        return run


def norms_dir() -> Path:
    return ROOT / ".bench_build" / "perfbench" / str(os.getpid())


def call(fn):
    try:
        return fn()
    except Exception as exc:  # a failed op is counted, and the loop goes on
        return Failed(f"{type(exc).__name__}: {exc}")


def run_pass(calls) -> tuple[list, float]:
    results = []
    start = time.perf_counter()
    for fn in calls:
        results.append(call(fn))
    return results, time.perf_counter() - start


def timed_loop(calls, seconds: float, elasticity: float):
    """Closed loop, one client: the next op starts when the previous returns.

    Runs for ``seconds`` and at least one whole pass over the pool.  Only
    the first pass's results are kept; each repeat is compared with its
    first answer as it comes, outside the op's timing, so memory does not
    grow with the number of ops a run completes.  Between ops, outside
    their timings, the loop samples the machine's speed every
    ``CALIBRATE_EVERY_S`` and moves to the quietest CPU about once a
    second.  Returns each op's raw latency and the scale ``Speed`` gives
    it, the first pass's results, the raw wall time of the ops, the
    failure and differing-repeat counts, and the median calibration time.
    """
    latencies, scales, marks, first = array.array("d"), array.array("d"), array.array("l"), []
    size = len(calls)
    repeats_differing = failed = 0
    perf = time.perf_counter
    probing, _ = pin_quietest_cpu()
    speed = Speed(elasticity)
    speed.calibrate()
    start = perf()
    deadline = start + seconds
    repin = start + REPIN_EVERY_S
    calibrate = start + CALIBRATE_EVERY_S
    i = 0
    while True:
        fn = calls[i % size]
        t0 = perf()
        result = call(fn)
        t1 = perf()
        latencies.append(t1 - t0)
        marks.append(len(speed.took) - 1)
        if isinstance(result, Failed):
            failed += 1
        if i < size:
            first.append(result)
        elif result != first[i % size]:
            repeats_differing += 1
        i += 1
        done = t1 >= deadline and i >= size
        if t1 >= repin and not done:
            took, _ = pin_quietest_cpu()
            probing += took
            repin = perf() + REPIN_EVERY_S
            calibrate = 0.0  # sample the new CPU before the next op
        if t1 >= calibrate or done:
            speed.calibrate()
            calibrate = perf() + CALIBRATE_EVERY_S
        if done:
            scales.extend(speed.factor(k) for k in marks)
            wall = perf() - start - probing - speed.spent
            return latencies, scales, first, wall, failed, repeats_differing, statistics.median(speed.took)


# --- verdicts ------------------------------------------------------------------


def _heads(frozen) -> list[str]:
    return sorted(to_text(from_iolog(h)) for h in frozen)


def _model(model):
    if model is None:
        return None
    return [model.world_count, {name: sorted(ws) for name, ws in sorted(model.extension.items())}]


def normalize(op, result):
    """A JSON-able form of one verdict; equal forms mean identical answers."""
    if isinstance(result, Failed):
        return ["failed", result.detail]
    e = op.engine
    if e in ("semantic", "triple"):
        return [result.holds, _heads(result.triggered)]
    if e == "derivation":
        verdict, failure = result
        return [verdict.holds, _heads(verdict.triggered), None if failure is None else str(failure)]
    if e.startswith("naive-"):
        return result
    if e == "lifted":
        return [result.holds, _heads(result.triggered), _model(result.certificate)]
    if e.startswith("countermodel-"):
        return _model(result)
    return list(result)  # cli: [exit code, stdout]


def _ref_model(found):
    if found is None:
        return None
    size, extension = found
    return [size, {name: list(ws) for name, ws in sorted(extension.items())}]


def _named_model(found):
    """The oracle's model in the CLI's structured rendering."""
    if found is None:
        return None
    size, extension = found
    return {
        "world_count": size,
        "worlds": [f"w{i}" for i in range(size)],
        "extension": {name: [f"w{w}" for w in ws] for name, ws in sorted(extension.items())},
    }


def _text_model(found) -> list[str]:
    size, extension = found
    lines = ["worlds: " + " ".join(f"w{i}" for i in range(size))]
    lines += [f"{name} = {{{', '.join(f'w{w}' for w in ws)}}}" for name, ws in sorted(extension.items())]
    return lines


def op_kind(op) -> str:
    """The engine an op asks, with CLI subcommands named like in-process engines."""
    if op.engine != "cli":
        return op.engine
    sub, variant = op.params[:2]
    return {"check": variant, "examples": "examples"}.get(sub, f"{sub}-{variant}")


def oracle_answer(op, ref: Reference):
    """The oracle's answer to one op: (holds, countermodel).

    For a countermodel search ``holds`` means none was found; the
    countermodel is None where there is none or the engine has none.
    """
    kind = op_kind(op)
    if kind in ("semantic", "derivation"):
        return ref.semantic(), None
    if kind == "triple":
        return ref.triple(), None
    if kind.startswith("naive-"):
        return ref.naive(kind.removeprefix("naive-")), None
    if kind == "examples":
        return True, None
    max_worlds = op.params[3] if op.engine == "cli" else op.params[0]
    found = ref.countermodel("out1" if kind == "lifted" else kind.removeprefix("countermodel-"), max_worlds)
    return found is None, found


def check_cli(op, ref: Reference, code: int, out: str) -> str | None:
    sub, variant, fmt, max_worlds = op.params
    holds, found = oracle_answer(op, ref)
    doc = json.loads(out) if fmt == "structured" else None
    lines = out.splitlines()
    if sub == "examples":
        ok = code == 0 and (doc["mismatches"] == 0 if doc else lines[-1] == "all outcomes match")
        return None if ok else "reference matrix mismatch"
    if sub == "check":
        model_ok = True
        if found is not None:
            model_ok = doc["countermodel"] == _named_model(found) if doc else lines[-len(_text_model(found)):] == _text_model(found)
        shown = doc["holds"] if doc else ("holds: yes" in lines)
    elif sub == "countermodel":
        if doc:
            shown = doc["holds"]
            model_ok = doc.get("countermodel") == _named_model(found)
        else:
            shown = lines[0] == f"no countermodel up to {max_worlds} worlds"
            model_ok = found is None or lines[1:] == _text_model(found)
        code = 1 - code  # exit 0 means a countermodel was found
    else:  # naive
        semantic = ref.semantic() if variant == "out1" else ref.query.goal in ref.triggered_heads()
        if doc:
            shown = doc["holds"]
            model_ok = doc["contrast"]["semantic_holds"] == semantic
        else:
            shown = lines[0] == "naive unfolding: valid"
            model_ok = lines[1] == f"semantic engine: {'holds' if semantic else 'does not hold'}"
    if shown != holds or code != (0 if holds else 1) or not model_ok:
        return f"cli {' '.join(map(str, op.params))}: exit {code}, expected holds={holds}"
    return None


def check(op, ref: Reference, verdict) -> str | None:
    """Compare one normalized verdict with the oracle; None when it agrees."""
    if isinstance(verdict, list) and verdict[:1] == ["failed"]:
        return f"{op.engine} failed: {verdict[1]}"
    if op.engine == "cli":
        return check_cli(op, ref, *verdict)
    holds, found = oracle_answer(op, ref)
    heads = sorted(to_text(h) for h in ref.triggered_heads())
    if op.engine in ("semantic", "triple"):
        expected = [holds, heads]
    elif op.engine == "derivation":
        # criterion 4: the derivation engine agrees with the semantics, and
        # every certificate it builds passes the checker
        expected = [holds, heads, None]
    elif op.engine.startswith("naive-"):
        expected = holds
    elif op.engine == "lifted":
        expected = [holds, heads, _ref_model(found)]
    else:
        expected = _ref_model(found)
    return None if verdict == expected else f"{op.engine} on query {op.query}: got {verdict!r}, expected {expected!r}"


def verify(pool, results) -> tuple[int, str, list[str]]:
    """Check one pass of verdicts against the oracle.

    Returns (errors, verdict digest, messages).
    """
    first = [normalize(op, r) for op, r in zip(pool.ops, results)]
    errors, messages = 0, []
    refs = {}
    for op, verdict in zip(pool.ops, first):
        if op.query not in refs:
            refs[op.query] = Reference(pool.queries[op.query])
        try:
            problem = check(op, refs[op.query], verdict)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"{op.engine} on query {op.query}: unreadable answer ({type(exc).__name__}: {exc})"
        if problem:
            errors += 1
            messages.append(problem)
    digest = hashlib.sha256(json.dumps([pool.workload, pool.seed, first]).encode()).hexdigest()[:16]
    return errors, digest, messages


# --- modes -----------------------------------------------------------------------


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def interpreter_timings(repeats: int = 5) -> tuple[float, float]:
    """Median wall ms of a bare interpreter, and of one that imports iolog.cli."""
    env = cli_env()

    def median_ms(code: str) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=CLI_TIMEOUT_S)
            times.append((time.perf_counter() - t0) * 1000)
        return statistics.median(times)

    bare = median_ms("pass")
    return bare, median_ms("import iolog.cli") - bare


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    probing, _ = pin_quietest_cpu()
    # set-up is timed in laps from the start, less the CPU probe
    speed = Speed(elasticity_for(args.workload), since=STARTED + probing)
    api = import_iolog()
    speed.calibrate()
    pool = workloads.build(args.workload, args.seed, args.scale)
    speed.calibrate()
    load = Workload(api, pool, norms_dir(), in_process_cli=args.mode == "trace")
    try:
        speed.calibrate()
        for fn in load.calls[: pool.warmup]:
            call(fn)
            if time.perf_counter() - speed.since >= CALIBRATE_EVERY_S:
                speed.calibrate()
        speed.calibrate()
        report = {
            "setup_s": speed.scaled_laps(),
            "wall_setup_s": sum(wall for wall, _ in speed.laps),
            "input_digest": pool.input_digest(),
        }
        if args.mode == "timed":
            report.update(timed(pool, load, args.seconds))
        elif args.mode == "trace":
            report.update(traced(pool, load))
    finally:
        load.close()
    print(json.dumps(report))
    return 0


def timed(pool, load, seconds: float) -> dict:
    latencies, scales, first, wall, failed, repeats_differing, took = timed_loop(
        load.calls, seconds, elasticity_for(pool.workload)
    )
    rss = peak_rss_mb(children=pool.workload == "cli")
    errors, digest, messages = verify(pool, first)
    if repeats_differing:
        messages.append(f"{repeats_differing} repeated ops answered differently from their first pass")
    for message in messages[:10]:
        print(message, file=sys.stderr)
    lat_ms = sorted(x * s * 1000 for x, s in zip(latencies, scales))
    wall_ms = sorted(x * 1000 for x in latencies)
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    return {
        "samples": len(lat_ms),
        "queries_per_s": len(lat_ms) * 1000 / sum(lat_ms),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90,
        "beyond_p90": sum(x > p90 for x in lat_ms),
        "wall_queries_per_s": len(wall_ms) / wall,
        "wall_latency_p50_ms": statistics.median(wall_ms),
        "wall_latency_p90_ms": statistics.quantiles(wall_ms, n=10)[8],
        "failed": failed,
        "verdict_errors": errors + repeats_differing,
        "verdict_digest": digest,
        "peak_rss_mb": rss,
        "calibration_ms": took * 1000,
    }


def traced(pool, load) -> dict:
    from spans import Tracer, layer_metrics

    pin_quietest_cpu()
    untraced, plain_wall = run_pass(load.calls)
    pin_quietest_cpu()
    tracer = Tracer()
    tracer.install()
    try:
        results, traced_wall = run_pass(load.calls)
    finally:
        tracer.uninstall()
    errors, digest, messages = verify(pool, results)
    plain = [normalize(op, r) for op, r in zip(pool.ops, untraced)]
    if plain != [normalize(op, r) for op, r in zip(pool.ops, results)]:
        errors += 1
        messages.append("traced answers differ from untraced ones")
    for message in messages[:10]:
        print(message, file=sys.stderr)
    metrics = {name: list(value) for name, value in layer_metrics(tracer, len(pool.queries)).items()}
    interpreter_ms, import_ms = interpreter_timings() if pool.workload == "cli" else (0.0, 0.0)
    metrics["cli.interpreter_ms"] = [interpreter_ms, "ms"]
    metrics["cli.import_ms"] = [import_ms, "ms"]
    metrics["trace.overhead_frac"] = [traced_wall / plain_wall - 1, "frac"]
    return {
        "layers": metrics,
        "ops": len(results),
        "failed": sum(isinstance(r, Failed) for r in results),
        "verdict_errors": errors,
        "verdict_digest": digest,
    }


if __name__ == "__main__":
    sys.exit(main())
