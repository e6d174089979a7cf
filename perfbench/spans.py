"""Per-layer spans around iolog's public functions, installed from outside.

The layers are the modules of ``iolog``.  ``Tracer.install`` replaces
each public function at every module binding (``iolog.output.entails``
and ``iolog.derivation.entails`` as well as ``iolog.entail.entails``),
because the modules import names directly.  A span's self time is its
duration minus the time of the spans it encloses.  Recursive self-calls
pass straight through, and the per-valuation and per-model evaluators
stay unwrapped, since wrapping them would measure the wrapper; their
cost lands in the caller's self time.  ``counterexample_valuation`` is
the enumeration loop of ``entails`` and stays unwrapped for the same
reason.  Work counts are derived after the run from the recorded
arguments and results, with the oracle.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

import oracle
from workloads import from_iolog

LAYERS = ("formula", "norms", "entail", "output", "derivation", "worlds", "reference", "cli")
UNWRAPPED = frozenset(
    {
        "eval_formula",
        "counterexample_valuation",
        "lifted_extension",
        "lifted_valid",
        "outpre_member_lifted",
        "out1_member_lifted",
    }
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # [span name, seconds spent in child spans]
        self.entails: list[tuple] = []  # (premises, conclusion, holds, enclosing spans)
        self.searches: list[tuple] = []  # (query, max_worlds, model)
        self.naive: list[tuple] = []  # (norms, input, goal, mode, valid)
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        record = {
            "entail.entails": self._record_entails,
            "worlds.find_countermodel": self._record_search,
            "worlds.naive_unfold_valid": self._record_naive,
        }.get(name)

        def span(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
            if record is not None:
                record(args, kwargs, result)
            return result

        return span

    def _record_entails(self, args, kwargs, holds):
        premises = args[0] if args else kwargs["premises"]
        conclusion = args[1] if len(args) > 1 else kwargs["conclusion"]
        enclosing = frozenset(frame[0] for frame in self.stack)
        self.entails.append((tuple(premises), conclusion, holds, enclosing))

    def _record_search(self, args, kwargs, model):
        query = args[0] if args else kwargs["query"]
        max_worlds = args[1] if len(args) > 1 else kwargs["max_worlds"]
        self.searches.append((query, max_worlds, model))

    def _record_naive(self, args, kwargs, valid):
        names = ("norms", "input", "goal", "mode")
        values = tuple(args) + tuple(kwargs[k] for k in names[len(args):])
        self.naive.append((*values[:4], valid))

    def install(self) -> None:
        modules = {name: sys.modules[name] for name in list(sys.modules) if name == "iolog" or name.startswith("iolog.")}
        spans = {}
        for layer in LAYERS:
            module = modules[f"iolog.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__ and attr not in UNWRAPPED:
                    spans[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in spans and spans[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, spans[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()

    # --- derived counts ---------------------------------------------------

    def valuations(self) -> int:
        return sum(
            oracle.entailment_valuations([from_iolog(p) for p in premises], from_iolog(conclusion))
            for premises, conclusion, _, _ in self.entails
        )

    def entails_within(self, *spans: str) -> int:
        wanted = frozenset(spans)
        return sum(1 for *_, enclosing in self.entails if enclosing & wanted)

    def models_visited(self) -> int:
        total = 0
        for query, max_worlds, model in self.searches:
            names = oracle.query_atoms(_lifted_query(query))
            found = None
            if model is not None:
                masks = tuple(sum(1 << w for w in model.extension.get(name, ())) for name in names)
                found = (model.world_count, masks)
            total += oracle.models_visited(len(names), max_worlds, found)
        return total

    def naive_valuations(self) -> int:
        return sum(
            oracle.Reference(_query(norms, input, goal)).naive_valuations(mode)
            for norms, input, goal, mode, _ in self.naive
        )


def _query(norms, input, goal) -> oracle.Query:
    return oracle.Query(
        tuple((from_iolog(n.body), from_iolog(n.head)) for n in norms),
        from_iolog(input),
        from_iolog(goal),
    )


def _lifted_query(query) -> oracle.Query:
    return _query(query.norms, query.input, query.goal)


def layer_metrics(tracer: Tracer, queries: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as name -> (value, unit)."""
    calls, self_s = tracer.calls, tracer.self_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    valuations = tracer.valuations()
    models = tracer.models_visited()
    derivation_spans = ("derivation.derive_verdict", "derivation.construct_derivation", "derivation.verify_derivation")
    return {
        "formula.parse_formula.calls": (calls["formula.parse_formula"], "count"),
        "formula.parse_formula.self_s": (self_s["formula.parse_formula"], "s"),
        "formula.atoms.calls": (calls["formula.atoms"], "count"),
        "formula.atoms.self_s": (self_s["formula.atoms"], "s"),
        "norms.load_norms.self_s": (self_s["norms.load_norms"], "s"),
        "entail.entails.calls": (calls["entail.entails"], "count"),
        "entail.entails.self_s": (self_s["entail.entails"], "s"),
        "entail.is_tautology.calls": (calls["entail.is_tautology"], "count"),
        "entail.valuations": (valuations, "count"),
        "entail.valuations_per_s": (ratio(valuations, self_s["entail.entails"]), "1/s"),
        "output.triggered_heads.calls": (calls["output.triggered_heads"], "count"),
        "output.triggered_heads.self_s": (self_s["output.triggered_heads"], "s"),
        "output.triggered_heads.per_query": (ratio(calls["output.triggered_heads"], queries), "calls/query"),
        "output.out1_member.self_s": (self_s["output.out1_member"], "s"),
        "output.out1_triple_approx.self_s": (self_s["output.out1_triple_approx"], "s"),
        "output.triple.entails_calls": (tracer.entails_within("output.out1_triple_approx"), "count"),
        "derivation.construct_derivation.self_s": (self_s["derivation.construct_derivation"], "s"),
        "derivation.verify_derivation.self_s": (self_s["derivation.verify_derivation"], "s"),
        "derivation.derive_verdict.self_s": (self_s["derivation.derive_verdict"], "s"),
        "derivation.entails_per_query": (ratio(tracer.entails_within(*derivation_spans), queries), "calls/query"),
        "worlds.find_countermodel.calls": (calls["worlds.find_countermodel"], "count"),
        "worlds.find_countermodel.self_s": (self_s["worlds.find_countermodel"], "s"),
        "worlds.models_visited": (models, "count"),
        "worlds.models_per_s": (ratio(models, self_s["worlds.find_countermodel"]), "1/s"),
        "worlds.lifted_verdict.self_s": (self_s["worlds.lifted_verdict"], "s"),
        "worlds.naive_unfold_valid.self_s": (self_s["worlds.naive_unfold_valid"], "s"),
        "worlds.naive.valuations": (tracer.naive_valuations(), "count"),
        "reference.run_reference_matrix.self_s": (self_s["reference.run_reference_matrix"], "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
    }
