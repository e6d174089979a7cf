"""Seeded inputs for the four benchmark workloads.

Everything here is a pure function of the seed.  Queries are built as
the oracle's tuple formulas; ``to_iolog`` turns them into iolog values
and ``to_text`` into formula text for the command line.  Each workload
is a pool of *ops*: one op is one engine asked one question, and gives
one verdict.  The timed loop cycles through the pool in order, so pools
are laid out with their strata interleaved and any stretch of a pass
looks like the whole.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import random
from dataclasses import dataclass

from oracle import FALSE, TRUE, Query, Reference, query_atoms

# Guards every generated query stays within: iolog's defaults.
ATOM_LIMIT = 16
SEARCH_BUDGET = 24

WORKLOADS = ("small-queries", "wide-entail", "countermodel", "cli")


@dataclass(frozen=True)
class Op:
    """One verdict to ask for: ``engine`` on ``queries[query]`` with ``params``."""

    engine: str
    query: int
    params: tuple = ()


@dataclass(frozen=True)
class Pool:
    workload: str
    seed: int
    queries: tuple
    ops: tuple
    warmup: int  # ops from the front of the pool run before timing starts

    def input_digest(self) -> str:
        doc = [self.workload, self.seed, [_query_doc(q) for q in self.queries],
               [[op.engine, op.query, list(op.params)] for op in self.ops]]
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def _query_doc(q: Query) -> list:
    return [[to_text(b), to_text(h)] for b, h in q.norms] + [to_text(q.input), to_text(q.goal)]


# --- formula helpers -------------------------------------------------------


def atom(name: str) -> tuple:
    return ("atom", name)


def conj(fs) -> tuple:
    fs = list(fs)
    f = fs[0]
    for g in fs[1:]:
        f = ("and", f, g)
    return f


def random_formula(rng: random.Random, names, depth: int) -> tuple:
    """Same draws as ``random_formula`` in tests/conftest.py, as tuples."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.85:
            return atom(rng.choice(list(names)))
        return TRUE if roll < 0.95 else FALSE
    kind = rng.randrange(4)
    if kind == 0:
        return ("not", random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return (("and", "or", "implies")[kind - 1], left, right)


def literal(rng: random.Random, name: str) -> tuple:
    return atom(name) if rng.random() < 0.5 else ("not", atom(name))


_BINARY_TEXT = {"and": "&", "or": "|", "implies": "->"}


def to_text(f) -> str:
    """Fully parenthesised formula text in iolog's grammar."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag in ("true", "false"):
        return tag
    if tag == "not":
        return "!" + to_text(f[1]) if f[1][0] == "atom" else f"!({to_text(f[1])})"
    return f"({to_text(f[1])} {_BINARY_TEXT[tag]} {to_text(f[2])})"


def norms_text(q: Query) -> str:
    return "".join(f"({to_text(b)}, {to_text(h)})\n" for b, h in q.norms)


def to_iolog(api, f):
    tag = f[0]
    if tag == "atom":
        return api.Atom(f[1])
    if tag == "true":
        return api.TOP
    if tag == "false":
        return api.BOTTOM
    if tag == "not":
        return api.Not(to_iolog(api, f[1]))
    cls = {"and": api.And, "or": api.Or, "implies": api.Implies}[tag]
    return cls(to_iolog(api, f[1]), to_iolog(api, f[2]))


_NODE_TAGS = {"And": "and", "Or": "or", "Implies": "implies"}


def from_iolog(f) -> tuple:
    kind = type(f).__name__
    if kind == "Atom":
        return ("atom", f.name)
    if kind == "Top":
        return TRUE
    if kind == "Bottom":
        return FALSE
    if kind == "Not":
        return ("not", from_iolog(f.operand))
    return (_NODE_TAGS[kind], from_iolog(f.left), from_iolog(f.right))


def _check_guards(q: Query, max_worlds: int = 0) -> None:
    n = len(query_atoms(q))
    if n > ATOM_LIMIT or max_worlds * n > SEARCH_BUDGET:
        raise AssertionError(f"generated query leaves the default guards: {n} atoms, {max_worlds} worlds")


# --- small-queries ----------------------------------------------------------

SMALL_QUERIES = 2000
SMALL_ENGINES = ("semantic", "triple", "derivation", "naive-out1", "naive-outpre")


def small_queries(seed: int, scale: float = 1.0) -> Pool:
    """Criterion-4 family: 3-5 atoms, 0-8 norms of depth 2, input depth 2, goal depth 3."""
    rng = random.Random(f"small-queries/{seed}")
    queries, ops = [], []
    for qi in range(max(1, round(SMALL_QUERIES * scale))):
        names = "abcde"[: rng.choice((3, 4, 5))]
        norms = tuple(
            (random_formula(rng, names, 2), random_formula(rng, names, 2))
            for _ in range(rng.randrange(9))
        )
        q = Query(norms, random_formula(rng, names, 2), random_formula(rng, names, 3))
        _check_guards(q)
        queries.append(q)
        ops.extend(Op(engine, qi) for engine in SMALL_ENGINES)
    return Pool("small-queries", seed, tuple(queries), tuple(ops), warmup=min(len(ops), 500))


# --- wide-entail -------------------------------------------------------------

# Atom counts in pool order, in the ratio 3:6:2.  By cost the ops fall
# into tiers: 8-atom ones (27% of ops), 10-atom semantic, triple and naive
# (the next 41%), 10-atom derivations (14%), 12-atom semantic, triple and
# naive (14%) and 12-atom derivations.  The median falls inside the second
# tier and the 90th percentile inside the fourth, not on the edge between
# two.
WIDE_PATTERN = (8, 10, 12, 10, 8, 10, 10, 12, 10, 8, 10)
WIDE_QUERIES = 44
WIDE_ENGINES = ("semantic", "triple", "derivation", "naive-out1")
WIDE_NORMS = 4


def _wide_query(rng: random.Random, n: int, holds: bool) -> Query | None:
    names = "abcdefghijkl"[:n]
    shuffled = rng.sample(names, n)
    # The input is a conjunction of two-literal clauses over disjoint atoms,
    # so it mentions every atom and entails no single literal.
    clauses = [("or", literal(rng, shuffled[i]), literal(rng, shuffled[i + 1])) for i in range(0, n, 2)]
    input = conj(clauses)
    norms = []
    for k in range(WIDE_NORMS):
        a, b, c = rng.sample(names, 3)
        if k % 2 == 0:
            # entailed by the input: a clause of the input, weakened
            body = ("or", rng.choice(clauses), literal(rng, a))
        else:
            body = ("and", literal(rng, a), literal(rng, b))
        head = rng.choice((("or", literal(rng, b), literal(rng, c)), ("and", literal(rng, b), literal(rng, c))))
        norms.append((body, head))
    rng.shuffle(norms)
    triggered = [h for b, h in norms if b[0] == "or"]
    untriggered = [h for b, h in norms if b[0] == "and"]
    if holds:
        return Query(tuple(norms), input, ("or", conj(triggered), literal(rng, rng.choice(names))))
    # A goal that fails but that the naive unfolding still validates, so the
    # naive engine enumerates every valuation instead of stopping wherever a
    # counterexample happens to fall.  None when no such goal is at hand.
    for u, t in itertools.product(untriggered, triggered):
        q = Query(tuple(norms), input, ("or", u, ("not", t)))
        ref = Reference(q)
        if not ref.semantic() and ref.naive("out1"):
            return q
    return None


def wide_entail(seed: int, scale: float = 1.0) -> Pool:
    rng = random.Random(f"wide-entail/{seed}")
    queries, ops = [], []
    seen = collections.Counter()
    for qi in range(max(1, round(WIDE_QUERIES * scale))):
        n = WIDE_PATTERN[qi % len(WIDE_PATTERN)]
        # at each atom count every other goal holds
        q = None
        while q is None:
            q = _wide_query(rng, n, holds=seen[n] % 2 == 0)
        seen[n] += 1
        _check_guards(q)
        queries.append(q)
        ops.extend(Op(engine, qi) for engine in WIDE_ENGINES)
    return Pool("wide-entail", seed, tuple(queries), tuple(ops), warmup=len(WIDE_ENGINES))


# --- countermodel ------------------------------------------------------------

# One stratum per entry: (kind, atoms, max_worlds, mode, engine).  Kind
# "found-1" is a model found at one world, "found-2-3" one found at two or
# three worlds, "absent" a search that finds nothing.  By cost the pool
# falls into four tiers of 4, 2, 2 and 2 tenths: finds (under 3 ms), out1
# absent at 3 atoms x 3 worlds (about 30 ms), outpre absent over about
# 4.5k models (about 140 ms) and out1 absent at 3 atoms x 4 worlds (about
# 290 ms).  The median falls inside the second tier and the 90th
# percentile inside the last; absent queries have a fixed shape, so each
# tier costs about the same from seed to seed.
CM_PATTERN = (
    ("found-1", 3, 4, "out1", "find"),
    ("absent", 3, 3, "out1", "find"),
    ("absent", 3, 4, "out1", "lifted"),
    ("found-2-3", 2, 4, "outpre", "find"),
    ("found-1", 4, 3, "outpre", "find"),
    ("absent", 3, 3, "out1", "lifted"),
    ("absent", 4, 3, "outpre", "find"),
    ("found-2-3", 3, 4, "out1", "lifted"),
    ("absent", 3, 4, "outpre", "find"),
    ("absent", 3, 4, "out1", "find"),
)
CM_QUERIES = 150
CM_NORMS = 2


def shaped_formula(rng: random.Random, names, leaves: int) -> tuple:
    """A random formula with exactly ``leaves`` literals."""
    if leaves == 1:
        return literal(rng, rng.choice(names))
    left = rng.randint(1, leaves - 1)
    op = rng.choice(("and", "or", "implies"))
    return (op, shaped_formula(rng, names, left), shaped_formula(rng, names, leaves - left))


def _random_cm_query(rng: random.Random, names) -> Query:
    norms = tuple(
        (random_formula(rng, names, 2), random_formula(rng, names, 1))
        for _ in range(rng.randint(1, 4))
    )
    return Query(norms, random_formula(rng, names, 2), random_formula(rng, names, 2))


def _absent_cm_query(rng: random.Random, names) -> Query:
    """A query that holds in every model, in both modes: its first norm's
    body covers the input and its head is the goal.

    The shape is fixed so that every model of the search costs about the
    same: the covering norm comes first, where the search meets it first,
    and every head is a disjunction of two literals, so the goal holds at
    three quarters of the valuations.
    """

    def head():
        a, b = rng.sample(names, 2)
        return ("or", literal(rng, a), literal(rng, b))

    body, goal = shaped_formula(rng, names, 3), head()
    others = tuple((shaped_formula(rng, names, 3), head()) for _ in range(CM_NORMS - 1))
    return Query(((body, goal),) + others, ("and", body, literal(rng, rng.choice(names))), goal)


def countermodel(seed: int, scale: float = 1.0) -> Pool:
    rng = random.Random(f"countermodel/{seed}")
    queries, ops = [], []
    for qi in range(max(len(CM_PATTERN), round(CM_QUERIES * scale))):
        kind, n, max_worlds, mode, engine = CM_PATTERN[qi % len(CM_PATTERN)]
        names = "abcd"[:n]
        wanted = {"found-1": (1,), "found-2-3": (2, 3)}.get(kind)
        while True:
            if wanted is None:
                # absent by construction; the check after the timed loop confirms it
                q = _absent_cm_query(rng, names)
                if len(query_atoms(q)) == n:
                    break
            else:
                q = _random_cm_query(rng, names)
                if len(query_atoms(q)) == n and Reference(q).falsifying_size(mode, max(wanted)) in wanted:
                    break
        _check_guards(q, max_worlds)
        queries.append(q)
        ops.append(Op(engine if engine == "lifted" else f"countermodel-{mode}", qi, (max_worlds,)))
    return Pool("countermodel", seed, tuple(queries), tuple(ops), warmup=len(CM_PATTERN) // 2)


# --- cli -----------------------------------------------------------------------

# One command per entry, as (subcommand, engine or mode, format, max worlds).
# Two in ten runs are ``examples``, so the 90th percentile falls inside them.
CLI_PATTERN = (
    ("check", "semantic", "text", None),
    ("check", "triple", "structured", None),
    ("examples", None, "text", None),
    ("check", "derivation", "text", None),
    ("check", "lifted", "structured", 2),
    ("countermodel", "out1", "text", 3),
    ("naive", "out1", "structured", None),
    ("examples", None, "structured", None),
    ("countermodel", "outpre", "structured", 3),
    ("naive", "outpre", "text", None),
)
CLI_QUERIES = 120


def cli(seed: int, scale: float = 1.0) -> Pool:
    rng = random.Random(f"cli/{seed}")
    queries, ops = [], []
    for qi in range(max(1, round(CLI_QUERIES * scale))):
        names = "abc"[: rng.choice((2, 3))]
        norms = tuple(
            (random_formula(rng, names, 2), random_formula(rng, names, 1))
            for _ in range(rng.randint(1, 4))
        )
        q = Query(norms, random_formula(rng, names, 2), random_formula(rng, names, 2))
        command = CLI_PATTERN[qi % len(CLI_PATTERN)]
        _check_guards(q, command[3] or 0)
        queries.append(q)
        ops.append(Op("cli", qi, command))
    # the warm-up runs the first ``examples`` too, the slowest command
    return Pool("cli", seed, tuple(queries), tuple(ops), warmup=CLI_PATTERN.index(("examples", None, "text", None)) + 1)


GENERATORS = {
    "small-queries": small_queries,
    "wide-entail": wide_entail,
    "countermodel": countermodel,
    "cli": cli,
}


def build(workload: str, seed: int, scale: float = 1.0) -> Pool:
    return GENERATORS[workload](seed, scale)


def cli_argv(pool: Pool, op: Op, norms_path: str) -> list[str]:
    """The iolog command line for one cli op."""
    sub, variant, fmt, max_worlds = op.params
    argv = [sub]
    if sub != "examples":
        q = pool.queries[op.query]
        argv += ["--norms", norms_path, "--input", to_text(q.input), "--goal", to_text(q.goal)]
        argv += ["--engine" if sub == "check" else "--mode", variant]
    if max_worlds is not None:
        argv += ["--max-worlds", str(max_worlds)]
    return argv + ["--format", fmt]
