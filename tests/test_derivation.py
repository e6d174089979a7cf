"""Proof trees: structural conclusions, the checker, and the canonical builder."""

import functools
import itertools
import json
import random
import re
import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import formulas, norm_sets, random_formula, random_norm_set
from pointwise import (
    per_entailment_triggered,
    recursive_conclusion,
    recursive_derivation_to_dict,
    recursive_render_derivation,
    recursive_verify_derivation,
)
from iolog import (
    AND,
    DEFAULT_ATOM_LIMIT,
    SO,
    TOP,
    WI,
    And,
    Atom,
    AtomLimitError,
    AxiomLeaf,
    CheckFailure,
    Derivation,
    Norm,
    NormSet,
    Or,
    TopIntro,
    check_derivation,
    conclusion,
    construct_derivation,
    derivation_from_dict,
    derivation_to_dict,
    derive_verdict,
    out1_member,
    parse_formula,
    parse_norms,
    render_derivation,
    verify_derivation,
)
from iolog import derivation, entail
from iolog.entail import _Tables
from iolog.output import _query_names

A, B, C, E = Atom("a"), Atom("b"), Atom("c"), Atom("e")
TWO_NORMS = parse_norms("(a, e)\n(b, e)")
ONE_NORM = parse_norms("(a, e)")


class TestConclusion:
    def test_top_axiom(self):
        assert conclusion(TopIntro()) == Norm(TOP, TOP)

    def test_axiom_leaf(self):
        assert conclusion(AxiomLeaf(Norm(A, E))) == Norm(A, E)

    def test_and_conjoins_heads(self):
        d = AND(AxiomLeaf(Norm(A, B)), AxiomLeaf(Norm(A, C)))
        assert conclusion(d) == Norm(A, And(B, C))

    def test_so_replaces_head(self):
        d = SO(AxiomLeaf(Norm(A, E)), Or(E, B))
        assert conclusion(d) == Norm(A, Or(E, B))

    def test_wi_replaces_body(self):
        d = WI(AxiomLeaf(Norm(A, E)), And(A, B))
        assert conclusion(d) == Norm(And(A, B), E)


class TestChecker:
    def test_accepts_input_strengthening(self):
        d = WI(AxiomLeaf(Norm(A, E)), And(A, B))
        assert check_derivation(ONE_NORM, d, Norm(And(A, B), E)) is True

    def test_rejects_widening_to_a_disjunction(self):
        # a | b does not entail a, so WI may not move the body there.
        d = WI(AxiomLeaf(Norm(A, E)), Or(A, B))
        assert check_derivation(ONE_NORM, d, Norm(Or(A, B), E)) is False

    def test_rejects_leaf_outside_the_norm_set(self):
        d = AxiomLeaf(Norm(B, E))
        assert check_derivation(ONE_NORM, d, Norm(B, E)) is False

    def test_rejects_so_weakening_to_non_consequence(self):
        d = SO(AxiomLeaf(Norm(A, E)), B)
        assert check_derivation(ONE_NORM, d, Norm(A, B)) is False

    def test_rejects_and_with_mismatched_bodies(self):
        d = AND(AxiomLeaf(Norm(A, E)), AxiomLeaf(Norm(B, E)))
        assert check_derivation(TWO_NORMS, d, Norm(A, And(E, E))) is False

    def test_rejects_wrong_goal(self):
        d = AxiomLeaf(Norm(A, E))
        assert check_derivation(ONE_NORM, d, Norm(B, E)) is False


class TestFailureReports:
    def test_reports_path_to_tampered_leaf(self):
        d = WI(AxiomLeaf(Norm(B, E)), And(A, B))
        failure = verify_derivation(ONE_NORM, d, Norm(And(A, B), E))
        assert failure is not None
        assert failure.path == ("premise",)
        assert "not in the norm set" in failure.reason

    def test_reports_violated_side_condition_at_root(self):
        d = WI(AxiomLeaf(Norm(A, E)), Or(A, B))
        failure = verify_derivation(ONE_NORM, d, Norm(Or(A, B), E))
        assert failure is not None
        assert failure.path == ()
        assert "WI side condition" in failure.reason
        assert "at root" in str(failure)

    def test_reports_goal_mismatch_last(self):
        d = AxiomLeaf(Norm(A, E))
        failure = verify_derivation(ONE_NORM, d, Norm(A, B))
        assert failure is not None
        assert "does not match goal" in failure.reason

    def test_accepted_tree_reports_nothing(self):
        d = AxiomLeaf(Norm(A, E))
        assert verify_derivation(ONE_NORM, d, Norm(A, E)) is None


class TestConstruct:
    def test_direct_input_yields_wi_then_so(self):
        d = construct_derivation(TWO_NORMS, A, E)
        assert isinstance(d, SO)
        assert isinstance(d.premise, WI)
        assert isinstance(d.premise.premise, AxiomLeaf)
        assert conclusion(d) == Norm(A, E)
        assert check_derivation(TWO_NORMS, d, Norm(A, E)) is True

    def test_disjunctive_input_has_no_derivation(self):
        assert construct_derivation(TWO_NORMS, Or(A, B), E) is None

    def test_two_triggered_norms_need_one_and_node(self):
        ns = parse_norms("(a, h1)\n(a, h2)")
        goal = parse_formula("h1 & h2")
        assert out1_member(ns, A, goal).holds is True
        d = construct_derivation(ns, A, goal)
        assert d is not None

        def count_ands(node):
            if isinstance(node, AND):
                return 1 + count_ands(node.left) + count_ands(node.right)
            if isinstance(node, (SO, WI)):
                return count_ands(node.premise)
            return 0

        assert count_ands(d) == 1
        assert check_derivation(ns, d, Norm(A, goal)) is True

    def test_tautological_goal_routes_through_top(self):
        d = construct_derivation(NormSet(), A, Or(B, parse_formula("!b")))
        assert d is not None
        assert isinstance(d, SO)
        assert isinstance(d.premise, WI)
        assert isinstance(d.premise.premise, TopIntro)
        assert check_derivation(NormSet(), d, Norm(A, Or(B, parse_formula("!b")))) is True

    def test_verdict_carries_certificate_and_engine_tag(self):
        verdict = derive_verdict(TWO_NORMS, A, E)
        assert verdict.holds is True
        assert verdict.engine == "derivation"
        assert conclusion(verdict.certificate) == Norm(A, E)
        missing = derive_verdict(TWO_NORMS, Or(A, B), E)
        assert missing.holds is False
        assert missing.certificate is None


class TestSoundness:
    def test_accepted_derivations_imply_semantic_membership(self):
        """Anything the checker accepts really is in the output set, including
        mutated trees that happen to still pass checking."""
        rng = random.Random(53)
        accepted = 0
        for _ in range(120):
            ns = random_norm_set(rng)
            a = random_formula(rng, depth=2)
            x = random_formula(rng, depth=2)
            d = construct_derivation(ns, a, x)
            if d is None:
                continue
            # mutate: widen the input or weaken the output once more
            mutation = rng.randrange(3)
            if mutation == 1:
                a = And(a, random_formula(rng, depth=1))
                d = WI(d, a)
            elif mutation == 2:
                x = Or(x, random_formula(rng, depth=1))
                d = SO(d, x)
            if check_derivation(ns, d, Norm(a, x)):
                accepted += 1
                assert out1_member(ns, a, x).holds
        assert accepted > 0


class TestRendering:
    def test_top_line(self):
        assert render_derivation(TopIntro()) == "TOP ⊢ (true, true)"

    def test_axiom_line(self):
        assert render_derivation(AxiomLeaf(Norm(A, E))) == "AX ⊢ (a, e)"

    def test_children_are_indented(self):
        d = WI(AxiomLeaf(Norm(A, E)), And(A, B))
        assert render_derivation(d).splitlines() == [
            "WI ⊢ (a & b, e)",
            "  AX ⊢ (a, e)",
        ]


TOP_NODE = {"rule": "TOP", "conclusion_body": "true", "conclusion_head": "true", "premises": []}


def wi_node(*premises) -> dict:
    return {"rule": "WI", "conclusion_body": "a", "conclusion_head": "true", "param": "a",
            "premises": list(premises)}


class TestStructuredForm:
    def test_record_fields(self):
        d = SO(WI(AxiomLeaf(Norm(A, E)), And(A, B)), Or(E, C))
        nodes = derivation_to_dict(d)["nodes"]
        assert [r["rule"] for r in nodes] == ["AX", "WI", "SO"]
        root = nodes[-1]
        assert root["conclusion_body"] == "a & b"
        assert root["conclusion_head"] == "e | c"
        assert root["param"] == "e | c"
        assert root["premises"] == [1]
        assert "param" not in nodes[0]

    def test_round_trip_preserves_tree_and_conclusion(self):
        rng = random.Random(59)
        seen = 0
        for _ in range(80):
            ns = random_norm_set(rng)
            a = random_formula(rng, depth=2)
            x = random_formula(rng, depth=2)
            d = construct_derivation(ns, a, x)
            if d is None:
                continue
            seen += 1
            reparsed = derivation_from_dict(json.loads(json.dumps(derivation_to_dict(d))))
            assert reparsed == d
            assert conclusion(reparsed) == conclusion(d)
        assert seen > 0

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule tag 'XX'"):
            derivation_from_dict({"nodes": [{"rule": "XX", "premises": []}]})

    @pytest.mark.parametrize(
        "premise", [1, 2, -1, True, False, 0.0, "0", None], ids=lambda p: f"{p!r}"
    )
    def test_a_premise_must_index_a_node_before_it(self, premise):
        """Index 1 is the citing node itself, 2 comes after it, -1 would wrap round and a
        bool would read as 0 or 1: only the int 0 indexes a node built before node 1."""
        record = {"nodes": [TOP_NODE, wi_node(premise)]}
        with pytest.raises(ValueError):
            derivation_from_dict(record)
        record["nodes"][1] = wi_node(0)
        assert derivation_from_dict(record) == WI(TopIntro(), A)

    @pytest.mark.parametrize(
        "nodes",
        [
            [TOP_NODE, {"rule": "AND", "premises": [0, 0]}],
            [TOP_NODE, wi_node(0), wi_node(0), {"rule": "AND", "premises": [1, 2]}],
        ],
        ids=["twice-by-one-node", "once-by-each-of-two-nodes"],
    )
    def test_a_node_cited_twice_is_rejected(self, nodes):
        with pytest.raises(ValueError, match="cites premises"):
            derivation_from_dict({"nodes": nodes})

    def test_a_shared_chain_is_rejected_before_it_unfolds(self):
        """Sixty records, each citing the one before it twice, would stand for a tree of
        2^60 nodes; the reader refuses it at the second record."""
        nodes = [TOP_NODE] + [{"rule": "AND", "premises": [i, i]} for i in range(60)]
        with pytest.raises(ValueError, match="node 1 "):
            derivation_from_dict({"nodes": nodes})

    @pytest.mark.parametrize(
        "nodes",
        [
            [{"rule": "AX", "conclusion_body": "p", "conclusion_head": "q", "premises": []},
             TOP_NODE],
            [TOP_NODE, wi_node(0), TOP_NODE],
        ],
        ids=["stray-AX", "stray-WI"],
    )
    def test_a_node_no_node_cites_is_rejected(self, nodes):
        """Such a node is not part of the tree, so the checker would never see it."""
        with pytest.raises(ValueError, match="cited by no node"):
            derivation_from_dict({"nodes": nodes})

    @pytest.mark.parametrize("premises", ["", {}, (), 0, None, "0"], ids=repr)
    def test_premises_must_be_a_list(self, premises):
        """An empty string, dict or tuple would pass for TOP on its arity alone."""
        with pytest.raises(ValueError):
            derivation_from_dict({"nodes": [{**TOP_NODE, "premises": premises}]})

    @pytest.mark.parametrize(
        "node",
        [
            {**TOP_NODE, "premises": [0]},
            wi_node(),
            wi_node(0, 0),
            {"rule": "SO", "param": "e", "premises": []},
            {"rule": "AND", "premises": [0]},
            {"rule": "AND", "premises": [0, 0, 0]},
        ],
        ids=["TOP/1", "WI/0", "WI/2", "SO/0", "AND/1", "AND/3"],
    )
    def test_wrong_arity_rejected(self, node):
        with pytest.raises(ValueError, match="cites premises"):
            derivation_from_dict({"nodes": [TOP_NODE, node]})

    @pytest.mark.parametrize(
        "record",
        [
            {},
            {"nodes": []},
            {"nodes": "x"},
            {"nodes": {"rule": "TOP", "premises": []}},
            {"nodes": [["not", "a", "record"]]},
            {"nodes": [{"premises": []}]},
            {"nodes": [{"rule": "TOP"}]},
            {"nodes": [TOP_NODE, {"rule": "SO", "premises": [0]}]},
            {"nodes": [{"rule": "AX", "premises": []}]},
            {"nodes": [{**TOP_NODE, "rule": "AX", "conclusion_body": ["#"]}]},
            {"nodes": [TOP_NODE, {**wi_node(0), "param": ["#"]}]},
            ["not", "a", "record"],
        ],
    )
    def test_malformed_record_raises_value_error(self, record):
        with pytest.raises(ValueError):
            derivation_from_dict(record)

    def test_a_misstated_conclusion_is_rejected(self):
        """Every record but the leaves states (q, z): the tree it cites still checks,
        so the reader must compare each stated conclusion with the one derived."""
        norms = parse_norms("(a, e)\n(b, f)")
        d = construct_derivation(norms, And(A, B), parse_formula("e & f"))
        record = derivation_to_dict(d)
        assert [r["rule"] for r in record["nodes"]] == ["AX", "WI", "AX", "WI", "AND", "SO"]
        for r in record["nodes"]:
            if r["rule"] != "AX":
                r.update(conclusion_body="q", conclusion_head="z")
        with pytest.raises(ValueError, match=r"node 1 \(WI\) misstates its conclusion"):
            derivation_from_dict(record)

    @pytest.mark.parametrize("field", ["conclusion_body", "conclusion_head"])
    @pytest.mark.parametrize("index", [1, 3, 4, 5])
    def test_each_stated_conclusion_is_checked(self, index, field):
        norms = parse_norms("(a, e)\n(b, f)")
        record = derivation_to_dict(construct_derivation(norms, And(A, B), parse_formula("e & f")))
        assert derivation_from_dict(record) is not None
        record["nodes"][index][field] += " | q"
        with pytest.raises(ValueError, match=f"node {index} "):
            derivation_from_dict(record)

    @pytest.mark.parametrize("body", ["(p)", "p ", "p&q"])
    def test_a_conclusion_is_stated_as_print_formula_prints_it(self, body):
        """A leaf's norm reads from its stated conclusion, which must be in printed form."""
        node = {"rule": "AX", "conclusion_body": body, "conclusion_head": "q", "premises": []}
        with pytest.raises(ValueError, match=r"node 0 \(AX\) misstates"):
            derivation_from_dict({"nodes": [node]})

    def test_a_nested_record_is_rejected(self):
        """The nested form, one record per node holding its premises as ``children``,
        no longer reads."""
        nested = {
            "rule": "SO", "conclusion_body": "a", "conclusion_head": "e", "param": "e",
            "children": [{"rule": "AX", "conclusion_body": "a", "conclusion_head": "e",
                          "children": []}],
        }
        with pytest.raises(ValueError):
            derivation_from_dict(nested)


def sample_tree(rules: dict, input, output):
    """A tree that uses all five rules, each node made of ``rules.get(its rule class)``
    or else of the rule class itself."""
    top, ax, so, wi, and_ = (rules.get(c, c) for c in (TopIntro, AxiomLeaf, SO, WI, AND))
    return so(and_(wi(ax(Norm(A, E)), input), wi(top(), input)), output)


class TestSubclassedRuleNodes:
    """A node of a subclass of a rule class, at any depth, reads as that rule everywhere."""

    @pytest.mark.parametrize("rule, depth", [
        pytest.param(rule, depth, id="My" * (depth - 1) + rule.__name__)
        for depth in (1, 2) for rule in (TopIntro, AxiomLeaf, SO, WI, AND)
    ])
    # Accepted; failing the WI side condition; failing the SO side condition.
    @pytest.mark.parametrize("input, output", [(And(A, B), E), (Or(A, B), E), (And(A, B), C)])
    def test_reads_as_its_rule(self, rule, depth, input, output):
        base = sample_tree({}, input, output)
        cls = rule
        for _ in range(depth):
            cls = type(f"My{cls.__name__}", (cls,), {})
        sub = sample_tree({rule: cls}, input, output)
        assert sub != base
        assert conclusion(sub) == conclusion(base)
        for norms in (ONE_NORM, NormSet(())):  # without (a, e) the leaf is rejected
            goal = Norm(input, output)
            assert verify_derivation(norms, sub, goal) == verify_derivation(norms, base, goal)
        assert derivation_to_dict(sub) == derivation_to_dict(base)
        assert render_derivation(sub) == render_derivation(base)
        assert derivation_from_dict(json.loads(json.dumps(derivation_to_dict(sub)))) == base


class _Impostor:
    """Not a derivation, though it carries a rule entry as a rule class does."""

    _rule = ("TOP", (), None, lambda d, done: Norm(TOP, TOP))


# Each reader refuses a node that is not a derivation carrying a rule, wherever it sits.
@pytest.mark.parametrize("read", [
    conclusion, lambda d: verify_derivation(ONE_NORM, d, Norm(A, E)), derivation_to_dict,
    render_derivation,
], ids=["conclusion", "verify_derivation", "derivation_to_dict", "render_derivation"])
@pytest.mark.parametrize("bad", [
    Derivation(), type("Unruled", (Derivation,), {})(), "x", _Impostor(),
], ids=["bare", "unruled-subclass", "str", "impostor"])
@pytest.mark.parametrize("place", [
    lambda bad: bad, lambda bad: SO(bad, E), lambda bad: SO(AND(TopIntro(), WI(bad, A)), E),
], ids=["root", "premise", "deep"])
def test_a_node_without_a_rule_is_not_a_derivation(read, bad, place):
    with pytest.raises(TypeError, match=f"^{re.escape(f'not a derivation: {bad!r}')}$"):
        read(place(bad))


NAMES = ("a", "b", "c")
SMALL_FORMULAS = formulas(NAMES, max_leaves=3)
QUERY_FORMULAS = formulas(NAMES, max_leaves=4)
NORM_SETS = norm_sets(NAMES, max_norms=5)
POOL = parse_norms("(a, e)\n(b, e)\n(a, b)\n(a | b, c)\n(true, a)\n(c, a & b)\n(a, e & b)")
TREES = st.recursive(
    st.one_of(st.just(TopIntro()), st.sampled_from(POOL.norms).map(AxiomLeaf)),
    lambda sub: st.one_of(
        st.builds(SO, sub, SMALL_FORMULAS),
        st.builds(WI, sub, SMALL_FORMULAS),
        st.builds(AND, sub, sub),
    ),
    max_leaves=6,
)


@st.composite
def random_trees(draw):
    """A norm set drawn from ``POOL``, a tree of random rules over the norms of
    ``POOL``, and a goal that is the tree's own conclusion half of the time."""
    norms = NormSet(tuple(draw(st.lists(st.sampled_from(POOL.norms), max_size=4))))
    tree = draw(TREES)
    goal = recursive_conclusion(tree)
    if draw(st.booleans()):
        goal = Norm(draw(SMALL_FORMULAS), draw(SMALL_FORMULAS))
    return norms, tree, goal


def tamper(d, rng, f):
    """``d`` with one node on a random path from the root changed by way of ``f``."""
    if isinstance(d, AND) and rng.random() < 0.7:
        if rng.random() < 0.5:
            return AND(tamper(d.left, rng, f), d.right)
        return AND(d.left, tamper(d.right, rng, f))
    if isinstance(d, SO) and rng.random() < 0.7:
        return SO(tamper(d.premise, rng, f), d.output)
    if isinstance(d, WI) and rng.random() < 0.7:
        return WI(tamper(d.premise, rng, f), d.input)
    return rng.choice(
        [
            SO(d, f),
            WI(d, f),
            AxiomLeaf(Norm(f, f)),
            TopIntro(),
            SO(d.premise, f) if isinstance(d, SO) else WI(d.premise, f) if isinstance(d, WI) else d,
        ]
    )


class LabelledNorm(Norm):
    """A norm of a subclass: equal fields, yet never equal to a plain ``Norm``."""


def outcome(check, *args, **kwargs):
    """What ``check`` returns, or the fields of the ``AtomLimitError`` it raises."""
    try:
        return check(*args, **kwargs)
    except AtomLimitError as exc:
        return AtomLimitError, exc.count, exc.limit


@st.composite
def tampered_certificates(draw):
    """A canonical certificate with one node changed, and the goal it was built for."""
    norms, input, goal = draw(NORM_SETS), draw(QUERY_FORMULAS), draw(QUERY_FORMULAS)
    d = construct_derivation(norms, input, goal)
    if d is None:  # no proof exists: conjoin every norm anyway, a tree that fails its checks
        leaves = [WI(AxiomLeaf(n), input) for n in norms] or [WI(TopIntro(), input)]
        d = SO(functools.reduce(AND, leaves), goal)
    d = tamper(d, draw(st.randoms(use_true_random=False)), draw(SMALL_FORMULAS))
    return norms, d, Norm(input, goal)


def tampered_at(d, changes, positions=None):
    """``d`` rebuilt with ``changes[p]`` applied to the node at pre-order position ``p``,
    after its premises are rebuilt; ``positions`` numbers the nodes as they are walked."""
    positions = positions or itertools.count()
    position = next(positions)
    if isinstance(d, AND):
        d = AND(tampered_at(d.left, changes, positions), tampered_at(d.right, changes, positions))
    elif isinstance(d, SO):
        d = SO(tampered_at(d.premise, changes, positions), d.output)
    elif isinstance(d, WI):
        d = WI(tampered_at(d.premise, changes, positions), d.input)
    return changes[position](d) if position in changes else d


# Each rule's tampering: one that keeps the node's rule and can break its side condition.
BREAK = {
    AxiomLeaf: lambda d, f: AxiomLeaf(Norm(f, f)),
    WI: lambda d, f: WI(d.premise, f),
    SO: lambda d, f: SO(d.premise, f),
    AND: lambda d, f: AND(d.left, WI(d.right, f)),
}


@st.composite
def twice_tampered_certificates(draw):
    """A canonical certificate with two nodes of two different rules (AX, WI, SO, AND)
    tampered, at positions drawn from its pre-order, and the goal it was built for."""
    norms, input, goal = draw(NORM_SETS), draw(QUERY_FORMULAS), draw(QUERY_FORMULAS)
    d = construct_derivation(norms, input, goal)
    if d is None:
        leaves = [WI(AxiomLeaf(n), input) for n in norms] or [WI(TopIntro(), input)]
        d = SO(functools.reduce(AND, leaves), goal)
    nodes = [node for node, *_ in derivation._walk(d)[0]]
    positions = [p for p, node in enumerate(nodes) if type(node) in BREAK]
    first = draw(st.sampled_from(positions))
    others = [p for p in positions if type(nodes[p]) is not type(nodes[first])]
    assume(others)
    second = draw(st.sampled_from(others))
    f, g = draw(SMALL_FORMULAS), draw(SMALL_FORMULAS)
    changes = {first: lambda n: BREAK[type(n)](n, f), second: lambda n: BREAK[type(n)](n, g)}
    return norms, tampered_at(d, changes), Norm(input, goal)


class TestAgainstRecursiveReference:
    """The one bottom-up pass against the recursive walks it replaced: same conclusion,
    same first failure (path and reason), same rendering."""

    @staticmethod
    def check(norms, d, goal):
        concluded = conclusion(d)  # a Norm, not the walk's (body, head) pair
        assert type(concluded) is Norm and concluded == recursive_conclusion(d)
        # Below the tree's atom count no table is shared, and each side condition is decided
        # over its own atoms, raising where they exceed the limit.  Each limit is checked
        # twice: the second call reads the atom names the first left in the ``_atoms`` slots.
        for limit in (0, 1, 2, 3, 4, DEFAULT_ATOM_LIMIT):
            expected = outcome(recursive_verify_derivation, norms, d, goal, limit)
            for _ in range(2):
                assert outcome(verify_derivation, norms, d, goal, atom_limit=limit) == expected
        # The tree's own conclusion as a goal of a subclass, which no built Norm equals.
        labelled = LabelledNorm(concluded.body, concluded.head)
        expected = recursive_verify_derivation(norms, d, labelled)
        assert verify_derivation(norms, d, labelled) == expected
        assert derivation_to_dict(d) == recursive_derivation_to_dict(d)
        assert render_derivation(d) == recursive_render_derivation(d)

    @settings(max_examples=300)
    @given(random_trees())
    def test_random_trees(self, case):
        self.check(*case)

    @settings(max_examples=300)
    @given(tampered_certificates())
    def test_tampered_certificates(self, case):
        self.check(*case)

    @settings(max_examples=300)
    @given(twice_tampered_certificates())
    def test_two_tampered_nodes_report_the_first_in_pre_order(self, case):
        self.check(*case)

    @settings(max_examples=300)
    @given(random_trees())
    def test_records_round_trip_through_json(self, case):
        """Every premise comes before the node citing it, each node but the root is cited
        once, and the JSON text reads back as the same tree."""
        tree = case[1]
        record = derivation_to_dict(tree)
        nodes = record["nodes"]
        assert all(p < i for i, r in enumerate(nodes) for p in r["premises"])
        cited = sorted(p for r in nodes for p in r["premises"])
        assert cited == list(range(len(nodes) - 1))
        assert derivation_from_dict(json.loads(json.dumps(record))) == tree

    @settings(max_examples=300)
    @given(random_trees(), st.data())
    def test_a_misstated_conclusion_is_named_by_its_index(self, case, data):
        """A leaf's stated conclusion is its norm; any other node's must be the one its
        premises and parameter give it."""
        nodes = derivation_to_dict(case[1])["nodes"]
        inner = [i for i, r in enumerate(nodes) if r["rule"] != "AX"]
        assume(inner)
        index = data.draw(st.sampled_from(inner))
        field = data.draw(st.sampled_from(["conclusion_body", "conclusion_head"]))
        nodes[index][field] = f"!({nodes[index][field]})"
        with pytest.raises(ValueError, match=f"node {index} "):
            derivation_from_dict({"nodes": nodes})

    def test_a_leaf_concludes_its_own_norm(self):
        """A leaf at the root concludes the norm it holds, of whatever class: that norm
        matches a goal of its class and no other."""
        norm = LabelledNorm(A, E)
        norms = NormSet((norm,))
        assert conclusion(AxiomLeaf(norm)) is norm
        assert verify_derivation(norms, AxiomLeaf(norm), LabelledNorm(A, E)) is None
        failure = verify_derivation(norms, AxiomLeaf(norm), Norm(A, E))
        assert failure == CheckFailure((), "conclusion (a, e) does not match goal (a, e)")
        wi = WI(AxiomLeaf(norm), A)  # any other node's conclusion is a plain Norm
        assert type(conclusion(wi)) is Norm
        assert verify_derivation(norms, wi, LabelledNorm(A, E)).path == ()

    def test_shared_subtree_is_checked_and_written_at_each_place(self):
        leaf = WI(AxiomLeaf(Norm(A, B)), A)
        d = AND(leaf, leaf)
        failure = verify_derivation(ONE_NORM, d, Norm(A, And(B, B)))
        assert failure == recursive_verify_derivation(ONE_NORM, d, Norm(A, And(B, B)))
        assert failure.path == ("left", "premise")
        record = json.loads(json.dumps(derivation_to_dict(d)))
        assert [r["rule"] for r in record["nodes"]] == ["AX", "WI", "AX", "WI", "AND"]
        assert record == recursive_derivation_to_dict(d)
        assert derivation_from_dict(record) == d


WIDE_NAMES = tuple("abcdef")


class TestTriggering:
    """``_Tables.triggered`` against one public entailment per norm: on shared tables by one
    AND per norm, and past them each over its own atoms, raising where they exceed the limit."""

    @settings(max_examples=300)
    @given(norm_sets(WIDE_NAMES, max_norms=5), formulas(WIDE_NAMES, max_leaves=4))
    def test_against_one_entailment_per_norm(self, norms, input):
        names = _query_names(norms, input)
        for limit in (*range(8), DEFAULT_ATOM_LIMIT):
            tables = _Tables(names, limit)
            assert tables.shared == (len(names) <= limit)
            expected = outcome(lambda: list(per_entailment_triggered(norms, input, limit)))
            assert outcome(tables.triggered, input, norms) == expected


class TestThreads:
    def test_threads_sharing_one_norm_set_and_certificate_agree(self):
        """Four threads derive and check over one norm set, whose atom names the first call
        fills, and one certificate: no call shares state with another."""
        norms = parse_norms("".join(f"(a | p{i}, e{i})\n(b & p{i}, f)\n" for i in range(6)))
        input, goal, f = map(parse_formula, ("a & c", "e0 & e5", "f"))
        certificate = derive_verdict(NormSet(norms.norms), input, goal).certificate
        wrong = SO(certificate.premise, f)
        start, results = threading.Barrier(4, timeout=30), [None] * 4

        def run(k):
            start.wait()
            results[k] = [
                (derive_verdict(norms, input, goal),
                 verify_derivation(norms, certificate, Norm(input, goal)),
                 verify_derivation(norms, wrong, Norm(input, f)))
                for _ in range(20)
            ]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that the calls can overlap
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        failure = verify_derivation(norms, wrong, Norm(input, f))
        assert failure.path == () and failure.reason.startswith("SO side condition fails: e0 & ")
        expected = (derive_verdict(norms, input, goal), None, failure)
        assert results == [[expected] * 20] * 4


class TestOneSetOfTables:
    """``verify_derivation`` builds one set of truth tables per call and decides every side
    condition on it; where the tree's atoms fit, it never asks the public ``entails``."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        class Recorded(_Tables):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append((self.names, self.shared))

        monkeypatch.setattr(derivation, "_Tables", Recorded)
        return built

    @staticmethod
    def verify_twice_and_a_wrong_weakening():
        norms = parse_norms("(a, e)\n(b, f)\n(c, g)")
        input, goal = parse_formula("a & b"), parse_formula("e & f")
        certificate = derive_verdict(norms, input, goal).certificate
        for _ in range(2):
            assert verify_derivation(norms, certificate, Norm(input, goal)) is None
        wrong = SO(certificate.premise, parse_formula("e & g"))
        failure = verify_derivation(norms, wrong, Norm(input, parse_formula("e & g")))
        assert failure.reason == "SO side condition fails: e & f does not entail e & g"

    def test_each_call_builds_one_shared_set(self, built):
        self.verify_twice_and_a_wrong_weakening()
        assert built == [(list("abef"), True)] * 2 + [(list("abefg"), True)]

    def test_a_tree_whose_atoms_fit_never_asks_the_public_entails(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an entailment was decided over its own atoms")

        monkeypatch.setattr(entail, "counterexample_valuation", refuse)
        self.verify_twice_and_a_wrong_weakening()

    def test_only_so_heads_are_split_and_each_mask_is_computed_once(self, monkeypatch):
        """Three WI nodes over one conjunctive input: the input is one premise, whose mask
        is read from the memo after the first; only the root SO's head is split."""
        split, computed = [], []
        conjuncts, truth_mask = derivation._conjuncts, entail._truth_mask

        def record_split(f):
            split.append(f)
            return conjuncts(f)

        def record_mask(f, *args):
            computed.append(f)  # held, so no two formulas here share an id
            return truth_mask(f, *args)

        monkeypatch.setattr(derivation, "_conjuncts", record_split)
        monkeypatch.setattr(entail, "_truth_mask", record_mask)
        norms = parse_norms("(a, e)\n(b, f)\n(c, g)")
        input, goal = parse_formula("a & b & c"), parse_formula("e & f & g")
        certificate = derive_verdict(norms, input, goal).certificate
        assert [type(n) for n, *_ in derivation._walk(certificate)[0]].count(WI) == 3
        split.clear()
        computed.clear()  # derive_verdict's own tables
        assert verify_derivation(norms, certificate, Norm(input, goal)) is None
        assert split == [conclusion(certificate.premise).head]
        assert any(f is input for f in computed)
        assert len({id(f) for f in computed}) == len(computed)

    def test_past_the_limit_one_set_decides_each_entailment_over_its_own(self, built):
        """Four atoms in the tree, a limit of 2: the set shares no table, and each side
        condition, over two atoms, is decided as the public ``entails`` would; at a limit
        of 1 the first of them in pre-order, the root's SO, is refused."""
        norms = parse_norms("(a, e)\n(b, f)")
        input, goal = parse_formula("a & b"), parse_formula("e & f")
        certificate = derive_verdict(norms, input, goal).certificate
        assert verify_derivation(norms, certificate, Norm(input, goal), atom_limit=2) is None
        with pytest.raises(AtomLimitError) as err:
            verify_derivation(norms, certificate, Norm(input, goal), atom_limit=1)
        assert (err.value.count, err.value.limit) == (2, 1)
        assert built == [(list("abef"), False)] * 2


class TestDeepCertificates:
    """The combined head of n triggered norms is n conjunctions deep; checking its
    certificate must not recurse once per norm."""

    @pytest.mark.parametrize("n", [1200, 3000])
    def test_derive_verdicts_own_certificate_is_accepted(self, n):
        norms = parse_norms("(a, e)\n" * n)
        verdict = derive_verdict(norms, A, E)
        assert verdict.holds
        assert conclusion(verdict.certificate) == Norm(A, E)
        assert verify_derivation(norms, verdict.certificate, Norm(A, E)) is None

    def test_a_deep_tampered_leaf_is_found(self):
        norms = parse_norms("(a, e)\n" * 1200)
        certificate = derive_verdict(norms, A, E).certificate
        d = SO(AND(certificate.premise, WI(AxiomLeaf(Norm(A, B)), A)), E)
        failure = verify_derivation(norms, d, Norm(A, E))
        assert failure.path == ("premise", "right", "premise")
        assert failure.reason == "axiom (a, b) is not in the norm set"

    def test_the_record_of_600_triggered_norms_reads_back_through_json(self):
        norms = parse_norms("(a, e)\n" * 600)
        record = derivation_to_dict(derive_verdict(norms, A, E).certificate)
        rebuilt = derivation_from_dict(json.loads(json.dumps(record)))
        assert derivation_to_dict(rebuilt) == record
        assert verify_derivation(norms, rebuilt, Norm(A, E)) is None

    def test_a_misstated_head_of_600_conjuncts_is_found(self):
        norms = parse_norms("(a, e)\n" * 600)
        record = derivation_to_dict(derive_verdict(norms, A, E).certificate)
        nodes = record["nodes"]
        nodes[-2]["conclusion_head"] = " & ".join(["e"] * 599)
        with pytest.raises(ValueError, match=f"node {len(nodes) - 2} \\(AND\\)"):
            derivation_from_dict(json.loads(json.dumps(record)))

    def test_the_certificate_of_600_triggered_norms_renders(self):
        certificate = derive_verdict(parse_norms("(a, e)\n" * 600), A, E).certificate
        nodes = derivation_to_dict(certificate)["nodes"]
        assert [r["rule"] for r in nodes[-2:]] == ["AND", "SO"]
        assert nodes[-2]["conclusion_head"] == " & ".join(["e"] * 600)
        lines = render_derivation(certificate).split("\n")
        assert len(lines) == len(nodes) == 3 * 600
        assert lines[1] == f"  AND ⊢ (a, {nodes[-2]['conclusion_head']})"

    def test_a_3000_deep_record_reads_back(self):
        record = {"nodes": [TOP_NODE] + [wi_node(i) for i in range(3000)]}
        assert conclusion(derivation_from_dict(record)) == Norm(A, TOP)
