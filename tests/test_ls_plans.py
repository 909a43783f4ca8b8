"""Local-search plans follow one row estimate, read from the model's counts.

``schedule`` orders each body for the fewest estimated rows, and the same
estimate tells a call step under an enumeration when its callee is worth
solving unbound. A body is planned once, on the model at its first use, and
that plan is kept for the matcher's life. These tests pin the plans and the
materialization the estimate gives on the benchmark's n=300 model, that a
plan is kept, and still right, however the model changes after it, and that
the Rete, which plans without a model, builds the networks it built before.
"""

import pytest

from gtvm import corpus
from gtvm.corpus.fixtures import G1, load_fixture
from gtvm.matcher_ls import LocalSearchMatcher
from gtvm.oracle import BruteForce
from gtvm.patterns import EntityC, FindC, NegC, schedule
from gtvm.rete import ReteEngine

GP = "graphPatterns."
SRC, TRG = GP + "srcAndRelForEdge", GP + "trgAndRelForEdge"


@pytest.fixture(scope="module")
def model():
    space = load_fixture("random", n=300, e=600, seed=7)
    return space, corpus.library_program(space.registry).patterns


def program(ls, name, bound=()):
    """The plan of ``name``'s first body with the parameters ``bound``."""
    p = ls.patterns[name]
    return ls._program(p, 0, tuple(sorted(map(p.params.index, bound))))


def steps(prog):
    """Each step as (constraint kind, type or callee, creates rows)."""
    return [(type(c).__name__, getattr(c, "type", None) or getattr(c, "pattern", None),
             r is not None) for c, r in zip(prog.plan, prog.rows)]


@pytest.mark.parametrize("name,rel", [(SRC, "Edge.src"), (TRG, "Edge.trg")])
def test_an_unbound_end_pattern_leads_with_its_relation(model, name, rel):
    """The relation scan binds the edge and the node, so both type checks
    after it are filters."""
    space, patterns = model
    prog = program(LocalSearchMatcher(space, patterns), name)
    assert steps(prog) == [("RelationC", G1 + rel, True), ("EntityC", G1 + "Node", False),
                           ("EntityC", G1 + "Edge", False)]
    assert prog.rows[0] == space.count_of_type(G1 + rel)


def test_a_bound_edge_in_graph_tests_the_pair_first(model):
    """With From, To and Graph bound, ``edgeFromToInGraph`` checks the graph,
    asks ``edgeFromToInternal`` for the pair, and reads ``Graph.edges``
    with both ends bound: it no longer scans the graph and walks all its
    edges."""
    space, patterns = model
    prog = program(LocalSearchMatcher(space, patterns), GP + "edgeFromToInGraph",
                   ("From", "To", "Graph"))
    assert steps(prog) == [("EntityC", G1 + "Graph", False),
                           ("FindC", GP + "edgeFromToInternal", True),
                           ("RelationC", G1 + "Graph.edges", True)]
    assert prog.rows[1] < 1 and prog.rows[2] < 1


def test_an_unbound_edge_reads_one_callee_unbound_and_the_other_by_edge(model):
    space, patterns = model
    prog = program(LocalSearchMatcher(space, patterns), GP + "edgeFromToInternal")
    (first, *_), calls = prog.plan, [c for c in prog.plan if isinstance(c, FindC)]
    assert first is calls[0] and {c.pattern for c in calls} == {SRC, TRG}
    assert calls[1].args[0] == "Edge"
    assert [type(c) for c in prog.plan] == [FindC, EntityC, FindC, EntityC]
    assert [r is None for r in prog.rows] == [False, True, False, True]


def test_each_step_keeps_its_estimate(model):
    """A plan holds the rows each step is estimated to create (None for a
    filter), and for each call how many distinct keys a step run needs for
    an unbound solve to pay."""
    space, patterns = model
    ls = LocalSearchMatcher(space, patterns)
    prog = program(ls, GP + "isolatedNode")
    assert [type(c) for c in prog.plan] == [EntityC, NegC, NegC]
    assert prog.rows == [space.count_of_type(G1 + "Node"), None, None]
    assert prog.keys[0] is None and all(k > 1 for k in prog.keys[1:])


class HeldLog(dict):
    """A matcher's ``_held``, which logs every pattern solved unbound."""

    def __init__(self):
        super().__init__()
        self.log = []

    def __setitem__(self, name, answers):
        self.log.append(name)
        super().__setitem__(name, answers)


def test_a_call_with_few_keys_left_is_searched_key_by_key(model):
    """A cold ``isolatedNode`` scans the nodes and drops every source. The
    nodes left are few, so it searches ``trgAndRelForEdge`` for each of
    them and never solves its 570 tuples; the 300 sources' call is worth
    an unbound solve."""
    space, patterns = model
    ls = LocalSearchMatcher(space, patterns)
    held = ls._held = HeldLog()
    nodes = set(space.elements_of_type(G1 + "Node"))
    sources = {space.target(r) for r in space.elements_of_type(G1 + "Edge.src")}
    targets = {space.target(r) for r in space.elements_of_type(G1 + "Edge.trg")}
    assert ls.match_set(GP + "isolatedNode") == {(n,) for n in nodes - sources - targets}
    assert held.log == [SRC, GP + "isolatedNode"]
    searched = [key for key in ls._memo if key[0] == TRG]
    assert len(searched) == len(nodes - sources) < len(nodes) // 4
    assert all(key[1] == (1,) for key in searched)


def test_a_call_with_many_keys_left_is_solved_unbound(model):
    """The unbound ``edgeFromToInternal`` reads one callee unbound and the
    other for each of its edges: that call has many distinct keys, so its
    step solves its callee unbound before the first key, and the index
    answers every key; no key is searched."""
    space, patterns = model
    ls = LocalSearchMatcher(space, patterns)
    held = ls._held = HeldLog()
    ls.match_set(GP + "edgeFromToInternal")
    assert sorted(held.log[:2]) == [SRC, TRG] and held.log[2:] == [GP + "edgeFromToInternal"]
    assert [key for key in ls._memo if key[0] in (SRC, TRG)] == []


def run_call_step(space, patterns, monkeypatch, rows, enumerating):
    """Prepare a ``trgAndRelForEdge`` call bound by ``To``, with a threshold
    of 2.5 keys, over ``rows`` and read each row's key, on a fresh matcher
    with ``enumerating`` enumerations under way. Returns the matcher, the
    ``_solve`` calls that ``prepare`` made, then those the reads made, and
    what was read."""
    ls = LocalSearchMatcher(space, patterns)
    ls._enumerating = enumerating
    asked, solve = [], ls._solve

    def logged(p, positions, key):
        asked.append((p.name, positions, key))
        return solve(p, positions, key)
    monkeypatch.setattr(ls, "_solve", logged)
    _, row_key, prepare = ls._call(FindC(TRG, ("Edge", "To", "R")), {"To": 0}, 2.5)
    read = prepare(ls, None, rows)
    prepared = asked[:]
    got = [set(read(row_key(row))) for row in rows]
    return ls, prepared, asked[len(prepared):], got


def test_a_step_run_counts_its_distinct_keys_not_its_rows(model, monkeypatch):
    """A call step decides once per run, from its rows' distinct keys.
    Below an enumeration, four rows with two keys, against a threshold of
    2.5 keys, make no unbound solve (the rows would be more than the
    threshold): each key is searched, and a key asked again is a memo hit.
    Three keys make exactly one unbound solve, before any key is asked,
    and the index answers every key. With no enumeration under way, three
    keys are searched one by one."""
    space, patterns = model
    a, b, c = sorted(space.elements_of_type(G1 + "Node"))[:3]
    want = {n: LocalSearchMatcher(space, patterns).match_set(TRG, {"To": n}) for n in (a, b, c)}

    rows = [(a,), (a,), (b,), (a,)]
    ls, prepared, read, got = run_call_step(space, patterns, monkeypatch, rows, 1)
    assert prepared == [] and read == [(TRG, (1,), row) for row in rows]
    assert got == [want[n] for n, in rows]
    assert TRG not in ls._held
    assert sorted(key for key in ls._memo if key[0] == TRG) == [(TRG, (1,), (a,)), (TRG, (1,), (b,))]

    rows = [(a,), (b,), (c,), (a,)]
    ls, prepared, read, got = run_call_step(space, patterns, monkeypatch, rows, 1)
    assert prepared == [(TRG, (), ())] and read == []
    assert got == [want[n] for n, in rows]
    assert TRG in ls._held and not ls._memo

    ls, prepared, read, got = run_call_step(space, patterns, monkeypatch, rows, 0)
    assert prepared == [] and read == [(TRG, (1,), row) for row in rows]
    assert got == [want[n] for n, in rows]
    assert TRG not in ls._held


def simple_node_plans(space, monkeypatch):
    """A matcher with the plan of ``SimpleNode`` compiled, the plan, and
    the list of the matcher's ``schedule`` calls from then on."""
    import gtvm.matcher_ls as matcher_ls
    ls = LocalSearchMatcher(space, corpus.library_program(space.registry).patterns)
    ls.match_set(GP + "SimpleNode")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return schedule(*args, **kwargs)
    monkeypatch.setattr(matcher_ls, "schedule", counted)
    return ls, ls._plans[(GP + "SimpleNode", 0, ())], calls


def test_a_plan_is_kept_while_the_model_grows_and_empties(monkeypatch):
    """``SimpleNode``, planned on 8 nodes, keeps that plan while the space
    grows to 40 nodes and then empties: ``schedule`` is never called
    again, and the count follows the model all along."""
    space = load_fixture("empty")
    nodes = [space.new_entity(G1 + "Node") for _ in range(8)]
    ls, prog, calls = simple_node_plans(space, monkeypatch)
    assert prog.rows == [8]
    while len(nodes) < 40:
        nodes.append(space.new_entity(G1 + "Node"))
        assert ls.count(GP + "SimpleNode") == len(nodes)
    while nodes:
        space.delete(nodes.pop())
        assert ls.count(GP + "SimpleNode") == len(nodes)
    assert calls == [] and ls._plans[(GP + "SimpleNode", 0, ())] is prog


def test_a_plan_keeps_its_order_and_its_answers_after_the_counts_turn():
    """The unbound ``edgeFromToInternal`` reads its smaller callee unbound:
    ``srcAndRelForEdge`` while 2 edges have a source and 8 a target. Once
    20 have a source, a plan made afresh would read ``trgAndRelForEdge``
    unbound; the kept plan still reads ``srcAndRelForEdge`` first, and its
    matches are still the Rete's and the oracle's."""
    name = GP + "edgeFromToInternal"
    space = load_fixture("empty")
    patterns = corpus.library_program(space.registry).patterns
    nodes = [space.new_entity(G1 + "Node") for _ in range(8)]
    for k in range(8):
        edge = space.new_entity(G1 + "Edge")
        space.new_relation(G1 + "Edge.trg", edge, nodes[k])
        if k < 2:
            space.new_relation(G1 + "Edge.src", edge, nodes[k + 1])
    ls = LocalSearchMatcher(space, patterns)
    assert len(ls.match_set(name)) == 2
    prog = ls._plans[(name, 0, ())]
    assert prog.plan[0].pattern == SRC
    for k in range(18):
        space.new_relation(G1 + "Edge.src", space.new_entity(G1 + "Edge"), nodes[k % 8])
    assert program(LocalSearchMatcher(space, patterns), name).plan[0].pattern == TRG
    rete = ReteEngine(space, patterns).register(name)
    assert ls.match_set(name) == rete.match_tuples() == BruteForce(space, patterns).match_set(name)
    assert ls._plans[(name, 0, ())] is prog


# the Rete plans without a model: its networks are the ones it built before
# the local search planned by estimate
NETWORKS = {
    "edgeFromToInGraph": [
        ("TypeAlpha", ("$e",)), ("JoinNode", ("From",)),
        ("TypeAlpha", ("$r", "$s", "$t")), ("JoinNode", ("From", "SourceRelation", "Edge")),
        ("TypeAlpha", ("$e",)), ("JoinNode", ("From", "SourceRelation", "Edge")),
        ("ProductionNode", ("Edge", "From", "SourceRelation")),
        ("JoinNode", ("To",)), ("TypeAlpha", ("$r", "$s", "$t")),
        ("JoinNode", ("To", "TargetRelation", "Edge")),
        ("JoinNode", ("To", "TargetRelation", "Edge")),
        ("ProductionNode", ("Edge", "To", "TargetRelation")),
        ("JoinNode", ("From",)), ("JoinNode", ("From", "Edge", "SourceRelation")),
        ("JoinNode", ("From", "Edge", "SourceRelation", "To", "TargetRelation")),
        ("JoinNode", ("From", "Edge", "SourceRelation", "To", "TargetRelation")),
        ("ProductionNode", ("Edge", "From", "To")),
        ("TypeAlpha", ("$e",)), ("JoinNode", ("Graph",)),
        ("TypeAlpha", ("$r", "$s", "$t")), ("JoinNode", ("Graph", "EdgesRelation", "Edge")),
        ("JoinNode", ("Graph", "EdgesRelation", "Edge", "From", "To")),
        ("ProductionNode", ("From", "To", "Graph"))],
}
NETWORKS["transitiveEdgeMissing2hop"] = NETWORKS["edgeFromToInGraph"] + [
    ("JoinNode", ("From", "Inner", "Graph")), ("JoinNode", ("From", "Inner", "Graph", "To")),
    ("CountNode", ("From", "Inner", "Graph", "To")), ("ProductionNode", ("From", "To", "Graph"))]


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_the_rete_builds_the_networks_it_built_before(name):
    space = load_fixture("random", n=8, e=16, seed=1)
    engine = ReteEngine(space, corpus.library_program(space.registry).patterns)
    engine.register(GP + name)
    assert [(type(n).__name__, n.schema) for n in engine.nodes] == NETWORKS[name]

