"""Local search answers bound calls from answer sets it already holds.

Once a pattern's unbound answer set is held (searched, or tabled for a
recursive pattern), every bound call to it in the same ``space.version`` is
answered through a hash index keyed by the bound parameter positions; the
tabling bases are indexed the same way. Below an enumeration, a call step
whose rows hold more distinct keys than its plan's threshold solves the
callee unbound before its first key, so that set is held from then on.
These tests check that the indexed answers equal the unbound set filtered
by the binding, that no index outlives a change of the space, when a bound
call builds an unbound set, and the plan cost of a partly bound call.
"""

import collections
import itertools
import random

import pytest

from gtvm import corpus
from gtvm.corpus.fixtures import ESTRING, G1, Graph1Builder, load_fixture
from gtvm.errors import UnknownTypeError
from gtvm.matcher_ls import AnswerSet, LocalSearchMatcher
from gtvm.modelspace import ENTITY
from gtvm.oracle import BruteForce, edge_pairs, transitive_connected, warshall
from gtvm.patterns import EntityC, FindC
from gtvm.vtcl import link, parse

TC = "graphPatterns.transitiveConnected"
TEM = "graphPatterns.transitiveEdgeMissing"


def matcher_for(space):
    return LocalSearchMatcher(space, corpus.library_program(space.registry).patterns)


def library(ls):
    return sorted(n for n in ls.patterns if n.startswith("graphPatterns."))


def cycle(n: int):
    space = load_fixture("empty")
    b = Graph1Builder(space)
    nodes = [b.node(f"n{i}") for i in range(n)]
    for a, c in zip(nodes, nodes[1:] + nodes[:1]):
        b.edge(a, c)
    return space


def chain(n: int):
    space = load_fixture("empty")
    b = Graph1Builder(space)
    nodes = [b.node(f"n{i}") for i in range(n)]
    for a, c in zip(nodes, nodes[1:]):
        b.edge(a, c)
    return space


def oracle_set(space, brute, name):
    """The match set of ``name`` by an oracle: the closure for the two
    transitive patterns, brute force for the rest."""
    if name not in (TC, TEM):
        return brute.match_set(name)
    graph = space.elements_of_type(G1 + "Graph")[0]
    pairs = edge_pairs(space)
    closure = {(a, b, graph) for a, b in transitive_connected(pairs)}
    return closure if name == TC else {t for t in closure if t[:2] not in pairs}


def filtered(tuples, positions, key):
    return frozenset(t for t in tuples if tuple(t[i] for i in positions) == key)


def keys(space, tuples, positions):
    """Up to two keys taken from matches, and one made of live elements
    that no match has at those positions."""
    out = sorted({tuple(t[i] for i in positions) for t in tuples})[:2]
    columns = [{t[i] for t in tuples} for i in positions]
    absent = [next((e for e in space.iter_elements() if e not in col), None)
              for col in columns]
    if None not in absent:
        out.append(tuple(absent))
    return out


FIXTURES = [("random", 1), ("random", 2), ("random", 3), ("cycle", 0)]


def fixture(kind, seed):
    if kind == "cycle":
        return cycle(9)
    return load_fixture("random", n=20, e=40, seed=seed)


@pytest.mark.parametrize(
    "kind,seed,shuffle", [(k, s, False) for k, s in FIXTURES] + [(k, s, True) for k, s in FIXTURES],
    ids=[f"{k}-{s}" for k, s in FIXTURES] + [f"{k}-{s}-shuffle" for k, s in FIXTURES])
def test_bound_calls_equal_the_filtered_unbound_set(kind, seed, shuffle):
    """Shuffled plans take the same memo and materialization path."""
    space = fixture(kind, seed)
    rng = random.Random(seed) if shuffle else None
    warm = matcher_for(space)
    warm.shuffle = rng
    brute = BruteForce(space, warm.patterns)
    for name in library(warm):
        p = warm.patterns[name]
        everything = warm.match_set(name)  # held from here on: the index path
        assert everything == oracle_set(space, brute, name), name
        cold = matcher_for(space)  # no unbound set of `name` held: the search path
        cold.shuffle = rng
        for r in range(1, len(p.params) + 1):
            for positions in itertools.combinations(range(len(p.params)), r):
                for key in keys(space, everything, positions):
                    binding = {p.params[i]: v for i, v in zip(positions, key)}
                    want = filtered(everything, positions, key)
                    assert warm.match_set(name, binding) == want, (name, binding)
                    assert cold.match_set(name, binding) == want, (name, binding)
                    assert warm.count(name, binding) == len(want)


def test_held_set_serves_bound_calls_without_search():
    space = load_fixture("random", n=20, e=40, seed=1)
    ls = matcher_for(space)
    name = "graphPatterns.edgeFromToInGraph"
    ls.match_set(name)
    memo = dict(ls._memo)
    for node in space.elements_of_type(G1 + "Node"):
        ls.match_set(name, {"From": node})
    assert ls._memo == memo  # every bound call came from the index


def test_bound_call_builds_no_unbound_set():
    space = load_fixture("random", n=20, e=40, seed=1)
    ls = matcher_for(space)
    name = "graphPatterns.edgeFromToInGraph"
    node = space.elements_of_type(G1 + "Node")[0]
    ls.match_set(name, {"From": node})
    assert name not in ls._held


EFT = "graphPatterns.edgeFromTo"
CIRCLE = "graphPatterns.circleOfThreeNode"


def memo_entries(ls, name):
    return sum(1 for key in ls._memo if key[0] == name)


def test_top_level_bound_call_materializes_nothing():
    space = load_fixture("random", n=20, e=40, seed=1)
    ls = matcher_for(space)
    brute = BruteForce(space, ls.patterns)
    sources = collections.Counter(
        f for _, f, _ in brute.match_set("graphPatterns.srcAndRelForEdge"))
    x = next(n for n, k in sources.items() if k >= 2)
    # edgeFromTo(From=x) calls trgAndRelForEdge bound once per out-edge of x;
    # no enumeration is under way, so every call is searched by its key
    assert ls.match_set(EFT, {"From": x}) == filtered(brute.match_set(EFT), (0,), (x,))
    assert memo_entries(ls, "graphPatterns.trgAndRelForEdge") >= 2
    assert not ls._held, sorted(ls._held)


def test_enumeration_materializes_what_it_calls_bound_again():
    space = load_fixture("random", n=20, e=40, seed=1)
    ls = matcher_for(space)
    assert ls.match_set(CIRCLE) == BruteForce(space, ls.patterns).match_set(CIRCLE)
    for name in ("edgeFromTo", "srcAndRelForEdge", "trgAndRelForEdge"):
        name = "graphPatterns." + name
        assert name in ls._held, name
        # a step run with many keys solved it unbound before asking any
        # key; a run with few keys may have searched some before that
        assert memo_entries(ls, name) <= 1, name


def test_materialization_starts_over_after_a_change():
    space = load_fixture("random", n=20, e=40, seed=1)
    ls = matcher_for(space)
    ls.match_set(CIRCLE)
    graph = space.elements_of_type(G1 + "Graph")[0]
    nodes = space.elements_of_type(G1 + "Node")
    added = add_edge(space, graph, nodes[0], nodes[1])
    # the first read after the change, a top-level bound one, is searched
    want = filtered(BruteForce(space, ls.patterns).match_set(EFT), (0,), (nodes[0],))
    assert ls.match_set(EFT, {"From": nodes[0]}) == want
    assert EFT not in ls._held and (EFT, (0,), (nodes[0],)) in ls._memo
    # and after another change, each step run of an enumeration decides
    # from its own rows and this version's answer sets only: it does what
    # it does on a fresh matcher
    space.delete(added)
    cold = matcher_for(space)
    assert ls.match_set(CIRCLE) == cold.match_set(CIRCLE)
    assert ls._memo.keys() == cold._memo.keys()
    assert ls._held.keys() == cold._held.keys()


def add_edge(space, graph, src, trg):
    edge = space.new_entity(G1 + "Edge", graph)
    space.new_relation(G1 + "Graph.edges", graph, edge)
    space.new_relation(G1 + "Edge.src", edge, src)
    space.new_relation(G1 + "Edge.trg", edge, trg)
    return edge


def check_against_oracles(space, ls):
    brute = BruteForce(space, ls.patterns)
    nodes = space.elements_of_type(G1 + "Node")
    for name in library(ls):
        p = ls.patterns[name]
        full = oracle_set(space, brute, name)
        assert ls.match_set(name) == full, name
        for param in p.params:
            for node in nodes[:4]:
                pos = p.params.index(param)
                assert ls.match_set(name, {param: node}) == \
                    filtered(full, (pos,), (node,)), (name, param, node)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_index_outlives_a_change(seed):
    space = load_fixture("random", n=12, e=24, seed=seed)
    ls = matcher_for(space)
    check_against_oracles(space, ls)  # every set held, indexes built
    graph = space.elements_of_type(G1 + "Graph")[0]
    nodes = space.elements_of_type(G1 + "Node")
    added = add_edge(space, graph, nodes[0], nodes[-1])
    check_against_oracles(space, ls)
    space.delete(added)
    space.delete(space.elements_of_type(G1 + "Edge")[0])
    check_against_oracles(space, ls)


def test_tables_are_redone_after_a_non_recursive_query():
    space = load_fixture("random", n=10, e=20, seed=1)
    ls = matcher_for(space)
    ls.match_set(TC)
    space.delete(space.elements_of_type(G1 + "Edge")[0])
    ls.count("graphPatterns.SimpleNode")  # the first query after the change
    graph = space.elements_of_type(G1 + "Graph")[0]
    want = {(a, b, graph) for a, b in transitive_connected(edge_pairs(space))}
    assert ls.match_set(TC) == want


@pytest.mark.parametrize("space", [chain(30), cycle(12)], ids=["chain30", "cycle12"])
def test_tabling_equals_the_closure_oracle(space):
    graph = space.elements_of_type(G1 + "Graph")[0]
    want = {(a, b, graph) for a, b in transitive_connected(edge_pairs(space))}
    assert matcher_for(space).match_set(TC) == want
    bound_first = matcher_for(space)  # tables built for a bound call
    for node in space.elements_of_type(G1 + "Node"):
        assert bound_first.match_set(TC, {"To": node}) == \
            filtered(want, (1,), (node,))


ODD = """
machine paths{
  @localsearch
  shareable pattern odd(X,Y) = {
    find graphPatterns.edgeFromTo(X,Y);
  } or {
    find graphPatterns.edgeFromTo(X,Z);
    find odd(Z,W);
    find odd(W,Y);
  }
}
"""


@pytest.mark.parametrize("space", [chain(17), cycle(7), load_fixture("random", n=9, e=14, seed=2)],
                         ids=["chain17", "cycle7", "random9"])
def test_two_call_tabling_reads_growing_tables(space):
    # a body with two in-cycle calls runs naive rounds that look both calls
    # up by a bound position in the whole tables, whose indexes must take
    # the tuples each round adds
    program = link([corpus.load_machine("graphPatterns"), parse(ODD)], space.registry)
    ls = LocalSearchMatcher(space, program.patterns)
    edges = edge_pairs(space)
    even = warshall({(a, c) for a, b in edges for b2, c in edges if b == b2})
    odd_walks = edges | {(a, c) for a, b in edges for b2, c in even if b == b2}
    assert ls.match_set("paths.odd") == odd_walks


def test_answer_set_index_takes_added_tuples():
    answers = AnswerSet({(1, 2), (1, 3), (2, 3)}, 2)
    first, second = answers.reader((0,)), answers.reader((1,))
    assert sorted(first((1,))) == [(1, 2), (1, 3)]
    assert sorted(second((3,))) == [(1, 3), (2, 3)]
    answers.add({(1, 4), (4, 3)})
    # readers taken before the add read the added tuples too
    assert sorted(first((1,))) == [(1, 2), (1, 3), (1, 4)]
    assert sorted(second((3,))) == [(1, 3), (2, 3), (4, 3)]
    assert list(answers.reader((0, 1))((4, 3))) == [(4, 3)]
    assert list(answers.reader((0, 1))((3, 4))) == []
    assert answers.reader(())(()) == answers.tuples
    assert list(first((9,))) == []


def test_partly_bound_call_ranks_ahead_of_a_type_scan():
    space = load_fixture("random", n=8, e=16, seed=1)
    ls = matcher_for(space)
    p = ls.patterns["graphPatterns.edgeFromToInternal"]
    prog = ls._program(p, 0, ())
    # one call unbound, the other through the bound edge; both node
    # constraints are then filters, so no node type is scanned
    assert [type(c) for c in prog.plan] == [FindC, EntityC, FindC, EntityC]
    assert [r is None for r in prog.rows] == [False, True, False, True]


def supers_conforms(space, eid, type_name):
    """The definition ``ModelSpace.conforms`` had: a walk up each type's
    supertype chain."""
    space.registry.info(type_name)
    return any(type_name in space.registry.supers(t) for t in space.types(eid))


def test_conforms_agrees_with_the_supertype_chains():
    space = load_fixture("random", n=20, e=40, seed=1)
    registry = space.registry
    registry.register("test.Base", ENTITY)
    registry.register("test.Mid", ENTITY, "test.Base")
    registry.register("test.Leaf", ENTITY, "test.Mid")
    registry.register("test.Other", ENTITY)
    two = space.new_entity("test.Leaf")
    space.add_type(two, "test.Other")
    also = space.new_entity(ESTRING)
    space.add_type(also, "test.Mid")
    names = [t.name for t in registry.all_types()]
    for eid in space.iter_elements():
        for t in names:
            assert space.conforms(eid, t) == supers_conforms(space, eid, t), (eid, t)
    assert space.conforms(two, "test.Base") and space.conforms(two, "test.Other")
    assert not space.conforms(two, ESTRING)
    for t in names:
        assert space.count_of_type(t) >= len(space.elements_of_type(t))
    assert space.count_of_type(G1 + "Node") == 20
    with pytest.raises(UnknownTypeError):
        space.conforms(two, "test.Missing")
