"""Local-search filter steps that test the whole row list natively.

A bound entity constraint ``T(X)`` keeps the rows that
``ModelSpace.conforming`` gives, and the repeated-name and distinctness tests
on a step's candidates are one generated comprehension per shape
(``matcher_ls.candidate_filter``). These tests check both against the Rete
and the brute-force oracle, where a held id set would go stale, and how
often each read runs.
"""

import re
from pathlib import Path

from gtvm import corpus, matcher_ls
from gtvm.corpus.fixtures import ESTRING, G1, load_fixture
from gtvm.matcher_ls import LocalSearchMatcher, binding_key, candidate_filter
from gtvm.modelspace import ModelSpace
from gtvm.oracle import BruteForce
from gtvm.patterns import EntityC
from gtvm.rete import ReteEngine
from gtvm.vtcl import link, parse

G2 = "nemf.packages.graph2."

FILTERS = """
import nemf.packages;
import nemf.ecore.datatypes;
machine filters{
  pattern componentText(C,T) = {
    graph2.GraphComponent.text(R,C,T);
    graph2.GraphComponent(C);
  }
  pattern node(N) = {
    graph1.Node(N);
  }
  pattern anyRelation(R,X,Y) = {
    relation(R,X,Y);
  }
  shareable pattern anyRelationShared(R,X,Y) = {
    relation(R,X,Y);
  }
  shareable pattern edgeAndNode(E,X,Y,Z) = {
    find graphPatterns.edgeFromToInternal(E,X,Y);
    graph1.Node(Z);
  }
  pattern loopBesideNode(E,X,Z) = {
    find edgeAndNode(E,X,X,Z);
  }
}
"""


def program_for(space):
    return link([corpus.load_machine("graphPatterns"), parse(FILTERS)], space.registry)


class Voices:
    """One long-lived local search and Rete over ``space`` (their plans and
    networks are kept across edits), and a fresh oracle for every read."""

    def __init__(self, space):
        self.space = space
        self.patterns = program_for(space).patterns
        self.ls = LocalSearchMatcher(space, self.patterns)
        self.rete = ReteEngine(space, self.patterns)

    def agree(self, name: str, binding: dict | None = None) -> frozenset:
        p = self.patterns["filters." + name]
        want = BruteForce(self.space, self.patterns).match_set(p.name, binding)
        inc = self.rete.register(p.name).match_tuples(*binding_key(self.space, p, binding))
        assert self.ls.match_set(p.name, binding) == want, (name, binding)
        assert set(inc) == want, (name, binding)
        return want


def graph2_model():
    """A graph2 model whose GraphComponent subtypes Node and Edge both hold
    elements, each component with a text."""
    space = ModelSpace(corpus.metamodels())
    graph = space.new_entity(G2 + "Graph")
    nodes = [space.new_entity(G2 + "Node", graph) for _ in range(3)]
    edges = [space.new_entity(G2 + "Edge", graph) for _ in range(2)]
    for i, c in enumerate(nodes + edges):
        text = space.new_entity(ESTRING, c)
        space.set_value(text, f"t{i}")
        space.new_relation(G2 + "GraphComponent.text", c, text)
    space.new_relation(G2 + "Edge.src", edges[0], nodes[0])
    space.new_relation(G2 + "Edge.trg", edges[0], nodes[1])
    return space, nodes, edges


def add_edge(space) -> int:
    (graph,) = space.elements_of_type(G2 + "Graph")
    edge = space.new_entity(G2 + "Edge", graph)
    text = space.new_entity(ESTRING, edge)
    space.new_relation(G2 + "GraphComponent.text", edge, text)
    return edge


def test_a_bound_supertype_with_two_subtypes_holding_elements():
    space, nodes, edges = graph2_model()
    voices = Voices(space)
    for c in nodes + edges:
        assert len(voices.agree("componentText", {"C": c})) == 1
    # a text is no GraphComponent, and the graph is none either
    (graph,) = space.elements_of_type(G2 + "Graph")
    assert voices.agree("componentText", {"C": graph}) == frozenset()
    assert len(voices.agree("componentText")) == 5


def test_a_type_emptied_and_filled_again_between_two_reads():
    """Deleting a type's last element drops its id set from the index, and
    a new element brings a new set: no step may keep the old one."""
    space, nodes, edges = graph2_model()
    voices = Voices(space)
    assert len(voices.agree("componentText", {"C": edges[0]})) == 1
    assert len(voices.agree("componentText")) == 5
    for e in edges:
        space.delete(e)
    assert space.count_of_type(G2 + "Edge") == 0
    assert len(voices.agree("componentText", {"C": nodes[0]})) == 1
    assert len(voices.agree("componentText")) == 3
    new = add_edge(space)
    assert len(voices.agree("componentText", {"C": new})) == 1
    assert len(voices.agree("componentText")) == 4

    # a type with no subtype: graph1.Node
    tri = load_fixture("triangle")
    voices = Voices(tri)
    old = tri.elements_of_type(G1 + "Node")
    assert voices.agree("node", {"N": old[0]}) == {(old[0],)}
    for n in old:
        tri.delete(n)
    (graph,) = tri.elements_of_type(G1 + "Graph")
    assert voices.agree("node", {"N": graph}) == frozenset()
    fresh = tri.new_entity(G1 + "Node", graph)
    assert voices.agree("node", {"N": fresh}) == {(fresh,)}
    assert voices.agree("node") == {(fresh,)}


def test_an_untyped_relation_on_a_self_loop():
    """relation(R,X,Y) has three fresh elements: an injective pattern drops
    the self-loop relation whose ends are one node, a shareable one keeps it."""
    space = load_fixture("selfloop")
    node = space.elements_of_type(G1 + "Node")[0]
    loop = space.new_relation(None, node, node)
    voices = Voices(space)
    injective = voices.agree("anyRelation")
    shared = voices.agree("anyRelationShared")
    assert (loop, node, node) in shared and (loop, node, node) not in injective
    assert injective < shared
    for binding in ({"R": loop}, {"X": node}, {"Y": node}):
        voices.agree("anyRelation", binding)
        voices.agree("anyRelationShared", binding)


def test_a_repeated_fresh_name_beside_three_fresh_elements():
    """find edgeAndNode(E,X,X,Z): X repeats, and E, X and Z must differ."""
    for space in (load_fixture("selfloop"), load_fixture("random", n=5, e=8, seed=1)):
        voices = Voices(space)
        loops = voices.agree("loopBesideNode")
        nodes = len(space.elements_of_type(G1 + "Node"))
        looping = {e for e, _, _ in loops}
        assert loops and all(x != z for _, x, z in loops)
        assert len(loops) == len(looping) * (nodes - 1)
        for e, x, z in sorted(loops)[:3]:
            voices.agree("loopBesideNode", {"X": x})
            voices.agree("loopBesideNode", {"Z": z})
            voices.agree("loopBesideNode", {"E": e, "Z": x})


def test_one_generated_filter_per_shape():
    keep = candidate_filter(((0, 2),), (1, 3))
    assert keep is candidate_filter(((0, 2),), (1, 3))
    assert keep([(1, 2, 1, 3), (1, 2, 2, 3), (1, 2, 1, 2)]) == [(1, 2, 1, 3)]
    three = candidate_filter((), (0, 1, 2))
    assert three([(1, 2, 3), (1, 1, 3), (1, 2, 1), (3, 2, 2)]) == [(1, 2, 3)]
    assert candidate_filter((), (4,)) is None
    assert candidate_filter((), ()) is None


def test_no_per_row_test_lambdas_are_left():
    source = Path(matcher_ls.__file__).read_text(encoding="utf-8")
    assert "tests.append(lambda" not in source
    assert not re.search(r"\b(tests|static) = ", source)


def test_a_bound_entity_step_reads_the_type_sets_once(monkeypatch):
    """A bound ``T(X)`` step calls no ``rows_at`` reader and
    ``ModelSpace.conforming`` once per step run, however many rows it has."""
    calls = {"reader": 0, "conforming": 0}
    rows_at, conforming = ModelSpace.rows_at, ModelSpace.conforming

    def counted_rows_at(self, type_name, position):
        read = rows_at(self, type_name, position)

        def reader(key):
            calls["reader"] += 1
            return read(key)
        return reader

    def counted_conforming(self, type_name, column, rows):
        calls["conforming"] += 1
        return conforming(self, type_name, column, rows)

    monkeypatch.setattr(ModelSpace, "rows_at", counted_rows_at)
    monkeypatch.setattr(ModelSpace, "conforming", counted_conforming)

    tri = load_fixture("triangle")
    ls = LocalSearchMatcher(tri, program_for(tri).patterns)
    n = tri.elements_of_type(G1 + "Node")[0]
    assert ls.match_set("filters.node", {"N": n}) == {(n,)}
    assert calls == {"reader": 0, "conforming": 1}

    # unbound: the text relations are scanned, then GraphComponent(C) keeps
    # the rows whose component is one, all five in one step run
    space, _, _ = graph2_model()
    program = program_for(space)
    ls = LocalSearchMatcher(space, program.patterns)
    calls.update(reader=0, conforming=0)
    assert len(ls.match_set("filters.componentText")) == 5
    p = program.patterns["filters.componentText"]
    plan = ls._program(p, 0, ()).plan
    assert isinstance(plan[-1], EntityC) and plan[-1].type == G2 + "GraphComponent"
    assert calls == {"reader": 0, "conforming": 1}


def test_the_filter_keeps_row_order():
    """``conforming`` keeps the rows in order, as the filters it replaces."""
    space, nodes, edges = graph2_model()
    rows = [(c, i) for i, c in enumerate(nodes + edges + nodes)]
    rows.append((space.elements_of_type(G2 + "Graph")[0], 99))
    got = space.conforming(G2 + "GraphComponent", 0, rows)
    assert got == rows[:-1]
    assert space.conforming(G2 + "Edge", 0, rows) == [r for r in rows if r[0] in edges]
    assert space.conforming(G2 + "Edge", 1, [(0, edges[0])]) == [(0, edges[0])]
    assert space.conforming(G2 + "Edge", 1, []) == []
