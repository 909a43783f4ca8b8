"""Local search reads a relation at a bound end by a walk or by one scan.

A plan step that extends its rows through a relation whose source or target
is bound walks the relations at each row's end, unless the walk would read
more relations than the relation's type holds. Then it reads the type's
relations once, groups them by the bound end and answers every row from
the groups. These tests check that both paths give the oracle's answers,
unbound and bound, on random models and under edits, and which path a
solve takes.
"""

import random

import pytest

from editscripts import run_script
from gtvm import corpus
from gtvm.corpus.fixtures import ESTRING, G1, load_fixture
from gtvm.matcher_ls import LocalSearchMatcher
from gtvm.oracle import BruteForce, edge_pairs, transitive_connected
from gtvm.vtcl import link, parse

TC = "graphPatterns.transitiveConnected"
TEM = "graphPatterns.transitiveEdgeMissing"


def library(space):
    patterns = corpus.library_program(space.registry).patterns
    return patterns, sorted(n for n in patterns if n.startswith("graphPatterns."))


def oracle_set(space, brute, name):
    """``brute``'s match set of ``name``; the closure for the two
    recursive patterns, which brute force does not enumerate."""
    if name not in (TC, TEM):
        return brute.match_set(name)
    graph = space.elements_of_type(G1 + "Graph")[0]
    pairs = edge_pairs(space)
    closure = {(a, b, graph) for a, b in transitive_connected(pairs)}
    return closure if name == TC else {t for t in closure if t[:2] not in pairs}


def assert_agrees(space, patterns, names):
    """Every pattern's answers, unbound and bound on each parameter to each
    value it takes and to two elements it does not take, equal the oracle's.
    Each pattern gets a matcher of its own, queried bound first: no unbound
    set is held then, so each bound call is searched from its seed row."""
    brute = BruteForce(space, patterns)
    elements = space.iter_elements()
    for name in names:
        params = patterns[name].params
        want = oracle_set(space, brute, name)
        ls = LocalSearchMatcher(space, patterns)
        for i, param in enumerate(params):
            taken = {t[i] for t in want}
            values = taken | set([e for e in elements if e not in taken][:2])
            for v in values:
                got = ls.match_set(name, {param: v})
                assert got == {t for t in want if t[i] == v}, (name, param, v)
        assert ls.match_set(name) == want, name


@pytest.mark.parametrize("n,e,seed", [(8, 16, 1), (8, 16, 2), (8, 10, 3),
                                      (100, 100, 1), (100, 200, 1)])
def test_both_paths_agree_with_the_oracle(n, e, seed):
    """n=100 e=200 is the density of the benchmark's models, where plans
    are chosen from counts like theirs."""
    space = load_fixture("random", n=n, e=e, seed=seed)
    patterns, names = library(space)
    assert_agrees(space, patterns, names)


@pytest.mark.parametrize("seed", range(2))
def test_both_paths_agree_with_the_oracle_under_edits(seed):
    space = load_fixture("random", n=6, e=8, seed=seed)
    patterns, names = library(space)
    assert run_script(space, random.Random(seed), 25,
                      lambda: assert_agrees(space, patterns, names)) == 25


@pytest.fixture(scope="module")
def model():
    """A random n=100 model, its library and the oracle on it."""
    space = load_fixture("random", n=100, e=200, seed=7)
    patterns, _ = library(space)
    return space, patterns, BruteForce(space, patterns)


@pytest.fixture
def reads(monkeypatch):
    """Spy on a space's typed-row reads: ``("scan", type)`` for each
    ``rows`` call, ``("walk", element)`` for each read of a ``rows_at``
    reader of the relations at an end (position 1 or 2)."""
    def spy(space):
        log = []
        rows, rows_at = space.rows, space.rows_at

        def scan(type_name):
            log.append(("scan", type_name))
            return rows(type_name)

        def reader(type_name, position):
            read = rows_at(type_name, position)
            if not position:
                return read

            def walk(key):
                log.append(("walk", key[0]))
                return read(key)
            return walk
        monkeypatch.setattr(space, "rows", scan)
        monkeypatch.setattr(space, "rows_at", reader)
        return log
    return spy


def test_an_unbound_solve_scans_the_relation_once(model, reads):
    """``srcAndRelForEdge`` plans the ``Edge.src`` scan first, which binds
    both ends, so its node and edge checks are filters: it reads
    ``Edge.src`` in one scan and walks no node."""
    space, patterns, brute = model
    name = "graphPatterns.srcAndRelForEdge"
    want = brute.match_set(name)
    log = reads(space)
    assert LocalSearchMatcher(space, patterns).match_set(name) == want
    assert log.count(("scan", G1 + "Edge.src")) == 1
    assert not [r for r in log if r[0] == "walk"]


def test_a_bound_solve_walks(model, reads):
    """``connectedEdge(Node=x)`` reads the relations at ``x`` in each body
    and scans no relation type."""
    space, patterns, brute = model
    name = "graphPatterns.connectedEdge"
    x = space.elements_of_type(G1 + "Node")[0]
    want = brute.match_set(name, {"Node": x})
    log = reads(space)
    assert LocalSearchMatcher(space, patterns).match_set(name, {"Node": x}) == want
    assert log == [("walk", x), ("walk", x)]


NAMED_SOURCE = """
import nemf.packages;
machine walks {
  pattern namedSource(E, X, N) = {
    graph1.Node.name(NR, X, N);
    graph1.Edge.src(R, E, X);
  }
}
"""


def test_a_walk_that_reads_as_many_as_the_type_holds_is_kept(reads):
    """Three named nodes outside any graph and four edges with a source
    only: ``namedSource`` scans the three names, then reads ``Edge.src`` at
    each name's node, and the walk from the nodes reads exactly the
    ``Edge.src`` relations, so it walks. One ``Edge.trg`` into a node makes
    it read one more, so it scans."""
    space = load_fixture("empty")
    nodes = [space.new_entity(G1 + "Node") for _ in range(3)]
    for node in nodes:
        space.new_relation(G1 + "Node.name", node, space.new_entity(ESTRING))
    for k in range(4):
        space.new_relation(G1 + "Edge.src", space.new_entity(G1 + "Edge"), nodes[k % 3])
    patterns = link([corpus.load_machine("graphPatterns"), parse(NAMED_SOURCE)],
                    space.registry).patterns
    name = "walks.namedSource"
    log = reads(space)
    walked = LocalSearchMatcher(space, patterns).match_set(name)
    assert log[0] == ("scan", G1 + "Node.name")
    assert ("scan", G1 + "Edge.src") not in log
    assert sorted(r[1] for r in log if r[0] == "walk") == sorted(nodes)
    edge = space.new_entity(G1 + "Edge")
    space.new_relation(G1 + "Edge.trg", edge, nodes[0])
    del log[:]
    scanned = LocalSearchMatcher(space, patterns).match_set(name)
    assert ("scan", G1 + "Edge.src") in log
    assert not [r for r in log if r[0] == "walk"]
    assert len(walked) == 4 and scanned == walked
