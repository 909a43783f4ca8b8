import itertools
import random

import pytest

from gtvm import corpus
from gtvm.corpus.fixtures import G1, Graph1Builder, load_fixture
from gtvm.errors import SpaceError
from gtvm.matcher_ls import LocalSearchMatcher
from gtvm.oracle import (BruteForce, edge_pairs, transitive_connected,
                         two_hop_missing)
from gtvm.patterns import schedule
from gtvm.vtcl import link, parse


def matcher_for(space):
    program = corpus.library_program(space.registry)
    return LocalSearchMatcher(space, program.patterns)


def lib_names(ls, include_recursive=False):
    out = []
    for name, p in ls.patterns.items():
        if not name.startswith("graphPatterns."):
            continue
        if p.recursive and not include_recursive:
            continue
        if name == "graphPatterns.transitiveEdgeMissing" and not include_recursive:
            continue
        out.append(name)
    return sorted(out)


def test_simple_node_extension(triangle):
    ls = matcher_for(triangle)
    assert ls.count("graphPatterns.SimpleNode") == 3


def test_circle_of_three_rotations(triangle):
    ls = matcher_for(triangle)
    # one match per rotation of the directed triangle
    assert ls.count("graphPatterns.circleOfThreeNode") == 3


def test_match_one_absent():
    ls = matcher_for(load_fixture("empty"))
    assert ls.match_all("graphPatterns.SimpleNode") == []
    assert ls.count("graphPatterns.SimpleNode") == 0


def test_dangling_none_when_connected(triangle):
    ls = matcher_for(triangle)
    assert ls.match_all("graphPatterns.danglingEdge") == []


def test_n1node_by_value(triangle):
    ls = matcher_for(triangle)
    m = ls.match_all("graphPatterns.N1Node")[0]
    assert triangle.name(m["Node"]) == "n1"


def test_counts_on_fixtures():
    loops = matcher_for(load_fixture("selfloop"))
    assert loops.count("graphPatterns.loopingEdge") == 2
    k2 = load_fixture("isolated")
    ls = matcher_for(k2)
    assert ls.count("graphPatterns.isolatedNode") == 1
    assert ls.count("graphPatterns.danglingEdge") == 0


def test_binding_pushdown(triangle):
    ls = matcher_for(triangle)
    n1 = ls.match_all("graphPatterns.N1Node")[0]["Node"]
    out = ls.match_all("graphPatterns.connectedEdge", {"Node": n1})
    assert len(out) == 2 and all(m["Node"] == n1 for m in out)


def test_dead_binding_rejected(triangle):
    ls = matcher_for(triangle)
    n1 = ls.match_all("graphPatterns.N1Node")[0]["Node"]
    triangle.delete(n1)
    with pytest.raises(SpaceError):
        ls.match_all("graphPatterns.connectedEdge", {"Node": n1})


def test_injectivity_default_vs_shareable():
    space = load_fixture("selfloop")
    ls = matcher_for(space)
    # shareable edgeFromTo matches self loops; the injective 2-hop misses them
    loops = [m for m in ls.match_all("graphPatterns.edgeFromTo")
             if m["From"] == m["To"]]
    assert len(loops) == 2
    assert all(m["From"] != m["To"]
               for m in ls.match_all("graphPatterns.transitiveEdgeMissing2hop"))


def test_count_constraint_matches_cardinality():
    space = load_fixture("selfloop")
    program = corpus.load_program(["graphPatterns", "countMatchesMC"],
                                  space.registry)
    ls = LocalSearchMatcher(space, program.patterns)
    m = ls.match_all("countMatchesMC.countLoopingEdgesPattern")[0]
    assert m["N"] == ls.count("graphPatterns.loopingEdge") == 2
    # counting yields a match even when the counted set is empty
    assert ls.match_all("countMatchesMC.countIsolatedNodesPattern")[0]["N"] == 0


@pytest.mark.parametrize("fixture", ["triangle", "chain4", "selfloop",
                                     "dangling", "isolated", "delete"])
def test_oracle_equivalence_fixtures(fixture):
    space = load_fixture(fixture)
    ls = matcher_for(space)
    brute = BruteForce(space, ls.patterns)
    for name in lib_names(ls):
        assert ls.match_set(name) == brute.match_set(name), name


@pytest.mark.parametrize("seed", range(12))
def test_oracle_equivalence_random(seed):
    rng = random.Random(seed)
    space = load_fixture("random", n=rng.randrange(3, 13),
                         e=rng.randrange(0, 20), seed=seed)
    ls = matcher_for(space)
    brute = BruteForce(space, ls.patterns)
    for name in lib_names(ls):
        assert ls.match_set(name) == brute.match_set(name), (seed, name)


COMPILED = ["graphPatterns.circleOfThreeNode", "graphPatterns.isolatedNode",
            "graphPatterns.transitiveEdgeMissing", "graphPatterns.connectedEdge"]


def test_each_plan_is_compiled_once(monkeypatch):
    """Cold queries before and after an edit schedule each (pattern, body,
    bound set) once; under ``shuffle`` every body evaluation plans afresh
    and the compiled plans are neither read nor grown."""
    import gtvm.matcher_ls as matcher_ls
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return schedule(*args, **kwargs)
    monkeypatch.setattr(matcher_ls, "schedule", counted)
    space = load_fixture("random", n=8, e=14, seed=2)
    graph = space.elements_of_type(G1 + "Graph")[0]
    ls = matcher_for(space)

    def cold_queries():
        space.new_entity(G1 + "Node", graph)  # drops every memoized answer
        for name in COMPILED:
            ls.match_set(name)
        node = space.elements_of_type(G1 + "Node")[0]
        ls.match_set("graphPatterns.connectedEdge", {"Node": node})

    cold_queries()
    compiled = dict(ls._plans)
    assert len(calls) == len(compiled) > len(COMPILED)
    cold_queries()
    assert len(calls) == len(ls._plans)
    assert all(ls._plans[key] is prog for key, prog in compiled.items())

    evaluated = []
    eval_body = ls._eval_body

    def counted_eval(*args):
        evaluated.append(args[:3])
        return eval_body(*args)
    monkeypatch.setattr(ls, "_eval_body", counted_eval)
    ls.shuffle = random.Random(3)
    plans = dict(ls._plans)
    for _ in range(2):
        calls.clear()
        evaluated.clear()
        cold_queries()
        assert len(calls) == len(evaluated) > len(COMPILED)
    assert ls._plans == plans


def test_a_dropped_matcher_is_freed_without_the_cycle_collector():
    """The compiled programs a matcher keeps hold no reference back to it,
    so its answer sets go when it does, not at the next collection."""
    import gc
    import weakref
    space = load_fixture("random", n=8, e=14, seed=2)
    ls = matcher_for(space)
    for name in COMPILED:
        ls.match_set(name)
    assert ls._plans and ls._held
    dropped = weakref.ref(ls)
    gc.disable()
    try:
        del ls
        assert dropped() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", range(8))
def test_plan_independence(seed):
    space = load_fixture("random", n=7, e=12, seed=seed)
    ls = matcher_for(space)
    reference = {name: ls.match_set(name) for name in lib_names(ls)}
    shuffled = matcher_for(space)
    shuffled.shuffle = random.Random(seed * 7 + 1)
    for name, want in reference.items():
        assert shuffled.match_set(name) == want, name


def test_transitive_connected_chain():
    space = load_fixture("chain4")
    ls = matcher_for(space)
    got = {(m["From"], m["To"])
           for m in ls.match_all("graphPatterns.transitiveConnected")}
    assert got == transitive_connected(edge_pairs(space))
    names = sorted((space.name(a), space.name(b)) for a, b in got)
    assert names == [("n1", "n3"), ("n1", "n4"), ("n2", "n4")]


@pytest.mark.parametrize("seed", range(6))
def test_transitive_connected_oracle_random(seed):
    space = load_fixture("random", n=6, e=10, seed=seed)
    ls = matcher_for(space)
    got = {(m["From"], m["To"])
           for m in ls.match_all("graphPatterns.transitiveConnected")}
    assert got == transitive_connected(edge_pairs(space)), seed


def test_recursive_termination_on_cycles():
    space = load_fixture("empty")
    b = Graph1Builder(space)
    nodes = [b.node(f"n{i}") for i in range(1, 11)]
    for a, c in zip(nodes, nodes[1:] + nodes[:1]):
        b.edge(a, c)
    ls = matcher_for(space)
    got = {(m["From"], m["To"])
           for m in ls.match_all("graphPatterns.transitiveConnected")}
    assert got == transitive_connected(edge_pairs(space))
    # every distinct non-adjacent pair of the 10-cycle, plus nothing reflexive
    assert len(got) == 10 * 9 - 10


def test_two_hop_oracle(triangle):
    ls = matcher_for(triangle)
    got = {(m["From"], m["To"])
           for m in ls.match_all("graphPatterns.transitiveEdgeMissing2hop")}
    assert got == two_hop_missing(edge_pairs(triangle))


MUTUAL = """
import nemf.packages;
machine paths{
  shareable pattern step(X,Y) = {
    find graphPatterns.edgeFromTo(X,Y);
  }

  @localsearch
  shareable pattern oddPath(X,Y) = {
    find step(X,Y);
  } or {
    find step(X,Z);
    find evenPath(Z,Y);
  }

  @localsearch
  shareable pattern evenPath(X,Y) = {
    find step(X,Z);
    find oddPath(Z,Y);
  }
}
"""


def test_mutually_recursive_tabling():
    from gtvm import corpus
    from gtvm.vtcl import link, parse

    space = load_fixture("random", n=6, e=9, seed=4, p_dangling=0.0)
    program = link([corpus.load_machine("graphPatterns"), parse(MUTUAL)],
                   space.registry)
    assert program.patterns["paths.oddPath"].recursive
    assert program.patterns["paths.evenPath"].ls_reason
    ls = LocalSearchMatcher(space, program.patterns)

    # independent oracle: pairwise fixpoint over the step relation
    step = {(m["From"], m["To"])
            for m in ls.match_all("graphPatterns.edgeFromTo")}
    odd, even = set(step), set()
    changed = True
    while changed:
        changed = False
        new_even = {(x, y) for (x, z) in step for (z2, y) in odd if z2 == z}
        new_odd = step | {(x, y) for (x, z) in step for (z2, y) in even if z2 == z}
        if new_even != even or new_odd != odd:
            even, odd = new_even, new_odd
            changed = True

    got_odd = {(m["X"], m["Y"]) for m in ls.match_all("paths.oddPath")}
    got_even = {(m["X"], m["Y"]) for m in ls.match_all("paths.evenPath")}
    assert got_odd == odd
    assert got_even == even


def test_cycle_annotation_on_one_member_suffices():
    from gtvm import corpus
    from gtvm.vtcl import link, parse

    source = MUTUAL.replace("@localsearch\n  shareable pattern evenPath",
                            "shareable pattern evenPath")
    space = load_fixture("triangle")
    program = link([corpus.load_machine("graphPatterns"), parse(source)],
                   space.registry)
    # the unannotated cycle member still runs on the local-search matcher
    assert program.patterns["paths.evenPath"].ls_reason
    ls = LocalSearchMatcher(space, program.patterns)
    assert ls.count("paths.oddPath") == 9  # every ordered pair on a triangle


def test_containment_constraint_transitive():
    from gtvm import corpus
    from gtvm.vtcl import link, parse

    space = load_fixture("triangle")
    program = link([parse("""
    import nemf.packages;
    import nemf.ecore.datatypes;
    machine q{
      pattern textsUnder(G,T) = {
        graph1.Graph(G);
        EString(T) in G;
      }
    }""")], space.registry)
    ls = LocalSearchMatcher(space, program.patterns)
    got = ls.match_all("q.textsUnder")
    # name attributes live inside nodes inside the graph: transitive hit
    assert len(got) == 3
    g = space.elements_of_type("nemf.packages.graph1.Graph")[0]
    assert all(m["G"] == g for m in got)
    from gtvm.rete import ReteEngine
    rete = ReteEngine(space, program.patterns)
    handle = rete.register("q.textsUnder")
    assert handle.match_tuples() == ls.match_set("q.textsUnder")
    # containment pairs are fixed at creation and vanish with the subtree
    n = space.elements_of_type("nemf.packages.graph1.Node")[0]
    space.delete(n)
    assert handle.match_tuples() == ls.match_set("q.textsUnder")
    assert len(handle.match_tuples()) == 2
    # a text two levels under the graph enters, and deleting the graph
    # drops every pair of its subtree
    node = space.new_entity("nemf.packages.graph1.Node", g)
    assert handle.match_tuples() == ls.match_set("q.textsUnder")
    space.new_entity("nemf.ecore.datatypes.EString", node)
    assert handle.match_tuples() == ls.match_set("q.textsUnder")
    assert len(handle.match_tuples()) == 3
    space.delete(g)
    assert handle.match_tuples() == ls.match_set("q.textsUnder") == set()


ROW_SHAPES = """
import nemf.packages;
import nemf.ecore.datatypes;
machine rows{
  pattern selfRelation(R,X) = {
    relation(R,X,X);
  }
  shareable pattern edgeEnds(E,X,Y) = {
    find graphPatterns.edgeFromToInternal(E,X,Y);
  }
  pattern loopThenStep(E,X,Y) = {
    find edgeEnds(E,X,X);
    find graphPatterns.edgeFromTo(X,Y);
  }
  shareable pattern loopThenStepShared(E,X,Y) = {
    find edgeEnds(E,X,X);
    find graphPatterns.edgeFromTo(X,Y);
  }
  pattern textIn(T,N) = {
    EString(T) in N;
  }
}
"""


def row_shape_models():
    space = load_fixture("selfloop")
    node = space.elements_of_type("nemf.packages.graph1.Node")[0]
    space.new_relation(None, node, node)  # a relation from an element to itself
    yield space
    for seed in range(3):
        yield load_fixture("random", n=5, e=8, seed=seed)


@pytest.mark.parametrize("plans", ["default", "shuffle"])
@pytest.mark.parametrize("name", ["selfRelation", "loopThenStep",
                                  "loopThenStepShared", "textIn", "library"])
def test_every_row_shape_agrees_with_the_oracle(name, plans):
    """relation(R,X,X), find edgeEnds(E,X,X) from an injective and a
    shareable caller, and `in N`, under every subset of bound parameters;
    and every non-recursive library pattern unbound and under every
    single-parameter binding, each a seed row of its own layout."""
    matched = False
    for k, space in enumerate(row_shape_models()):
        program = link([corpus.load_machine("graphPatterns"), parse(ROW_SHAPES)],
                       space.registry)
        brute = BruteForce(space, program.patterns)
        others = space.iter_elements()[:2]
        names = lib_names(brute) if name == "library" else ["rows." + name]
        for pattern in names:
            # a matcher of its own, which holds no answer set of the pattern
            ls = LocalSearchMatcher(space, program.patterns)
            if plans == "shuffle":
                ls.shuffle = random.Random(k)
            params = program.patterns[pattern].params
            full = brute.match_set(pattern)
            matched = matched or bool(full)
            # bound queries first: once the unbound set is held, its index
            # would answer them, and no seed row would be searched
            sizes = (1, 0) if name == "library" else range(len(params), -1, -1)
            for r in sizes:
                for bound in itertools.combinations(range(len(params)), r):
                    keys = {tuple(t[i] for i in bound) for t in full}
                    # one value at every bound position: an injective
                    # pattern's seed row must have distinct elements
                    keys.update((t[i],) * r for t in full for i in bound)
                    keys.update((v,) * r for v in others)
                    for key in keys:
                        binding = dict(zip((params[i] for i in bound), key))
                        assert ls.match_set(pattern, binding) == \
                            brute.match_set(pattern, binding), (k, pattern, binding)
    assert matched
