import random

import pytest

from editscripts import run_script
from gtvm import corpus
from gtvm.corpus.fixtures import G1, Graph1Builder, load_fixture
from gtvm.errors import MatcherError
from gtvm.matcher_ls import LocalSearchMatcher
from gtvm.rete import ReteEngine


def engines(space):
    program = corpus.library_program(space.registry)
    return (LocalSearchMatcher(space, program.patterns),
            ReteEngine(space, program.patterns))


INC_NAMES = None


def inc_names(ls):
    return sorted(n for n, p in ls.patterns.items()
                  if n.startswith("graphPatterns.") and not p.requires_ls)


def test_register_refuses_recursive(triangle):
    _, rete = engines(triangle)
    with pytest.raises(MatcherError) as err:
        rete.register("graphPatterns.transitiveConnected")
    assert "local-search" in str(err.value)
    with pytest.raises(MatcherError):
        rete.register("graphPatterns.transitiveEdgeMissing")


def test_register_on_empty_space():
    space = load_fixture("empty")
    _, rete = engines(space)
    assert rete.register("graphPatterns.SimpleNode").match_tuples() == set()


def test_structure_sharing(triangle):
    _, rete = engines(triangle)
    rete.register("graphPatterns.edgeFromTo")
    internal = rete.productions["graphPatterns.edgeFromToInternal"]
    nodes_before = rete.node_count
    rete.register("graphPatterns.edgeFromToInGraph")
    grown = rete.node_count - nodes_before
    assert rete.productions["graphPatterns.edgeFromToInternal"] is internal
    # a fresh engine needs strictly more nodes for the same pattern
    _, solo = engines(triangle)
    solo.register("graphPatterns.edgeFromToInGraph")
    assert grown < solo.node_count


def test_initial_memory_equals_local_search(triangle):
    ls, rete = engines(triangle)
    for name in inc_names(ls):
        assert rete.register(name).match_tuples() == ls.match_set(name), name


def test_self_loop_appears_incrementally(triangle):
    ls, rete = engines(triangle)
    handle = rete.register("graphPatterns.loopingEdge")
    assert handle.count() == 0
    g = triangle.elements_of_type(G1 + "Graph")[0]
    n1 = triangle.elements_of_type(G1 + "Node")[0]
    e = triangle.new_entity(G1 + "Edge", g)
    triangle.new_relation(G1 + "Graph.edges", g, e)
    triangle.new_relation(G1 + "Edge.src", e, n1)
    assert handle.count() == 0  # only half the loop so far
    triangle.new_relation(G1 + "Edge.trg", e, n1)
    assert handle.match_tuples() == {(e,)} == ls.match_set("graphPatterns.loopingEdge")


def test_retype_flips_src_trg(triangle):
    ls, rete = engines(triangle)
    src_h = rete.register("graphPatterns.srcAndRelForEdge")
    trg_h = rete.register("graphPatterns.trgAndRelForEdge")
    e = triangle.elements_of_type(G1 + "Edge")[0]
    rel = [r for r in triangle.relations_from(e)
           if triangle.conforms(r, G1 + "Edge.src")][0]
    before_src, before_trg = src_h.count(), trg_h.count()
    triangle.remove_type(rel, G1 + "Edge.src")
    triangle.add_type(rel, G1 + "Edge.trg")
    assert src_h.count() == before_src - 1
    assert trg_h.count() == before_trg + 1
    assert src_h.match_tuples() == ls.match_set("graphPatterns.srcAndRelForEdge")
    assert trg_h.match_tuples() == ls.match_set("graphPatterns.trgAndRelForEdge")


def test_delete_then_recreate_restores_cardinality(triangle):
    ls, rete = engines(triangle)
    handle = rete.register("graphPatterns.edgeFromToInGraph")
    before = handle.count()
    g = triangle.elements_of_type(G1 + "Graph")[0]
    nodes = triangle.elements_of_type(G1 + "Node")
    e = triangle.elements_of_type(G1 + "Edge")[0]
    src = triangle.target([r for r in triangle.relations_from(e)
                           if triangle.conforms(r, G1 + "Edge.src")][0])
    trg = triangle.target([r for r in triangle.relations_from(e)
                           if triangle.conforms(r, G1 + "Edge.trg")][0])
    triangle.delete(e)
    assert handle.count() == before - 1
    e2 = triangle.new_entity(G1 + "Edge", g)
    triangle.new_relation(G1 + "Graph.edges", g, e2)
    triangle.new_relation(G1 + "Edge.src", e2, src)
    triangle.new_relation(G1 + "Edge.trg", e2, trg)
    assert handle.count() == before
    assert handle.match_tuples() == ls.match_set("graphPatterns.edgeFromToInGraph")


def test_node_delete_cascade_produces_dangling(triangle):
    ls, rete = engines(triangle)
    handle = rete.register("graphPatterns.danglingEdge")
    assert handle.count() == 0
    n1 = triangle.elements_of_type(G1 + "Node")[0]
    incident = {e for e in triangle.elements_of_type(G1 + "Edge")
                if any(triangle.target(r) == n1
                       for r in triangle.relations_from(e))}
    triangle.delete(n1)
    assert handle.match_tuples() == {(e,) for e in incident}
    assert handle.match_tuples() == ls.match_set("graphPatterns.danglingEdge")


def test_anti_join_flips_at_zero():
    space = load_fixture("isolated")
    ls, rete = engines(space)
    handle = rete.register("graphPatterns.isolatedNode")
    lone = [n for n in space.elements_of_type(G1 + "Node")
            if space.name(n) == "n3"][0]
    assert handle.match_tuples() == {(lone,)}
    g = space.elements_of_type(G1 + "Graph")[0]
    e = space.new_entity(G1 + "Edge", g)
    space.new_relation(G1 + "Edge.src", e, lone)
    assert handle.count() == 0
    space.delete(e)
    assert handle.match_tuples() == {(lone,)}
    assert handle.match_tuples() == ls.match_set("graphPatterns.isolatedNode")


def test_check_rescans_on_value_change(triangle):
    ls, rete = engines(triangle)
    handle = rete.register("graphPatterns.N1Node")
    assert handle.count() == 1
    n2 = [n for n in triangle.elements_of_type(G1 + "Node")
          if triangle.name(n) == "n2"][0]
    name_attr = triangle.target([r for r in triangle.relations_from(n2)
                                 if triangle.conforms(r, G1 + "Node.name")][0])
    triangle.set_value(name_attr, "n1")
    assert handle.count() == 2
    triangle.set_value(name_attr, "n9")
    assert handle.match_tuples() == ls.match_set("graphPatterns.N1Node")
    assert handle.count() == 1


def test_count_node_updates():
    space = load_fixture("selfloop")
    program = corpus.load_program(["graphPatterns", "countMatchesMC"],
                                  space.registry)
    ls = LocalSearchMatcher(space, program.patterns)
    rete = ReteEngine(space, program.patterns)
    handle = rete.register("countMatchesMC.countLoopingEdgesPattern")
    assert handle.match_tuples() == {(2,)}
    b = Graph1Builder(space)  # second graph, one more loop
    n = b.node("x")
    b.edge(n, n)
    assert handle.match_tuples() == {(3,)} == ls.match_set(
        "countMatchesMC.countLoopingEdgesPattern")


def test_delta_since_folds_to_final():
    space = load_fixture("triangle")
    ls, rete = engines(space)
    handle = rete.register("graphPatterns.edgeFromTo")
    initial = handle.match_tuples()
    cursor = handle.cursor()
    assert handle.delta_since(cursor) == (set(), set())  # no changes yet
    rng = random.Random(42)
    run_script(space, rng, 60, lambda: None)
    appeared, disappeared = handle.delta_since(cursor)
    assert (initial | appeared) - disappeared == handle.match_tuples()
    assert appeared.isdisjoint(disappeared)
    assert appeared.isdisjoint(initial)
    assert disappeared <= initial


@pytest.mark.parametrize("seed", range(8))
def test_cross_matcher_equivalence_scripts(seed):
    rng = random.Random(seed)
    space = load_fixture("random", n=5, e=6, seed=seed)
    ls, rete = engines(space)
    names = inc_names(ls)
    handles = {n: rete.register(n) for n in names}

    def check():
        for n, h in handles.items():
            assert h.match_tuples() == ls.match_set(n), (seed, n)

    check()
    run_script(space, rng, 80, check)
    assert space.audit() == []


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_erroring_check_is_a_non_match(triangle, matcher):
    from gtvm import oracle
    from gtvm.rules import VM
    from gtvm.vtcl import link, parse
    src = """import nemf.packages;
    machine m{
      pattern plusOne(Node) = {
        graph1.Node(Node);
        check(value(Node) + 1 == 2);
      }
    }"""
    program = link([corpus.load_machine("graphPatterns"), parse(src)],
                   triangle.registry)
    vm = VM(program, triangle, matcher=matcher)
    assert vm.query_all("m.plusOne") == []  # value(Node) is undef
    assert vm.query_first("m.plusOne") is None
    assert oracle.BruteForce(triangle, program.patterns).match_set("m.plusOne") == set()


def test_production_keeps_no_log_until_cursor():
    space = load_fixture("triangle")
    _, rete = engines(space)
    handle = rete.register("graphPatterns.edgeFromTo")
    run_script(space, random.Random(7), 30, lambda: None)
    assert handle.log is None
    cursor = handle.cursor()
    assert cursor == 0 and handle.log == []


def test_iter_asm_run_keeps_no_delta_log():
    from gtvm.rules import VM
    space = load_fixture("random", n=12, e=24, seed=1)
    task_files, entry = corpus.TASKS[("2.6", "iter-asm")]
    program = corpus.load_program(list(task_files), space.registry)
    vm = VM(program, space, matcher="inc")
    vm.run(entry)
    assert vm._rete.productions
    assert all(p.log is None for p in vm._rete.productions.values())


SHARED_SUPER = """
machine m{
  pattern s(X) = { t.S(X); }
  pattern a(X) = { t.A(X); }
  pattern sNotA(X) = { t.S(X); neg find a(X); }
  pattern sOnly(X) = { t.S(X); neg find a(X); neg find b(X); }
  pattern b(X) = { t.B(X); }
  pattern r(R, X, Y) = { t.R(R, X, Y); }
  pattern rNotR1(R, X, Y) = { t.R(R, X, Y); neg find r1(R, X, Y); }
  pattern r1(R, X, Y) = { t.R1(R, X, Y); }
  pattern anyRel(R, X, Y) = { relation(R, X, Y); }
  pattern sAtBoth(R, X) = { t.R(R, X, Y); t.S(X); t.S(Y); }
}"""


def shared_super_space():
    from gtvm.modelspace import ENTITY, RELATION, ModelSpace, TypeRegistry
    registry = TypeRegistry()
    registry.register("t.S", ENTITY)
    registry.register("t.A", ENTITY, "t.S")
    registry.register("t.B", ENTITY, "t.S")
    registry.register("t.R", RELATION)
    registry.register("t.R1", RELATION, "t.R")
    registry.register("t.R2", RELATION, "t.R")
    return ModelSpace(registry)


@pytest.mark.parametrize("kind", ["entity", "relation"])
def test_two_types_with_a_common_supertype(kind):
    """The supertype alpha counts the element's conforming types: it keeps
    the element while either type stays, and drops it with the last."""
    from gtvm.vtcl import link, parse
    space = shared_super_space()
    program = link([parse(SHARED_SUPER)], space.registry)
    ls = LocalSearchMatcher(space, program.patterns)
    rete = ReteEngine(space, program.patterns)
    handles = {n: rete.register(n) for n in program.patterns}
    x, y = space.new_entity("t.A"), space.new_entity("t.B")
    if kind == "entity":
        subject, first, second = space.new_entity("t.A"), "t.A", "t.B"
    else:
        subject, first, second = space.new_relation("t.R1", x, y), "t.R1", "t.R2"
    steps = [(space.add_type, second), (space.remove_type, first),
             (space.remove_type, second), (space.add_type, first),
             (space.add_type, second), (space.delete, None)]  # deleted with both

    def check(step):
        for n, h in handles.items():
            assert h.match_tuples() == ls.match_set(n), (step, n)

    check("start")
    for op, type_name in steps:
        if type_name is None:
            op(subject)
        else:
            op(subject, type_name)
        check((op.__name__, type_name))
    assert not any(subject in t for h in handles.values() for t in h.match_tuples())
