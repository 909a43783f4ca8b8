import itertools
import random
from functools import partial

import pytest

from editscripts import run_script
from gtvm import corpus
from gtvm.corpus.fixtures import BUILDERS, G1, Graph1Builder, load_fixture
from gtvm.errors import MatcherError, PatternError
from gtvm.matcher_ls import LocalSearchMatcher
from gtvm.modelspace import ENTITY, ElementCreated, ModelSpace, TypeRegistry, ValueSet
from gtvm.oracle import BruteForce
from gtvm.patterns import EntityC, FindC, RelationC, constraint_vars
from gtvm.rete import JoinNode, ReteEngine


def engines(space):
    program = corpus.library_program(space.registry)
    return (LocalSearchMatcher(space, program.patterns),
            ReteEngine(space, program.patterns))


INC_NAMES = None


def inc_names(ls):
    return sorted(n for n, p in ls.patterns.items()
                  if n.startswith("graphPatterns.") and not p.ls_reason)


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


def body_chains(rete):
    """Every compiled body as (pattern, body, nodes from its first input on).

    Each production's bodies are read in body order from the nodes that feed
    it, and each back to its first node through the left inputs."""
    left_of = {out.__self__: node for node in rete.nodes for out in node.outputs
               if getattr(out, "__name__", None) == "on_left"}
    out = []
    for prod in rete.productions.values():
        tails = [node for node in rete.nodes
                 if any(isinstance(o, partial) and o.func.__self__ is prod
                        for o in node.outputs)]
        assert len(tails) == len(prod.pattern.bodies)
        for body, node in zip(prod.pattern.bodies, tails):
            chain = [node]
            while chain[-1] in left_of:
                chain.append(left_of[chain[-1]])
            out.append((prod.pattern, body, chain[::-1]))
    return out


def disconnected(body) -> bool:
    """True when the positive constraints fall into parts that share no
    variable."""
    parts: list[set] = []
    for c in body.constraints:
        if isinstance(c, (EntityC, RelationC, FindC)):
            cvars = set(constraint_vars(c))
            joined = [p for p in parts if not p.isdisjoint(cvars)]
            for p in joined:
                parts.remove(p)
                cvars |= p
            parts.append(cvars)
    return len(parts) > 1


def product_joins(rete):
    """(pattern name, disconnected?) of every join after the first one of a
    body whose join key is empty: a Cartesian product."""
    found = []
    for pattern, body, chain in body_chains(rete):
        joins = [i for i, node in enumerate(chain) if type(node) is JoinNode]
        for i in joins[1:]:
            left = chain[i - 1]
            if chain[i].left_key(tuple(range(len(left.schema)))) == ():
                found.append((pattern.name, disconnected(body)))
    return found


def test_no_join_is_a_cartesian_product_of_a_connected_body():
    from gtvm.vtcl import link, parse
    space = load_fixture("random", n=12, e=24, seed=1)
    machine = parse("""
    import nemf.packages;
    machine m{
      pattern pair(A,B) = { graph1.Node(A); graph1.Graph(B); }
    }""")
    program = link([corpus.load_machine("graphPatterns"), machine], space.registry)
    rete = ReteEngine(space, program.patterns)
    names = [n for n, p in program.patterns.items()
             if n.startswith("graphPatterns.") and not p.ls_reason]
    for name in names:
        rete.register(name)
    compiled = {pattern.name for pattern, _, _ in body_chains(rete)}
    assert compiled == set(names)
    assert product_joins(rete) == []
    # a disconnected body can only be a product, and the walk sees it
    rete.register("m.pair")
    assert product_joins(rete) == [("m.pair", True)]


def test_self_loop_appears_incrementally(triangle):
    ls, rete = engines(triangle)
    handle = rete.register("graphPatterns.loopingEdge")
    assert len(handle.match_tuples()) == 0
    g = triangle.elements_of_type(G1 + "Graph")[0]
    n1 = triangle.elements_of_type(G1 + "Node")[0]
    e = triangle.new_entity(G1 + "Edge", g)
    triangle.new_relation(G1 + "Graph.edges", g, e)
    triangle.new_relation(G1 + "Edge.src", e, n1)
    assert len(handle.match_tuples()) == 0  # only half the loop so far
    triangle.new_relation(G1 + "Edge.trg", e, n1)
    assert handle.match_tuples() == {(e,)} == ls.match_set("graphPatterns.loopingEdge")


def test_retype_flips_src_trg(triangle):
    ls, rete = engines(triangle)
    src_h = rete.register("graphPatterns.srcAndRelForEdge")
    trg_h = rete.register("graphPatterns.trgAndRelForEdge")
    e = triangle.elements_of_type(G1 + "Edge")[0]
    rel = [r for r in triangle.relations_from(e)
           if triangle.conforms(r, G1 + "Edge.src")][0]
    before_src, before_trg = len(src_h.match_tuples()), len(trg_h.match_tuples())
    triangle.remove_type(rel, G1 + "Edge.src")
    triangle.add_type(rel, G1 + "Edge.trg")
    assert len(src_h.match_tuples()) == before_src - 1
    assert len(trg_h.match_tuples()) == before_trg + 1
    assert src_h.match_tuples() == ls.match_set("graphPatterns.srcAndRelForEdge")
    assert trg_h.match_tuples() == ls.match_set("graphPatterns.trgAndRelForEdge")


def test_delete_then_recreate_restores_cardinality(triangle):
    ls, rete = engines(triangle)
    handle = rete.register("graphPatterns.edgeFromToInGraph")
    before = len(handle.match_tuples())
    g = triangle.elements_of_type(G1 + "Graph")[0]
    nodes = triangle.elements_of_type(G1 + "Node")
    e = triangle.elements_of_type(G1 + "Edge")[0]
    src = triangle.target([r for r in triangle.relations_from(e)
                           if triangle.conforms(r, G1 + "Edge.src")][0])
    trg = triangle.target([r for r in triangle.relations_from(e)
                           if triangle.conforms(r, G1 + "Edge.trg")][0])
    triangle.delete(e)
    assert len(handle.match_tuples()) == before - 1
    e2 = triangle.new_entity(G1 + "Edge", g)
    triangle.new_relation(G1 + "Graph.edges", g, e2)
    triangle.new_relation(G1 + "Edge.src", e2, src)
    triangle.new_relation(G1 + "Edge.trg", e2, trg)
    assert len(handle.match_tuples()) == before
    assert handle.match_tuples() == ls.match_set("graphPatterns.edgeFromToInGraph")


def test_node_delete_cascade_produces_dangling(triangle):
    ls, rete = engines(triangle)
    handle = rete.register("graphPatterns.danglingEdge")
    assert len(handle.match_tuples()) == 0
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
    assert len(handle.match_tuples()) == 0
    space.delete(e)
    assert handle.match_tuples() == {(lone,)}
    assert handle.match_tuples() == ls.match_set("graphPatterns.isolatedNode")


def test_check_rescans_on_value_change(triangle):
    ls, rete = engines(triangle)
    handle = rete.register("graphPatterns.N1Node")
    assert len(handle.match_tuples()) == 1
    n2 = [n for n in triangle.elements_of_type(G1 + "Node")
          if triangle.name(n) == "n2"][0]
    name_attr = triangle.target([r for r in triangle.relations_from(n2)
                                 if triangle.conforms(r, G1 + "Node.name")][0])
    triangle.set_value(name_attr, "n1")
    assert len(handle.match_tuples()) == 2
    triangle.set_value(name_attr, "n9")
    assert handle.match_tuples() == ls.match_set("graphPatterns.N1Node")
    assert len(handle.match_tuples()) == 1


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


LOOPS = """import nemf.packages;
machine m{
  pattern loops(G, N) = {
    graph1.Graph(G);
    find graphPatterns.edgeFromToInGraph(Y, Y, G) # N;
  }
}"""


def test_a_count_skips_the_callee_tuples_its_repeated_argument_rejects(triangle):
    """``loops`` counts the callee tuples whose From and To are one node
    (none: the callee is injective). An edge n2 -> n1, the reverse of
    n1 -> n2, adds a callee tuple that the count node's right input must
    skip; counted, it would take the count below zero."""
    from gtvm.vtcl import link, parse
    space = triangle
    program = link([corpus.load_machine("graphPatterns"), parse(LOOPS)], space.registry)
    engine = ReteEngine(space, program.patterns)  # held: it listens while alive
    h = engine.register("m.loops")
    (g,) = space.elements_of_type(G1 + "Graph")
    n1, n2, _ = sorted(space.elements_of_type(G1 + "Node"))
    e = space.new_entity(G1 + "Edge", g)
    space.new_relation(G1 + "Graph.edges", g, e)
    space.new_relation(G1 + "Edge.src", e, n2)
    space.new_relation(G1 + "Edge.trg", e, n1)
    want = BruteForce(space, program.patterns).match_set("m.loops")
    assert set(h.match_tuples()) == want == {(g, 0)}
    assert want == LocalSearchMatcher(space, program.patterns).match_set("m.loops")


NEG_ONLY = """import nemf.packages;
machine m{
  pattern q(Y) = { graph1.Edge(Y); }
  pattern p(X, Y) = { graph1.Node(X); neg find q(Y); }
}"""


def test_a_parameter_only_a_neg_reads_is_refused_by_the_rete_and_bound_by_ls(triangle):
    """No positive constraint binds p's Y: the Rete, which enumerates every
    parameter, refuses p and names Y; the local search answers a read that
    binds Y and refuses one that does not, naming p and Y."""
    from gtvm.vtcl import link, parse
    program = link([parse(NEG_ONLY)], triangle.registry)
    with pytest.raises(MatcherError, match=r"^pattern m\.p reads its parameter Y only in a neg"):
        ReteEngine(triangle, program.patterns).register("m.p")
    ls = LocalSearchMatcher(triangle, program.patterns)
    with pytest.raises(PatternError, match=r"^m\.p: parameter Y is read only in a neg"):
        ls.match_all("m.p")
    node = min(triangle.elements_of_type(G1 + "Node"))
    assert len(ls.match_all("m.p", {"Y": node})) == 3


NEG_ONLY_CALLED = """import nemf.packages;
machine m{
  pattern q(Y) = { graph1.Edge(Y); }
  pattern p(X, Y) = { graph1.Node(X); neg find q(Y); }
  pattern r(X, Y) = { graph1.Node(Y); find p(X, Y); }
}"""


def test_a_read_that_binds_a_parameter_only_a_neg_reads_agrees_in_all_three_voices(triangle):
    """m.p bound at Y: the oracle fixes Y before it enumerates X and gives
    the three matches that ls and inc (which reads p through the local
    search) give. Unbound, the oracle still refuses p, and so r, which
    calls it."""
    from gtvm.oracle import OracleError
    from gtvm.rules import VM
    from gtvm.vtcl import link, parse
    program = link([parse(NEG_ONLY_CALLED)], triangle.registry)
    brute = BruteForce(triangle, program.patterns)
    want = brute.match_set("m.p", {"Y": 2})
    assert len(want) == 3
    for matcher in ("ls", "inc"):
        got = VM(program, triangle, matcher=matcher).query_all("m.p", {"Y": 2})
        assert {(m["X"], m["Y"]) for m in got} == want, matcher
    for name in ("m.p", "m.r"):
        with pytest.raises(OracleError, match=r"m\.p: parameter Y has no positive binder"):
            brute.full(name)


def test_delta_since_folds_to_final():
    space = load_fixture("triangle")
    ls, rete = engines(space)
    handle = rete.register("graphPatterns.edgeFromTo")
    initial = set(handle.match_tuples())
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


@pytest.mark.parametrize("seed", range(4))
def test_bound_reads_equal_the_filtered_memory_under_edits(seed):
    """Every bound read of each production, for every subset of bound
    positions, equals its full memory filtered by the key. Each key read
    once stays asked after it empties, and no index keeps an empty bucket."""
    rng = random.Random(seed)
    space = load_fixture("random", n=5, e=6, seed=seed)
    ls, rete = engines(space)
    handles = {n: rete.register(n) for n in inc_names(ls)}
    asked = {}  # (pattern, positions) -> every key read so far
    emptied = 0

    def check():
        nonlocal emptied
        for n, h in handles.items():
            full = set(h.match_tuples())
            arity = len(ls.patterns[n].params)
            for r in range(1, arity + 1):
                for positions in itertools.combinations(range(arity), r):
                    keys = asked.setdefault((n, positions), set())
                    keys.update(tuple(t[i] for i in positions) for t in full)
                    for key in keys:
                        want = {t for t in full
                                if tuple(t[i] for i in positions) == key}
                        assert set(h.match_tuples(positions, key)) == want, \
                            (seed, n, positions, key)
                        emptied += not want
            assert all(all(index.values()) for _, index in h.indexes.values())

    check()
    run_script(space, rng, 40, check)
    assert emptied


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


def test_a_dropped_engine_is_freed_and_stops_listening():
    """No reference cycle holds a network: with the cycle collector off, a
    dropped engine goes at once and leaves the space's listeners, and a
    dropped model goes with both of its VMs."""
    import gc
    import weakref

    from gtvm.rules import VM
    space = load_fixture("random", n=8, e=14, seed=2)
    program = corpus.library_program(space.registry)
    listeners = len(space._listeners)
    gc.disable()
    try:
        rete = ReteEngine(space, program.patterns)
        for name in inc_names(LocalSearchMatcher(space, program.patterns)):
            rete.register(name)
        assert len(space._listeners) == listeners + 1
        dropped = weakref.ref(rete)
        del rete
        assert dropped() is None
        assert len(space._listeners) == listeners
        run_script(space, random.Random(2), 5, lambda: None)

        vms = [VM(program, space, matcher=m) for m in ("inc", "ls")]
        for vm in vms:
            vm.query_all("graphPatterns.circleOfThreeNode")
            vm.query_all("graphPatterns.isolatedNode")
        model = weakref.ref(space)
        del vms, vm, space
        assert model() is None
    finally:
        gc.enable()


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
  pattern rInto(Y) = { t.R(R, X, Y); }
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
    """The supertype alpha keeps the element while either type stays and
    drops it with the last; a retarget while both types stay moves its row
    once."""
    from gtvm.vtcl import link, parse
    space = shared_super_space()
    program = link([parse(SHARED_SUPER)], space.registry)
    ls = LocalSearchMatcher(space, program.patterns)
    rete = ReteEngine(space, program.patterns)
    handles = {n: rete.register(n) for n in program.patterns}
    x, y = space.new_entity("t.A"), space.new_entity("t.B")
    # a second relation into y: rInto(y) rests on two body tuples, so a row
    # sent twice to the t.R alpha would drop y while one relation stays
    space.new_relation("t.R1", x, y)
    if kind == "entity":
        subject, first, second = space.new_entity("t.A"), "t.A", "t.B"
        moves = []
    else:
        subject, first, second = space.new_relation("t.R1", x, y), "t.R1", "t.R2"
        moves = [(space.set_source, y), (space.set_target, x),
                 (space.set_source, x), (space.set_target, y)]
    steps = [(space.add_type, second), *moves, (space.remove_type, first),
             (space.remove_type, second), (space.add_type, first),
             (space.add_type, second), *moves,
             (space.delete, None)]  # deleted with both

    def check(step):
        for n, h in handles.items():
            assert h.match_tuples() == ls.match_set(n), (step, n)

    check("start")
    for op, arg in steps:
        if arg is None:
            op(subject)
        else:
            op(subject, arg)
        check((op.__name__, arg))
    assert not any(subject in t for h in handles.values() for t in h.match_tuples())


def test_dispatch_follows_network_growth():
    """Events dispatched before a registration must not leave the engine
    sending later events to the alphas' old successors: one registration
    gives the Node alpha a successor, another creates new alphas."""
    rng = random.Random(5)
    space = load_fixture("random", n=5, e=6, seed=5)
    ls, rete = engines(space)
    rete.register("graphPatterns.SimpleNode")
    run_script(space, rng, 20, lambda: None)
    assert rete._dispatch[False, (G1 + "Edge",)] == ()  # reached no alpha
    rete.register("graphPatterns.isolatedNode")  # the Node alpha's second successor
    rete.register("graphPatterns.edgeFromToInGraph")  # new Edge, Graph, ... alphas

    def check():
        for n, h in rete.productions.items():
            assert h.match_tuples() == ls.match_set(n), n

    check()
    assert run_script(space, rng, 60, check) == 60
    assert space.audit() == []


PAIR = """machine m{
  pattern pair(A,B) = { find graphPatterns.edgeFromTo(A,B); }
}"""


@pytest.mark.parametrize("seed", range(3))
def test_injectivity_at_the_production_input(seed):
    """A non-shareable pattern over a shareable one drops the aliased tuples
    (self loops) at its production's input, in the memory and in every
    keyed bound read, under edits that make and remove self loops."""
    from gtvm.oracle import BruteForce
    from gtvm.vtcl import link, parse
    rng = random.Random(seed)
    space = load_fixture("random", n=5, e=6, seed=seed)
    program = link([corpus.load_machine("graphPatterns"), parse(PAIR)], space.registry)
    ls = LocalSearchMatcher(space, program.patterns)
    rete = ReteEngine(space, program.patterns)
    pair, edges = rete.register("m.pair"), rete.register("graphPatterns.edgeFromTo")
    loops = 0

    def check():
        nonlocal loops
        oracle = BruteForce(space, program.patterns)
        assert pair.match_tuples() == ls.match_set("m.pair") == oracle.match_set("m.pair")
        loops += any(a == b for a, b in edges.match_tuples())
        for node in space.elements_of_type(G1 + "Node"):
            for positions, binding in (((0,), {"A": node}), ((1,), {"B": node}),
                                       ((0, 1), {"A": node, "B": node})):
                key = (node,) * len(positions)
                assert set(pair.match_tuples(positions, key)) == \
                    ls.match_set("m.pair", binding) == oracle.match_set("m.pair", binding)

    check()
    run_script(space, rng, 60, check)
    assert loops  # some state held a self loop, which pair must not match


# bodies in which one change event reaches two inputs of one chain
ORDER_CASES = {
    "one alpha": "shareable pattern nn(A,B) = { graph1.Node(A); graph1.Node(B); }",
    "Edge.src by a shared node": """shareable pattern srcs(R1,R2) = {
        graph1.Edge.src(R1,E1,N); graph1.Edge.src(R2,E2,N); }""",
    "type and supertype": "pattern thing(A) = { t.Thing(A); graph1.Node(A); }",
    "containment and type": """shareable pattern named(N,T) = {
        graph1.Node(N); nemf.ecore.datatypes.EString(T) in N; }""",
    # a retarget must reach the by-id join as both rows before the Edge.src
    # join's output does; the second body keeps the edge's count above 0,
    # where a stray removal is not absorbed
    "retarget read by id": """shareable pattern ends(E) = {
        graph1.Edge.src(R,E,N); relation(R,X,Y); } or { graph1.Edge(E); }""",
}


def thing_registry() -> TypeRegistry:
    """The corpus metamodels, with graph1.Node a subtype of t.Thing."""
    registry = TypeRegistry()
    registry.register("t.Thing", ENTITY, builtin=True)
    for name, kind, sup in corpus.METAMODEL_TYPES:
        registry.register(name, kind, "t.Thing" if name == G1 + "Node" else sup,
                          builtin=True)
    return registry


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ORDER_CASES)
def test_a_change_reaches_the_most_downstream_input_first(case, seed):
    """A join reads its right input as it is now, and the space already
    holds a change when its event goes out. So each event must reach a
    join's right input before an older node's output reaches its left:
    otherwise a created row is joined twice and a deleted one never."""
    from gtvm.vtcl import link, parse
    registry = thing_registry()
    space = ModelSpace(registry)
    BUILDERS["random"](space, n=5, e=6, seed=seed)
    machine = parse("import nemf.packages; machine m{ " + ORDER_CASES[case] + " }")
    program = link([machine], registry)
    ls = LocalSearchMatcher(space, program.patterns)
    rete = ReteEngine(space, program.patterns)
    handles = {n: rete.register(n) for n in program.patterns}

    def check():
        oracle = BruteForce(space, program.patterns)
        for n, h in handles.items():
            assert h.match_tuples() == ls.match_set(n) == oracle.match_set(n), n

    check()
    assert run_script(space, random.Random(seed), 60, check) == 60


def memories(node) -> dict:
    """What a node keeps of the model: left memories, check results,
    production counts and indexes."""
    kept = {k: v for k, v in vars(node).items() if k in ("left_mem", "mem", "counts")}
    if hasattr(node, "indexes"):
        kept["indexes"] = {pos: index for pos, (_, index) in node.indexes.items()}
    return kept


def test_a_network_built_on_a_model_equals_one_fed_its_creation():
    """Each graphPatterns network built on a random model keeps what one
    built on the empty model keeps after the model's creation events. No
    node keeps a copy of a right input."""
    registry = corpus.metamodels()
    built, fed, events = ModelSpace(registry), ModelSpace(registry), []
    built.subscribe(events.append)
    BUILDERS["random"](built, n=8, e=16, seed=4)
    program = corpus.library_program(registry)
    names = inc_names(LocalSearchMatcher(built, program.patterns))
    networks = [ReteEngine(space, program.patterns) for space in (built, fed)]
    for rete in networks:
        for name in names:
            rete.register(name)
    # the builder's events: creations, then names and values
    for ev in events:
        if isinstance(ev, ElementCreated):
            fed._create(ev.kind, ev.types, ev.parent, ev.source, ev.target,
                        eid=ev.subject, name=ev.name, value=ev.value)
        elif isinstance(ev, ValueSet):
            fed.set_value(ev.subject, ev.new)
        else:
            fed.rename(ev.subject, ev.new)
    assert fed.state() == built.state()
    a, b = networks
    assert [type(n) for n in a.nodes] == [type(n) for n in b.nodes]
    for x, y in zip(a.nodes, b.nodes):
        assert memories(x) == memories(y), x
        assert not {"right_mem", "right_counts"} & vars(x).keys()
    assert any(memories(x).get("left_mem") for x in a.nodes)


def test_a_production_refuses_the_removal_of_a_tuple_it_does_not_hold(triangle):
    """A delivery-order fault that removes a tuple the production never
    held is an AssertionError naming the pattern and the tuple, and it
    leaves the memory as it was."""
    _, rete = engines(triangle)
    prod = rete.register("graphPatterns.SimpleNode")
    held = dict(prod.counts)
    node = next(iter(held))
    with pytest.raises(AssertionError, match=r"graphPatterns\.SimpleNode: removal of \(999,\)"):
        prod.on_body(tuple, None, (999,), -1)
    assert prod.counts == held
    prod.on_body(tuple, None, node, -1)  # a held tuple goes
    assert node not in prod.match_tuples()
    with pytest.raises(AssertionError, match="SimpleNode"):
        prod.on_body(tuple, None, node, -1)  # and cannot go twice


def test_a_relation_joined_with_both_ends_bound(triangle, monkeypatch):
    """A relation whose source and target are bound before it, and whose id
    is fresh: its alpha reads the relations at the bound source and keeps
    those at the bound target, when built and as the model changes."""
    from gtvm.rete import TypeAlpha
    from gtvm.vtcl import link, parse
    src = """import nemf.packages;
    machine m{
      shareable pattern parallel(E, N, R1, R2) = {
        graph1.Edge.src(R1, E, N);
        graph1.Edge.src(R2, E, N);
      }
    }"""
    space = triangle
    program = link([parse(src)], space.registry)
    edge = min(space.elements_of_type(G1 + "Edge"))
    (old,) = [r for r in space.relations_from(edge) if space.conforms(r, G1 + "Edge.src")]
    node = space.target(old)
    other = next(n for n in space.elements_of_type(G1 + "Node") if n != node)
    space.new_relation(G1 + "Edge.src", edge, other)  # same source, other target
    read = []
    reader = TypeAlpha.reader
    monkeypatch.setattr(TypeAlpha, "reader",
                        lambda self, positions: read.append(positions) or reader(self, positions))
    engine = ReteEngine(space, program.patterns)  # held: it listens while alive
    h = engine.register("m.parallel")
    ls = LocalSearchMatcher(space, program.patterns)
    assert (1, 2) in read

    def check(pairs):
        want = BruteForce(space, program.patterns).match_set("m.parallel")
        assert set(h.match_tuples()) == want == ls.match_set("m.parallel")
        assert sum(t[2] != t[3] for t in want) == pairs
    check(0)
    twin = space.new_relation(G1 + "Edge.src", edge, node)  # parallel to old
    check(2)
    space.new_relation(G1 + "Edge.src", edge, other)  # parallel to the first new
    check(4)
    space.delete(twin)
    check(2)


IN_PATTERNS = """import nemf.packages;
machine m{
  pattern inGraph(N, G) = { graph1.Graph(G); graph1.Node(N) in G; }
  pattern under(N, P) = { graph1.Node(N) in P; }
}"""


def test_a_containment_join_follows_every_event_kind(triangle):
    """``T(X) in P`` is one join over ``T``'s alpha that reads (entity,
    proper ancestor) pairs. It takes a create or delete row ``(eid,
    parent)``, and a type change row ``(eid,)`` of a live entity, whose
    ancestors the space gives. After each kind of event the Rete, the local
    search and the oracle agree."""
    from gtvm.vtcl import link, parse
    space = triangle
    program = link([parse(IN_PATTERNS)], space.registry)
    rete = ReteEngine(space, program.patterns)
    prods = {name: rete.register(name) for name in ("m.inGraph", "m.under")}
    assert [(type(n).__name__, n.schema) for n in rete.nodes] == [
        ("TypeAlpha", ("$e",)), ("JoinNode", ("G",)),
        ("TypeAlpha", ("$e",)), ("JoinNode", ("G", "N")),
        ("ProductionNode", ("N", "G")),
        ("JoinNode", ("N", "P")), ("ProductionNode", ("N", "P"))]
    ls = LocalSearchMatcher(space, program.patterns)
    (graph,) = space.elements_of_type(G1 + "Graph")
    edge = min(space.elements_of_type(G1 + "Edge"))
    node = min(space.elements_of_type(G1 + "Node"))

    def check(*pairs):
        oracle = BruteForce(space, program.patterns)
        for name, prod in prods.items():
            assert set(prod.match_tuples()) == ls.match_set(name) == oracle.match_set(name)
        held = set(prods["m.under"].match_tuples())
        assert all((pair in held) == present for pair, present in pairs)

    check(((node, graph), True), ((edge, graph), False))
    space.add_type(edge, G1 + "Node")
    check(((edge, graph), True), ((edge, 0), True))
    space.remove_type(edge, G1 + "Node")
    check(((edge, graph), False))
    inner = space.new_entity(G1 + "Node", node)
    deep = space.new_entity(G1 + "Node", inner)
    check(((inner, node), True), ((deep, inner), True), ((deep, node), True),
          ((deep, graph), True))
    space.delete(node)  # cascades to inner and deep, children first
    check(((inner, node), False), ((deep, node), False), ((deep, graph), False))
    assert set(prods["m.inGraph"].match_tuples()) == {
        (n, graph) for n in space.elements_of_type(G1 + "Node")}
