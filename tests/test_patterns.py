from dataclasses import replace

import pytest

from conftest import builtin_library
from gtvm import corpus
from gtvm.errors import LinkError, PatternError
from gtvm.patterns import (Body, CheckC, CountC, EntityC, FindC, NegC,
                           Pattern, RelationC, arg_layout,
                           consistency_test, constraint_vars, schedule,
                           tuple_getter, validate, validate_patterns)
from gtvm.vtcl import link, parse

G1 = "nemf.packages.graph1."

LIB_NAMES = [
    "Graph", "SimpleNode", "NodesRelations", "nameOfNode", "Edge",
    "EdgeOfGraph", "EdgesRelation", "srcAndRelForEdge", "trgAndRelForEdge",
    "loopingEdge", "edgeFromToInternal", "edgeFromTo", "edgeFromToInGraph",
    "isolatedNode", "circleOfThreeNode", "danglingEdge",
    "OldAndNewSourceOfEdge", "OldAndNewTargetOfEdge", "TraceabilityRelation",
    "oldAndNewEdgeFromTo", "N1Node", "connectedEdge",
    "transitiveEdgeMissing2hop", "transitiveEdgeMissing", "transitiveConnected",
]


def test_builtin_library_contents():
    lib = builtin_library()
    assert sorted(lib) == sorted(f"graphPatterns.{n}" for n in LIB_NAMES)
    shareable = {n for n, p in lib.items() if p.shareable}
    assert shareable == {"graphPatterns.edgeFromToInternal",
                         "graphPatterns.edgeFromTo",
                         "graphPatterns.oldAndNewEdgeFromTo"}
    dangling = lib["graphPatterns.danglingEdge"]
    assert len(dangling.bodies) == 2
    iso = lib["graphPatterns.isolatedNode"]
    negs = [c for c in iso.bodies[0].constraints if isinstance(c, NegC)]
    assert len(negs) == 2


def test_recursion_flags():
    lib = builtin_library()
    tc = lib["graphPatterns.transitiveConnected"]
    assert tc.recursive and tc.ls_reason and tc.localsearch
    tem = lib["graphPatterns.transitiveEdgeMissing"]
    assert tem.ls_reason and not tem.recursive
    assert not lib["graphPatterns.transitiveEdgeMissing2hop"].ls_reason


def test_ls_reason_names_why_and_the_call_chain(registry):
    """Why only the local search can match a pattern: its own reason
    (recursive, @localsearch, a parameter no positive constraint binds),
    else the first callee's that has one, down the call chain."""
    src = """
    import nemf.packages;
    machine m{
      pattern q(Y) = { graph1.Edge(Y); }
      pattern p(X, Y) = { graph1.Node(X); neg find q(Y); }
      pattern checked(X, V) = { graph1.Node(X); check(V == 1); }
      pattern counted(E, N) = { find q(E) # N; }
      pattern caller(X, Y) = { find p(X, Y); }
      pattern reach(F, T, G) = { find graphPatterns.transitiveConnected(F, T, G); }
      pattern reach2(F, T) = { find reach(F, T, G); }
    }
    """
    program = link([corpus.load_machine("graphPatterns"), parse(src)], registry)
    reasons = {n.split(".", 1)[1]: p.ls_reason for n, p in program.patterns.items()}
    only = "reads its parameter {} only in a neg, count or check"
    recursive = "calls graphPatterns.transitiveConnected, which is recursive"
    assert {n: r for n, r in reasons.items() if r} == {
        "transitiveConnected": "is recursive",
        "transitiveEdgeMissing": "is @localsearch",
        "p": only.format("Y"),
        "checked": only.format("V"),
        "counted": only.format("E"),
        "caller": "calls m.p, which " + only.format("Y"),
        "reach": recursive,
        "reach2": "calls m.reach, which " + recursive,
    }
    assert program.patterns["m.p"].bodies[0].unbound_params == ("Y",)


def test_recursive_pattern_without_localsearch_rejected(registry):
    src = """
    import nemf.packages;
    machine m{
      pattern p(X) = {
        graph1.Node(X);
        find p(X);
      }
    }
    """
    with pytest.raises(LinkError) as err:
        link([parse(src)], registry)
    assert "local search" in str(err.value)


def test_localsearch_annotation_allows_recursion(registry):
    src = """
    import nemf.packages;
    machine m{
      @localsearch
      pattern p(X) = {
        graph1.Node(X);
      } or {
        graph1.Node(X);
        find p(X);
      }
    }
    """
    program = link([parse(src)], registry)
    assert program.patterns["m.p"].recursive


def test_neg_into_recursion_cycle_rejected(registry):
    p = Pattern("p", ("X",), (
        Body((EntityC(G1 + "Node", "X"), NegC("p", ("X",)))),), localsearch=True)
    with pytest.raises(PatternError) as err:
        validate_patterns({"p": p}, registry)
    assert "cycle" in str(err.value)


def test_mutual_recursion_with_one_localsearch_member(registry):
    node = EntityC(G1 + "Node", "X")
    a = Pattern("a", ("X",), (Body((node,)), Body((node, FindC("b", ("X",))))),
                localsearch=True)
    b = Pattern("b", ("X",), (Body((node, FindC("a", ("X",)))),))
    caller = Pattern("caller", ("X",), (Body((FindC("b", ("X",)),)),))
    validate_patterns({"caller": caller, "b": b, "a": a}, registry)
    assert a.recursive and b.recursive
    assert a.scc_members == b.scc_members == ("a", "b")
    assert a.ls_reason and b.ls_reason
    assert caller.ls_reason and not caller.recursive
    assert caller.scc_members == ("caller",)

    b_neg = Pattern("b", ("X",), (Body((node, FindC("a", ("X",)), NegC("a", ("X",)))),))
    with pytest.raises(PatternError, match=r"^b: neg/count into the same recursion cycle \(a\)"):
        validate_patterns({"a": a, "b": b_neg}, registry)

    with pytest.raises(PatternError, match="^recursive pattern a requires local search"):
        validate_patterns({"b": b, "a": replace(a, localsearch=False)}, registry)


def test_unknown_find_target_rejected(registry):
    p = Pattern("p", ("X",), (Body((FindC("nothing", ("X",)),)),))
    with pytest.raises(PatternError) as err:
        validate(p, registry)
    assert "unknown pattern" in str(err.value)


def test_param_missing_from_body_rejected(registry):
    p = Pattern("p", ("X", "Y"), (Body((EntityC(G1 + "Node", "X"),)),))
    with pytest.raises(PatternError) as err:
        validate(p, registry)
    assert "parameter Y" in str(err.value)


def test_check_without_binder_rejected(registry):
    from gtvm import expr as ex
    p = Pattern("p", ("X",), (Body((
        EntityC(G1 + "Node", "X"),
        CheckC(ex.BinOp("==", ex.ValueOf(ex.Var("Ghost")), ex.Lit("n1"))))),))
    with pytest.raises(PatternError) as err:
        validate(p, registry)
    assert "Ghost" in str(err.value)


def test_kind_mismatch_rejected(registry):
    p = Pattern("p", ("X",), (Body((EntityC(G1 + "Graph.nodes", "X"),)),))
    with pytest.raises(PatternError):
        validate(p, registry)
    q = Pattern("q", ("R", "A", "B"), (Body((
        RelationC(G1 + "Node", "R", "A", "B"),)),))
    with pytest.raises(PatternError):
        validate(q, registry)


def test_arity_mismatch_rejected(registry):
    lib = builtin_library(registry)
    p = Pattern("p", ("X",), (Body((
        FindC("graphPatterns.srcAndRelForEdge", ("X",)),)),))
    with pytest.raises(PatternError) as err:
        validate(p, registry, context=lib)
    assert "3 arguments" in str(err.value)


def test_arity_checked_before_int_param_inference(registry):
    src = corpus.corpus_source("graphPatterns")
    call = "find edgeFromToInternal(Edge,From,To);"
    assert call in src
    bad = src.replace(call, "find edgeFromToInternal(Edge,Node,Node,Edge);", 1)
    with pytest.raises(LinkError) as err:  # a GtvmError, not an IndexError
        link([parse(bad)], registry)
    assert "3 arguments, got 4" in str(err.value)


def test_tuple_getter_and_arg_layout():
    t = ("a", "b", "c", "d")
    assert tuple_getter([])(t) == ()
    assert tuple_getter([2])(t) == ("c",)
    assert tuple_getter([3, 0, 2])(t) == ("d", "a", "c")
    assert tuple_getter([1, 2, 3])(t) == ("b", "c", "d")
    # nothing bound: every repeat is tested, every first position is fresh
    assert arg_layout(("E", "N", "N", "E"), {}) == ((), ((1, 2), (0, 3)), (0, 1))
    assert arg_layout(("A", "B"), {}) == ((), (), (0, 1))
    # a bound argument is keyed at each of its positions, never tested
    assert arg_layout(("E", "N", "N", "E", "X", "X"), {"N": 4, "Z": 0}) == (
        ((1, 4), (2, 4)), ((0, 3), (4, 5)), (0, 4))
    assert consistency_test(("A", "B")) is None
    same_ends = consistency_test(("E", "N", "N"))
    assert same_ends((1, 2, 2)) and not same_ends((1, 2, 3))


def test_count_output_is_int_param(registry):
    lib = builtin_library(registry)
    counted = Pattern("counted", ("N",), (Body((
        CountC("graphPatterns.SimpleNode", ("Node",), "N"),)),))
    closed = dict(lib)
    closed["counted"] = counted
    validate_patterns(closed, registry)
    assert counted.int_params == {"N"}
    # and the int-ness propagates through a find
    wrapper = Pattern("wrapper", ("M",), (Body((FindC("counted", ("M",)),)),))
    closed["wrapper"] = wrapper
    validate_patterns(closed, registry)
    assert wrapper.int_params == {"M"}


def test_schedule_binds_before_reading():
    lib = builtin_library()
    body = lib["graphPatterns.danglingEdge"].bodies[0]
    plan = schedule(body.constraints, ("Edge",), frozenset())
    seen = set()
    for c in plan:
        if isinstance(c, NegC):
            assert "Edge" in seen  # the shared neg variable is already bound
        seen.update(a for a in getattr(c, "args", ()))
        if isinstance(c, (EntityC, RelationC)):
            seen.update(constraint_vars(c))


NODE, GRAPH = G1 + "Node", G1 + "Graph"
SRC = G1 + "Edge.src"


def connected_first(plan, bound):
    """True when no positive constraint of ``plan`` that shares no variable
    with a non-empty bound set was picked while one that shares some was
    still to come."""
    have = set(bound)
    for i, c in enumerate(plan):
        if isinstance(c, (EntityC, RelationC, FindC)) and have and \
                have.isdisjoint(constraint_vars(c)):
            if any(isinstance(d, (EntityC, RelationC, FindC))
                   and not have.isdisjoint(constraint_vars(d))
                   for d in plan[i + 1:]):
                return False
        have.update(constraint_vars(c))
    return True


# the body of edgeFromToInternal: two node scans and two calls joined by Edge
EDGE_BODY = (EntityC(NODE, "From"), EntityC(NODE, "To"),
             FindC("src", ("Edge", "From", "SR")),
             FindC("trg", ("Edge", "To", "TR")))


@pytest.mark.parametrize("estimate", [None, lambda c, have: 1000 if isinstance(
    c, FindC) else 1], ids=["no-hint", "cheap-scans"])
def test_schedule_takes_connected_constraints_first(estimate):
    """The fixed tiers give the plans below. An estimate gives the plan of
    fewest rows among the greedy ones, always connected first: here one
    call unbound, which makes its node check a filter, then the other
    through the bound edge."""
    tiers = estimate is None
    plan = schedule(EDGE_BODY, ("Edge", "From", "To"), frozenset(), estimate)
    order = [0, 2, 3, 1] if tiers else [2, 0, 3, 1]
    assert plan == [EDGE_BODY[k] for k in order]
    # a relation with no bound end waits for the relation that has one. The
    # tiers start with the node scan; the estimate with a relation scan (3
    # rows in all against 4 for the node-first plan), after which the node
    # check is a filter
    body = (EntityC(NODE, "X"), RelationC(SRC, "R2", "E2", "Y"),
            RelationC(SRC, "R1", "E1", "X"), RelationC(SRC, "R3", "E1", "Y"))
    plan = schedule(body, ("X", "Y"), frozenset(), estimate)
    order = [0, 2, 3, 1] if tiers else [1, 3, 2, 0]
    assert plan == [body[k] for k in order]
    # a call without arguments is a filter: it does not wait for the others
    body = (EntityC(NODE, "X"), RelationC(SRC, "R", "E", "X"), FindC("p", ()))
    plan = schedule(body, ("X",), frozenset({"X"}), estimate)
    assert plan == [body[0], body[2], body[1]]
    for bound in [frozenset(), frozenset({"To"}), frozenset({"Edge"})]:
        plan = schedule(EDGE_BODY, ("Edge", "From", "To"), bound, estimate)
        assert sorted(map(repr, plan)) == sorted(map(repr, EDGE_BODY))
        assert connected_first(plan, bound)


@pytest.mark.parametrize("estimate", [None, lambda c, have: 5], ids=["no-hint", "hint"])
def test_schedule_keeps_a_disconnected_body(estimate):
    body = (EntityC(NODE, "A"), EntityC(GRAPH, "B"))
    assert schedule(body, ("A", "B"), frozenset(), estimate) == list(body)
    assert schedule(body, ("A", "B"), frozenset({"B"}), estimate) == [body[1], body[0]]
    # each part is taken whole before the next one starts; with an estimate
    # the relation scan comes first, and its node check is a filter
    body = (EntityC(NODE, "A"), EntityC(GRAPH, "B"),
            RelationC(SRC, "R", "E", "A"), RelationC(SRC, "S", "F", "B"))
    plan = schedule(body, ("A", "B"), frozenset(), estimate)
    order = [0, 2, 1, 3] if estimate is None else [2, 0, 1, 3]
    assert plan == [body[k] for k in order]


@pytest.mark.parametrize("estimate", [None, lambda c, have: 3], ids=["no-hint", "hint"])
def test_schedule_places_neg_count_and_check_as_soon_as_ready(estimate):
    from gtvm import expr as ex
    first = CheckC(ex.BinOp("==", ex.ValueOf(ex.Var("X")), ex.Lit("n1")))
    neg = NegC("p", ("X", "Z"))          # Z is existential inside the neg
    count = CountC("q", ("X", "W"), "N")
    on_count = CheckC(ex.BinOp("==", ex.Var("N"), ex.Lit(2)))
    rel, node = RelationC(SRC, "R", "X", "Y"), EntityC(NODE, "X")
    body = (first, rel, neg, count, on_count, node)
    plan = schedule(body, ("X", "N"), frozenset(), estimate)
    # the tiers take the node scan first; an estimate the relation scan,
    # after which the node check is a filter
    start, last = (node, rel) if estimate is None else (rel, node)
    assert plan == [start, first, neg, count, on_count, last]
    plan = schedule(body, ("X", "N"), frozenset({"X"}), estimate)
    assert plan == [first, neg, count, on_count, node, rel]
    with pytest.raises(PatternError):
        schedule((EntityC(NODE, "X"), NegC("p", ("Y",))), ("X", "Y"), frozenset())


@pytest.mark.parametrize("estimate", [None, lambda c, have: 3], ids=["no-hint", "hint"])
def test_schedule_places_a_check_written_before_the_count_it_reads(estimate):
    from gtvm import expr as ex
    on_count = CheckC(ex.BinOp("==", ex.Var("N"), ex.Lit(2)))
    node, count = EntityC(NODE, "X"), CountC("edgeOf", ("X", "E"), "N")
    body = (on_count, node, count)     # twoOut(X): check(N == 2); Node(X); # N
    plan = schedule(body, ("X",), frozenset(), estimate)
    assert plan == [node, count, on_count]
    plan = schedule(body, ("X",), frozenset({"X"}), estimate)
    assert plan == [count, on_count, node]
    # the check follows its count at once, ahead of the next positive pick
    rel = RelationC(SRC, "R", "X", "Y")
    body = (on_count, rel, node, count)
    plan = schedule(body, ("X",), frozenset({"X"}), estimate)
    assert plan == [count, on_count, node, rel]


def test_ls_plans_of_the_migration_patterns_take_the_call_first():
    # a graph1 model: the graph2/graph3 node scans cost 0, and are still
    # taken only once nothing connected is ready
    from gtvm.corpus.fixtures import load_fixture
    from gtvm.matcher_ls import LocalSearchMatcher
    space = load_fixture("random", n=8, e=16, seed=1)
    ls = LocalSearchMatcher(space, corpus.library_program(space.registry).patterns)

    def plan(name, bound):
        p = ls.patterns[f"graphPatterns.{name}"]
        positions = tuple(sorted(map(p.params.index, bound)))
        return [(type(c).__name__, getattr(c, "var", None) or getattr(c, "pattern", None)
                 or c.rel) for c in ls._program(p, 0, positions).plan]

    assert plan("oldAndNewEdgeFromTo", ()) == [
        ("EntityC", "NewFrom"), ("RelationC", "Tr1"), ("EntityC", "From"),
        ("FindC", "graphPatterns.edgeFromTo"), ("EntityC", "To"),
        ("RelationC", "Tr2"), ("EntityC", "NewTo")]
    assert plan("OldAndNewSourceOfEdge", ("Edge",)) == [
        ("FindC", "graphPatterns.srcAndRelForEdge"), ("RelationC", "Traceability"),
        ("EntityC", "Node2")]


def test_disjunction_union(library):
    space, program = library
    from gtvm.matcher_ls import LocalSearchMatcher
    ls = LocalSearchMatcher(space, program.patterns)
    # connectedEdge = src-body or trg-body, projected to params and deduped
    per_body = set()
    for sub in ("srcAndRelForEdge", "trgAndRelForEdge"):
        for m in ls.match_all(f"graphPatterns.{sub}"):
            per_body.add((m["To" if sub.startswith("trg") else "From"], m["Edge"]))
    got = {(m["Node"], m["Edge"])
           for m in ls.match_all("graphPatterns.connectedEdge")}
    assert got == per_body


def test_count_with_bound_prefix_matches_brute():
    # N is the out-degree of X: counting keyed on a bound argument
    from gtvm.corpus.fixtures import load_fixture
    from gtvm.matcher_ls import LocalSearchMatcher
    from gtvm.oracle import BruteForce
    from gtvm.rete import ReteEngine

    space = load_fixture("random", n=6, e=12, seed=11)
    lib = builtin_library(space.registry)
    counted = Pattern("m.outDegree", ("X", "N"), (Body((
        EntityC(G1 + "Node", "X"),
        CountC("graphPatterns.srcAndRelForEdge", ("E", "X", "R"), "N"))),))
    patterns = dict(lib)
    patterns["m.outDegree"] = counted
    validate_patterns(patterns, space.registry)

    ls = LocalSearchMatcher(space, patterns)
    brute = BruteForce(space, patterns)
    assert ls.match_set("m.outDegree") == brute.match_set("m.outDegree")
    for m in ls.match_all("m.outDegree"):
        assert m["N"] == ls.count("graphPatterns.srcAndRelForEdge",
                                  {"From": m["X"]})

    rete = ReteEngine(space, patterns)
    handle = rete.register("m.outDegree")
    assert handle.match_tuples() == ls.match_set("m.outDegree")
    # keyed count stays consistent under edits
    nodes = space.elements_of_type(G1 + "Node")
    g = space.elements_of_type(G1 + "Graph")[0]
    e = space.new_entity(G1 + "Edge", g)
    space.new_relation(G1 + "Edge.src", e, nodes[0])
    assert handle.match_tuples() == ls.match_set("m.outDegree")
    space.delete(e)
    assert handle.match_tuples() == ls.match_set("m.outDegree")


def test_count_patterns_against_brute_on_fixtures():
    from gtvm import corpus
    from gtvm.corpus.fixtures import load_fixture
    from gtvm.matcher_ls import LocalSearchMatcher
    from gtvm.oracle import BruteForce

    for fixture in ("selfloop", "delete"):
        space = load_fixture(fixture)
        program = corpus.load_program(["graphPatterns", "countMatchesMC"],
                                      space.registry)
        ls = LocalSearchMatcher(space, program.patterns)
        brute = BruteForce(space, program.patterns)
        for name in program.patterns:
            if name.startswith("countMatchesMC.count"):
                assert ls.match_set(name) == brute.match_set(name), (fixture, name)


def test_oracle_refuses_recursive_and_unbindable():
    from gtvm.corpus.fixtures import load_fixture
    from gtvm.oracle import BruteForce, OracleError

    space = load_fixture("triangle")
    lib = builtin_library(space.registry)
    brute = BruteForce(space, lib)
    with pytest.raises(OracleError):
        brute.match_set("graphPatterns.transitiveConnected")
    noescape = Pattern("noescape", ("X",), (Body((
        NegC("graphPatterns.SimpleNode", ("X",)),)),))
    patterns = dict(lib)
    patterns["noescape"] = noescape
    with pytest.raises(OracleError):
        BruteForce(space, patterns).match_set("noescape")


def test_oracle_skips_a_body_with_an_empty_domain(monkeypatch):
    # graph2.Node is empty on a graph1 model: no prefix of these bodies is
    # tried at all (their callees are still solved, for the find)
    from gtvm.corpus.fixtures import load_fixture
    from gtvm.oracle import BruteForce

    space = load_fixture("random", n=8, e=16, seed=1)
    lib = builtin_library(space.registry)
    brute = BruteForce(space, lib)
    checked = []
    consistent = BruteForce._consistent
    monkeypatch.setattr(BruteForce, "_consistent",
                        lambda self, c, env: checked.append(c) or consistent(self, c, env))
    for name in ("OldAndNewSourceOfEdge", "OldAndNewTargetOfEdge"):
        assert brute.match_set("graphPatterns." + name) == frozenset()
        outer = lib["graphPatterns." + name].bodies[0].constraints
        assert checked and not [c for c in checked if c in outer]


def test_oracle_constraint_outcomes_on_a_tiny_model():
    """Each outcome of ``BruteForce._consistent``, on prefixes of the
    triangle: an unassigned variable is a wildcard, a dead or mistyped
    value and a relation that does not fit fail."""
    from gtvm.corpus.fixtures import ESTRING, load_fixture
    from gtvm.oracle import BruteForce

    space = load_fixture("triangle")
    brute = BruteForce(space, builtin_library(space.registry))
    consistent = brute._consistent
    n1, n2, _ = space.elements_of_type(G1 + "Node")
    edge = space.elements_of_type(G1 + "Edge")[0]
    (src,) = [r for r in space.relations_from(edge) if space.conforms(r, G1 + "Edge.src")]
    (trg,) = [r for r in space.relations_from(edge) if space.conforms(r, G1 + "Edge.trg")]
    texts = {space.parent(t): t for t in space.elements_of_type(ESTRING)}
    dead = max(space.iter_elements()) + 1

    node = EntityC(G1 + "Node", "X")
    assert consistent(node, {}) and consistent(node, {"X": n1})
    assert not consistent(node, {"X": dead})  # dead element
    assert not consistent(node, {"X": edge})  # wrong type
    text_in = EntityC(ESTRING, "T", in_var="P")
    assert consistent(text_in, {"T": texts[n1], "P": n1})
    assert not consistent(text_in, {"T": texts[n1], "P": n2})  # not contained

    rel = RelationC(G1 + "Edge.src", "R", "E", "N")
    assert consistent(rel, {})  # no end assigned
    assert consistent(rel, {"E": edge}) and consistent(rel, {"N": space.target(src)})
    assert not consistent(rel, {"E": dead})  # a dead end
    assert not consistent(rel, {"E": n1})  # an end with no relation that fits
    assert consistent(rel, {"R": src, "E": edge, "N": space.target(src)})
    assert not consistent(rel, {"R": dead})  # dead relation id
    assert not consistent(rel, {"R": n1})  # an entity, not a relation
    assert not consistent(rel, {"R": trg})  # wrong type
    assert not consistent(rel, {"R": src, "E": n1})  # source mismatch
    assert not consistent(rel, {"R": src, "N": space.target(trg)})  # target mismatch
    # neg and count are decided on complete assignments only
    assert consistent(NegC("graphPatterns.SimpleNode", ("X",)), {"X": n1})
    assert consistent(CountC("graphPatterns.SimpleNode", ("X",), "K"), {})


def test_oracle_count_mismatch_on_a_counted_variable():
    """Two counts into one variable match only where the counts are equal:
    the second count finds the variable set and compares. All three
    voices agree."""
    from gtvm.corpus.fixtures import load_fixture
    from gtvm.matcher_ls import LocalSearchMatcher
    from gtvm.oracle import BruteForce
    from gtvm.rete import ReteEngine

    src = """import nemf.packages; machine q{
      pattern sameCount(K) = {
        find graphPatterns.SimpleNode(X) # K;
        find graphPatterns.Edge(E) # K;
      }
    }"""
    space = load_fixture("triangle")
    program = link([corpus.load_machine("graphPatterns"), parse(src)], space.registry)
    engine = ReteEngine(space, program.patterns)
    ls = LocalSearchMatcher(space, program.patterns)
    for want in ({(3,)}, set()):  # 3 nodes and 3 edges, then 4 nodes
        brute = BruteForce(space, program.patterns)
        assert brute.match_set("q.sameCount") == want
        assert ls.match_set("q.sameCount") == want
        assert set(engine.register("q.sameCount").match_tuples()) == want
        (graph,) = space.elements_of_type(G1 + "Graph")
        space.new_entity(G1 + "Node", graph)
