import pytest

from gtvm import corpus
from gtvm.errors import LinkError, PatternError
from gtvm.patterns import (Body, CheckC, CountC, EntityC, FindC, NegC,
                           Pattern, RelationC, arg_equalities, builtin_library,
                           consistency_test, schedule, tuple_getter, validate,
                           validate_patterns)
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
    assert tc.recursive and tc.requires_ls and tc.localsearch
    tem = lib["graphPatterns.transitiveEdgeMissing"]
    assert tem.requires_ls and not tem.recursive
    assert not lib["graphPatterns.transitiveEdgeMissing2hop"].requires_ls


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


def test_tuple_getter_and_arg_equalities():
    t = ("a", "b", "c", "d")
    assert tuple_getter([])(t) == ()
    assert tuple_getter([2])(t) == ("c",)
    assert tuple_getter([3, 0, 2])(t) == ("d", "a", "c")
    assert tuple_getter([1, 2, 3])(t) == ("b", "c", "d")
    assert arg_equalities(("E", "N", "N", "E")) == ((1, 2), (0, 3))
    assert arg_equalities(("A", "B")) == ()
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
            from gtvm.patterns import constraint_vars
            seen.update(constraint_vars(c))


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
