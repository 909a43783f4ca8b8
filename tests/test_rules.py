import pytest

from gtvm import corpus
from gtvm.corpus.fixtures import G1, load_fixture
from gtvm.errors import DivergenceError, ExecError, LinkError
from gtvm.matcher_ls import LocalSearchMatcher
from gtvm.rules import MAX_CALL_DEPTH, MAX_EXEC_DEPTH, VM
from gtvm.vtcl import link, parse

HEADER = "import datatypes;\nimport nemf.packages;\nimport nemf.ecore.datatypes;\n"


def machine(body: str):
    return parse(HEADER + body)


def run_source(body: str, fixture="empty", matcher="ls", libraries=(),
               step_budget=None):
    space = load_fixture(fixture)
    machines = [corpus.load_machine(n) for n in libraries] + [machine(body)]
    program = link(machines, space.registry)
    vm = VM(program, space, matcher=matcher, step_budget=step_budget)
    report = vm.run(machines[-1].name)
    return report, space, vm


@pytest.mark.parametrize("matcher", ["ls", "inc"])
def test_hello_world_asm(matcher):
    space = load_fixture("empty")
    program = link([corpus.load_machine("helloWorldASM")], space.registry)
    vm = VM(program, space, matcher=matcher)
    report = vm.run("helloWorldASM")
    assert report.results == [("e14", "Hello TTC Participants!")]
    assert report.log[0] == "2.1 Hello World transformation started"
    assert report.log[-1] == "2.1 Hello World transformation finished"
    greeting = space.elements_of_type("nemf.packages.helloworld.Greeting")[0]
    text_rel = [r for r in space.relations_from(greeting)][0]
    assert space.value(space.target(text_rel)) == "Hello world"


def test_missing_main():
    space = load_fixture("empty")
    program = link([machine("machine m{ rule other() = skip; }")], space.registry)
    with pytest.raises(ExecError) as err:
        VM(program, space).run("m")
    assert "main" in str(err.value)


def test_plain_choose_failure_aborts():
    with pytest.raises(ExecError) as err:
        run_source("""
        machine m{
          rule main() = choose N with find graphPatterns.SimpleNode(N) do skip;
        }""", libraries=["graphPatterns"])
    assert "choose" in str(err.value)


def test_try_absorbs_choose_failure():
    report, _, _ = run_source("""
    machine m{
      rule main() = seq{
        try choose N with find graphPatterns.SimpleNode(N) do println("found");
        println("after");
      }
    }""", libraries=["graphPatterns"])
    assert report.log == ["after"]


def test_choose_picks_first_in_order():
    report, space, _ = run_source("""
    machine m{
      rule main() =
        choose N with find graphPatterns.SimpleNode(N) do println(name(N));
    }""", fixture="triangle", libraries=["graphPatterns"])
    first = min(space.elements_of_type(G1 + "Node"))
    assert report.log == [space.name(first)]


def test_forall_snapshot_is_not_enlarged_by_body():
    # inserting 2-hop edges inside the forall must not cascade: on a 4-chain
    # the one-shot pass differs from the iterative closure
    once, once_space, _ = run_source("""
    machine m{
      rule main() = let Count = 0 in seq{
        forall From, To, Graph with
         find graphPatterns.transitiveEdgeMissing2hop(From,To,Graph) do
         let E = undef, R = undef in seq{
          new(graph1.Edge(E) in Graph);
          new(graph1.Graph.edges(R,Graph,E));
          new(graph1.Edge.src(R,E,From));
          new(graph1.Edge.trg(R,E,To));
          update Count = Count+1;
        }
        println(Count);
      }
    }""", fixture="chain4", libraries=["graphPatterns"])
    assert once.log == ["2"]  # (n1,n3) and (n2,n4) only; (n1,n4) needs a cascade
    assert len(once_space.elements_of_type(G1 + "Edge")) == 5


def test_forall_skips_matches_invalidated_by_deletion():
    report, space, _ = run_source("""
    machine m{
      rule main() = let Count = 0 in seq{
        forall Edge with find graphPatterns.Edge(Edge) do seq{
          forall Other with find graphPatterns.Edge(Other) do
            if(name(Other) != name(Edge)) delete(Other);
          update Count = Count+1;
        }
        println(Count);
      }
    }""", fixture="triangle", libraries=["graphPatterns"])
    # first iteration deletes the two other edges; their matches are skipped
    assert report.log == ["1"]
    assert len(space.elements_of_type(G1 + "Edge")) == 1


def test_counting_idiom_matches_matcher_count():
    report, space, vm = run_source("""
    machine m{
      rule main() = let Count = 0 in seq{
        forall Node with find graphPatterns.SimpleNode(Node) do seq{
          update Count = Count+1;
        }
        println(Count);
      }
    }""", fixture="triangle", libraries=["graphPatterns"])
    ls = LocalSearchMatcher(vm.space, vm.program.patterns)
    assert report.log == [str(ls.count("graphPatterns.SimpleNode"))]


def test_forall_over_empty_is_noop():
    report, _, _ = run_source("""
    machine m{
      rule main() = seq{
        forall Node with find graphPatterns.isolatedNode(Node) do println("x");
        println("done");
      }
    }""", fixture="triangle", libraries=["graphPatterns"])
    assert report.log == ["done"]


def test_iterate_terminates_and_diverges():
    report, _, _ = run_source("""
    machine m{
      rule main() = let Count = 0 in seq{
        iterate choose N with find graphPatterns.N1Node(N) do seq{
          delete(N);
          update Count = Count+1;
        }
        println(Count);
      }
    }""", fixture="triangle", libraries=["graphPatterns"])
    assert report.log == ["1"]
    with pytest.raises(DivergenceError):
        run_source("""
        machine m{
          rule main() =
            iterate choose N with find graphPatterns.SimpleNode(N) do skip;
        }""", fixture="triangle", libraries=["graphPatterns"], step_budget=50)


def test_iterate_zero_iterations_on_closed_graph():
    report, _, _ = run_source("""
    machine m{
      rule main() = let Count = 0 in seq{
        iterate choose From, To, Graph with
         find graphPatterns.transitiveEdgeMissing2hop(From,To,Graph) do seq{
          update Count = Count+1;
        }
        println(Count);
      }
    }""", fixture="selfloop", libraries=["graphPatterns"], step_budget=100)
    # n1->n2 is the only connection; nothing is 2-hop reachable
    assert report.log == ["0"]


def test_call_out_param():
    report, space, _ = run_source("""
    machine m{
      rule produce(out X) = new(graph1.Node(X) in nemf.resources);
      rule main() = let N = undef in seq{
        call produce(N);
        println(name(N));
      }
    }""")
    assert report.log == [space.name(space.elements_of_type(G1 + "Node")[0])]


def test_undef_propagation_and_arith():
    report, _, _ = run_source("""
    machine m{
      rule main() = let X = undef in seq{
        println("a" + "b");
        println(1 + 1);
        println("x=" + X);
        if(X == undef) println("is undef");
        if(X != undef) println("not printed");
      }
    }""")
    assert report.log == ["ab", "2", "x=undef", "is undef"]


def test_integer_add_on_non_integers_fails():
    with pytest.raises(ExecError):
        run_source("""
        machine m{
          rule main() = let X = undef in println(1 + X);
        }""")


def test_value_of_unset_is_undef():
    report, _, _ = run_source("""
    machine m{
      rule main() = let N = undef in seq{
        new(graph1.Node(N) in nemf.resources);
        println("v:" + value(N));
      }
    }""")
    assert report.log == ["v:undef"]


def test_update_requires_let():
    space = load_fixture("empty")
    with pytest.raises(LinkError) as err:
        link([machine("""
        machine m{
          rule main() = forall N with find graphPatterns.SimpleNode(N) do
            update N = undef;
        }"""), corpus.load_machine("graphPatterns")], space.registry)
    assert "let" in str(err.value)


# -- GT rule application ------------------------------------------------------


def test_gt_creation_case(triangle):
    # case (a): unbound postcondition variables are created with containment
    report, space, _ = run_source("""
    machine m{
      rule main() = try choose with apply makeIsland() do skip;
      gtrule makeIsland() = {
        precondition pattern pre(G) = {
          graph1.Graph(G);
        }
        postcondition pattern post(G,N) = {
          graph1.Graph(G);
          graph1.Node(N) in G;
          graph1.Graph.nodes(R,G,N);
        }
        action{
          rename(N, "made");
        }
      }
    }""", fixture="triangle", libraries=["graphPatterns"])
    nodes = space.elements_of_type(G1 + "Node")
    made = [n for n in nodes if space.name(n) == "made"]
    assert len(made) == 1
    g = space.elements_of_type(G1 + "Graph")[0]
    assert space.parent(made[0]) == g
    assert any(space.target(r) == made[0] for r in space.relations_from(g))


def test_gt_retarget_case():
    # case (c): same relation variable with swapped endpoint variables
    _, space, _ = run_source("""
    machine m{
      rule main() = forall E with apply rev(E) do skip;
      gtrule rev(out E) = {
        precondition pattern pre(E,F,T,SR,TR) = {
          find graphPatterns.srcAndRelForEdge(E,F,SR);
          find graphPatterns.trgAndRelForEdge(E,T,TR);
        }
        postcondition pattern post(E,F,T,SR,TR) = {
          find graphPatterns.srcAndRelForEdge(E,T,SR);
          find graphPatterns.trgAndRelForEdge(E,F,TR);
        }
      }
    }""", fixture="chain4", libraries=["graphPatterns"])
    from gtvm.oracle import edge_pairs
    names = {(space.name(a), space.name(b)) for a, b in edge_pairs(space)}
    assert names == {("n2", "n1"), ("n3", "n2"), ("n4", "n3")}


def test_gt_delete_case(triangle):
    # case (d): postcondition neg find over a pre-bound variable deletes it
    _, space, _ = run_source("""
    machine m{
      rule main() = try choose with apply deleteN1() do skip;
      gtrule deleteN1() = {
        precondition find graphPatterns.N1Node(N1)
        postcondition pattern noN1(N1) = {
          neg find graphPatterns.N1Node(N1);
        }
      }
    }""", fixture="triangle", libraries=["graphPatterns"])
    assert all(space.name(n) != "n1" for n in space.elements_of_type(G1 + "Node"))


def test_gt_nac_blocks_reapplication():
    report, space, _ = run_source("""
    machine m{
      rule main() = seq{
        try choose with apply make() do println("first");
        try choose with apply make() do println("second");
      }
      gtrule make() = {
        precondition pattern empty() = {
          neg pattern exists(G) = {
            helloworld.Greeting(G);
          }
        }
        postcondition pattern made(G) = {
          helloworld.Greeting(G) in nemf.resources;
        }
      }
    }""")
    assert report.log == ["first"]
    assert len(space.elements_of_type("nemf.packages.helloworld.Greeting")) == 1


def test_gt_conflicting_creation_types_rejected():
    space = load_fixture("empty")
    with pytest.raises(LinkError) as err:
        link([machine("""
        machine m{
          rule main() = skip;
          gtrule bad() = {
            precondition pattern pre(G) = {
              graph1.Graph(G);
            }
            postcondition pattern post(G,X) = {
              graph1.Graph(G);
              graph1.Node(X);
              graph1.Edge(X);
            }
          }
        }""")], space.registry)
    assert "conflicting" in str(err.value)


def test_gt_out_param_binding():
    report, space, _ = run_source("""
    machine m{
      rule main() = let G = undef in seq{
        try choose with apply make(G) do skip;
        println(name(G));
      }
      gtrule make(out G) = {
        precondition pattern empty() = {
          neg pattern exists(X) = {
            graph1.Graph(X);
          }
        }
        postcondition pattern made(G) = {
          graph1.Graph(G) in nemf.resources;
        }
      }
    }""")
    g = space.elements_of_type(G1 + "Graph")[0]
    assert report.log == [space.name(g)]


def test_gt_in_param_restricts_match():
    report, space, _ = run_source("""
    machine m{
      rule main() = seq{
        try choose N1 with find graphPatterns.N1Node(N1) do seq{
          forall E with apply deleteIncident(N1, E) do println("deleted one");
        }
      }
      gtrule deleteIncident(in Node, out Edge) = {
        precondition find graphPatterns.connectedEdge(Node,Edge)
        postcondition pattern gone(Node,Edge) = {
          graph1.Node(Node);
          neg find graphPatterns.connectedEdge(Node,Edge);
        }
      }
    }""", fixture="delete", libraries=["graphPatterns"])
    assert len(report.log) == 2  # n1 had exactly two incident edges
    assert len(space.elements_of_type(G1 + "Edge")) == 2


def test_action_runs_after_model_update():
    report, space, _ = run_source("""
    machine m{
      rule main() = try choose with apply make() do skip;
      gtrule make() = {
        precondition pattern empty() = {
          neg pattern exists(G) = {
            helloworld.Greeting(G);
          }
        }
        postcondition pattern made(G,T) = {
          helloworld.Greeting(G) in nemf.resources;
          EString(T) in G;
          helloworld.Greeting.text(R,G,T);
        }
        action{
          setValue(T, "Hello world");
          println("greeting is " + value(T));
        }
      }
    }""")
    assert report.log == ["greeting is Hello world"]
    es = space.elements_of_type("nemf.ecore.datatypes.EString")
    assert [space.value(e) for e in es] == ["Hello world"]


def test_failure_propagates_through_call():
    report, _, _ = run_source("""
    machine m{
      rule failing() = choose N with find graphPatterns.isolatedNode(N) do skip;
      rule main() = seq{
        try call failing();
        println("survived");
      }
    }""", fixture="triangle", libraries=["graphPatterns"])
    assert report.log == ["survived"]
    with pytest.raises(ExecError):
        run_source("""
        machine m{
          rule failing() = choose N with find graphPatterns.isolatedNode(N) do skip;
          rule main() = call failing();
        }""", fixture="triangle", libraries=["graphPatterns"])


def test_call_depth_limit():
    deep = """
    machine m{
      rule down(in N) = if (N != %d) call down(N + 1);
      rule main() = seq{ call down(0); println("bottom"); }
    }"""
    # main is the first call; down(0) .. down(K) make K + 1 more
    report, _, _ = run_source(deep % (MAX_CALL_DEPTH - 2))
    assert report.log == ["bottom"]
    with pytest.raises(ExecError) as err:
        run_source(deep % (MAX_CALL_DEPTH - 1))
    assert "nested deeper than" in str(err.value)


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_statement_nesting_limit(matcher):
    """Rule bodies nested 8 seq deep recursing 98 deep stay below the call
    limit but past the statement-nesting limit: an ExecError, raised before
    Python's recursion limit and between, never inside, Rete updates."""
    deep = """
    machine m{
      pattern node(N) = { graph1.Node(N); }
      rule down(in N) = %s let X = undef in if (N != %d)
        seq{ new(graph1.Node(X)); call down(N + 1); } %s
      rule main() = seq{ call down(0); println("bottom"); }
    }"""
    space = load_fixture("empty")
    src = deep % ("seq{ " * 8, 98, " }" * 8)
    program = link([machine(src)], space.registry)
    vm = VM(program, space, matcher=matcher)
    if matcher == "inc":
        handle = vm._rete_engine().register("m.node")
    with pytest.raises(ExecError) as err:
        vm.run("m")
    assert f"nested deeper than {MAX_EXEC_DEPTH}" in str(err.value)
    assert vm.exec_depth == 0
    created = LocalSearchMatcher(space, program.patterns).match_set("m.node")
    assert 0 < len(created) < 98
    if matcher == "inc":
        assert handle.match_tuples() == created
    report, _, _ = run_source(deep % ("seq{ " * 8, 10, " }" * 8), matcher=matcher)
    assert report.log == ["bottom"]


def test_if_requires_comparison():
    with pytest.raises(ExecError) as err:
        run_source("""
        machine m{
          rule main() = if("x") skip;
        }""")
    assert "comparison" in str(err.value)
