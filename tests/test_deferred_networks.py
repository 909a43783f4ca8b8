"""When ``inc`` builds a Rete network: inside ``VM.run`` a pattern is solved
by the local search until it is read at a second model version; every other
read registers its pattern at once."""

import pytest

from gtvm import corpus, snapshot
from gtvm.cli import main
from gtvm.corpus.fixtures import load_fixture
from gtvm.errors import ExecError
from gtvm.rules import VM
from gtvm.vtcl import link, parse

HEADER = "import datatypes;\nimport nemf.packages;\nimport nemf.ecore.datatypes;\n"
GP = "graphPatterns."


def make_vm(body: str, fixture: str = "triangle", matcher: str = "inc") -> VM:
    space = load_fixture(fixture)
    program = link([corpus.load_machine("graphPatterns"), parse(HEADER + body)],
                   space.registry)
    return VM(program, space, matcher=matcher)


def recorded(vm: VM) -> list[tuple[str, int]]:
    """The (pattern, model version) of each read the VM's local search
    serves from now on."""
    reads = []
    read = vm.ls.read

    def record(p, positions, key):
        reads.append((p.name, vm.space.version))
        return read(p, positions, key)
    vm.ls.read = record
    return reads


def networks(vm: VM) -> set[str]:
    return set() if vm._rete is None else set(vm._rete.productions)


def register_all(vm: VM) -> None:
    """Build a network for every pattern the Rete can match (test only)."""
    for name, p in vm.program.patterns.items():
        if not p.ls_reason:
            vm._rete_engine().register(name)


def outcome(vm: VM, machine: str):
    report = vm.run(machine)
    return report.log, report.results, vm.space.state()


ONCE = """
machine m{
  rule main() = seq{
    forall N with find graphPatterns.SimpleNode(N) do println(name(N));
    forall E with find graphPatterns.loopingEdge(E) do println(name(E));
  }
}"""


def test_a_pattern_read_at_one_version_builds_no_network():
    vm = make_vm(ONCE, "selfloop")
    reads, v = recorded(vm), vm.space.version
    got = outcome(vm, "m")
    # no engine at all: no network, and nothing listens to the space
    assert vm._rete is None
    assert reads == [(GP + "SimpleNode", v), (GP + "loopingEdge", v)]
    assert got == outcome(make_vm(ONCE, "selfloop", "ls"), "m")


LOOPS = """
machine m{
  rule main() = iterate choose E with find graphPatterns.loopingEdge(E) do seq{
    println(name(E));
    delete(E);
  }
}"""


def test_a_pattern_read_at_a_second_version_is_served_by_its_network():
    vm = make_vm(LOOPS, "selfloop")  # two looping edges
    reads, v = recorded(vm), vm.space.version
    got = outcome(vm, "m")
    # the first read is the local search's; the read after the first
    # delete builds the network, which serves the last read as well
    assert reads == [(GP + "loopingEdge", v)]
    assert GP + "loopingEdge" in networks(vm)
    assert len(got[0]) == 2
    assert got == outcome(make_vm(LOOPS, "selfloop", "ls"), "m")


def test_reads_outside_run_register_at_once():
    vm = make_vm(LOOPS, "selfloop")
    reads = recorded(vm)
    assert vm.query_all(GP + "SimpleNode")
    assert vm.query_first(GP + "loopingEdge") is not None
    assert networks(vm) >= {GP + "SimpleNode", GP + "loopingEdge"}

    space = load_fixture("triangle")
    program = corpus.load_program(["graphPatterns", "reverseEdgesGT"], space.registry)
    rev = VM(program, space, matcher="inc")
    rev_reads = recorded(rev)
    gt = program.gtrules["reverseEdgesGT.reverseEdgesGT"]
    assert rev.apply_gtrule(gt.name) is not None
    assert gt.pre_pattern in networks(rev)
    assert reads == rev_reads == []


def test_a_read_after_a_failed_run_registers_at_once():
    vm = make_vm("""
    machine m{
      rule main() = choose N with find graphPatterns.N1Node(N) do println(name(N));
    }""", "empty")
    with pytest.raises(ExecError, match="choose failed outside try"):
        vm.run("m")
    assert networks(vm) == set()
    reads = recorded(vm)
    assert vm.query_all(GP + "N1Node") == []
    assert reads == [] and GP + "N1Node" in networks(vm)


def test_a_pattern_the_engine_holds_is_served_by_it_from_its_first_read():
    body = """
    machine m{
      rule main() = seq{
        forall E, F, R with find graphPatterns.srcAndRelForEdge(E, F, R) do
          println(name(E) + " " + name(F));
        forall E with find graphPatterns.loopingEdge(E) do println(name(E));
        forall N with find graphPatterns.SimpleNode(N) do println(name(N));
      }
    }"""
    vm = make_vm(body, "selfloop")
    # srcAndRelForEdge is held only as a callee of edgeFromTo's network
    vm._rete_engine().register(GP + "edgeFromTo")
    vm._rete_engine().register(GP + "loopingEdge")
    assert GP + "srcAndRelForEdge" in networks(vm)
    reads, v = recorded(vm), vm.space.version
    got = outcome(vm, "m")
    assert reads == [(GP + "SimpleNode", v)]
    assert got == outcome(make_vm(body, "selfloop", "ls"), "m")


LOCALSEARCH = """
machine m{
  rule main() = let X = undef in seq{
    call show();
    new(graph1.Node(X));
    call show();
  }
  rule show() = forall From, To, Graph with
    find graphPatterns.transitiveEdgeMissing(From, To, Graph) do
      println(name(From) + " " + name(To));
}"""


def test_localsearch_and_recursive_patterns_stay_on_the_local_search():
    vm = make_vm(LOCALSEARCH, "chain4")
    reads = recorded(vm)
    got = outcome(vm, "m")
    missing, connected = GP + "transitiveEdgeMissing", GP + "transitiveConnected"
    assert [name for name, _ in reads] == [missing, missing]
    assert reads[0][1] != reads[1][1]
    assert len(got[0]) == 2 * 3  # 3 missing pairs on the 4-node chain, twice
    assert got == outcome(make_vm(LOCALSEARCH, "chain4", "ls"), "m")
    # outside run as well: no network and no MatcherError
    assert vm.query_all(missing) and vm.query_all(connected)
    assert reads[2:] == [(missing, vm.space.version), (connected, vm.space.version)]
    assert not networks(vm) & {missing, connected}


NEG_ONLY = """
machine m{
  pattern q(Y) = { graph1.Edge(Y); }
  pattern p(X, Y) = { graph1.Node(X); neg find q(Y); }
  pattern node(Y) = { graph1.Node(Y); }
  rule main() = let Z = undef in seq{
    choose Y with find node(Y) do seq{
      forall X with find p(X, Y) do println(name(X));
      new(graph1.Node(Z));
      forall X with find p(X, Y) do println(name(X));
    }
  }
}"""


def test_a_pattern_with_a_parameter_only_a_neg_reads_stays_on_the_local_search():
    """No positive constraint binds p's Y, so the Rete cannot enumerate p:
    its read at a second model version, bound, is the local search's too,
    and inc prints what ls prints."""
    vm = make_vm(NEG_ONLY)
    reads = recorded(vm)
    got = outcome(vm, "m")
    assert [name for name, _ in reads if name == "m.p"] == ["m.p", "m.p"]
    assert "m.p" not in networks(vm)
    assert len(got[0]) == 3 + 4  # the three nodes, then with the new one
    assert got == outcome(make_vm(NEG_ONLY, matcher="ls"), "m")


@pytest.mark.parametrize("task,variant", sorted(corpus.TASKS))
def test_every_network_built_up_front_agrees_with_local_search(task, variant):
    """Each corpus job under inc with a network for every pattern the Rete
    can match, built before the run, against ls: the networks serve every
    read but those of @localsearch and recursive patterns."""
    files, entry = corpus.TASKS[(task, variant)]
    got = {}
    for matcher in ("inc", "ls"):
        space = load_fixture("random", n=7, e=11, seed=4)
        vm = VM(corpus.load_program(list(files), space.registry), space, matcher=matcher)
        if matcher == "inc":
            register_all(vm)
            reads = recorded(vm)
        got[matcher] = outcome(vm, entry)
    patterns = vm.program.patterns
    assert all(patterns[name].ls_reason for name, _ in reads)
    assert got["inc"] == got["ls"]


CHECK_ERRORS = """
import nemf.packages;
machine plusOne{
  pattern plusOne(N) = {
    graph1.Node(N);
    check(value(N) + 1 == 2);
  }
  rule main() = seq{
    println("started");
    choose N with find plusOne(N) do println(name(N));
  }
}
"""


def test_an_erroring_check_fails_a_run_alike_on_every_backend(tmp_path, capsys,
                                                             monkeypatch):
    """``value(N)`` is undef, so the check raises on every row and holds on
    none: the choose fails, and ``gtvm run`` reports the same error and
    exit code whether the local search or a network serves the read."""
    gms, src = tmp_path / "g.gms", tmp_path / "plusOne.vtcl"
    src.write_text(CHECK_ERRORS)
    snapshot.save_file(load_fixture("triangle"), gms)

    def run(matcher):
        code = main(["run", "graphPatterns", str(src), "--model", str(gms),
                     "--matcher", matcher])
        out = capsys.readouterr()
        return code, out.out, out.err

    inc, ls = run("inc"), run("ls")
    served = []
    plain_run = VM.run

    def eager_run(vm, machine):
        register_all(vm)
        served.append(networks(vm))
        return plain_run(vm, machine)
    monkeypatch.setattr(VM, "run", eager_run)
    eager = run("inc")
    assert "plusOne.plusOne" in served[0]
    assert inc == ls == eager == (2, "started\n",
                                  "runtime error: choose failed outside try\n")
