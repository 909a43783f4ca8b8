"""Rule bodies, GT actions and expressions as the VM runs them: every
statement and expression kind, the meaning of each operator, and a VM that
holds no reference cycle."""

import gc
import re
import typing
import weakref

import pytest

from gtvm import corpus
from gtvm import expr as ex
from gtvm import rules
from gtvm.corpus.fixtures import load_fixture
from gtvm.errors import ExecError
from gtvm.rules import VM
from gtvm.vtcl import link, parse

HEADER = "import datatypes;\nimport nemf.packages;\nimport nemf.ecore.datatypes;\n"

EVERY_KIND = HEADER + """
machine every{
  pattern node(N) = { graph1.Node(N); }
  gtrule pick(out N) = {
    precondition find node(N)
    action{ println("picked " + name(N)); }
  }
  gtrule tag(in N, out S) = {
    precondition find node(N)
    postcondition pattern post(N, S) = { graph1.Node(N); EString(S) in N; }
    action{ setValue(S, "tag of " + name(N)); }
  }
  rule first(out M) = choose with apply pick(M) do skip;
  rule twice(in X, out Y) = new(graph1.Node(Y) in nemf.resources);
  rule main() = let C = 0, F = undef, G = undef, E = undef, R = undef,
      H = undef in seq{
    forall N with find node(N) do update C = C + 1;
    println("nodes " + C);
    call first(F);
    println("first " + name(F));
    forall S with apply tag(F, S) do println(value(S));
    choose N with apply pick(N) do println("chose " + name(N));
    if (C == 3) println("three") else skip;
    if (C != 3) skip else println("still three");
    try choose N with find graphPatterns.isolatedNode(N) do println("none");
    new(graph1.Node(G) in nemf.resources);
    new(EString(E) in G);
    new(graph1.Node.name(R, G, E));
    setValue(E, "g");
    rename(G, "gee");
    new(instanceOf(E, datatypes.String));
    delete(instanceOf(E, datatypes.String));
    call twice(C + 1, H);
    setTo(R, H);
    println(name(G) + " " + value(E) + " " + (name(H) != undef));
    delete(G);
    iterate choose N with find node(N) do delete(N);
    forall N with find node(N) do println("left " + name(N));
    println("done");
  }
}
"""


def _kinds(node, seen: set) -> set:
    """The IR classes reachable from ``node`` through dataclass fields and
    tuples."""
    if isinstance(node, tuple):
        for x in node:
            _kinds(x, seen)
    elif hasattr(node, "__dataclass_fields__"):
        seen.add(type(node))
        for name in node.__dataclass_fields__:
            _kinds(getattr(node, name), seen)
    return seen


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_every_statement_and_expression_kind_runs(matcher):
    space = load_fixture("triangle")
    program = link([corpus.load_machine("graphPatterns"), parse(EVERY_KIND)],
                   space.registry)
    seen: set = set()
    for name, rule in program.rules.items():
        if name.startswith("every."):
            _kinds(rule.body, seen)
    for name, gt in program.gtrules.items():
        if name.startswith("every."):
            _kinds(gt.action, seen)
    assert set(typing.get_args(rules.Stmt)) <= seen
    assert set(typing.get_args(ex.Expr)) <= seen
    report = VM(program, space, matcher=matcher).run("every")
    assert report.log == [
        "nodes 3", "picked n1", "first n1",
        "tag of n1",
        "picked n1", "chose n1", "three", "still three",
        "gee g True", "done"]
    assert space.elements_of_type("nemf.packages.graph1.Node") == []


# (expression, what println prints); each is also run through a variable
SEMANTICS = [
    ("1 + 2", "3"),
    ('"a" + 1', "a1"),
    ('1 + "a"', "1a"),
    ('"a" + "b"', "ab"),
    ('undef + "a"', "undefa"),
    ('"a" + undef', "aundef"),
    ('"n" + (1 == 1)', "nTrue"),
    ("1 == 1", "True"),
    ("1 != 1", "False"),
    ('1 == "1"', "False"),
    ('1 != "1"', "True"),
    ('"1" == "1"', "True"),
    ("undef == undef", "True"),
    ('undef != ""', "True"),
    ("(1 == 1) == (2 == 2)", "True"),
    ("(1 == 1) == 1", "True"),
    ("undef", "undef"),
]

# (expression, the ExecError text)
ERRORS = [
    ("undef + 1", "cannot add undef and 1"),
    ("1 + undef", "cannot add 1 and undef"),
    ("(1 == 1) + 1", "cannot add True and 1"),
    ("1 + (1 == 2)", "cannot add 1 and False"),
    ("undef + undef", "cannot add undef and undef"),
]


def run_main(body: str, fixture: str = "empty"):
    """(the VM, its space) after running ``rule main() = body`` on ``fixture``."""
    space = load_fixture(fixture)
    program = link([parse(HEADER + "machine m{ rule main() = " + body + " }")],
                   space.registry)
    vm = VM(program, space, matcher="ls")
    vm.run("m")
    return vm, space


@pytest.mark.parametrize("source,printed", SEMANTICS)
def test_expression_semantics(source, printed):
    vm, _ = run_main(f"let X = {source} in seq{{ println({source}); println(X); }}")
    assert vm.report.log == [printed, printed]


@pytest.mark.parametrize("source,message", ERRORS)
def test_expression_errors(source, message):
    with pytest.raises(ExecError) as err:
        run_main(f"println({source});")
    assert str(err.value) == message


@pytest.mark.parametrize("reader", ["name", "value"])
def test_reading_a_deleted_element_is_an_error(reader):
    space = load_fixture("empty")
    program = link([parse(HEADER + """machine m{ rule main() = let N = undef in seq{
        new(graph1.Node(N) in nemf.resources);
        println(N);
        delete(N);
        println(%s(N));
    } }""" % reader)], space.registry)
    vm = VM(program, space, matcher="ls")
    with pytest.raises(ExecError) as err:
        vm.run("m")
    [element] = vm.report.log
    assert re.fullmatch(r"\d+", element)
    assert str(err.value) == f"{reader}() needs a live element, got {element}"


def test_if_condition_and_rename_errors_keep_their_text():
    with pytest.raises(ExecError) as err:
        run_main('if (1 + 1) skip;')
    assert str(err.value) == "if condition must be a comparison"
    with pytest.raises(ExecError) as err:
        run_main('let N = undef in seq{ new(graph1.Node(N) in nemf.resources); '
                 'rename(N, 1); }')
    assert str(err.value) == "rename needs a string name"
    with pytest.raises(ExecError) as err:
        run_main("let N = undef in delete(N);")
    assert str(err.value) == "delete needs a live element, got undef"


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_a_dropped_vm_is_freed_at_once(matcher):
    """No reference cycle holds a VM or its compiled bodies: with the cycle
    collector off, a VM that ran any corpus job goes as soon as it is
    dropped, and its closures with it."""
    gc.collect()
    gc.disable()
    try:
        for (task, variant), (files, entry) in sorted(corpus.TASKS.items()):
            space = load_fixture("random", n=12, e=24, seed=5)
            program = corpus.load_program(list(files), space.registry)
            vm = VM(program, space, matcher=matcher)
            vm.run(entry)
            dropped = [weakref.ref(vm)] + [weakref.ref(run) for run, _ in vm.code.values()]
            del vm
            assert all(ref() is None for ref in dropped), (task, variant)
    finally:
        gc.enable()


def test_bodies_compile_once_per_vm_when_first_entered(monkeypatch):
    """A body is compiled on its first run and kept by the VM alone: a rule
    never called is not compiled, one called twice is compiled once, and a
    second VM on the same program starts with nothing compiled."""
    space = load_fixture("empty")
    program = link([parse(HEADER + """machine m{
        rule unused() = println("unused");
        rule twice(in X) = println(X);
        rule main() = seq{ call twice(1); call twice(2); }
    }""")], space.registry)
    vm = VM(program, space, matcher="ls")
    compiled = []
    real = rules._compile

    def counted(program, s, depth, nesting):
        if depth == 1:
            compiled.append(s)
        return real(program, s, depth, nesting)
    monkeypatch.setattr(rules, "_compile", counted)
    assert vm.run("m").log == ["1", "2"]
    monkeypatch.undo()
    assert set(vm.code) == {"m.main", "m.twice"}
    assert compiled == [program.rules["m.main"].body, program.rules["m.twice"].body]
    other = VM(program, space, matcher="ls")
    assert other.code == {}
    assert other.run("m").log == ["1", "2"]
    assert other.code.keys() == vm.code.keys()
    assert all(other.code[k][0] is not vm.code[k][0] for k in vm.code)
