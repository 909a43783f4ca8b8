"""A ``choose``/``forall`` pattern read is compiled once per statement: its
bound positions, the variables of its key and its repeated-argument test
are fixed, and a match tuple binds the frame with no match dict. Statement reads must give
what the API reads (``query_all``/``query_first``/``apply_gtrule``) give for
the same binding, in the same order, and refuse the same bad keys."""

import ast
import inspect

import pytest

from gtvm import corpus, rules, snapshot
from gtvm.cli import main
from gtvm.corpus.fixtures import load_fixture
from gtvm.errors import SpaceError
from gtvm.rules import VM
from gtvm.vtcl import link, parse

HEADER = "import datatypes;\nimport nemf.packages;\nimport nemf.ecore.datatypes;\n"
GP = "graphPatterns."
EDGE = GP + "edgeFromTo"

READS = HEADER + """
machine r{
  pattern cnt(N, C) = { graph1.Node(N); find graphPatterns.edgeFromTo(N, T) # C; }
  gtrule look(in From, out To) = { precondition find graphPatterns.edgeFromTo(From, To) }
  gtrule lookAll(out From, out To) = { precondition find graphPatterns.edgeFromTo(From, To) }
  gtrule counted(in N, in C) = { precondition find cnt(N, C) }
  rule main() = seq{
    forall F, T with find graphPatterns.edgeFromTo(F, T) do println("all " + F + " " + T);
    forall N with find graphPatterns.SimpleNode(N) do seq{
      forall T with find graphPatterns.edgeFromTo(N, T) do println("from " + N + " " + T);
      try choose T with find graphPatterns.edgeFromTo(N, T) do println("first " + N + " " + T);
      forall C with find cnt(N, C) do println("cnt " + N + " " + C);
      forall T with apply look(N, T) do println("look " + N + " " + T);
      try choose T with apply look(N, T) do println("lookfirst " + N + " " + T);
    }
    forall X with find graphPatterns.edgeFromTo(X, X) do println("loop " + X);
    try choose X with find graphPatterns.edgeFromTo(X, X) do println("loopfirst " + X);
    forall F, T with apply lookAll(F, T) do println("lookall " + F + " " + T);
    let K = 1 in seq{
      forall N with find cnt(N, K) do println("one " + N);
      forall N with find graphPatterns.SimpleNode(N) do
        try choose with apply counted(N, K) do println("counted " + N);
    }
  }
}"""


def make_vm(text: str, space, matcher: str) -> VM:
    program = link([corpus.load_machine("graphPatterns"), parse(text)], space.registry)
    return VM(program, space, matcher=matcher)


def api_log(vm: VM) -> list[str]:
    """What ``READS`` prints, read through the API."""
    q, first = vm.query_all, vm.query_first
    log = [f"all {m['From']} {m['To']}" for m in q(EDGE)]
    for n in (m["Node"] for m in q(GP + "SimpleNode")):
        log += [f"from {n} {m['To']}" for m in q(EDGE, {"From": n})]
        m = first(EDGE, {"From": n})
        log += [] if m is None else [f"first {n} {m['To']}"]
        log += [f"cnt {n} {m['C']}" for m in q("r.cnt", {"N": n})]
        log += [f"look {n} {m['To']}" for m in q("r.look$pre", {"From": n})]
        m = first("r.look$pre", {"From": n})
        log += [] if m is None else [f"lookfirst {n} {m['To']}"]
    log += [f"loop {m['From']}" for m in q(EDGE, args=("X", "X"))]
    m = first(EDGE, args=("X", "X"))
    log += [] if m is None else [f"loopfirst {m['From']}"]
    log += [f"lookall {m['From']} {m['To']}" for m in q("r.lookAll$pre")]
    log += [f"one {m['N']}" for m in q("r.cnt", {"C": 1})]
    for n in (m["Node"] for m in q(GP + "SimpleNode")):
        log += [] if first("r.counted$pre", {"N": n, "C": 1}) is None else [f"counted {n}"]
    return log


FIXTURES = [("selfloop", {}), ("triangle", {})] + [
    ("random", dict(n=7, e=14, seed=seed, p_selfloop=0.3)) for seed in range(4)]


@pytest.mark.parametrize("matcher", ["inc", "ls"])
@pytest.mark.parametrize("fixture,params", FIXTURES,
                         ids=[f"{f}-{p.get('seed', '')}" for f, p in FIXTURES])
def test_statement_reads_equal_api_reads(fixture, params, matcher):
    vm = make_vm(READS, load_fixture(fixture, **params), matcher)
    log = vm.run("r").log
    assert log == api_log(make_vm(READS, load_fixture(fixture, **params), matcher))
    assert any(line.startswith("from ") for line in log)


DELETES = HEADER + """
machine d{
  rule main() = forall F, T with find graphPatterns.edgeFromTo(F, T) do seq{
    println(F + " " + T);
    delete(T);
  }
}"""


@pytest.mark.parametrize("seed", range(3))
def test_a_match_an_earlier_step_broke_is_skipped(seed):
    params = dict(n=7, e=14, seed=seed)
    matches = make_vm(DELETES, load_fixture("random", **params), "ls").query_all(EDGE)
    want, deleted = [], set()
    for m in matches:
        if not deleted & {m["From"], m["To"]}:
            want.append(f"{m['From']} {m['To']}")
            deleted.add(m["To"])
    assert len(want) < len(matches)
    for matcher in ("inc", "ls"):
        assert make_vm(DELETES, load_fixture("random", **params), matcher).run("d").log == want


DEAD = HEADER + """
machine dead{
  rule main() = let X = undef in seq{
    choose N with find graphPatterns.SimpleNode(N) do update X = N;
    delete(X);
    forall T with find graphPatterns.edgeFromTo(X, T) do println(T);
  }
}"""

COUNT = HEADER + """
machine c{
  pattern cnt(N, C) = { graph1.Node(N); find graphPatterns.edgeFromTo(N, T) # C; }
  gtrule counted(in N, in C) = { precondition find cnt(N, C) }
  rule main() = let K = %s in %s
}"""

COUNT_READS = {
    "forall": "forall N with find cnt(N, K) do println(name(N));",
    "choose": "choose N with find cnt(N, K) do println(name(N));",
    "apply": "forall N with find graphPatterns.SimpleNode(N) do "
             "try choose with apply counted(N, K) do println(name(N));",
}


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_a_dead_bound_element_fails_alike(matcher):
    vm = make_vm(DEAD, load_fixture("triangle"), matcher)
    with pytest.raises(SpaceError, match=r"^graphPatterns\.edgeFromTo: binding for From "
                                         r"is not a live element$"):
        vm.run("dead")


@pytest.mark.parametrize("matcher", ["inc", "ls"])
@pytest.mark.parametrize("value", ["(1 == 1)", '"1"', "undef"])
@pytest.mark.parametrize("read", sorted(COUNT_READS))
def test_a_count_parameter_takes_integers_only(read, value, matcher):
    vm = make_vm(COUNT % (value, COUNT_READS[read]), load_fixture("triangle"), matcher)
    with pytest.raises(SpaceError, match=r"^c\.cnt: binding for C is not an integer$"
                       if read != "apply" else
                       r"^c\.counted\$pre: binding for C is not an integer$"):
        vm.run("c")


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_api_reads_refuse_a_count_that_is_no_integer(matcher):
    vm = make_vm(COUNT % ("1", "skip;"), load_fixture("triangle"), matcher)
    n = vm.query_all(GP + "SimpleNode")[0]["Node"]
    assert vm.query_all("c.cnt", {"C": 1}) and vm.query_first("c.cnt", {"N": n, "C": 1})
    for value in (True, "1", None, 1.0):
        with pytest.raises(SpaceError, match=r"^c\.cnt: binding for C is not an integer$"):
            vm.query_all("c.cnt", {"C": value})
        with pytest.raises(SpaceError, match=r"^c\.cnt: binding for C is not an integer$"):
            vm.query_first("c.cnt", {"N": n, "C": value})
        with pytest.raises(SpaceError, match=r"binding for C is not an integer$"):
            vm.apply_gtrule("c.counted", {"N": n, "C": value})
    assert vm.apply_gtrule("c.counted", {"N": n, "C": 1}) == {"N": n, "C": 1}


@pytest.mark.parametrize("matcher", ["inc", "ls"])
@pytest.mark.parametrize("text,error", [
    (COUNT % ("(1 == 1)", COUNT_READS["forall"]), "c.cnt: binding for C is not an integer"),
    (DEAD, "graphPatterns.edgeFromTo: binding for From is not a live element"),
], ids=["bool-count", "dead-element"])
def test_cli_refuses_a_bad_key_without_traceback(text, error, matcher, tmp_path, capsys):
    model = tmp_path / "t.gms"
    snapshot.save_file(load_fixture("triangle"), model)
    src = tmp_path / "c.vtcl"
    src.write_text(text)
    assert main(["run", "graphPatterns", str(src), "--model", str(model),
                 "--matcher", matcher]) == 2
    captured = capsys.readouterr()
    assert f"runtime error: {error}\n" == captured.err and captured.out == ""


def _calls(node) -> set[str]:
    """What ``node`` calls, each callee as written (``self.ls.read``), nested
    functions and lambdas left out."""
    out, todo = set(), list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(n, ast.Call):
            out.add(ast.unparse(n.func))
        todo.extend(ast.iter_child_nodes(n))
    return out


def test_one_read_seam_and_no_per_read_dicts():
    tree = ast.parse(inspect.getsource(rules))
    functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.Lambda))]
    for read in (".match_tuples", ".ls.read"):
        assert [f.name for f in functions
                if any(c.endswith(read) for c in _calls(f))] == ["_read"], read
    # no closure a statement compiles to builds a test, a key or a dict per read
    (compile_stmt,) = (f for f in functions if getattr(f, "name", "") == "_compile")
    closures = [g for g in ast.walk(compile_stmt)
                if g is not compile_stmt and isinstance(g, (ast.FunctionDef, ast.Lambda))]
    assert len(closures) > 10
    for closure in closures:
        assert not {c.rsplit(".", 1)[-1] for c in _calls(closure)} & {
            "consistency_test", "binding_key", "match_dicts",
            "query_all", "query_first"}
