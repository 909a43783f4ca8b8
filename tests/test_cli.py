from collections import Counter

import pytest

from conftest import INT_DIGITS_LIMITED, INT_MAX_DIGITS, LONG_DIGITS
from gtvm import corpus, snapshot
from gtvm.cli import main
from gtvm.corpus.fixtures import load_fixture
from gtvm.errors import ExecError, PatternError
from gtvm.patterns import MAX_CALL_DEPTH
from gtvm.rules import VM, step_budget_from_env
from gtvm.vtcl import MAX_NESTING, link, parse


@pytest.fixture
def tri_gms(tmp_path):
    path = tmp_path / "triangle.gms"
    snapshot.save_file(load_fixture("triangle"), path)
    return str(path)


def test_run_counts(tri_gms, tmp_path, capsys):
    out = tmp_path / "after.gms"
    code = main(["run", "graphPatterns", "countMatchesASM",
                 "--model", tri_gms, "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "Number of nodes = 3" in captured
    assert "Number of nodes in circles of three = 3" in captured
    assert "Number of dangling edges = 0" in captured
    assert out.exists()
    reloaded = snapshot.load_file(out, corpus.metamodels())
    assert reloaded.audit() == []


def test_a_renamed_node_with_a_line_separator_loads_back(tri_gms, tmp_path, capsys):
    src = tmp_path / "sep.vtcl"
    src.write_text("import nemf.packages; machine sep{ rule main() = forall N with find"
                   ' graphPatterns.SimpleNode(N) do rename(N, "a\u2028b"); }', encoding="utf-8")
    out = tmp_path / "s.gms"
    assert main(["run", "graphPatterns", str(src), "--model", tri_gms, "--out", str(out)]) == 0
    assert main(["match", "--model", str(out), "--pattern", "SimpleNode"]) == 0
    space = snapshot.load_file(out, corpus.metamodels())
    assert {space.name(n) for n in space.elements_of_type("nemf.packages.graph1.Node")} == {
        "a\u2028b"}


def test_run_hello_world(capsys):
    code = main(["run", "helloWorldASM"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "2.1 Hello World transformation finished" in captured


def test_run_missing_file(capsys):
    assert main(["run", "missing.vtcl"]) == 1


def test_run_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.vtcl"
    bad.write_text("machine m{ rule main() = seq{")
    assert main(["run", str(bad)]) == 1


@pytest.mark.parametrize("stmt", [
    "println(name(1 == 1));",
    "println(value(1 == 1));",
    "delete(2 != 3);",
    "setValue(1, 1 == 1);",
    'rename(1 == 1, "g");',
    "let P = 1 == 1, N = undef in new(graph1.Node(N) in P);",
    "let G = 1 == 1 in choose with find graphPatterns.Graph(G) do delete(G);",
    "let S = 1 == 1, R = undef in new(relation(R, S, S));",
    "let S = 1 == 1 in new(instanceOf(S, graph1.Node));",
    "let S = 1 == 1 in delete(instanceOf(S, graph1.Graph));",
], ids=["name", "value", "delete", "setValue", "rename", "container", "binding",
        "new-relation", "new-instanceOf", "delete-instanceOf"])
def test_run_comparison_is_no_element(stmt, tri_gms, tmp_path, monkeypatch, capsys):
    # True == 1, yet a comparison result names no element (element 1 is the
    # triangle's graph) and is no value: the run fails and leaves it alone,
    # with its one type and its six relations (three nodes, three edges)
    from gtvm import cli
    spaces = []
    real_load = cli._load_model

    def load(path, registry):
        spaces.append(real_load(path, registry))
        return spaces[-1]
    monkeypatch.setattr(cli, "_load_model", load)
    src = tmp_path / "cmp.vtcl"
    src.write_text(f"import nemf.packages; machine cmp{{ rule main() = {stmt} }}")
    out = tmp_path / "out.gms"
    assert main(["run", "graphPatterns", str(src), "--model", tri_gms,
                 "--out", str(out)]) == 2
    assert "runtime error" in capsys.readouterr().err
    (space,) = spaces
    assert space.is_live(1) and space.value(1) is None and space.name(1) == "e1"
    assert len(space.elements_of_type("nemf.packages.graph1.Node")) == 3
    assert space.types(1) == {"nemf.packages.graph1.Graph"}
    assert len(space.relations_from(1) | space.relations_to(1)) == 6
    assert not out.exists()


@pytest.mark.parametrize("expr", ["(1 == 1) + 1", "1 + (2 != 3)"])
def test_run_comparison_is_no_number(expr, tmp_path, capsys):
    # a comparison result added to an integer is an error, as undef + 1 is
    src = tmp_path / "sum.vtcl"
    src.write_text(f"machine sum{{ rule main() = println({expr}); }}")
    assert main(["run", str(src)]) == 2
    captured = capsys.readouterr()
    assert "runtime error" in captured.err and "cannot add" in captured.err
    assert captured.out == ""


def test_run_runtime_error(tmp_path, capsys):
    src = tmp_path / "diverge.vtcl"
    src.write_text("""
    import nemf.packages;
    machine diverge{
      rule main() =
        iterate choose N with find graphPatterns.SimpleNode(N) do skip;
    }""")
    tri = tmp_path / "t.gms"
    snapshot.save_file(load_fixture("triangle"), tri)
    import os
    os.environ["GTVM_STEP_BUDGET"] = "25"
    try:
        assert main(["run", "graphPatterns", str(src), "--model", str(tri)]) == 2
    finally:
        del os.environ["GTVM_STEP_BUDGET"]


@pytest.mark.parametrize("budget", ["abc", "-5", "\u0663", "\uff13", "3\u0663"])
def test_run_bad_step_budget(budget, monkeypatch, capsys):
    monkeypatch.setenv("GTVM_STEP_BUDGET", budget)
    assert main(["run", "helloWorldASM"]) == 1
    assert "GTVM_STEP_BUDGET must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["abc", "-5", "\u0663", "\uff13", "3\u0663"])
def test_match_bad_step_budget(budget, tri_gms, monkeypatch, capsys):
    monkeypatch.setenv("GTVM_STEP_BUDGET", budget)
    assert main(["match", "--model", tri_gms, "--pattern", "SimpleNode"]) == 1
    assert "GTVM_STEP_BUDGET must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("budget,want", [("0", 0), ("3", 3), ("0025", 25)])
def test_step_budget_takes_ascii_digits(budget, want, monkeypatch):
    monkeypatch.setenv("GTVM_STEP_BUDGET", budget)
    assert step_budget_from_env() == want


@pytest.mark.parametrize("budget", [" 3", "+3", "1_000", "3.0", ""])
def test_step_budget_refuses_other_integer_text(budget, monkeypatch):
    monkeypatch.setenv("GTVM_STEP_BUDGET", budget)
    with pytest.raises(ExecError, match="must be a non-negative integer"):
        step_budget_from_env()


def test_step_budget_of_more_digits_than_int_converts(monkeypatch, capsys):
    monkeypatch.setenv("GTVM_STEP_BUDGET", LONG_DIGITS)
    if not INT_DIGITS_LIMITED:
        assert step_budget_from_env() == int(LONG_DIGITS)
        return
    assert main(["run", "helloWorldASM"]) == 1
    assert "GTVM_STEP_BUDGET must be a non-negative integer" in capsys.readouterr().err


@pytest.fixture
def not_utf8(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8").replace(b"@", b"\xff"))
        return str(path)
    return write


def test_run_not_utf8(not_utf8, capsys):
    path = not_utf8("bad.vtcl", 'machine bad{ rule main() = println("@"); }')
    assert main(["run", path]) == 1
    assert path in capsys.readouterr().err


def test_run_parse_error_names_the_file_and_line(tmp_path, capsys):
    src = tmp_path / "open.vtcl"
    src.write_text("machine open{\n  rule main() = skip;\n  /* never closed\n}\n")
    assert main(["run", str(src)]) == 1
    err = capsys.readouterr().err
    assert f"{src}, line 3: 3:3: unterminated block comment" in err


def test_match_not_utf8(not_utf8, tri_gms, capsys):
    path = not_utf8("bad.vtcl", "machine bad{ pattern p(X) = { graph1.Node(X); } } //@")
    assert main(["match", path, "--model", tri_gms, "--pattern", "p"]) == 1
    assert path in capsys.readouterr().err
    gms = not_utf8("bad.gms", corpus.fixture_gms("triangle") + "# @\n")
    assert main(["match", "--model", gms, "--pattern", "SimpleNode"]) == 1
    assert gms in capsys.readouterr().err


def test_diff_not_utf8(not_utf8, tri_gms, capsys):
    gms = not_utf8("bad.gms", corpus.fixture_gms("triangle").replace("n1", "n@"))
    assert main(["diff", tri_gms, gms]) == 2
    assert gms in capsys.readouterr().err


def test_run_self_calling_rule(tmp_path, capsys):
    src = tmp_path / "loop.vtcl"
    src.write_text("machine loop{ rule main() = seq { call main(); } }")
    assert main(["run", str(src)]) == 2
    assert "nested deeper than" in capsys.readouterr().err


def test_run_deep_nesting(tmp_path, capsys):
    src = tmp_path / "deep.vtcl"
    src.write_text("machine deep{ rule main() = " + "seq{ " * 3000 + "skip;"
                   + " }" * 3000 + " }")
    assert main(["run", str(src)]) == 1
    assert "nesting deeper than" in capsys.readouterr().err
    src.write_text("machine deep{ rule down(in N) = " + "seq{ " * 8
                   + "if (N != 98) call down(N + 1);" + " }" * 8
                   + " rule main() = call down(0); }")
    assert main(["run", str(src)]) == 2
    assert "nested deeper than" in capsys.readouterr().err


def test_run_oversized_integers(tmp_path, capsys):
    src = tmp_path / "big.vtcl"
    src.write_text(f"machine big{{ rule main() = println({LONG_DIGITS}); }}")
    gms = tmp_path / "big.gms"
    gms.write_text(f"entity 1 : nemf.packages.graph1.Graph value={LONG_DIGITS}\n")
    if not INT_DIGITS_LIMITED:
        assert main(["run", str(src)]) == 0
        assert LONG_DIGITS in capsys.readouterr().out
        assert main(["run", "helloWorldASM", "--model", str(gms)]) == 0
        return
    assert main(["run", str(src)]) == 1
    assert "1:36: integer literal of 5000 digits" in capsys.readouterr().err
    assert main(["run", "helloWorldASM", "--model", str(gms)]) == 1
    assert "line 1:" in capsys.readouterr().err


def test_run_integer_sum_too_long_to_print(tmp_path, capsys):
    """An integer sum with more digits than str() converts is a runtime
    error, not a traceback from println."""
    digits = "9" * (INT_MAX_DIGITS or 4300)
    src = tmp_path / "sum.vtcl"
    src.write_text(f"machine sum{{ rule main() = let X = {digits} in "
                   f"println(X + X); }}")
    if not INT_MAX_DIGITS:
        assert main(["run", str(src)]) == 0
        assert "1" + "9" * (len(digits) - 1) + "8" in capsys.readouterr().out
        return
    assert main(["run", str(src)]) == 2
    assert f"runtime error: integer sum has more than {INT_MAX_DIGITS} digits" \
        in capsys.readouterr().err


def test_match_dangling(tmp_path, capsys):
    gms = tmp_path / "d.gms"
    snapshot.save_file(load_fixture("dangling"), gms)
    code = main(["match", "--model", str(gms), "--pattern", "danglingEdge"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 1 and out[0].startswith("Edge=")


def test_match_count_empty(tmp_path, capsys):
    gms = tmp_path / "e.gms"
    snapshot.save_file(load_fixture("empty"), gms)
    code = main(["match", "--model", str(gms), "--pattern", "SimpleNode", "--count"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_match_recursive_refused_on_inc(tri_gms, capsys):
    code = main(["match", "--model", tri_gms, "--pattern", "transitiveConnected",
                 "--matcher", "inc"])
    err = capsys.readouterr().err
    assert code == 1
    assert "ls" in err
    code = main(["match", "--model", tri_gms, "--pattern", "transitiveConnected",
                 "--matcher", "ls"])
    assert code == 0


NEG_ONLY = """import nemf.packages;
machine m{
  pattern q(Y) = { graph1.Edge(Y); }
  pattern p(X, Y) = { graph1.Node(X); neg find q(Y); }
  pattern reach(F, T, G) = { find graphPatterns.transitiveConnected(F, T, G); }
}"""


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_match_names_the_parameter_only_a_neg_reads(tri_gms, tmp_path, capsys, matcher):
    """No positive constraint binds p's Y, so no matcher lists p's matches:
    inc refuses p as a pattern only the local search can match, and an
    unbound ls read refuses it; both name Y."""
    vtcl = tmp_path / "m.vtcl"
    vtcl.write_text(NEG_ONLY)
    code = main(["match", "graphPatterns", str(vtcl), "--model", tri_gms,
                 "--pattern", "m.p", "--matcher", matcher])
    err = capsys.readouterr().err
    assert code == 1
    assert err == ("error: pattern m.p reads its parameter Y only in a neg, count or "
                   "check, so it cannot be matched incrementally; use --matcher ls\n"
                   if matcher == "inc" else "error: m.p: parameter Y is read only in "
                   "a neg, count or check, so a read must bind it\n")


def test_match_names_the_recursive_callee_on_inc(tri_gms, tmp_path, capsys):
    vtcl = tmp_path / "m.vtcl"
    vtcl.write_text(NEG_ONLY)
    args = ["match", "graphPatterns", str(vtcl), "--model", tri_gms, "--pattern", "reach"]
    assert main(args + ["--matcher", "inc"]) == 1
    assert capsys.readouterr().err == (
        "error: pattern m.reach calls graphPatterns.transitiveConnected, which is "
        "recursive, so it cannot be matched incrementally; use --matcher ls\n")
    assert main(args + ["--matcher", "ls"]) == 0
    assert capsys.readouterr().out


def test_match_unknown_pattern(tri_gms, capsys):
    assert main(["match", "--model", tri_gms, "--pattern", "nothing"]) == 1


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_match_refuses_a_gt_postcondition(tri_gms, capsys, matcher):
    """A GT rule's postcondition is turned into edits, never matched: a
    usage error that names it, and a PatternError from the VM."""
    post = "deleteNodeGT.deleteNodeGT$post"
    code = main(["match", "graphPatterns", "deleteNodeGT", "--model", tri_gms,
                 "--pattern", post, "--matcher", matcher])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {post} is a GT postcondition, not a matchable pattern\n"
    registry = corpus.metamodels()
    program = link([parse(corpus.corpus_source(m)) for m in ("graphPatterns", "deleteNodeGT")],
                   registry)
    vm = VM(program, snapshot.load_file(tri_gms, registry), matcher=matcher)
    with pytest.raises(PatternError, match="postcondition"):
        vm.query_all(post)
    assert len(vm.query_all("deleteNodeGT.deleteNodeGT$pre")) == 1  # the n1 node


def test_match_ambiguous_pattern(capsys):
    code = main(["match", "helloWorldASM", "helloWorldGT",
                 "--pattern", "TextAndNameForGreeting"])
    assert code == 1
    assert capsys.readouterr().err.strip() == (
        "error: ambiguous pattern TextAndNameForGreeting: "
        "helloWorldASM.TextAndNameForGreeting, helloWorldGT.TextAndNameForGreeting")


def test_run_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "o.gms"
    assert main(["run", "helloWorldASM", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_fixture_unwritable_out(where, tmp_path, capsys):
    out = tmp_path / "missing" / "t.gms" if where == "missing-dir" else tmp_path
    assert main(["fixture", "triangle", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_diff_identical(tri_gms, capsys):
    assert main(["diff", tri_gms, tri_gms]) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_reverse_twice_identity(tmp_path, capsys):
    tri = tmp_path / "tri.gms"
    space = load_fixture("triangle")
    snapshot.save_file(space, tri)
    from gtvm.corpus import run_task
    run_task("2.3", "asm", space)
    run_task("2.3", "asm", space)
    again = tmp_path / "again.gms"
    snapshot.save_file(space, again)
    assert main(["diff", str(tri), str(again)]) == 0


def test_diff_variants_isomorphic(tmp_path, capsys):
    from gtvm.corpus import run_task
    a = tmp_path / "a.gms"
    b = tmp_path / "b.gms"
    snapshot.save_file(run_task("2.6", "all-asm", "chain4").space, a)
    snapshot.save_file(run_task("2.6", "all-gt", "chain4").space, b)
    assert main(["diff", str(a), str(b)]) == 1  # ids differ strictly
    assert main(["diff", str(a), str(b), "--ignore-ids"]) == 0


def test_diff_ignore_ids_of_a_large_model(tmp_path, capsys):
    """The isomorphism search keeps its own stack: a model of more elements
    than Python's recursion limit diffs like a small one."""
    a, b = tmp_path / "a.gms", tmp_path / "b.gms"
    snapshot.save_file(load_fixture("random", n=100, e=200, seed=3), a)
    snapshot.save_file(load_fixture("random", n=100, e=200, seed=4), b)
    assert main(["diff", "--ignore-ids", str(a), str(a)]) == 0
    assert capsys.readouterr().out == "isomorphic\n"
    assert main(["diff", "--ignore-ids", str(a), str(b)]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"


def call_chain(depth: int) -> str:
    """A machine whose pattern p1 calls p2, ..., down to p<depth>."""
    calls = [f"pattern p{i}(X) = {{ find p{i + 1}(X); }}" for i in range(1, depth)]
    return ("import nemf.packages; machine deep{ " + " ".join(calls)
            + f" pattern p{depth}(X) = {{ graph1.Node(X); }} }}")


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_match_deep_pattern_call_chain(tri_gms, tmp_path, capsys, matcher):
    """A call chain of MAX_CALL_DEPTH patterns matches; a longer one is a
    link error that names the chain, not a RecursionError."""
    src = tmp_path / "deep.vtcl"
    args = ["match", str(src), "--model", tri_gms, "--pattern", "p1",
            "--matcher", matcher, "--count"]
    src.write_text(call_chain(100))
    assert main(args) == 0
    assert capsys.readouterr().out == "3\n"
    src.write_text(call_chain(200))
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "deep.p100: pattern calls nest 101 deep, more than 100: deep.p100 -> " \
        "deep.p101 -> deep.p102 -> ... -> deep.p199 -> deep.p200" in err
    assert "Traceback" not in err


def limits_machine(rules: int, seqs: int, terms: int, chain: int) -> str:
    """main calls r1, which calls r2, ..., down to r<rules>. That rule nests
    ``seqs`` seq blocks around a choose over the pattern call chain p1 ->
    ... -> p<chain>, which prints a sum of ``terms`` ones."""
    pats = [f"pattern p{i}(X) = {{ find p{i + 1}(X); }}" for i in range(1, chain)]
    pats.append(f"pattern p{chain}(X) = {{ graph1.Node(X); }}")
    deepest = ("seq{ " * seqs + "choose X with find p1(X) do println("
               + "+".join(["1"] * terms) + ");" + " }" * seqs)
    rs = [f"rule r{i}() = call r{i + 1}();" for i in range(1, rules)]
    rs.append(f"rule r{rules}() = {deepest}")
    return ("import nemf.packages; machine lim{ " + " ".join(pats + rs)
            + " rule main() = call r1(); }")


# (rules, seqs, terms, chain): main and the rules make MAX_CALL_DEPTH calls,
# and seqs + terms = MAX_NESTING - 1 is the most the parser takes
SEQS = 31
AT_THE_LIMITS = (MAX_CALL_DEPTH - 1, SEQS, MAX_NESTING - 1 - SEQS, MAX_CALL_DEPTH)
NESTING = f"nesting deeper than {MAX_NESTING} levels"
PAST_A_LIMIT = [
    ((MAX_CALL_DEPTH, SEQS, MAX_NESTING - 1 - SEQS, MAX_CALL_DEPTH), 2,
     f"rule calls nested deeper than {MAX_CALL_DEPTH}"),
    ((MAX_CALL_DEPTH - 1, SEQS + 1, MAX_NESTING - 1 - SEQS, MAX_CALL_DEPTH), 1, NESTING),
    ((MAX_CALL_DEPTH - 1, SEQS, MAX_NESTING - SEQS, MAX_CALL_DEPTH), 1, NESTING),
    ((MAX_CALL_DEPTH - 1, SEQS, MAX_NESTING - 1 - SEQS, MAX_CALL_DEPTH + 1), 1,
     f"pattern calls nest {MAX_CALL_DEPTH + 1} deep"),
]


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_the_limits_hold_together(tri_gms, tmp_path, capsys, matcher):
    """The deepest rule-call chain, statement and `+` nesting and pattern
    call chain that the limits allow run in one machine; one step past any
    of them is an error, never a traceback."""
    src = tmp_path / "lim.vtcl"
    args = ["run", str(src), "--model", tri_gms, "--matcher", matcher]
    src.write_text(limits_machine(*AT_THE_LIMITS))
    assert main(args) == 0
    assert capsys.readouterr().out == f"{AT_THE_LIMITS[2]}\n"
    for shape, code, message in PAST_A_LIMIT:
        src.write_text(limits_machine(*shape))
        assert main(args) == code, shape
        err = capsys.readouterr().err
        assert message in err, shape
        assert "Traceback" not in err


def test_diff_load_failure(tmp_path):
    assert main(["diff", str(tmp_path / "no.gms"), str(tmp_path / "no.gms")]) == 2


def test_fixture_subcommand(tmp_path, capsys):
    out = tmp_path / "x.gms"
    assert main(["fixture", "selfloop", "--out", str(out)]) == 0
    assert out.read_text() == corpus.fixture_gms("selfloop")


TWO_OUT = """
import nemf.packages;
machine twoOut{
  shareable pattern edgeOf(X, E) = {
    find graphPatterns.srcAndRelForEdge(E, X, R);
  }
  pattern twoOut(X) = {
    check(N == 2);
    graph1.Node(X);
    find edgeOf(X, E) # N;
  }
  rule main() = forall X with find twoOut(X) do println(name(X));
}
"""


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_run_check_written_before_its_count(matcher, tmp_path, capsys):
    gms, src = tmp_path / "g.gms", tmp_path / "twoOut.vtcl"
    src.write_text(TWO_OUT)
    assert main(["fixture", "random", "--seed", "3", "--out", str(gms)]) == 0
    capsys.readouterr()
    code = main(["run", "graphPatterns", str(src), "--model", str(gms),
                 "--matcher", matcher])
    assert code == 0
    got = sorted(capsys.readouterr().out.split())
    space = snapshot.load_file(gms, corpus.metamodels())
    g1 = "nemf.packages.graph1."
    sources = {(e, space.target(r)) for e in space.elements_of_type(g1 + "Edge")
               for r in space.relations_from(e) if space.conforms(r, g1 + "Edge.src")}
    outs = Counter(x for _, x in sources)
    want = sorted(space.name(x) for x, k in outs.items() if k == 2)
    assert want and got == want


def test_corpus_invocations_end_to_end(tmp_path, capsys):
    """Every documented corpus invocation runs through the CLI."""
    fixture_file = {}
    for name in ("triangle", "chain4", "delete"):
        path = tmp_path / f"{name}.gms"
        snapshot.save_file(load_fixture(name), path)
        fixture_file[name] = str(path)
    runs = [
        (["run", "helloWorldASM"], None),
        (["run", "helloWorldGT"], None),
        (["run", "graphPatterns", "countMatchesASM"], "triangle"),
        (["run", "graphPatterns", "countMatchesMC"], "triangle"),
        (["run", "graphPatterns", "reverseEdgesASM"], "triangle"),
        (["run", "graphPatterns", "reverseEdgesGT"], "triangle"),
        (["run", "graphPatterns", "reverseEdgesRel"], "triangle"),
        (["run", "graphPatterns", "simpleMigration-fixed"], "triangle"),
        (["run", "graphPatterns", "simpleMigrationInplace"], "triangle"),
        (["run", "graphPatterns", "simpleMigrationTopology"], "triangle"),
        (["run", "graphPatterns", "simpleMigrationTopologyInplace"], "triangle"),
        (["run", "graphPatterns", "deleteNodeASM"], "delete"),
        (["run", "graphPatterns", "deleteNodeGT"], "delete"),
        (["run", "graphPatterns", "deleteNodeIncidentASM"], "delete"),
        (["run", "graphPatterns", "deleteNodeIncidentGT"], "delete"),
        (["run", "graphPatterns", "transitiveEdgesASM"], "chain4"),
        (["run", "graphPatterns", "transitiveEdgesGT"], "chain4"),
        (["run", "graphPatterns", "transitiveEdgesIterativeASM"], "chain4"),
        (["run", "graphPatterns", "transitiveEdgesIterativeGT"], "chain4"),
        (["run", "graphPatterns", "transitiveEdgesAllASM"], "chain4"),
        (["run", "graphPatterns", "transitiveEdgesAllGT"], "chain4"),
        (["run", "graphPatterns", "simpleMigration"], "triangle"),
    ]
    for argv, fixture in runs:
        if fixture is not None:
            argv = argv + ["--model", fixture_file[fixture]]
        assert main(argv) == 0, argv
        capsys.readouterr()
