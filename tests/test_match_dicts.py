"""Match dicts: ``patterns.match_dicts`` and the reads that build through it
(``VM.query_all``, ``VM.query_first``, ``LocalSearchMatcher.match_all``)."""

import inspect

import pytest

from gtvm import corpus, oracle, rules
from gtvm.corpus.fixtures import load_fixture
from gtvm.errors import ExecError, PatternError
from gtvm.matcher_ls import LocalSearchMatcher, in_order
from gtvm.patterns import consistency_test, match_dicts
from gtvm.rules import VM
from gtvm.vtcl import link, parse

# two patterns of arity 0 beside the library: one with a body of its own and
# one that calls a library pattern
NULLARY = """import nemf.packages;
machine nullary{
  pattern hasNode() = { graph1.Node(N); }
  pattern hasLoop() = { find graphPatterns.loopingEdge(E); }
  rule main() = skip;
}"""

MODELS = [("random", {"n": 20, "e": 40, "seed": seed}) for seed in (11, 12, 13)] + [
    ("empty", {})]


def program_for(space):
    return link([corpus.load_machine("graphPatterns"), parse(NULLARY)], space.registry)


def reference(space, program, name) -> list[tuple]:
    """The match tuples of ``name`` in order, from the brute-force oracle, or
    from a fresh local search for a pattern the oracle cannot evaluate."""
    p = program.patterns[name]
    if p.ls_reason:
        tuples = LocalSearchMatcher(space, program.patterns).match_set(name)
    else:
        tuples = oracle.BruteForce(space, program.patterns).match_set(name)
    return in_order(tuples)


def items(dicts) -> list[list]:
    """Each dict as its item list, so that key order counts."""
    return [list(d.items()) for d in dicts]


def zipped(params, tuples) -> list[dict]:
    return [dict(zip(params, t)) for t in tuples]


@pytest.mark.parametrize("matcher", ["inc", "ls"])
@pytest.mark.parametrize("fixture,params", MODELS,
                         ids=[f"{n}{p.get('seed', '')}" for n, p in MODELS])
def test_reads_equal_dict_zip_in_order(fixture, params, matcher):
    space = load_fixture(fixture, **params)
    program = program_for(space)
    vm = VM(program, space, matcher=matcher)
    names = sorted(n for n in program.patterns
                   if n.startswith(("graphPatterns.", "nullary.")))
    arities = set()
    for name in names:
        p = program.patterns[name]
        want = zipped(p.params, reference(space, program, name))
        assert items(vm.query_all(name)) == items(want), name
        assert items(vm.ls.match_all(name)) == items(want), name
        first = vm.query_first(name)
        assert (None if first is None else list(first.items())) == \
            (list(want[0].items()) if want else None), name
        arities.add(len(p.params))
    assert {0, 1, 4} <= arities and max(arities) == 4
    nonempty = fixture != "empty"
    for name in ("nullary.hasNode", "nullary.hasLoop"):
        assert vm.query_all(name) == ([{}] if nonempty else [])
        assert vm.query_first(name) == ({} if nonempty else None)


# (pattern, binding parameter, call arguments with a repeat)
FILTERED = [
    ("graphPatterns.edgeFromTo", "From", ("X", "X")),
    ("graphPatterns.edgeFromToInGraph", "Graph", ("X", "X", "G")),
    ("graphPatterns.circleOfThreeNode", "Node", ("A", "B", "A")),
    ("graphPatterns.oldAndNewEdgeFromTo", "To", ("A", "B", "C", "A")),
    ("graphPatterns.transitiveEdgeMissing2hop", "From", ("X", "X", "G")),
]


@pytest.mark.parametrize("matcher", ["inc", "ls"])
@pytest.mark.parametrize("seed", [11, 14])
def test_bound_and_repeated_argument_reads(seed, matcher):
    space = load_fixture("random", n=20, e=40, seed=seed)
    program = program_for(space)
    vm = VM(program, space, matcher=matcher)
    for name, param, args in FILTERED:
        p = program.patterns[name]
        tuples = reference(space, program, name)
        pos = p.params.index(param)
        consistent = consistency_test(args)
        repeats = [t for t in tuples if consistent(t)]
        assert items(vm.query_all(name, args=args)) == items(zipped(p.params, repeats))
        for value in sorted({t[pos] for t in tuples})[:3]:
            bound = [t for t in tuples if t[pos] == value]
            got = vm.query_all(name, {param: value})
            assert items(got) == items(zipped(p.params, bound)), (name, value)
            want = zipped(p.params, [t for t in bound if consistent(t)])
            assert items(vm.query_all(name, {param: value}, args)) == items(want)
            first = vm.query_first(name, {param: value}, args)
            assert first == (want[0] if want else None)


def test_every_read_returns_new_containers():
    space = load_fixture("random", n=20, e=40, seed=11)
    vm = VM(program_for(space), space, matcher="inc")
    name = "graphPatterns.edgeFromTo"
    before = vm.query_all(name)
    assert before
    first = vm.query_all(name)
    first[0]["From"] = "changed"
    first[1].clear()
    first.append({"From": 0})
    assert vm.query_all(name) == before
    head = vm.query_first(name)
    head["To"] = "changed"
    assert vm.query_first(name) == before[0]
    listed = vm.ls.match_all(name)
    listed[0].pop("From")
    assert vm.ls.match_all(name) == before

    build = match_dicts(("A", "B"))
    rows = [(1, 2), (3, 4)]
    a, b = build(rows), build(rows)
    assert a == b == [{"A": 1, "B": 2}, {"A": 3, "B": 4}]
    assert a is not b and all(x is not y for x, y in zip(a, b))
    assert build(iter(rows)) == a and build([]) == []
    assert match_dicts(("A", "B")) is build
    assert match_dicts(())([(), ()]) == [{}, {}]


@pytest.mark.parametrize("params", [
    ("}",), ("'",), ("k0", "v1", "rows"), ("v0", "k0"), ("rows", "}", "'", "k1", "v0"),
    ("A", "__import__('os')", ")]"),
])
def test_names_are_keys_not_code(params):
    rows = [tuple(f"{q}@{i}" for q in params) for i in range(3)]
    got = match_dicts(params)(rows)
    assert items(got) == items(zipped(params, rows))


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_unknown_pattern_or_gt_rule(matcher):
    space = load_fixture("triangle")
    vm = VM(corpus.library_program(space.registry), space, matcher=matcher)
    for read in (vm.query_all, vm.query_first, vm.ls.match_all):
        with pytest.raises(PatternError, match=r"^unknown pattern graphPatterns\.nope$"):
            read("graphPatterns.nope")
    with pytest.raises(ExecError, match=r"^unknown GT rule nope\.rule$"):
        vm.apply_gtrule("nope.rule")


def test_match_dicts_is_the_one_constructor():
    for source in (inspect.getsource(rules), inspect.getsource(LocalSearchMatcher.match_all)):
        assert "dict(zip(" not in source and "match_dicts(" in source
