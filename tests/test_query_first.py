"""VM.query_first against the head of query_all, and the helpers behind it."""

import itertools
import random

import pytest

from gtvm import corpus
from gtvm.corpus.fixtures import G1, load_fixture
from gtvm.errors import MatcherError, PatternError, SpaceError
from gtvm.matcher_ls import in_order, least, order_key
from gtvm.rules import VM

FIXTURES = [("triangle", {}), ("chain4", {}), ("selfloop", {}), ("dangling", {})] + [
    ("random", {"n": 20, "e": 40, "seed": seed}) for seed in (1, 2, 3)]


def consistent(params, args, match) -> bool:
    seen = {}
    for param, arg in zip(params, args):
        if arg in seen and seen[arg] != match[param]:
            return False
        seen[arg] = match[param]
    return True


def arg_tuples(k: int) -> list[tuple[str, ...]]:
    """Distinct variables, each pair of positions sharing one, all alike."""
    base = tuple(f"V{i}" for i in range(k))
    out = [base]
    for i, j in itertools.combinations(range(k), 2):
        out.append(base[:j] + (base[i],) + base[j + 1:])
    if k >= 3:
        out.append((base[0],) * k)
    return out


def single_bindings(space, params, matches) -> list[dict]:
    """Per parameter: its least, middle and greatest value among the
    matches, and a live element no match holds there."""
    out = []
    for param in params:
        column = sorted({m[param] for m in matches}, key=lambda v: order_key((v,)))
        picks = set(column[:1] + column[len(column) // 2:][:1] + column[-1:])
        unused = [e for e in sorted(space.iter_elements()) if e not in column]
        if unused and all(isinstance(v, int) and space.is_live(v) for v in column):
            picks.add(unused[0])
        out.extend({param: v} for v in sorted(picks, key=lambda v: order_key((v,))))
    return out


@pytest.mark.parametrize("matcher", ["inc", "ls"])
@pytest.mark.parametrize("fixture,params", FIXTURES,
                         ids=[f"{n}{p.get('seed', '')}" for n, p in FIXTURES])
def test_query_first_is_head_of_query_all(fixture, params, matcher):
    space = load_fixture(fixture, **params)
    program = corpus.library_program(space.registry)
    vm = VM(program, space, matcher=matcher)
    served = 0
    for name, p in sorted(program.patterns.items()):
        if not name.startswith("graphPatterns."):
            continue
        try:
            everything = vm.query_all(name)
        except MatcherError:
            continue  # not enumerable by this backend
        served += 1
        for binding in [{}] + single_bindings(space, p.params, everything):
            matches = vm.query_all(name, binding)
            for args in arg_tuples(len(p.params)):
                want = [m for m in matches if consistent(p.params, args, m)]
                got = vm.query_first(name, binding, args)
                assert got == (want[0] if want else None), (name, binding, args)
            assert vm.query_first(name, binding) == (matches[0] if matches else None)
    assert served >= 20


def test_query_first_repeated_arguments_filter(triangle):
    program = corpus.library_program(triangle.registry)
    vm = VM(program, triangle, matcher="inc")
    name = "graphPatterns.srcAndRelForEdge"  # (Edge, From, SourceRelation)
    assert vm.query_first(name) is not None
    assert vm.query_first(name, args=("E", "E", "R")) is None
    assert vm.query_first(name, args=("E", "N", "N")) is None


@pytest.mark.parametrize("query", ["query_all", "query_first"])
@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_bindings_checked_alike(matcher, query):
    """Both backends, through both queries, reject a binding of a name that
    is no parameter and of an element parameter to a dead element or a
    string, and take an integer for a ``#`` count parameter."""
    space = load_fixture("selfloop")
    program = corpus.load_program(["graphPatterns", "countMatchesMC"], space.registry)
    read = getattr(VM(program, space, matcher=matcher), query)
    node = "graphPatterns.SimpleNode"
    with pytest.raises(PatternError):
        read(node, {"Nope": space.elements_of_type(G1 + "Node")[0]})
    with pytest.raises(SpaceError):
        read(node, {"Node": "n1"})
    loops = "countMatchesMC.countLoopingEdgesPattern"  # (N), N = 2 here
    found = read(loops, {"N": 2})
    assert found == ([{"N": 2}] if query == "query_all" else {"N": 2})
    assert not read(loops, {"N": 3})
    dead = space.elements_of_type(G1 + "Node")[0]
    space.delete(dead)
    with pytest.raises(SpaceError):
        read(node, {"Node": dead})


ORDER_CASES = {
    "int": [(3, 1), (-2, 7), (3, 0), (10, 2), (9, 9), (3, 1)],
    "str": [("b", "a"), ("10", "x"), ("9", "x"), ("", "z"), ("b", "")],
    "mixed": [(1, "a"), ("b", 2), (1, 2), ("a", "a"), (0, "z"), ("10", 5), (2, "9")],
    "mixed-late": [(1, "a"), (1, 2), (1, 1), (0, "b")],
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_native_order_equals_order_key(case):
    tuples = ORDER_CASES[case]
    for perm in (tuples, tuples[::-1], sorted(tuples, key=repr)):
        assert in_order(perm) == sorted(perm, key=order_key)
        assert least(perm) == min(perm, key=order_key)


def test_native_order_equals_order_key_random():
    rng = random.Random(7)
    values = [0, 1, 2, 9, 10, -1, "0", "1", "10", "9", "a", ""]
    for _ in range(200):
        tuples = [tuple(rng.choice(values) for _ in range(2))
                  for _ in range(rng.randrange(1, 8))]
        assert in_order(tuples) == sorted(tuples, key=order_key)
        assert least(tuples) == min(tuples, key=order_key)


def test_least_of_nothing():
    assert least([]) is None
    assert in_order(set()) == []
