"""Ordered network reads. From the first ordered unbound read on, a
production keeps its matches in order (``ProductionNode.order``) and takes
each change by bisection; ``VM.query_all`` and a compiled ``forall`` read
it through ``VM._read``, and a ``choose`` reads unordered, so a pattern
read only by ``choose`` keeps no order."""

import random

import pytest

from editscripts import run_script
from gtvm import corpus, snapshot
from gtvm.corpus.fixtures import load_fixture
from gtvm.matcher_ls import in_order
from gtvm.oracle import strict_equal
from gtvm.rules import VM
from gtvm.vtcl import link, parse

GP = "graphPatterns."

# the body reverses each edge it iterates: it deletes a match of the pattern
# and creates another, which the forall must not visit
REVERSE = """import nemf.packages;
machine rev {
  rule main() = forall From, To, G with find graphPatterns.edgeFromToInGraph(From, To, G) do
    let E = undef, R = undef in seq {
      try choose Old with find graphPatterns.edgeFromToInternal(Old, From, To) do delete(Old);
      new(graph1.Edge(E) in G);
      new(graph1.Graph.edges(R, G, E));
      new(graph1.Edge.src(R, E, To));
      new(graph1.Edge.trg(R, E, From));
    }
}"""

# every read is a choose, of a pattern the engine already holds
CHOOSE = """import nemf.packages;
machine pick {
  rule main() = seq {
    try choose N with find graphPatterns.SimpleNode(N) do println(name(N));
    try choose From, To with find graphPatterns.edgeFromTo(From, To) do println(name(From));
  }
}"""


def program_of(space, *texts):
    return link([corpus.load_machine("graphPatterns")] + [parse(t) for t in texts],
                space.registry)


def copy(space):
    return snapshot.load(snapshot.save(space), space.registry)


def run_reverse(space, matcher: str):
    """A copy of ``space`` after ``rev``; under ``inc`` the iterated
    production keeps its order from before the run."""
    space = copy(space)
    vm = VM(program_of(space, REVERSE), space, matcher)
    if matcher == "inc":
        vm.query_all(GP + "edgeFromToInGraph")
    vm.run("rev")
    if matcher == "inc":
        prod = vm._rete.productions[GP + "edgeFromToInGraph"]
        assert prod.order == in_order(prod.match_tuples())
    return space


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ordered_reads_follow_every_edit(seed):
    space = load_fixture("random", n=6, e=9, seed=seed)
    program = program_of(space, CHOOSE)
    # every pattern the Rete serves
    names = sorted(n for n, p in program.patterns.items() if not p.ls_reason)
    inc, ls, chooser = (VM(program, space, m) for m in ("inc", "ls", "inc"))
    chooser.query_first(GP + "edgeFromTo")  # the engine holds it before any run

    def check():
        for name in names:
            got = inc.query_all(name)
            prod = inc._rete.productions[name]
            assert [tuple(m.values()) for m in got] == in_order(prod.match_tuples())
            assert got == ls.query_all(name), name
            assert prod.order == in_order(prod.match_tuples()), name
            if got:  # a bound read orders its bucket
                binding = dict([next(iter(got[len(got) // 2].items()))])
                assert inc.query_all(name, binding) == ls.query_all(name, binding), name
        assert strict_equal(run_reverse(space, "inc"), run_reverse(space, "ls")) == []
        chooser.run("pick")
        assert chooser.query_first(GP + "isolatedNode") == ls.query_first(GP + "isolatedNode")
        assert all(prod.order is None for prod in chooser._rete.productions.values())

    check()
    assert run_script(space, random.Random(seed), 25, check) == 25


def test_a_forall_visits_the_matches_it_started_with(triangle):
    """Each edge is reversed once: the forall iterates a copy of the kept
    order, not the list its body changes."""
    def edges(space):
        return sorted(tuple(m.values()) for m in
                      VM(program_of(space), space).query_all(GP + "edgeFromTo"))
    before = edges(triangle)
    assert len(before) == 3
    assert edges(run_reverse(triangle, "inc")) == sorted((t, f) for f, t in before)
