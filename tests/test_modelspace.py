import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from editscripts import random_edit, run_script
from gtvm import corpus, matcher_ls, rete, snapshot
from gtvm.corpus import run_task
from gtvm.corpus.fixtures import Graph1Builder, load_fixture
from gtvm.errors import SpaceError
from gtvm.matcher_ls import LocalSearchMatcher
from gtvm.modelspace import (ENTITY, RELATION, ROOT_ID, EndpointRetargeted,
                             ModelSpace, Renamed, TypeAdded, TypeRegistry,
                             TypeRemoved, replay)
from gtvm.oracle import BruteForce
from gtvm.rete import ReteEngine

G1 = "nemf.packages.graph1."
G2 = "nemf.packages.graph2."
ES = "nemf.ecore.datatypes.EString"


@pytest.fixture
def space():
    return ModelSpace(corpus.metamodels())


def test_ids_fresh_and_monotonic(space):
    a = space.new_entity(G1 + "Node")
    b = space.new_entity(G1 + "Node")
    assert a != b and b > a
    space.delete(b)
    c = space.new_entity(G1 + "Node")
    assert c > b  # ids never reused


def test_new_entity_defaults_to_root(space):
    n = space.new_entity(G1 + "Node")
    assert space.parent(n) == ROOT_ID


def test_new_entity_checks(space):
    n = space.new_entity(G1 + "Node")
    r = space.new_relation(G1 + "Edge.src", n, n)
    with pytest.raises(SpaceError):
        space.new_entity(G1 + "Graph.nodes")  # relation type
    with pytest.raises(SpaceError):
        space.new_entity(G1 + "Node", parent=r)  # relation parent
    space.delete(n)
    with pytest.raises(SpaceError):
        space.new_entity(G1 + "Node", parent=n)  # dead parent


def test_new_relation_checks(space):
    a = space.new_entity(G1 + "Node")
    b = space.new_entity(G1 + "Node")
    loop = space.new_relation(G1 + "Edge.src", a, a)  # self loops are legal
    assert space.source(loop) == space.target(loop) == a
    with pytest.raises(SpaceError):
        space.new_relation(G1 + "Node", a, b)  # entity type supplied
    space.delete(b)
    with pytest.raises(SpaceError):
        space.new_relation(G1 + "Edge.src", b, a)  # dead endpoint


def test_untyped_relation(space):
    a = space.new_entity(G1 + "Node")
    b = space.new_entity(G2 + "Node")
    t = space.new_relation(None, a, b)
    assert space.types(t) == frozenset()
    assert t in space.relations_from(a)


def test_count_of_none_counts_every_relation(space):
    a = space.new_entity(G1 + "Node")
    space.new_relation(G1 + "Edge.src", a, a)
    space.new_relation(None, a, a)
    assert space.count_of_type(None) == 2 == len(space.rows(None))


def test_delete_cascades_children_and_incident(space):
    g = space.new_entity(G1 + "Graph")
    n = space.new_entity(G1 + "Node", g)
    m = space.new_entity(G1 + "Node", g)
    e = space.new_entity(G1 + "Edge", g)  # edge entity not contained in n
    src = space.new_relation(G1 + "Edge.src", e, n)
    trg = space.new_relation(G1 + "Edge.trg", e, m)
    space.delete(n)
    # n and its incident src relation gone; the Edge entity dangles
    assert not space.is_live(n) and not space.is_live(src)
    assert space.is_live(e) and space.is_live(trg)
    space.delete(g)
    assert not space.is_live(m) and not space.is_live(e) and not space.is_live(trg)


def test_delete_relation_only(space):
    a = space.new_entity(G1 + "Node")
    b = space.new_entity(G1 + "Node")
    r = space.new_relation(G1 + "Edge.src", a, b)
    space.delete(r)
    assert space.is_live(a) and space.is_live(b)
    with pytest.raises(SpaceError):
        space.delete(r)  # already deleted


def test_retype(space):
    a = space.new_entity(G1 + "Node")
    b = space.new_entity(G1 + "Node")
    r = space.new_relation(G1 + "Edge.src", a, b)
    before = (space.name(r), space.value(r), space.source(r), space.target(r))
    space.remove_type(r, G1 + "Edge.src")
    space.add_type(r, G1 + "Edge.trg")
    assert space.types(r) == frozenset({G1 + "Edge.trg"})
    assert before == (space.name(r), space.value(r), space.source(r), space.target(r))
    with pytest.raises(SpaceError):
        space.remove_type(r, G1 + "Edge.src")  # absent
    with pytest.raises(SpaceError):
        space.add_type(a, G1 + "Edge.src")  # kind mismatch


def test_values_names_endpoints(space):
    t = space.new_entity(ES)
    space.set_value(t, "Hello world")
    assert space.value(t) == "Hello world"
    space.rename(t, "Number of nodes")
    assert space.name(t) == "Number of nodes"
    n = space.new_entity(G1 + "Node")
    m = space.new_entity(G1 + "Node")
    r = space.new_relation(G1 + "Edge.src", n, m)
    space.set_target(r, n)
    assert space.target(r) == n
    space.set_source(r, m)
    assert space.source(r) == m
    with pytest.raises(SpaceError):
        space.set_target(n, m)  # retargeting an entity


def test_value_defaults_to_undef(space):
    n = space.new_entity(G1 + "Node")
    assert space.value(n) is None
    assert space.name(n) == f"e{n}"


def test_conforms_supertypes(space):
    n2 = space.new_entity(G2 + "Node")
    assert space.conforms(n2, G2 + "GraphComponent")
    assert n2 in space.elements_of_type(G2 + "GraphComponent")


def test_queries_reflect_mutations(space):
    assert space.elements_of_type(G1 + "Node") == []
    n = space.new_entity(G1 + "Node")
    r = space.new_relation(G1 + "Edge.src", n, n)
    assert space.relations_from(n) | space.relations_to(n) == {r}
    space.delete(r)
    assert space.relations_from(n) | space.relations_to(n) == set()


def test_registry_single_inheritance():
    reg = TypeRegistry()
    reg.register("a.X", ENTITY)
    reg.register("a.Y", ENTITY, "a.X")
    assert reg.supers("a.Y") == ("a.Y", "a.X")
    assert reg.subtype_closure("a.X") == {"a.X", "a.Y"}
    with pytest.raises(SpaceError):
        reg.register("a.R", RELATION, "a.X")  # kind mismatch
    with pytest.raises(SpaceError):
        reg.register("a.X", RELATION)  # conflicting redefinition
    reg.register("a.X", ENTITY)  # identical is fine


def test_resolve_with_imports(registry):
    assert registry.resolve("graph1.Node", ["nemf.packages"]) == G1 + "Node"
    assert registry.resolve("EString", ["nemf.packages", "nemf.ecore.datatypes"]) == ES


# -- properties ---------------------------------------------------------------


def _apply_ops(ops):
    """Interpret a hypothesis-generated op list; returns (space, events)."""
    space = ModelSpace(corpus.metamodels())
    events = []
    space.subscribe(events.append)
    created = []
    for kind, a, b in ops:
        try:
            if kind == "node":
                created.append(space.new_entity(G1 + "Node"))
            elif kind == "child" and created:
                created.append(space.new_entity(
                    G1 + "Node", parent=created[a % len(created)]))
            elif kind == "rel" and created:
                created.append(space.new_relation(
                    G1 + "Edge.src", created[a % len(created)],
                    created[b % len(created)]))
            elif kind == "del" and created:
                space.delete(created[a % len(created)])
            elif kind == "value" and created:
                space.set_value(created[a % len(created)], b)
            elif kind == "retarget" and created:
                space.set_target(created[a % len(created)],
                                 created[b % len(created)])
        except SpaceError:
            pass  # dead element / kind mismatch: fine, op skipped
    return space, events


_ops = st.lists(st.tuples(
    st.sampled_from(["node", "child", "rel", "del", "value", "retarget"]),
    st.integers(0, 30), st.integers(0, 30)), max_size=40)


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_referential_integrity_and_replay(ops):
    space, events = _apply_ops(ops)
    assert space.audit() == []
    rebuilt = replay(events, corpus.metamodels())
    assert rebuilt.state() == space.state()


@settings(max_examples=60, deadline=None)
@given(_ops, st.integers(0, 30))
def test_delete_closure_is_least_fixed_point(ops, pick):
    space, _ = _apply_ops(ops)
    live = space.iter_elements()
    if not live:
        return
    target = live[pick % len(live)]
    # brute-force closure: target, contained children, incident relations
    expected = {target}
    changed = True
    while changed:
        changed = False
        for eid in live:
            if eid in expected:
                continue
            el = space.element(eid)
            if el.parent in expected or el.source in expected or el.target in expected:
                expected.add(eid)
                changed = True
    before = set(live)
    space.delete(target)
    removed = before - set(space.iter_elements())
    assert removed == expected
    assert space.audit() == []


# -- shared type tuples ---------------------------------------------------------


def assert_types_shared(space) -> None:
    """Each element holds a tuple as its types, and all elements of one kind
    and types hold the same tuple object."""
    shared = {}
    for eid in space.iter_elements():
        el = space.element(eid)
        assert type(el.types) is tuple, (eid, el.types)
        assert shared.setdefault((el.kind, el.types), el.types) is el.types, eid


def test_elements_of_one_kind_and_types_share_one_tuple():
    space = load_fixture("random", n=12, e=30, seed=4)  # new_entity/new_relation
    assert_types_shared(space)
    assert_types_shared(snapshot.load(snapshot.save(space), corpus.metamodels()))

    src, trg = (space.elements_of_type(G1 + t) for t in ("Edge.src", "Edge.trg"))
    rel, peer = src[:2]
    space.remove_type(rel, G1 + "Edge.src")
    assert space.element(rel).types == ()
    space.add_type(rel, G1 + "Edge.trg")
    assert space.element(rel).types is space.element(trg[0]).types
    space.remove_type(rel, G1 + "Edge.trg")
    space.add_type(rel, G1 + "Edge.src")
    assert space.element(rel).types is space.element(peer).types
    for r in (rel, peer):  # two types, added in the same order
        space.add_type(r, G1 + "Edge.trg")
    assert space.element(rel).types is space.element(peer).types
    assert space.types(rel) == {G1 + "Edge.src", G1 + "Edge.trg"}
    assert space.types(src[2]) == {G1 + "Edge.src"}
    assert_types_shared(space)


@pytest.mark.parametrize("seed", range(4))
def test_a_retype_changes_no_other_element(seed):
    """Through the retype steps of random edit scripts: only the retyped
    relation changes its types, whatever tuple it shares."""
    space = load_fixture("random", n=8, e=16, seed=seed)
    rng = random.Random(seed)
    retypes = 0
    for _ in range(2000):
        before = {eid: space.types(eid) for eid in space.iter_elements()}
        if random_edit(space, rng) == "retype":
            retypes += 1
            changed = [eid for eid, types in before.items()
                       if space.is_live(eid) and space.types(eid) != types]
            assert len(changed) == 1 and space.types(changed[0]) == {G1 + "Edge.trg"}
        assert_types_shared(space)
        if retypes == 10:
            break
    assert retypes == 10
    assert_types_shared(snapshot.load(snapshot.save(space), corpus.metamodels()))


# -- typed-row reads ------------------------------------------------------------


def typed_readers(space) -> dict:
    """A ``rows_at`` reader for each graph1 type and ``None`` (every
    relation) at each position of its rows."""
    types = [None] + sorted(t.name for t in space.registry.all_types()
                            if t.name.startswith(G1))
    return {(t, position): space.rows_at(t, position) for t in types
            for position in (range(3) if t is None or space.registry.kind(t) == RELATION
                             else (0,))}


def assert_typed_reads_agree(space, readers: dict) -> None:
    """``rows(t)`` holds the rows of the elements of ``t``, and each reader
    gives the rows of ``rows(t)`` with its key at its position. The keys run
    from the root up past the largest id: the live ids, so every relation
    end, and the ids of deleted elements."""
    keys = range(max(space.iter_elements(), default=ROOT_ID) + 2)
    for (t, position), read in readers.items():
        rows = space.rows(t)
        relation = position or t is None or space.registry.kind(t) == RELATION
        ids = space.iter_relations() if t is None else space.elements_of_type(t)
        assert sorted(rows) == [(e, space.source(e), space.target(e)) if relation else (e,)
                                for e in ids], t
        for v in keys:
            assert sorted(read((v,))) == sorted(r for r in rows if r[position] == v), (
                t, position, v)


@pytest.mark.parametrize("n,e,seed", [(8, 16, 1), (12, 30, 2), (30, 60, 3)])
def test_typed_row_reads_agree_on_random_models(n, e, seed):
    space = load_fixture("random", n=n, e=e, seed=seed)
    readers = typed_readers(space)
    nodes = space.elements_of_type(G1 + "Node")
    space.new_relation(None, nodes[0], nodes[1])  # untyped: only ``None`` reads it
    space.delete(nodes[-1])
    dead = nodes[-1]
    assert not space.is_live(dead) and dead < max(space.iter_elements())
    assert_typed_reads_agree(space, readers)


@pytest.mark.parametrize("seed", range(3))
def test_typed_row_reads_agree_under_edits(seed):
    """Readers made before the edits and readers made after each one."""
    space = load_fixture("random", n=6, e=8, seed=seed)
    readers = typed_readers(space)

    def check():
        assert_typed_reads_agree(space, readers)
        assert_typed_reads_agree(space, typed_readers(space))
    assert run_script(space, random.Random(seed), 30, check) == 30


def test_a_subtype_registered_after_readers_and_plans_exist():
    """A ``.gms`` type line can register a subtype into a registry that a
    network and plans already read: every read looks up the subtype closure
    anew, so ``inc``, ``ls`` and the oracle agree on the new elements."""
    space = load_fixture("random", n=8, e=12, seed=5)
    patterns = corpus.library_program(space.registry).patterns
    names = ["graphPatterns." + n for n in ("connectedEdge", "edgeFromTo", "isolatedNode")]
    engine, ls = ReteEngine(space, patterns), LocalSearchMatcher(space, patterns)
    nodes = space.elements_of_type(G1 + "Node")
    for name in names:
        engine.register(name)
        ls.match_set(name)
    ls.match_set(names[0], {"Node": nodes[0]})
    readers = typed_readers(space)

    space.registry.register(G1 + "SubNode", ENTITY, G1 + "Node")
    space.registry.register(G1 + "Edge.subSrc", RELATION, G1 + "Edge.src")
    graph = space.elements_of_type(G1 + "Graph")[0]
    new, lone = (space.new_entity(G1 + "SubNode", graph) for _ in range(2))
    edge = space.new_entity(G1 + "Edge", graph)
    space.new_relation(G1 + "Edge.subSrc", edge, new)
    space.new_relation(G1 + "Edge.trg", edge, nodes[0])

    assert_typed_reads_agree(space, readers)
    brute = BruteForce(space, patterns)
    for name in names:
        want = brute.match_set(name)
        assert engine.productions[name].match_tuples() == want, name
        assert ls.match_set(name) == want, name
    isolated = brute.match_set(names[2])
    assert (lone,) in isolated and (new,) not in isolated
    bound = brute.match_set(names[0], {"Node": new})
    assert bound == {(new, edge)}
    assert ls.match_set(names[0], {"Node": new}) == bound
    assert set(engine.productions[names[0]].match_tuples((0,), (new,))) == bound
    assert (new, nodes[0]) in brute.match_set(names[1])


def test_the_matchers_read_no_index_of_the_space():
    """Only the model space, and ``snapshot``, its serializer, know its
    index layout: both matchers read it through ``rows``/``rows_at`` and
    the public reads."""
    private = {"_elements", "_out", "_in", "_relations", "_by_type", "_children"}
    for module in (rete, matcher_ls):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        reads = sorted({node.attr for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and node.attr in private})
        assert reads == [], (module.__name__, reads)


# problem kind: (element, field, new value, what audit reports). The
# element is n, the triangle's first node, r, its name relation, or g, its
# graph; a value may name one of them, and a report names them in braces.
AUDIT_CASES = {
    "unregistered type": ("n", "types", ("no.such.Type",),
                          ["{n}: unregistered type no.such.Type"]),
    "kind mismatch": ("n", "types", (G1 + "Node.name",),
                      ["{n}: type " + G1 + "Node.name kind mismatch"]),
    "dead source": ("r", "source", 999, ["{r}: dead source 999"]),
    "dead target": ("r", "target", 999, ["{r}: dead target 999"]),
    "dead parent": ("n", "parent", 999, ["{n}: dead parent 999"]),
    "parent not an entity": ("n", "parent", "r", ["{n}: parent {r} is not an entity"]),
    "entity without parent": ("n", "parent", None, ["{n}: entity without parent"]),
    "containment cycle": ("g", "parent", "n", ["{g}: containment cycle at {g}",
                                              "{n}: containment cycle at {n}"]),
}


@pytest.mark.parametrize("kind", AUDIT_CASES)
def test_audit_reports_each_kind_of_problem(kind):
    which, field, value, problems = AUDIT_CASES[kind]
    space = load_fixture("triangle")
    n = min(space.elements_of_type(G1 + "Node"))
    r = next(r for r in space.relations_from(n) if space.conforms(r, G1 + "Node.name"))
    ids = {"n": n, "r": r, "g": space.parent(n)}
    assert space.audit() == []
    setattr(space._elements[ids[which]], field, ids.get(value, value))
    got, want = space.audit(), [p.format(**ids) for p in problems]
    if kind == "containment cycle":  # every element under the graph reports it
        assert set(want) <= set(got)
        assert all("containment cycle" in p for p in got)
    else:
        assert got == want


@pytest.mark.parametrize("matcher", ["inc", "ls"])
def test_replay_of_reversals_and_an_inplace_migration(matcher):
    """The events of a graph1 model built in a recording space and then run
    through the 2.3 reversals and the 2.4 in-place migration replay to the
    same model: node names (Renamed), retargeted ends, and the migration's
    retypes (TypeAdded, TypeRemoved)."""
    space = ModelSpace(corpus.metamodels())
    events = []
    space.subscribe(events.append)
    b = Graph1Builder(space)
    n1, n2, n3 = b.node("n1"), b.node("n2"), b.node("n3")
    for src, trg in ((n1, n2), (n2, n3), (n3, n3), (n1, None), (None, n2)):
        b.edge(src, trg)
    for variant in ("asm", "gt", "rel"):
        run_task("2.3", variant, fixture=space, matcher=matcher)
    run_task("2.4", "inplace", fixture=space, matcher=matcher)
    assert {TypeAdded, TypeRemoved, Renamed, EndpointRetargeted} <= set(map(type, events))
    assert space.elements_of_type(G2 + "Node") and not space.elements_of_type(G1 + "Node")
    assert replay(events, corpus.metamodels()).state() == space.state()
