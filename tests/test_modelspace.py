import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvm import corpus
from gtvm.errors import SpaceError
from gtvm.modelspace import (ENTITY, RELATION, ROOT_ID, ModelSpace,
                             TypeRegistry, replay)

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
    assert space.relations_with_endpoint(n) == {r}
    space.delete(r)
    assert space.relations_with_endpoint(n) == set()


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
