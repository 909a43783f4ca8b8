import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INT_DIGITS_LIMITED, LONG_DIGITS
from gtvm import corpus, snapshot
from gtvm.corpus.fixtures import BUILDERS, load_fixture
from gtvm.errors import SnapshotError
from gtvm.matcher_ls import LocalSearchMatcher
from gtvm.rete import ReteEngine

G1 = "nemf.packages.graph1."
ES = "nemf.ecore.datatypes.EString"


@pytest.mark.parametrize("name", sorted(set(BUILDERS) - {"random"}))
def test_fixture_round_trip_exact(name):
    space = load_fixture(name)
    text = snapshot.save(space)
    reloaded = snapshot.load(text, corpus.metamodels())
    assert reloaded.state() == space.state()
    assert snapshot.save(reloaded) == text


def test_random_fixture_round_trip():
    space = load_fixture("random", n=12, e=20, seed=3)
    text = snapshot.save(space)
    reloaded = snapshot.load(text, corpus.metamodels())
    assert reloaded.state() == space.state()


SHIPPED = ("triangle", "chain4", "selfloop", "dangling", "isolated", "delete")


def test_shipped_fixture_files_match_builders():
    for name in SHIPPED:
        assert corpus.fixture_gms(name) == snapshot.save(load_fixture(name))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_fixture_files_round_trip(name):
    text = corpus.fixture_gms(name)
    assert snapshot.save(snapshot.load(text, corpus.metamodels())) == text


def test_unquote_maps_escapes():
    assert snapshot._unquote('a\\nb\\"c\\\\d\\qe\\') == 'a\nb"c\\dqe\\'


def test_type_directives_extend_registry():
    text = (
        "type my.Thing entity\n"
        "type my.Sub entity extends my.Thing\n"
        "type my.link relation\n"
        "entity 1 : my.Sub name=\"it\"\n"
        "entity 2 : my.Thing in 1 value=7\n"
        "relation 3 : my.link (1 -> 2)\n"
    )
    space = snapshot.load(text, corpus.metamodels())
    assert space.conforms(1, "my.Thing")
    assert space.value(2) == 7
    assert space.parent(2) == 1
    assert snapshot.save(space) == text


def test_value_escaping_round_trip():
    space = load_fixture("empty")
    e = space.new_entity("nemf.ecore.datatypes.EString")
    space.set_value(e, 'say "hi"\\n')
    space.rename(e, "line\nbreak")
    text = snapshot.save(space)
    reloaded = snapshot.load(text, corpus.metamodels())
    assert reloaded.value(e) == 'say "hi"\\n'
    assert reloaded.name(e) == "line\nbreak"


# every character but "\n" at which str.splitlines ends a line; a raw "\r"
# also ends one for a file read with universal newlines
LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
def test_line_breaks_in_names_and_values_round_trip(char, tmp_path):
    space = load_fixture("empty")
    e = space.new_entity(ES)
    space.rename(e, f"a{char}b")
    space.set_value(e, f"{char}c{char}\\{char}")
    text = snapshot.save(space)
    assert text.splitlines() == text.split("\n")[:-1]  # one directive per line
    reloaded = snapshot.load(text, corpus.metamodels())
    assert reloaded.state() == space.state()
    assert snapshot.save(reloaded) == text
    path = tmp_path / "s.gms"
    snapshot.save_file(space, path)
    assert snapshot.load_file(path, corpus.metamodels()).state() == space.state()


def test_only_the_line_break_escapes_are_read_as_code_points():
    # any other backslash stands for the character after it, as before
    assert snapshot._unquote("a\\u2028b\\u000d\\u000D\\u0041\\uzz") == "a\u2028b\ru000Du0041uzz"


def test_untyped_relation_line():
    space = load_fixture("empty")
    a = space.new_entity(G1 + "Node")
    b = space.new_entity(G1 + "Node")
    space.new_relation(None, a, b)
    text = snapshot.save(space)
    assert f"relation 3 :  ({a} -> {b})" in text
    reloaded = snapshot.load(text, corpus.metamodels())
    assert reloaded.state() == space.state()


@pytest.mark.parametrize("bad, what", [
    ("entity x : a.B", "bad directive"),
    ("entity 1 :", "at least one type"),
    ("entity 1 : nemf.packages.graph1.Node in 99", "not live"),
    ("relation 1 : nemf.packages.graph1.Edge.src (7 -> 8)", "not live"),
    ("entity 1 : no.Such.Type", "unknown type"),
    ("type a.B thing", "bad type directive"),
    # ids and integers are ASCII digits only, as in .vtcl
    ("entity \u0661 : nemf.packages.graph1.Graph value=\u0663\u0664", "bad directive"),
])
def test_load_errors(bad, what):
    with pytest.raises(SnapshotError) as err:
        snapshot.load(bad + "\n", corpus.metamodels())
    assert what.split()[0] in str(err.value)
    assert err.value.line == 1


GRAPH_AND_NODE = f"entity 1 : {G1}Graph\nentity 2 : {G1}Node in 1\n"


@pytest.mark.parametrize("first, bad, what", [
    (GRAPH_AND_NODE, f"entity 3 : {G1}Node in 4\nentity 4 : {G1}Node in 1", "not live"),
    (GRAPH_AND_NODE, f"relation 3 : {G1}Edge.src (2 -> 4)\nentity 4 : {G1}Node in 1",
     "not live"),
    (f"entity 1 : {G1}Graph\nrelation 2 : {G1}Graph.nodes (1 -> 1)\n",
     f"entity 3 : {G1}Node in 2", "not an entity"),
    (GRAPH_AND_NODE, f"entity 3 : {G1}Graph.nodes in 1", "relation type"),
    # the types field passed its check for an entity on line 2, not for a relation
    (GRAPH_AND_NODE, f"relation 3 : {G1}Node (1 -> 2)", "entity type"),
    (GRAPH_AND_NODE, f"entity 0 : {G1}Node in 1", "positive"),
    (GRAPH_AND_NODE, f"entity 2 : {G1}Node in 1", "already in use"),
    (GRAPH_AND_NODE, f"entity 3 : {G1}Node (1 -> 2)", "endpoints"),
    (GRAPH_AND_NODE, f"relation 3 : {G1}Graph.nodes (1 -> 2) in 1", "no parent"),
    (GRAPH_AND_NODE, "entity 3 : no.Such.Type in 1", "unknown type"),
], ids=["later-parent", "later-endpoint", "relation-parent", "entity-relation-type",
        "relation-entity-type", "id-0", "duplicate-id", "entity-endpoints",
        "relation-in", "unknown-type"])
def test_load_error_names_its_line(first, bad, what):
    # a reference is checked against the lines above it: a forward
    # reference fails on its own line, whatever the later lines hold
    with pytest.raises(SnapshotError) as err:
        snapshot.load(first + bad + "\n", corpus.metamodels())
    assert err.value.line == 3
    assert what in str(err.value)


def test_type_directive_in_mid_file():
    text = (f"entity 1 : {G1}Graph\n"
            "type my.Thing entity\n"
            "entity 2 : my.Thing in 1\n"
            "entity 3 : my.Thing in 2\n")
    space = snapshot.load(text, corpus.metamodels())
    assert space.types(2) == space.types(3) == {"my.Thing"}
    assert space.parent(3) == 2
    assert snapshot.save(space) == ("type my.Thing entity\n"
                                    f"entity 1 : {G1}Graph\n"
                                    "entity 2 : my.Thing in 1\n"
                                    "entity 3 : my.Thing in 2\n")


def test_oversized_integer_value_is_a_snapshot_error():
    text = f"entity 1 : {G1}Graph\nentity 2 : {G1}Node in 1 value={LONG_DIGITS}\n"
    if not INT_DIGITS_LIMITED:
        assert snapshot.load(text, corpus.metamodels()).value(2) == int(LONG_DIGITS)
        return
    with pytest.raises(SnapshotError) as err:
        snapshot.load(text, corpus.metamodels())
    assert err.value.line == 2


# single characters, digit runs, and integer fields to end a line with
_GMS_FRAGMENTS = (
    st.sampled_from(list('0123456789 \n\t"\\=,.:()->#') + ["\u00e9", "\u0663", "\x00"])
    | st.sampled_from(["9" * 40, LONG_DIGITS, ' name="', ' value="'])
    | st.sampled_from([f" value={LONG_DIGITS}", f" value=-{LONG_DIGITS}", f" in {LONG_DIGITS}"]))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(SHIPPED), data=st.data())
def test_mutated_snapshot_text_raises_only_snapshot_errors(name, data):
    lines = corpus.fixture_gms(name).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        i = data.draw(st.integers(0, len(line)) | st.just(len(line)))
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        c = "" if op == "delete" else data.draw(_GMS_FRAGMENTS)
        lines[k] = line[:i] + c + line[i + (op != "insert"):]
    try:
        snapshot.load("\n".join(lines) + "\n", corpus.metamodels())
    except SnapshotError:
        pass


def test_a_parent_with_a_higher_id_than_its_child_saves_after_it():
    """Entities save parents first: a child whose parent has the higher id
    waits for a second pass over the entities, and the text loads back."""
    text = f"entity 50 : {G1}Graph\nentity 10 : {G1}Node in 50\n"
    space = snapshot.load(text, corpus.metamodels())
    saved = snapshot.save(space)
    assert saved.index("entity 50 ") < saved.index("entity 10 ")
    assert snapshot.load(saved, corpus.metamodels()).state() == space.state()


def test_duplicate_id_rejected():
    text = ("entity 1 : nemf.packages.graph1.Node\n"
            "entity 1 : nemf.packages.graph1.Node\n")
    with pytest.raises(SnapshotError):
        snapshot.load(text, corpus.metamodels())


def _match_sets(space) -> dict:
    """(pattern, matcher) -> match set, for every library pattern."""
    patterns = corpus.library_program(space.registry).patterns
    ls = LocalSearchMatcher(space, patterns)
    rete = ReteEngine(space, patterns)
    sets = {}
    for name, pattern in patterns.items():
        sets[name, "ls"] = ls.match_set(name)
        if not pattern.ls_reason:
            sets[name, "inc"] = set(rete.register(name).match_tuples())
    return sets


def assert_loads_alike(space, text=None):
    """``load(text)``, by default ``load(save(space))``, is the space that
    creating its elements one by one builds: the same elements and indexes
    (no index keeps an empty set, not even after deletions), an id counter
    just past the largest id, one version per element, and the same matches
    under both matchers."""
    loaded = snapshot.load(snapshot.save(space) if text is None else text,
                           corpus.metamodels())
    assert loaded.state() == space.state()
    for index in ("_by_type", "_children", "_out", "_in"):
        assert getattr(loaded, index) == getattr(space, index), index
    assert loaded._relations == space._relations
    ids = space.state()
    assert loaded._next_id == max(ids, default=0) + 1
    assert loaded.version == len(ids)
    assert _match_sets(loaded) == _match_sets(space)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_load_builds_the_created_space(seed):
    assert_loads_alike(load_fixture("random", n=10 * seed, e=25 * seed, seed=seed))


def _spelled_space():
    """A graph with a named node, a negative value and an untyped relation,
    as ``_SPELLINGS`` write it."""
    space = load_fixture("empty")
    graph = space.new_entity(G1 + "Graph")
    node = space.new_entity(G1 + "Node", graph)
    space.rename(node, 'say "hi"')
    text = space.new_entity(ES, node)
    space.set_value(text, -3)
    space.new_relation(G1 + "Graph.nodes", graph, node)
    space.new_relation(G1 + "Node.name", node, text)
    space.new_relation(None, node, node)
    return space


def _spelled(graph="entity 1 : {G}Graph", node='entity 2 : {G}Node in 1 name="say \\"hi\\""',
             text="entity 3 : {ES} in 2 value=-3", nodes="relation 4 : {G}Graph.nodes (1 -> 2)",
             name="relation 5 : {G}Node.name (2 -> 3)", loop="relation 6 : (2 -> 2)",
             between=""):
    lines = (graph, node, text, nodes, name, loop)
    return between.join(line.format(G=G1, ES=ES) + "\n" for line in lines)


# spellings the grammar takes beside the one ``save`` writes
_SPELLINGS = {
    "as-saved": None,
    "one-space-untyped": _spelled(),
    "no-spaces": _spelled(graph="entity 1:{G}Graph", text="entity 3:{ES} in 2 value=-3",
                          nodes="relation 4:{G}Graph.nodes(1->2)",
                          name="relation 5 :{G}Node.name( 2->3 )", loop="relation 6:(2->2)"),
    "blanks-and-tabs": _spelled(graph="  entity 1 : {G}Graph\t", node=(
        '\tentity\t2\t:\t{G}Node\tin\t1\tname="say \\"hi\\""  '),
                                loop=" \t relation 6 :\t( 2 -> 2 ) \t"),
    "comments-and-blank-lines": _spelled(between="# a comment\n\n \t\n  # indented\n"),
}


@pytest.mark.parametrize("spelling", sorted(_SPELLINGS))
def test_spellings_load_alike(spelling):
    """Each spelling loads to the space that creating its elements builds."""
    space = _spelled_space()
    text = _SPELLINGS[spelling]
    if text is None:
        text = snapshot.save(space)
        assert 'value=-3' in text and 'name="say \\"hi\\""' in text
        assert "relation 6 :  (2 -> 2)" in text
    assert_loads_alike(space, text)


def test_round_trip_property_over_random_edits():
    import random

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from editscripts import random_edit

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**20), st.integers(0, 50))
    def prop(seed, steps):
        rng = random.Random(seed)
        space = load_fixture("random", n=rng.randrange(1, 8),
                             e=rng.randrange(0, 12), seed=seed)
        for _ in range(steps):
            random_edit(space, rng)
        text = snapshot.save(space)
        reloaded = snapshot.load(text, corpus.metamodels())
        assert reloaded.state() == space.state()
        assert snapshot.save(reloaded) == text
        assert_loads_alike(space)

    prop()


def test_relation_value_round_trip():
    space = load_fixture("empty")
    a = space.new_entity(G1 + "Node")
    b = space.new_entity(G1 + "Node")
    r = space.new_relation(G1 + "Edge.src", a, b)
    space.set_value(r, 42)
    space.rename(r, "weighted")
    text = snapshot.save(space)
    reloaded = snapshot.load(text, corpus.metamodels())
    assert reloaded.value(r) == 42 and reloaded.name(r) == "weighted"
    assert reloaded.state() == space.state()
