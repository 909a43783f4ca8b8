import pytest

from gtvm import corpus
from gtvm.errors import LinkError, ParseError
from gtvm.patterns import CountC, NegC
from gtvm.vtcl import link, parse, pretty


def test_parse_library():
    m = parse(corpus.corpus_source("graphPatterns"))
    assert m.name == "graphPatterns"
    assert len(m.patterns) == 25
    assert sum(1 for p in m.patterns if p.shareable) == 3
    assert sum(1 for p in m.patterns if p.localsearch) == 2
    assert m.imports == ("datatypes", "nemf.packages", "nemf.ecore.datatypes")


def test_or_bodies():
    m = parse("machine m{ pattern p(X) = { graph1.Node(X); } "
              "or { graph1.Edge(X); } }")
    assert len(m.patterns[0].bodies) == 2


def test_count_constraint_parses():
    m = parse("machine m{ pattern p(N) = { find q(X) # N; } "
              "pattern q(X) = { graph1.Node(X); } }")
    c = m.patterns[0].bodies[0].constraints[0]
    assert isinstance(c, CountC) and c.out == "N"


def test_machine_annotations():
    m = parse("@incremental\nmachine m{ rule main() = skip; }")
    assert "incremental" in m.annotations


def test_unterminated_block_has_position():
    with pytest.raises(ParseError) as err:
        parse("machine m{ rule main() = seq{ println(\"x\");")
    assert err.value.line >= 1 and err.value.col >= 1


@pytest.mark.parametrize("source, fragment", [
    ("machine m{ pattern p() = { graph1.Node(X,Y); } }", "1 (entity) or 3"),
    ("machine m{ rule main() = iterate skip; }", "choose"),
    ("machine m{ rule main() = choose with grab q() do skip; }", "find or apply"),
    ("machine m{ rule a() = skip; rule a() = skip; }", "duplicate"),
    ("machine m{ } machine n{ }", "one machine"),
    ("machine m{ rule main() = println(); }", "expression"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert fragment in str(err.value)


def test_comments_are_skipped():
    m = parse("""
    // leading
    machine m{ /* block
       comment */ rule main() = skip; // trailing
    }
    """)
    assert m.rule("main") is not None


@pytest.mark.parametrize("name", corpus.CORPUS_MACHINES)
def test_corpus_round_trip(name):
    first = parse(corpus.corpus_source(name))
    again = parse(pretty(first))
    assert first == again


def test_corpus_links(registry):
    machines = [corpus.load_machine(n) for n in corpus.CORPUS_MACHINES]
    program = link(machines, registry)
    # every machine present, all cross references resolved
    assert set(program.machines) == {m.name for m in machines}
    assert len(program.machines) == 23


def test_link_resolves_external_finds(registry):
    program = link([corpus.load_machine("graphPatterns"),
                    corpus.load_machine("countMatchesASM")], registry)
    assert ("countMatchesASM", "pattern",
            "graphPatterns.SimpleNode") in program.resolutions


def test_link_without_library_names_missing_machine(registry):
    with pytest.raises(LinkError) as err:
        link([corpus.load_machine("countMatchesASM")], registry)
    assert "graphPatterns" in str(err.value)


def test_self_contained_machine_links_alone(registry):
    program = link([corpus.load_machine("helloWorldASM")], registry)
    assert "helloWorldASM.TextAndNameForGreeting" in program.patterns


def test_inline_nac_hoisted(registry):
    program = link([corpus.load_machine("helloWorldGT")], registry)
    pre = program.patterns["helloWorldGT.createSimpleModelInstanctGT$pre"]
    (neg,) = pre.bodies[0].constraints
    assert isinstance(neg, NegC)
    assert neg.pattern in program.patterns


def test_duplicate_machine_rejected(registry):
    m = corpus.load_machine("graphPatterns")
    with pytest.raises(LinkError):
        link([m, m], registry)


def test_statement_arity_checked(registry):
    bad = parse("""
    import nemf.packages;
    machine m{
      rule main() = forall N with find graphPatterns.NodesRelations(N) do skip;
    }""")
    with pytest.raises(LinkError) as err:
        link([bad, corpus.load_machine("graphPatterns")], registry)
    assert "4 arguments" in str(err.value)


def test_unknown_local_pattern(registry):
    bad = parse("machine m{ rule main() = forall N with find nope(N) do skip; }")
    with pytest.raises(LinkError) as err:
        link([bad], registry)
    assert "nope" in str(err.value)


def test_forall_var_must_occur_in_args(registry):
    bad = parse("""
    import nemf.packages;
    machine m{
      rule main() = forall Ghost with find graphPatterns.SimpleNode(N) do skip;
    }""")
    with pytest.raises(LinkError) as err:
        link([bad, corpus.load_machine("graphPatterns")], registry)
    assert "Ghost" in str(err.value)


@pytest.mark.parametrize("depth", [100, 3000])
def test_deep_statement_nesting_is_a_parse_error(depth):
    src = "machine m{ rule main() = " + "seq{ " * depth + "skip;" + " }" * depth + " }"
    with pytest.raises(ParseError) as err:
        parse(src)
    assert "nesting deeper than" in str(err.value)


@pytest.mark.parametrize("text", [
    "(" * 3000 + "1" + ")" * 3000,
    "value(" * 3000 + "X" + ")" * 3000,
    "+".join(["1"] * 3000),
])
def test_deep_expression_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError) as err:
        parse("machine m{ rule main() = println(" + text + "); }")
    assert "nesting deeper than" in str(err.value)


def test_nesting_within_the_limit_parses():
    from gtvm.vtcl import MAX_NESTING
    depth = MAX_NESTING // 2 - 1  # depth seqs, println, depth parens
    stmt = "seq{ " * depth + "println(" + "(" * depth + "1" + ")" * depth + ");" + " }" * depth
    m = parse("machine m{ rule main() = " + stmt + " }")
    assert parse(pretty(m)) == m


def test_long_plus_chain_round_trips():
    chain = "+".join(["1"] * 64)
    m = parse("machine m{ rule main() = println(" + chain + "); }")
    text = pretty(m)
    assert "println(" + " + ".join(["1"] * 64) + ");" in text  # no parentheses
    assert parse(text) == m


@pytest.mark.parametrize("text", [
    'value(N) + 1 == 2',
    '(1 == 1) + "x" != "truex"',
    'a + (b + c) == (a == b)',
    '"p" + (1 + 2) + value(name(N) + "q")',
    '(a != b) == (c == d + e + (f + g))',
])
def test_mixed_operators_round_trip(text):
    m = parse("machine m{ rule main() = let a = 1, b = 2, c = 3, d = 4, e = 5, "
              "f = 6, g = 7, N = 8 in println(" + text + "); }")
    assert parse(pretty(m)) == m
