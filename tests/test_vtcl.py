import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_CALLS, INT_DIGITS_LIMITED, LONG_DIGITS, bad_call_machine
import gtvm
from gtvm import corpus
from gtvm import rules as ir
from gtvm.errors import GtvmError, LinkError, ParseError
from gtvm.expr import Lit
from gtvm.patterns import CountC, NegC
from gtvm.vtcl import _position, _text, link, parse, pretty, tokenize


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
    assert [r.name for r in m.rules] == ["main"]


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


def _reachable(program, rule_name):
    """Every statement of a linked rule and of the rules it calls."""
    seen, todo = {rule_name}, [program.rules[rule_name].body]
    while todo:
        s = todo.pop()
        yield s
        if isinstance(s, ir.Call) and s.ref not in seen:
            seen.add(s.ref)
            todo.append(program.rules[s.ref].body)
        todo.extend(getattr(s, "stmts", ()))
        todo.extend(child for child in (getattr(s, f, None) for f in
                                        ("body", "then", "els", "inner", "do"))
                    if child is not None)


def test_link_resolves_external_finds(registry):
    program = link([corpus.load_machine("graphPatterns"),
                    corpus.load_machine("countMatchesASM")], registry)
    refs = {s.source.ref for s in _reachable(program, "countMatchesASM.main")
            if isinstance(s, (ir.Choose, ir.Forall))}
    assert "graphPatterns.SimpleNode" in refs
    assert refs <= set(program.patterns)


def test_linked_statement_types_are_qualified(registry):
    program = link([corpus.load_machine("helloWorldASM")], registry)
    types = {s.type for s in _reachable(program, "helloWorldASM.main")
             if isinstance(s, (ir.NewEntity, ir.NewRelation))}
    assert types and all(registry.is_registered(t) for t in types)
    assert "nemf.packages.helloworld.Greeting" in types


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


@pytest.mark.parametrize("case", BAD_CALLS)
def test_rule_call_checked_at_link(registry, case):
    call, message = BAD_CALLS[case]
    with pytest.raises(LinkError) as err:
        link([parse(bad_call_machine(call))], registry)
    assert str(err.value) == message


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


def test_token_positions_after_multiline_comment_and_string():
    # tokens are plain strings; a position is computed from the source and
    # the token's index, and a string literal keeps its quotes and escapes
    source = 'a /* one\n two\n */ b "x\\"y\nz" c\n  d'
    tokens = tokenize(source)
    assert [(tok, *_position(source, i)) for i, tok in enumerate(tokens)] == [
        ("a", 1, 1),
        ("b", 3, 5),
        ('"x\\"y\nz"', 3, 7),
        ("c", 4, 4),
        ("d", 5, 3),
        ("", 5, 4),
    ]
    assert _text(tokens[2]) == 'x"y\nz'


def test_block_comment_closes_after_its_opening_star():
    # as in C: the "*/" that closes a comment cannot share the opening star
    assert tokenize("a /*/ note */ b") == ["a", "b", ""]
    assert tokenize("a /**/ b /***/ c") == ["a", "b", "c", ""]
    with pytest.raises(ParseError) as err:
        tokenize("a\n /*/ b")
    assert "unterminated block comment" in str(err.value)
    assert (err.value.line, err.value.col) == (2, 2)


@pytest.mark.parametrize("source, position", [
    ("println(\u00b2);", (1, 9)),
    ("println(1\u0663);", (1, 10)),
    ("x\n  /* open", (2, 3)),
    ('x\n "open', (2, 2)),
])
def test_tokenize_errors_have_positions(source, position):
    with pytest.raises(ParseError) as err:
        tokenize(source)
    assert (err.value.line, err.value.col) == position


@pytest.mark.parametrize("source, message", [
    # after a multi-line block comment
    ("machine m{\n/* one\n two */ rule main() = println(;\n}",
     "3:31: expected an expression, found ';'"),
    # after a multi-line string
    ('machine m{ rule main() = println("a\nb" +\n  ); }',
     "3:3: expected an expression, found ')'"),
    # at eof: at the end of the text, after a comment or after whitespace
    ("machine m{ rule main() = skip;",
     "1:31: expected pattern, rule, or gtrule, found ''"),
    ("machine m{ rule main() = skip;\n  // end\n",
     "3:1: expected pattern, rule, or gtrule, found ''"),
    ("machine m{ rule main() = skip;\n/* a\n */  ",
     "3:6: expected pattern, rule, or gtrule, found ''"),
])
def test_parse_errors_keep_their_positions(source, message):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == message


@pytest.mark.parametrize("literal, value", [
    (r'"a\"b"', 'a"b'),
    (r'"a\\b"', "a\\b"),
    (r'"a\nb"', "a\nb"),
    (r'"a\tb"', "a\tb"),
    (r'"a\qb"', "aqb"),
    ('"a\nb"', "a\nb"),  # a raw newline
    ('""', ""),
])
def test_string_literals(literal, value):
    m = parse(f"machine m{{ rule main() = println({literal}); }}")
    assert m.rules[0].body == ir.Println(Lit(value))
    assert parse(pretty(m)) == m


def test_a_string_is_found_by_its_value():
    with pytest.raises(ParseError) as err:
        parse(r'machine m{ rule main() = println(1 "a\"b\n"); }')
    assert str(err.value) == "1:36: expected ')', found 'a\"b\\n'"


def test_scanner_runs_in_linear_time():
    # each text tokenizes or raises a ParseError; a scan that backtracks
    # takes exponential or quadratic time on some of them, so it runs in a
    # child process that is killed after the timeout
    code = """if True:
        import time
        from gtvm.errors import ParseError
        from gtvm.vtcl import tokenize
        n = 100_000
        texts = ["a" * (n - 1) + "$", " " * (n - 1) + "$",
                 "/*" + "*" * (n - 2), "/" * n, '"' + "x" * (n - 1),
                 ("/* " * n)[:n], ('"\\\\' * n)[:n]]
        start = time.perf_counter()
        for text in texts:
            try:
                tokenize(text)
            except ParseError:
                pass
        print(time.perf_counter() - start)
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gtvm.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 2.0


def test_non_ascii_digit_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse("machine m{ rule main() = println(\u00b2); }")
    assert "unexpected character" in str(err.value)


def test_oversized_integer_literal_is_a_parse_error():
    source = f"machine m{{ rule main() =\n  println({LONG_DIGITS}); }}"
    if not INT_DIGITS_LIMITED:
        assert parse(source).rules[0].body.expr.value == int(LONG_DIGITS)
        return
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == (2, 11)
    assert "5000 digits" in str(err.value)


_MUTATION_CHARS = st.sampled_from(list('{}();,."#=+!@/*\\ \n_aZ09') +
                                  ["\u00b2", "\u0663", "\u00e9", "\u2162", "\x00"])


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(corpus.CORPUS_MACHINES), data=st.data())
def test_mutated_corpus_text_raises_only_gtvm_errors(name, data):
    text = corpus.corpus_source(name)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        c = "" if op == "delete" else data.draw(_MUTATION_CHARS)
        text = text[:i] + c + text[i + (op != "insert"):]
    machines = [] if name == "graphPatterns" else [corpus.load_machine("graphPatterns")]
    try:
        machines.append(parse(text))
        link(machines, corpus.metamodels())
    except GtvmError:
        pass
