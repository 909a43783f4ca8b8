"""Parser, pretty printer, and linker for the VTCL-subset language.

The grammar covers exactly the constructs the transformation corpus uses:
machine/rule/pattern/gtrule declarations, annotations, shareable and or-body
patterns, find / neg find / match counting (``# N``) / check constraints,
inline negative patterns, precondition/postcondition (inline or ``find``
reference) with optional action blocks, and the statement forms of the
control language. Anything outside the subset is a parse error.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace

from . import expr as ex
from . import rules as ir
from .errors import LinkError, ParseError, PatternError
from .modelspace import TypeRegistry
from .patterns import (Body, CheckC, CountC, EntityC, FindC, NegC, Pattern,
                       RelationC, flatten_body, validate_patterns)

# parse-only constraint: inline negative application condition


@dataclass(frozen=True)
class NegInlineC:
    pattern: Pattern


# --- lexer -------------------------------------------------------------------

# One ``findall`` splits a source into token strings: each match skips
# whitespace and comments, then takes one token. The token group cannot fail,
# so the scan never backtracks and runs in linear time: a character of no
# token comes back alone, an unterminated string or block comment runs on to
# the end of the text, and the end itself is the eof token "". ``tokenize``
# then rejects the first token the language lacks. Tokens are told apart by
# their first character; a string keeps its quotes and escapes, and an
# identifier must start with a letter or "_", since \w also takes numerals.
_SCAN = re.compile(r"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)*
    ( "(?:[^"\\]|\\.)*"? | /\*.* | [0-9]+ | \w+ | [=!]= | [{}(),;=+@#.] | . | \Z )
""", re.S | re.X)
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"', re.S)
_PUNCT = frozenset(["", "==", "!=", *"{}(),;=+@#."])  # with the eof token
_ESCAPE = re.compile(r"\\(.)", re.S)
_ESCAPED = {"n": "\n", "t": "\t"}


def _unescape(m: re.Match) -> str:
    return _ESCAPED.get(m[1], m[1])


def _text(tok: str) -> str:
    """A token's text: for a string literal, its value without quotes or
    escapes (as messages show it, too)."""
    if tok[:1] == '"':
        return _ESCAPE.sub(_unescape, tok[1:-1])
    return tok


def _error(tok: str) -> str | None:
    """Why ``tok`` is no token of the language, or None if it is one."""
    c = tok[:1]
    if tok in _PUNCT or c.isalpha() or c == "_" or "0" <= c <= "9":
        return None
    if c == '"':
        return None if _STRING.fullmatch(tok) else "unterminated string"
    if tok.startswith("/*"):
        return "unterminated block comment"
    return f"unexpected character {c!r}"


def _position(source: str, index: int) -> tuple[int, int]:
    """Line and column of token ``index`` of ``tokenize(source)``."""
    m = next(itertools.islice(_SCAN.finditer(source), index, None))
    start = m.start(1)
    return source.count("\n", 0, start) + 1, start - source.rfind("\n", 0, start)


def tokenize(source: str) -> list[str]:
    tokens = _SCAN.findall(source)
    if len(tokens) > 1 and not tokens[-2]:
        tokens.pop()  # after trailing skip, \Z matched at the end once more
    for tok in dict.fromkeys(tokens):
        msg = _error(tok)
        if msg is not None:
            raise ParseError(msg, *_position(source, tokens.index(tok)))
    return tokens


# --- parser -------------------------------------------------------------------

# Statements, pattern bodies, parenthesised and call expressions and the
# operands of a `+` chain nest at most this deep, which bounds the recursion
# of the parser, the linker, the printer and the evaluator alike.
MAX_NESTING = 64


class _Parser:
    def __init__(self, source: str):
        self.text = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    def next(self) -> str:
        """The current token, which is not the eof token, and step past it."""
        self.pos += 1
        return self.tokens[self.pos - 1]

    def error(self, msg: str, index: int | None = None):
        """Raise ``msg`` at token ``index``, by default the current one."""
        index = self.pos if index is None else index
        raise ParseError(msg, *_position(self.text, index))

    def found(self) -> str:
        return repr(_text(self.tokens[self.pos]))

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            self.error(f"expected {text!r}, found {self.found()}")
        self.pos += 1

    def ident(self) -> str:
        tok = self.tokens[self.pos]
        c = tok[:1]
        if not (c.isalpha() or c == "_"):
            self.error(f"expected identifier, found {self.found()}")
        self.pos += 1
        return tok

    def dotted(self) -> str:
        parts = [self.ident()]
        while self.at("."):
            self.next()
            parts.append(self.ident())
        return ".".join(parts)

    def semi(self) -> None:
        self.accept(";")

    def deeper(self) -> None:
        """Enter one more level of nesting; callers step back out with
        ``self.depth -= 1``."""
        if self.depth >= MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    # -- machine ---------------------------------------------------------------

    def machine(self) -> ir.Machine:
        imports = []
        while self.at("import"):
            self.next()
            imports.append(self.dotted())
            self.expect(";")
        annotations = set()
        while self.at("@"):
            self.next()
            annotations.add(self.ident())
        self.expect("machine")
        name = self.ident()
        self.expect("{")
        patterns: list[Pattern] = []
        gtrules: list[ir.GtRuleDef] = []
        rules: list[ir.AsmRule] = []
        while not self.at("}"):
            member_ann = set()
            while self.at("@"):
                self.next()
                member_ann.add(self.ident())
            if self.at("shareable") or self.at("pattern"):
                patterns.append(self.pattern_def(member_ann))
            elif self.at("rule"):
                if member_ann:
                    self.error("annotations are only allowed on patterns")
                rules.append(self.rule_def())
            elif self.at("gtrule"):
                if member_ann:
                    self.error("annotations are only allowed on patterns")
                gtrules.append(self.gtrule_def())
            else:
                self.error(f"expected pattern, rule, or gtrule, found {self.found()}")
        self.expect("}")
        if self.tokens[self.pos]:
            self.error("one machine per file")
        names = [p.name for p in patterns] + [g.name for g in gtrules] + [r.name for r in rules]
        dup = {n for n in names if names.count(n) > 1}
        if dup:
            self.error(f"duplicate member name(s): {', '.join(sorted(dup))}")
        return ir.Machine(name, tuple(imports), frozenset(annotations),
                          tuple(patterns), tuple(gtrules), tuple(rules))

    # -- patterns ----------------------------------------------------------------

    def pattern_def(self, annotations: set[str]) -> Pattern:
        shareable = self.accept("shareable")
        self.expect("pattern")
        name = self.ident()
        params = self.arg_list()
        self.expect("=")
        bodies = [self.pattern_body()]
        while self.accept("or"):
            bodies.append(self.pattern_body())
        return Pattern(name, params, tuple(bodies), shareable=shareable,
                       localsearch="localsearch" in annotations)

    def pattern_body(self) -> Body:
        self.expect("{")
        self.deeper()
        constraints = []
        while not self.at("}"):
            constraints.append(self.constraint())
        self.depth -= 1
        self.expect("}")
        return Body(tuple(constraints))

    def arg_list(self) -> tuple[str, ...]:
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.ident())
            while self.accept(","):
                args.append(self.ident())
        self.expect(")")
        return tuple(args)

    def constraint(self):
        if self.accept("find"):
            ref = self.dotted()
            args = self.arg_list()
            if self.accept("#"):
                out = self.ident()
                self.semi()
                return CountC(ref, args, out)
            self.semi()
            return FindC(ref, args)
        if self.accept("neg"):
            if self.at("find"):
                self.next()
                ref = self.dotted()
                args = self.arg_list()
                self.semi()
                return NegC(ref, args)
            if self.at("pattern") or self.at("shareable"):
                inner = self.pattern_def(set())
                self.semi()
                return NegInlineC(inner)
            self.error("expected find or pattern after neg")
        if self.accept("check"):
            self.expect("(")
            e = self.expr()
            self.expect(")")
            self.semi()
            return CheckC(e)
        c = self.typed()
        self.semi()
        return c

    def typed(self) -> EntityC | RelationC:
        """``relation(R,S,T)``, ``T(R,S,T)`` or ``T(X)`` with an optional
        ``in P`` (``in`` a dotted namespace path: the model root)."""
        start = self.pos
        untyped = self.accept("relation")
        type_name = None if untyped else self.dotted()
        args = self.arg_list()
        if len(args) == 3:
            return RelationC(type_name, *args)
        if untyped:
            self.error("relation(...) takes exactly 3 arguments", start)
        if len(args) != 1:
            self.error("type constraints take 1 (entity) or 3 (relation) arguments", start)
        if not self.accept("in"):
            return EntityC(type_name, args[0])
        path = self.dotted()
        if "." in path:
            return EntityC(type_name, args[0], in_root=True)
        return EntityC(type_name, args[0], path)

    # -- rules ---------------------------------------------------------------------

    def param_list(self) -> tuple[ir.Param, ...]:
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                mode = "in"
                if self.at("in") or self.at("out"):
                    mode = self.next()
                params.append(ir.Param(mode, self.ident()))
                if not self.accept(","):
                    break
        self.expect(")")
        return tuple(params)

    def rule_def(self) -> ir.AsmRule:
        self.expect("rule")
        name = self.ident()
        params = self.param_list()
        self.expect("=")
        body = self.statement()
        return ir.AsmRule(name, params, body)

    def gtrule_def(self) -> ir.GtRuleDef:
        self.expect("gtrule")
        name = self.ident()
        params = self.param_list()
        self.expect("=")
        self.expect("{")
        self.expect("precondition")
        pre = self.pre_post()
        post = None
        if self.accept("postcondition"):
            post = self.pre_post()
        action = None
        if self.accept("action"):
            self.expect("{")
            stmts = []
            while not self.at("}"):
                stmts.append(self.statement())
            self.expect("}")
            action = ir.Seq(tuple(stmts))
        self.expect("}")
        return ir.GtRuleDef(name, params, pre, post, action)

    def pre_post(self):
        if self.at("pattern") or self.at("shareable"):
            return self.pattern_def(set())
        if self.accept("find"):
            ref = self.dotted()
            args = self.arg_list()
            return ir.FindRef(ref, args)
        self.error("expected pattern or find")

    # -- statements -------------------------------------------------------------------

    def statement(self):
        self.deeper()
        stmt = self._statement()
        self.depth -= 1
        return stmt

    def _statement(self):
        if self.accept("seq"):
            self.expect("{")
            stmts = []
            while not self.at("}"):
                stmts.append(self.statement())
            self.expect("}")
            return ir.Seq(tuple(stmts))
        if self.accept("let"):
            inits = []
            while True:
                var = self.ident()
                self.expect("=")
                inits.append((var, self.expr()))
                if not self.accept(","):
                    break
            self.expect("in")
            return ir.Let(tuple(inits), self.statement())
        if self.accept("update"):
            var = self.ident()
            self.expect("=")
            e = self.expr()
            self.semi()
            return ir.Update(var, e)
        if self.accept("if"):
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self.statement()
            els = None
            if self.accept("else"):
                els = self.statement()
            return ir.If(cond, then, els)
        if self.accept("try"):
            return ir.Try(self.statement())
        if self.at("choose"):
            return self.choose_stmt()
        if self.accept("forall"):
            vars_ = [self.ident()]
            while self.accept(","):
                vars_.append(self.ident())
            self.expect("with")
            source = self.source()
            self.expect("do")
            return ir.Forall(tuple(vars_), source, self.statement())
        if self.accept("iterate"):
            start = self.pos
            inner = self.statement()
            if not isinstance(inner, ir.Choose):
                self.error("iterate expects a choose statement", start)
            return ir.Iterate(inner)
        if self.accept("call"):
            ref = self.dotted()
            self.expect("(")
            args = []
            if not self.at(")"):
                args.append(self.expr())
                while self.accept(","):
                    args.append(self.expr())
            self.expect(")")
            self.semi()
            return ir.Call(ref, tuple(args))
        if self.accept("println"):
            self.expect("(")
            e = self.expr()
            self.expect(")")
            self.semi()
            return ir.Println(e)
        if self.accept("skip"):
            self.semi()
            return ir.Skip()
        if self.accept("new"):
            self.expect("(")
            stmt = self.new_target()
            self.expect(")")
            self.semi()
            return stmt
        if self.accept("delete"):
            self.expect("(")
            if self.at("instanceOf"):
                stmt = ir.DeleteInstanceOf(*self.instance_of())
            else:
                stmt = ir.DeleteStmt(self.expr())
            self.expect(")")
            self.semi()
            return stmt
        if self.accept("setValue"):
            a, b = self.two_args()
            return ir.SetValueStmt(a, b)
        if self.accept("setTo"):
            a, b = self.two_args()
            return ir.SetToStmt(a, b)
        if self.accept("rename"):
            a, b = self.two_args()
            return ir.RenameStmt(a, b)
        self.error(f"expected a statement, found {self.found()}")

    def two_args(self):
        self.expect("(")
        a = self.expr()
        self.expect(",")
        b = self.expr()
        self.expect(")")
        self.semi()
        return a, b

    def choose_stmt(self) -> ir.Choose:
        self.expect("choose")
        vars_ = []
        if not self.at("with"):
            vars_.append(self.ident())
            while self.accept(","):
                vars_.append(self.ident())
        self.expect("with")
        source = self.source()
        self.expect("do")
        return ir.Choose(tuple(vars_), source, self.statement())

    def instance_of(self) -> tuple[str, str]:
        """``instanceOf(Var, type)`` as (var, type name)."""
        self.expect("instanceOf")
        self.expect("(")
        var = self.ident()
        self.expect(",")
        type_name = self.dotted()
        self.expect(")")
        return var, type_name

    def source(self):
        if self.accept("find"):
            return ir.FindSource(self.dotted(), self.arg_list())
        if self.accept("apply"):
            return ir.ApplySource(self.dotted(), self.arg_list())
        self.error("expected find or apply")

    def new_target(self):
        if self.at("instanceOf"):
            return ir.NewInstanceOf(*self.instance_of())
        c = self.typed()
        if isinstance(c, RelationC):
            return ir.NewRelation(c.type, c.rel, c.src, c.trg)
        return ir.NewEntity(c.type, c.var, c.in_var, c.in_root)

    # -- expressions ----------------------------------------------------------------------

    def expr(self) -> ex.Expr:
        left = self.additive()
        if self.at("==") or self.at("!="):
            op = self.next()
            return ex.BinOp(op, left, self.additive())
        return left

    def additive(self) -> ex.Expr:
        depth = self.depth
        left = self.primary()
        while self.at("+"):
            self.next()
            self.deeper()  # the chain is a left-deep tree
            left = ex.BinOp("+", left, self.primary())
        self.depth = depth
        return left

    def parenthesised(self) -> ex.Expr:
        self.expect("(")
        self.deeper()
        e = self.expr()
        self.depth -= 1
        self.expect(")")
        return e

    def primary(self) -> ex.Expr:
        tok = self.tokens[self.pos]
        c = tok[:1]
        if c.isdigit():
            try:
                value = int(tok)
            except ValueError:  # more digits than int() converts
                self.error(f"integer literal of {len(tok)} digits is too long")
            self.pos += 1
            return ex.Lit(value)
        if c == '"':
            self.pos += 1
            return ex.Lit(_text(tok))
        if self.accept("undef"):
            return ex.Lit(None)
        if (tok == "value" or tok == "name") and self.tokens[self.pos + 1] == "(":
            self.pos += 1
            inner = self.parenthesised()
            return ex.ValueOf(inner) if tok == "value" else ex.NameOf(inner)
        if tok == "(":
            return self.parenthesised()
        if c.isalpha() or c == "_":
            self.pos += 1
            return ex.Var(tok)
        self.error(f"expected an expression, found {self.found()}")


def parse(source: str) -> ir.Machine:
    """Parse one machine definition."""
    return _Parser(source).machine()


# --- pretty printer ---------------------------------------------------------------


def _p_typed(c: EntityC | RelationC) -> str:
    """``c`` as ``_Parser.typed`` reads it."""
    if isinstance(c, RelationC):
        head = c.type if c.type is not None else "relation"
        return f"{head}({c.rel},{c.src},{c.trg})"
    suffix = ""
    if c.in_root:
        suffix = " in nemf.resources"
    elif c.in_var is not None:
        suffix = f" in {c.in_var}"
    return f"{c.type}({c.var}){suffix}"


def _p_constraint(c, indent: str) -> str:
    if isinstance(c, (EntityC, RelationC)):
        return f"{indent}{_p_typed(c)};"
    if isinstance(c, FindC):
        return f"{indent}find {c.pattern}({','.join(c.args)});"
    if isinstance(c, NegC):
        return f"{indent}neg find {c.pattern}({','.join(c.args)});"
    if isinstance(c, CountC):
        return f"{indent}find {c.pattern}({','.join(c.args)}) # {c.out};"
    if isinstance(c, CheckC):
        return f"{indent}check({ex.render_expr(c.expr)});"
    if isinstance(c, NegInlineC):
        return f"{indent}neg " + _p_pattern(c.pattern, indent).lstrip()
    raise AssertionError(c)


def _p_pattern(p: Pattern, indent: str) -> str:
    lines = []
    head = indent
    if p.localsearch:
        lines.append(f"{indent}@localsearch")
    if p.shareable:
        head += "shareable "
    bodies = []
    for body in p.bodies:
        inner = "\n".join(_p_constraint(c, indent + "  ") for c in body.constraints)
        bodies.append("{\n" + (inner + "\n" if inner else "") + indent + "}")
    lines.append(f"{head}pattern {p.name}({','.join(p.params)}) = " + " or ".join(bodies))
    return "\n".join(lines)


def _p_params(params: tuple[ir.Param, ...]) -> str:
    return ",".join(f"{q.mode} {q.name}" for q in params)


def _p_stmt(s, indent: str) -> str:
    nxt = indent + "  "
    if isinstance(s, ir.Seq):
        inner = "\n".join(_p_stmt(x, nxt) for x in s.stmts)
        return f"{indent}seq{{\n" + (inner + "\n" if s.stmts else "") + f"{indent}}}"
    if isinstance(s, ir.Let):
        inits = ", ".join(f"{n} = {ex.render_expr(e)}" for n, e in s.inits)
        return f"{indent}let {inits} in\n" + _p_stmt(s.body, nxt)
    if isinstance(s, ir.Update):
        return f"{indent}update {s.var} = {ex.render_expr(s.expr)};"
    if isinstance(s, ir.If):
        out = f"{indent}if({ex.render_expr(s.cond)})\n" + _p_stmt(s.then, nxt)
        if s.els is not None:
            out += f"\n{indent}else\n" + _p_stmt(s.els, nxt)
        return out
    if isinstance(s, ir.Try):
        return f"{indent}try\n" + _p_stmt(s.inner, nxt)
    if isinstance(s, (ir.Choose, ir.Forall)):
        kw = "choose" if isinstance(s, ir.Choose) else "forall"
        src = s.source
        verb = "find" if isinstance(src, ir.FindSource) else "apply"
        vars_ = ",".join(s.vars)
        head = f"{indent}{kw}{(' ' + vars_) if vars_ else ''} with {verb} " \
               f"{src.ref}({','.join(src.args)}) do\n"
        return head + _p_stmt(s.do, nxt)
    if isinstance(s, ir.Iterate):
        return f"{indent}iterate\n" + _p_stmt(s.inner, nxt)
    if isinstance(s, ir.Call):
        args = ",".join(ex.render_expr(a) for a in s.args)
        return f"{indent}call {s.ref}({args});"
    if isinstance(s, ir.Println):
        return f"{indent}println({ex.render_expr(s.expr)});"
    if isinstance(s, ir.Skip):
        return f"{indent}skip;"
    if isinstance(s, ir.NewEntity):
        return f"{indent}new({_p_typed(EntityC(s.type, s.var, s.in_var, s.in_root))});"
    if isinstance(s, ir.NewRelation):
        return f"{indent}new({_p_typed(RelationC(s.type, s.var, s.src, s.trg))});"
    if isinstance(s, ir.NewInstanceOf):
        return f"{indent}new(instanceOf({s.var},{s.type}));"
    if isinstance(s, ir.DeleteInstanceOf):
        return f"{indent}delete(instanceOf({s.var},{s.type}));"
    if isinstance(s, ir.DeleteStmt):
        return f"{indent}delete({ex.render_expr(s.expr)});"
    if isinstance(s, ir.SetValueStmt):
        return f"{indent}setValue({ex.render_expr(s.target)}, {ex.render_expr(s.value)});"
    if isinstance(s, ir.SetToStmt):
        return f"{indent}setTo({ex.render_expr(s.rel)}, {ex.render_expr(s.target)});"
    if isinstance(s, ir.RenameStmt):
        return f"{indent}rename({ex.render_expr(s.target)}, {ex.render_expr(s.name)});"
    raise AssertionError(s)


def pretty(machine: ir.Machine) -> str:
    lines = [f"import {imp};" for imp in machine.imports]
    for ann in sorted(machine.annotations):
        lines.append(f"@{ann}")
    lines.append(f"machine {machine.name}{{")
    for p in machine.patterns:
        lines.append("")
        lines.append(_p_pattern(p, "  "))
    for r in machine.rules:
        lines.append("")
        lines.append(f"  rule {r.name}({_p_params(r.params)}) =")
        lines.append(_p_stmt(r.body, "   "))
    for g in machine.gtrules:
        lines.append("")
        lines.append(f"  gtrule {g.name}({_p_params(g.params)}) = {{")
        for label, part in (("precondition", g.pre), ("postcondition", g.post)):
            if part is None:
                continue
            if isinstance(part, ir.FindRef):
                lines.append(f"    {label} find {part.ref}({','.join(part.args)})")
            else:
                lines.append(f"    {label} " + _p_pattern(part, "    ").lstrip())
        if g.action is not None:
            stmts = g.action.stmts if isinstance(g.action, ir.Seq) else (g.action,)
            lines.append("    action{")
            for s in stmts:
                lines.append(_p_stmt(s, "      "))
            lines.append("    }")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- linking ------------------------------------------------------------------------


def _resolve_ref(machines: dict, machine: ir.Machine, raw: str, kind: str):
    """Resolve ``raw``, a ``kind`` ('pattern', 'rule' or 'gtrule') reference
    made in ``machine``: its global name and the parsed member, whose
    ``params`` give the arity."""
    if "." in raw:
        mname, name = raw.split(".", 1)
        target = machines.get(mname)
        if target is None:
            raise LinkError(f"machine {mname} is not loaded "
                            f"(referenced from {machine.name} as {raw})")
    else:
        mname, name, target = machine.name, raw, machine
    members = {"pattern": target.patterns, "rule": target.rules,
               "gtrule": target.gtrules}[kind]
    for member in members:
        if member.name == name:
            return f"{mname}.{name}", member
    where = f" (referenced from {machine.name})" if "." in raw else ""
    raise LinkError(f"machine {mname} has no {kind} {name}{where}")


def _link_pattern(machines: dict, machine: ir.Machine, p: Pattern,
                  global_name: str, registry: TypeRegistry,
                  out: dict[str, Pattern]) -> Pattern:
    bodies = []
    for body in p.bodies:
        constraints = []
        for c in body.constraints:
            if isinstance(c, (EntityC, RelationC)) and c.type is not None:
                c = replace(c, type=registry.resolve(c.type, machine.imports))
            elif isinstance(c, (FindC, NegC, CountC)):
                c = replace(c, pattern=_resolve_ref(machines, machine, c.pattern,
                                                    "pattern")[0])
            elif isinstance(c, NegInlineC):
                inner_name = f"{global_name}$neg${c.pattern.name}"
                out[inner_name] = _link_pattern(machines, machine, c.pattern,
                                                inner_name, registry, out)
                c = NegC(inner_name, c.pattern.params)
            constraints.append(c)
        bodies.append(Body(tuple(constraints)))
    return Pattern(global_name, p.params, tuple(bodies),
                   shareable=p.shareable, localsearch=p.localsearch)


def _fresh_namer(prefix: str):
    counter = itertools.count(1)
    return lambda v: f"${prefix}${v}.{next(counter)}"


def link(machines_list: list[ir.Machine], registry: TypeRegistry) -> ir.LinkedProgram:
    """Resolve cross-machine references, validate patterns and rules, and
    precompute GT-rule edit scripts. Rule bodies and GT actions come out as
    statement trees whose references are global names and whose types are
    fully qualified, so the VM resolves nothing at run time.

    Each part of a GT rule ``m.g`` becomes a pattern, ``m.g$pre`` and
    ``m.g$post``: an inline part is linked as written, and a ``find`` part
    is a shareable wrapper whose parameters are the distinct arguments of
    its one call."""
    machines: dict[str, ir.Machine] = {}
    for m in machines_list:
        if m.name in machines:
            raise LinkError(f"machine {m.name} loaded twice")
        machines[m.name] = m

    patterns: dict[str, Pattern] = {}
    for m in machines.values():
        for p in m.patterns:
            gname = f"{m.name}.{p.name}"
            patterns[gname] = _link_pattern(machines, m, p, gname, registry, patterns)
    for m in machines.values():
        for g in m.gtrules:
            for suffix, part in (("$pre", g.pre), ("$post", g.post)):
                name = f"{m.name}.{g.name}{suffix}"
                if isinstance(part, ir.FindRef):
                    target, _ = _resolve_ref(machines, m, part.ref, "pattern")
                    patterns[name] = Pattern(name, tuple(dict.fromkeys(part.args)),
                                             (Body((FindC(target, part.args),)),),
                                             shareable=True)
                elif part is not None:
                    patterns[name] = _link_pattern(machines, m, part, name,
                                                   registry, patterns)

    try:
        validate_patterns(patterns, registry)
    except PatternError as e:
        raise LinkError(str(e)) from None

    # GT rule compilation
    gtrules: dict[str, ir.CompiledGt] = {}
    for m in machines.values():
        for g in m.gtrules:
            gt_name = f"{m.name}.{g.name}"
            pre_params = patterns[gt_name + "$pre"].params
            script = None
            post_params: tuple[str, ...] = ()
            if g.post is not None:
                post = patterns[gt_name + "$post"]
                if len(post.bodies) != 1:
                    raise LinkError(f"{gt_name}: disjunctive postcondition")
                post_params = post.params
                try:
                    flat = flatten_body(patterns, post.bodies[0],
                                        {q: q for q in post_params},
                                        _fresh_namer(g.name))
                except PatternError as e:
                    raise LinkError(f"{gt_name}: {e}") from None
                script = ir.compile_gt_diff(gt_name, pre_params, flat)
            scope = tuple(dict.fromkeys(pre_params + post_params))
            for q in g.params:
                if q.mode == "in" and q.name not in pre_params:
                    raise LinkError(f"{gt_name}: in parameter {q.name} is not "
                                    f"bound by the precondition")
                if q.mode == "out" and q.name not in scope:
                    raise LinkError(f"{gt_name}: out parameter {q.name} is not "
                                    f"bound by the rule")
            action = (None if g.action is None
                      else _link_stmt(machines, m, g.action, registry))
            gtrules[gt_name] = ir.CompiledGt(gt_name, m.name, g.params,
                                             gt_name + "$pre", script, action, scope)

    rules = {f"{m.name}.{r.name}": ir.AsmRule(r.name, r.params,
                                              _link_stmt(machines, m, r.body, registry))
             for m in machines.values() for r in m.rules}
    return ir.LinkedProgram(machines, patterns, gtrules, rules, registry)


def _link_stmt(machines: dict, machine: ir.Machine, stmt,
               registry: TypeRegistry):
    """``stmt`` of ``machine`` with every reference resolved: patterns, GT
    rules and ASM rules to global names, types to fully qualified names."""

    def walk(s, lets: frozenset[str]):
        if isinstance(s, ir.Seq):
            return ir.Seq(tuple(walk(x, lets) for x in s.stmts))
        if isinstance(s, ir.Let):
            return replace(s, body=walk(s.body, lets | {n for n, _ in s.inits}))
        if isinstance(s, ir.Update):
            if s.var not in lets:
                raise LinkError(f"{machine.name}: update targets {s.var}, "
                                f"which is not a let variable")
            return s
        if isinstance(s, ir.If):
            return replace(s, then=walk(s.then, lets),
                           els=None if s.els is None else walk(s.els, lets))
        if isinstance(s, ir.Try):
            return ir.Try(walk(s.inner, lets))
        if isinstance(s, ir.Iterate):
            return ir.Iterate(walk(s.inner, lets))
        if isinstance(s, (ir.Choose, ir.Forall)):
            src = s.source
            kind = "pattern" if isinstance(src, ir.FindSource) else "gtrule"
            gname, member = _resolve_ref(machines, machine, src.ref, kind)
            arity = len(member.params)
            if len(src.args) != arity:
                raise LinkError(f"{machine.name}: {src.ref} takes {arity} "
                                f"arguments, got {len(src.args)}")
            for v in s.vars:
                if v not in src.args:
                    raise LinkError(f"{machine.name}: {v} does not occur in the "
                                    f"arguments of {src.ref}")
            return replace(s, source=replace(src, ref=gname), do=walk(s.do, lets))
        if isinstance(s, ir.Call):
            gname, rule = _resolve_ref(machines, machine, s.ref, "rule")
            if len(s.args) != len(rule.params):
                raise LinkError(f"{machine.name}: rule {s.ref} takes "
                                f"{len(rule.params)} arguments, got {len(s.args)}")
            for q, a in zip(rule.params, s.args):
                if q.mode == "out" and not isinstance(a, ex.Var):
                    raise LinkError(f"{machine.name}: out argument {q.name} of "
                                    f"{s.ref} must be a variable")
            return replace(s, ref=gname)
        if isinstance(s, (ir.NewEntity, ir.NewRelation, ir.NewInstanceOf,
                          ir.DeleteInstanceOf)) and s.type is not None:
            return replace(s, type=registry.resolve(s.type, machine.imports))
        return s

    return walk(stmt, frozenset())
