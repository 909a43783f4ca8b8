"""Parser, pretty printer, and linker for the VTCL-subset language.

The grammar covers exactly the constructs the transformation corpus uses:
machine/rule/pattern/gtrule declarations, annotations, shareable and or-body
patterns, find / neg find / match counting (``# N``) / check constraints,
inline negative patterns, precondition/postcondition (inline or ``find``
reference) with optional action blocks, and the statement forms of the
control language. Anything outside the subset is a parse error.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_PUNCT = ("==", "!=", "{", "}", "(", ")", ",", ";", "=", "+", "@", "#", ".")


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'int', 'string', 'punct', 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            advance((j if j != -1 else n) - i)
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i)
            if j == -1:
                raise ParseError("unterminated block comment", line, col)
            advance(j + 2 - i)
            continue
        if c == '"':
            start_line, start_col = line, col
            j = i + 1
            buf = []
            while j < n and source[j] != '"':
                if source[j] == "\\" and j + 1 < n:
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(
                        source[j + 1], source[j + 1]))
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            tokens.append(Token("string", "".join(buf), start_line, start_col))
            advance(j + 1 - i)
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            advance(j - i)
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], line, col))
            advance(j - i)
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                advance(len(p))
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- parser -------------------------------------------------------------------

# Statements, pattern bodies, parenthesised and call expressions and the
# operands of a `+` chain nest at most this deep, which bounds the recursion
# of the parser, the linker, the printer and the evaluator alike.
MAX_NESTING = 64


class _Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.text == text and tok.kind in ("ident", "punct")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.error(f"expected {text!r}, found {self.peek().text!r}")
        return self.next()

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"expected identifier, found {tok.text!r}")
        return self.next().text

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
                self.error(f"expected pattern, rule, or gtrule, found {self.peek().text!r}")
        self.expect("}")
        if self.peek().kind != "eof":
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
        if self.at("relation"):
            self.next()
            args = self.arg_list()
            if len(args) != 3:
                self.error("relation(...) takes exactly 3 arguments")
            self.semi()
            return RelationC(None, *args)
        tok = self.peek()
        type_name = self.dotted()
        args = self.arg_list()
        if len(args) == 1:
            in_var = None
            in_root = False
            if self.accept("in"):
                path = self.dotted()
                if "." in path:
                    in_root = True
                else:
                    in_var = path
            self.semi()
            return EntityC(type_name, args[0], in_var, in_root)
        if len(args) == 3:
            self.semi()
            return RelationC(type_name, *args)
        self.error("type constraints take 1 (entity) or 3 (relation) arguments", tok)

    # -- rules ---------------------------------------------------------------------

    def param_list(self) -> tuple[ir.Param, ...]:
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                mode = "in"
                if self.at("in") or self.at("out"):
                    mode = self.next().text
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
            tok = self.peek()
            inner = self.statement()
            if not isinstance(inner, ir.Choose):
                self.error("iterate expects a choose statement", tok)
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
        self.error(f"expected a statement, found {self.peek().text!r}")

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
        if self.at("relation"):
            self.next()
            args = self.arg_list()
            if len(args) != 3:
                self.error("relation(...) takes exactly 3 arguments")
            return ir.NewRelation(None, *args)
        if self.at("instanceOf"):
            return ir.NewInstanceOf(*self.instance_of())
        type_name = self.dotted()
        args = self.arg_list()
        if len(args) == 1:
            container = None
            if self.accept("in"):
                path = self.dotted()
                kind = "root" if "." in path else "var"
                container = ir.ContainerRef(kind, path)
            return ir.NewEntity(type_name, args[0], container)
        if len(args) == 3:
            return ir.NewRelation(type_name, *args)
        self.error("new(...) takes 1 (entity) or 3 (relation) arguments")

    # -- expressions ----------------------------------------------------------------------

    def expr(self) -> ex.Expr:
        left = self.additive()
        if self.at("==") or self.at("!="):
            op = self.next().text
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
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return ex.Lit(int(tok.text))
        if tok.kind == "string":
            self.next()
            return ex.Lit(tok.text)
        if self.accept("undef"):
            return ex.Lit(None)
        if self.at("value") and self.peek(1).text == "(":
            self.next()
            return ex.ValueOf(self.parenthesised())
        if self.at("name") and self.peek(1).text == "(":
            self.next()
            return ex.NameOf(self.parenthesised())
        if self.at("("):
            return self.parenthesised()
        if tok.kind == "ident":
            self.next()
            return ex.Var(tok.text)
        self.error(f"expected an expression, found {tok.text!r}")


def parse(source: str) -> ir.Machine:
    """Parse one machine definition."""
    return _Parser(source).machine()


# --- pretty printer ---------------------------------------------------------------


def _p_constraint(c, indent: str) -> str:
    if isinstance(c, EntityC):
        suffix = ""
        if c.in_root:
            suffix = " in nemf.resources"
        elif c.in_var is not None:
            suffix = f" in {c.in_var}"
        return f"{indent}{c.type}({c.var}){suffix};"
    if isinstance(c, RelationC):
        head = c.type if c.type is not None else "relation"
        return f"{indent}{head}({c.rel},{c.src},{c.trg});"
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
        suffix = ""
        if s.container is not None:
            suffix = f" in {s.container.name}"
        return f"{indent}new({s.type}({s.var}){suffix});"
    if isinstance(s, ir.NewRelation):
        head = s.type if s.type is not None else "relation"
        return f"{indent}new({head}({s.var},{s.src},{s.trg}));"
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


def _resolve_pattern_ref(machines: dict, machine: ir.Machine, raw: str) -> str:
    if "." in raw:
        mname, pname = raw.split(".", 1)
        target = machines.get(mname)
        if target is None:
            raise LinkError(f"machine {mname} is not loaded "
                            f"(referenced from {machine.name} as {raw})")
        if not any(p.name == pname for p in target.patterns):
            raise LinkError(f"machine {mname} has no pattern {pname} "
                            f"(referenced from {machine.name})")
        return f"{mname}.{pname}"
    if not any(p.name == raw for p in machine.patterns):
        raise LinkError(f"machine {machine.name} has no pattern {raw}")
    return f"{machine.name}.{raw}"


def _link_pattern(machines: dict, machine: ir.Machine, p: Pattern,
                  global_name: str, registry: TypeRegistry,
                  out: dict[str, Pattern]) -> Pattern:
    bodies = []
    for body in p.bodies:
        constraints = []
        for c in body.constraints:
            if isinstance(c, EntityC):
                constraints.append(EntityC(
                    registry.resolve(c.type, machine.imports), c.var,
                    c.in_var, c.in_root))
            elif isinstance(c, RelationC):
                t = registry.resolve(c.type, machine.imports) if c.type else None
                constraints.append(RelationC(t, c.rel, c.src, c.trg))
            elif isinstance(c, FindC):
                constraints.append(FindC(
                    _resolve_pattern_ref(machines, machine, c.pattern), c.args))
            elif isinstance(c, NegC):
                constraints.append(NegC(
                    _resolve_pattern_ref(machines, machine, c.pattern), c.args))
            elif isinstance(c, CountC):
                constraints.append(CountC(
                    _resolve_pattern_ref(machines, machine, c.pattern), c.args, c.out))
            elif isinstance(c, NegInlineC):
                inner_name = f"{global_name}$neg${c.pattern.name}"
                inner = _link_pattern(machines, machine, c.pattern, inner_name,
                                      registry, out)
                out[inner_name] = inner
                constraints.append(NegC(inner_name, c.pattern.params))
            else:
                constraints.append(c)
        bodies.append(Body(tuple(constraints)))
    linked = Pattern(global_name, p.params, tuple(bodies),
                     shareable=p.shareable, localsearch=p.localsearch)
    return linked


def _fresh_namer(prefix: str):
    counter = [0]

    def fresh(v: str) -> str:
        counter[0] += 1
        return f"${prefix}${v}.{counter[0]}"

    return fresh


def link(machines_list: list[ir.Machine], registry: TypeRegistry) -> ir.LinkedProgram:
    """Resolve cross-machine references, validate patterns and rules, and
    precompute GT-rule edit scripts."""
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

    # precondition/postcondition patterns
    gt_parts: dict[str, tuple] = {}  # gt global name -> (pre_name, post data)
    for m in machines.values():
        for g in m.gtrules:
            gt_name = f"{m.name}.{g.name}"
            pre_name = f"{gt_name}$pre"
            if isinstance(g.pre, ir.FindRef):
                target = _resolve_pattern_ref(machines, m, g.pre.ref)
                params = tuple(dict.fromkeys(g.pre.args))
                wrapper = Pattern(pre_name, params,
                                  (Body((FindC(target, g.pre.args),)),),
                                  shareable=True)
                patterns[pre_name] = wrapper
            else:
                patterns[pre_name] = _link_pattern(machines, m, g.pre, pre_name,
                                                   registry, patterns)
            post = None
            if g.post is not None:
                if isinstance(g.post, ir.FindRef):
                    post = ("find", _resolve_pattern_ref(machines, m, g.post.ref),
                            g.post.args)
                else:
                    post_name = f"{gt_name}$post"
                    linked = _link_pattern(machines, m, g.post, post_name,
                                           registry, patterns)
                    patterns[post_name] = linked
                    post = ("inline", post_name, linked.params)
            gt_parts[gt_name] = (pre_name, post)

    try:
        validate_patterns(patterns, registry)
    except PatternError as e:
        raise LinkError(str(e)) from None

    # GT rule compilation
    gtrules: dict[str, ir.CompiledGt] = {}
    for m in machines.values():
        for g in m.gtrules:
            gt_name = f"{m.name}.{g.name}"
            pre_name, post = gt_parts[gt_name]
            pre_pattern = patterns[pre_name]
            pre_params = pre_pattern.params
            script = None
            signature: tuple[str, ...] = ()
            if post is not None:
                kind, target, args = post
                callee = patterns[target]
                if len(callee.bodies) != 1:
                    raise LinkError(f"{gt_name}: disjunctive postcondition")
                if kind == "find" and len(args) != len(callee.params):
                    raise LinkError(f"{gt_name}: postcondition find arity mismatch")
                subst = (dict(zip(callee.params, args)) if kind == "find"
                         else {q: q for q in callee.params})
                signature = tuple(dict.fromkeys(args if kind == "find" else callee.params))
                flat = flatten_body(patterns, callee.bodies[0], subst,
                                    _fresh_namer(g.name))
                script = ir.compile_gt_diff(gt_name, patterns, pre_pattern,
                                            pre_params, flat, signature)
            scope = tuple(dict.fromkeys(pre_params + signature))
            for q in g.params:
                if q.mode == "in" and q.name not in pre_params:
                    raise LinkError(f"{gt_name}: in parameter {q.name} is not "
                                    f"bound by the precondition")
                if q.mode == "out" and q.name not in scope:
                    raise LinkError(f"{gt_name}: out parameter {q.name} is not "
                                    f"bound by the rule")
            gtrules[gt_name] = ir.CompiledGt(gt_name, m.name, g.params, pre_name,
                                             pre_params, script, g.action, scope)

    rules: dict[str, tuple[str, ir.AsmRule]] = {}
    for m in machines.values():
        for r in m.rules:
            rules[f"{m.name}.{r.name}"] = (m.name, r)

    program = ir.LinkedProgram(machines, patterns, gtrules, rules, {}, {}, registry)
    for m in machines.values():
        for r in m.rules:
            _link_statements(program, machines, m, r.body, registry)
        for g in m.gtrules:
            if g.action is not None:
                _link_statements(program, machines, m, g.action, registry)
    return program


def _resolve_rule_ref(machines: dict, machine: ir.Machine, raw: str, kind: str) -> str:
    def members(m: ir.Machine):
        return m.rules if kind == "rule" else m.gtrules

    if "." in raw:
        mname, rname = raw.split(".", 1)
        target = machines.get(mname)
        if target is None:
            raise LinkError(f"machine {mname} is not loaded "
                            f"(referenced from {machine.name} as {raw})")
        if not any(r.name == rname for r in members(target)):
            raise LinkError(f"machine {mname} has no {kind} {rname}")
        return f"{mname}.{rname}"
    if not any(r.name == raw for r in members(machine)):
        raise LinkError(f"machine {machine.name} has no {kind} {raw}")
    return f"{machine.name}.{raw}"


def _link_statements(program: ir.LinkedProgram, machines: dict,
                     machine: ir.Machine, stmt, registry: TypeRegistry) -> None:
    res = program.resolutions
    types = program.stmt_types

    def type_ref(raw: str | None):
        if raw is None:
            return
        types[(machine.name, raw)] = registry.resolve(raw, machine.imports)

    def walk(s, lets: frozenset[str]) -> None:
        if isinstance(s, ir.Seq):
            for x in s.stmts:
                walk(x, lets)
        elif isinstance(s, ir.Let):
            walk(s.body, lets | {n for n, _ in s.inits})
        elif isinstance(s, ir.Update):
            if s.var not in lets:
                raise LinkError(f"{machine.name}: update targets {s.var}, "
                                f"which is not a let variable")
            walk_expr_only(s)
        elif isinstance(s, ir.If):
            walk(s.then, lets)
            if s.els is not None:
                walk(s.els, lets)
        elif isinstance(s, ir.Try):
            walk(s.inner, lets)
        elif isinstance(s, (ir.Choose, ir.Forall)):
            src = s.source
            if isinstance(src, ir.FindSource):
                gname = _resolve_pattern_ref(machines, machine, src.ref)
                res[(machine.name, "pattern", src.ref)] = gname
                arity = len(program.patterns[gname].params)
            else:
                gname = _resolve_rule_ref(machines, machine, src.ref, "gtrule")
                res[(machine.name, "gtrule", src.ref)] = gname
                arity = len(program.gtrules[gname].params)
            if len(src.args) != arity:
                raise LinkError(f"{machine.name}: {src.ref} takes {arity} "
                                f"arguments, got {len(src.args)}")
            for v in s.vars:
                if v not in src.args:
                    raise LinkError(f"{machine.name}: {v} does not occur in the "
                                    f"arguments of {src.ref}")
            walk(s.do, lets)
        elif isinstance(s, ir.Iterate):
            walk(s.inner, lets)
        elif isinstance(s, ir.Call):
            gname = _resolve_rule_ref(machines, machine, s.ref, "rule")
            res[(machine.name, "rule", s.ref)] = gname
            _, rule = program.rules[gname]
            if len(s.args) != len(rule.params):
                raise LinkError(f"{machine.name}: rule {s.ref} takes "
                                f"{len(rule.params)} arguments, got {len(s.args)}")
            for q, a in zip(rule.params, s.args):
                if q.mode == "out" and not isinstance(a, ex.Var):
                    raise LinkError(f"{machine.name}: out argument {q.name} of "
                                    f"{s.ref} must be a variable")
        elif isinstance(s, ir.NewEntity):
            type_ref(s.type)
        elif isinstance(s, ir.NewRelation):
            type_ref(s.type)
        elif isinstance(s, (ir.NewInstanceOf, ir.DeleteInstanceOf)):
            type_ref(s.type)
        else:
            walk_expr_only(s)

    def walk_expr_only(s) -> None:
        pass  # expressions are resolved at run time against the frame

    walk(stmt, frozenset())
