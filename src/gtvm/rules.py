"""Machine IR and the execution engine.

A machine bundles patterns, graph-transformation rules, and imperative
control rules (seq / let / update / if / try / choose / forall / iterate /
call / println plus element manipulation statements). GT rules are applied
by an edit script computed once at link time from the flattened
postcondition, and made of its constraints: what it binds beyond the
precondition is created, each end of a kept relation that differs is moved,
and a negated kept element is deleted.

A VM runs a rule body or GT action as nested closures ``run(vm, frame)``,
one per statement, with its expressions compiled by ``expr.compile_expr``.
Each body is compiled the first time the VM enters it and cached on that VM
only, never on the shared ``LinkedProgram``, so no compiled code outlives
the VM it was made for.

A ``choose`` or ``forall`` compiles its pattern read with its statement:
the bound parameter positions, the frame variables that give their key,
the repeated-argument test and the tuple position of each fresh variable
are fixed then. At run time it builds the key, checks it
(``matcher_ls.key_check``), reads through ``VM._read``, the one read of
either backend, and binds the body's frame from the match tuples; it builds
no binding dict and no match dict. The API
reads (``query_all``, ``query_first``, ``apply_gtrule``) turn a binding
dict into a key through ``binding_key`` and go through the same seam.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Collection, Optional

from . import expr as ex
from .errors import DivergenceError, ExecError, LinkError
from .matcher_ls import LocalSearchMatcher, binding_key, in_order, key_check, least
from .modelspace import ROOT_ID, ModelSpace
from .patterns import (MAX_CALL_DEPTH, CheckC, CountC, EntityC, NegC, Pattern,
                       RelationC, consistency_test, consistent_tuples, match_dicts)

STEP_BUDGET_ENV = "GTVM_STEP_BUDGET"
DEFAULT_STEP_BUDGET = 1_000_000
# statements nest at most this deep, counted through rule calls and GT
# actions. A body's static nesting (its deepest statement) is checked once, on
# entry, so the error comes before a branch that would nest too deep runs. A
# level takes one interpreter frame, and at most three (a choose or forall
# that applies a GT rule: its closure, its step into the body and the GT
# application), so a run stops with an ExecError well inside Python's default
# recursion limit of 1000 and leaves room for the matchers and for Rete
# propagation.
MAX_EXEC_DEPTH = 240


def step_budget_from_env() -> int:
    """The ``iterate`` step budget: ``GTVM_STEP_BUDGET`` if set, else the default."""
    text = os.environ.get(STEP_BUDGET_ENV)
    if text is None:
        return DEFAULT_STEP_BUDGET
    try:
        if text.isascii() and text.isdigit():  # int() takes any Unicode digit
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise ExecError(f"{STEP_BUDGET_ENV} must be a non-negative integer, got {text!r}")


# --- statement IR -----------------------------------------------------------


@dataclass(frozen=True)
class Seq:
    stmts: tuple


@dataclass(frozen=True)
class Let:
    inits: tuple  # ((name, Expr), ...)
    body: object


@dataclass(frozen=True)
class Update:
    var: str
    expr: ex.Expr


@dataclass(frozen=True)
class If:
    cond: ex.Expr
    then: object
    els: Optional[object] = None


@dataclass(frozen=True)
class Try:
    inner: object


@dataclass(frozen=True)
class FindSource:
    ref: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class ApplySource:
    ref: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Choose:
    vars: tuple[str, ...]
    source: FindSource | ApplySource
    do: object


@dataclass(frozen=True)
class Forall:
    vars: tuple[str, ...]
    source: FindSource | ApplySource
    do: object


@dataclass(frozen=True)
class Iterate:
    inner: Choose


@dataclass(frozen=True)
class Call:
    ref: str
    args: tuple[ex.Expr, ...]


@dataclass(frozen=True)
class Println:
    expr: ex.Expr


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class NewEntity:
    """``new(T(X))``, ``new(T(X) in P)`` or ``new(T(X) in <namespace>)``:
    contained in the element of ``in_var``, else in the model root."""
    type: str
    var: str
    in_var: Optional[str] = None
    in_root: bool = False


@dataclass(frozen=True)
class NewRelation:
    type: Optional[str]  # None for untyped relation(...)
    var: str
    src: str
    trg: str


@dataclass(frozen=True)
class NewInstanceOf:
    var: str
    type: str


@dataclass(frozen=True)
class DeleteInstanceOf:
    var: str
    type: str


@dataclass(frozen=True)
class DeleteStmt:
    expr: ex.Expr


@dataclass(frozen=True)
class SetValueStmt:
    target: ex.Expr
    value: ex.Expr


@dataclass(frozen=True)
class SetToStmt:
    rel: ex.Expr
    target: ex.Expr


@dataclass(frozen=True)
class RenameStmt:
    target: ex.Expr
    name: ex.Expr


Stmt = (Seq | Let | Update | If | Try | Choose | Forall | Iterate | Call |
        Println | Skip | NewEntity | NewRelation | NewInstanceOf |
        DeleteInstanceOf | DeleteStmt | SetValueStmt | SetToStmt | RenameStmt)


# --- machine IR --------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    mode: str  # 'in' or 'out'
    name: str


@dataclass
class AsmRule:
    name: str
    params: tuple[Param, ...]
    body: Stmt


@dataclass
class GtRuleDef:
    name: str
    params: tuple[Param, ...]
    pre: "FindRef | Pattern"
    post: "FindRef | Pattern | None"
    action: Optional[Stmt]


@dataclass(frozen=True)
class FindRef:
    ref: str
    args: tuple[str, ...]


@dataclass
class Machine:
    name: str
    imports: tuple[str, ...]
    annotations: frozenset[str]
    patterns: tuple[Pattern, ...]
    gtrules: tuple[GtRuleDef, ...]
    rules: tuple[AsmRule, ...]


# --- linked program -----------------------------------------------------------


@dataclass
class LinkedProgram:
    """The output of ``vtcl.link``. Every reference in ``patterns``, ``gtrules``
    and ``rules`` is a global name (``machine.member``) and every type a fully
    qualified name; ``machines`` keeps the machines as parsed."""
    machines: dict[str, Machine]
    patterns: dict[str, Pattern]          # global name -> resolved pattern
    gtrules: dict[str, "CompiledGt"]
    rules: dict[str, AsmRule]             # global name -> linked rule
    registry: object


# --- GT rule compilation --------------------------------------------------------


@dataclass
class DiffScript:
    """A GT rule's edit script, made of its flattened postcondition's own
    constraints, applied in field order."""
    ensures: tuple[EntityC, ...]          # a bound entity gets the type it lacks
    entity_creates: tuple[EntityC, ...]   # parents first; in_var None: the root
    relation_creates: tuple[RelationC, ...]
    retargets: tuple[RelationC, ...]      # a bound relation: each end that differs moves
    deletes: tuple[str, ...]              # bound variables the postcondition only negates


@dataclass
class CompiledGt:
    name: str
    machine: str
    params: tuple[Param, ...]
    pre_pattern: str          # global name of the matchable precondition
    script: Optional[DiffScript]
    action: Optional[Stmt]    # linked, like the bodies in LinkedProgram.rules
    scope_names: tuple[str, ...]


def _unique(seq):
    return tuple(dict.fromkeys(seq))


def compile_gt_diff(rule_name: str, pre_params: tuple[str, ...],
                    post_flat: list) -> DiffScript:
    """Turn flattened postcondition constraints into an executable edit script."""
    bound = set(pre_params)

    ent_types: dict[str, str] = {}
    ent_parent: dict[str, Optional[str]] = {}
    ensures: list[EntityC] = []
    rel_creates: list[RelationC] = []
    retargets: list[RelationC] = []
    positive_post: set[str] = set()

    for c in post_flat:
        if isinstance(c, (CheckC, CountC)):
            raise LinkError(f"{rule_name}: {type(c).__name__} not allowed in a postcondition")
        if isinstance(c, EntityC):
            positive_post.add(c.var)
            if c.in_var is not None:
                positive_post.add(c.in_var)
            if c.var in bound:
                ensures.append(c)
                continue
            prev = ent_types.get(c.var)
            if prev is not None and prev != c.type:
                raise LinkError(f"{rule_name}: {c.var} created with conflicting "
                                f"types {prev} and {c.type}")
            ent_types[c.var] = c.type
            if c.in_var is not None:
                ent_parent[c.var] = c.in_var
            elif c.in_root:
                ent_parent[c.var] = None
            else:
                ent_parent.setdefault(c.var, "?")  # heuristic below
        elif isinstance(c, RelationC):
            positive_post.update((c.rel, c.src, c.trg))
            (retargets if c.rel in bound else rel_creates).append(c)

    # containment heuristic: first created/kept relation targeting the entity
    for var, parent in list(ent_parent.items()):
        if parent != "?":
            continue
        chosen = None
        for c in post_flat:
            if isinstance(c, RelationC) and c.trg == var and c.src != var:
                if c.src in bound or c.src in ent_types:
                    chosen = c.src
                    break
        ent_parent[var] = chosen

    # creation order: containment parents first
    pending = dict(ent_types)
    ordered: dict[str, EntityC] = {}
    while pending:
        progressed = False
        for var in list(pending):
            parent = ent_parent[var]
            if parent not in pending:  # the root, bound, or created already
                ordered[var] = EntityC(pending.pop(var), var, parent)
                progressed = True
        if not progressed:
            raise LinkError(f"{rule_name}: cyclic containment among created entities")

    created = set(ent_types) | {r.rel for r in rel_creates}
    for r in rel_creates + retargets:
        for endpoint in (r.src, r.trg):
            if endpoint not in bound and endpoint not in created:
                raise LinkError(f"{rule_name}: relation {r.rel} uses unbound "
                                f"endpoint {endpoint}")

    deletes = _unique(a for c in post_flat if isinstance(c, NegC) for a in c.args
                      if a in bound and a not in positive_post)
    return DiffScript(_unique(ensures), tuple(ordered.values()), tuple(rel_creates),
                      _unique(retargets), deletes)


def apply_diff(script: DiffScript, space: ModelSpace, binding: dict) -> None:
    for c in script.ensures:
        if not space.conforms(binding[c.var], c.type):
            space.add_type(binding[c.var], c.type)
    for c in script.entity_creates:
        parent = ROOT_ID if c.in_var is None else binding[c.in_var]
        binding[c.var] = space.new_entity(c.type, parent)
    for c in script.relation_creates:
        binding[c.rel] = space.new_relation(c.type, binding[c.src], binding[c.trg])
    for c in script.retargets:  # an end that keeps its value is left untouched
        rid = binding[c.rel]
        if space.source(rid) != binding[c.src]:
            space.set_source(rid, binding[c.src])
        if space.target(rid) != binding[c.trg]:
            space.set_target(rid, binding[c.trg])
    for var in script.deletes:
        if space.is_live(binding[var]):
            space.delete(binding[var])


# --- execution ----------------------------------------------------------------


class ChooseFailed(Exception):
    """Control flow: a plain choose found no match; absorbed by try/iterate."""


class Frame:
    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Frame"] = None, vars: dict | None = None):
        self.vars: dict[str, object] = {} if vars is None else vars
        self.parent = parent

    def lookup(self, name: str):
        f = self
        while f is not None:
            if name in f.vars:
                return f.vars[name]
            f = f.parent
        raise ExecError(f"unbound variable {name}")

    def assign(self, name: str, value) -> None:
        f = self
        while f is not None:
            if name in f.vars:
                f.vars[name] = value
                return
            f = f.parent
        raise ExecError(f"assignment to undeclared variable {name}")


@dataclass
class ExecutionReport:
    machine: str
    log: list[str] = field(default_factory=list)
    results: list[tuple[str, object]] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        return [f"{name} = {'undef' if value is None else value}"
                for name, value in self.results]


def collect_results(space: ModelSpace) -> list[tuple[str, object]]:
    out = []
    reg = space.registry
    for type_name in ("nemf.packages.result.IntResult",
                      "nemf.packages.result.StringResult"):
        if not reg.is_registered(type_name):
            continue
        for eid in space.elements_of_type(type_name):
            for rid in sorted(space.relations_from(eid)):
                if any(t.endswith(".result") for t in space.types(rid)):
                    target = space.target(rid)
                    out.append((eid, space.name(target), space.value(target)))
    out.sort(key=lambda t: t[0])
    return [(name, value) for _, name, value in out]


class VM:
    """Owns a space and both matchers for the duration of a run."""

    def __init__(self, program: LinkedProgram, space: ModelSpace,
                 matcher: str = "inc", step_budget: int | None = None,
                 echo: bool = False):
        if matcher not in ("inc", "ls"):
            raise ExecError(f"unknown matcher {matcher!r}")
        self.program = program
        self.space = space
        self.backend = matcher
        self.echo = echo
        if step_budget is None:
            step_budget = step_budget_from_env()
        self.step_budget = step_budget
        self.ls = LocalSearchMatcher(space, program.patterns)
        self._rete = None
        # inside run, an inc pattern read at one model version only is served
        # by the local search: the version of each pattern's first read
        self._running = False
        self._first_read: dict[str, int] = {}
        self.report: ExecutionReport | None = None  # of the open run
        self.call_depth = 0  # rule calls open, see MAX_CALL_DEPTH
        self.exec_depth = 0  # depths of the open call sites, see MAX_EXEC_DEPTH
        # the rule bodies and GT actions run so far, compiled: see _code
        self.code: dict[str, tuple[object, int]] = {}

    # -- pattern queries -----------------------------------------------------

    def _rete_engine(self):
        if self._rete is None:
            from .rete import ReteEngine
            self._rete = ReteEngine(self.space, self.program.patterns)
        return self._rete

    def _read(self, p: Pattern, positions: tuple[int, ...],
              key: tuple) -> Collection[tuple]:
        """The match tuples of ``p``, in no order, whose values at
        ``positions`` (ascending) are ``key``, a key that passed
        ``key_check``. The one read of either backend, which a caller must
        not change: the production memory (``inc``) or the local search's
        answers (``ls``).

        Inside ``run``, ``inc`` builds a pattern's network only when the
        pattern is read at a second model version (or the engine already
        holds it): a pattern read once is solved by the local search."""
        rete, version = self._rete, self.space.version
        if self.backend == "inc" and not p.ls_reason and (
                not self._running or rete is not None and p.name in rete.productions
                or self._first_read.setdefault(p.name, version) != version):
            return self._rete_engine().register(p.name).match_tuples(positions, key)
        return self.ls.read(p, positions, key)

    def query_all(self, pattern_name: str, binding: dict | None = None,
                  args: tuple[str, ...] = ()) -> list[dict]:
        """Every match in order, keeping those that give each repeated
        variable of ``args`` (as in ``query_first``) a single value."""
        p = self.ls.pattern(pattern_name)
        tuples = self._read(p, *binding_key(self.space, p, binding))
        return match_dicts(p.params)(in_order(consistent_tuples(tuples, consistency_test(args))))

    def query_first(self, pattern_name: str, binding: dict | None = None,
                    args: tuple[str, ...] = ()) -> dict | None:
        """The match ``query_all`` lists first among those that give each
        repeated variable of ``args`` (call arguments aligned with the
        parameters) a single value; None when there is none. One scan and
        no sort, and one new dict, built by ``match_dicts`` as ``query_all``
        builds its own. PatternError for an unknown pattern."""
        p = self.ls.pattern(pattern_name)
        tuples = self._read(p, *binding_key(self.space, p, binding))
        first = least(consistent_tuples(tuples, consistency_test(args)))
        return None if first is None else match_dicts(p.params)((first,))[0]

    # -- top level -----------------------------------------------------------

    def run(self, machine_name: str) -> ExecutionReport:
        if machine_name not in self.program.machines:
            raise ExecError(f"machine {machine_name} is not loaded")
        main = f"{machine_name}.main"
        if main not in self.program.rules:
            raise ExecError(f"machine {machine_name} has no main rule")
        report = self.report = ExecutionReport(machine_name)
        self._running = True
        try:  # a call of main from depth 0, outside every body
            _compile(self.program, Call(main, ()), 0, [0])(self, Frame())
        except ChooseFailed:
            raise ExecError("choose failed outside try") from None
        finally:
            self._running = False
        report.results = collect_results(self.space)
        return report

    def apply_gtrule(self, name: str, in_binding: dict | None = None,
                     report: ExecutionReport | None = None) -> dict | None:
        """Match the rule's precondition (extending ``in_binding``), apply the
        first match, run the action; returns the full binding or None."""
        gt = self.program.gtrules.get(name)
        if gt is None:
            raise ExecError(f"unknown GT rule {name}")
        match = self.query_first(gt.pre_pattern, in_binding)
        if match is None:
            return None
        self.report = report or ExecutionReport(gt.machine)
        return _apply_gt_match(self, gt, match, 0)


def execute_machine(program: LinkedProgram, machine_name: str, space: ModelSpace,
                    matcher: str = "inc", **vm_options) -> ExecutionReport:
    """Run ``machine_name``'s main rule on ``space``; convenience over VM."""
    return VM(program, space, matcher=matcher, **vm_options).run(machine_name)


def _code(vm: VM, key: str, body, depth: int):
    """The closure of ``body``, a rule body or GT action that a statement
    ``depth`` levels deep in the running body enters. It is compiled on its
    first run and cached on ``vm`` under ``key`` with its static nesting,
    which is checked against the limit here and not at each statement."""
    code = vm.code.get(key)
    if code is None:
        nesting = [0]
        code = vm.code[key] = (_compile(vm.program, body, 1, nesting), nesting[0])
    if vm.exec_depth + depth + code[1] > MAX_EXEC_DEPTH:
        raise ExecError(f"statements nested deeper than {MAX_EXEC_DEPTH} "
                        f"(rule bodies included)")
    return code[0]


def _apply_gt_match(vm: VM, gt: CompiledGt, binding: dict, depth: int) -> dict:
    """Apply ``gt`` to ``binding``, a new match dict of its precondition,
    which the created elements then extend, and run its action."""
    if gt.script is not None:
        apply_diff(gt.script, vm.space, binding)
    if gt.action is not None:
        run = _code(vm, gt.name + "$action", gt.action, depth)
        vm.exec_depth += depth
        try:
            run(vm, Frame(None, {name: binding.get(name) for name in gt.scope_names}))
        finally:
            vm.exec_depth -= depth
    return binding


def _compile(program: LinkedProgram, s, depth: int, nesting: list[int]):
    """``s``, a statement ``depth`` levels deep in its body, as a closure
    ``run(vm, frame)``; ``nesting[0]`` keeps the deepest level met. The
    statement kinds are told apart here, once. A closure holds parts of its
    statement and never a VM or a space, so a dropped VM is freed at once."""
    nesting[0] = max(nesting[0], depth)

    def inner(x):
        return _compile(program, x, depth + 1, nesting)
    compile_expr, element, element_value = ex.compile_expr, ex.compile_element, ex.element_value
    if isinstance(s, Seq):
        stmts = tuple(map(inner, s.stmts))

        def run(vm, frame):
            for stmt in stmts:
                stmt(vm, frame)
    elif isinstance(s, Let):
        inits = tuple((name, compile_expr(e)) for name, e in s.inits)
        body = inner(s.body)

        def run(vm, frame):
            child = Frame(frame)
            for name, value in inits:
                child.vars[name] = value(child.lookup, vm.space)
            body(vm, child)
    elif isinstance(s, Update):
        var, value = s.var, compile_expr(s.expr)
        run = lambda vm, frame: frame.assign(var, value(frame.lookup, vm.space))
    elif isinstance(s, If):
        cond, then = compile_expr(s.cond), inner(s.then)
        els = None if s.els is None else inner(s.els)

        def run(vm, frame):
            holds = cond(frame.lookup, vm.space)
            if holds is True:
                then(vm, frame)
            elif holds is not False:
                raise ExecError("if condition must be a comparison")
            elif els is not None:
                els(vm, frame)
    elif isinstance(s, (Try, Iterate)):
        body, forever = inner(s.inner), isinstance(s, Iterate)

        def run(vm, frame):
            # try: run the body once; iterate: until a choose fails
            for _ in range(vm.step_budget + 1 if forever else 1):
                try:
                    body(vm, frame)
                except ChooseFailed:
                    return
            if forever:
                raise DivergenceError(f"iterate exceeded the step budget ({vm.step_budget})")
    elif isinstance(s, (Choose, Forall)):
        # the read, resolved once: the pattern, its bound positions
        # (ascending), the frame variables that give their key, the
        # repeated-argument test, and how a match tuple enters the frame of
        # the body
        src, do = s.source, inner(s.do)
        if isinstance(src, FindSource):
            p, args = program.patterns[src.ref], src.args
            by_position = {i: a for i, a in enumerate(args) if a not in s.vars}
            consistent = consistency_test(args)
            # a variable the arguments repeat takes its first position
            fresh = tuple({a: i for i, a in reversed(tuple(enumerate(args)))
                           if a in s.vars}.items())

            def enter(vm, frame, t):
                child = Frame(frame)
                for a, i in fresh:
                    child.vars[a] = t[i]
                return child
        else:  # apply: the GT rule is applied to the match first
            gt = program.gtrules[src.ref]
            p = program.patterns[gt.pre_pattern]
            pairs = tuple(zip(gt.params, src.args))
            by_position = {p.params.index(q.name): a for q, a in pairs if q.mode == "in"}
            consistent, to_dict = None, match_dicts(p.params)
            outs = tuple((q.name, a, a in s.vars) for q, a in pairs if q.mode == "out")

            def enter(vm, frame, t):
                result = _apply_gt_match(vm, gt, to_dict((t,))[0], depth)
                child = Frame(frame)
                for name, arg, chosen in outs:
                    if chosen:  # one of the statement's variables
                        child.vars[arg] = result.get(name)
                    else:
                        frame.assign(arg, result.get(name))
                return child
        positions = tuple(sorted(by_position))
        key_vars = tuple(by_position[i] for i in positions)

        def read(vm, frame):
            lookup = frame.lookup
            key = tuple([lookup(a) for a in key_vars])
            if key:
                key_check(vm.space, p, positions, key)
            return consistent_tuples(vm._read(p, positions, key), consistent)
        if isinstance(s, Choose):
            def run(vm, frame):
                first = least(read(vm, frame))
                if first is None:
                    raise ChooseFailed()
                do(vm, enter(vm, frame, first))
        else:
            elements = tuple(i for i, q in enumerate(p.params) if q not in p.int_params)

            def run(vm, frame):
                is_live = vm.space.is_live
                for t in in_order(read(vm, frame)):
                    for i in elements:
                        if not is_live(t[i]):
                            break  # an earlier step removed an element of the match
                    else:
                        do(vm, enter(vm, frame, t))
    elif isinstance(s, Call):
        # the callee's closure is looked up on the VM at each call, so the
        # closures of a recursive rule do not hold each other
        ref, rule = s.ref, program.rules[s.ref]
        pairs = tuple(zip(rule.params, s.args))
        ins = tuple((p.name, compile_expr(a if p.mode == "in" else ex.Lit(None)))
                    for p, a in pairs)
        outs = tuple((p.name, a.name) for p, a in pairs if p.mode == "out")

        def run(vm, frame):
            if vm.call_depth >= MAX_CALL_DEPTH:
                raise ExecError(f"rule calls nested deeper than {MAX_CALL_DEPTH} "
                                f"(calling {rule.name})")
            lookup, space = frame.lookup, vm.space
            callee = Frame(None, {param: value(lookup, space) for param, value in ins})
            body = _code(vm, ref, rule.body, depth)
            vm.call_depth += 1
            vm.exec_depth += depth
            try:
                body(vm, callee)
            finally:
                vm.call_depth -= 1
                vm.exec_depth -= depth
            for param, var in outs:
                frame.assign(var, callee.vars[param])
    elif isinstance(s, Println):
        value = compile_expr(s.expr)

        def run(vm, frame):
            text = ex.as_text(value(frame.lookup, vm.space))
            vm.report.log.append(text)
            if vm.echo:
                print(text)
    elif isinstance(s, Skip):
        run = lambda vm, frame: None
    elif isinstance(s, NewEntity):
        type_name, var, parent = s.type, s.var, s.in_var

        def run(vm, frame):
            space = vm.space
            frame.assign(var, space.new_entity(type_name, ROOT_ID if parent is None else
                                               element_value(frame.lookup(parent), space, "new")))
    elif isinstance(s, NewRelation):
        type_name, var, src, trg = s.type, s.var, s.src, s.trg

        def run(vm, frame):
            space, lookup = vm.space, frame.lookup
            frame.assign(var, space.new_relation(
                type_name, element_value(lookup(src), space, "new"),
                element_value(lookup(trg), space, "new")))
    elif isinstance(s, (NewInstanceOf, DeleteInstanceOf)):
        method, what = (("add_type", "new") if isinstance(s, NewInstanceOf)
                        else ("remove_type", "delete"))
        var, type_name = s.var, s.type

        def run(vm, frame):
            space = vm.space
            getattr(space, method)(element_value(frame.lookup(var), space, what), type_name)
    elif isinstance(s, DeleteStmt):
        target = element(s.expr, "delete")
        run = lambda vm, frame: vm.space.delete(target(frame.lookup, vm.space))
    elif isinstance(s, (SetValueStmt, SetToStmt)):
        # setValue(element, value); setTo(relation, element): its new target
        if isinstance(s, SetValueStmt):
            target, value, method = element(s.target, "setValue"), compile_expr(s.value), "set_value"
        else:
            target, value, method = element(s.rel, "setTo"), element(s.target, "setTo"), "set_target"

        def run(vm, frame):
            space, lookup = vm.space, frame.lookup
            getattr(space, method)(target(lookup, space), value(lookup, space))
    elif isinstance(s, RenameStmt):
        text, target = compile_expr(s.name), element(s.target, "rename")

        def run(vm, frame):
            space, lookup = vm.space, frame.lookup
            name = text(lookup, space)
            if not isinstance(name, str):
                raise ExecError("rename needs a string name")
            space.rename(target(lookup, space), name)
    else:
        raise ExecError(f"cannot execute {s!r}")
    return run
