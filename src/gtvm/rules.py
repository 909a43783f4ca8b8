"""Machine IR and the execution engine.

A machine bundles patterns, graph-transformation rules, and imperative
control rules (seq / let / update / if / try / choose / forall / iterate /
call / println plus element manipulation statements). GT rules are applied
by constraint-level diffing of the flattened pre- and postcondition bodies,
computed once at link time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from . import expr as ex
from .errors import DivergenceError, ExecError, LinkError
from .matcher_ls import LocalSearchMatcher, in_order, least
from .modelspace import ROOT_ID, ModelSpace
from .patterns import (CheckC, CountC, EntityC, FlattenError, NegC,
                       Pattern, RelationC, arg_equalities, consistency_test,
                       flatten_body, tuple_getter)

STEP_BUDGET_ENV = "GTVM_STEP_BUDGET"
DEFAULT_STEP_BUDGET = 1_000_000
# rule calls nest at most this deep; each level takes several interpreter
# frames, so this stays well inside Python's default recursion limit
MAX_CALL_DEPTH = 100


def step_budget_from_env() -> int:
    """The ``iterate`` step budget: ``GTVM_STEP_BUDGET`` if set, else the default."""
    text = os.environ.get(STEP_BUDGET_ENV)
    if text is None:
        return DEFAULT_STEP_BUDGET
    try:
        budget = int(text)
        if budget >= 0:
            return budget
    except ValueError:
        pass
    raise ExecError(f"{STEP_BUDGET_ENV} must be a non-negative integer, got {text!r}")


# --- statement IR -----------------------------------------------------------


@dataclass(frozen=True)
class ContainerRef:
    kind: str  # 'root' or 'var'
    name: str  # namespace path or variable name


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
    type: str
    var: str
    container: Optional[ContainerRef] = None


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

    def rule(self, name: str) -> Optional[AsmRule]:
        for r in self.rules:
            if r.name == name:
                return r
        return None


# --- linked program -----------------------------------------------------------


@dataclass
class LinkedProgram:
    machines: dict[str, Machine]
    patterns: dict[str, Pattern]          # global name -> resolved pattern
    gtrules: dict[str, "CompiledGt"]
    rules: dict[str, tuple[str, AsmRule]]  # global name -> (machine, rule)
    resolutions: dict[tuple[str, str, str], str]  # (machine, kind, raw ref) -> global
    stmt_types: dict[tuple[str, str], str]        # (machine, raw type) -> fqn
    registry: object

    def resolve(self, machine: str, kind: str, raw: str) -> str:
        try:
            return self.resolutions[(machine, kind, raw)]
        except KeyError:
            raise ExecError(f"unresolved {kind} reference {raw} in {machine}") from None

    def resolve_type(self, machine: str, raw: str) -> str:
        try:
            return self.stmt_types[(machine, raw)]
        except KeyError:
            raise ExecError(f"unresolved type {raw} in {machine}") from None


# --- GT rule compilation --------------------------------------------------------


@dataclass(frozen=True)
class EnsureType:
    var: str
    type: str


@dataclass(frozen=True)
class EntityCreate:
    var: str
    type: str
    parent_var: Optional[str]  # None -> model root


@dataclass(frozen=True)
class RelationCreate:
    var: str
    type: Optional[str]
    src: str
    trg: str


@dataclass(frozen=True)
class Retarget:
    rel: str
    end: str  # 'source' | 'target'
    new: str


@dataclass(frozen=True)
class DeleteVar:
    var: str


@dataclass
class DiffScript:
    ensures: tuple[EnsureType, ...]
    entity_creates: tuple[EntityCreate, ...]
    relation_creates: tuple[RelationCreate, ...]
    retargets: tuple[Retarget, ...]
    deletes: tuple[DeleteVar, ...]


@dataclass
class CompiledGt:
    name: str
    machine: str
    params: tuple[Param, ...]
    pre_pattern: str          # global name of the matchable precondition
    pre_params: tuple[str, ...]
    script: Optional[DiffScript]
    action: Optional[Stmt]
    scope_names: tuple[str, ...]


def _unique(seq):
    return tuple(dict.fromkeys(seq))


def compile_gt_diff(rule_name: str, patterns: dict[str, Pattern],
                    pre_pattern: Pattern, pre_params: tuple[str, ...],
                    post_flat: list, post_signature: tuple[str, ...]) -> DiffScript:
    """Turn flattened postcondition constraints into an executable edit script."""
    bound = set(pre_params)

    # best-effort flattening of the precondition for correspondence
    pre_flat: list | None
    try:
        counter = [0]

        def fresh(v):
            counter[0] += 1
            return f"${v}.{counter[0]}"

        subst = {v: v for v in pre_pattern.params}
        if len(pre_pattern.bodies) != 1:
            raise FlattenError("disjunctive precondition")
        pre_flat = flatten_body(patterns, pre_pattern.bodies[0], subst, fresh)
    except FlattenError:
        pre_flat = None

    pre_rel: dict[str, RelationC] = {}
    pre_ent_types: dict[str, set[str]] = {}
    if pre_flat is not None:
        for c in pre_flat:
            if isinstance(c, RelationC) and c.rel in bound:
                pre_rel.setdefault(c.rel, c)
            elif isinstance(c, EntityC) and c.var in bound:
                pre_ent_types.setdefault(c.var, set()).add(c.type)

    ent_types: dict[str, str] = {}
    ent_parent: dict[str, Optional[str]] = {}
    ensures: list[EnsureType] = []
    rel_creates: list[RelationCreate] = []
    retargets: list[Retarget] = []
    positive_post: set[str] = set()

    for c in post_flat:
        if isinstance(c, (CheckC, CountC)):
            raise LinkError(f"{rule_name}: {type(c).__name__} not allowed in a postcondition")
        if isinstance(c, EntityC):
            positive_post.add(c.var)
            if c.in_var is not None:
                positive_post.add(c.in_var)
            if c.var in bound:
                ensures.append(EnsureType(c.var, c.type))
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
            if c.rel in bound:
                prev = pre_rel.get(c.rel)
                if prev is None:
                    retargets.append(Retarget(c.rel, "source", c.src))
                    retargets.append(Retarget(c.rel, "target", c.trg))
                else:
                    if prev.src != c.src:
                        retargets.append(Retarget(c.rel, "source", c.src))
                    if prev.trg != c.trg:
                        retargets.append(Retarget(c.rel, "target", c.trg))
            else:
                rel_creates.append(RelationCreate(c.rel, c.type, c.src, c.trg))

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
    ordered: list[EntityCreate] = []
    while pending:
        progressed = False
        for var in list(pending):
            parent = ent_parent.get(var)
            if parent is None or parent in bound or parent not in ent_types or any(
                    e.var == parent for e in ordered):
                ordered.append(EntityCreate(var, pending.pop(var), parent))
                progressed = True
        if not progressed:
            raise LinkError(f"{rule_name}: cyclic containment among created entities")

    created = set(ent_types) | {r.var for r in rel_creates}
    for r in rel_creates:
        for endpoint in (r.src, r.trg):
            if endpoint not in bound and endpoint not in created:
                raise LinkError(f"{rule_name}: relation {r.var} uses unbound "
                                f"endpoint {endpoint}")
    for rt in retargets:
        if rt.new not in bound and rt.new not in created:
            raise LinkError(f"{rule_name}: retarget of {rt.rel} uses unbound {rt.new}")

    deletes: list[DeleteVar] = []
    for c in post_flat:
        if isinstance(c, NegC):
            for a in c.args:
                if a in bound and a not in positive_post:
                    if not any(d.var == a for d in deletes):
                        deletes.append(DeleteVar(a))

    return DiffScript(_unique(ensures), tuple(ordered), tuple(rel_creates),
                      _unique(retargets), tuple(deletes))


def apply_diff(script: DiffScript, vm: "VM", binding: dict) -> None:
    space = vm.space
    for e in script.ensures:
        if not space.conforms(binding[e.var], e.type):
            space.add_type(binding[e.var], e.type)
    for e in script.entity_creates:
        parent = ROOT_ID if e.parent_var is None else binding[e.parent_var]
        binding[e.var] = space.new_entity(e.type, parent)
    for r in script.relation_creates:
        binding[r.var] = space.new_relation(r.type, binding[r.src], binding[r.trg])
    for rt in script.retargets:
        rid = binding[rt.rel]
        current = space.source(rid) if rt.end == "source" else space.target(rid)
        if current != binding[rt.new]:
            if rt.end == "source":
                space.set_source(rid, binding[rt.new])
            else:
                space.set_target(rid, binding[rt.new])
    for d in script.deletes:
        if space.is_live(binding[d.var]):
            space.delete(binding[d.var])


# --- execution ----------------------------------------------------------------


class ChooseFailed(Exception):
    """Control flow: a plain choose found no match; absorbed by try/iterate."""


class Frame:
    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Frame"] = None):
        self.vars: dict[str, object] = {}
        self.parent = parent

    def declare(self, name: str, value) -> None:
        self.vars[name] = value

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

    # -- pattern queries -----------------------------------------------------

    def _rete_engine(self):
        if self._rete is None:
            from .rete import ReteEngine
            self._rete = ReteEngine(self.space, self.program.patterns)
        return self._rete

    def _agreeing(self, p: Pattern, binding: dict | None, tuples):
        """The production-memory ``tuples`` of ``p`` that agree with ``binding``."""
        if not binding:
            return tuples
        self.ls._checked_binding(p, binding)
        bound = tuple_getter(p.params.index(k) for k in binding)
        values = tuple(binding.values())
        return [t for t in tuples if bound(t) == values]

    def query_all(self, pattern_name: str, binding: dict | None = None) -> list[dict]:
        p = self.program.patterns[pattern_name]
        if self.backend == "inc" and not p.requires_ls:
            handle = self._rete_engine().register(pattern_name)
            tuples = self._agreeing(p, binding, handle.match_tuples())
            return [dict(zip(p.params, t)) for t in in_order(tuples)]
        return self.ls.match_all(pattern_name, binding)

    def query_first(self, pattern_name: str, binding: dict | None = None,
                    args: tuple[str, ...] = ()) -> dict | None:
        """The match ``query_all`` lists first among those that give each
        repeated variable of ``args`` (call arguments aligned with the
        parameters) a single value; None when there is none.

        One scan of the production memory (``inc``) or of the match set
        (``ls``): no sort, and one dict for the result.
        """
        p = self.program.patterns[pattern_name]
        if self.backend == "inc" and not p.requires_ls:
            handle = self._rete_engine().register(pattern_name)
            tuples = self._agreeing(p, binding, handle.live_tuples())
        else:
            tuples = self.ls.match_set(pattern_name, binding)
        consistent = consistency_test(args)
        if consistent is not None:
            tuples = [t for t in tuples if consistent(t)]
        first = least(tuples)
        return None if first is None else dict(zip(p.params, first))

    # -- top level -----------------------------------------------------------

    def run(self, machine_name: str) -> ExecutionReport:
        machine = self.program.machines.get(machine_name)
        if machine is None:
            raise ExecError(f"machine {machine_name} is not loaded")
        main = machine.rule("main")
        if main is None:
            raise ExecError(f"machine {machine_name} has no main rule")
        report = ExecutionReport(machine_name)
        ctx = _Ctx(self, machine, report)
        try:
            _call_rule(ctx, machine.name, main, [], Frame())
        except ChooseFailed:
            raise ExecError("choose failed outside try") from None
        report.results = collect_results(self.space)
        return report

    def apply_gtrule(self, name: str, in_binding: dict | None = None,
                     report: ExecutionReport | None = None) -> dict | None:
        """Match the rule's precondition (extending ``in_binding``), apply the
        first match, run the action; returns the full binding or None."""
        gt = self.program.gtrules[name]
        ctx = _Ctx(self, self.program.machines[gt.machine],
                   report or ExecutionReport(gt.machine))
        match = self.query_first(gt.pre_pattern, in_binding)
        if match is None:
            return None
        return _apply_gt_match(ctx, gt, match)


def execute_machine(program: LinkedProgram, machine_name: str, space: ModelSpace,
                    matcher: str = "inc", **vm_options) -> ExecutionReport:
    """Run ``machine_name``'s main rule on ``space``; convenience over VM."""
    return VM(program, space, matcher=matcher, **vm_options).run(machine_name)


@dataclass
class _Ctx:
    vm: VM
    machine: Machine
    report: ExecutionReport
    depth: int = 0  # rule calls open around the executing statement


def _as_text(v) -> str:
    return "undef" if v is None else str(v)


def _eval(ctx: _Ctx, frame: Frame, e: ex.Expr):
    return ex.eval_expr(e, frame.lookup, ctx.vm.space)


def _element(ctx: _Ctx, frame: Frame, e: ex.Expr, what: str) -> int:
    v = _eval(ctx, frame, e)
    if not isinstance(v, int) or not ctx.vm.space.is_live(v):
        raise ExecError(f"{what} needs a live element, got {_as_text(v)}")
    return v


def _live_match(vm: VM, pattern: Pattern, match: dict) -> bool:
    return all(param in pattern.int_params or vm.space.is_live(match[param])
               for param in pattern.params)


def _call_rule(ctx: _Ctx, machine_name: str, rule: AsmRule, args, caller: Frame):
    if len(args) != len(rule.params):
        raise ExecError(f"rule {rule.name} takes {len(rule.params)} arguments, "
                        f"got {len(args)}")
    if ctx.depth >= MAX_CALL_DEPTH:
        raise ExecError(f"rule calls nested deeper than {MAX_CALL_DEPTH} "
                        f"(calling {rule.name})")
    machine = ctx.vm.program.machines[machine_name]
    callee_ctx = _Ctx(ctx.vm, machine, ctx.report, ctx.depth + 1)
    frame = Frame()
    for param, arg in zip(rule.params, args):
        if param.mode == "in":
            frame.declare(param.name, _eval(ctx, caller, arg))
        else:
            frame.declare(param.name, None)
    _exec(callee_ctx, frame, rule.body)
    for param, arg in zip(rule.params, args):
        if param.mode == "out":
            if not isinstance(arg, ex.Var):
                raise ExecError(f"out argument of {rule.name} must be a variable")
            caller.assign(arg.name, frame.lookup(param.name))


def _source_binding(ctx: _Ctx, frame: Frame, params: tuple[str, ...],
                    args: tuple[str, ...], to_bind: set[str]) -> dict:
    binding: dict[str, object] = {}
    for param, arg in zip(params, args):
        if arg in to_bind:
            continue
        value = frame.lookup(arg)
        if param in binding and binding[param] != value:
            raise ExecError(f"conflicting bindings for {param}")
        binding[param] = value
    return binding


def _bind_match_vars(frame: Frame, params, args, to_bind, match: dict) -> Frame:
    child = Frame(frame)
    for param, arg in zip(params, args):
        if arg in to_bind:
            child.vars.setdefault(arg, match[param])
    return child


def _apply_gt_match(ctx: _Ctx, gt: CompiledGt, match: dict) -> dict:
    binding = dict(match)
    if gt.script is not None:
        apply_diff(gt.script, ctx.vm, binding)
    if gt.action is not None:
        frame = Frame()
        for name in gt.scope_names:
            frame.declare(name, binding.get(name))
        action_ctx = _Ctx(ctx.vm, ctx.vm.program.machines[gt.machine], ctx.report,
                          ctx.depth)
        _exec(action_ctx, frame, gt.action)
    return binding


def _gt_source(ctx: _Ctx, frame: Frame, stmt) -> tuple[CompiledGt, dict, list[str]]:
    gt_name = ctx.vm.program.resolve(ctx.machine.name, "gtrule", stmt.source.ref)
    gt = ctx.vm.program.gtrules[gt_name]
    args = stmt.source.args
    if len(args) != len(gt.params):
        raise ExecError(f"gtrule {gt_name} takes {len(gt.params)} arguments")
    in_binding: dict[str, object] = {}
    out_args: list[str] = []
    for param, arg in zip(gt.params, args):
        if param.mode == "in":
            in_binding[param.name] = frame.lookup(arg)
        else:
            out_args.append(arg)
    return gt, in_binding, out_args


def _bind_gt_outs(ctx: _Ctx, frame: Frame, stmt, gt: CompiledGt, result: dict) -> Frame:
    child = Frame(frame)
    for param, arg in zip(gt.params, stmt.source.args):
        if param.mode != "out":
            continue
        value = result.get(param.name)
        if arg in stmt.vars:
            child.vars[arg] = value
        else:
            frame.assign(arg, value)
    return child


def _exec(ctx: _Ctx, frame: Frame, stmt) -> None:
    vm = ctx.vm
    space = vm.space
    if isinstance(stmt, Seq):
        for s in stmt.stmts:
            _exec(ctx, frame, s)
    elif isinstance(stmt, Let):
        child = Frame(frame)
        for name, init in stmt.inits:
            child.declare(name, ex.eval_expr(init, child.lookup, space))
        _exec(ctx, child, stmt.body)
    elif isinstance(stmt, Update):
        frame.assign(stmt.var, _eval(ctx, frame, stmt.expr))
    elif isinstance(stmt, If):
        cond = _eval(ctx, frame, stmt.cond)
        if not isinstance(cond, bool):
            raise ExecError("if condition must be a comparison")
        if cond:
            _exec(ctx, frame, stmt.then)
        elif stmt.els is not None:
            _exec(ctx, frame, stmt.els)
    elif isinstance(stmt, Try):
        try:
            _exec(ctx, frame, stmt.inner)
        except ChooseFailed:
            pass
    elif isinstance(stmt, Choose):
        _exec_choose(ctx, frame, stmt)
    elif isinstance(stmt, Forall):
        _exec_forall(ctx, frame, stmt)
    elif isinstance(stmt, Iterate):
        steps = 0
        while True:
            try:
                _exec(ctx, frame, stmt.inner)
            except ChooseFailed:
                break
            steps += 1
            if steps > vm.step_budget:
                raise DivergenceError(
                    f"iterate exceeded the step budget ({vm.step_budget})")
    elif isinstance(stmt, Call):
        rule_name = vm.program.resolve(ctx.machine.name, "rule", stmt.ref)
        machine_name, rule = vm.program.rules[rule_name]
        _call_rule(ctx, machine_name, rule, list(stmt.args), frame)
    elif isinstance(stmt, Println):
        text = _as_text(_eval(ctx, frame, stmt.expr))
        ctx.report.log.append(text)
        if vm.echo:
            print(text)
    elif isinstance(stmt, Skip):
        pass
    elif isinstance(stmt, NewEntity):
        t = vm.program.resolve_type(ctx.machine.name, stmt.type)
        if stmt.container is None or stmt.container.kind == "root":
            parent = ROOT_ID
        else:
            parent = frame.lookup(stmt.container.name)
            if not isinstance(parent, int):
                raise ExecError(f"container {stmt.container.name} is not an element")
        frame.assign(stmt.var, space.new_entity(t, parent))
    elif isinstance(stmt, NewRelation):
        t = (vm.program.resolve_type(ctx.machine.name, stmt.type)
             if stmt.type is not None else None)
        src = frame.lookup(stmt.src)
        trg = frame.lookup(stmt.trg)
        frame.assign(stmt.var, space.new_relation(t, src, trg))
    elif isinstance(stmt, NewInstanceOf):
        t = vm.program.resolve_type(ctx.machine.name, stmt.type)
        space.add_type(frame.lookup(stmt.var), t)
    elif isinstance(stmt, DeleteInstanceOf):
        t = vm.program.resolve_type(ctx.machine.name, stmt.type)
        space.remove_type(frame.lookup(stmt.var), t)
    elif isinstance(stmt, DeleteStmt):
        space.delete(_element(ctx, frame, stmt.expr, "delete"))
    elif isinstance(stmt, SetValueStmt):
        space.set_value(_element(ctx, frame, stmt.target, "setValue"),
                        _eval(ctx, frame, stmt.value))
    elif isinstance(stmt, SetToStmt):
        space.set_target(_element(ctx, frame, stmt.rel, "setTo"),
                         _element(ctx, frame, stmt.target, "setTo"))
    elif isinstance(stmt, RenameStmt):
        name = _eval(ctx, frame, stmt.name)
        if not isinstance(name, str):
            raise ExecError("rename needs a string name")
        space.rename(_element(ctx, frame, stmt.target, "rename"), name)
    else:
        raise ExecError(f"cannot execute {stmt!r}")


def _exec_choose(ctx: _Ctx, frame: Frame, stmt: Choose) -> None:
    vm = ctx.vm
    to_bind = set(stmt.vars)
    if isinstance(stmt.source, FindSource):
        pname = vm.program.resolve(ctx.machine.name, "pattern", stmt.source.ref)
        pattern = vm.program.patterns[pname]
        binding = _source_binding(ctx, frame, pattern.params, stmt.source.args, to_bind)
        match = vm.query_first(pname, binding, stmt.source.args)
        if match is None:
            raise ChooseFailed()
        child = _bind_match_vars(frame, pattern.params, stmt.source.args,
                                 to_bind, match)
        _exec(ctx, child, stmt.do)
    else:
        gt, in_binding, _ = _gt_source(ctx, frame, stmt)
        match = vm.query_first(gt.pre_pattern, _gt_pre_binding(gt, in_binding))
        if match is None:
            raise ChooseFailed()
        result = _apply_gt_match(ctx, gt, match)
        child = _bind_gt_outs(ctx, frame, stmt, gt, result)
        _exec(ctx, child, stmt.do)


def _exec_forall(ctx: _Ctx, frame: Frame, stmt: Forall) -> None:
    vm = ctx.vm
    to_bind = set(stmt.vars)
    if isinstance(stmt.source, FindSource):
        pname = vm.program.resolve(ctx.machine.name, "pattern", stmt.source.ref)
        pattern = vm.program.patterns[pname]
        binding = _source_binding(ctx, frame, pattern.params, stmt.source.args, to_bind)
        params = pattern.params
        eqs = arg_equalities(stmt.source.args)
        snapshot = [m for m in vm.query_all(pname, binding)
                    if all(m[params[i]] == m[params[j]] for i, j in eqs)]
        for match in snapshot:
            if not _live_match(vm, pattern, match):
                continue  # invalidated by an earlier iteration
            child = _bind_match_vars(frame, pattern.params, stmt.source.args,
                                     to_bind, match)
            _exec(ctx, child, stmt.do)
    else:
        gt, in_binding, _ = _gt_source(ctx, frame, stmt)
        pattern = vm.program.patterns[gt.pre_pattern]
        snapshot = vm.query_all(gt.pre_pattern, _gt_pre_binding(gt, in_binding))
        for match in snapshot:
            if not _live_match(vm, pattern, match):
                continue
            result = _apply_gt_match(ctx, gt, match)
            child = _bind_gt_outs(ctx, frame, stmt, gt, result)
            _exec(ctx, child, stmt.do)


def _gt_pre_binding(gt: CompiledGt, in_binding: dict) -> dict:
    out = {}
    for name, value in in_binding.items():
        if name not in gt.pre_params:
            raise ExecError(f"{gt.name}: in parameter {name} is not bound "
                            f"by the precondition")
        out[name] = value
    return out
