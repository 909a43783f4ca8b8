"""Machine IR and the execution engine.

A machine bundles patterns, graph-transformation rules, and imperative
control rules (seq / let / update / if / try / choose / forall / iterate /
call / println plus element manipulation statements). GT rules are applied
by an edit script computed once at link time from the flattened
postcondition, and made of its constraints: what it binds beyond the
precondition is created, each end of a kept relation that differs is moved,
and a negated kept element is deleted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Collection, Optional

from . import expr as ex
from .errors import DivergenceError, ExecError, LinkError
from .matcher_ls import LocalSearchMatcher, binding_key, in_order, least
from .modelspace import ROOT_ID, ModelSpace
from .patterns import (MAX_CALL_DEPTH, CheckC, CountC, EntityC, NegC, Pattern,
                       RelationC, consistency_test)

STEP_BUDGET_ENV = "GTVM_STEP_BUDGET"
DEFAULT_STEP_BUDGET = 1_000_000
# statement executions nest at most this deep, through rule calls and GT
# actions. Each level takes at most three interpreter frames, so a run stops
# with an ExecError well inside Python's default recursion limit of 1000 and
# leaves room for the matchers and for Rete propagation.
MAX_EXEC_DEPTH = 240


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
        self.report: ExecutionReport | None = None  # of the open run
        self.call_depth = 0  # rule calls open, see MAX_CALL_DEPTH
        self.exec_depth = 0  # statement executions open, see MAX_EXEC_DEPTH

    # -- pattern queries -----------------------------------------------------

    def _rete_engine(self):
        if self._rete is None:
            from .rete import ReteEngine
            self._rete = ReteEngine(self.space, self.program.patterns)
        return self._rete

    def _tuples(self, p: Pattern, binding: dict | None,
                args: tuple[str, ...]) -> Collection[tuple]:
        """The match tuples of ``p``, in no order, that agree with ``binding``
        and give each repeated variable of ``args`` (call arguments aligned
        with the parameters) a single value. The one read of either backend:
        the production memory (``inc``) or the match set (``ls``)."""
        if self.backend == "inc" and not p.requires_ls:
            tuples = self._rete_engine().register(p.name).match_tuples(
                *binding_key(self.space, p, binding))
        else:
            tuples = self.ls.match_set(p.name, binding)
        consistent = consistency_test(args)
        return tuples if consistent is None else [t for t in tuples if consistent(t)]

    def query_all(self, pattern_name: str, binding: dict | None = None,
                  args: tuple[str, ...] = ()) -> list[dict]:
        """Every match in order, keeping those that give each repeated
        variable of ``args`` (as in ``query_first``) a single value."""
        p = self.program.patterns[pattern_name]
        return [dict(zip(p.params, t)) for t in in_order(self._tuples(p, binding, args))]

    def query_first(self, pattern_name: str, binding: dict | None = None,
                    args: tuple[str, ...] = ()) -> dict | None:
        """The match ``query_all`` lists first among those that give each
        repeated variable of ``args`` (call arguments aligned with the
        parameters) a single value; None when there is none. One scan and
        no sort, and one dict for the result."""
        p = self.program.patterns[pattern_name]
        first = least(self._tuples(p, binding, args))
        return None if first is None else dict(zip(p.params, first))

    # -- top level -----------------------------------------------------------

    def run(self, machine_name: str) -> ExecutionReport:
        if machine_name not in self.program.machines:
            raise ExecError(f"machine {machine_name} is not loaded")
        main = self.program.rules.get(f"{machine_name}.main")
        if main is None:
            raise ExecError(f"machine {machine_name} has no main rule")
        report = self.report = ExecutionReport(machine_name)
        try:
            _call_rule(self, main, (), Frame())
        except ChooseFailed:
            raise ExecError("choose failed outside try") from None
        report.results = collect_results(self.space)
        return report

    def apply_gtrule(self, name: str, in_binding: dict | None = None,
                     report: ExecutionReport | None = None) -> dict | None:
        """Match the rule's precondition (extending ``in_binding``), apply the
        first match, run the action; returns the full binding or None."""
        gt = self.program.gtrules[name]
        match = self.query_first(gt.pre_pattern, in_binding)
        if match is None:
            return None
        self.report = report or ExecutionReport(gt.machine)
        return _apply_gt_match(self, gt, match)


def execute_machine(program: LinkedProgram, machine_name: str, space: ModelSpace,
                    matcher: str = "inc", **vm_options) -> ExecutionReport:
    """Run ``machine_name``'s main rule on ``space``; convenience over VM."""
    return VM(program, space, matcher=matcher, **vm_options).run(machine_name)


def _eval(vm: VM, frame: Frame, e: ex.Expr):
    return ex.eval_expr(e, frame.lookup, vm.space)


def _live_match(vm: VM, pattern: Pattern, match: dict) -> bool:
    return all(param in pattern.int_params or vm.space.is_live(match[param])
               for param in pattern.params)


def _call_rule(vm: VM, rule: AsmRule, args, caller: Frame):
    if vm.call_depth >= MAX_CALL_DEPTH:
        raise ExecError(f"rule calls nested deeper than {MAX_CALL_DEPTH} "
                        f"(calling {rule.name})")
    frame = Frame()
    for param, arg in zip(rule.params, args):
        frame.declare(param.name, _eval(vm, caller, arg) if param.mode == "in" else None)
    vm.call_depth += 1
    try:
        _exec(vm, frame, rule.body)
    finally:
        vm.call_depth -= 1
    for param, arg in zip(rule.params, args):
        if param.mode == "out":
            caller.assign(arg.name, frame.lookup(param.name))


def _apply_gt_match(vm: VM, gt: CompiledGt, match: dict) -> dict:
    binding = dict(match)
    if gt.script is not None:
        apply_diff(gt.script, vm.space, binding)
    if gt.action is not None:
        frame = Frame()
        for name in gt.scope_names:
            frame.declare(name, binding.get(name))
        _exec(vm, frame, gt.action)
    return binding


def _source(vm: VM, frame: Frame, stmt: Choose | Forall):
    """What a ``choose``/``forall`` source reads: the pattern to match, the
    binding of its parameters from ``frame``, the arguments whose repeated
    variables a match must honour, and the step that turns a match into the
    frame of the body (for ``apply``, by applying the GT rule first)."""
    src = stmt.source
    if isinstance(src, FindSource):
        pattern = vm.program.patterns[src.ref]
        pairs = tuple(zip(pattern.params, src.args))
        binding = {param: frame.lookup(arg) for param, arg in pairs
                   if arg not in stmt.vars}

        def enter(match: dict) -> Frame:
            child = Frame(frame)
            for param, arg in pairs:
                if arg in stmt.vars:
                    child.vars.setdefault(arg, match[param])
            return child
        return pattern, binding, src.args, enter

    gt = vm.program.gtrules[src.ref]
    pairs = tuple(zip(gt.params, src.args))
    binding = {param.name: frame.lookup(arg) for param, arg in pairs
               if param.mode == "in"}

    def enter(match: dict) -> Frame:
        result = _apply_gt_match(vm, gt, match)
        child = Frame(frame)
        for param, arg in pairs:
            if param.mode == "out":
                if arg in stmt.vars:
                    child.vars[arg] = result.get(param.name)
                else:
                    frame.assign(arg, result.get(param.name))
        return child
    return vm.program.patterns[gt.pre_pattern], binding, (), enter


def _exec(vm: VM, frame: Frame, stmt) -> None:
    if vm.exec_depth >= MAX_EXEC_DEPTH:
        raise ExecError(f"statements nested deeper than {MAX_EXEC_DEPTH} "
                        f"(rule bodies included)")
    vm.exec_depth += 1
    try:
        space = vm.space
        if isinstance(stmt, Seq):
            for s in stmt.stmts:
                _exec(vm, frame, s)
        elif isinstance(stmt, Let):
            child = Frame(frame)
            for name, init in stmt.inits:
                child.declare(name, ex.eval_expr(init, child.lookup, space))
            _exec(vm, child, stmt.body)
        elif isinstance(stmt, Update):
            frame.assign(stmt.var, _eval(vm, frame, stmt.expr))
        elif isinstance(stmt, If):
            cond = _eval(vm, frame, stmt.cond)
            if not isinstance(cond, bool):
                raise ExecError("if condition must be a comparison")
            if cond:
                _exec(vm, frame, stmt.then)
            elif stmt.els is not None:
                _exec(vm, frame, stmt.els)
        elif isinstance(stmt, Try):
            try:
                _exec(vm, frame, stmt.inner)
            except ChooseFailed:
                pass
        elif isinstance(stmt, Choose):
            pattern, binding, args, enter = _source(vm, frame, stmt)
            match = vm.query_first(pattern.name, binding, args)
            if match is None:
                raise ChooseFailed()
            _exec(vm, enter(match), stmt.do)
        elif isinstance(stmt, Forall):
            pattern, binding, args, enter = _source(vm, frame, stmt)
            for match in vm.query_all(pattern.name, binding, args):
                if _live_match(vm, pattern, match):  # else an earlier step removed it
                    _exec(vm, enter(match), stmt.do)
        elif isinstance(stmt, Iterate):
            steps = 0
            while True:
                try:
                    _exec(vm, frame, stmt.inner)
                except ChooseFailed:
                    break
                steps += 1
                if steps > vm.step_budget:
                    raise DivergenceError(
                        f"iterate exceeded the step budget ({vm.step_budget})")
        elif isinstance(stmt, Call):
            _call_rule(vm, vm.program.rules[stmt.ref], stmt.args, frame)
        elif isinstance(stmt, Println):
            text = ex.as_text(_eval(vm, frame, stmt.expr))
            vm.report.log.append(text)
            if vm.echo:
                print(text)
        elif isinstance(stmt, Skip):
            pass
        elif isinstance(stmt, NewEntity):
            if stmt.in_var is None:
                parent = ROOT_ID
            else:
                parent = ex.element_value(frame.lookup(stmt.in_var), space, "new")
            frame.assign(stmt.var, space.new_entity(stmt.type, parent))
        elif isinstance(stmt, NewRelation):
            src = ex.element_value(frame.lookup(stmt.src), space, "new")
            trg = ex.element_value(frame.lookup(stmt.trg), space, "new")
            frame.assign(stmt.var, space.new_relation(stmt.type, src, trg))
        elif isinstance(stmt, NewInstanceOf):
            space.add_type(ex.element_value(frame.lookup(stmt.var), space, "new"), stmt.type)
        elif isinstance(stmt, DeleteInstanceOf):
            space.remove_type(ex.element_value(frame.lookup(stmt.var), space, "delete"),
                              stmt.type)
        elif isinstance(stmt, DeleteStmt):
            space.delete(ex.live_element(stmt.expr, frame.lookup, space, "delete"))
        elif isinstance(stmt, SetValueStmt):
            space.set_value(ex.live_element(stmt.target, frame.lookup, space, "setValue"),
                            _eval(vm, frame, stmt.value))
        elif isinstance(stmt, SetToStmt):
            space.set_target(ex.live_element(stmt.rel, frame.lookup, space, "setTo"),
                             ex.live_element(stmt.target, frame.lookup, space, "setTo"))
        elif isinstance(stmt, RenameStmt):
            name = _eval(vm, frame, stmt.name)
            if not isinstance(name, str):
                raise ExecError("rename needs a string name")
            space.rename(ex.live_element(stmt.target, frame.lookup, space, "rename"), name)
        else:
            raise ExecError(f"cannot execute {stmt!r}")
    finally:
        vm.exec_depth -= 1
