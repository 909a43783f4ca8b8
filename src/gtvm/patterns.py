"""Graph-pattern intermediate representation.

A pattern is a named, parameterized disjunction of bodies; a body is an
ordered list of constraints over variables that bind model elements (or, for
match-count outputs, integers). Matching is injective per body over
element-valued variables unless the pattern is declared ``shareable``; a
``find`` into another pattern is membership of the argument tuple in the
callee's own match set, so a shareable callee may alias internally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from . import expr as ex
from .errors import PatternError
from .modelspace import ENTITY, RELATION, TypeRegistry

# rule calls, and pattern calls along a chain, nest at most this deep
MAX_CALL_DEPTH = 100


@dataclass(frozen=True)
class EntityC:
    """``T(X)`` optionally with ``in P`` / ``in <namespace>`` containment."""
    type: str
    var: str
    in_var: Optional[str] = None
    in_root: bool = False


@dataclass(frozen=True)
class RelationC:
    """``T.r(R,X,Y)``; ``type is None`` is the untyped ``relation(R,X,Y)``."""
    type: Optional[str]
    rel: str
    src: str
    trg: str


@dataclass(frozen=True)
class FindC:
    pattern: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class NegC:
    pattern: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class CountC:
    pattern: str
    args: tuple[str, ...]
    out: str


@dataclass(frozen=True)
class CheckC:
    expr: ex.Expr


Constraint = EntityC | RelationC | FindC | NegC | CountC | CheckC


def constraint_vars(c: Constraint) -> tuple[str, ...]:
    if isinstance(c, EntityC):
        return (c.var,) if c.in_var is None else (c.var, c.in_var)
    if isinstance(c, RelationC):
        return (c.rel, c.src, c.trg)
    if isinstance(c, (FindC, NegC)):
        return tuple(c.args)
    if isinstance(c, CountC):
        return tuple(c.args) + (c.out,)
    return tuple(ex.expr_vars(c.expr))


@dataclass
class Body:
    constraints: tuple[Constraint, ...]
    # set by validate_patterns: the variables injectivity applies to, and
    # the parameters no positive constraint binds, which a read must bind
    element_vars: Optional[frozenset[str]] = field(default=None, compare=False)
    unbound_params: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        self.constraints = tuple(self.constraints)

    def vars(self) -> list[str]:
        seen = dict()
        for c in self.constraints:
            for v in constraint_vars(c):
                seen.setdefault(v, None)
        return list(seen)


@dataclass
class Pattern:
    name: str
    params: tuple[str, ...]
    bodies: tuple[Body, ...]
    shareable: bool = False
    localsearch: bool = False
    # derived during validate_patterns
    ls_reason: Optional[str] = field(default=None, compare=False)
    recursive: bool = field(default=False, compare=False)
    int_params: frozenset[str] = field(default=frozenset(), compare=False)

    def __post_init__(self):
        self.params = tuple(self.params)
        self.bodies = tuple(self.bodies)


def _element_vars(pattern: Pattern, body: Body, patterns: Mapping[str, Pattern]
                  ) -> tuple[frozenset[str], tuple[str, ...]]:
    """The variables of ``body`` that injectivity applies to: those a
    positive constraint binds to an element (not to an integer); and the
    parameters no positive constraint binds. Raises when a ``check`` reads
    a variable that is neither a parameter nor positively bound."""
    positive: set[str] = set()
    int_vars: set[str] = set()
    for c in body.constraints:
        if isinstance(c, FindC):
            callee = patterns[c.pattern]
            positive.update(c.args)
            int_vars.update(a for a, param in zip(c.args, callee.params)
                            if param in callee.int_params)
        elif isinstance(c, CountC):
            positive.add(c.out)
            int_vars.add(c.out)
        elif isinstance(c, (EntityC, RelationC)):
            positive.update(constraint_vars(c))

    for c in body.constraints:
        if isinstance(c, CheckC):
            for v in ex.expr_vars(c.expr):
                if v not in positive and v not in pattern.params:
                    raise PatternError(
                        f"{pattern.name}: check() uses {v} which has no positive binder")
    return frozenset(positive - int_vars), tuple(v for v in pattern.params if v not in positive)


def validate_patterns(patterns: Mapping[str, Pattern], registry: TypeRegistry) -> None:
    """Validate a closed set of patterns: arities, kinds, scoping, recursion.

    Sets the derived ``recursive``/``scc_members``/``int_params``/``ls_reason``
    (why only the local search can match a pattern, None if the Rete can
    too) and each body's ``element_vars``/``unbound_params``.
    """
    # call arities first: the int-parameter fixpoint indexes callee params
    for p in patterns.values():
        for body in p.bodies:
            for c in body.constraints:
                if isinstance(c, (FindC, NegC, CountC)):
                    callee = patterns.get(c.pattern)
                    if callee is None:
                        raise PatternError(f"{p.name}: unknown pattern {c.pattern}")
                    if len(c.args) != len(callee.params):
                        raise PatternError(
                            f"{p.name}: {c.pattern} takes {len(callee.params)} "
                            f"arguments, got {len(c.args)}")

    # int-valued parameter discovery needs a fixpoint through find calls
    for p in patterns.values():
        p.int_params = frozenset()
    changed = True
    while changed:
        changed = False
        for p in patterns.values():
            ints = set(p.int_params)
            for body in p.bodies:
                for c in body.constraints:
                    if isinstance(c, CountC) and c.out in p.params:
                        ints.add(c.out)
                    if isinstance(c, FindC):
                        callee = patterns[c.pattern]
                        for i, a in enumerate(c.args):
                            if a in p.params and callee.params[i] in callee.int_params:
                                ints.add(a)
            if frozenset(ints) != p.int_params:
                p.int_params = frozenset(ints)
                changed = True

    for p in patterns.values():
        if len(set(p.params)) != len(p.params):
            raise PatternError(f"{p.name}: duplicate parameters")
        if not p.bodies:
            raise PatternError(f"{p.name}: pattern has no body")
        for body in p.bodies:
            for c in body.constraints:
                if isinstance(c, EntityC):
                    if registry.kind(c.type) != ENTITY:
                        raise PatternError(f"{p.name}: {c.type} is not an entity type")
                elif isinstance(c, RelationC):
                    if c.type is not None and registry.kind(c.type) != RELATION:
                        raise PatternError(f"{p.name}: {c.type} is not a relation type")
            body_vars = set(body.vars())
            for param in p.params:
                if param not in body_vars:
                    raise PatternError(f"{p.name}: parameter {param} missing from a body")
            body.element_vars, body.unbound_params = _element_vars(p, body, patterns)

    # call graph: reach[p] holds every pattern p's calls lead to; p is
    # recursive when it reaches itself, and its cycle is what reaches it back
    calls = {p.name: {c.pattern for body in p.bodies for c in body.constraints
                      if isinstance(c, (FindC, NegC, CountC))}
             for p in patterns.values()}
    reach: dict[str, set[str]] = {}
    for name, direct in calls.items():
        seen, stack = set(direct), list(direct)
        while stack:
            for q in calls[stack.pop()] - seen:
                seen.add(q)
                stack.append(q)
        reach[name] = seen
    for name in sorted(patterns):
        p = patterns[name]
        p.recursive = name in reach[name]
        p.scc_members = (tuple(sorted(q for q in reach[name] if name in reach[q]))
                         if p.recursive else (name,))
        p.ls_reason = ("is recursive" if p.recursive else "is @localsearch" if p.localsearch
                       else next((f"reads its parameter {v} only in a neg, count or check"
                                  for body in p.bodies for v in body.unbound_params), None))
        if not p.recursive:
            continue
        for body in p.bodies:
            for c in body.constraints:
                if isinstance(c, (NegC, CountC)) and c.pattern in p.scc_members:
                    raise PatternError(
                        f"{name}: neg/count into the same recursion cycle ({c.pattern})")
        if not any(patterns[q].localsearch for q in p.scc_members):
            raise PatternError(f"recursive pattern {p.scc_members[0]} requires "
                               f"local search (@localsearch)")

    # the longest call chain from each pattern, a recursion cycle counting
    # as one pattern, so no matcher nests deeper than MAX_CALL_DEPTH calls,
    # and the ls_reason that names the call chain to a pattern with its own.
    # Callees go first: their reach is smaller, or as large for a recursive
    # callee that reaches all its caller does.
    depth: dict[str, int] = {}
    below: dict[str, str] = {}  # the callee that the longest chain takes
    for name in sorted(patterns, key=lambda n: (len(reach[n]), n not in reach[n], n)):
        p = patterns[name]
        if p.ls_reason is None:
            q = next((q for q in sorted(calls[name]) if patterns[q].ls_reason), None)
            p.ls_reason = q and f"calls {q}, which {patterns[q].ls_reason}"
        members = p.scc_members
        depth[name] = 1
        for q in (q for m in members for q in calls[m] if q not in members):
            if depth[q] + 1 > depth[name]:
                depth[name], below[name] = depth[q] + 1, q
        if depth[name] > MAX_CALL_DEPTH:
            chain = [name]
            while chain[-1] in below:
                chain.append(below[chain[-1]])
            shown = chain if len(chain) <= 6 else chain[:3] + ["..."] + chain[-2:]
            raise PatternError(f"{name}: pattern calls nest {len(chain)} deep, more "
                               f"than {MAX_CALL_DEPTH}: {' -> '.join(shown)}")


def validate(pattern: Pattern, registry: TypeRegistry,
             context: Mapping[str, Pattern] | None = None) -> None:
    """Validate one pattern against an (optional) already-valid context."""
    closed = dict(context or {})
    closed[pattern.name] = pattern
    validate_patterns(closed, registry)


# --- flattening (used by GT-rule diffing) ----------------------------------


def flatten_body(patterns: Mapping[str, Pattern], body: Body,
                 subst: dict[str, str], fresh: Callable[[str], str]) -> list[Constraint]:
    """Inline non-recursive find calls into primitive constraints.

    Variables present in ``subst`` are renamed accordingly; other variables
    get fresh hygienic names. Neg/count constraints keep their call form. A
    ``find`` into a recursive or disjunctive pattern is a PatternError.
    """
    def sub(v: str) -> str:
        if v not in subst:
            subst[v] = fresh(v)
        return subst[v]

    def sub_expr(e: ex.Expr) -> ex.Expr:
        if isinstance(e, ex.Var):
            return ex.Var(sub(e.name))
        if isinstance(e, ex.ValueOf):
            return ex.ValueOf(sub_expr(e.arg))
        if isinstance(e, ex.NameOf):
            return ex.NameOf(sub_expr(e.arg))
        if isinstance(e, ex.BinOp):
            return ex.BinOp(e.op, sub_expr(e.left), sub_expr(e.right))
        return e

    out: list[Constraint] = []
    for c in body.constraints:
        if isinstance(c, EntityC):
            out.append(EntityC(c.type, sub(c.var),
                               sub(c.in_var) if c.in_var else None, c.in_root))
        elif isinstance(c, RelationC):
            out.append(RelationC(c.type, sub(c.rel), sub(c.src), sub(c.trg)))
        elif isinstance(c, NegC):
            out.append(NegC(c.pattern, tuple(sub(a) for a in c.args)))
        elif isinstance(c, CountC):
            out.append(CountC(c.pattern, tuple(sub(a) for a in c.args), sub(c.out)))
        elif isinstance(c, CheckC):
            out.append(CheckC(sub_expr(c.expr)))
        elif isinstance(c, FindC):
            callee = patterns[c.pattern]
            if callee.recursive:
                raise PatternError(f"cannot flatten recursive pattern {c.pattern}")
            if len(callee.bodies) != 1:
                raise PatternError(f"cannot flatten disjunctive pattern {c.pattern}")
            inner = {param: sub(arg) for param, arg in zip(callee.params, c.args)}
            out.extend(flatten_body(patterns, callee.bodies[0], inner, fresh))
    return out


# --- argument tuples (shared by both matchers and the VM) -------------------


def tuple_getter(positions: Iterable[int]) -> Callable[[tuple], tuple]:
    """``t -> tuple(t[i] for i in positions)`` as one native call.

    Consecutive positions, none and a single one included, become a slice,
    so the result is always a tuple: ``()`` or a 1-tuple where
    ``itemgetter`` alone would give the item itself.
    """
    positions = tuple(positions)
    start = positions[0] if positions else 0
    if positions == tuple(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


def row_test(expr: ex.Expr, columns: Sequence[str], space) -> Callable[[tuple], bool]:
    """Whether ``expr``, a ``check`` condition, holds on a row whose column
    k is variable ``columns[k]``, evaluated against ``space``. Only the
    expression's own variables are read, and a check that fails to evaluate
    does not hold (``ex.holds``)."""
    names = tuple(ex.expr_vars(expr))
    values = tuple_getter([columns.index(v) for v in names])
    test, holds = ex.compile_expr(expr), ex.holds
    return lambda row: holds(test, dict(zip(names, values(row))).__getitem__, space)


def arg_layout(args: Iterable[str], cols: Mapping[str, object]) -> tuple[tuple, tuple, tuple]:
    """How a tuple aligned with ``args`` meets a row whose bound variables
    ``cols`` maps to their columns: ``keys``, ``(position, column)`` for
    each argument bound in ``cols``; ``eqs``, ``(first, position)`` for each
    repeat of an unbound variable, whose values must be equal; and
    ``fresh``, the first position of each unbound variable, in order, whose
    values become new columns. A repeated bound argument is made equal by
    the key. The one rule for every matcher step and statement read."""
    keys, eqs, first = [], [], {}
    for pos, a in enumerate(args):
        if a in cols:
            keys.append((pos, cols[a]))
        elif a in first:
            eqs.append((first[a], pos))
        else:
            first[a] = pos
    return tuple(keys), tuple(eqs), tuple(first.values())


@functools.cache
def consistency_test(args: tuple[str, ...]) -> Callable[[tuple], bool] | None:
    """Predicate on tuples aligned with ``args`` that holds when repeated
    argument variables have equal values; None when no variable repeats.
    Built once per argument tuple."""
    return equal_pairs(arg_layout(args, {})[1])


def equal_pairs(pairs) -> Callable[[tuple], bool] | None:
    """Predicate on tuples that holds when the values at the two positions
    of each pair in ``pairs`` are equal; None when there is no pair."""
    if not pairs:
        return None
    firsts = tuple_getter(i for i, _ in pairs)
    repeats = tuple_getter(j for _, j in pairs)
    return lambda t: firsts(t) == repeats(t)


def consistent_count(tuples: Collection[tuple], ok: Callable[[tuple], bool] | None) -> int:
    """How many of ``tuples`` pass ``ok``, a ``consistency_test`` (None
    passes every tuple)."""
    return len(tuples) if ok is None else sum(map(ok, tuples))


def consistent_tuples(tuples: Collection[tuple],
                      ok: Callable[[tuple], bool] | None) -> Collection[tuple]:
    """The tuples of ``tuples`` that pass ``ok``, a ``consistency_test``;
    ``tuples`` itself when ``ok`` is None."""
    return tuples if ok is None else [t for t in tuples if ok(t)]


@functools.cache
def match_dicts(params: tuple[str, ...]) -> Callable[[Iterable[tuple]], list[dict]]:
    """``rows -> [dict(zip(params, t)) for t in rows]``: a new list of new
    dicts, keys in ``params`` order. The one match-tuple-to-dict constructor."""
    return _dict_display(len(params))(*params)


@functools.cache
def _dict_display(arity: int):
    # one comprehension with a dict display per arity; the source names only
    # k<i>, v<i> and rows, and the keys come in as values, never as source
    keys = ", ".join(f"k{i}" for i in range(arity))
    pairs = ", ".join(f"k{i}: v{i}" for i in range(arity))
    values = ", ".join(f"v{i}" for i in range(arity))
    return eval(f"lambda {keys}: lambda rows: [{{{pairs}}} for [{values}] in rows]")


# --- constraint scheduling (shared by both matchers) ------------------------

POSITIVE = (EntityC, RelationC, FindC)
CALLS = (FindC, NegC, CountC)


def plan_rows(plan: Iterable[Constraint], bound: Iterable[str],
              estimate: Callable[[Constraint, set[str]], float]) -> list[float | None]:
    """The rows each step of ``plan`` creates from one seed row whose
    variables are ``bound``. A positive constraint with a variable still
    unbound creates ``estimate(c, have)`` rows for each row before it,
    ``have`` being the variables bound by then. Every other step (a
    positive constraint whose variables are all bound, a check, a ``neg``,
    a count) is a filter: it creates none (None) and keeps the rows before
    it."""
    rows, have, out = 1.0, set(bound), []
    for c in plan:
        if isinstance(c, POSITIVE):
            cvars = constraint_vars(c)
            if have.issuperset(cvars):
                out.append(None)
            else:
                rows *= estimate(c, have)
                out.append(rows)
            have.update(cvars)
        else:
            out.append(None)
            if isinstance(c, CountC):
                have.add(c.out)
    return out


def _tier(c: Constraint, have: set[str]) -> int:
    """The fixed rank of a positive constraint when no model is at hand."""
    if isinstance(c, RelationC):
        if c.rel in have:
            return 0
        if c.src in have or c.trg in have:
            return 1
        return 3 if c.type is not None else 5
    if isinstance(c, EntityC):
        return 0 if c.var in have else 2
    if all(a in have for a in c.args):
        return 0
    return 2 if any(a in have for a in c.args) else 4


def schedule(body_constraints: Iterable[Constraint], params: tuple[str, ...],
             bound: frozenset[str],
             estimate: Callable[[Constraint, set[str]], float] | None = None,
             shuffle=None) -> list[Constraint]:
    """Order constraints so every one only reads already-bound variables.

    Checks, negs, and counts are inserted as soon as their bound-variable
    requirements are met. Positive constraints are picked one at a time:
    at random under ``shuffle`` (a random.Random, for plan-independence
    testing), else the one that ranks first, the earliest on a tie.

    Connected first: once any variable is bound, a positive constraint that
    shares no variable with the bound set (an entity scan, a relation with
    no bound end, a ``find`` with no bound argument) ranks after every one
    that does, so no plan takes a Cartesian product while a connected
    constraint is ready. A disconnected body still schedules, its parts one
    after the other.

    Without ``estimate`` (the Rete, which plans without a model) picks rank
    by fixed tiers: a bound relation, entity or call first, then a relation
    at a bound end, an entity scan or a partly bound call, a typed relation
    scan, an unbound call and an untyped relation scan. With ``estimate``
    (local search) a pick ranks by the rows it creates for each row,
    ``estimate(c, have)``, a filter none; and the plan is the greedy one,
    unless a greedy plan that starts with another constraint that may come
    first creates fewer rows in all (``plan_rows``; such a plan is dropped
    as soon as it creates as many). So a relation scan that binds both its
    ends, and turns their type checks into filters, beats a start with the
    smaller type scan of one end whose walk then creates the relation's
    rows again. For n positive constraints that takes O(n^3) estimates.
    The local search plans each body once, on the model at its first use,
    and reads the same estimate for one more decision (see ``matcher_ls``):
    a call solves its callee unbound only when the distinct keys its step
    has left would create more rows than one unbound solve.
    """
    constraints = list(body_constraints)
    cvars = [frozenset(constraint_vars(c)) for c in constraints]
    positive = [i for i, c in enumerate(constraints) if isinstance(c, POSITIVE)]
    positive_vars = frozenset().union(*(cvars[i] for i in positive))
    # what a check, neg or count needs bound: the variables a check reads;
    # the arguments of a neg or count that have a positive binder (or are
    # params), the rest being existential inside the sub-query, one
    # quantifier per neg/count, as in the library's isolatedNode
    need: dict[int, set[str]] = {}
    for i, c in enumerate(constraints):
        if isinstance(c, CheckC):
            need[i] = ex.expr_vars(c.expr)
        elif not isinstance(c, POSITIVE):
            need[i] = {a for a in c.args if a in positive_vars or a in params}
            if isinstance(c, CountC):
                need[i].discard(c.out)

    def apart(i: int, have: set[str]) -> bool:
        # shares no variable with a non-empty bound set, so picking it would
        # take a Cartesian product (a constraint without variables, such as
        # `find p()`, is a filter)
        return bool(have) and bool(cvars[i]) and have.isdisjoint(cvars[i])

    def rank(i: int, have: set[str]) -> tuple:
        if estimate is None:
            return apart(i, have), _tier(constraints[i], have)
        return apart(i, have), 0.0 if cvars[i] <= have else estimate(constraints[i], have)

    def greedy(first: int | None = None,
               limit: float = math.inf) -> tuple[list[Constraint], float] | None:
        """The plan that picks constraint ``first`` first, if it may come
        first, and each later positive constraint by rank; and, with
        ``estimate``, the rows it creates in all, as ``plan_rows`` counts
        them. None when ``first`` may not come first or the plan creates
        ``limit`` rows or more."""
        plan: list[Constraint] = []
        have = set(bound)
        deferred = list(need)
        rows, created = 1.0, 0.0

        def pull_deferred():
            # until nothing more is placed: a count placed here binds the
            # output that a check written before it reads
            nonlocal deferred
            placed = True
            while placed:
                rest = []
                for i in deferred:
                    if need[i] <= have:
                        c = constraints[i]
                        plan.append(c)
                        if isinstance(c, CountC):
                            have.add(c.out)
                    else:
                        rest.append(i)
                placed = len(rest) < len(deferred)
                deferred = rest

        pull_deferred()
        remaining = list(positive)
        if first is not None and apart(first, have) and not all(
                apart(i, have) for i in remaining):
            return None
        while remaining:
            if first is not None:
                pick, first = first, None
            elif shuffle is not None:
                pick = remaining[shuffle.randrange(len(remaining))]
            else:
                pick = min(remaining, key=lambda i: rank(i, have))
            remaining.remove(pick)
            if estimate is not None and not cvars[pick] <= have:
                rows *= rank(pick, have)[1]
                created += rows
                if created >= limit:
                    return None
            plan.append(constraints[pick])
            have |= cvars[pick]
            pull_deferred()
        if deferred:
            names = [type(constraints[i]).__name__ for i in deferred]
            raise PatternError(f"constraints cannot be scheduled: {names}")
        return plan, created

    if estimate is None or shuffle is not None or len(positive) < 2:
        return greedy()[0]
    # the plain greedy plan wins a tie; a start that is a filter at once is
    # no other plan than that
    plan, least = greedy()
    for i in positive:
        found = None if cvars[i] <= bound else greedy(i, least)
        if found is not None:
            plan, least = found
    return plan
