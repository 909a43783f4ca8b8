"""Local-search pattern matcher that runs compiled search plans set-at-a-time.

Evaluates validated patterns on demand against the current space. Recursive
patterns are evaluated by least-fixpoint tabling over their call cycle
(semi-naive for bodies with a single in-cycle call), so evaluation
terminates on cyclic graphs. Match order is deterministic: sorted by bound
values.

Plans are model-sensitive (after VIATRA2's search plans: Varró G., Friedl,
Varró D., GraMoT 2005). One estimate of the rows each step creates, read
from counts the space keeps, orders every (pattern, body, bound-parameter
set) through ``patterns.schedule``: a type scan creates ``count_of_type``
rows; a relation walked from a bound end its type's count over its end's
type count; a ``find`` the callee's estimated unbound rows (those its own
unbound plans end with) over the values of its bound arguments; a step whose
variables are all bound is a filter and creates none. A plan is made once,
on the model at its first use, and kept for the matcher's life: after the
counts change it still gives the same answers, if perhaps more slowly.

Each plan is compiled into a step program when it first runs, cached with it
(a callee's plan that only serves its callers' estimates is never compiled).
A partial match is a row tuple whose columns the plan fixes: the bound
parameters in parameter order, then each variable in the order a step binds
it. The list of rows passes through the steps in turn. A positive
constraint, and a ``#`` count, extends each row with its candidates:
``(e,)`` or ``(e, ancestor)`` for an entity, ``(relation, source, target)``
for a relation, the callee's answer tuples for a ``find`` and ``(n,)`` for a
count. Entities and relations are read through the model space's typed-row
reads: ``rows`` for a type scan, a ``rows_at`` reader for a bound element or
end; a bound ``T(X)`` keeps the rows ``conforming`` gives. Bound variables
narrow the candidates where an index serves them; the step compares the
other bound positions with the row's columns and keeps fresh element values
distinct from the row's (unless the pattern is shareable). One comprehension
per shape (``candidate_filter``) tests repeated fresh names for equality and
fresh element values for distinctness. A candidate source that
does not read the row (a type scan, an unbound ``find``) is read once per
step and hashed by the positions the row binds. Checks and ``neg`` calls
filter the list, and the last rows are projected onto the parameters.

A relation whose source or target is bound (and the relation itself not) has
two access paths, chosen on every step run from counts the space keeps: the
walk reads the relations at each row's end, of any type, as many as
``relation_ids`` holds for the rows' ends; the scan reads the relations of
the type once (``count_of_type`` over its subtype closure, or every relation
for ``relation(...)``) and groups them by that end. The step scans when the
walk would read more, and walks otherwise. Type scans are unsorted.

Answers are memoized per ``space.version``; the first query after a change
drops them all. A pattern's unbound answer set, once held (searched, or
tabled for a recursive pattern), also answers every bound call to it through
a hash index keyed by the bound parameter positions, built on first use. A
bound call whose pattern has no unbound set held is searched with its
binding as the seed row, and its answers are memoized by binding. A call
step chooses between the two once per run, before its first key: below an
enumeration (an unbound solve or a tabling fixpoint on the stack), a step
whose rows hold more distinct keys than its plan's threshold solves the
callee unbound and reads every key from that set's index. The threshold is
where the keys, each searched from a seed row that creates the rows the call
is estimated to create per key, would make more rows than one unbound solve
from one seed row. A top-level bound query never builds an unbound set. The
tabling bases (table and delta of each cycle member) are indexed the same
way, and an index of a growing table takes each added tuple, so none serves
a stale set.
"""

from __future__ import annotations

import functools
from itertools import combinations, compress
from typing import Callable, Collection, Iterable, Mapping

from . import expr as ex
from .errors import PatternError, SpaceError
from .modelspace import ModelSpace
from .patterns import (CALLS, POSITIVE, Body, CheckC, CountC, EntityC, FindC, NegC,
                       Pattern, RelationC, consistency_test, consistent_count,
                       constraint_vars, match_dicts, plan_rows,
                       row_test, schedule, tuple_getter)


def order_key(values) -> tuple:
    return tuple((0, v) if isinstance(v, int) else (1, str(v)) for v in values)


# Match values are ints (element ids, counts) or strings. On those, native
# tuple comparison agrees with ``order_key`` wherever it raises no TypeError
# (an int meeting a str), so ``sorted``/``min`` run natively and fall back to
# the key only then. Both take a collection, which the fallback re-reads.

def in_order(tuples) -> list[tuple]:
    """``sorted(tuples, key=order_key)``."""
    try:
        return sorted(tuples)
    except TypeError:
        return sorted(tuples, key=order_key)


def least(tuples) -> tuple | None:
    """``min(tuples, key=order_key)``; None when ``tuples`` is empty."""
    try:
        return min(tuples, default=None)
    except TypeError:
        return min(tuples, key=order_key, default=None)


def binding_key(space: ModelSpace, p: Pattern,
                binding: dict | None) -> tuple[tuple[int, ...], tuple]:
    """The parameter positions ``binding`` binds, ascending, and their
    values. ``binding`` must bind parameters of ``p`` only, and its values
    must pass ``key_check``."""
    if not binding:
        return (), ()
    for var in binding:
        if var not in p.params:
            raise PatternError(f"{p.name}: {var} is not a parameter")
    positions = tuple(sorted(map(p.params.index, binding)))
    key = tuple([binding[p.params[i]] for i in positions])
    key_check(space, p, positions, key)
    return positions, key


def key_check(space: ModelSpace, p: Pattern, positions: tuple[int, ...], key: tuple) -> None:
    """The one check of a key of ``p`` at ``positions``: SpaceError, naming
    the pattern and the parameter, unless each value is an ``int`` (a
    ``bool`` is none) and, at an element parameter, a live element of
    ``space``."""
    is_live, counts = space.is_live, p.int_params
    for i, v in zip(positions, key):
        if type(v) is not int or not (is_live(v) or p.params[i] in counts):
            param = p.params[i]
            raise SpaceError(f"{p.name}: binding for {param} is not "
                             f"{'an integer' if param in counts else 'a live element'}")


class AnswerSet:
    """The answer tuples of one pattern, with hash indexes keyed by bound
    parameter positions. An index is built on the first ``reader`` with its
    positions and takes every tuple that ``add`` brings later."""

    __slots__ = ("tuples", "arity", "_indexes")

    def __init__(self, tuples: set[tuple], arity: int):
        self.tuples = tuples
        self.arity = arity
        # positions -> (key getter, key -> tuples with that key)
        self._indexes: dict[tuple[int, ...], tuple[Callable, dict]] = {}

    def reader(self, positions: tuple[int, ...]) -> Callable[[tuple], Collection[tuple]]:
        """``key ->`` the tuples whose values at ``positions`` (ascending)
        are ``key``; it reads the tuples that ``add`` brings later too."""
        tuples = self.tuples
        if not positions:
            return lambda key: tuples
        if len(positions) == self.arity:
            return lambda key: (key,) if key in tuples else ()
        entry = self._indexes.get(positions)
        if entry is None:
            getter = tuple_getter(positions)
            index: dict[tuple, list[tuple]] = {}
            for t in tuples:
                index.setdefault(getter(t), []).append(t)
            entry = self._indexes[positions] = (getter, index)
        index = entry[1]
        return lambda key: index.get(key, ())

    def add(self, new: set[tuple]) -> None:
        """Add ``new``, none of whose tuples is held yet."""
        self.tuples |= new
        for getter, index in self._indexes.values():
            for t in new:
                index.setdefault(getter(t), []).append(t)


# A step maps the list of partial rows to the next, given the matcher and
# the tabling bases. Steps take the matcher as an argument, so the programs a
# matcher keeps hold no reference back to it: a dropped matcher is freed at
# once, answer sets included, without waiting for the cycle collector.
Step = Callable[["LocalSearchMatcher", list, object], list]


class Program:
    """A search plan, made once on the model at its first use, its
    estimates, and the steps compiled from it when it first runs (a plan
    that only serves a caller's estimates never does).

    ``rows`` holds the rows each step is estimated to create from one seed
    row (``plan_rows``; None for a filter); ``keys``, for each call, how
    many distinct keys a step run must have for an unbound solve to pay
    (see ``_call``; None for other steps); ``domains`` the estimated number
    of values of each parameter in the body (None when no type or call
    constrains it). Once compiled, ``steps`` run in turn, ``project`` maps
    a last row onto the parameters and ``seed_elems`` reads the seed's
    element values, which must be distinct (None when there are fewer than
    two)."""

    __slots__ = ("plan", "rows", "keys", "domains", "steps", "project", "seed_elems")

    def __init__(self, plan: list, rows: list, keys: list, domains: tuple):
        self.plan, self.rows, self.keys, self.domains = plan, rows, keys, domains
        self.steps: list[Step] | None = None
        self.project: Callable[[tuple], tuple] | None = None
        self.seed_elems: Callable[[tuple], tuple] | None = None


@functools.cache
def candidate_filter(eqs: tuple, elems: tuple) -> Callable[[Iterable[tuple]], list] | None:
    """``cs ->`` the candidates equal at both positions of each pair in ``eqs``
    and distinct at ``elems`` (None: no test), one comprehension per shape."""
    terms = [f"c[{i:d}] == c[{j:d}]" for i, j in eqs]
    terms += [f"c[{i:d}] != c[{j:d}]" for i, j in combinations(elems, 2)]
    return eval(f"lambda cs: [c for c in cs if {' and '.join(terms)}]") if terms else None


def _extend_step(source: Callable, row_key: Callable | None, checks: list[tuple[int, int]],
                 eqs: list[tuple[int, int]], fresh: tuple[int, ...],
                 used_cols: list[int], fresh_elems: list[int]) -> Step:
    """The step that extends each row with the fresh values of its candidates.
    ``source(m, ctx, rows)``, for a step over ``rows``, gives the candidates
    or, unless ``row_key`` is None, the reader from ``row_key(row)`` to a
    row's candidates. Candidate positions are compared: ``checks`` pairs one
    with the row column its name is bound to, ``eqs`` pairs two that repeat
    one fresh name. ``fresh`` holds the positions of the new columns; the
    fresh element values among them (``fresh_elems``) must differ from each
    other and from the row's element values (``used_cols``)."""
    cand_key = tuple_getter(i for i, _ in checks) if checks else None
    bound_key = tuple_getter(j for _, j in checks)
    extract = tuple_getter(fresh)
    keep = candidate_filter(tuple(eqs), tuple(fresh_elems))
    new_elems = tuple_getter(fresh_elems)
    used = tuple_getter(used_cols) if used_cols and fresh_elems else None
    one = fresh_elems[0] if len(fresh_elems) == 1 else None

    if row_key is not None and not (fresh or checks):
        # the constraint only tests the row: keep the rows it has a candidate for
        return lambda m, rows, ctx: list(compress(
            rows, map(source(m, ctx, rows), map(row_key, rows))))

    def step(m, rows: list, ctx) -> list:
        if row_key is not None:
            fetch = source(m, ctx, rows)
        else:
            cands = source(m, ctx, rows)
            if keep is not None:
                cands = keep(cands)
            if cand_key is not None:
                index: dict[tuple, list] = {}
                for c in cands:
                    index.setdefault(cand_key(c), []).append(c)
        out = []
        for row in rows:
            if row_key is not None:
                cs = fetch(row_key(row))
                if cand_key is not None:
                    k = bound_key(row)
                    cs = [c for c in cs if cand_key(c) == k]
                if keep is not None:
                    cs = keep(cs)
            elif cand_key is not None:
                cs = index.get(bound_key(row), ())
            else:
                cs = cands
            if used is None:
                out += [row + extract(c) for c in cs]
            else:
                u = set(used(row))
                if one is not None:
                    out += [row + extract(c) for c in cs if c[one] not in u]
                else:
                    out += [row + extract(c) for c in cs if u.isdisjoint(new_elems(c))]
        return out
    return step


class LocalSearchMatcher:
    """Query interface over a space and a closed, validated pattern set."""

    def __init__(self, space: ModelSpace, patterns: Mapping[str, Pattern]):
        self.space = space
        self.patterns = dict(patterns)
        # plans by (pattern, body, bound positions)
        self._plans: dict[tuple, Program] = {}
        # answers at space.version == self._version: unbound answer sets and
        # tables by pattern, bound searches by (pattern, positions, key)
        self._version = -1
        self._held: dict[str, AnswerSet] = {}
        self._memo: dict[tuple, set[tuple]] = {}
        # how many enumerations (unbound solves, tabling) are under way
        self._enumerating = 0
        self.shuffle = None  # test hook: a random.Random that randomizes plans

    # -- public -------------------------------------------------------------

    def match_all(self, name: str, binding: dict | None = None) -> list[dict]:
        p = self.pattern(name)
        return match_dicts(p.params)(in_order(self._query(p, binding)))

    def count(self, name: str, binding: dict | None = None) -> int:
        return len(self._query(self.pattern(name), binding))

    def match_set(self, name: str, binding: dict | None = None) -> frozenset[tuple]:
        return frozenset(self._query(self.pattern(name), binding))

    def read(self, p: Pattern, positions: tuple[int, ...], key: tuple) -> Collection[tuple]:
        """The answer tuples of ``p`` whose values at ``positions``
        (ascending) are ``key``, a key that passed ``key_check``: the
        matcher's own collection, valid until the next change, which a
        caller must not change."""
        return self._solve(p, positions, key)

    def pattern(self, name: str) -> Pattern:
        """The pattern ``name``; PatternError if none or a GT postcondition."""
        p = self.patterns.get(name)
        if p is None or name.endswith("$post"):
            raise PatternError(f"unknown pattern {name}" if p is None else
                               f"{name} is a GT postcondition, not a matchable pattern")
        return p

    # -- plumbing -------------------------------------------------------------

    def _query(self, p: Pattern, binding: dict | None) -> Collection[tuple]:
        return self.read(p, *binding_key(self.space, p, binding))

    def _program(self, p: Pattern, bidx: int, positions: tuple[int, ...]) -> Program:
        """The plan of body ``bidx`` of ``p`` with the parameters at
        ``positions`` bound: planned on the model at its first use and kept
        for the matcher's life."""
        key = (p.name, bidx, positions)
        prog = self._plans.get(key)
        if prog is None:
            prog = self._plans[key] = self._compile(p, bidx, positions)
        return prog

    # -- evaluation -----------------------------------------------------------

    def _sync(self) -> None:
        if self._version != self.space.version:
            self._held.clear()
            self._memo.clear()
            self._version = self.space.version

    def _solve(self, p: Pattern, positions: tuple[int, ...], key: tuple) -> Collection[tuple]:
        """The answers of ``p`` whose values at ``positions`` are ``key``:
        read through the index of ``p``'s unbound answer set when that is
        held (tabled first, for a recursive ``p``), else searched with the
        binding as the seed row and memoized by it."""
        self._sync()
        held = self._held.get(p.name)
        if held is None and p.recursive:
            held = self._table(p)
        if held is not None:
            return held.reader(positions)(key)

        if positions:
            memo_key = (p.name, positions, key)
            hit = self._memo.get(memo_key)
            if hit is not None:
                return hit
        out: set[tuple] = set()
        enumerating = 0 if positions else 1
        self._enumerating += enumerating
        try:
            for bidx in range(len(p.bodies)):
                out.update(self._eval_body(p, bidx, positions, key, None))
        finally:
            self._enumerating -= enumerating
        if positions:
            self._memo[memo_key] = out
        else:
            self._held[p.name] = AnswerSet(out, len(p.params))
        return out

    def _eval_body(self, p: Pattern, bidx: int, positions: tuple[int, ...],
                   key: tuple, ctx) -> Iterable[tuple]:
        """The parameter tuples of the matches of body ``bidx`` of ``p``
        whose values at ``positions`` are ``key``. ``ctx`` maps the members
        of a call cycle under tabling to the bases their calls read."""
        prog = (self._program(p, bidx, positions) if self.shuffle is None
                else self._compile(p, bidx, positions, self.shuffle))
        if prog.steps is None:
            self._compile_steps(p, bidx, positions, prog)
        if prog.seed_elems is not None:
            vals = prog.seed_elems(key)
            if len(set(vals)) < len(vals):
                return ()
        rows = [key]
        for step in prog.steps:
            rows = step(self, rows, ctx)
            if not rows:
                return ()
        return map(prog.project, rows)

    def _compile(self, p: Pattern, bidx: int, positions: tuple[int, ...],
                 shuffle=None) -> Program:
        """Plan body ``bidx`` of ``p`` for the parameters at ``positions``
        (at random under ``shuffle``), with its estimates."""
        body = p.bodies[bidx]
        bound = [p.params[i] for i in positions]
        for v in body.unbound_params:
            if v not in bound:
                raise PatternError(f"{p.name}: parameter {v} is read only in a neg, "
                                   f"count or check, so a read must bind it")
        estimate, size, domain = self._estimator(body)
        plan = schedule(body.constraints, p.params, frozenset(bound), estimate, shuffle)
        keys, have = [], set(bound)
        for c in plan:
            keys.append((1 + size(c)) / (1 + estimate(c, have))
                        if isinstance(c, CALLS) else None)
            if isinstance(c, POSITIVE):
                have.update(constraint_vars(c))
            elif isinstance(c, CountC):
                have.add(c.out)
        return Program(plan, plan_rows(plan, bound, estimate), keys,
                       tuple(map(domain.get, p.params)))

    def _compile_steps(self, p: Pattern, bidx: int, positions: tuple[int, ...],
                       prog: Program) -> None:
        """Compile ``prog``, the plan of body ``bidx`` of ``p`` for the
        parameters at ``positions``, into steps over rows whose columns are
        ``cols``: the seed's, then each variable a step binds, in that
        order."""
        body = p.bodies[bidx]
        cols = [p.params[i] for i in positions]
        elem = frozenset() if p.shareable else body.element_vars
        seed_elems = [k for k, v in enumerate(cols) if v in elem]
        steps = []
        for c, limit in zip(prog.plan, prog.keys):
            col = {v: k for k, v in enumerate(cols)}
            if isinstance(c, CheckC):
                steps.append(self._check_step(c.expr, cols))
                continue
            if isinstance(c, NegC):
                steps.append(self._neg_step(c, col, limit))
                continue
            if isinstance(c, EntityC) and c.in_var is None and c.var in col:
                steps.append(self._member_step(c.type, col[c.var]))
                continue
            # candidates align with ``names``; ``given``: their positions the
            # source already matched to the row
            names = (c.out,) if isinstance(c, CountC) else constraint_vars(c)
            source, row_key, given = self._source(c, col, limit)
            checks, eqs, fresh = [], [], {}
            for pos, v in enumerate(names):
                if v in col:
                    if pos not in given:
                        checks.append((pos, col[v]))
                elif v in fresh:
                    eqs.append((fresh[v], pos))
                else:
                    fresh[v] = pos
            rest = (eqs, tuple(fresh.values()),
                    [k for k, v in enumerate(cols) if v in elem],
                    [pos for v, pos in fresh.items() if v in elem])
            step = _extend_step(source, row_key, checks, *rest)
            if isinstance(c, RelationC) and c.rel not in col and (c.src in col or c.trg in col):
                # walked from a bound end; the alternative reads the type's
                # relations once and hashes them by that end
                end = 1 if c.src in col else 2
                j = col[names[end]]
                scan = _extend_step(self._source(c, {})[0], None,
                                    [(end, j)] + checks, *rest)
                step = self._walk_or_scan(c, j, end == 1, step, scan)
            steps.append(step)
            cols.extend(fresh)
        prog.project = tuple_getter(cols.index(v) for v in p.params)
        prog.seed_elems = tuple_getter(seed_elems) if len(seed_elems) > 1 else None
        prog.steps = steps

    # -- estimates ------------------------------------------------------------

    def _estimator(self, body: Body) -> tuple[Callable, Callable, dict]:
        """``estimate(c, have)``, the rows a positive constraint or a call
        ``c`` of ``body`` creates for each row whose variables ``have`` are
        bound; ``size(c)``, the rows it holds unbound; and the domain of
        each variable that a positive constraint binds: the fewest values
        one of them allows it. Type counts are read from the model as it is
        when the body is planned, a call's rows from its callee's kept plans.

        A type scan creates ``count_of_type`` rows and a call the callee's
        unbound rows (``_callee``). Each bound variable divides them by the
        values it selects from: the least of those rows, the values of its
        position (the type's count for an entity or a relation variable,
        the callee's number of values for an argument, none known for a
        relation's end) and the variable's domain. An untyped relation's
        end may be any element, so it selects from as many values as there
        are relations."""
        count = self.space.count_of_type
        sizes = []
        for c in body.constraints:
            if isinstance(c, EntityC):
                n = count(c.type)
                sizes.append((c, n, ((c.var, n),)))
            elif isinstance(c, RelationC):
                n = count(c.type)
                sizes.append((c, n, ((c.rel, n), (c.src, None), (c.trg, None))))
            elif isinstance(c, CALLS):
                rows, distinct = self._callee(self.patterns[c.pattern])
                sizes.append((c, rows, tuple(zip(c.args, distinct))))
        domain: dict[str, float] = {}
        for c, _, ends in sizes:
            if isinstance(c, POSITIVE):
                for v, d in ends:
                    if d is not None and d < domain.get(v, d + 1):
                        domain[v] = d
        # id(c) -> (rows unbound, (variable, values a bound one selects from))
        table = {}
        for c, n, ends in sizes:
            anywhere = isinstance(c, RelationC) and c.type is None
            table[id(c)] = (n, tuple(
                (v, n if anywhere else min(n, domain.get(v, n), n if d is None else d))
                for v, d in ends))

        def estimate(c, have) -> float:
            rows, ends = table[id(c)]
            for v, d in ends:
                if v in have:
                    rows = rows / d if d else 0.0
            return rows
        return estimate, lambda c: table[id(c)][0], domain

    @staticmethod
    def _base(q: Pattern) -> list[int]:
        """The bodies of ``q`` that call no member of its recursion cycle."""
        return [b for b, body in enumerate(q.bodies) if not q.recursive or not any(
            isinstance(c, FindC) and c.pattern in q.scc_members for c in body.constraints)]

    def _callee(self, q: Pattern) -> tuple[float, tuple[float, ...]]:
        """The rows ``q``'s unbound answer set is estimated to hold, those
        its base bodies' unbound plans end with (a recursive pattern's
        tabled rounds are not estimated); and the estimated number of values
        of each parameter: its largest domain among those bodies, at most
        the rows. Those plans are the ones ``_program`` keeps, made on the
        model at their first use. A base body calls only patterns below
        ``q``'s cycle, so planning them nests along the call chain as deep
        as evaluating them does, and no deeper."""
        rows, domains = 0.0, [0.0] * len(q.params)
        for b in self._base(q):
            prog = self._program(q, b, ())
            rows += next((r for r in reversed(prog.rows) if r is not None), 1.0)
            domains = [None if d is None or e is None else max(d, e)
                       for d, e in zip(domains, prog.domains)]
        return rows, tuple(rows if d is None else min(rows, d) for d in domains)

    def _walk_or_scan(self, c: RelationC, j: int, out: bool, walk: Step,
                      scan: Step) -> Step:
        """The step of relation constraint ``c`` whose source (``out``) or
        target is bound in row column ``j``. It runs ``walk``, which reads
        the relations at each row's end, unless that would read more
        relations than ``c``'s type holds; then it runs ``scan``, which
        reads the type's relations once and answers every row from them,
        grouped by that end."""
        ids, size, type_name = self.space.relation_ids, self.space.count_of_type, c.type

        def step(m, rows: list, ctx) -> list:
            budget = size(type_name)
            for row in rows:
                budget -= len(ids(row[j], out))
                if budget < 0:
                    return scan(m, rows, ctx)
            return walk(m, rows, ctx)
        return step

    def _source(self, c, col: dict[str, int],
                limit: float | None = None) -> tuple[Callable, Callable | None, set[int]]:
        """The candidate source of a positive constraint or a count over
        rows with columns ``col``: a function of the matcher, the tabling
        bases and the step's rows ``(m, ctx, rows)`` that gives the
        candidates or, unless the second item is None, the reader from a key
        to a row's candidates, with that item the getter of the key from a
        row; and the candidate positions the reader matches to the row
        itself. What a step reads for every row is resolved once, when the
        step starts. ``limit`` is a call's threshold (see ``_call``)."""
        if isinstance(c, (EntityC, RelationC)):
            space, type_name = self.space, c.type
            ends = (c.var,) if isinstance(c, EntityC) else (c.rel, c.src, c.trg)
            at = next((k for k, v in enumerate(ends) if v in col), None)
            read = (space.rows_at(type_name, at) if at is not None
                    else lambda key: space.rows(type_name))
            if isinstance(c, EntityC) and c.in_var is not None:
                # `in <namespace>` is containment under the root: vacuously true
                rows, ancestors = read, space.ancestors

                def read(key):
                    return [(e, anc) for (e,) in rows(key) for anc in ancestors(e)]
            if at is None:
                return (lambda m, ctx, rows: read(())), None, set()
            return (lambda m, ctx, rows: read), tuple_getter((col[ends[at]],)), {at}

        positions, key, prepare = self._call(c, col, limit)
        if isinstance(c, CountC):
            consistent, answers = consistency_test(c.args), prepare

            def prepare(m, ctx, rows):
                read = answers(m, ctx, rows)
                return lambda k: ((consistent_count(read(k), consistent),),)
        if not positions:
            return (lambda m, ctx, rows: prepare(m, ctx, rows)(())), None, set()
        return prepare, key, set() if isinstance(c, CountC) else set(positions)

    def _call(self, c, col: dict[str, int], limit: float):
        """For a call whose bound arguments are the variables in ``col``:
        the bound argument positions (the callee's bound parameter
        positions), the getter of their values from a row, and
        ``prepare(m, ctx, rows)``, which gives the reader from such a key to
        the callee's answers with it, for a step over ``rows``.

        ``prepare`` decides once per step run. It reads the tabling base
        ``ctx`` holds for the callee, else the index of the callee's unbound
        answer set held by the matcher ``m``. Failing both, below an
        enumeration, a step whose rows hold more distinct keys than
        ``limit`` solves the callee unbound first and reads that set's
        index; otherwise each key is solved on its own, memoized by
        ``_solve``. ``limit`` is the plan's threshold for this call: a
        search reads its seed row and creates the rows the call is
        estimated to create for each row, an unbound solve reads one seed
        row and creates the callee's unbound rows, so more than ``limit``
        distinct keys are worth an unbound solve."""
        callee = self.patterns[c.pattern]
        name = callee.name
        positions = tuple([j for j, a in enumerate(c.args) if a in col])
        row_key = tuple_getter(col[c.args[j]] for j in positions)

        def prepare(m, ctx, rows: list) -> Callable[[tuple], Collection[tuple]]:
            if ctx is not None and name in ctx:
                return ctx[name].reader(positions)
            answers = m._held.get(name)
            if answers is None and m._enumerating and len(set(map(row_key, rows))) > limit:
                m._solve(callee, (), ())
                answers = m._held[name]
            if answers is not None:
                return answers.reader(positions)
            solve = m._solve
            return lambda key: solve(callee, positions, key)
        return positions, row_key, prepare

    def _neg_step(self, c: NegC, col: dict[str, int], limit: float) -> Step:
        """Keep the rows for which the callee has no consistent match."""
        positions, key, prepare = self._call(c, col, limit)
        consistent = consistency_test(c.args)
        if not positions:
            return lambda m, rows, ctx: (
                [] if consistent_count(prepare(m, ctx, rows)(()), consistent) else rows)

        def step(m, rows: list, ctx) -> list:
            read = prepare(m, ctx, rows)
            return [r for r in rows if not consistent_count(read(key(r)), consistent)]
        return step

    def _member_step(self, type_name: str, j: int) -> Step:
        """Keep the rows whose column ``j`` is an element of ``type_name``."""
        conforming = self.space.conforming
        return lambda m, rows, ctx: conforming(type_name, j, rows)

    def _check_step(self, expr: ex.Expr, cols: list[str]) -> Step:
        """Keep the rows, whose columns are ``cols``, on which ``expr`` holds."""
        passes = row_test(expr, cols, self.space)
        return lambda m, rows, ctx: list(filter(passes, rows))

    # -- recursion ------------------------------------------------------------

    def _table(self, p: Pattern) -> AnswerSet:
        """Tabulate ``p``'s call cycle; every member's table is then held."""
        self._enumerating += 1
        try:
            tabs = self._fixpoint([self.patterns[n] for n in p.scc_members])
        finally:
            self._enumerating -= 1
        self._held.update(tabs)
        return tabs[p.name]

    def _fixpoint(self, members: list[Pattern]) -> dict[str, AnswerSet]:
        """The least fixpoint of a call cycle's ``members``, by name."""
        names = {m.name for m in members}

        def empty() -> dict[str, AnswerSet]:
            return {m.name: AnswerSet(set(), len(m.params)) for m in members}

        def scc_calls(body: Body):
            return [c for c in body.constraints
                    if isinstance(c, FindC) and c.pattern in names]

        tabs = empty()
        deltas = empty()
        for m in members:
            for bidx, body in enumerate(m.bodies):
                if scc_calls(body):
                    continue
                deltas[m.name].tuples.update(self._eval_body(m, bidx, (), (), None))
        for n in names:
            tabs[n].add(deltas[n].tuples)

        while any(d.tuples for d in deltas.values()):
            new = empty()
            for m in members:
                for bidx, body in enumerate(m.bodies):
                    calls = scc_calls(body)
                    if not calls:
                        continue
                    if len(calls) == 1:
                        target = calls[0].pattern
                        if not deltas[target].tuples:
                            continue
                        ctx = dict(tabs)
                        ctx[target] = deltas[target]
                    else:
                        ctx = tabs  # naive round for multi-call bodies
                    new[m.name].tuples.update(
                        t for t in self._eval_body(m, bidx, (), (), ctx)
                        if t not in tabs[m.name].tuples)
            deltas = new
            for n in names:
                tabs[n].add(new[n].tuples)
        return tabs
