"""Backtracking local-search pattern matcher.

Evaluates validated patterns on demand against the current space. Plans are
chosen greedily per (pattern, bound-parameter set) and cached; recursive
patterns are evaluated by least-fixpoint tabling over their call cycle
(semi-naive for bodies with a single in-cycle call), so evaluation terminates
on cyclic graphs. Match order is deterministic: sorted by bound values.

A plan step extends the binding in one place. Each positive constraint, and
a ``#`` count, yields candidate rows aligned with the variables it binds:
``(e,)`` or ``(e, ancestor)`` for an entity, ``(relation, source, target)``
for a relation, the callee's answer tuples for a ``find`` and ``(n,)`` for a
count. Bound variables narrow the rows where an index serves them. One unify
step checks bound variables for equality, binds fresh ones (element values
pairwise distinct unless the pattern is shareable) and undoes them on
backtracking. Checks and ``neg`` calls only filter.

Answers are memoized per ``space.version``; the first query after a change
drops them all. A pattern's unbound answer set, once held (searched, or
tabled for a recursive pattern), also answers every bound call to it through
a hash index keyed by the bound parameter positions, built on first use.
A bound call whose pattern has no unbound set held is searched with its
binding pushed down, and its answers are memoized by binding. Below an
enumeration (an unbound solve or a tabling fixpoint on the stack), the
second bound search of a pattern in one version solves that pattern unbound
instead, and its index answers that call and every later one: an
enumeration calls a pattern with many keys, while a top-level bound query
never builds an unbound set. The tabling bases (table and delta of each
cycle member) are indexed the same way, and an index of a growing table
takes each added tuple, so none serves a stale set.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Iterator, Mapping

from . import expr as ex
from .errors import PatternError, SpaceError
from .modelspace import RELATION, ModelSpace
from .patterns import (Body, CheckC, CountC, EntityC, FindC, NegC, Pattern,
                       RelationC, consistency_test, schedule, tuple_getter)


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


def checked_binding(space: ModelSpace, p: Pattern, binding: dict | None) -> dict:
    """A copy of ``binding``, which must bind parameters of ``p`` only, each
    element parameter to a live element of ``space``."""
    if not binding:
        return {}
    for var, val in binding.items():
        if var not in p.params:
            raise PatternError(f"{p.name}: {var} is not a parameter")
        if var not in p.int_params and not ex.is_element(val, space):
            raise SpaceError(f"{p.name}: binding for {var} is not a live element")
    return dict(binding)


class AnswerSet:
    """The answer tuples of one pattern, with hash indexes keyed by bound
    parameter positions. An index is built on the first lookup with its
    positions and takes every tuple that ``add`` brings later."""

    __slots__ = ("tuples", "arity", "_indexes")

    def __init__(self, tuples: set[tuple], arity: int):
        self.tuples = tuples
        self.arity = arity
        # positions -> (key getter, key -> tuples with that key)
        self._indexes: dict[tuple[int, ...], tuple[Callable, dict]] = {}

    def lookup(self, positions: tuple[int, ...], key: tuple) -> Collection[tuple]:
        """The tuples whose values at ``positions`` (ascending) are ``key``."""
        if not positions:
            return self.tuples
        if len(positions) == self.arity:
            return (key,) if key in self.tuples else ()
        entry = self._indexes.get(positions)
        if entry is None:
            getter = tuple_getter(positions)
            index: dict[tuple, list[tuple]] = {}
            for t in self.tuples:
                index.setdefault(getter(t), []).append(t)
            entry = self._indexes[positions] = (getter, index)
        return entry[1].get(key, ())

    def add(self, new: set[tuple]) -> None:
        """Add ``new``, none of whose tuples is held yet."""
        self.tuples |= new
        for getter, index in self._indexes.values():
            for t in new:
                index.setdefault(getter(t), []).append(t)


class LocalSearchMatcher:
    """Query interface over a space and a closed, validated pattern set."""

    def __init__(self, space: ModelSpace, patterns: Mapping[str, Pattern]):
        self.space = space
        self.patterns = dict(patterns)
        self._plans: dict = {}
        # answers at space.version == self._version: unbound answer sets and
        # tables by pattern, bound searches by (pattern, positions, key)
        self._version = -1
        self._held: dict[str, AnswerSet] = {}
        self._memo: dict[tuple, set[tuple]] = {}
        # patterns that had a bound search at self._version, and how many
        # enumerations (unbound solves, tabling) are under way
        self._searched: set[str] = set()
        self._enumerating = 0
        self.shuffle = None  # test hook: a random.Random that randomizes plans

    # -- public -------------------------------------------------------------

    def match_all(self, name: str, binding: dict | None = None) -> list[dict]:
        p = self._pattern(name)
        tuples = self._query(p, binding)
        params = p.params
        return [dict(zip(params, t)) for t in in_order(tuples)]

    def count(self, name: str, binding: dict | None = None) -> int:
        return len(self._query(self._pattern(name), binding))

    def match_set(self, name: str, binding: dict | None = None) -> frozenset[tuple]:
        return frozenset(self._query(self._pattern(name), binding))

    # -- plumbing -------------------------------------------------------------

    def _pattern(self, name: str) -> Pattern:
        try:
            return self.patterns[name]
        except KeyError:
            raise PatternError(f"unknown pattern {name}") from None

    def _query(self, p: Pattern, binding: dict | None) -> Collection[tuple]:
        b = checked_binding(self.space, p, binding)
        positions = tuple(sorted(p.params.index(v) for v in b))
        return self._solve(p, positions, tuple(b[p.params[i]] for i in positions))

    def _plan(self, p: Pattern, bidx: int, body: Body, bound: frozenset):
        if self.shuffle is not None:
            return schedule(body.constraints, p.params, bound, self._size_hint,
                            shuffle=self.shuffle)
        key = (p.name, bidx, bound)
        plan = self._plans.get(key)
        if plan is None:
            plan = schedule(body.constraints, p.params, bound, self._size_hint)
            self._plans[key] = plan
        return plan

    def _size_hint(self, c) -> int:
        if isinstance(c, EntityC):
            return self.space.count_of_type(c.type)
        if isinstance(c, RelationC):
            if c.type is None:
                return self.space.relation_count()
            return self.space.count_of_type(c.type)
        # a call: a partly bound one ranks ahead of a type scan of 2 or more
        return 1

    # -- evaluation -----------------------------------------------------------

    def _sync(self) -> None:
        if self._version != self.space.version:
            self._held.clear()
            self._memo.clear()
            self._searched.clear()
            self._version = self.space.version

    def _solve(self, p: Pattern, positions: tuple[int, ...],
               key: tuple) -> Collection[tuple]:
        """The answers of ``p`` whose values at ``positions`` are ``key``."""
        self._sync()
        held = self._held.get(p.name)
        if held is None and p.recursive:
            held = self._table(p)
        if held is not None:
            return held.lookup(positions, key)

        if positions:
            memo_key = (p.name, positions, key)
            hit = self._memo.get(memo_key)
            if hit is not None:
                return hit
            if self._enumerating and p.name in self._searched:
                # an enumeration calls p bound with one more key: solve p
                # unbound once and answer this call and the later ones from
                # its index (a top-level bound query never gets here)
                self._solve(p, (), ())
                return self._held[p.name].lookup(positions, key)
            self._searched.add(p.name)
        seed = {p.params[i]: v for i, v in zip(positions, key)}
        out: set[tuple] = set()
        enumerating = 0 if positions else 1
        self._enumerating += enumerating
        try:
            for bidx, body in enumerate(p.bodies):
                out.update(self._eval_body(p, bidx, body, seed, None))
        finally:
            self._enumerating -= enumerating
        if positions:
            self._memo[memo_key] = out
        else:
            self._held[p.name] = AnswerSet(out, len(p.params))
        return out

    def _call_matches(self, callee: Pattern, args: tuple[str, ...], env: dict,
                      scc_ctx) -> Iterable[tuple]:
        """Tuples of the callee's match set consistent with bound args and
        with repeated argument variables."""
        # callee parameters align with the arguments, so bound argument
        # positions are the callee's bound parameter positions
        positions = tuple([j for j, a in enumerate(args) if a in env])
        key = tuple([env[args[j]] for j in positions])
        if scc_ctx is not None and callee.name in scc_ctx:
            sub = scc_ctx[callee.name].lookup(positions, key)
        else:
            sub = self._solve(callee, positions, key)
        consistent = consistency_test(args)
        return sub if consistent is None else filter(consistent, sub)

    def _eval_body(self, p: Pattern, bidx: int, body: Body, seed: dict,
                   scc_ctx) -> Iterator[tuple]:
        """The parameter tuples of the body's matches that extend ``seed``."""
        plan = self._plan(p, bidx, body, frozenset(seed))
        space = self.space
        env = dict(seed)
        elem = frozenset() if p.shareable else body.element_vars
        vals = [val for var, val in seed.items() if var in elem]
        used = set(vals)
        if len(used) < len(vals):
            return

        def bindings(i: int) -> Iterator[None]:
            if i == len(plan):
                yield None
                return
            c = plan[i]
            if isinstance(c, CheckC):
                if ex.holds(c.expr, env.__getitem__, space):
                    yield from bindings(i + 1)
                return
            if isinstance(c, NegC):
                callee = self.patterns[c.pattern]
                for _ in self._call_matches(callee, c.args, env, scc_ctx):
                    return
                yield from bindings(i + 1)
                return
            # unify: bound variables must agree with the row, fresh ones
            # take its values (distinct element values unless shareable)
            names, rows = self._rows(c, env, scc_ctx)
            for row in rows:
                fresh = []
                for var, val in zip(names, row):
                    if var in env:
                        if env[var] != val:
                            break
                    elif var in elem and val in used:
                        break
                    else:
                        env[var] = val
                        fresh.append(var)
                        if var in elem:
                            used.add(val)
                else:
                    yield from bindings(i + 1)
                for var in fresh:
                    val = env.pop(var)
                    if var in elem:
                        used.discard(val)

        params = p.params
        for _ in bindings(0):
            yield tuple([env[x] for x in params])

    def _rows(self, c, env: dict,
              scc_ctx) -> tuple[tuple[str, ...], Iterable[tuple]]:
        """The variables a positive constraint or a count binds, and its
        candidate rows aligned with them. Bound variables narrow the rows
        where an index serves them; the unify step checks the rest."""
        # type tests read the fetched element's types against the subtype
        # closure, resolved once per call (``ModelSpace.conforms`` would look
        # up both again for every row)
        space = self.space
        if isinstance(c, EntityC):
            if c.var in env:
                e = env[c.var]
                es = (e,) if space.is_live(e) and not space.element(e).types.isdisjoint(
                    space.registry.subtype_closure(c.type)) else ()
            else:
                es = space.elements_of_type(c.type)
            # `in <namespace>` is containment under the root: vacuously true
            if c.in_var is None:
                return (c.var,), zip(es)
            return (c.var, c.in_var), [(e, anc) for e in es
                                       for anc in space.ancestors(e)]
        if isinstance(c, RelationC):
            typed = c.type is not None
            if c.rel in env:
                rid = env[c.rel]
                rids = (rid,) if space.is_live(rid) and space.kind(rid) == RELATION else ()
            elif c.src in env:
                rids = space.relations_from(env[c.src])
            elif c.trg in env:
                rids = space.relations_to(env[c.trg])
            else:
                rids = space.elements_of_type(c.type) if typed else space.iter_relations()
                typed = False
            subtypes = space.registry.subtype_closure(c.type) if typed else None
            return (c.rel, c.src, c.trg), [
                (el.id, el.source, el.target) for el in map(space.element, rids)
                if subtypes is None or not el.types.isdisjoint(subtypes)]
        matches = self._call_matches(self.patterns[c.pattern], c.args, env, scc_ctx)
        if isinstance(c, CountC):
            return (c.out,), ((sum(1 for _ in matches),),)
        return c.args, matches

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
                deltas[m.name].tuples.update(self._eval_body(m, bidx, body, {}, None))
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
                        t for t in self._eval_body(m, bidx, body, {}, ctx)
                        if t not in tabs[m.name].tuples)
            deltas = new
            for n in names:
                tabs[n].add(new[n].tuples)
        return tabs
