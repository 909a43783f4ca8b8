"""Backtracking local-search pattern matcher.

Evaluates validated patterns on demand against the current space. Plans are
chosen greedily per (pattern, bound-parameter set) and cached; recursive
patterns are evaluated by least-fixpoint tabling over their call cycle
(semi-naive for bodies with a single in-cycle call), so evaluation terminates
on cyclic graphs. Match order is deterministic: sorted by bound values.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Optional

from . import expr as ex
from .errors import PatternError, SpaceError
from .modelspace import RELATION, ModelSpace
from .patterns import (Body, CheckC, CountC, EntityC, FindC, NegC, Pattern,
                       RelationC, consistency_test, schedule)


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


class LocalSearchMatcher:
    """Query interface over a space and a closed, validated pattern set."""

    def __init__(self, space: ModelSpace, patterns: Mapping[str, Pattern]):
        self.space = space
        self.patterns = dict(patterns)
        self._plans: dict = {}
        self._memo_version = -1
        self._memo: dict = {}
        self._tables: dict[str, set[tuple]] = {}
        # call arguments -> their repeated-variable test (None: no repeat)
        self._arg_tests: dict[tuple[str, ...], Callable[[tuple], bool] | None] = {}
        self.shuffle = None  # test hook: random.Random for plan randomization

    # -- public -------------------------------------------------------------

    def match_all(self, name: str, binding: dict | None = None) -> list[dict]:
        p = self._pattern(name)
        b = self._checked_binding(p, binding)
        tuples = self._solve(p, b)
        params = p.params
        return [dict(zip(params, t)) for t in in_order(tuples)]

    def match_one(self, name: str, binding: dict | None = None) -> Optional[dict]:
        all_ = self.match_all(name, binding)
        return all_[0] if all_ else None

    def count(self, name: str, binding: dict | None = None) -> int:
        p = self._pattern(name)
        return len(self._solve(p, self._checked_binding(p, binding)))

    def match_set(self, name: str, binding: dict | None = None) -> frozenset[tuple]:
        p = self._pattern(name)
        return frozenset(self._solve(p, self._checked_binding(p, binding)))

    # -- plumbing -------------------------------------------------------------

    def _pattern(self, name: str) -> Pattern:
        try:
            return self.patterns[name]
        except KeyError:
            raise PatternError(f"unknown pattern {name}") from None

    def _checked_binding(self, p: Pattern, binding: dict | None) -> dict:
        if not binding:
            return {}
        for var, val in binding.items():
            if var not in p.params:
                raise PatternError(f"{p.name}: {var} is not a parameter")
            if var not in p.int_params:
                if not isinstance(val, int) or not self.space.is_live(val):
                    raise SpaceError(f"{p.name}: binding for {var} is not a live element")
        return dict(binding)

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
            return len(self.space.elements_of_type(c.type))
        if isinstance(c, RelationC):
            if c.type is None:
                return len(self.space.iter_relations())
            return len(self.space.elements_of_type(c.type))
        return 8

    # -- evaluation -----------------------------------------------------------

    def _solve(self, p: Pattern, binding: dict) -> set[tuple]:
        if p.recursive:
            table = self._table(p)
            if not binding:
                return set(table)
            idx = [p.params.index(v) for v in binding]
            vals = list(binding.values())
            return {t for t in table if all(t[i] == v for i, v in zip(idx, vals))}

        if self.shuffle is None:
            if self._memo_version != self.space.version:
                self._memo.clear()
                self._memo_version = self.space.version
            key = (p.name, tuple(sorted(binding.items())))
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        out: set[tuple] = set()
        for bidx, body in enumerate(p.bodies):
            for env in self._eval_body(p, bidx, body, binding, None):
                out.add(tuple(env[x] for x in p.params))
        if self.shuffle is None:
            self._memo[key] = out
        return out

    def _call_matches(self, callee: Pattern, args: tuple[str, ...], env: dict,
                      scc_ctx) -> Iterable[tuple]:
        """Tuples of the callee's match set consistent with bound args and
        with repeated argument variables."""
        # callee parameters are distinct, so each bound argument pins one
        push = {param: env[a] for param, a in zip(callee.params, args) if a in env}
        if scc_ctx is not None and callee.name in scc_ctx:
            base = scc_ctx[callee.name]
            params = callee.params
            sub = (t for t in base
                   if all(push[x] == t[i] for i, x in enumerate(params) if x in push))
        else:
            sub = self._solve(callee, push)
        try:
            consistent = self._arg_tests[args]
        except KeyError:
            consistent = self._arg_tests[args] = consistency_test(args)
        return sub if consistent is None else filter(consistent, sub)

    def _eval_body(self, p: Pattern, bidx: int, body: Body, seed: dict,
                   scc_ctx) -> Iterator[dict]:
        info = body.info
        plan = self._plan(p, bidx, body, frozenset(seed))
        space = self.space
        env = dict(seed)
        injective = not p.shareable
        used: set = set()
        if injective:
            vals = [env[v] for v in info.element_vars if v in env]
            if len(vals) != len(set(vals)):
                return
            used.update(vals)

        elem = info.element_vars

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
            if isinstance(c, CountC):
                callee = self.patterns[c.pattern]
                n = sum(1 for _ in self._call_matches(callee, c.args, env, scc_ctx))
                if c.out in env:
                    if env[c.out] == n:
                        yield from bindings(i + 1)
                else:
                    env[c.out] = n
                    yield from bindings(i + 1)
                    del env[c.out]
                return
            if isinstance(c, FindC):
                callee = self.patterns[c.pattern]
                for t in self._call_matches(callee, c.args, env, scc_ctx):
                    fresh: list[str] = []
                    ok = True
                    for j, a in enumerate(c.args):
                        if a in env:
                            continue
                        v = t[j]
                        if injective and a in elem and v in used:
                            ok = False
                        else:
                            env[a] = v
                            fresh.append(a)
                            if a in elem:
                                used.add(v)
                        if not ok:
                            break
                    if ok:
                        yield from bindings(i + 1)
                    for a in fresh:
                        if a in elem:
                            used.discard(env[a])
                        del env[a]
                return
            if isinstance(c, EntityC):
                yield from self._eval_entity(c, env, used, injective, elem, i, bindings)
                return
            if isinstance(c, RelationC):
                yield from self._eval_relation(c, env, used, injective, elem, i, bindings)
                return
            raise AssertionError(c)

        for _ in bindings(0):
            yield env

    def _bind(self, var, val, env, used, injective, elem) -> bool:
        if injective and var in elem and val in used:
            return False
        env[var] = val
        if var in elem:
            used.add(val)
        return True

    def _unbind(self, var, env, used, elem):
        if var in elem:
            used.discard(env[var])
        del env[var]

    def _eval_entity(self, c: EntityC, env, used, injective, elem, i, bindings):
        space = self.space
        if c.var in env:
            candidates = [env[c.var]] if (space.is_live(env[c.var]) and
                                          space.conforms(env[c.var], c.type)) else []
        else:
            candidates = space.elements_of_type(c.type)
        for v in candidates:
            fresh_var = c.var not in env
            if fresh_var and not self._bind(c.var, v, env, used, injective, elem):
                continue
            # `in <namespace>` is containment under the root: vacuously true
            if c.in_var is None:
                yield from bindings(i + 1)
            elif c.in_var in env:
                if space.contains(env[c.in_var], v):
                    yield from bindings(i + 1)
            else:
                for anc in space.ancestors(v):
                    if self._bind(c.in_var, anc, env, used, injective, elem):
                        yield from bindings(i + 1)
                        self._unbind(c.in_var, env, used, elem)
            if fresh_var:
                self._unbind(c.var, env, used, elem)

    def _eval_relation(self, c: RelationC, env, used, injective, elem, i, bindings):
        space = self.space
        if c.rel in env:
            rid = env[c.rel]
            candidates = [rid] if (space.is_live(rid) and
                                   space.kind(rid) == RELATION and
                                   (c.type is None or space.conforms(rid, c.type))) else []
        elif c.src in env:
            src = env[c.src]
            candidates = [r for r in sorted(space.relations_from(src))
                          if c.type is None or space.conforms(r, c.type)]
        elif c.trg in env:
            trg = env[c.trg]
            candidates = [r for r in sorted(space.relations_to(trg))
                          if c.type is None or space.conforms(r, c.type)]
        elif c.type is not None:
            candidates = space.elements_of_type(c.type)
        else:
            candidates = space.iter_relations()
        for rid in candidates:
            el = space.element(rid)
            bound_here: list[str] = []
            ok = True
            for var, val in ((c.rel, rid), (c.src, el.source), (c.trg, el.target)):
                if var in env:
                    if env[var] != val:
                        ok = False
                        break
                else:
                    if not self._bind(var, val, env, used, injective, elem):
                        ok = False
                        break
                    bound_here.append(var)
            if ok:
                yield from bindings(i + 1)
            for var in reversed(bound_here):
                self._unbind(var, env, used, elem)

    # -- recursion ------------------------------------------------------------

    def _table(self, p: Pattern) -> set[tuple]:
        if self._memo_version != self.space.version:
            self._memo.clear()
            self._tables.clear()
            self._memo_version = self.space.version
        cached = self._tables.get(p.name)
        if cached is not None:
            return cached
        members = [self.patterns[n] for n in p.scc_members]
        names = {m.name for m in members}
        tabs: dict[str, set[tuple]] = {n: set() for n in names}

        def scc_calls(body: Body):
            return [c for c in body.constraints
                    if isinstance(c, FindC) and c.pattern in names]

        deltas: dict[str, set[tuple]] = {n: set() for n in names}
        for m in members:
            for bidx, body in enumerate(m.bodies):
                if scc_calls(body):
                    continue
                for env in self._eval_body(m, bidx, body, {}, None):
                    deltas[m.name].add(tuple(env[x] for x in m.params))
        for n in names:
            tabs[n] |= deltas[n]

        while any(deltas.values()):
            new: dict[str, set[tuple]] = {n: set() for n in names}
            for m in members:
                for bidx, body in enumerate(m.bodies):
                    calls = scc_calls(body)
                    if not calls:
                        continue
                    if len(calls) == 1:
                        target = calls[0].pattern
                        if not deltas[target]:
                            continue
                        ctx = dict(tabs)
                        ctx[target] = deltas[target]
                    else:
                        ctx = tabs  # naive round for multi-call bodies
                    for env in self._eval_body(m, bidx, body, {}, ctx):
                        t = tuple(env[x] for x in m.params)
                        if t not in tabs[m.name]:
                            new[m.name].add(t)
            deltas = new
            for n in names:
                tabs[n] |= new[n]
        for n in names:
            self._tables[n] = tabs[n]
        return self._tables[p.name]
