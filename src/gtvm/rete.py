"""Incremental (Rete-style) pattern matcher.

Non-recursive patterns compile into a dataflow network fed by model-space
change events: alpha memories per conforming type, hash joins, counting
nodes for negative conditions and match counting, and one production memory
per registered pattern. Called patterns compile to their own production,
shared across callers. After each event is processed the production
memories equal the local-search match sets by construction.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import expr as ex
from .errors import MatcherError
from .modelspace import (ENTITY, ElementCreated, ElementDeleted,
                         EndpointRetargeted, ModelSpace, Renamed, TypeAdded,
                         TypeRemoved, ValueSet)
from .patterns import (CheckC, CountC, EntityC, FindC, NegC, Pattern,
                       RelationC, consistency_test, schedule, tuple_getter)


class Node:
    def __init__(self, engine: "ReteEngine", schema: tuple[str, ...]):
        self.engine = engine
        self.schema = schema
        # input callbacks (on_left / on_right) of the nodes this one feeds
        self.outputs: list[Callable[[tuple, int], None]] = []
        engine.nodes.append(self)

    def emit(self, t: tuple, sign: int) -> None:
        for out in self.outputs:
            out(t, sign)

    def all_tuples(self):
        raise NotImplementedError


class SeedNode(Node):
    """Single empty tuple; left input for bodies with no positive constraint."""

    def __init__(self, engine):
        super().__init__(engine, ())

    def all_tuples(self):
        return [()]


class EntityAlpha(Node):
    def __init__(self, engine, type_name: str):
        super().__init__(engine, ("$e",))
        self.type = type_name
        self.counts: dict[int, int] = {}
        space = engine.space
        for eid in space.elements_of_type(type_name):
            self.counts[eid] = sum(
                1 for t in space.element(eid).types
                if type_name in space.registry.supers(t))

    def adjust(self, eid: int, delta: int) -> None:
        old = self.counts.get(eid, 0)
        new = old + delta
        if new <= 0:
            self.counts.pop(eid, None)
        else:
            self.counts[eid] = new
        if old == 0 and new > 0:
            self.emit((eid,), +1)
        elif old > 0 and new <= 0:
            self.emit((eid,), -1)

    def drop(self, eid: int) -> None:
        if self.counts.pop(eid, None):
            self.emit((eid,), -1)

    def all_tuples(self):
        return [(eid,) for eid in self.counts]


class RelationAlpha(Node):
    def __init__(self, engine, type_name: Optional[str]):
        super().__init__(engine, ("$r", "$s", "$t"))
        self.type = type_name
        self.counts: dict[int, int] = {}
        self.tuples: dict[int, tuple] = {}
        space = engine.space
        rids = (space.iter_relations() if type_name is None
                else space.elements_of_type(type_name))
        for rid in rids:
            el = space.element(rid)
            if type_name is None:
                self.counts[rid] = 1
            else:
                self.counts[rid] = sum(
                    1 for t in el.types if type_name in space.registry.supers(t))
            self.tuples[rid] = (rid, el.source, el.target)

    def adjust(self, rid: int, delta: int, endpoints: tuple | None = None) -> None:
        old = self.counts.get(rid, 0)
        new = old + delta
        if new <= 0:
            self.counts.pop(rid, None)
        else:
            self.counts[rid] = new
        if old == 0 and new > 0:
            if endpoints is None:
                el = self.engine.space.element(rid)
                endpoints = (rid, el.source, el.target)
            self.tuples[rid] = endpoints
            self.emit(endpoints, +1)
        elif old > 0 and new <= 0:
            self.emit(self.tuples.pop(rid), -1)

    def drop(self, rid: int) -> None:
        if self.counts.pop(rid, None):
            self.emit(self.tuples.pop(rid), -1)

    def retarget(self, rid: int, end: str, new: int) -> None:
        if rid not in self.counts:
            return
        old_t = self.tuples[rid]
        new_t = (rid, new, old_t[2]) if end == "source" else (rid, old_t[1], new)
        self.tuples[rid] = new_t
        self.emit(old_t, -1)
        self.emit(new_t, +1)

    def all_tuples(self):
        return list(self.tuples.values())


class ContainmentAlpha(Node):
    """(element, proper ancestor) pairs; fixed at creation, gone at deletion."""

    def __init__(self, engine):
        super().__init__(engine, ("$x", "$p"))
        self.by_elem: dict[int, list[tuple]] = {}
        space = engine.space
        for eid in space.iter_elements():
            if space.kind(eid) == ENTITY:
                self.by_elem[eid] = [(eid, anc) for anc in space.ancestors(eid)]

    def add_element(self, eid: int) -> None:
        pairs = [(eid, anc) for anc in self.engine.space.ancestors(eid)]
        self.by_elem[eid] = pairs
        for t in pairs:
            self.emit(t, +1)

    def drop(self, eid: int) -> None:
        for t in self.by_elem.pop(eid, ()):
            self.emit(t, -1)

    def all_tuples(self):
        return [t for pairs in self.by_elem.values() for t in pairs]


def _update_bucket(mem: dict[tuple, set], key: tuple, t: tuple, sign: int) -> None:
    """Add ``t`` to (sign > 0) or drop it from the bucket ``mem[key]``."""
    bucket = mem.get(key)
    if sign > 0:
        if bucket is None:
            mem[key] = {t}
        else:
            bucket.add(t)
    elif bucket is not None:
        bucket.discard(t)
        if not bucket:
            del mem[key]


class BetaNode(Node):
    """Two-input node: left (beta) tuples meet the tuples of a right input
    whose positions carry the argument variables ``args``.

    The key extractors and the repeated-argument test are compiled once,
    here; ``left_mem`` buckets the left tuples by their key.
    """

    def __init__(self, engine, left: Node, args: tuple[str, ...], schema):
        super().__init__(engine, schema)
        shared = [i for i, a in enumerate(args) if a in left.schema]
        self.left_key = tuple_getter(left.schema.index(args[i]) for i in shared)
        self.right_key = tuple_getter(shared)
        self.right_ok = consistency_test(args)
        self.left_mem: dict[tuple, set] = {}

    def _attach(self, left: Node, right: Node) -> None:
        for lt in left.all_tuples():
            _update_bucket(self.left_mem, self.left_key(lt), lt, +1)
        left.outputs.append(self.on_left)
        right.outputs.append(self.on_right)


class JoinNode(BetaNode):
    """Hash join of a beta input with an alpha/production input."""

    def __init__(self, engine, left: Node, right: Node, args: tuple[str, ...]):
        new_vars = tuple(dict.fromkeys(a for a in args if a not in left.schema))
        super().__init__(engine, left, args, left.schema + new_vars)
        self.extract = tuple_getter(args.index(v) for v in new_vars)
        self.right_mem: dict[tuple, set] = {}
        for rt in right.all_tuples():
            if self.right_ok is None or self.right_ok(rt):
                _update_bucket(self.right_mem, self.right_key(rt), rt, +1)
        self._attach(left, right)

    def on_left(self, lt, sign):
        key = self.left_key(lt)
        _update_bucket(self.left_mem, key, lt, sign)
        rts = self.right_mem.get(key)
        if rts:
            extract = self.extract
            for rt in rts:
                self.emit(lt + extract(rt), sign)

    def on_right(self, rt, sign):
        if self.right_ok is not None and not self.right_ok(rt):
            return
        key = self.right_key(rt)
        _update_bucket(self.right_mem, key, rt, sign)
        lts = self.left_mem.get(key)
        if lts:
            tail = self.extract(rt)
            for lt in lts:
                self.emit(lt + tail, sign)

    def all_tuples(self):
        extract = self.extract
        return [lt + extract(rt) for key, lts in self.left_mem.items()
                for rt in self.right_mem.get(key, ()) for lt in lts]


class CountNode(BetaNode):
    """Per left tuple, the number of consistent tuples of a called production.

    ``out`` names the count: a new variable is appended as a column, a
    variable the left side already binds must equal it, and ``None`` (a
    negative condition) keeps the left tuples whose count is 0.
    """

    def __init__(self, engine, left: Node, right: Node, args: tuple[str, ...],
                 out: str | None = None):
        self.append = out is not None and out not in left.schema
        super().__init__(engine, left, args,
                         left.schema + (out,) if self.append else left.schema)
        self.out_idx = left.schema.index(out) if out in left.schema else None
        self.right_counts: dict[tuple, int] = {}
        for rt in right.all_tuples():
            if self.right_ok is None or self.right_ok(rt):
                k = self.right_key(rt)
                self.right_counts[k] = self.right_counts.get(k, 0) + 1
        self._attach(left, right)

    def _row(self, lt, n):
        """The output tuple of ``lt`` when its count is ``n``, or None."""
        if self.append:
            return lt + (n,)
        want = 0 if self.out_idx is None else lt[self.out_idx]
        return lt if n == want else None

    def on_left(self, lt, sign):
        key = self.left_key(lt)
        _update_bucket(self.left_mem, key, lt, sign)
        row = self._row(lt, self.right_counts.get(key, 0))
        if row is not None:
            self.emit(row, sign)

    def on_right(self, rt, sign):
        if self.right_ok is not None and not self.right_ok(rt):
            return
        key = self.right_key(rt)
        old = self.right_counts.get(key, 0)
        new = old + sign
        if new <= 0:
            self.right_counts.pop(key, None)
        else:
            self.right_counts[key] = new
        for lt in self.left_mem.get(key, ()):
            row = self._row(lt, old)
            if row is not None:
                self.emit(row, -1)
            row = self._row(lt, new)
            if row is not None:
                self.emit(row, +1)

    def all_tuples(self):
        out = []
        for key, bucket in self.left_mem.items():
            n = self.right_counts.get(key, 0)
            for lt in bucket:
                row = self._row(lt, n)
                if row is not None:
                    out.append(row)
        return out


class CheckNode(Node):
    """check() filter; rescans on value/name changes of the model."""

    def __init__(self, engine, left: Node, expr: ex.Expr):
        super().__init__(engine, left.schema)
        self.expr = expr
        self.mem: set[tuple] = set()
        self.passing: set[tuple] = set()
        for lt in left.all_tuples():
            self.mem.add(lt)
            if self._passes(lt):
                self.passing.add(lt)
        left.outputs.append(self.on_left)
        engine.check_nodes.append(self)

    def _passes(self, lt) -> bool:
        env = dict(zip(self.schema, lt))
        return ex.holds(self.expr, env.__getitem__, self.engine.space)

    def on_left(self, t, sign):
        if sign > 0:
            self.mem.add(t)
            if self._passes(t):
                self.passing.add(t)
                self.emit(t, +1)
        else:
            self.mem.discard(t)
            if t in self.passing:
                self.passing.discard(t)
                self.emit(t, -1)

    def rescan(self) -> None:
        for t in list(self.mem):
            now = self._passes(t)
            was = t in self.passing
            if now and not was:
                self.passing.add(t)
                self.emit(t, +1)
            elif was and not now:
                self.passing.discard(t)
                self.emit(t, -1)

    def all_tuples(self):
        return list(self.passing)


class InjectivityNode(Node):
    """Drop tuples where two element-valued variables alias."""

    def __init__(self, engine, left: Node, positions: list[int]):
        super().__init__(engine, left.schema)
        self.values = tuple_getter(positions)
        self.left = left
        left.outputs.append(self.on_left)

    def _ok(self, t) -> bool:
        vals = self.values(t)
        return len(vals) == len(set(vals))

    def on_left(self, t, sign):
        if self._ok(t):
            self.emit(t, sign)

    def all_tuples(self):
        return [t for t in self.left.all_tuples() if self._ok(t)]


class ProjectNode(Node):
    def __init__(self, engine, left: Node, positions: list[int], schema):
        super().__init__(engine, schema)
        self.project = tuple_getter(positions)
        self.counts: dict[tuple, int] = {}
        for lt in left.all_tuples():
            t = self.project(lt)
            self.counts[t] = self.counts.get(t, 0) + 1
        left.outputs.append(self.on_left)

    def on_left(self, lt, sign):
        t = self.project(lt)
        old = self.counts.get(t, 0)
        new = old + sign
        if new <= 0:
            self.counts.pop(t, None)
        else:
            self.counts[t] = new
        if old == 0 and new > 0:
            self.emit(t, +1)
        elif old > 0 and new == 0:
            self.emit(t, -1)

    def all_tuples(self):
        return list(self.counts)


class ProductionNode(Node):
    """Per-pattern match memory with an append-only delta log."""

    def __init__(self, engine, pattern: Pattern, bodies: list[Node]):
        super().__init__(engine, pattern.params)
        self.pattern = pattern
        self.counts: dict[tuple, int] = {}
        self.log: list[tuple[tuple, int]] = []
        for node in bodies:
            for t in node.all_tuples():
                self.counts[t] = self.counts.get(t, 0) + 1
        for node in bodies:
            node.outputs.append(self.on_left)

    def on_left(self, t, sign):
        old = self.counts.get(t, 0)
        new = old + sign
        if new <= 0:
            self.counts.pop(t, None)
        else:
            self.counts[t] = new
        if old == 0 and new > 0:
            self.log.append((t, +1))
            self.emit(t, +1)
        elif old > 0 and new == 0:
            self.log.append((t, -1))
            self.emit(t, -1)

    def match_tuples(self) -> set[tuple]:
        return set(self.counts)

    def live_tuples(self):
        """The match tuples without a copy; valid until the next change."""
        return self.counts.keys()

    def matches(self) -> list[dict]:
        return [dict(zip(self.schema, t)) for t in self.counts]

    def count(self) -> int:
        return len(self.counts)

    def cursor(self) -> int:
        return len(self.log)

    def delta_since(self, cursor: int) -> tuple[set, set]:
        net: dict[tuple, int] = {}
        for t, sign in self.log[cursor:]:
            net[t] = net.get(t, 0) + sign
        appeared = {t for t, n in net.items() if n > 0}
        disappeared = {t for t, n in net.items() if n < 0}
        return appeared, disappeared

    def all_tuples(self):
        return list(self.counts)


class ReteEngine:
    """Network manager; one instance per (space, pattern set)."""

    def __init__(self, space: ModelSpace, patterns: dict[str, Pattern]):
        self.space = space
        self.patterns = patterns
        self.nodes: list[Node] = []
        self.check_nodes: list[CheckNode] = []
        self.productions: dict[str, ProductionNode] = {}
        self._ent_alphas: dict[str, EntityAlpha] = {}
        self._rel_alphas: dict[Optional[str], RelationAlpha] = {}
        self._containment: ContainmentAlpha | None = None
        self._seed: SeedNode | None = None
        space.subscribe(self._on_change)

    def close(self) -> None:
        self.space.unsubscribe(self._on_change)

    def on_change(self, ev) -> None:
        """Feed one change event; normally driven by the space subscription."""
        self._on_change(ev)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    # -- network building ----------------------------------------------------

    def _seed_node(self) -> SeedNode:
        if self._seed is None:
            self._seed = SeedNode(self)
        return self._seed

    def _entity_alpha(self, type_name: str) -> EntityAlpha:
        node = self._ent_alphas.get(type_name)
        if node is None:
            node = EntityAlpha(self, type_name)
            self._ent_alphas[type_name] = node
        return node

    def _relation_alpha(self, type_name: Optional[str]) -> RelationAlpha:
        node = self._rel_alphas.get(type_name)
        if node is None:
            node = RelationAlpha(self, type_name)
            self._rel_alphas[type_name] = node
        return node

    def _containment_alpha(self) -> ContainmentAlpha:
        if self._containment is None:
            self._containment = ContainmentAlpha(self)
        return self._containment

    def register(self, name: str) -> ProductionNode:
        prod = self.productions.get(name)
        if prod is not None:
            return prod
        pattern = self.patterns[name]
        if pattern.requires_ls:
            reason = "recursive" if pattern.recursive else "@localsearch"
            raise MatcherError(
                f"pattern {name} is {reason}; use the local-search matcher (ls)")
        for body in pattern.bodies:
            for c in body.constraints:
                if isinstance(c, (FindC, NegC, CountC)):
                    self.register(c.pattern)
        bodies = [self._compile_body(pattern, body) for body in pattern.bodies]
        prod = ProductionNode(self, pattern, bodies)
        self.productions[name] = prod
        return prod

    def _compile_body(self, pattern: Pattern, body) -> Node:
        plan = schedule(body.constraints, pattern.params, frozenset())
        current: Node = self._seed_node()
        for c in plan:
            if isinstance(c, EntityC):
                current = JoinNode(self, current, self._entity_alpha(c.type), (c.var,))
                if c.in_var is not None:
                    # `in <namespace>` is vacuous (everything is under root)
                    current = JoinNode(self, current, self._containment_alpha(),
                                       (c.var, c.in_var))
            elif isinstance(c, RelationC):
                current = JoinNode(self, current, self._relation_alpha(c.type),
                                   (c.rel, c.src, c.trg))
            elif isinstance(c, FindC):
                current = JoinNode(self, current, self.productions[c.pattern], c.args)
            elif isinstance(c, NegC):
                current = CountNode(self, current, self.productions[c.pattern], c.args)
            elif isinstance(c, CountC):
                current = CountNode(self, current, self.productions[c.pattern], c.args,
                                    c.out)
            elif isinstance(c, CheckC):
                current = CheckNode(self, current, c.expr)
            else:
                raise AssertionError(c)
        if not pattern.shareable:
            positions = [i for i, var in enumerate(current.schema)
                         if var in body.info.element_vars]
            if len(positions) > 1:
                current = InjectivityNode(self, current, positions)
        try:
            positions = [current.schema.index(p) for p in pattern.params]
        except ValueError:
            raise MatcherError(
                f"pattern {pattern.name} has a parameter bound only under "
                f"neg find; it cannot be enumerated") from None
        return ProjectNode(self, current, positions, pattern.params)

    # -- queries ---------------------------------------------------------------

    def matches(self, name: str) -> set[tuple]:
        return self.register(name).match_tuples()

    def count(self, name: str) -> int:
        return self.register(name).count()

    # -- event dispatch ----------------------------------------------------------

    def _on_change(self, ev) -> None:
        supers = self.space.registry.supers
        if isinstance(ev, ElementCreated):
            if ev.kind == ENTITY:
                for t in ev.types:
                    for s in supers(t):
                        alpha = self._ent_alphas.get(s)
                        if alpha is not None:
                            alpha.adjust(ev.subject, +1)
                if self._containment is not None:
                    self._containment.add_element(ev.subject)
            else:
                endpoints = (ev.subject, ev.source, ev.target)
                untyped = self._rel_alphas.get(None)
                if untyped is not None:
                    untyped.adjust(ev.subject, +1, endpoints)
                for t in ev.types:
                    for s in supers(t):
                        alpha = self._rel_alphas.get(s)
                        if alpha is not None:
                            alpha.adjust(ev.subject, +1, endpoints)
        elif isinstance(ev, ElementDeleted):
            if ev.kind == ENTITY:
                for alpha in self._ent_alphas.values():
                    alpha.drop(ev.subject)
                if self._containment is not None:
                    self._containment.drop(ev.subject)
            else:
                for alpha in self._rel_alphas.values():
                    alpha.drop(ev.subject)
        elif isinstance(ev, TypeAdded):
            kind = self.space.registry.kind(ev.type)
            for s in supers(ev.type):
                if kind == ENTITY:
                    alpha = self._ent_alphas.get(s)
                    if alpha is not None:
                        alpha.adjust(ev.subject, +1)
                else:
                    alpha = self._rel_alphas.get(s)
                    if alpha is not None:
                        alpha.adjust(ev.subject, +1)
        elif isinstance(ev, TypeRemoved):
            kind = self.space.registry.kind(ev.type)
            for s in supers(ev.type):
                if kind == ENTITY:
                    alpha = self._ent_alphas.get(s)
                    if alpha is not None:
                        alpha.adjust(ev.subject, -1)
                else:
                    alpha = self._rel_alphas.get(s)
                    if alpha is not None:
                        alpha.adjust(ev.subject, -1)
        elif isinstance(ev, EndpointRetargeted):
            for alpha in self._rel_alphas.values():
                alpha.retarget(ev.subject, ev.end, ev.new)
        elif isinstance(ev, (ValueSet, Renamed)):
            for node in self.check_nodes:
                node.rescan()
