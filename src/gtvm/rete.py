"""Incremental (Rete-style) pattern matcher.

Non-recursive patterns compile into a dataflow network fed by model-space
change events. The model space is the only copy of the model: one alpha per
type (``None`` for every relation) and a containment alpha for the (entity,
ancestor) pairs hold no memory, and pass on the signed rows the engine
computes from each event, through a table from ``(relation?, types)`` to the
inputs they feed. Each node calls its successors' inputs directly. A join
keeps only its left memory, bucketed by the join key, and reads the right
tuples of a key on demand: for a type alpha through the model space's
typed-row reads (``rows_at``: the element of a bound id or the relations at
a bound end; ``rows`` only for a Cartesian product), for the containment
alpha the ancestors of a bound entity, or from a called pattern's
production, whose keyed index a count node (``neg``/``#``) also counts.
Check nodes filter, and each body's last node feeds the production of its
pattern, which drops the tuples whose element values repeat (unless
shareable), projects the rest onto the parameters and answers a bound read
from a hash index of its memory, kept up to date from the first such read on.

The space already holds a change when its event goes out, so a join must
take the change on its right before any older node's output reaches its
left; otherwise it would see the change twice, or a removed tuple not at
all. So every delivery goes most downstream first (Doorenbos, Production
Matching for Large Learning Systems, 1995): nodes are numbered at creation,
after their inputs, and each node's outputs and each dispatch entry run
newest first. After each event the production memories equal the
local-search match sets.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Callable, Collection, Optional

from . import expr as ex
from .errors import MatcherError
from .modelspace import (ENTITY, ElementCreated, ElementDeleted, EndpointRetargeted,
                         ModelSpace, Renamed, TypeAdded, TypeRemoved, ValueSet)
from .patterns import (CountC, EntityC, FindC, NegC, Pattern, RelationC, consistency_test,
                       consistent_count, row_test, schedule, tuple_getter)

# the containment alpha's key among the alphas, which no type name equals
_IN = ()


class Node:
    def __init__(self, engine: "ReteEngine", schema: tuple[str, ...]):
        self.space = engine.space
        self.schema = schema
        # creation order: every input of a node is older than the node
        self.number = len(engine.nodes)
        # input callbacks (on_left / on_right / on_entity / on_body) of the
        # nodes this one feeds, most downstream (newest) first
        self.outputs: list[Callable[[tuple, int], None]] = []
        engine.nodes.append(self)

    def feed(self, callback: Callable[[tuple, int], None]) -> None:
        """Add an input of the newest node, which goes first."""
        self.outputs.insert(0, callback)


def _row(el) -> tuple:
    """The alpha tuple of an element: ``(eid,)`` or ``(rid, src, trg)``."""
    return (el.id,) if el.kind == ENTITY else (el.id, el.source, el.target)


class TypeAlpha(Node):
    """The elements that conform to one type; ``None`` stands for every
    relation, typed or not. The engine emits each change, and the model
    space's typed-row reads answer ``all_tuples`` and each read.

    A reader holds the space and not the node, so a join can keep it
    without a reference cycle.
    """

    def __init__(self, engine, type_name: Optional[str]):
        registry = engine.space.registry
        relation = type_name is None or registry.kind(type_name) != ENTITY
        super().__init__(engine, ("$r", "$s", "$t") if relation else ("$e",))
        self.type = type_name
        self.all_tuples = partial(self.space.rows, type_name)

    def reader(self, positions: tuple[int, ...]) -> Callable[[tuple], Collection]:
        """The tuples whose values at ``positions`` are the key: the element
        of a bound id, or the relations at a bound end, that conform."""
        rows = self.all_tuples
        if not positions:
            return lambda key: rows()
        read = self.space.rows_at(self.type, positions[0])
        if len(positions) == 1:
            return read
        getter = tuple_getter(positions)
        return lambda key: [r for r in read(key) if getter(r) == key]


class ContainmentAlpha(Node):
    """(entity, proper ancestor) pairs, read from the containment tree. Its
    joins take the entity rows ``(eid, parent)`` of the create and delete
    events through ``on_entity``."""

    def __init__(self, engine):
        super().__init__(engine, ("$x", "$p"))
        space = self.space
        self.all_tuples = lambda: [(eid, anc) for eid in space.iter_elements()
                                   if space.kind(eid) == ENTITY
                                   for anc in space.ancestors(eid)]

    def reader(self, positions: tuple[int, ...]) -> Callable[[tuple], Collection]:
        """The ancestors of the entity, bound by its type join before; a
        dead one has none, as it has left the tree before its delete event."""
        getter, is_live, ancestors = (tuple_getter(positions), self.space.is_live,
                                      self.space.ancestors)
        return lambda key: [] if not is_live(key[0]) else [
            (key[0], a) for a in ancestors(key[0]) if getter((key[0], a)) == key]


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


class JoinNode(Node):
    """Hash join of a left (beta) input with an alpha or production input
    whose positions carry the argument variables ``args``.

    Only the left side is kept: ``left_mem`` buckets the left tuples by
    their key, and ``read`` fetches the right tuples of a key from the right
    input's own index on demand. A body's first join has no left input; its
    left memory holds the one empty tuple.
    """

    def __init__(self, engine, left: Node | None, right: Node, args: tuple[str, ...]):
        lschema = () if left is None else left.schema
        new_vars = tuple(dict.fromkeys(a for a in args if a not in lschema))
        super().__init__(engine, lschema + new_vars)
        shared = tuple(i for i, a in enumerate(args) if a in lschema)
        self.left_key = tuple_getter(lschema.index(args[i]) for i in shared)
        self.right_key = tuple_getter(shared)
        self.right_ok = consistency_test(args)
        self.extract = tuple_getter(args.index(v) for v in new_vars)
        self.read = right.reader(shared)
        self.left_mem: dict[tuple, set] = {}
        for lt in ([()] if left is None else left.all_tuples()):
            _update_bucket(self.left_mem, self.left_key(lt), lt, +1)
        if left is not None:
            left.feed(self.on_left)
        right.feed(self.on_entity if isinstance(right, ContainmentAlpha)
                   else self.on_right)

    def on_left(self, lt, sign):
        key = self.left_key(lt)
        _update_bucket(self.left_mem, key, lt, sign)
        rts = self.read(key)
        if rts:
            ok, extract, outputs = self.right_ok, self.extract, self.outputs
            for rt in rts:
                if ok is None or ok(rt):
                    t = lt + extract(rt)
                    for out in outputs:
                        out(t, sign)

    def on_right(self, rt, sign):
        if self.right_ok is not None and not self.right_ok(rt):
            return
        lts = self.left_mem.get(self.right_key(rt))
        if lts:
            tail, outputs = self.extract(rt), self.outputs
            for lt in lts:
                t = lt + tail
                for out in outputs:
                    out(t, sign)

    def on_entity(self, row, sign):
        """An entity ``(eid, parent)`` appears or goes: one containment row
        per ancestor. The parent chain is live at both events, as delete
        disposes children before their parents."""
        eid, parent = row
        self.on_right((eid, parent), sign)
        for anc in self.space.ancestors(parent):
            self.on_right((eid, anc), sign)

    def all_tuples(self):
        ok, extract = self.right_ok, self.extract
        return [lt + extract(rt) for key, lts in self.left_mem.items()
                for rt in self.read(key) if ok is None or ok(rt) for lt in lts]


class CountNode(JoinNode):
    """Per left tuple, the number of consistent tuples of a called production,
    read from the production's index.

    ``out`` names the count: a new variable is appended as a column, a
    variable the left side already binds must equal it, and ``None`` (a
    negative condition) keeps the left tuples whose count is 0.
    """

    def __init__(self, engine, left: Node | None, right: Node, args: tuple[str, ...],
                 out: str | None = None):
        super().__init__(engine, left, right, args)
        lschema = () if left is None else left.schema
        self.append = out is not None and out not in lschema
        self.schema = lschema + (out,) if self.append else lschema
        self.out_idx = lschema.index(out) if out in lschema else None

    def _count(self, key) -> int:
        """How many right tuples of ``key`` are consistent with ``args``."""
        return consistent_count(self.read(key), self.right_ok)

    def _row(self, lt, n):
        """The output tuple of ``lt`` when its count is ``n``, or None."""
        if self.append:
            return lt + (n,)
        want = 0 if self.out_idx is None else lt[self.out_idx]
        return lt if n == want else None

    def on_left(self, lt, sign):
        key = self.left_key(lt)
        _update_bucket(self.left_mem, key, lt, sign)
        row = self._row(lt, self._count(key))
        if row is not None:
            for out in self.outputs:
                out(row, sign)

    def on_right(self, rt, sign):
        if self.right_ok is not None and not self.right_ok(rt):
            return
        key = self.right_key(rt)
        # the production already counts rt: this is the count after the change
        new = self._count(key)
        outputs, moves = self.outputs, ((new - sign, -1), (new, +1))
        for lt in self.left_mem.get(key, ()):
            for n, sign in moves:
                row = self._row(lt, n)
                if row is not None:
                    for out in outputs:
                        out(row, sign)

    def all_tuples(self):
        rows = [self._row(lt, self._count(key))
                for key, lts in self.left_mem.items() for lt in lts]
        return [row for row in rows if row is not None]


class CheckNode(Node):
    """check() filter; rescans on value/name changes of the model.

    ``mem`` maps each left tuple to whether it passes.
    """

    def __init__(self, engine, left: Node | None, expr: ex.Expr):
        super().__init__(engine, () if left is None else left.schema)
        self._passes = row_test(expr, self.schema, self.space)
        self.mem: dict[tuple, bool] = {
            lt: self._passes(lt) for lt in ([()] if left is None else left.all_tuples())}
        if left is not None:
            left.feed(self.on_left)
        engine.check_nodes.append(self)

    def on_left(self, t, sign):
        if sign > 0:
            passes = self.mem[t] = self._passes(t)
        else:
            passes = self.mem.pop(t, False)
        if passes:
            for out in self.outputs:
                out(t, sign)

    def rescan(self) -> None:
        mem = self.mem
        for t, was in list(mem.items()):
            now = self._passes(t)
            if now != was:
                mem[t] = now
                for out in self.outputs:
                    out(t, +1 if now else -1)

    def all_tuples(self):
        return [t for t, passes in self.mem.items() if passes]


def _aliased(values: tuple) -> bool:
    return len(set(values)) != len(values)


class ProductionNode(Node):
    """Per-pattern match memory: the projected tuples of every body, each
    counted once per body tuple that projects onto it. A body tuple of an
    injective pattern whose element values repeat is dropped unprojected.

    A bound read is served by a hash index of the memory keyed by the bound
    positions, built on the first read with those positions and kept up to
    date with every tuple that appears or goes. The delta log starts with
    the first ``cursor()`` call; a production that is never asked for one
    logs nothing.
    """

    def __init__(self, engine, pattern: Pattern,
                 bodies: list[tuple[Node | None, list[int], list[int]]]):
        super().__init__(engine, pattern.params)
        self.pattern = pattern
        self.counts: dict[tuple, int] = {}
        # positions -> (key getter, key -> the tuples with that key)
        self.indexes: dict[tuple[int, ...], tuple[Callable, dict[tuple, set]]] = {}
        self.readers: dict[tuple[int, ...], Callable[[tuple], Collection]] = {}
        self.log: list[tuple[tuple, int]] | None = None
        counts = self.counts
        for node, positions, distinct in bodies:
            project = tuple_getter(positions)
            distinct = tuple_getter(distinct) if len(distinct) > 1 else None
            # a body with no constraint holds the one empty tuple
            for t in ([()] if node is None else node.all_tuples()):
                if distinct is None or not _aliased(distinct(t)):
                    t = project(t)
                    counts[t] = counts.get(t, 0) + 1
            if node is not None:
                node.feed(partial(self.on_body, project, distinct))

    def on_body(self, project, distinct, t, sign):
        """A body tuple ``t`` appears or goes; ``project`` maps it onto the
        parameters, and ``distinct``, unless None, gives the element values
        that must not repeat."""
        if distinct is not None and _aliased(distinct(t)):
            return
        t = project(t)
        counts = self.counts
        old = counts.get(t, 0)
        new = old + sign
        if new > 0:
            counts[t] = new
        elif new == 0:
            del counts[t]
        else:
            raise AssertionError(f"pattern {self.pattern.name}: removal of {t}, "
                                 f"which it does not hold")
        if (old > 0) != (new > 0):
            if self.indexes:
                for key, index in self.indexes.values():
                    _update_bucket(index, key(t), t, sign)
            if self.log is not None:
                self.log.append((t, sign))
            for out in self.outputs:
                out(t, sign)

    def match_tuples(self, positions: tuple[int, ...] = (),
                     key: tuple = ()) -> Collection[tuple]:
        """The match tuples whose values at ``positions`` (ascending) are
        ``key``; a live view, valid until the next change."""
        read = self.readers.get(positions)
        if read is None:
            read = self.readers[positions] = self.reader(positions)
        return read(key)

    def reader(self, positions: tuple[int, ...]) -> Callable[[tuple], Collection]:
        """``match_tuples`` at ``positions`` as a function of the key, which
        holds the memory or its index and not this node."""
        counts = self.counts
        if not positions:
            return lambda key: counts.keys()
        if len(positions) == len(self.schema):
            return lambda key: (key,) if key in counts else ()
        entry = self.indexes.get(positions)
        if entry is None:
            getter = tuple_getter(positions)
            index: dict[tuple, set] = {}
            for t in counts:
                _update_bucket(index, getter(t), t, +1)
            entry = self.indexes[positions] = (getter, index)
        index = entry[1]
        return lambda key: index.get(key, ())

    def cursor(self) -> int:
        """A position in the delta log, which starts here if it has not yet."""
        if self.log is None:
            self.log = []
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
    """Network manager; one instance per (space, pattern set).

    Whoever builds the engine keeps it; the space it listens to holds it
    only weakly, and no node points back to the engine or upstream. So a
    network holds no reference cycle: an engine that is dropped is freed at
    once, with its memories, and stops listening, without waiting for the
    cycle collector.
    """

    def __init__(self, space: ModelSpace, patterns: dict[str, Pattern]):
        self.space = space
        self.patterns = patterns
        self.nodes: list[Node] = []
        self.check_nodes: list[CheckNode] = []
        self.productions: dict[str, ProductionNode] = {}
        # type names are unique across kinds; None is the untyped relation
        # alpha and _IN the containment alpha
        self._alphas: dict[Optional[str] | tuple, Node] = {}
        # (relation?, types) -> the inputs of the nodes the alphas of an
        # element of those types feed; cleared as the alphas gain successors
        self._dispatch: dict[tuple[bool, tuple], tuple[Callable, ...]] = {}
        # the space holds the engine weakly: a dropped engine stops listening
        engine, on_change = weakref.ref(self), self._on_change.__func__

        def listener(ev) -> None:
            alive = engine()
            if alive is not None:
                on_change(alive, ev)
        space.subscribe(listener)
        weakref.finalize(self, space.unsubscribe, listener)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    # -- network building ----------------------------------------------------

    def _alpha(self, type_name: Optional[str] | tuple) -> Node:
        """The alpha of ``type_name`` (or ``_IN``), about to gain a successor."""
        self._dispatch.clear()
        node = self._alphas.get(type_name)
        if node is None:
            node = self._alphas[type_name] = (ContainmentAlpha(self) if type_name == _IN
                                              else TypeAlpha(self, type_name))
        return node

    def register(self, name: str) -> ProductionNode:
        prod = self.productions.get(name)
        if prod is not None:
            return prod
        pattern = self.patterns[name]
        if pattern.ls_reason:
            raise MatcherError(f"pattern {name} {pattern.ls_reason}; "
                               f"use the local-search matcher (ls)")
        for body in pattern.bodies:
            for c in body.constraints:
                if isinstance(c, (FindC, NegC, CountC)):
                    self.register(c.pattern)
        bodies = [self._compile_body(pattern, body) for body in pattern.bodies]
        prod = ProductionNode(self, pattern, bodies)
        self.productions[name] = prod
        return prod

    def _compile_body(self, pattern: Pattern, body) -> tuple[Node, list[int], list[int]]:
        """The body's last node, the positions of the parameters in it, and
        those of the element variables that must be pairwise distinct."""
        plan = schedule(body.constraints, pattern.params, frozenset())
        current: Node | None = None
        for c in plan:
            if isinstance(c, EntityC):
                current = JoinNode(self, current, self._alpha(c.type), (c.var,))
                if c.in_var is not None:
                    # `in <namespace>` is vacuous (everything is under root)
                    current = JoinNode(self, current, self._alpha(_IN), (c.var, c.in_var))
            elif isinstance(c, RelationC):
                current = JoinNode(self, current, self._alpha(c.type),
                                   (c.rel, c.src, c.trg))
            elif isinstance(c, FindC):
                current = JoinNode(self, current, self.productions[c.pattern], c.args)
            elif isinstance(c, NegC):
                current = CountNode(self, current, self.productions[c.pattern], c.args)
            elif isinstance(c, CountC):
                current = CountNode(self, current, self.productions[c.pattern], c.args,
                                    c.out)
            else:  # CheckC
                current = CheckNode(self, current, c.expr)
        schema = () if current is None else current.schema
        distinct = [] if pattern.shareable else [
            i for i, var in enumerate(schema) if var in body.element_vars]
        return current, [schema.index(p) for p in pattern.params], distinct

    # -- event dispatch ----------------------------------------------------------

    def _on_change(self, ev) -> None:
        if isinstance(ev, (ElementCreated, ElementDeleted)):
            sign = +1 if isinstance(ev, ElementCreated) else -1
            relation = ev.kind != ENTITY
            # an entity's row carries its parent for the containment joins
            row = ((ev.subject, ev.source, ev.target) if relation
                   else (ev.subject, ev.parent))
            outs = self._dispatch.get((relation, ev.types))
            if outs is None:
                outs = self._targets(relation, ev.types)
            for out in outs:
                out(row, sign)
        elif isinstance(ev, (TypeAdded, TypeRemoved)):
            # the space already holds the change: the row enters or leaves
            # the alphas that only ``ev.type`` reaches
            el = self.space.element(ev.subject)
            relation, rest = el.kind != ENTITY, tuple(t for t in el.types if t != ev.type)
            others = set(self._targets(relation, rest))
            row, sign = _row(el), +1 if isinstance(ev, TypeAdded) else -1
            for out in self._targets(relation, rest + (ev.type,)):
                if out not in others:
                    out(row, sign)
        elif isinstance(ev, EndpointRetargeted):
            # each input takes both rows before the next: a join sees the
            # relation as the space has it once an older output reaches it
            el = self.space.element(ev.subject)
            new = _row(el)
            old = ((el.id, ev.old, el.target) if ev.end == "source"
                   else (el.id, el.source, ev.old))
            for out in self._targets(True, el.types):
                out(old, -1)
                out(new, +1)
        elif isinstance(ev, (ValueSet, Renamed)):
            for node in self.check_nodes:
                node.rescan()

    def _targets(self, relation: bool, types: tuple) -> tuple[Callable, ...]:
        """The inputs fed by the alphas an element of ``types`` conforms to,
        each alpha once, newest first, from the dispatch table; ``relation``
        adds the untyped relation alpha, and an entity reaches the
        containment alpha."""
        key = (relation, types)
        outs = self._dispatch.get(key)
        if outs is None:
            supers, alphas = self.space.registry.supers, self._alphas
            reached = {None: None} if relation else {_IN: None}
            for t in types:
                reached.update(dict.fromkeys(supers(t)))
            outs = self._dispatch[key] = tuple(sorted(
                (out for k in reached if k in alphas for out in alphas[k].outputs),
                key=lambda out: -out.__self__.number))
        return outs
