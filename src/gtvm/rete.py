"""Incremental (Rete-style) pattern matcher.

Non-recursive patterns compile into a dataflow network fed by model-space
change events. The model space is the only copy of the model: one alpha node
per type (the ``None`` alpha for every relation) and a containment alpha
for the (entity, ancestor) pairs hold no memory, read their tuples from the
space's indexes when a node is built, and pass on the rows the engine
computes from each change event and the space, once per alpha with a sign
of +1 or -1, through a table from ``(relation?, types)`` to the inputs the
alphas feed. Each node calls its successors' inputs directly. Beta nodes
hash-join those rows or count the matches of a called pattern
(``neg``/``#``), check nodes filter, and each body's last node feeds one
production memory per registered pattern, which drops the tuples whose
element values repeat (unless shareable) and projects the rest onto the
parameters. Called patterns compile to their own production, shared across
callers. After each event is processed the production memories equal the
local-search match sets by construction. A production answers a bound read
from a hash index of its memory keyed by the bound positions, kept up to
date from the first such read on.
"""

from __future__ import annotations

import weakref
from functools import partial
from itertools import chain
from typing import Callable, Collection, Optional

from . import expr as ex
from .errors import MatcherError
from .modelspace import (ENTITY, ElementCreated, ElementDeleted,
                         EndpointRetargeted, ModelSpace, Renamed, TypeAdded,
                         TypeRemoved, ValueSet)
from .patterns import (CheckC, CountC, EntityC, FindC, NegC, Pattern,
                       RelationC, consistency_test, schedule, tuple_getter)


class Node:
    def __init__(self, engine: "ReteEngine", schema: tuple[str, ...]):
        self.space = engine.space
        self.schema = schema
        # input callbacks (on_left / on_right / on_body) of the nodes this one feeds
        self.outputs: list[Callable[[tuple, int], None]] = []
        engine.nodes.append(self)

    def all_tuples(self):
        raise NotImplementedError


class SeedNode(Node):
    """Single empty tuple; left input for bodies with no positive constraint."""

    def __init__(self, engine):
        super().__init__(engine, ())

    def all_tuples(self):
        return [()]


def _row(el) -> tuple:
    """The alpha tuple of an element: ``(eid,)`` or ``(rid, src, trg)``."""
    return (el.id,) if el.kind == ENTITY else (el.id, el.source, el.target)


class TypeAlpha(Node):
    """The elements that conform to one type; ``None`` stands for every
    relation, typed or not. It holds no memory: the model space's type index
    answers ``all_tuples``, and the engine emits each change."""

    def __init__(self, engine, type_name: Optional[str]):
        registry = engine.space.registry
        relation = type_name is None or registry.kind(type_name) != ENTITY
        super().__init__(engine, ("$r", "$s", "$t") if relation else ("$e",))
        self.type = type_name

    def all_tuples(self):
        space = self.space
        eids = (space.iter_relations() if self.type is None
                else space.elements_of_type(self.type))
        return [_row(space.element(eid)) for eid in eids]


class ContainmentAlpha(Node):
    """(entity, proper ancestor) pairs, read from the containment tree."""

    def __init__(self, engine):
        super().__init__(engine, ("$x", "$p"))

    def all_tuples(self):
        space = self.space
        return [(eid, anc) for eid in space.iter_elements()
                if space.kind(eid) == ENTITY for anc in space.ancestors(eid)]


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
            extract, outputs = self.extract, self.outputs
            for rt in rts:
                t = lt + extract(rt)
                for out in outputs:
                    out(t, sign)

    def on_right(self, rt, sign):
        if self.right_ok is not None and not self.right_ok(rt):
            return
        key = self.right_key(rt)
        _update_bucket(self.right_mem, key, rt, sign)
        lts = self.left_mem.get(key)
        if lts:
            tail, outputs = self.extract(rt), self.outputs
            for lt in lts:
                t = lt + tail
                for out in outputs:
                    out(t, sign)

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
            for out in self.outputs:
                out(row, sign)

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
        outputs, moves = self.outputs, ((old, -1), (new, +1))
        for lt in self.left_mem.get(key, ()):
            for n, sign in moves:
                row = self._row(lt, n)
                if row is not None:
                    for out in outputs:
                        out(row, sign)

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
    """check() filter; rescans on value/name changes of the model.

    ``mem`` maps each left tuple to whether it passes.
    """

    def __init__(self, engine, left: Node, expr: ex.Expr):
        super().__init__(engine, left.schema)
        self.expr = expr
        self.mem: dict[tuple, bool] = {lt: self._passes(lt)
                                       for lt in left.all_tuples()}
        left.outputs.append(self.on_left)
        engine.check_nodes.append(self)

    def _passes(self, lt) -> bool:
        env = dict(zip(self.schema, lt))
        return ex.holds(self.expr, env.__getitem__, self.space)

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
                 bodies: list[tuple[Node, list[int], list[int]]]):
        super().__init__(engine, pattern.params)
        self.pattern = pattern
        self.counts: dict[tuple, int] = {}
        # positions -> (key getter, key -> the tuples with that key)
        self.indexes: dict[tuple[int, ...], tuple[Callable, dict[tuple, set]]] = {}
        self.log: list[tuple[tuple, int]] | None = None
        counts = self.counts
        for node, positions, distinct in bodies:
            project = tuple_getter(positions)
            distinct = tuple_getter(distinct) if len(distinct) > 1 else None
            for t in node.all_tuples():
                if distinct is None or not _aliased(distinct(t)):
                    t = project(t)
                    counts[t] = counts.get(t, 0) + 1
            node.outputs.append(partial(self.on_body, project, distinct))

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
        else:
            counts.pop(t, None)
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
        if not positions:
            return self.counts.keys()
        if len(positions) == len(self.schema):
            return (key,) if key in self.counts else ()
        entry = self.indexes.get(positions)
        if entry is None:
            getter = tuple_getter(positions)
            index: dict[tuple, set] = {}
            for t in self.counts:
                _update_bucket(index, getter(t), t, +1)
            entry = self.indexes[positions] = (getter, index)
        return entry[1].get(key, ())

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
        # type names are unique across kinds; None is the untyped relation alpha
        self._alphas: dict[Optional[str], TypeAlpha] = {}
        self._containment: ContainmentAlpha | None = None
        # (relation?, types) -> the inputs of the nodes the alphas of an
        # element of those types feed; cleared as the alphas gain successors
        self._dispatch: dict[tuple[bool, tuple], tuple[Callable, ...]] = {}
        self._seed = SeedNode(self)
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

    def _alpha(self, type_name: Optional[str]) -> TypeAlpha:
        """The alpha of ``type_name``, about to gain a successor."""
        self._dispatch.clear()
        node = self._alphas.get(type_name)
        if node is None:
            node = self._alphas[type_name] = TypeAlpha(self, type_name)
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

    def _compile_body(self, pattern: Pattern, body) -> tuple[Node, list[int], list[int]]:
        """The body's last node, the positions of the parameters in it, and
        those of the element variables that must be pairwise distinct."""
        plan = schedule(body.constraints, pattern.params, frozenset())
        current: Node = self._seed
        for c in plan:
            if isinstance(c, EntityC):
                current = JoinNode(self, current, self._alpha(c.type), (c.var,))
                if c.in_var is not None:
                    # `in <namespace>` is vacuous (everything is under root)
                    current = JoinNode(self, current, self._containment_alpha(),
                                       (c.var, c.in_var))
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
            elif isinstance(c, CheckC):
                current = CheckNode(self, current, c.expr)
            else:
                raise AssertionError(c)
        distinct = [] if pattern.shareable else [
            i for i, var in enumerate(current.schema) if var in body.element_vars]
        try:
            return current, [current.schema.index(p) for p in pattern.params], distinct
        except ValueError:
            raise MatcherError(
                f"pattern {pattern.name} has a parameter bound only under "
                f"neg find; it cannot be enumerated") from None

    # -- event dispatch ----------------------------------------------------------

    def _on_change(self, ev) -> None:
        space = self.space
        if isinstance(ev, (ElementCreated, ElementDeleted)):
            sign = +1 if isinstance(ev, ElementCreated) else -1
            eid = ev.subject
            relation = ev.kind != ENTITY
            row = (eid, ev.source, ev.target) if relation else (eid,)
            outs = self._dispatch.get((relation, ev.types))
            if outs is None:
                outs = self._targets(relation, ev.types)
            for out in outs:
                out(row, sign)
            if not relation and self._containment is not None:
                # the parent chain is live at both events: delete disposes
                # children before their parents
                outputs = self._containment.outputs
                for anc in chain((ev.parent,), space.ancestors(ev.parent)):
                    for out in outputs:
                        out((eid, anc), sign)
        elif isinstance(ev, (TypeAdded, TypeRemoved)):
            # the space already holds the change: the row enters or leaves
            # the alphas that only ``ev.type`` reaches
            el = space.element(ev.subject)
            relation, rest = el.kind != ENTITY, tuple(t for t in el.types if t != ev.type)
            others = set(self._targets(relation, rest))
            row, sign = _row(el), +1 if isinstance(ev, TypeAdded) else -1
            for out in self._targets(relation, rest + (ev.type,)):
                if out not in others:
                    out(row, sign)
        elif isinstance(ev, EndpointRetargeted):
            el = space.element(ev.subject)
            new = _row(el)
            old = ((el.id, ev.old, el.target) if ev.end == "source"
                   else (el.id, el.source, ev.old))
            outs = self._targets(True, tuple(el.types))
            for row, sign in ((old, -1), (new, +1)):
                for out in outs:
                    out(row, sign)
        elif isinstance(ev, (ValueSet, Renamed)):
            for node in self.check_nodes:
                node.rescan()

    def _targets(self, relation: bool, types: tuple) -> tuple[Callable, ...]:
        """The inputs fed by the alphas an element of ``types`` conforms to,
        each alpha once, from the dispatch table; ``relation`` adds the
        untyped relation alpha."""
        key = (relation, types)
        outs = self._dispatch.get(key)
        if outs is None:
            supers, alphas = self.space.registry.supers, self._alphas
            reached = {None: None} if relation else {}
            for t in types:
                reached.update(dict.fromkeys(supers(t)))
            outs = self._dispatch[key] = tuple(
                out for k in reached if k in alphas for out in alphas[k].outputs)
        return outs
