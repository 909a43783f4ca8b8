"""Typed graph model space: entities, first-class relations, containment,
dynamic instanceOf links, and synchronous change notification.

Elements are identified by monotonically assigned integers that are never
reused. Type information lives in a separate :class:`TypeRegistry` (single
inheritance, entity vs. relation kinds). An element holds an immutable
tuple of type names, the one that :meth:`ModelSpace._check_types` returns
for its kind and types, so all elements of the same types share one tuple;
a retype replaces it with the checked tuple of the new types.

Elements and change events are slots dataclasses, cheap to build. Events are
not frozen, so they are not hashable; a listener must not change one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Optional

from .errors import SpaceError, UnknownTypeError

ENTITY = "entity"
RELATION = "relation"

ROOT_ID = 0


# --- type registry ---------------------------------------------------------


@dataclass
class TypeInfo:
    name: str
    kind: str  # ENTITY or RELATION
    supertype: Optional[str] = None
    builtin: bool = False


class TypeRegistry:
    """Dotted type names with single-inheritance subtyping."""

    def __init__(self):
        self._types: dict[str, TypeInfo] = {}
        self._subs: dict[str, set[str]] = {}
        self._supers_cache: dict[str, tuple[str, ...]] = {}
        self._closure_cache: dict[str, frozenset[str]] = {}

    def register(self, name: str, kind: str, supertype: str | None = None,
                 builtin: bool = False) -> str:
        if kind not in (ENTITY, RELATION):
            raise SpaceError(f"bad type kind {kind!r}")
        existing = self._types.get(name)
        if existing is not None:
            if existing.kind == kind and existing.supertype == supertype:
                return name  # idempotent re-registration (snapshot merges)
            raise SpaceError(f"type {name} already registered with a different definition")
        if supertype is not None:
            sup = self._types.get(supertype)
            if sup is None:
                raise UnknownTypeError(f"unknown supertype {supertype} for {name}")
            if sup.kind != kind:
                raise SpaceError(f"supertype kind mismatch: {name} ({kind}) extends {supertype} ({sup.kind})")
        self._types[name] = TypeInfo(name, kind, supertype, builtin)
        if supertype is not None:
            self._subs.setdefault(supertype, set()).add(name)
        self._supers_cache.clear()
        self._closure_cache.clear()
        return name

    def is_registered(self, name: str) -> bool:
        return name in self._types

    def info(self, name: str) -> TypeInfo:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownTypeError(f"unknown type {name}") from None

    def kind(self, name: str) -> str:
        return self.info(name).kind

    def all_types(self) -> list[TypeInfo]:
        return list(self._types.values())

    def supers(self, name: str) -> tuple[str, ...]:
        """``name`` followed by its supertype chain."""
        cached = self._supers_cache.get(name)
        if cached is not None:
            return cached
        chain = []
        cur: str | None = name
        while cur is not None:  # acyclic: register takes only a registered supertype
            chain.append(cur)
            cur = self.info(cur).supertype
        out = self._supers_cache[name] = tuple(chain)
        return out

    def subtype_closure(self, name: str) -> frozenset[str]:
        cached = self._closure_cache.get(name)
        if cached is not None:
            return cached
        self.info(name)
        seen = {name}
        stack = [name]
        while stack:
            for sub in self._subs.get(stack.pop(), ()):
                if sub not in seen:
                    seen.add(sub)
                    stack.append(sub)
        out = frozenset(seen)
        self._closure_cache[name] = out
        return out

    def resolve(self, name: str, imports: Iterable[str] = ()) -> str:
        """Resolve a possibly import-relative dotted name to a registered type."""
        if name in self._types:
            return name
        tried = [name]
        for prefix in imports:
            cand = f"{prefix}.{name}"
            if cand in self._types:
                return cand
            tried.append(cand)
        raise UnknownTypeError(f"unknown type {name} (tried {', '.join(tried)})")


# --- change events ---------------------------------------------------------


@dataclass(slots=True)
class ElementCreated:
    subject: int
    kind: str
    types: tuple[str, ...]
    parent: Optional[int]
    source: Optional[int]
    target: Optional[int]
    name: Optional[str]
    value: object


@dataclass(slots=True)
class ElementDeleted:
    subject: int
    kind: str
    types: tuple[str, ...]
    parent: Optional[int]
    source: Optional[int]
    target: Optional[int]
    name: Optional[str]
    value: object


@dataclass(slots=True)
class TypeAdded:
    subject: int
    type: str


@dataclass(slots=True)
class TypeRemoved:
    subject: int
    type: str


@dataclass(slots=True)
class ValueSet:
    subject: int
    old: object
    new: object


@dataclass(slots=True)
class Renamed:
    subject: int
    old: Optional[str]
    new: str


@dataclass(slots=True)
class EndpointRetargeted:
    subject: int
    end: str  # 'source' or 'target'
    old: int
    new: int


ChangeEvent = (ElementCreated | ElementDeleted | TypeAdded | TypeRemoved |
               ValueSet | Renamed | EndpointRetargeted)


# --- elements and the space ------------------------------------------------


@dataclass(slots=True)
class Element:
    id: int
    kind: str
    types: tuple[str, ...] = ()
    name: Optional[str] = None
    value: object = None
    parent: Optional[int] = None
    source: Optional[int] = None
    target: Optional[int] = None


def _unindex(index: dict, key, eid: int) -> None:
    """Discard ``eid`` from the set ``index[key]``, and drop the key once
    its set is empty."""
    ids = index.get(key)
    if ids is not None:
        ids.discard(eid)
        if not ids:
            del index[key]


class ModelSpace:
    """Single-writer in-memory graph store with synchronous listeners."""

    def __init__(self, registry: TypeRegistry | None = None):
        self.registry = registry if registry is not None else TypeRegistry()
        self._elements: dict[int, Element] = {}
        self._next_id = 1
        self.version = 0
        self._listeners: list = []
        # indexes
        self._by_type: dict[str, set[int]] = {}
        self._children: dict[int, set[int]] = {}
        self._out: dict[int, set[int]] = {}
        self._in: dict[int, set[int]] = {}
        self._relations: set[int] = set()
        self._checked: dict[tuple[str, tuple], tuple[str, ...]] = {}
        root = Element(ROOT_ID, ENTITY, name="root")
        self._elements[ROOT_ID] = root

    # -- listeners ----------------------------------------------------------

    def subscribe(self, listener) -> None:
        self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        self._listeners.remove(listener)

    def _emit(self, event: ChangeEvent) -> None:
        self.version += 1
        for listener in self._listeners:
            listener(event)

    # -- basic access -------------------------------------------------------

    def is_live(self, eid: int) -> bool:
        return eid in self._elements

    def element(self, eid: int) -> Element:
        el = self._elements.get(eid)
        if el is None:
            raise SpaceError(f"element {eid} is not live")
        return el

    def kind(self, eid: int) -> str:
        return self.element(eid).kind

    def name(self, eid: int) -> str:
        el = self.element(eid)
        if el.name is not None:
            return el.name
        return ("e" if el.kind == ENTITY else "r") + str(el.id)

    def value(self, eid: int):
        return self.element(eid).value

    def parent(self, eid: int) -> Optional[int]:
        return self.element(eid).parent

    def source(self, eid: int) -> int:
        el = self.element(eid)
        if el.kind != RELATION:
            raise SpaceError(f"element {eid} is not a relation")
        return el.source

    def target(self, eid: int) -> int:
        el = self.element(eid)
        if el.kind != RELATION:
            raise SpaceError(f"element {eid} is not a relation")
        return el.target

    def types(self, eid: int) -> frozenset[str]:
        return frozenset(self.element(eid).types)

    def conforms(self, eid: int, type_name: str) -> bool:
        subtypes = self.registry.subtype_closure(type_name)
        return not subtypes.isdisjoint(self.element(eid).types)

    def ancestors(self, eid: int) -> Iterator[int]:
        """Proper containment ancestors of ``eid``, nearest first."""
        cur = self.element(eid).parent
        while cur is not None:
            yield cur
            cur = self._elements[cur].parent

    def contains(self, ancestor: int, descendant: int) -> bool:
        return any(a == ancestor for a in self.ancestors(descendant))

    def elements_of_type(self, type_name: str) -> list[int]:
        """The elements that conform to ``type_name``, ascending."""
        return sorted(self.type_ids(type_name))

    def type_ids(self, type_name: str) -> Collection[int]:
        """The elements that conform to ``type_name``, each once, in no
        order: when only one type of the subtype closure has elements, a
        read-only view of the type index, valid until the next change."""
        sets = self._id_sets(type_name)
        return sets[0] if len(sets) == 1 else set().union(*sets)

    def _id_sets(self, type_name: str) -> list[set[int]]:
        """The id sets of ``type_name``'s subtype closure that hold elements."""
        by_type = self._by_type
        return [s for s in map(by_type.get, self.registry.subtype_closure(type_name)) if s]

    def conforming(self, type_name: str, column: int, rows: list[tuple]) -> list[tuple]:
        """The rows, in order, whose value at ``column`` is a live element of
        ``type_name``; several id sets each meet the rows' values, never one
        another. One comprehension, with no call per row."""
        sets = self._id_sets(type_name)
        ids = sets[0] if len(sets) == 1 else set().union(
            *[s.intersection([r[column] for r in rows]) for s in sets])
        return [r for r in rows if r[column] in ids]

    def count_of_type(self, type_name: str | None) -> int:
        """How many elements conform to ``type_name``, read from the type
        index without building a list; ``None`` counts every relation, typed
        or not, as in ``rows``. An element holding two types of the subtype
        closure counts twice, so this is at least
        ``len(elements_of_type(type_name))``."""
        return len(self._relations) if type_name is None else sum(map(len, self._id_sets(type_name)))

    def rows(self, type_name: str | None) -> list[tuple]:
        """The rows of the elements that conform to ``type_name``, each once,
        in no order; ``None`` gives every relation, typed or not. A row is
        ``(eid,)`` for an entity and ``(rid, source, target)`` for a
        relation."""
        if type_name is None:
            ids = self._relations
        else:
            ids = self.type_ids(type_name)
            if self.registry.kind(type_name) == ENTITY:
                return list(zip(ids))
        return [(el.id, el.source, el.target) for el in map(self._elements.__getitem__, ids)]

    def rows_at(self, type_name: str | None,
                position: int) -> Callable[[tuple], Collection[tuple]]:
        """The reader from a key ``(v,)`` to the rows of ``rows(type_name)``
        whose value at ``position`` is ``v``: 0 reads the element ``v``, 1
        the relations from ``v`` and 2 those to it. Each read looks up the
        subtype closure anew, so it sees a subtype registered since."""
        elements, name, closure = self._elements, type_name, self.registry.subtype_closure
        if position:
            index = self._out if position == 1 else self._in
            if name is None:
                return lambda key: [(el.id, el.source, el.target)
                                    for el in map(elements.__getitem__, index.get(key[0], ()))]

            def walk(key):
                subtypes = closure(name)
                return [(el.id, el.source, el.target)
                        for el in map(elements.__getitem__, index.get(key[0], ()))
                        if name in el.types or not subtypes.isdisjoint(el.types)]
            return walk
        if name is None:
            return lambda key: ((el.id, el.source, el.target),) if (
                (el := elements.get(key[0])) is not None and el.kind == RELATION) else ()
        if self.registry.kind(name) == ENTITY:
            return lambda key: (key,) if (
                (el := elements.get(key[0])) is not None and (
                    name in el.types or not closure(name).isdisjoint(el.types))) else ()
        return lambda key: ((el.id, el.source, el.target),) if (
            (el := elements.get(key[0])) is not None and (
                name in el.types or not closure(name).isdisjoint(el.types))) else ()

    def relations_from(self, eid: int) -> set[int]:
        self.element(eid)
        return set(self._out.get(eid, ()))

    def relations_to(self, eid: int) -> set[int]:
        self.element(eid)
        return set(self._in.get(eid, ()))

    def relation_ids(self, eid: int, outgoing: bool) -> Collection[int]:
        """The relations from (``outgoing``) or to ``eid``, empty when it is
        not live: a read-only view of the index, valid until the next change."""
        return (self._out if outgoing else self._in).get(eid, ())

    def iter_relations(self) -> list[int]:
        return sorted(self._relations)

    def iter_elements(self) -> list[int]:
        """All live element ids except the root, ascending."""
        return sorted(e for e in self._elements if e != ROOT_ID)

    # -- mutation -----------------------------------------------------------

    def _check_types(self, kind: str, types: Iterable[str]) -> tuple[str, ...]:
        """``types`` without repeats, each of which must be a ``kind`` type.
        Each accepted ``(kind, types)`` is checked once, as a registered type
        never changes kind, and gives the same tuple each time: the one its
        elements share as their ``types``."""
        key = (kind, tuple(types))
        checked = self._checked.get(key)
        if checked is None:
            checked = tuple(dict.fromkeys(key[1]))
            for t in checked:
                if self.registry.kind(t) != kind:
                    raise SpaceError(f"type {t} is a {self.registry.kind(t)} type, element is a {kind}")
            self._checked[key] = checked
        return checked

    # The writers: ``_add_entity`` and ``_add_relation`` check the parent or
    # the endpoints against the live elements and index the element by them,
    # and ``_store`` takes its id, stores it and indexes it by type. ``types``
    # is a tuple from ``_check_types``, which the element keeps as it is.
    # They emit nothing: checking types and emitting are the caller's part.

    def _store(self, eid: int | None, kind: str, types: tuple[str, ...], name: str | None,
               value, parent: int | None, source: int | None, target: int | None) -> Element:
        """The new element; ``eid`` is the next fresh id when ``None``, and
        must be positive and unused otherwise (the fresh ids then start past
        it)."""
        if eid is None:
            eid = self._next_id
            self._next_id += 1
        elif eid <= 0:
            raise SpaceError(f"explicit id must be positive, got {eid}")
        elif eid in self._elements:
            raise SpaceError(f"id {eid} already in use")
        elif eid >= self._next_id:
            self._next_id = eid + 1
        el = self._elements[eid] = Element(eid, kind, types, name, value, parent, source, target)
        for t in types:
            self._by_type.setdefault(t, set()).add(eid)
        return el

    def _add_entity(self, types: tuple[str, ...], parent: int | None,
                    eid: int | None, name: str | None, value) -> Element:
        if parent is None:
            parent = ROOT_ID
        pel = self._elements.get(parent)
        if pel is None:
            raise SpaceError(f"element {parent} is not live")
        if pel.kind != ENTITY:
            raise SpaceError(f"containment parent {parent} is not an entity")
        el = self._store(eid, ENTITY, types, name, value, parent, None, None)
        self._children.setdefault(parent, set()).add(el.id)
        return el

    def _add_relation(self, types: tuple[str, ...], source: int, target: int,
                      eid: int | None, name: str | None, value) -> Element:
        for end in (source, target):
            if end not in self._elements:
                raise SpaceError(f"element {end} is not live")
        el = self._store(eid, RELATION, types, name, value, None, source, target)
        eid = el.id
        self._relations.add(eid)
        self._out.setdefault(source, set()).add(eid)
        self._in.setdefault(target, set()).add(eid)
        return el

    def _create(self, kind: str, types: Iterable[str], parent: int | None,
                source: int | None, target: int | None,
                eid: int | None = None, name: str | None = None,
                value=None) -> int:
        types = self._check_types(kind, types)
        if kind == ENTITY:
            el = self._add_entity(types, parent, eid, name, value)
        else:
            el = self._add_relation(types, source, target, eid, name, value)
        self._emit(ElementCreated(el.id, kind, types, el.parent, el.source, el.target,
                                  name, value))
        return el.id

    def new_entity(self, type_name: str, parent: int | None = None) -> int:
        return self._create(ENTITY, (type_name,), parent, None, None)

    def new_relation(self, type_name: str | None, source: int, target: int) -> int:
        return self._create(RELATION, () if type_name is None else (type_name,),
                            None, source, target)

    def _dispose(self, eid: int) -> None:
        """Remove a single element and emit its deletion event (no cascade)."""
        el = self._elements.pop(eid)
        for t in el.types:
            _unindex(self._by_type, t, eid)
        if el.kind == RELATION:
            self._relations.discard(eid)
            _unindex(self._out, el.source, eid)
            _unindex(self._in, el.target, eid)
        if el.parent is not None:
            _unindex(self._children, el.parent, eid)
        self._children.pop(eid, None)
        self._out.pop(eid, None)
        self._in.pop(eid, None)
        types = el.types
        if len(types) > 1:
            types = tuple(sorted(types))
        self._emit(ElementDeleted(el.id, el.kind, types, el.parent, el.source, el.target,
                                  el.name, el.value))

    def _dependents(self, eid: int) -> set[int]:
        """The children of ``eid`` and the relations incident to it."""
        return set().union(self._children.get(eid, ()), self._out.get(eid, ()),
                           self._in.get(eid, ()))

    def delete(self, eid: int) -> None:
        """Delete ``eid``, its transitively contained children, and every
        relation incident to any removed element.

        Emission order: dependents first (relations before their endpoints,
        children before parents), ``eid`` itself last.
        """
        if eid == ROOT_ID:
            raise SpaceError("cannot delete the model root")
        self.element(eid)
        closure = {eid}
        frontier = [eid]
        while frontier:
            x = frontier.pop()
            more = self._dependents(x)
            for y in more:
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        remaining = set(closure)
        while remaining:
            ready = []
            for x in sorted(remaining):
                if x == eid and len(remaining) > 1:
                    continue
                deps = self._dependents(x) & remaining
                if not deps:
                    ready.append(x)
            if not ready:  # only possible via relation->relation knots
                ready = [x for x in sorted(remaining) if x != eid] or [eid]
            for x in ready:
                self._dispose(x)
                remaining.discard(x)

    def add_type(self, eid: int, type_name: str) -> None:
        el = self.element(eid)
        if self.registry.kind(type_name) != el.kind:
            raise SpaceError(f"cannot add {self.registry.kind(type_name)} type {type_name} "
                             f"to {el.kind} {eid}")
        if type_name in el.types:
            raise SpaceError(f"element {eid} already instanceOf {type_name}")
        el.types = self._check_types(el.kind, el.types + (type_name,))
        self._by_type.setdefault(type_name, set()).add(eid)
        self._emit(TypeAdded(eid, type_name))

    def remove_type(self, eid: int, type_name: str) -> None:
        el = self.element(eid)
        self.registry.info(type_name)
        if type_name not in el.types:
            raise SpaceError(f"element {eid} is not instanceOf {type_name}")
        el.types = self._check_types(el.kind, tuple(t for t in el.types if t != type_name))
        _unindex(self._by_type, type_name, eid)
        self._emit(TypeRemoved(eid, type_name))

    def set_value(self, eid: int, value) -> None:
        if value is not None and type(value) not in (int, str):  # bool included
            raise SpaceError(f"values are strings or integers, got {type(value).__name__}")
        el = self.element(eid)
        old = el.value
        el.value = value
        self._emit(ValueSet(eid, old, value))

    def rename(self, eid: int, name: str) -> None:
        if not isinstance(name, str):
            raise SpaceError("names are strings")
        el = self.element(eid)
        old = el.name
        el.name = name
        self._emit(Renamed(eid, old, name))

    def _retarget(self, rid: int, end: str, new: int) -> None:
        el = self.element(rid)
        if el.kind != RELATION:
            raise SpaceError(f"cannot retarget {el.kind} {rid}")
        self.element(new)
        if end == "source":
            old = el.source
            _unindex(self._out, old, rid)
            el.source = new
            self._out.setdefault(new, set()).add(rid)
        else:
            old = el.target
            _unindex(self._in, old, rid)
            el.target = new
            self._in.setdefault(new, set()).add(rid)
        self._emit(EndpointRetargeted(rid, end, old, new))

    def set_source(self, rid: int, new_source: int) -> None:
        self._retarget(rid, "source", new_source)

    def set_target(self, rid: int, new_target: int) -> None:
        self._retarget(rid, "target", new_target)

    # -- consistency and comparison -----------------------------------------

    def audit(self) -> list[str]:
        """Full-space referential-integrity check; returns violations."""
        problems = []
        for eid, el in self._elements.items():
            for t in el.types:
                if not self.registry.is_registered(t):
                    problems.append(f"{eid}: unregistered type {t}")
                elif self.registry.kind(t) != el.kind:
                    problems.append(f"{eid}: type {t} kind mismatch")
            if el.kind == RELATION:
                if el.source not in self._elements:
                    problems.append(f"{eid}: dead source {el.source}")
                if el.target not in self._elements:
                    problems.append(f"{eid}: dead target {el.target}")
            if el.parent is not None:
                pel = self._elements.get(el.parent)
                if pel is None:
                    problems.append(f"{eid}: dead parent {el.parent}")
                elif pel.kind != ENTITY:
                    problems.append(f"{eid}: parent {el.parent} is not an entity")
                seen = {eid}
                cur = el.parent
                while cur is not None:
                    if cur in seen:
                        problems.append(f"{eid}: containment cycle at {cur}")
                        break
                    seen.add(cur)
                    cur = self._elements[cur].parent if cur in self._elements else None
            elif el.kind == ENTITY and eid != ROOT_ID:
                problems.append(f"{eid}: entity without parent")
        return problems

    def state(self) -> dict[int, tuple]:
        """Comparable snapshot of all live elements (root excluded)."""
        out = {}
        for eid, el in self._elements.items():
            if eid == ROOT_ID:
                continue
            out[eid] = (el.kind, frozenset(el.types), el.name, el.value,
                        el.parent, el.source, el.target)
        return out


def replay(events: Iterable[ChangeEvent], registry: TypeRegistry) -> ModelSpace:
    """Rebuild a space by applying a recorded event stream to an empty one."""
    space = ModelSpace(registry)
    for ev in events:
        if isinstance(ev, ElementCreated):
            space._create(ev.kind, ev.types, ev.parent, ev.source, ev.target,
                          eid=ev.subject, name=ev.name, value=ev.value)
        elif isinstance(ev, ElementDeleted):
            if space.is_live(ev.subject):
                space._dispose(ev.subject)
        elif isinstance(ev, TypeAdded):
            space.add_type(ev.subject, ev.type)
        elif isinstance(ev, TypeRemoved):
            space.remove_type(ev.subject, ev.type)
        elif isinstance(ev, ValueSet):
            space.set_value(ev.subject, ev.new)
        elif isinstance(ev, Renamed):
            space.rename(ev.subject, ev.new)
        elif isinstance(ev, EndpointRetargeted):
            space._retarget(ev.subject, ev.end, ev.new)
        else:
            raise SpaceError(f"unknown event {ev!r}")
    return space
