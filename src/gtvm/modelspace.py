"""Typed graph model space: entities, first-class relations, containment,
dynamic instanceOf links, and synchronous change notification.

Elements are identified by monotonically assigned integers that are never
reused. Type information lives in a separate :class:`TypeRegistry` (single
inheritance, entity vs. relation kinds); an element holds a mutable *set* of
type names so it can be retyped in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

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
        while cur is not None:
            if cur in chain:
                raise SpaceError(f"supertype cycle at {cur}")
            chain.append(cur)
            cur = self.info(cur).supertype
        out = tuple(chain)
        self._supers_cache[name] = out
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


@dataclass(frozen=True)
class ElementCreated:
    subject: int
    kind: str
    types: tuple[str, ...]
    parent: Optional[int]
    source: Optional[int]
    target: Optional[int]
    name: Optional[str]
    value: object


@dataclass(frozen=True)
class ElementDeleted:
    subject: int
    kind: str
    types: tuple[str, ...]
    parent: Optional[int]
    source: Optional[int]
    target: Optional[int]
    name: Optional[str]
    value: object


@dataclass(frozen=True)
class TypeAdded:
    subject: int
    type: str


@dataclass(frozen=True)
class TypeRemoved:
    subject: int
    type: str


@dataclass(frozen=True)
class ValueSet:
    subject: int
    old: object
    new: object


@dataclass(frozen=True)
class Renamed:
    subject: int
    old: Optional[str]
    new: str


@dataclass(frozen=True)
class EndpointRetargeted:
    subject: int
    end: str  # 'source' or 'target'
    old: int
    new: int


ChangeEvent = (ElementCreated | ElementDeleted | TypeAdded | TypeRemoved |
               ValueSet | Renamed | EndpointRetargeted)


# --- elements and the space ------------------------------------------------


@dataclass
class Element:
    id: int
    kind: str
    types: set[str] = field(default_factory=set)
    name: Optional[str] = None
    value: object = None
    parent: Optional[int] = None
    source: Optional[int] = None
    target: Optional[int] = None


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
        self.registry.info(type_name)
        return any(type_name in self.registry.supers(t) for t in self.element(eid).types)

    def children(self, eid: int) -> set[int]:
        self.element(eid)
        return set(self._children.get(eid, ()))

    def ancestors(self, eid: int) -> Iterator[int]:
        """Proper containment ancestors of ``eid``, nearest first."""
        cur = self.element(eid).parent
        while cur is not None:
            yield cur
            cur = self._elements[cur].parent

    def contains(self, ancestor: int, descendant: int) -> bool:
        return any(a == ancestor for a in self.ancestors(descendant))

    def elements_of_type(self, type_name: str, include_subtypes: bool = True) -> list[int]:
        self.registry.info(type_name)
        if not include_subtypes:
            return sorted(self._by_type.get(type_name, ()))
        out: set[int] = set()
        for t in self.registry.subtype_closure(type_name):
            out |= self._by_type.get(t, set())
        return sorted(out)

    def relations_from(self, eid: int) -> set[int]:
        self.element(eid)
        return set(self._out.get(eid, ()))

    def relations_to(self, eid: int) -> set[int]:
        self.element(eid)
        return set(self._in.get(eid, ()))

    def relations_with_endpoint(self, eid: int) -> set[int]:
        self.element(eid)
        return set(self._out.get(eid, ())) | set(self._in.get(eid, ()))

    def iter_relations(self) -> list[int]:
        return sorted(self._relations)

    def iter_elements(self) -> list[int]:
        """All live element ids except the root, ascending."""
        return sorted(e for e in self._elements if e != ROOT_ID)

    # -- mutation -----------------------------------------------------------

    def _take_id(self, explicit: int | None) -> int:
        if explicit is None:
            eid = self._next_id
            self._next_id += 1
            return eid
        if explicit <= 0:
            raise SpaceError(f"explicit id must be positive, got {explicit}")
        if explicit in self._elements:
            raise SpaceError(f"id {explicit} already in use")
        self._next_id = max(self._next_id, explicit + 1)
        return explicit

    def _index_add(self, el: Element) -> None:
        for t in el.types:
            self._by_type.setdefault(t, set()).add(el.id)
        if el.kind == RELATION:
            self._relations.add(el.id)
            self._out.setdefault(el.source, set()).add(el.id)
            self._in.setdefault(el.target, set()).add(el.id)
        if el.parent is not None:
            self._children.setdefault(el.parent, set()).add(el.id)

    def _create(self, kind: str, types: Iterable[str], parent: int | None,
                source: int | None, target: int | None,
                eid: int | None = None, name: str | None = None,
                value=None) -> int:
        types = tuple(dict.fromkeys(types))
        for t in types:
            if self.registry.kind(t) != kind:
                raise SpaceError(f"type {t} is a {self.registry.kind(t)} type, element is a {kind}")
        if kind == ENTITY:
            if parent is None:
                parent = ROOT_ID
            pel = self.element(parent)
            if pel.kind != ENTITY:
                raise SpaceError(f"containment parent {parent} is not an entity")
            source = target = None
        else:
            self.element(source)
            self.element(target)
            parent = None
        new_id = self._take_id(eid)
        el = Element(new_id, kind, set(types), name, value, parent, source, target)
        self._elements[new_id] = el
        self._index_add(el)
        self._emit(ElementCreated(new_id, kind, types, parent, source, target, name, value))
        return new_id

    def new_entity(self, type_name: str, parent: int | None = None) -> int:
        if self.registry.kind(type_name) != ENTITY:
            raise SpaceError(f"{type_name} is not an entity type")
        return self._create(ENTITY, (type_name,), parent, None, None)

    def new_relation(self, type_name: str | None, source: int, target: int) -> int:
        if type_name is not None and self.registry.kind(type_name) != RELATION:
            raise SpaceError(f"{type_name} is not a relation type")
        types = () if type_name is None else (type_name,)
        return self._create(RELATION, types, None, source, target)

    def _dispose(self, eid: int) -> None:
        """Remove a single element and emit its deletion event (no cascade)."""
        el = self._elements.pop(eid)
        for t in el.types:
            self._by_type[t].discard(eid)
        if el.kind == RELATION:
            self._relations.discard(eid)
            self._out.get(el.source, set()).discard(eid)
            self._in.get(el.target, set()).discard(eid)
        if el.parent is not None:
            self._children.get(el.parent, set()).discard(eid)
        self._children.pop(eid, None)
        self._out.pop(eid, None)
        self._in.pop(eid, None)
        self._emit(ElementDeleted(el.id, el.kind, tuple(sorted(el.types)), el.parent,
                                  el.source, el.target, el.name, el.value))

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
            more = self._children.get(x, set()) | self._out.get(x, set()) | self._in.get(x, set())
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
                deps = (self._children.get(x, set()) | self._out.get(x, set()) |
                        self._in.get(x, set())) & remaining
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
        el.types.add(type_name)
        self._by_type.setdefault(type_name, set()).add(eid)
        self._emit(TypeAdded(eid, type_name))

    def remove_type(self, eid: int, type_name: str) -> None:
        el = self.element(eid)
        self.registry.info(type_name)
        if type_name not in el.types:
            raise SpaceError(f"element {eid} is not instanceOf {type_name}")
        el.types.discard(type_name)
        self._by_type.get(type_name, set()).discard(eid)
        self._emit(TypeRemoved(eid, type_name))

    def set_value(self, eid: int, value) -> None:
        if value is not None and not isinstance(value, (int, str)):
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
            self._out.get(old, set()).discard(rid)
            el.source = new
            self._out.setdefault(new, set()).add(rid)
        else:
            old = el.target
            self._in.get(old, set()).discard(rid)
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
