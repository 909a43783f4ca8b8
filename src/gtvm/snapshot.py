"""Line-based text snapshots of a model space (.gms files).

One directive per line:

    type <dotted.name> <entity|relation> [extends <dotted.name>]
    entity <id> : <dotted.name>[,...] [in <parentId>] [name="..."] [value="..."|value=<int>]
    relation <id> : [<dotted.name>[,...]] (<srcId> -> <trgId>) [name="..."] [value=...]

Types come first, then entities in containment order, then relations, so a
file is loadable top to bottom. Saving and re-loading a space round-trips
exactly (ids, types, names, values, endpoints, containment).
"""

from __future__ import annotations

import re

from .errors import SnapshotError
from .modelspace import ENTITY, RELATION, ROOT_ID, Element, ModelSpace, TypeRegistry


_ESCAPED = re.compile(r"\\(.)", re.S)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def _unquote(s: str) -> str:
    if "\\" not in s:
        return s
    return _ESCAPED.sub(lambda m: "\n" if m[1] == "n" else m[1], s)


def _element_line(el: Element, where: str) -> str:
    """The directive of ``el``; ``where`` is its ``in`` part or its endpoints,
    after a space, or empty."""
    types = el.types
    line = f"{el.kind} {el.id} : {','.join(types if len(types) < 2 else sorted(types))}{where}"
    if el.name is not None:
        line += f" name={_quote(el.name)}"
    if el.value is not None:
        line += f" value={_quote(el.value) if isinstance(el.value, str) else el.value}"
    return line


def save(space: ModelSpace) -> str:
    lines = []
    customs = {t.name: t for t in space.registry.all_types() if not t.builtin}
    emitted_types: set[str] = set()

    def emit_type(info):
        if info.name in emitted_types:
            return
        if info.supertype and info.supertype in customs:
            emit_type(customs[info.supertype])
        emitted_types.add(info.name)
        line = f"type {info.name} {info.kind}"
        if info.supertype:
            line += f" extends {info.supertype}"
        lines.append(line)

    for name in sorted(customs):
        emit_type(customs[name])

    entities = []
    relations = []
    elements = space._elements
    for eid in sorted(elements)[1:]:  # the root, id 0, sorts first
        el = elements[eid]
        (entities if el.kind == ENTITY else relations).append(el)

    # parents before children
    emitted: set[int] = {ROOT_ID}
    pending = entities
    while pending:
        rest = []
        for el in pending:
            if el.parent not in emitted:
                rest.append(el)
                continue
            lines.append(_element_line(el, f" in {el.parent}" if el.parent != ROOT_ID else ""))
            emitted.add(el.id)
        if len(rest) == len(pending):
            raise SnapshotError(f"containment not grounded for {[el.id for el in rest]}")
        pending = rest

    for el in relations:
        lines.append(_element_line(el, f" ({el.source} -> {el.target})"))
    return "\n".join(lines) + ("\n" if lines else "")


_TYPE_RE = re.compile(r"^type\s+(\S+)\s+(entity|relation)(?:\s+extends\s+(\S+))?\s*$")
_ELEM_RE = re.compile(
    r"^(entity|relation)\s+([0-9]+)\s*:\s*([\w.,]*)"
    r"(?:\s*\(\s*([0-9]+)\s*->\s*([0-9]+)\s*\))?"
    r"(?:\s+in\s+([0-9]+))?"
    r'(?:\s+name="((?:[^"\\]|\\.)*)")?'
    r'(?:\s+value=(?:"((?:[^"\\]|\\.)*)"|(-?[0-9]+)))?\s*$'
)


def load(text: str, registry: TypeRegistry) -> ModelSpace:
    """Build a fresh space over ``registry`` from snapshot text.

    Type directives register additional (non-builtin) types; re-declaring an
    identical existing type is allowed. Every ``in`` parent and endpoint must
    be an element of an earlier line. The space is built without change
    events, as nothing can listen to it yet; its ``version`` ends at the
    number of elements, as if each had been created in turn.
    """
    space = ModelSpace(registry)
    add = space._add
    # (kind, types field) -> its checked types; a type, once registered,
    # keeps its kind, so a field checked once holds for every later line
    checked: dict[tuple[str, str], tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("type "):
            m = _TYPE_RE.match(line)
            if not m:
                raise SnapshotError(f"bad type directive: {raw!r}", lineno)
            name, kind, sup = m.groups()
            try:
                registry.register(name, kind, sup)
            except Exception as e:
                raise SnapshotError(str(e), lineno) from None
            continue
        m = _ELEM_RE.match(line)
        if not m:
            raise SnapshotError(f"bad directive: {raw!r}", lineno)
        what, eid, types_s, src, trg, parent, name_s, value_s, value_i = m.groups()
        name = _unquote(name_s) if name_s is not None else None
        try:
            value = (_unquote(value_s) if value_s is not None
                     else int(value_i) if value_i is not None else None)
            if what == ENTITY:
                if src is not None:
                    raise SnapshotError("entity line with endpoints", lineno)
            elif src is None or parent is not None:
                raise SnapshotError("relation needs endpoints and no parent", lineno)
            types = checked.get((what, types_s))
            if types is None:
                types = [t for t in types_s.split(",") if t]
                if what == ENTITY and not types:
                    raise SnapshotError("entity needs at least one type", lineno)
                types = checked[what, types_s] = space._check_types(what, types)
            if what == ENTITY:
                add(ENTITY, types, int(parent) if parent else None, None, None,
                    int(eid), name, value)
            else:
                add(RELATION, types, None, int(src), int(trg), int(eid), name, value)
        except SnapshotError:
            raise
        except Exception as e:
            raise SnapshotError(str(e), lineno) from None
    space.version = len(space._elements) - 1  # the root is no created element
    return space


def save_file(space: ModelSpace, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(save(space))


def load_file(path, registry: TypeRegistry) -> ModelSpace:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise SnapshotError(f"{path} is not UTF-8 text (byte {e.start})") from None
    return load(text, registry)
