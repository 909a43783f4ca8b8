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
from .modelspace import ENTITY, RELATION, ROOT_ID, ModelSpace, TypeRegistry


_ESCAPED = re.compile(r"\\(.)", re.S)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def _unquote(s: str) -> str:
    return _ESCAPED.sub(lambda m: "\n" if m[1] == "n" else m[1], s)


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
    for eid in space.iter_elements():
        (entities if space.kind(eid) == ENTITY else relations).append(eid)

    # parents before children
    emitted: set[int] = {ROOT_ID}
    pending = entities
    while pending:
        rest = []
        for eid in pending:
            el = space.element(eid)
            if el.parent not in emitted:
                rest.append(eid)
                continue
            parts = [f"entity {eid} : {','.join(sorted(el.types))}"]
            if el.parent != ROOT_ID:
                parts.append(f"in {el.parent}")
            if el.name is not None:
                parts.append(f"name={_quote(el.name)}")
            if el.value is not None:
                parts.append(f"value={_quote(el.value) if isinstance(el.value, str) else el.value}")
            lines.append(" ".join(parts))
            emitted.add(eid)
        if len(rest) == len(pending):
            raise SnapshotError(f"containment not grounded for {rest}")
        pending = rest

    for rid in relations:
        el = space.element(rid)
        parts = [f"relation {rid} : {','.join(sorted(el.types))}",
                 f"({el.source} -> {el.target})"]
        if el.name is not None:
            parts.append(f"name={_quote(el.name)}")
        if el.value is not None:
            parts.append(f"value={_quote(el.value) if isinstance(el.value, str) else el.value}")
        lines.append(" ".join(parts))
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
    identical existing type is allowed.
    """
    space = ModelSpace(registry)
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
        types = [t for t in types_s.split(",") if t]
        name = _unquote(name_s) if name_s is not None else None
        try:
            value = (_unquote(value_s) if value_s is not None
                     else int(value_i) if value_i is not None else None)
            if what == "entity":
                if src is not None:
                    raise SnapshotError("entity line with endpoints", lineno)
                if not types:
                    raise SnapshotError("entity needs at least one type", lineno)
                space._create(ENTITY, types, int(parent) if parent else None,
                              None, None, eid=int(eid), name=name, value=value)
            else:
                if src is None or parent is not None:
                    raise SnapshotError("relation needs endpoints and no parent", lineno)
                space._create(RELATION, types, None, int(src), int(trg),
                              eid=int(eid), name=name, value=value)
        except SnapshotError:
            raise
        except Exception as e:
            raise SnapshotError(str(e), lineno) from None
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
