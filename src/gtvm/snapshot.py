r"""Line-based text snapshots of a model space (.gms files).

One directive per line:

    type <dotted.name> <entity|relation> [extends <dotted.name>]
    entity <id> : <dotted.name>[,...] [in <parentId>] [name="..."] [value="..."|value=<int>]
    relation <id> : [<dotted.name>[,...]] (<srcId> -> <trgId>) [name="..."] [value=...]

Types come first, then entities in containment order, then relations, so a
file is loadable top to bottom. Saving and re-loading a space round-trips
exactly (ids, types, names, values, endpoints, containment).

A quoted name or value escapes ``\`` and ``"`` with a backslash, a newline
as ``\n``, and every other character that ends a line for
``str.splitlines`` (``\r``, ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85``,
U+2028, U+2029) as ``\u`` and four lowercase hex digits, so no directive
spans two lines whichever way a reader splits them. A backslash before any
other character stands for that character.
"""

from __future__ import annotations

import re

from .errors import SnapshotError
from .modelspace import ENTITY, RELATION, ROOT_ID, Element, ModelSpace, TypeRegistry


# the line breaks of ``str.splitlines``, none of them printable, and the
# escape each is written as
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK_ESCAPES = {"\n": "\\n", **{c: f"\\u{ord(c):04x}" for c in _BREAKS[1:]}}
_BREAK = re.compile(f"[{_BREAKS}]")
_UNESCAPES = {e[1:]: c for c, e in _BREAK_ESCAPES.items()}
_ESCAPED = re.compile(r"\\(%s|.)" % "|".join(_UNESCAPES), re.S)


def _quote(s: str) -> str:
    s = s.replace("\\", "\\\\").replace('"', '\\"')
    if not s.isprintable():
        s = _BREAK.sub(lambda m: _BREAK_ESCAPES[m[0]], s)
    return '"' + s + '"'


def _unquote(s: str) -> str:
    if "\\" not in s:
        return s
    return _ESCAPED.sub(lambda m: _UNESCAPES.get(m[1], m[1]), s)


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
# the parts of an element line: id and types field, endpoints, ``in`` part,
# and name and value up to the end of the line
_HEAD = r"\s+([0-9]+)\s*:\s*([\w.,]*)"
_ENDS = r"\s*\(\s*([0-9]+)\s*->\s*([0-9]+)\s*\)"
_IN = r"\s+in\s+([0-9]+)"
_TAIL = (r'(?:\s+name="((?:[^"\\]|\\.)*)")?'
         r'(?:\s+value=(?:"((?:[^"\\]|\\.)*)"|(-?[0-9]+)))?\s*$')
_ENTITY_RE = re.compile(f"^entity{_HEAD}(?:{_IN})?{_TAIL}")
_RELATION_RE = re.compile(f"^relation{_HEAD}{_ENDS}{_TAIL}")
# either kind with either part: read only for the error of a line that
# its kind's pattern does not take
_ANY_ELEMENT_RE = re.compile(f"^(entity|relation){_HEAD}(?:{_ENDS})?(?:{_IN})?{_TAIL}")


def _value(quoted: str | None, digits: str | None):
    return _unquote(quoted) if quoted is not None else int(digits) if digits is not None else None


def _misplaced(line: str, raw: str) -> str:
    """The error of an element line that its kind's pattern does not take:
    an entity line with endpoints, a relation line without them or with a
    parent, or else a bad directive. An integer value too long to read is
    reported first, as on any other element line."""
    m = _ANY_ELEMENT_RE.match(line)
    if m is None:
        return f"bad directive: {raw!r}"
    if m[9] is not None:
        int(m[9])
    if m[1] == ENTITY:
        return "entity line with endpoints"
    return "relation needs endpoints and no parent"


def load(text: str, registry: TypeRegistry) -> ModelSpace:
    """Build a fresh space over ``registry`` from snapshot text.

    Type directives register additional (non-builtin) types; re-declaring an
    identical existing type is allowed. Every ``in`` parent and endpoint must
    be an element of an earlier line. The space is built without change
    events, as nothing can listen to it yet; its ``version`` ends at the
    number of elements, as if each had been created in turn.
    """
    space = ModelSpace(registry)
    add_entity, add_relation, check = space._add_entity, space._add_relation, space._check_types
    entity_match, relation_match = _ENTITY_RE.match, _RELATION_RE.match
    # types field -> its checked types, per kind; a type, once registered,
    # keeps its kind, so a field checked once holds for every later line
    entity_types: dict[str, tuple[str, ...]] = {}
    relation_types: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if (m := relation_match(line)) is not None:
                eid, types_s, src, trg, name, quoted, digits = m.groups()
                value = _value(quoted, digits)
                types = relation_types.get(types_s)
                if types is None:
                    types = relation_types[types_s] = check(
                        RELATION, [t for t in types_s.split(",") if t])
                add_relation(types, int(src), int(trg), int(eid),
                             name if name is None else _unquote(name), value)
            elif (m := entity_match(line)) is not None:
                eid, types_s, parent, name, quoted, digits = m.groups()
                value = _value(quoted, digits)
                types = entity_types.get(types_s)
                if types is None:
                    types = [t for t in types_s.split(",") if t]
                    if not types:
                        raise SnapshotError("entity needs at least one type", lineno)
                    types = entity_types[types_s] = check(ENTITY, types)
                add_entity(types, int(parent) if parent else None, int(eid),
                           name if name is None else _unquote(name), value)
            elif line.startswith("type "):
                m = _TYPE_RE.match(line)
                if not m:
                    raise SnapshotError(f"bad type directive: {raw!r}", lineno)
                registry.register(*m.groups())
            else:
                raise SnapshotError(_misplaced(line, raw), lineno)
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
