"""Independent oracles used by tests and the diff tool.

Deliberately separate from both matchers: the enumerator below assigns body
variables by nested loops in one fixed order, whatever the model, testing on
each prefix every positive constraint that reads the variable just assigned
(unassigned positions are wildcards). No search plans, no Rete, no tabling.
Reachability questions get their own closure-based oracles.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import expr as ex
from .errors import GtvmError
from .modelspace import RELATION, ROOT_ID, ModelSpace
from .patterns import (CheckC, CountC, EntityC, FindC, NegC, Pattern,
                       RelationC)


class OracleError(GtvmError):
    pass


def _consistent_tuples(tuples: Iterable[tuple], args: tuple[str, ...], env: dict):
    """Tuples agreeing with assigned args; repeated unassigned args unify."""
    fixed = [(i, env[a]) for i, a in enumerate(args) if a in env]
    rep: dict[str, int] = {}
    eqs = []
    for i, a in enumerate(args):
        if a in env:
            continue
        if a in rep:
            eqs.append((rep[a], i))
        else:
            rep[a] = i
    for t in tuples:
        if all(t[i] == v for i, v in fixed) and all(t[i] == t[j] for i, j in eqs):
            yield t


# --- brute-force pattern enumeration ----------------------------------------


class BruteForce:
    """Generate-and-test evaluation of non-recursive patterns."""

    def __init__(self, space: ModelSpace, patterns: Mapping[str, Pattern]):
        self.space = space
        self.patterns = patterns
        self._full: dict[str, frozenset[tuple]] = {}
        self._indexes: dict[tuple, dict[tuple, list[tuple]]] = {}

    def match_set(self, name: str, binding: dict | None = None) -> frozenset[tuple]:
        """The matches of ``name`` whose parameters take the values of
        ``binding``: each body enumerated with those parameters fixed, so a
        parameter that no positive constraint binds may be bound here."""
        if not binding:
            return self.full(name)
        p = self._pattern(name)
        for param in binding:
            if param not in p.params:
                raise OracleError(f"{name}: {param} is not a parameter")
        out: set[tuple] = set()
        for body in p.bodies:
            out |= self._body_matches(p, body, binding)
        return frozenset(out)

    def count(self, name: str, binding: dict | None = None) -> int:
        return len(self.match_set(name, binding))

    def full(self, name: str) -> frozenset[tuple]:
        hit = self._full.get(name)
        if hit is not None:
            return hit
        p = self._pattern(name)
        out: set[tuple] = set()
        for body in p.bodies:
            out |= self._body_matches(p, body, {})
        result = frozenset(out)
        self._full[name] = result
        return result

    def _pattern(self, name: str) -> Pattern:
        p = self.patterns[name]
        if p.recursive:
            raise OracleError(f"{name} is recursive; use a closure oracle")
        return p

    def _agreeing(self, name: str, args: tuple[str, ...], env: dict):
        """The tuples of ``name`` that agree with ``env``, as
        ``_consistent_tuples`` gives them, looked up by the assigned
        positions in an index of the full set built on first use."""
        positions = tuple(i for i, a in enumerate(args) if a in env)
        index = self._indexes.get((name, positions))
        if index is None:
            index = self._indexes[name, positions] = {}
            for t in self.full(name):
                index.setdefault(tuple(t[i] for i in positions), []).append(t)
        return _consistent_tuples(index.get(tuple(env[args[i]] for i in positions), ()),
                                  args, env)

    def _domains(self, p: Pattern, body) -> tuple[list[str], dict[str, set]]:
        space = self.space
        everything = set(space.iter_elements())
        enum_vars: list[str] = []
        domains: dict[str, set] = {}
        outs = {c.out for c in body.constraints if isinstance(c, CountC)}

        def narrow(v: str, dom: set) -> None:
            if v in outs:
                return
            if v not in domains:
                enum_vars.append(v)
                domains[v] = set(dom)
            else:
                domains[v] &= dom

        # variables are assigned in the order they are first met here: the
        # typed relation constraints' (each relation before its ends), then
        # the calls' arguments, then the entity constraints' variables, then
        # the untyped relations', each kind in declaration order; so a typed
        # relation or a call binds the variables the constraints after it
        # only test, and an untyped relation, which every relation of the
        # model fits, is tried only at the ends assigned before it
        kinds = {RelationC: 0, FindC: 1, EntityC: 2}

        def kind(c) -> int:
            if isinstance(c, RelationC) and c.type is None:
                return 3
            return kinds.get(type(c), 4)
        for c in sorted(body.constraints, key=kind):
            if isinstance(c, EntityC):
                narrow(c.var, set(space.elements_of_type(c.type)))
                if c.in_var is not None:
                    narrow(c.in_var, everything | {ROOT_ID})
            elif isinstance(c, RelationC):
                rels = (set(space.iter_relations()) if c.type is None
                        else set(space.elements_of_type(c.type)))
                narrow(c.rel, rels)
                narrow(c.src, everything)
                narrow(c.trg, everything)
            elif isinstance(c, FindC):
                sub = self.full(c.pattern)
                for i, a in enumerate(c.args):
                    narrow(a, {t[i] for t in sub})
        return enum_vars, domains

    def _consistent(self, c, env: dict) -> bool:
        """Constraint check treating unassigned variables as wildcards."""
        space = self.space
        if isinstance(c, EntityC):
            v = env.get(c.var)
            if v is not None:
                if not space.is_live(v) or not space.conforms(v, c.type):
                    return False
                if c.in_var is not None and env.get(c.in_var) is not None:
                    if not space.contains(env[c.in_var], v):
                        return False
            return True
        if isinstance(c, RelationC):
            r = env.get(c.rel)
            if r is None:
                # some relation at an assigned end must fit
                src, trg = env.get(c.src), env.get(c.trg)
                if src is None and trg is None:
                    return True
                if not space.is_live(src if src is not None else trg):
                    return False
                rels = (space.relations_from(src) if src is not None
                        else space.relations_to(trg))
                return any(self._consistent(c, {**env, c.rel: x}) for x in rels)
            if not space.is_live(r) or space.kind(r) != RELATION:
                return False
            if c.type is not None and not space.conforms(r, c.type):
                return False
            el = space.element(r)
            if env.get(c.src) is not None and env[c.src] != el.source:
                return False
            if env.get(c.trg) is not None and env[c.trg] != el.target:
                return False
            return True
        if isinstance(c, FindC):
            # prune prefixes with no consistent completion in the callee
            return any(True for _ in self._agreeing(c.pattern, c.args, env))
        # neg/count are only decidable on complete assignments
        return True

    def _body_matches(self, p: Pattern, body, binding: dict) -> set[tuple]:
        """The parameter tuples of the matches of ``body`` of ``p`` whose
        parameters take the values of ``binding``, which are fixed before
        the other variables are enumerated."""
        space = self.space
        enum_vars, domains = self._domains(p, body)
        outs = {c.out for c in body.constraints if isinstance(c, CountC)}
        for param in p.params:
            if param not in enum_vars and param not in outs and param not in binding:
                raise OracleError(f"{p.name}: parameter {param} has no "
                                  f"positive binder; cannot enumerate")
        constraints = list(body.constraints)
        injective = not p.shareable
        element_vars = (set(enum_vars) if body.element_vars is None
                        else body.element_vars)

        out: set[tuple] = set()
        env: dict[str, object] = dict(binding)
        enum_vars = [v for v in enum_vars if v not in env]
        fixed = [env[v] for v in env if v in element_vars]
        if injective and len(set(fixed)) < len(fixed):
            return out

        tests = [ex.compile_expr(c.expr) if isinstance(c, CheckC) else None
                 for c in constraints]

        def final_checks() -> dict | None:
            final = dict(env)
            for c, test in zip(constraints, tests):
                if isinstance(c, NegC):
                    hit = any(True for _ in self._agreeing(c.pattern, c.args, final))
                    if hit:
                        return None
                elif isinstance(c, CountC):
                    n = sum(1 for _ in self._agreeing(c.pattern, c.args, final))
                    if c.out in final:
                        if final[c.out] != n:
                            return None
                    else:
                        final[c.out] = n
                elif test is not None:
                    if not ex.holds(test, final.__getitem__, space):
                        return None
            return final

        # the positive constraints that read each variable: assigning it can
        # only make those fail, the others held on the shorter prefix; one
        # that reads no enumerated variable is tested once, on no prefix
        reading: dict[str, list] = {v: [] for v in enum_vars}
        unread = []
        for c in constraints:
            if isinstance(c, EntityC):
                names = {c.var, c.in_var}
            elif isinstance(c, RelationC):
                names = {c.rel, c.src, c.trg}
            elif isinstance(c, FindC):
                names = set(c.args)
            else:
                continue
            names &= reading.keys()
            for v in names:
                reading[v].append(c)
            if not names:
                unread.append(c)

        def assign(k: int) -> None:
            if k == len(enum_vars):
                final = final_checks()
                if final is not None:
                    out.add(tuple(final[x] for x in p.params))
                return
            v = enum_vars[k]
            for cand in sorted(domains[v], key=lambda x: (isinstance(x, str), x)):
                if injective and v in element_vars and cand in {
                        env[u] for u in env if u in element_vars}:
                    continue
                env[v] = cand
                if all(self._consistent(c, env) for c in reading[v]):
                    assign(k + 1)
                del env[v]

        # an empty domain has no assignment: skip the enumeration
        if (all(self._consistent(c, env) for c in unread)
                and all(domains[v] for v in enum_vars)):
            assign(0)
        return out


# --- reachability oracles ----------------------------------------------------


def edge_pairs(space: ModelSpace) -> set[tuple[int, int]]:
    """(source node, target node) pairs read structurally off graph1 edge
    entities."""
    pairs = set()
    for e in space.elements_of_type("nemf.packages.graph1.Edge"):
        srcs = [space.target(r) for r in space.relations_from(e)
                if space.conforms(r, "nemf.packages.graph1.Edge.src")]
        trgs = [space.target(r) for r in space.relations_from(e)
                if space.conforms(r, "nemf.packages.graph1.Edge.trg")]
        for s in srcs:
            for t in trgs:
                pairs.add((s, t))
    return pairs


def warshall(pairs: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """Transitive closure (paths of length >= 1) of a binary relation."""
    closure = set(pairs)
    nodes = {x for p in closure for x in p}
    changed = True
    while changed:
        changed = False
        for k in nodes:
            new = {(a, d) for (a, b) in closure if b == k
                   for (c, d) in closure if c == k}
            if not new <= closure:
                closure |= new
                changed = True
    return closure


def reachable_distinct(pairs: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """Pairs (x, y), x != y, with a directed path from x to y."""
    return {(a, b) for (a, b) in warshall(pairs) if a != b}


def two_hop_missing(pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Pairs reachable in exactly 2 hops through a distinct inner node and
    not directly connected (the injective 2-hop pattern)."""
    out = set()
    for (a, b) in pairs:
        if a == b:
            continue
        for (c, d) in pairs:
            if c == b and d != a and d != b and a != b and (a, d) not in pairs:
                if a != c and c != d:
                    out.add((a, d))
    return out


def transitive_connected(pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Pairs the recursive transitiveConnected pattern matches under
    injective semantics: x != y joined by a path of length >= 2 that uses no
    self-loop edges and never visits y as an intermediate node."""
    simple = {(a, b) for (a, b) in pairs if a != b}
    nodes = {x for p in simple for x in p}
    succ: dict[int, set[int]] = {}
    for a, b in simple:
        succ.setdefault(a, set()).add(b)
    out = set()
    for x in nodes:
        for y in nodes:
            if x == y:
                continue
            # nodes z != y reachable from x in >= 1 steps avoiding y
            seen: set[int] = set()
            frontier = [x]
            while frontier:
                u = frontier.pop()
                for v in succ.get(u, ()):
                    if v != y and v not in seen:
                        seen.add(v)
                        frontier.append(v)
            if any((z, y) in simple for z in seen):
                out.add((x, y))
    return out


# --- structural counters (task 2.2 sanity, independent of the enumerator) ----


def graph1_counts(space: ModelSpace) -> dict[str, int]:
    g1 = "nemf.packages.graph1."
    nodes = space.elements_of_type(g1 + "Node")
    edges = space.elements_of_type(g1 + "Edge")

    def ends(e, t):
        return [space.target(r) for r in space.relations_from(e)
                if space.conforms(r, g1 + t)]

    looping = sum(1 for e in edges
                  if any(s == t for s in ends(e, "Edge.src") for t in ends(e, "Edge.trg")))
    sources = {s for e in edges for s in ends(e, "Edge.src")}
    targets = {t for e in edges for t in ends(e, "Edge.trg")}
    isolated = sum(1 for n in nodes if n not in sources and n not in targets)
    pairs = edge_pairs(space)
    circles = 0
    for a in nodes:
        for b in nodes:
            for c in nodes:
                if len({a, b, c}) == 3 and (a, b) in pairs and (b, c) in pairs and (c, a) in pairs:
                    circles += 1
    dangling = sum(1 for e in edges
                   if bool(ends(e, "Edge.src")) != bool(ends(e, "Edge.trg")))
    return {"nodes": len(nodes), "looping": looping, "isolated": isolated,
            "circles": circles, "dangling": dangling}


# --- structural comparison ----------------------------------------------------


def strict_equal(a: ModelSpace, b: ModelSpace) -> list[str]:
    """Id-exact comparison; returns human-readable differences."""
    sa, sb = a.state(), b.state()
    diffs = []
    for eid in sorted(set(sa) | set(sb)):
        if eid not in sa:
            diffs.append(f"only in second: {eid}")
        elif eid not in sb:
            diffs.append(f"only in first: {eid}")
        elif sa[eid] != sb[eid]:
            diffs.append(f"{eid}: {sa[eid]} != {sb[eid]}")
    return diffs


def _signature_refine(space: ModelSpace) -> dict[int, int]:
    """Stable WL-style colors for live elements (root keeps color 0)."""
    colors: dict[int, int] = {ROOT_ID: 0}
    base: dict[int, tuple] = {}
    for eid in space.iter_elements():
        el = space.element(eid)
        base[eid] = (el.kind, tuple(sorted(el.types)), el.value)
        colors[eid] = hash(base[eid]) & 0xFFFFFFF
    for _ in range(max(4, len(base).bit_length())):
        nxt: dict[int, int] = {ROOT_ID: 0}
        for eid in base:
            el = space.element(eid)
            sig = [base[eid], ("parent", colors.get(el.parent, 0))]
            if el.kind == RELATION:
                sig.append(("ends", colors[el.source], colors[el.target]))
            sig.append(("out", tuple(sorted(colors[r] for r in space.relations_from(eid)))))
            sig.append(("in", tuple(sorted(colors[r] for r in space.relations_to(eid)))))
            nxt[eid] = hash(tuple(sig)) & 0xFFFFFFF
        if nxt == colors:
            break
        colors = nxt
    return colors


def isomorphic(a: ModelSpace, b: ModelSpace) -> bool:
    """Structural equality up to id and name renaming: kinds, type sets,
    values, relation endpoints and containment."""
    ea, eb = a.iter_elements(), b.iter_elements()
    if len(ea) != len(eb):
        return False
    ca = _signature_refine(a)
    cb = _signature_refine(b)
    groups_a: dict[int, list[int]] = {}
    groups_b: dict[int, list[int]] = {}
    for eid in ea:
        groups_a.setdefault(ca[eid], []).append(eid)
    for eid in eb:
        groups_b.setdefault(cb[eid], []).append(eid)
    if {k: len(v) for k, v in groups_a.items()} != {k: len(v) for k, v in groups_b.items()}:
        return False

    order = sorted(ea, key=lambda e: (len(groups_a[ca[e]]), e))
    mapping: dict[int, int] = {ROOT_ID: ROOT_ID}
    used: set[int] = set()

    def feasible(x: int, y: int) -> bool:
        xa, yb = a.element(x), b.element(y)
        if xa.kind != yb.kind or sorted(xa.types) != sorted(yb.types) or xa.value != yb.value:
            return False
        pa, pb = xa.parent, yb.parent
        if (pa is None) != (pb is None):
            return False
        if pa is not None and pa in mapping and mapping[pa] != pb:
            return False
        if xa.kind == RELATION:
            for mine, theirs in ((xa.source, yb.source), (xa.target, yb.target)):
                if mine in mapping and mapping[mine] != theirs:
                    return False
        return True

    # depth-first search without recursion, so a model of any size fits:
    # stack[i] yields the candidates of order[i], tried in group order
    if not order:
        return _check_full(a, b, mapping)
    stack = [iter(groups_b[ca[order[0]]])]
    while stack:
        x = order[len(stack) - 1]
        if x in mapping:  # back at x: undo its last candidate
            used.discard(mapping.pop(x))
        for y in stack[-1]:
            if y not in used and feasible(x, y):
                mapping[x] = y
                used.add(y)
                break
        else:
            stack.pop()
            continue
        if len(stack) < len(order):
            stack.append(iter(groups_b[ca[order[len(stack)]]]))
        elif _check_full(a, b, mapping):
            return True
    return False


def _check_full(a, b, mapping) -> bool:
    for x, y in mapping.items():
        if x == ROOT_ID:
            continue
        xa, yb = a.element(x), b.element(y)
        if xa.kind == RELATION:
            if mapping[xa.source] != yb.source or mapping[xa.target] != yb.target:
                return False
        pa = mapping.get(xa.parent, ROOT_ID if xa.parent == ROOT_ID else None)
        if xa.parent is None:
            if yb.parent is not None:
                return False
        elif pa != yb.parent:
            return False
    return True
