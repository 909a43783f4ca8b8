"""Layer spans for the traced benchmark run.

A ``Tracer`` wraps gtvm's public entry points from outside the program: the
module functions of ``vtcl`` and ``snapshot``, the ``ModelSpace`` mutators,
the listener a ``ReteEngine`` subscribes to its space, ``ReteEngine.register``,
``ProductionNode.match_tuples``, the ``LocalSearchMatcher`` queries and
``VM.run``/``VM.query_all``. Each call records a span (name, start, end,
parent) in flat arrays; ``summary`` turns them into per-layer figures.
"""

from __future__ import annotations

import gzip
import statistics
import weakref
from array import array
from collections import Counter
from time import perf_counter

from gtvm import snapshot, vtcl
from gtvm.matcher_ls import LocalSearchMatcher
from gtvm.modelspace import ModelSpace
from gtvm.rete import ProductionNode, ReteEngine
from gtvm.rules import VM

MUTATORS = ("new_entity", "new_relation", "delete", "add_type", "remove_type",
            "set_value", "rename", "set_target", "set_source")
EVENTS = ("ElementCreated", "ElementDeleted", "TypeAdded", "TypeRemoved",
          "ValueSet", "Renamed", "EndpointRetargeted")


def percentile(values, p: int) -> float:
    """p-th percentile (1..99) by ``statistics.quantiles``' default method."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[p - 1]


class Tracer:
    """Records spans while installed and not paused; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.paused = False
        self.counts: Counter = Counter()      # tokens, bytes, rows, events
        self.engine_samples: list[tuple[int, int, int]] = []
        self.engines: list[ReteEngine] = []
        self.engines_built = 0
        self.passes: list[tuple[int, int, Counter]] = []
        self._pass_open: tuple[int, Counter] | None = None
        self._spaces: weakref.WeakSet = weakref.WeakSet()
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def _span(self, name: str, fn, count=None):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            result = self._call(nid, fn, args, kwargs)
            if count is not None:
                count(args, result)
            return result
        return wrapper

    def _count_events(self, ev) -> None:
        if not self.paused:
            self.counts["event." + type(ev).__name__] += 1

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer entry points and re-attach the event counter."""
        if self._originals:
            return
        counts = self.counts

        def loaded(args, space):
            counts["bytes"] += len(args[0])
            self._spaces.add(space)
            space.subscribe(self._count_events)

        def saved(args, text):
            counts["bytes"] += len(text)

        def ls_rows(args, result):
            counts["ls.rows"] += result if isinstance(result, int) else len(result)

        def vm_rows(args, result):
            counts["vm.rows"] += len(result)

        self._patch(vtcl, "parse", self._span("vtcl.parse", vtcl.parse))
        self._patch(vtcl, "link", self._span("vtcl.link", vtcl.link))
        tokenize = vtcl.tokenize

        def counted_tokenize(source):
            result = tokenize(source)
            if not self.paused:
                counts["tokens"] += len(result)
            return result
        self._patch(vtcl, "tokenize", counted_tokenize)
        self._patch(snapshot, "load", self._span("snapshot.load", snapshot.load, loaded))
        self._patch(snapshot, "save", self._span("snapshot.save", snapshot.save, saved))
        for op in MUTATORS:
            self._patch(ModelSpace, op, self._span("modelspace." + op, getattr(ModelSpace, op)))

        on_change = ReteEngine._on_change
        event_ids = {ev: self._id("rete.propagate." + ev) for ev in EVENTS}

        def propagate(engine, ev):
            # an engine built while traced keeps this listener after uninstall
            if self.paused or not self._originals:
                return on_change(engine, ev)
            return self._call(event_ids[type(ev).__name__], on_change, (engine, ev), {})
        self._patch(ReteEngine, "_on_change", propagate)

        init = ReteEngine.__init__

        def engine_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            if not self.paused:
                self.engines.append(engine)
                self.engines_built += 1
        self._patch(ReteEngine, "__init__", engine_init)
        self._patch(ReteEngine, "register", self._span("rete.register", ReteEngine.register))
        self._patch(ProductionNode, "match_tuples",
                    self._span("rete.read", ProductionNode.match_tuples))
        for op in ("match_all", "count", "match_set"):
            self._patch(LocalSearchMatcher, op,
                        self._span("ls.query", getattr(LocalSearchMatcher, op), ls_rows))
        self._patch(VM, "run", self._span("vm.run", VM.run))
        self._patch(VM, "query_all", self._span("vm.query_all", VM.query_all, vm_rows))
        for space in list(self._spaces):
            space.subscribe(self._count_events)

    def uninstall(self) -> None:
        if not self._originals:
            return
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        for space in list(self._spaces):
            space.unsubscribe(self._count_events)

    # -- pass bookkeeping ------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_open = (len(self.start), Counter(self.counts))

    def end_pass(self) -> None:
        first, before = self._pass_open
        delta = Counter(self.counts)
        delta.subtract(before)
        self.passes.append((first, len(self.start), delta))
        self._pass_open = None

    def sample_engines(self, drop: bool) -> None:
        """Record node count, memory tuples and delta-log length per engine."""
        for engine in self.engines:
            tuples = sum(len(node.all_tuples()) for node in engine.nodes)
            log = sum(prod.cursor() for prod in engine.productions.values())
            self.engine_samples.append((engine.node_count, tuples, log))
        if drop:
            self.engines.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.parent[i]}\n")

    def summary(self, op_seconds: float) -> tuple[dict, float]:
        """Per-layer figures over every recorded span, per-pass figures over
        the traced passes; also the share of ``op_seconds`` (the timed
        operations of the traced passes) that no top-level span covers."""
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_t = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_t[p] -= dur[i]
        by_name: dict[str, list[int]] = {}
        for i in range(n):
            by_name.setdefault(names[self.name[i]], []).append(i)
        in_pass = bytearray(n)
        covered = 0.0
        for first, last, _ in self.passes:
            for i in range(first, last):
                in_pass[i] = 1
                if self.parent[i] < 0:
                    covered += dur[i]
        npass = max(len(self.passes), 1)
        pass_counts: Counter = Counter()
        for _, _, delta in self.passes:
            pass_counts.update(delta)

        def spans(name, outermost_of=None):
            idx = by_name.get(name, [])
            if outermost_of is not None:
                idx = [i for i in idx if self.parent[i] < 0
                       or not names[self.name[self.parent[i]]].startswith(outermost_of)]
            return idx

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        out: dict[str, float] = {}
        parses = spans("vtcl.parse")
        out["vtcl.parse_ms"] = 1e3 * mean([dur[i] for i in parses])
        out["vtcl.link_ms"] = 1e3 * mean([dur[i] for i in spans("vtcl.link")])
        out["vtcl.tokens"] = self.counts["tokens"] / max(len(parses), 1)
        loads, saves = spans("snapshot.load"), spans("snapshot.save")
        out["snapshot.load_ms"] = 1e3 * mean([dur[i] for i in loads])
        out["snapshot.save_ms"] = 1e3 * mean([dur[i] for i in saves])
        out["snapshot.bytes"] = self.counts["bytes"] / max(len(loads) + len(saves), 1)

        all_mut = []
        for op in MUTATORS:
            idx = spans("modelspace." + op)
            all_mut += idx
            out[f"modelspace.self_us.{op}"] = 1e6 * mean([self_t[i] for i in idx])
        out["modelspace.self_us"] = 1e6 * mean([self_t[i] for i in all_mut])
        for ev in EVENTS:
            out[f"modelspace.events.{ev}"] = pass_counts["event." + ev] / npass
        out["modelspace.events"] = sum(pass_counts["event." + ev] for ev in EVENTS) / npass

        all_prop = []
        for ev in EVENTS:
            idx = spans("rete.propagate." + ev)
            all_prop += idx
            out[f"rete.propagate_us.{ev}"] = 1e6 * mean([dur[i] for i in idx])
        out["rete.propagate_us"] = 1e6 * mean([dur[i] for i in all_prop])
        out["rete.propagate_s"] = sum(dur[i] for i in all_prop if in_pass[i]) / npass
        builds = spans("rete.register", outermost_of="rete.register")
        samples = self.engine_samples
        out["rete.build_ms"] = 1e3 * sum(dur[i] for i in builds) / max(self.engines_built, 1)
        out["rete.nodes"] = mean([s[0] for s in samples])
        out["rete.memory_tuples"] = mean([s[1] for s in samples])
        out["rete.delta_log_len"] = mean([s[2] for s in samples])
        out["rete.read_us"] = 1e6 * mean([dur[i] for i in spans("rete.read")])

        ls = spans("ls.query", outermost_of="ls.query")
        ls_ms = [1e3 * dur[i] for i in ls if in_pass[i]]
        out["ls.queries"] = sum(in_pass[i] for i in ls) / npass
        out["ls.rows"] = pass_counts["ls.rows"] / npass
        out["ls.query_s"] = sum(dur[i] for i in ls if in_pass[i]) / npass
        out["ls.query_ms.p50"] = percentile(ls_ms, 50)
        out["ls.query_ms.p90"] = percentile(ls_ms, 90)

        runs = spans("vm.run")
        out["vm.run_s"] = mean([dur[i] for i in runs])
        out["vm.self_s"] = mean([self_t[i] for i in runs])
        queries = [i for i in spans("vm.query_all") if in_pass[i]]
        out["vm.query_all.calls"] = len(queries) / npass
        out["vm.query_all.self_s"] = sum(self_t[i] for i in queries) / npass
        out["vm.rows_per_query"] = pass_counts["vm.rows"] / max(len(queries), 1)
        uncovered = 1.0 - covered / op_seconds if op_seconds > 0 else 0.0
        return out, uncovered
