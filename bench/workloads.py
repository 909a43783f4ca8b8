"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
``setup_s``), then runs passes of timed operations through a ``Recorder``.
Every output is checked, outside the timed calls, against the oracles in
``gtvm.oracle`` or against the other matcher backend.
"""

from __future__ import annotations

import functools
import gc
import heapq
import math
import random
import statistics

from gtvm import corpus, oracle, snapshot, vtcl
from gtvm.corpus.fixtures import ESTRING, G1, load_fixture
from gtvm.rules import VM
from tracing import percentile

MATCHERS = ("inc", "ls")
GREETING = ["Hello TTC Participants!"]
COUNT_KEYS = {
    "Number of nodes": "nodes",
    "Number of looping edges": "looping",
    "Number of isolated nodes": "isolated",
    "Number of nodes in circles of three": "circles",
    "Number of dangling edges": "dangling",
}
COUNT_PATTERNS = {
    "nodes": "graphPatterns.SimpleNode",
    "looping": "graphPatterns.loopingEdge",
    "isolated": "graphPatterns.isolatedNode",
    "circles": "graphPatterns.circleOfThreeNode",
    "dangling": "graphPatterns.danglingEdge",
}


def edge_pairs_of(text: str) -> set[tuple[int, int]]:
    return oracle.edge_pairs(snapshot.load(text, corpus.metamodels()))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def transform(sources: list[str], entry: str, model: str, matcher: str):
    """What ``gtvm run <machines> --model M --out O`` does, without file I/O."""
    registry = corpus.metamodels()
    space = snapshot.load(model, registry)
    program = vtcl.link([vtcl.parse(s) for s in sources], registry)
    report = VM(program, space, matcher=matcher).run(entry)
    return report, snapshot.save(space)


def task_sources(task: str, variant: str) -> tuple[list[str], str]:
    files, entry = corpus.TASKS[(task, variant)]
    return [corpus.corpus_source(f) for f in files], entry


def random_graph(n: int, seed: int):
    return load_fixture("random", n=n, e=2 * n, seed=seed)


class Workload:
    """Hooks the runner calls; ``sizes`` overrides the class default."""

    name = ""
    sizes: dict = {}

    def __init__(self, sizes=None):
        self.sizes = dict(sizes or self.sizes)

    def setup(self, seed: int, rec) -> None:
        raise NotImplementedError

    def start_check(self, rec) -> None:
        """Checks after set-up, outside every timing."""

    def before_pass(self, k: int, rec) -> None:
        """Preparation of pass k, outside its timing."""

    def run_pass(self, k: int, rec) -> None:
        raise NotImplementedError

    def final_check(self, rec) -> None:
        """Checks after the last pass, outside every timing."""

    def detail(self, passes) -> dict:
        """Figures beside the gated ones: the median per-pass total of every
        operation label."""
        labels = sorted({label for p in passes for label in p.per_label})
        return {label: median([p.total(label) for p in passes]) for label in labels}


# --- corpus-batch -------------------------------------------------------------


class CorpusBatch(Workload):
    """Every 2.1-2.5 variant through the ``gtvm run`` path, once per matcher.

    Pass k runs on graph k mod ``pool`` of a pool drawn from the seed, so a
    run's median pass mixes several graphs.
    """

    name = "corpus-batch"
    sizes = {"n": 100, "pool": 8}

    def setup(self, seed: int, rec) -> None:
        self.expected: dict[int, dict] = {}
        rng = random.Random(f"{self.name}:{seed}")
        n = self.sizes["n"]
        self.tasks = [(t, v) + task_sources(t, v)
                      for (t, v) in corpus.TASKS if t != "2.6"]
        with rec.untraced():
            spaces = [random_graph(n, rng.randrange(2**31)) for _ in range(self.sizes["pool"])]
        self.models = [snapshot.save(space) for space in spaces]

    def _expected(self, g: int) -> dict:
        hit = self.expected.get(g)
        if hit is None:
            space = snapshot.load(self.models[g], corpus.metamodels())
            pairs = oracle.edge_pairs(space)
            hit = self.expected[g] = {
                "2.2": oracle.graph1_counts(space),
                "2.3": {(b, a) for (a, b) in pairs},
            }
        return hit

    def run_pass(self, k: int, rec) -> None:
        g = k % len(self.models)
        model = self.models[g]
        for task, variant, sources, entry in self.tasks:
            outs = {}
            for matcher in MATCHERS:
                gc.collect()  # as in ``gtvm run``, every transformation starts on a fresh heap
                ok, result = rec.op(matcher, f"task_s.{task}.{matcher}",
                                    transform, sources, entry, model, matcher)
                rec.sample_engines(drop=True)
                if ok:
                    outs[matcher] = result
            label = f"{task} {variant} graph {g}"
            with rec.untraced():
                for matcher, (report, out) in outs.items():
                    self._check(rec, f"{label} {matcher}", task, g, report, out)
                if len(outs) == 2:
                    rec.check(f"{label} inc/ls snapshots", outs["inc"][1] == outs["ls"][1])

    def _check(self, rec, label, task, g, report, out) -> None:
        if task == "2.1":
            rec.check(label, [v for _, v in report.results] == GREETING)
        elif task == "2.2":
            got = {COUNT_KEYS.get(k, k): v for k, v in report.results}
            rec.check(label, got == self._expected(g)["2.2"])
        elif task == "2.3":
            rec.check(label, edge_pairs_of(out) == self._expected(g)["2.3"])


# --- transitive-fixpoint ------------------------------------------------------


CANDIDATES = 32
REFERENCE_SEEDS = range(32)


def fixpoint_work(pairs: set[tuple[int, int]]) -> dict[str, int]:
    """Work measures of the 2.6 loops on these edge pairs, by simulating the
    iterate loop, which inserts the smallest missing 2-hop pair per step as
    ``choose`` does: ``once`` is the number of missing injective 2-hop pairs
    at the start, ``iter`` the sum of that number over the steps, and ``all``
    the number of steps (the edges the closure adds)."""
    edges = {(a, b) for a, b in pairs if a != b}
    succ: dict[int, set[int]] = {}
    pred: dict[int, set[int]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
        pred.setdefault(b, set()).add(a)
    missing = {(a, c) for a, b in edges for c in succ.get(b, ())
               if c != a and (a, c) not in edges}
    work = {"once": len(missing), "iter": 0, "all": 0}
    heap = list(missing)
    heapq.heapify(heap)
    while heap:
        a, c = heapq.heappop(heap)
        work["iter"] += len(missing)
        work["all"] += 1
        missing.discard((a, c))
        edges.add((a, c))
        succ.setdefault(a, set()).add(c)
        pred.setdefault(c, set()).add(a)
        new = {(x, c) for x in pred.get(a, ()) if x != c}
        new |= {(a, y) for y in succ.get(c, ()) if y != a}
        for pair in new - edges - missing:
            missing.add(pair)
            heapq.heappush(heap, pair)
    return work


@functools.lru_cache(maxsize=None)
def reference_work(n: int) -> dict[str, float]:
    """Median ``fixpoint_work`` of the random fixture family at size n;
    computed once per process."""
    works = [fixpoint_work(oracle.edge_pairs(random_graph(n, s))) for s in REFERENCE_SEEDS]
    return {kind: statistics.median(w[kind] for w in works) for kind in works[0]}


class TransitiveFixpoint(Workload):
    """The six 2.6 variants: long choose/iterate and forall fixpoint loops.

    For each size n, ``setup`` draws ``CANDIDATES`` random graphs from the
    seed and keeps those whose ``fixpoint_work`` for the variants run at that
    size is closest to the median of the fixture family, so the seed changes
    the graphs but hardly the amount of fixpoint work.
    """

    name = "transitive-fixpoint"
    # (variant, matcher, n, graphs): each job runs on that many graphs of size
    # n; scale_exp.inc compares the two iter-asm/inc jobs. The inc iterate
    # jobs take 6 graphs because their time varies most between graphs of
    # equal fixpoint_work (about 17% per graph).
    sizes = {"jobs": [
        ("once-asm", "inc", 40, 3), ("once-gt", "inc", 40, 3),
        ("iter-asm", "inc", 30, 6), ("iter-gt", "inc", 30, 6), ("iter-asm", "inc", 15, 6),
        ("all-asm", "ls", 22, 3), ("all-gt", "ls", 22, 3),
        ("once-asm", "ls", 40, 3), ("once-gt", "ls", 40, 3),
        ("iter-asm", "ls", 8, 3),
    ]}

    def setup(self, seed: int, rec) -> None:
        self.expected: dict[tuple[str, int, int], set] = {}
        self.models: dict[int, list[str]] = {}
        jobs = self.sizes["jobs"]
        for n in sorted({n for _, _, n, _ in jobs}):
            rng = random.Random(f"{self.name}:{seed}:{n}")
            kinds = {v.split("-")[0] for v, _, size, _ in jobs if size == n}
            count = max(graphs for _, _, size, graphs in jobs if size == n)
            target = reference_work(n)

            def distance(space):
                work = fixpoint_work(oracle.edge_pairs(space))
                return sum(abs(math.log((work[k] + 1) / (target[k] + 1))) for k in kinds)
            with rec.untraced():
                candidates = [random_graph(n, rng.randrange(2**31)) for _ in range(CANDIDATES)]
            candidates.sort(key=distance)
            self.models[n] = [snapshot.save(space) for space in candidates[:count]]
        self.sources = {v: task_sources("2.6", v) for v, _, _, _ in jobs}

    def _expected(self, variant: str, n: int, g: int) -> set:
        kind = variant.split("-")[0]
        hit = self.expected.get((kind, n, g))
        if hit is None:
            pairs = edge_pairs_of(self.models[n][g])
            added = {"once": oracle.two_hop_missing, "iter": oracle.reachable_distinct,
                     "all": oracle.transitive_connected}[kind](pairs)
            hit = self.expected[(kind, n, g)] = pairs | added
        return hit

    def run_pass(self, k: int, rec) -> None:
        outs = {}
        for variant, matcher, n, graphs in self.sizes["jobs"]:
            sources, entry = self.sources[variant]
            for g, model in enumerate(self.models[n][:graphs]):
                gc.collect()  # as in ``gtvm run``, every transformation starts on a fresh heap
                ok, result = rec.op(matcher, f"job_s.{variant}@{n}.{matcher}",
                                    transform, sources, entry, model, matcher)
                rec.sample_engines(drop=True)
                if not ok:
                    continue
                out = result[1]
                with rec.untraced():
                    label = f"2.6 {variant} n={n} graph {g} {matcher}"
                    rec.check(label, edge_pairs_of(out) == self._expected(variant, n, g))
                    twin = outs.setdefault((variant, n, g), out)
                    if twin is not out:
                        rec.check(f"{label} inc/ls snapshots", twin == out)

    def detail(self, passes) -> dict:
        out = super().detail(passes)
        iters = sorted(n for v, m, n, _ in self.sizes["jobs"] if (v, m) == ("iter-asm", "inc"))
        if len(iters) == 2:
            small = out.get(f"job_s.iter-asm@{iters[0]}.inc", 0.0)
            big = out.get(f"job_s.iter-asm@{iters[1]}.inc", 0.0)
            if small > 0 and big > 0:
                out["scale_exp.inc"] = math.log2(big / small) / math.log2(iters[1] / iters[0])
        return out


# --- edit-requery -------------------------------------------------------------


SRC, TRG = G1 + "Edge.src", G1 + "Edge.trg"
INC_ROTATION = [
    ("SimpleNode", None), ("loopingEdge", None), ("isolatedNode", None),
    ("circleOfThreeNode", None), ("danglingEdge", None),
    ("transitiveEdgeMissing2hop", None), ("connectedEdge", "Node"),
    ("edgeFromTo", "From"),
]
LS_ROTATION = [q for q in INC_ROTATION if q[0] != "transitiveEdgeMissing2hop"]
LS_EVERY = 9
# node (new or delete) twice, edge (new or delete) twice, retype, retarget,
# setValue, rename, delete relation
EDIT_KINDS = 9


class Pool:
    """List with O(1) removal and seeded random choice."""

    def __init__(self, items=()):
        self.items: list[int] = []
        self.pos: dict[int, int] = {}
        for x in items:
            self.add(x)

    def __len__(self) -> int:
        return len(self.items)

    def add(self, x: int) -> None:
        if x not in self.pos:
            self.pos[x] = len(self.items)
            self.items.append(x)

    def discard(self, x: int) -> None:
        i = self.pos.pop(x, None)
        if i is None:
            return
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def choice(self, rng: random.Random) -> int:
        return self.items[rng.randrange(len(self.items))]


class EditRequery(Workload):
    """Single edits interleaved with reads on one model with two VMs.

    Every pass starts from the model as loaded from its snapshot (reloaded
    outside the timed calls), and its edit stream keeps the node and edge counts near their
    starting values. Targets come from lists the benchmark keeps, chosen
    outside the timed calls. A pass is ``edits`` edits in a shuffled order
    that holds every edit kind equally often, each edit followed by one
    ``inc`` read; every ``LS_EVERY``-th edit also gets one ``ls`` read. With
    504 edits a pass holds whole cycles of both read rotations.
    """

    name = "edit-requery"
    sizes = {"n": 300, "edits": 504}

    def setup(self, seed: int, rec) -> None:
        n = self.sizes["n"]
        with rec.untraced():
            fixture = random_graph(n, random.Random(f"{self.name}:{seed}").randrange(2**31))
        self.text = snapshot.save(fixture)
        self.registry = corpus.metamodels()
        self.program = vtcl.link([vtcl.parse(corpus.corpus_source(m))
                                  for m in ("graphPatterns", "countMatchesASM")], self.registry)
        self._load()
        report = self.inc.run("countMatchesASM")
        self.warmup_counts = {COUNT_KEYS[k]: v for k, v in report.results}
        self.rng = random.Random(f"{self.name}:{seed}:edits")
        self.edits_done = 0
        self.ls_reads = 0

    def before_pass(self, k: int, rec) -> None:
        self._load()

    def _load(self) -> None:
        """The model, both VMs with their networks and plans built, and the
        benchmark's lists of nodes, name texts and edges."""
        space = self.space = snapshot.load(self.text, self.registry)
        self.inc = VM(self.program, space, matcher="inc")
        self.ls = VM(self.program, space, matcher="ls")
        for pattern, _ in INC_ROTATION:
            self.inc.query_all("graphPatterns." + pattern)
        for pattern, _ in LS_ROTATION:
            self.ls.query_all("graphPatterns." + pattern)
        (self.graph,) = space.elements_of_type(G1 + "Graph")
        self.nodes = Pool(space.elements_of_type(G1 + "Node"))
        self.texts = {node: space.target(r) for node in self.nodes.items
                      for r in space.relations_from(node)
                      if G1 + "Node.name" in space.types(r)}
        self.edges = Pool(space.elements_of_type(G1 + "Edge"))
        self.targets = (len(self.nodes), len(self.edges))

    # -- bookkeeping, always outside the timed calls ---------------------------

    def _ends(self, edge: int) -> tuple[list[int], list[int]]:
        src, trg = [], []
        for r in sorted(self.space.relations_from(edge)):
            types = self.space.types(r)
            if SRC in types:
                src.append(r)
            elif TRG in types:
                trg.append(r)
        return src, trg

    def _edge_with_ends(self):
        for _ in range(8):
            edge = self.edges.choice(self.rng)
            src, trg = self._ends(edge)
            if src or trg:
                return src, trg
        return None

    def _name(self) -> str:
        return "n%d" % self.rng.randrange(1, self.targets[0] + 1)

    # -- the edits ---------------------------------------------------------------

    def _new_node(self, name: str):
        space, graph = self.space, self.graph
        node = space.new_entity(G1 + "Node", graph)
        space.rename(node, name)
        space.new_relation(G1 + "Graph.nodes", graph, node)
        text = space.new_entity(ESTRING, node)
        space.set_value(text, name)
        space.new_relation(G1 + "Node.name", node, text)
        return node, text

    def _new_edge(self, src, trg) -> int:
        space, graph = self.space, self.graph
        edge = space.new_entity(G1 + "Edge", graph)
        space.new_relation(G1 + "Graph.edges", graph, edge)
        if src is not None:
            space.new_relation(SRC, edge, src)
        if trg is not None:
            space.new_relation(TRG, edge, trg)
        return edge

    def _retype(self, rel: int, old: str, new: str) -> None:
        self.space.remove_type(rel, old)
        self.space.add_type(rel, new)

    def _plan(self, kind: int):
        """One edit of the given kind as (function, args, bookkeeping after)."""
        rng, space = self.rng, self.space
        n0, e0 = self.targets
        if kind < 2:
            if len(self.nodes) < n0:
                def added(result):
                    node, text = result
                    self.nodes.add(node)
                    self.texts[node] = text
                return self._new_node, (self._name(),), added
            node = self.nodes.choice(rng)

            def deleted(_):
                self.nodes.discard(node)
                del self.texts[node]
            return space.delete, (node,), deleted
        if kind < 4:
            if len(self.edges) < e0:
                src, trg = self.nodes.choice(rng), self.nodes.choice(rng)
                roll = rng.random()
                if roll < 0.1:
                    trg = src
                elif roll < 0.15:
                    src = None
                elif roll < 0.2:
                    trg = None
                return self._new_edge, (src, trg), self.edges.add
            edge = self.edges.choice(rng)
            return space.delete, (edge,), lambda _: self.edges.discard(edge)
        if kind == 6:
            return space.set_value, (self.texts[self.nodes.choice(rng)], self._name()), None
        found = self._edge_with_ends() if kind in (4, 5, 8) else None
        if found is None:
            return space.rename, (self.nodes.choice(rng), self._name()), None
        src, trg = found
        rel = rng.choice(src + trg)
        if kind == 4:
            old, new = (SRC, TRG) if rel in src else (TRG, SRC)
            return self._retype, (rel, old, new), None
        if kind == 5:
            return space.set_target, (rel, self.nodes.choice(rng)), None
        return space.delete, (rel,), None

    def _read_args(self, rotation, i: int):
        pattern, bound = rotation[i % len(rotation)]
        binding = {bound: self.nodes.choice(self.rng)} if bound else None
        return "graphPatterns." + pattern, binding

    def run_pass(self, k: int, rec) -> None:
        kinds = [i % EDIT_KINDS for i in range(self.sizes["edits"])]
        self.rng.shuffle(kinds)
        for kind in kinds:
            fn, args, after = self._plan(kind)
            ok, result = rec.op("inc", "edit", fn, *args)
            if not ok:
                return
            if after is not None:
                after(result)
            i = self.edits_done
            self.edits_done += 1
            rec.op("inc", "query.inc", self.inc.query_all, *self._read_args(INC_ROTATION, i))
            if i % LS_EVERY == LS_EVERY - 1:
                rec.op("ls", "query.ls", self.ls.query_all,
                       *self._read_args(LS_ROTATION, self.ls_reads))
                self.ls_reads += 1
        rec.sample_engines(drop=False)
        with rec.untraced():
            inc, ls = self.counts(self.inc), self.counts(self.ls)
            rec.checkpoint(f"pass {k} inc/ls counts", inc == ls)

    def counts(self, vm) -> dict[str, int]:
        return {key: len(vm.query_all(p)) for key, p in COUNT_PATTERNS.items()}

    def start_check(self, rec) -> None:
        ls = self.counts(self.ls)
        rec.checkpoint("warm-up countMatchesASM = ls counts", self.warmup_counts == ls)
        rec.checkpoint("start: inc counts = ls counts", self.counts(self.inc) == ls)

    def final_check(self, rec) -> None:
        want = oracle.graph1_counts(self.space)
        rec.checkpoint("end: inc counts = oracle", self.counts(self.inc) == want)
        rec.checkpoint("end: ls counts = oracle", self.counts(self.ls) == want)

    def detail(self, passes) -> dict:
        def pooled(label, scale):
            return [scale * s for p in passes for s in p.per_label.get(label, ())]
        edit, inc, ls = pooled("edit", 1e6), pooled("query.inc", 1e6), pooled("query.ls", 1e3)
        return {
            "edit_us.p50": percentile(edit, 50), "edit_us.p99": percentile(edit, 99),
            "query_us.inc.p50": percentile(inc, 50), "query_us.inc.p99": percentile(inc, 99),
            "query_ms.ls.p50": percentile(ls, 50), "query_ms.ls.p90": percentile(ls, 90),
            "samples.edit": len(edit), "samples.query.inc": len(inc),
            "samples.query.ls": len(ls),
        }


WORKLOADS = {w.name: w for w in (CorpusBatch, TransitiveFixpoint, EditRequery)}
