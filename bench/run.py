#!/usr/bin/env python3
"""gtvm benchmark: runs one workload in this process and prints its metrics.

    python3 bench/run.py --workload corpus-batch --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding every
``end_to_end`` metric of BENCHMARK.json; with ``--trace 1`` it holds every
``per_layer`` metric, measured with layer spans recorded on every other pass.
Each run also writes ``bench/results/<workload>-s<seed>-t<trace>.json`` with
the environment, all figures and the per-pass values; ``bench/compare.py``
reads two directories of those. The exit code is non-zero when any operation
failed, timed out or produced a wrong output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import sys
import traceback
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import gtvm  # noqa: E402  (the checkout's own source tree, never an installed copy)

if not os.path.abspath(gtvm.__file__).startswith(SRC + os.sep):
    raise ImportError(f"gtvm imported from {gtvm.__file__}, not from {SRC}")

from compare import DETAIL  # noqa: E402
from gtvm.errors import GtvmError  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, median  # noqa: E402

SETUP_REPEATS = 3
GRACE_S = 90  # past --seconds, every remaining operation times out at once
RESULTS = os.path.join(HERE, "results")


class OpTimeout(BaseException):
    """Raised from SIGALRM inside an operation that exceeded the cap; a
    BaseException so that no ``except Exception`` in the program swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


# Calibration: this host's core speed swings by up to 2x within seconds
# (neighbours on shared cores). A graph walk in plain Python slows in step
# with gtvm, so every timed operation is also reported scaled to a core on
# which ``calibration_loop`` takes REF_CAL_S, using the calibrations run just
# before and just after it. The raw figures are kept under ``wall.*``.
REF_CAL_S = 0.0075
CAL_EVERY_S = 0.1


class _Visit:
    __slots__ = ("src", "node")

    def __init__(self, src: int, node: int):
        self.src = src
        self.node = node


def calibration_loop() -> float:
    """Seconds to build three seeded random digraphs as dicts of sets, walk
    them from ten sources each, and sort and index the visits."""
    t0 = perf_counter()
    x = 12345
    for _ in range(3):
        succ: dict[int, set[int]] = {}
        for _ in range(6000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            a = x % 1500
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            succ.setdefault(a, set()).add(x % 1500)
        visits = []
        for src in range(0, 1500, 150):
            seen = {src}
            stack = [src]
            while stack:
                for v in succ.get(stack.pop(), ()):
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
                        visits.append(_Visit(src, v))
        visits.sort(key=lambda r: (r.node, r.src))
        {(r.src, r.node): r for r in visits}
    return perf_counter() - t0


class PassStats:
    """Timed operations of one pass, raw and scaled to the reference core."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.ops: list[tuple[str, str, float, int]] = []
        self.cals: list[float] = []
        self.seconds = {"inc": 0.0, "ls": 0.0}
        self.raw = {"inc": 0.0, "ls": 0.0}
        self.per_label: dict[str, list[float]] = defaultdict(list)
        self.wall = 0.0

    def finish(self) -> None:
        self.cals.append(calibration_loop())
        for backend, label, dt, c in self.ops:
            scaled = dt * REF_CAL_S / ((self.cals[c] + self.cals[c + 1]) / 2)
            self.seconds[backend] += scaled
            self.raw[backend] += dt
            self.per_label[label].append(scaled)

    def total(self, label: str) -> float:
        return sum(self.per_label.get(label, ()))


class Recorder:
    """Times operations under a cap and counts failures and wrong outputs."""

    def __init__(self, cap: float, tracer: Tracer | None, deadline: float):
        self.cap = cap
        self.deadline = deadline  # perf_counter() after which every op times out
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.stats = PassStats(False)
        self._since_cal = 0.0

    def op(self, backend: str, label: str, fn, *args):
        """Run ``fn(*args)`` as one timed operation; returns (ok, result)."""
        self.attempted += 1
        stats = self.stats
        if not stats.cals or self._since_cal >= CAL_EVERY_S:
            stats.cals.append(calibration_loop())
            self._since_cal = 0.0
        cap = max(min(self.cap, self.deadline - perf_counter()), 1e-3)
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
        except OpTimeout:
            return self._failed(label, f"timeout after {cap:.3g} s")
        except GtvmError as e:
            return self._failed(label, f"{type(e).__name__}: {e}")
        except Exception:
            traceback.print_exc()
            return self._failed(label, "exception")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        stats.ops.append((backend, label, dt, len(stats.cals) - 1))
        self._since_cal += dt
        return True, result

    def _failed(self, label: str, why: str):
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)
        return False, None

    def check(self, label: str, ok: bool) -> None:
        """Output gate for an operation already counted as attempted."""
        if not ok:
            self.correct = False
            self._failed(label, "wrong output")

    def checkpoint(self, label: str, ok: bool) -> None:
        """A checking read that counts as an operation of its own."""
        self.attempted += 1
        self.check(label, ok)

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        was, self.tracer.paused = self.tracer.paused, True
        try:
            yield
        finally:
            self.tracer.paused = was

    def sample_engines(self, drop: bool) -> None:
        if self.tracer is not None:
            if self.stats.traced:
                self.tracer.sample_engines(drop)
            elif drop:
                self.tracer.engines.clear()


def environment(args, sizes: dict) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(), "python": platform.python_version(), "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cap_s": args.cap, "sizes": sizes,
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError), \
                open(os.path.join(git, ref), encoding="utf-8") as f:
            return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload_cls, seed: int, seconds: float, trace: bool, cap: float,
        sizes=None) -> tuple[dict, Tracer | None]:
    """Set up, run passes for ``seconds``; returns every figure and the
    tracer of a traced run."""
    tracer = Tracer() if trace else None
    rec = Recorder(cap, tracer, deadline=perf_counter() + seconds + GRACE_S)
    if tracer is not None:
        tracer.install()
    setups, setups_raw = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        workload = None  # let the previous set-up go before collecting
        gc.collect()
        workload = workload_cls(sizes)
        before = calibration_loop()
        t0 = perf_counter()
        workload.setup(seed, rec)
        dt = perf_counter() - t0
        setups_raw.append(dt)
        setups.append(dt * REF_CAL_S / ((before + calibration_loop()) / 2))
    with rec.untraced():
        workload.start_check(rec)

    passes: list[PassStats] = []
    t_start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        workload.before_pass(len(passes), rec)
        gc.collect()
        rec.stats = PassStats(traced)
        if traced:
            tracer.begin_pass()
        t0 = perf_counter()
        workload.run_pass(len(passes), rec)
        rec.stats.wall = perf_counter() - t0
        rec.stats.finish()
        if traced:
            tracer.end_pass()
        passes.append(rec.stats)
        elapsed = perf_counter() - t_start
        typical = median([p.wall for p in passes])
        if rec.failed or (elapsed + typical > seconds and len(passes) >= (2 if trace else 1)):
            break
    if tracer is not None:
        tracer.uninstall()
    with rec.untraced():
        workload.final_check(rec)

    plain = [p for p in passes if not p.traced]
    figures = {
        "setup_s": median(setups),
        "transform_s.inc": median([p.seconds["inc"] for p in plain]),
        "transform_s.ls": median([p.seconds["ls"] for p in plain]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ratio": rec.failed / max(rec.attempted, 1),
        "passes": len(plain),
        "wall.setup_s": median(setups_raw),
        "wall.transform_s.inc": median([p.raw["inc"] for p in plain]),
        "wall.transform_s.ls": median([p.raw["ls"] for p in plain]),
        "calibration_ms": 1e3 * median([c for p in passes for c in p.cals]),
    }
    figures.update(workload.detail(plain))
    result = {"correct": rec.correct, "attempted": rec.attempted, "failed": rec.failed,
              "figures": figures, "setups_s": setups, "setups_raw_s": setups_raw,
              "passes": [{"traced": p.traced, "wall_s": p.wall, "inc_s": p.seconds["inc"],
                          "ls_s": p.seconds["ls"], "inc_raw_s": p.raw["inc"],
                          "ls_raw_s": p.raw["ls"]} for p in passes]}
    if tracer is not None:
        traced = [p for p in passes if p.traced]
        layers, uncovered = tracer.summary(sum(p.raw["inc"] + p.raw["ls"] for p in traced))
        figures.update(layers)
        figures["trace.uncovered_share"] = uncovered
        for backend in ("inc", "ls"):
            base = median([p.seconds[backend] for p in plain])
            figures[f"trace.overhead.{backend}"] = (
                median([p.seconds[backend] for p in traced]) / base if base else 0.0)
    return result, tracer


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cap", type=float, default=30.0,
                        help="time cap per operation in seconds (default 30)")
    args = parser.parse_args(argv)
    spec = load_spec()
    workload_cls = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    result, tracer = run(workload_cls, args.seed, args.seconds, bool(args.trace), args.cap,
                         sizes)
    figures = result["figures"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: unit for name, (unit, _, _) in DETAIL.items()})
    for name in sorted(figures):
        print(f"{args.workload:20s} {name:40s} {figures[name]:14.6g} {units.get(name, '')}")
    print(f"{args.workload:20s} attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({"env": environment(args, sizes or workload_cls.sizes), **result}, f, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.tsv.gz")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
