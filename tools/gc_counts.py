#!/usr/bin/env python3
"""Cycle-collector runs inside the timed calls of two benchmark workloads.

    PYTHONPATH=src python3 tools/gc_counts.py [--seed S] [--passes P]

Runs corpus-batch and edit-requery passes of ``bench/workloads.py`` as
``bench/run.py`` does (a ``gc.collect()`` before each pass and before each
corpus-batch transformation), but untimed and unchecked, and counts through
``gc.callbacks`` the collections of each generation that start inside an
operation. Prints one JSON object: the mean per corpus-batch transformation
under each matcher, and the mean per edit-requery pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
from workloads import CorpusBatch, EditRequery  # noqa: E402


class Tally:
    """The part of the benchmark's recorder that a workload calls. It counts
    the operations of each backend and the collections that start in them."""

    def __init__(self):
        self.reset()
        self._backend = None
        gc.callbacks.append(self._on_gc)

    def reset(self) -> None:
        self.ops = {"inc": 0, "ls": 0}
        self.collections = {"inc": [0, 0, 0], "ls": [0, 0, 0]}

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start" and self._backend is not None:
            self.collections[self._backend][info["generation"]] += 1

    def op(self, backend: str, label: str, fn, *args):
        self.ops[backend] += 1
        self._backend = backend
        try:
            return True, fn(*args)
        finally:
            self._backend = None

    def check(self, label: str, ok: bool) -> None:
        pass

    checkpoint = check

    def untraced(self):
        return contextlib.nullcontext()

    def sample_engines(self, drop: bool) -> None:
        pass


def per(counts: list[int], n: int) -> dict[str, float]:
    return {f"gen{g}": round(c / max(n, 1), 3) for g, c in enumerate(counts)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=4)
    args = ap.parse_args(argv)
    out = {"seed": args.seed, "passes": args.passes, "python": sys.version.split()[0]}

    tally = Tally()
    batch = CorpusBatch()
    batch.setup(args.seed, tally)
    tally.reset()  # count the passes only
    for k in range(args.passes):
        gc.collect()
        batch.run_pass(k, tally)
    out["corpus-batch per transform"] = {m: per(tally.collections[m], tally.ops[m])
                                         for m in ("inc", "ls")}
    tally.close()

    tally = Tally()
    edits = EditRequery()
    edits.setup(args.seed, tally)
    tally.reset()
    for k in range(args.passes):
        edits.before_pass(k, tally)
        gc.collect()
        edits.run_pass(k, tally)
    total = [a + b for a, b in zip(tally.collections["inc"], tally.collections["ls"])]
    out["edit-requery per pass"] = per(total, args.passes)
    tally.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
