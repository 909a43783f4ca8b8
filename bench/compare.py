#!/usr/bin/env python3
"""Compare two result sets of ``bench/run.py``.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-s<seed>-t0.json`` files of one commit
(copies of ``bench/results``). Every (workload, metric) row is reported as
better, worse, unchanged or unresolved, with the bounds of BENCHMARK.json:

- better: the new side wins at least nine in ten seed-paired runs (ties
  count for neither) and the medians differ by more than the base side's
  quartile distance;
- worse: the new median is worse than the base median by more than the bound,
  and either both spreads are within the bound or every new run is worse
  than every base run;
- unresolved: a spread (quartile distance over median) exceeds the bound and
  the runs do not separate;
- unchanged: otherwise.

Exits 1 when a row is worse.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Figures reported beside the gated metrics: (unit, better, the gated
# metric whose bound applies to them).
DETAIL = {
    "scale_exp.inc": ("exp", "lower", "transform_s.inc"),
    "edit_us.p50": ("us", "lower", "transform_s.inc"),
    "edit_us.p99": ("us", "lower", "transform_s.inc"),
    "query_us.inc.p50": ("us", "lower", "transform_s.inc"),
    "query_us.inc.p99": ("us", "lower", "transform_s.inc"),
    "query_ms.ls.p50": ("ms", "lower", "transform_s.ls"),
    "query_ms.ls.p90": ("ms", "lower", "transform_s.ls"),
}


def load_runs(directory: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> figures, from the untraced result files."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-t0.json"))):
        with open(path, encoding="utf-8") as f:
            result = json.load(f)
        env = result["env"]
        runs.setdefault(env["workload"], {})[env["seed"]] = result["figures"]
    return runs


def spread(values: list[float]) -> float:
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def verdict(base: dict[int, float], new: dict[int, float], bound: float,
            lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    a, b = list(base.values()), list(new.values())
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    wide = max(spread(a), spread(b)) > bound
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * new[s] < sign * base[s])
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) >= 2 else (ma, ma, ma)
    if len(seeds) >= 10 and wins >= 0.9 * len(seeds) and abs(mb - ma) > q3 - q1:
        return "better"
    if worse_by > bound and (not wide or all_worse):
        return "worse"
    if wide and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    for name, (unit, better, gated) in DETAIL.items():
        metrics[name] = (unit, better, metrics[gated][2])
    base, new = load_runs(argv[0]), load_runs(argv[1])
    print(f"{'workload':20s} {'metric':18s} {'unit':5s} {'base':>10s} {'new':>10s} "
          f"{'change':>8s} {'bound':>6s} {'n':>5s}  verdict")
    any_worse = False
    for workload in sorted(set(base) & set(new)):
        for name, (unit, better, bound) in metrics.items():
            a = {s: f[name] for s, f in base[workload].items() if name in f}
            b = {s: f[name] for s, f in new[workload].items() if name in f}
            if not a or not b:
                continue
            v = verdict(a, b, bound, better == "lower")
            any_worse |= v == "worse"
            ma, mb = statistics.median(a.values()), statistics.median(b.values())
            change = (mb - ma) / abs(ma) if ma else 0.0
            print(f"{workload:20s} {name:18s} {unit:5s} {ma:10.4g} {mb:10.4g} "
                  f"{change:+8.1%} {bound:6.2f} {len(a):>2d}/{len(b):<2d}  {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
