"""Command-line front door: run machines, inspect matches, diff snapshots,
materialize fixtures.

Exit codes: 0 success (for ``diff``: identical/isomorphic), 1 parse/link/
usage failure (for ``diff``: the spaces differ), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus, oracle, snapshot
from .corpus.fixtures import BUILDERS, load_fixture
from .errors import GtvmError, MatcherError, ParseError, PatternError
from .rules import VM, step_budget_from_env
from .vtcl import link, parse


def _load_machine_arg(arg: str):
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as f:
                source = f.read()
        except UnicodeDecodeError as e:
            raise GtvmError(f"{arg} is not UTF-8 text (byte {e.start})") from None
        try:
            return parse(source)
        except ParseError as e:  # name the file, and the line in words
            raise GtvmError(f"{arg}, line {e.line}: {e}") from None
    stem = os.path.splitext(os.path.basename(arg))[0]
    if stem in corpus.CORPUS_MACHINES:
        return parse(corpus.corpus_source(stem))
    raise GtvmError(f"no such file or corpus machine: {arg}")


def _load_model(path: str | None, registry):
    if path is None:
        from .modelspace import ModelSpace
        return ModelSpace(registry)
    return snapshot.load_file(path, registry)


def _save(space, path: str) -> int:
    """Write ``space`` as a snapshot to ``path``: 0, or 1 with the error printed."""
    try:
        snapshot.save_file(space, path)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    try:
        machines = [_load_machine_arg(f) for f in args.machines]
        registry = corpus.metamodels()
        program = link(machines, registry)
        space = _load_model(args.model, registry)
        budget = step_budget_from_env()
    except (GtvmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    entry = machines[-1].name
    try:
        vm = VM(program, space, matcher=args.matcher, step_budget=budget, echo=True)
        report = vm.run(entry)
    except GtvmError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if args.log:
        print(f"-- {entry}: {len(report.log)} log line(s), "
              f"{len(report.results)} result(s)")
    return _save(space, args.out) if args.out else 0


def cmd_match(args) -> int:
    try:
        names = args.machines or ["graphPatterns"]
        machines = [_load_machine_arg(f) for f in names]
        registry = corpus.metamodels()
        program = link(machines, registry)
        space = _load_model(args.model, registry)
        pattern_name = args.pattern
        if pattern_name not in program.patterns:
            qualified = [p for p in program.patterns
                         if p.endswith("." + pattern_name)]
            if len(qualified) > 1:
                raise GtvmError(f"ambiguous pattern {pattern_name}: "
                                + ", ".join(sorted(qualified)))
            if not qualified:
                raise GtvmError(f"unknown pattern {pattern_name}")
            pattern_name = qualified[0]
        budget = step_budget_from_env()
    except (GtvmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        vm = VM(program, space, matcher=args.matcher, step_budget=budget)
        pattern = vm.ls.pattern(pattern_name)  # refuses a GT postcondition
        matches = vm.query_all(pattern_name)
    except (MatcherError, PatternError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GtvmError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    if args.count:
        print(len(matches))
    else:
        for m in matches:
            print(" ".join(f"{p}={m[p]}" for p in pattern.params))
    return 0


def cmd_diff(args) -> int:
    registry = corpus.metamodels()
    try:
        a = snapshot.load_file(args.first, registry)
        b = snapshot.load_file(args.second, registry)
    except (GtvmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.ignore_ids:
        if oracle.isomorphic(a, b):
            print("isomorphic")
            return 0
        print("not isomorphic")
        return 1
    diffs = oracle.strict_equal(a, b)
    if not diffs:
        print("identical")
        return 0
    for line in diffs:
        print(line)
    return 1


def cmd_fixture(args) -> int:
    try:
        space = load_fixture(args.name, **({"seed": args.seed} if args.name == "random" else {}))
    except GtvmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.out:
        return _save(space, args.out)
    sys.stdout.write(snapshot.save(space))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gtvm", description="graph-transformation virtual machine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the main rule of the last machine")
    p_run.add_argument("machines", nargs="+",
                       help=".vtcl files (earlier ones load as libraries); "
                            "bare corpus machine names also work")
    p_run.add_argument("--model", help=".gms snapshot to start from")
    p_run.add_argument("--matcher", choices=("inc", "ls"), default="inc")
    p_run.add_argument("--out", help="write the final space snapshot here")
    p_run.add_argument("--log", action="store_true",
                       help="print a one-line execution summary")
    p_run.set_defaults(func=cmd_run)

    p_match = sub.add_parser("match", help="list matches of a pattern")
    p_match.add_argument("machines", nargs="*",
                         help="machines to load (default: graphPatterns)")
    p_match.add_argument("--model", help=".gms snapshot")
    p_match.add_argument("--pattern", required=True,
                         help="qualified or unique pattern name")
    p_match.add_argument("--matcher", choices=("inc", "ls"), default="inc")
    p_match.add_argument("--count", action="store_true")
    p_match.set_defaults(func=cmd_match)

    p_diff = sub.add_parser("diff", help="compare two snapshots")
    p_diff.add_argument("first")
    p_diff.add_argument("second")
    p_diff.add_argument("--ignore-ids", action="store_true",
                        help="structural comparison up to id/name renaming")
    p_diff.set_defaults(func=cmd_diff)

    p_fix = sub.add_parser("fixture", help="write a fixture as .gms")
    p_fix.add_argument("name", choices=sorted(BUILDERS))
    p_fix.add_argument("--seed", type=int, default=0)
    p_fix.add_argument("--out")
    p_fix.set_defaults(func=cmd_fixture)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except GtvmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
