"""Command-line entry point.

Subcommands: ``run`` executes an experiment file, ``summarize``
recomputes summary.tsv from stored records, ``list-problems`` and
``list-algorithms`` describe what the corpus and harness offer.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

from .harness import (
    PARAM_KEYS,
    ConfigError,
    SummaryRow,
    format_summary,
    load_experiment,
    read_records,
    read_target,
    run_experiment,
    summarize,
    write_summary,
)
from .problems import FIXED_DESIGNS, get_problem, problem_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuckoo",
        description="Run seeded optimizer experiments and summarize their results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment file")
    run_parser.add_argument("experiment", help="path to an experiment YAML file")
    run_parser.add_argument("--output", help="override the output directory")
    run_parser.add_argument("--workers", type=int, help="parallel worker processes")

    summarize_parser = sub.add_parser(
        "summarize", help="recompute summary.tsv from a results directory"
    )
    summarize_parser.add_argument("results", help="output directory of a previous run")

    sub.add_parser("list-problems", help="list the benchmark corpus")
    sub.add_parser("list-algorithms", help="list available algorithms")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-problems":
            return _list_problems()
        if args.command == "list-algorithms":
            return _list_algorithms()
        rows = _run(args) if args.command == "run" else _summarize(args)
    except (ConfigError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:  # the records that were written are summarized
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [(row, trial, error) for row in rows for trial, error in row.failures]
    for row, trial, error in failed:
        print(f"# trial failed: {row.problem}/{row.algorithm} t{trial:03d}: {error}", file=sys.stderr)
    return 1 if failed else 0


def _run(args) -> list[SummaryRow]:
    overrides = {key: getattr(args, key) for key in ("output", "workers") if getattr(args, key) is not None}
    spec = replace(load_experiment(args.experiment), **overrides)
    rows = run_experiment(spec)
    print(format_summary(rows), end="")
    print(f"# wrote {Path(spec.output) / 'summary.tsv'}")
    return rows


def _summarize(args) -> list[SummaryRow]:
    records = read_records(args.results)
    rows = summarize(records, read_target(args.results))
    write_summary(rows, Path(args.results) / "summary.tsv")
    print(format_summary(rows), end="")
    return rows


def _list_problems() -> int:
    for name in problem_names():
        problem = get_problem(name)
        if name in FIXED_DESIGNS:
            shape = f"fixed d={problem.dimension}, {len(problem.inequality_constraints)} inequality constraints"
        else:
            shape = f"scalable, default d={problem.dimension}"
        print(f"{name}\t{shape}")
    return 0


def _list_algorithms() -> int:
    for name, keys in PARAM_KEYS.items():
        print(f"{name}\tparams: {', '.join(sorted(keys))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
