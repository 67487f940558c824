"""Experiment harness: seeded trial grids over problems and algorithms.

An experiment is a YAML file naming problems, algorithm configurations,
a trial count, a base seed, and a stop criterion.  Running it produces,
under the output directory:

* ``records/<problem>__<algorithm>__t<NNN>.tsv`` - one convergence
  record per trial (columns: iteration, best_objective, evaluations),
* ``records/<...>.meta.json`` - sidecar metadata per trial (seed, final
  result, termination reason, wall time), one key per line,
* ``summary.tsv`` - one statistics row per (problem, algorithm) cell,
* ``experiment.yaml`` - the fully resolved experiment for provenance,
  every param listed; it reloads to a spec equal to the one that ran.

Trial seeds are ``base_seed + trial``, so reruns of the same file
reproduce every record byte for byte (sidecars are exempt: they carry
wall times).  Medians use the lower-median convention: the element at
index (k - 1) // 2 of the sorted k values, never an average, so every
reported number is one that actually occurred.

With several workers, each pool task is a run of one cell's consecutive
trials, and a run of cuckoo trials is one stack (see :mod:`cuckoo.core`):
its records equal the trials' records alone, but appear together when
the stack ends, and each trial's wall time is the stack's times its
share of the stack's evaluations.  Serial runs call one trial at a time,
so that each record keeps a wall time measured around its own trial.

The worker pool is kept for the life of the process.  Its workers are
forked once and run the code as it stood then; record paths are absolute.

A trial's record files appear as soon as that trial ends, written by
the process that ran it under a ``*.tmp`` name and then renamed, so a
reader never sees a partial file and a crash or interrupt keeps every
trial that finished (``experiment.yaml`` is written before the first
trial, so they can be summarized).  If a worker process dies, the
records written are summarized and the run fails naming the trials
without one.  A run first deletes the record files and the summary an
earlier run left in the same output directory.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional

import yaml

from .baselines import HillClimbParams, hill_climb_restart
from .core import MAX_BLOCK, AlgorithmParams, StopCriterion, cuckoo_search
from .problems import DEFAULT_PENALTY, PenaltyConfig, check_number, get_problem

__all__ = [
    "ALGORITHM_NAMES",
    "PARAM_KEYS",
    "AlgorithmRef",
    "ExperimentSpec",
    "ProblemRef",
    "SummaryRow",
    "load_experiment",
    "lower_median",
    "read_records",
    "run_experiment",
    "spec_from_dict",
    "summarize",
    "write_summary",
]

_PARAMS_CLASSES = {"cuckoo": AlgorithmParams, "hill_climb": HillClimbParams}
ALGORITHM_NAMES = tuple(_PARAMS_CLASSES)


def _flat_params(params) -> dict:
    """Params as an experiment file gives them: step law inline, stop criterion left out."""
    flat = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if not is_dataclass(value):
            flat[f.name] = value
        elif not isinstance(value, StopCriterion):
            flat.update(asdict(value))
    return flat


# the keys an experiment may set for each algorithm are the keys it writes
PARAM_KEYS = {name: frozenset(_flat_params(cls())) for name, cls in _PARAMS_CLASSES.items()}


class ConfigError(ValueError):
    """The experiment file is malformed; raised before any run starts."""


@dataclass(frozen=True)
class ProblemRef:
    name: str
    dimension: int


@dataclass(frozen=True)
class AlgorithmRef:
    name: str
    label: str
    params: AlgorithmParams | HillClimbParams


@dataclass(frozen=True)
class ExperimentSpec:
    problems: tuple[ProblemRef, ...]
    algorithms: tuple[AlgorithmRef, ...]
    trials: int
    base_seed: int
    stop: StopCriterion
    penalty: PenaltyConfig = DEFAULT_PENALTY
    output: str = "results"
    workers: int = 1

    def __post_init__(self) -> None:
        names = [p.name for p in self.problems]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate problem names: {names}")
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate algorithm labels: {labels}; set distinct 'label' values")
        if any(a.params.stop != self.stop for a in self.algorithms):
            raise ConfigError("every algorithm's params must carry the experiment's stop criterion")
        check_number(self, "trials", "[1, inf)", integer=True, error=ConfigError)
        check_number(self, "base_seed", "[0, inf)", integer=True, error=ConfigError)
        check_number(self, "workers", "[1, inf)", integer=True, error=ConfigError)
        d = max((p.dimension for p in self.problems), default=1)
        for a in self.algorithms:  # the global walk's (2, n, d) uniforms are the largest array
            if isinstance(a.params, AlgorithmParams) and 16 * a.params.n * d > sys.maxsize:
                raise ConfigError(f"{a.label}: n={a.params.n} at dimension {d} needs a"
                                  f" (2, n, d) array of {16 * a.params.n * d} bytes, above sys.maxsize")
        if not isinstance(self.output, str) or not self.output:
            raise ConfigError(f"output must be a non-empty string, got {self.output!r}")


@dataclass(frozen=True)
class SummaryRow:
    problem: str
    algorithm: str
    trials: int
    success_rate: Optional[float]
    median_evals_to_target: Optional[int]
    best_final: float
    median_final: float
    worst_final: float
    feasible_rate: float
    best_feasible_final: Optional[float]
    wall_time_seconds: float
    # (trial, error) of each failed trial; not a column of summary.tsv
    failures: tuple[tuple[int, str], ...] = ()


_SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))[:-1]


def lower_median(values):
    """The sorted middle element, taking the lower one for even counts."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("lower_median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


# --- experiment loading -------------------------------------------------------

def load_experiment(path) -> ExperimentSpec:
    """Parse and validate an experiment YAML file."""
    text = Path(path).read_text(encoding="utf-8")
    data = yaml.safe_load(text)
    if not isinstance(data, dict):
        raise ConfigError(f"experiment file must hold a mapping, got {type(data).__name__}")
    return spec_from_dict(data)


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Build a validated spec from a plain dict (the YAML layout).

    Only the keys given are passed on; the dataclasses supply the rest.
    """
    _check_keys(data, ExperimentSpec, "experiment")
    for f in fields(ExperimentSpec):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"experiment is missing required key {f.name!r}")
    given = dict(data)
    given["problems"] = tuple(_parse_problem(entry) for entry in _as_list(data["problems"], "problems"))
    given["stop"] = stop = _parse_config(StopCriterion, data["stop"], "stop")
    given["algorithms"] = tuple(
        _parse_algorithm(entry, stop) for entry in _as_list(data["algorithms"], "algorithms")
    )
    if "penalty" in data:
        given["penalty"] = _parse_config(PenaltyConfig, data["penalty"], "penalty")
    return ExperimentSpec(**given)


def _check_keys(block: dict, cls, what: str) -> None:
    unknown = set(block) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _as_list(value, key: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key} must be a non-empty list")
    return value


def _entry(entry, cls, what: str) -> dict:
    """A problem or algorithm entry as a mapping; a bare name is its name."""
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} entries must be names or mappings, got {entry!r}")
    _check_keys(entry, cls, what)
    return entry


def _parse_problem(entry) -> ProblemRef:
    entry = _entry(entry, ProblemRef, "problem")
    name, dimension = entry.get("name"), entry.get("dimension")
    if not isinstance(name, str):
        raise ConfigError(f"problem name must be a string, got {name!r}")
    try:
        built = get_problem(name, dimension)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ProblemRef(name=name, dimension=built.dimension)


def _parse_algorithm(entry, stop: StopCriterion) -> AlgorithmRef:
    entry = _entry(entry, AlgorithmRef, "algorithm")
    name = entry.get("name")
    if name not in ALGORITHM_NAMES:
        raise ConfigError(f"unknown algorithm {name!r}; available: {', '.join(ALGORITHM_NAMES)}")
    label = entry.get("label", name)
    if not isinstance(label, str) or not label or "__" in label:
        raise ConfigError(f"algorithm label must be a nonempty string without '__', got {label!r}")
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("algorithm params must be a mapping")
    unknown = set(params) - PARAM_KEYS[name]
    if unknown:
        raise ConfigError(
            f"unknown {name} params: {sorted(unknown)}; allowed: {sorted(PARAM_KEYS[name])}"
        )
    try:
        built = _build_params(name, params, stop)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} params: {exc}") from exc
    return AlgorithmRef(name=name, label=label, params=built)


def _parse_config(cls, block, what: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{what} must be a mapping")
    _check_keys(block, cls, what)
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} block: {exc}") from exc


def _build_params(name: str, block: dict, stop: StopCriterion):
    """The inverse of :func:`_flat_params`; defaults fill the keys not given."""
    default = _PARAMS_CLASSES[name]()
    kwargs = {}
    for f in fields(default):
        value = getattr(default, f.name)
        if isinstance(value, StopCriterion):
            kwargs[f.name] = stop
        elif is_dataclass(value):
            kwargs[f.name] = replace(value, **{k: block[k] for k in asdict(value) if k in block})
        elif f.name in block:
            kwargs[f.name] = block[f.name]
    return replace(default, **kwargs)


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """Plain-dict form of a spec, every field written; parseable by :func:`spec_from_dict`."""
    algorithms = [{**asdict(a), "params": _flat_params(a.params)} for a in spec.algorithms]
    return {**asdict(spec), "algorithms": algorithms}


# --- running ------------------------------------------------------------------

def _execute_trial(task: dict) -> dict:
    """Run one (problem, algorithm, trial) cell; never raises."""
    started = time.perf_counter()
    try:
        problem = get_problem(task["problem"], task["dimension"])
        params = task["params"]
        optimizer = cuckoo_search if isinstance(params, AlgorithmParams) else hill_climb_restart
        record = _record(task, optimizer(problem, params, seed=task["seed"], penalty=task["penalty"]))
    except Exception as exc:  # a failed trial must not sink the rest of the grid
        record = _record(task, error=f"{type(exc).__name__}: {exc}")
    record["wall_time_seconds"] = time.perf_counter() - started
    return record


def _execute_stack(tasks: list[dict]) -> list[dict]:
    """Run trials of one cuckoo cell as one stack (see :mod:`cuckoo.core`); never raises.

    Each trial adds to its wall time the stack's times its share of the
    stack's evaluations (equal shares if none has any), so a cell's wall
    times add up to the time spent.  If the stack raises, its trials run
    one at a time instead, and each adds its share of the failed stack's
    time to the wall time of its own run.
    """
    started = time.perf_counter()
    try:
        problem = get_problem(tasks[0]["problem"], tasks[0]["dimension"])
        seeds = [task["seed"] for task in tasks]
        results = cuckoo_search(problem, tasks[0]["params"], seed=seeds, penalty=tasks[0]["penalty"])
        records = [dict(_record(task, result), wall_time_seconds=0.0) for task, result in zip(tasks, results)]
        elapsed = time.perf_counter() - started
    except Exception:  # each trial then gets the record or the error it gets alone
        elapsed = time.perf_counter() - started
        records = [_execute_trial(task) for task in tasks]
    spent = sum(record["evaluations"] for record in records)
    for record in records:
        record["wall_time_seconds"] += elapsed * (record["evaluations"] / spent if spent else 1 / len(records))
    return records


def _record(task: dict, result=None, error: Optional[str] = None) -> dict:
    """A trial's record, from its result or its error, without the wall time."""
    record = {key: task[key] for key in ("problem", "dimension", "algorithm", "trial", "seed")}
    if result is None:
        return {**record, "status": "error", "error": error, "history": [], "history_evaluations": [],
                "best_objective": None, "best_position": None, "best_feasible": False,
                "evaluations": 0, "terminated_by": "error"}
    return {**record, "status": "ok", "error": None, "history": [float(v) for v in result.history],
            "history_evaluations": [int(e) for e in result.history_evaluations],
            "best_objective": float(result.best_objective),
            "best_position": [float(v) for v in result.best_position],
            "best_feasible": bool(result.best_feasible), "evaluations": int(result.evaluations),
            "terminated_by": result.terminated_by}


def _tasks(spec: ExperimentSpec) -> list[dict]:
    return [
        {
            "problem": problem.name,
            "dimension": problem.dimension,
            "algorithm": algorithm.label,
            "params": algorithm.params,
            "penalty": spec.penalty,
            "trial": trial,
            "seed": spec.base_seed + trial,
        }
        for problem in spec.problems
        for algorithm in spec.algorithms
        for trial in range(spec.trials)
    ]


def run_experiment(spec: ExperimentSpec) -> list[SummaryRow]:
    """Run the full grid, write records and summary, return the rows."""
    tasks = _tasks(spec)
    # before anything is cleared, so that a spec that cannot be written loses nothing
    resolved = yaml.safe_dump(spec_to_dict(spec), sort_keys=False)
    out_dir = Path(spec.output)
    records_dir = out_dir / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    # *.meta.* also takes the *.meta.yaml sidecars that earlier versions wrote
    for pattern in ("*.tsv", "*.meta.*", "*.tmp"):
        for stale in records_dir.glob(pattern):
            stale.unlink()
    (out_dir / "summary.tsv").unlink(missing_ok=True)
    # first, so that the records a crash leaves behind can be summarized
    (out_dir / "experiment.yaml").write_text(resolved, encoding="utf-8")
    run = partial(_run_and_write, records_dir=records_dir.resolve())
    # the pool forks every worker at the first submit, so start none that would idle
    workers = min(spec.workers, len(tasks))
    # a task is a run of one cell's consecutive trials: multiprocessing.Pool.map's
    # rule, about four per worker; one trial when serial
    size = 1 if workers == 1 else -(-len(tasks) // (4 * workers))
    chunks = [
        tasks[cell + start : cell + min(start + size, spec.trials)]
        for cell in range(0, len(tasks), spec.trials)
        for start in range(0, spec.trials, size)
    ]
    if workers > 1:
        try:
            records = [record for done in _worker_pool(workers).map(run, chunks, chunksize=1) for record in done]
        except BaseException as exc:  # no chunk may write a record once this call has raised
            _shutdown_pool()
            if not isinstance(exc, BrokenProcessPool):
                raise
            records = read_records(out_dir) if any(records_dir.glob("*.meta.json")) else []
            write_summary(summarize(records, spec.stop.target_objective), out_dir / "summary.tsv")
            lost = sorted({_record_stem(task) for task in tasks} - {_record_stem(r) for r in records})
            raise BrokenProcessPool(f"a worker process died; {len(lost)} of {len(tasks)} trials"
                                    f" have no record: {', '.join(lost)}") from exc
    else:
        records = [record for chunk in chunks for record in run(chunk)]
    rows = summarize(records, spec.stop.target_objective)
    write_summary(rows, out_dir / "summary.tsv")
    return rows


_kept_pool: dict[int, ProcessPoolExecutor] = {}  # worker count -> pool, at most one


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The kept pool, started anew if there is none, it is broken or its worker count differs."""
    pool = _kept_pool.get(workers)
    if pool is None or pool._broken:
        _shutdown_pool()
        # imported once here, numpy.random is inherited by the forked workers,
        # each of which would otherwise import it (~20 ms) at its first trial
        import numpy.random  # noqa: F401

        pool = _kept_pool[workers] = ProcessPoolExecutor(max_workers=workers)
    return pool


def _shutdown_pool() -> None:
    """Drop the kept pool, cancelling its queued chunks and waiting for the running ones."""
    while _kept_pool:
        _kept_pool.popitem()[1].shutdown(cancel_futures=True)


def _run_and_write(tasks: list[dict], records_dir: Path) -> list[dict]:
    """Run one cell's consecutive trials where they ran, writing each record as it ends.

    Cuckoo trials run as one stack while its largest array, the global walk's
    (T, 2, n, d) uniforms, holds at most MAX_BLOCK values, like the uniform
    stream's blocks; their records appear when the stack ends.  Others run
    one by one: hill climbing in lockstep was measured slower than alone.
    """
    params = tasks[0]["params"]
    stacked = isinstance(params, AlgorithmParams) and len(tasks) > 1 and (
        len(tasks) * 2 * params.n * tasks[0]["dimension"] <= MAX_BLOCK
    )
    records = []
    for record in _execute_stack(tasks) if stacked else map(_execute_trial, tasks):
        _write_record(record, records_dir)
        records.append(record)
    return records


def _record_stem(record: dict) -> str:
    return f"{record['problem']}__{record['algorithm']}__t{record['trial']:03d}"


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` under a ``*.tmp`` name, then rename it to ``path``."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as file:
        file.write(text)
    os.replace(tmp, path)


def _write_record(record: dict, records_dir: Path) -> None:
    # paths as strings: a kept worker grows by the name parts that pathlib
    # interns (about 1 MB of VmHWM over 600 of the benchmark's grid experiments)
    path = os.path.join(records_dir, _record_stem(record))
    lines = ["iteration\tbest_objective\tevaluations"]
    for i, (value, evals) in enumerate(zip(record["history"], record["history_evaluations"])):
        lines.append(f"{i}\t{value!r}\t{evals}")
    _write_atomic(path + ".tsv", "\n".join(lines) + "\n")
    # the sidecar last: a reader that finds it finds the whole record
    meta = {k: v for k, v in record.items() if k not in ("history", "history_evaluations")}
    text = json.dumps(meta, sort_keys=True, indent=0) + "\n"  # one key per line
    _write_atomic(path + ".meta.json", text)


def read_records(output_dir) -> list[dict]:
    """Load all records (sidecar plus history) from a results directory."""
    records_dir = Path(output_dir) / "records"
    if not records_dir.is_dir():
        raise FileNotFoundError(f"no records directory under {output_dir!r}")
    records = []
    for meta_path in sorted(records_dir.glob("*.meta.json")):
        record = json.loads(meta_path.read_text(encoding="utf-8"))
        # a grid repeats a few names in every record: share one copy of each
        for key in ("problem", "algorithm", "status", "terminated_by"):
            record[key] = sys.intern(record[key])
        tsv_path = meta_path.with_name(meta_path.name.replace(".meta.json", ".tsv"))
        history, history_evaluations = [], []
        for line in tsv_path.read_text(encoding="utf-8").splitlines()[1:]:
            _, value, evals = line.split("\t")
            history.append(float(value))
            history_evaluations.append(int(evals))
        record["history"] = history
        record["history_evaluations"] = history_evaluations
        records.append(record)
    if not records:
        raise FileNotFoundError(f"no records found under {records_dir}")
    return records


def read_target(output_dir) -> Optional[float]:
    """The experiment's target objective, from the stored resolved spec."""
    path = Path(output_dir) / "experiment.yaml"
    if not path.is_file():
        raise FileNotFoundError(f"missing {path}; cannot recover the target objective")
    return load_experiment(path).stop.target_objective


# --- summarizing --------------------------------------------------------------

def summarize(records: list[dict], target_objective: Optional[float]) -> list[SummaryRow]:
    """Per-cell statistics over trials, sorted by (problem, algorithm).

    Failed trials count as +inf finals (and as misses), keeping every
    statistic defined over exactly the requested number of trials.
    median_evals_to_target covers the successful trials only and is
    absent when there are none (or no target was set).  feasible_rate is
    the share of trials whose best is feasible, and best_feasible_final
    the least of those bests (absent when no trial is feasible).
    """
    ordered = sorted(records, key=lambda r: (r["problem"], r["algorithm"], r["trial"]))
    groups: dict[tuple[str, str], list[dict]] = {}
    for record in ordered:
        groups.setdefault((record["problem"], record["algorithm"]), []).append(record)

    rows = []
    for (problem, algorithm), group in sorted(groups.items()):
        finals = []
        evals_to_target = []
        wall = 0.0
        for record in group:
            wall += record["wall_time_seconds"]
            if record["status"] != "ok":
                finals.append(float("inf"))
                continue
            finals.append(record["best_objective"])
            if target_objective is not None:
                for value, evals in zip(record["history"], record["history_evaluations"]):
                    if value <= target_objective:
                        evals_to_target.append(evals)
                        break
        successes = len(evals_to_target)
        feasible = [r["best_objective"] for r in group if r["best_feasible"]]
        rows.append(
            SummaryRow(
                problem=problem,
                algorithm=algorithm,
                trials=len(group),
                success_rate=None if target_objective is None else successes / len(group),
                median_evals_to_target=lower_median(evals_to_target) if successes else None,
                best_final=min(finals),
                median_final=lower_median(finals),
                worst_final=max(finals),
                feasible_rate=len(feasible) / len(group),
                best_feasible_final=min(feasible) if feasible else None,
                wall_time_seconds=wall,
                failures=tuple((r["trial"], r["error"]) for r in group if r["status"] != "ok"),
            )
        )
    return rows


def format_summary(rows: list[SummaryRow]) -> str:
    """Summary rows as TSV text (also what summary.tsv contains)."""
    lines = ["\t".join(_SUMMARY_COLUMNS)]
    for row in rows:
        # floats round-trip through repr; wall time, the last column, is rounded
        cells = [getattr(row, column) for column in _SUMMARY_COLUMNS[:-1]]
        cells = ["NA" if v is None else repr(v) if isinstance(v, float) else str(v) for v in cells]
        lines.append("\t".join(cells + [f"{row.wall_time_seconds:.3f}"]))
    return "\n".join(lines) + "\n"


def write_summary(rows: list[SummaryRow], path) -> None:
    Path(path).write_text(format_summary(rows), encoding="utf-8")
