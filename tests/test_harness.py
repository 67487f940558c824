"""Experiment harness: config parsing, records, summaries, CLI."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuckoo import harness
from cuckoo.baselines import HillClimbParams
from cuckoo.cli import main
from cuckoo.core import AlgorithmParams, StopCriterion
from cuckoo.harness import (
    PARAM_KEYS,
    ConfigError,
    ExperimentSpec,
    _execute_trial,
    format_summary,
    load_experiment,
    lower_median,
    read_records,
    run_experiment,
    spec_from_dict,
    spec_to_dict,
    summarize,
)
from cuckoo.problems import PenaltyConfig, Problem

BASE_SPEC = {
    "problems": [{"name": "sphere", "dimension": 3}],
    "algorithms": [
        {"name": "cuckoo", "params": {"n": 10, "p_a": 0.25}},
        "hill_climb",
    ],
    "trials": 2,
    "base_seed": 100,
    "stop": {"max_evaluations": 400, "target_objective": 1e-9},
}


def write_spec(tmp_path, overrides=None, name="exp.yaml"):
    data = dict(BASE_SPEC)
    data["output"] = str(tmp_path / "out")
    if overrides:
        data.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def records_but_wall_time(out: Path) -> dict:
    """Each record file's content, the sidecars without their wall time."""
    found = {}
    for path in (out / "records").iterdir():
        if path.name.endswith(".meta.json"):
            meta = json.loads(path.read_text())
            del meta["wall_time_seconds"]
            found[path.name] = meta
        else:
            found[path.name] = path.read_bytes()
    return found


def worker_pids() -> set[int]:
    """The pids of this process's live children: the kept pool's workers."""
    return {child.pid for child in multiprocessing.active_children()}


@pytest.fixture
def fresh_pool():
    """No kept pool before or after the test: forked workers run the code as it stood then."""
    harness._shutdown_pool()
    yield
    harness._shutdown_pool()


class TestConfigParsing:
    def test_defaults_and_resolution(self, tmp_path):
        spec = load_experiment(write_spec(tmp_path))
        assert spec.trials == 2
        assert spec.base_seed == 100
        assert spec.workers == 1
        assert spec.penalty.penalty_weight == 1e8
        assert [p.dimension for p in spec.problems] == [3]
        assert [a.label for a in spec.algorithms] == ["cuckoo", "hill_climb"]
        assert spec.stop.max_evaluations == 400

    def test_bare_problem_name_gets_default_dimension(self):
        spec = spec_from_dict({**BASE_SPEC, "problems": ["rastrigin"]})
        assert spec.problems[0].dimension == 10
        spec = spec_from_dict({**BASE_SPEC, "problems": ["welded_beam"]})
        assert spec.problems[0].dimension == 4

    def test_roundtrip_through_dict(self):
        spec = spec_from_dict(dict(BASE_SPEC))
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_params_compare_resolved(self):
        def cuckoo(params):
            entry = {"name": "cuckoo", "params": params}
            return spec_from_dict({**BASE_SPEC, "algorithms": [entry]})

        bare = spec_from_dict({**BASE_SPEC, "algorithms": ["cuckoo"]})
        assert bare == cuckoo({"n": 25}) == cuckoo({"n": 25, "p_a": 0.25, "tail_exponent": 1.5})
        assert bare != cuckoo({"n": 26})
        # the params carry the experiment's stop criterion; a spec where the two differ is refused
        with pytest.raises(ConfigError, match="stop criterion"):
            replace(bare, stop=StopCriterion(max_evaluations=10))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"bogus": 1},
            {"problems": []},
            {"problems": ["made_up"]},
            {"problems": [{"name": "sphere", "size": 3}]},
            {"problems": [{"name": "rosenbrock", "dimension": 1}]},
            {"problems": ["sphere", {"name": "sphere", "dimension": 5}]},
            {"algorithms": ["annealing"]},
            {"algorithms": [{"name": "cuckoo"}, {"name": "cuckoo"}]},
            {"algorithms": [{"name": "cuckoo", "params": {"nests": 5}}]},
            {"algorithms": [{"name": "cuckoo", "params": {"n": 1}}]},
            {"algorithms": [{"name": "cuckoo", "label": "a__b"}]},
            {"algorithms": [{"name": "hill_climb", "params": {"shrink_factor": 2.0}}]},
            {"trials": 0},
            {"trials": "many"},
            {"base_seed": -1},
            {"stop": {}},
            {"stop": {"max_evaluations": 100, "patience": 2}},
            {"penalty": {"weight": 10.0}},
            {"workers": 0},
            {"output": ""},
            {"stop": {"target_objective": 1.0}},  # no budget
            # YAML booleans are not integers, although isinstance(True, int) holds
            {"trials": True},
            {"base_seed": False},
            {"workers": True},
            {"stop": {"max_evaluations": True}},
            {"stop": {"max_evaluations": 100, "stagnation_window": True}},
            {"problems": [{"name": "sphere", "dimension": True}]},
            {"algorithms": [{"name": "hill_climb", "params": {"stall_limit": True}}]},
        ],
    )
    def test_rejects_malformed(self, overrides):
        with pytest.raises(ConfigError):
            spec_from_dict({**BASE_SPEC, **overrides})

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).resolve().parents[1] / "experiments").glob("*.yaml")),
        ids=lambda path: path.name,
    )
    def test_shipped_experiments_load(self, path):
        spec = load_experiment(path)
        assert spec.problems and spec.algorithms

    def test_missing_required_key(self):
        data = dict(BASE_SPEC)
        del data["stop"]
        with pytest.raises(ConfigError, match="stop"):
            spec_from_dict(data)

    def test_two_cuckoo_variants_need_labels(self):
        data = {
            **BASE_SPEC,
            "algorithms": [
                {"name": "cuckoo", "label": "cuckoo_wide", "params": {"alpha": 1.0}},
                {"name": "cuckoo", "label": "cuckoo_narrow", "params": {"alpha": 0.01}},
            ],
        }
        spec = spec_from_dict(data)
        assert [a.label for a in spec.algorithms] == ["cuckoo_wide", "cuckoo_narrow"]


class TestLowerMedianAndSummaries:
    @staticmethod
    def record(problem, algorithm, trial, history, evaluations, status="ok", wall=0.5):
        return {
            "problem": problem,
            "algorithm": algorithm,
            "trial": trial,
            "seed": 100 + trial,
            "dimension": 2,
            "status": status,
            "error": None if status == "ok" else "RuntimeError: boom",
            "history": history,
            "history_evaluations": evaluations,
            "best_objective": history[-1] if history else None,
            "best_position": [0.0, 0.0] if history else None,
            "best_feasible": bool(history),
            "evaluations": evaluations[-1] if evaluations else 0,
            "terminated_by": "max_evaluations" if history else "error",
            "wall_time_seconds": wall,
        }

    def test_lower_median(self):
        assert lower_median([3.0, 1.0, 2.0]) == 2.0
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0
        assert lower_median([7]) == 7
        with pytest.raises(ValueError):
            lower_median([])

    def test_cell_statistics(self):
        records = [
            self.record("sphere", "cuckoo", 0, [5.0, 1.2], [10, 20]),
            self.record("sphere", "cuckoo", 1, [6.0, 3.0], [10, 20]),
            self.record("sphere", "cuckoo", 2, [4.0, 1.4, 0.9], [10, 20, 30]),
        ]
        (row,) = summarize(records, target_objective=1.5)
        assert row.trials == 3
        assert row.success_rate == pytest.approx(2 / 3)
        # successes reached the target at evaluations 20 and 30
        assert row.median_evals_to_target == 20
        assert row.best_final == 0.9
        assert row.median_final == 1.2
        assert row.worst_final == 3.0
        assert row.wall_time_seconds == pytest.approx(1.5)

    def test_no_target_gives_na(self):
        records = [self.record("sphere", "cuckoo", 0, [2.0], [10])]
        (row,) = summarize(records, target_objective=None)
        assert row.success_rate is None
        assert row.median_evals_to_target is None
        text = format_summary([row])
        assert "\tNA\tNA\t" in text

    def test_error_records_count_as_inf(self):
        records = [
            self.record("sphere", "cuckoo", 0, [2.0], [10]),
            self.record("sphere", "cuckoo", 1, [], [], status="error"),
        ]
        (row,) = summarize(records, target_objective=1.0)
        assert row.trials == 2
        assert row.worst_final == float("inf")
        assert row.best_final == 2.0
        assert row.success_rate == 0.0

    def test_feasibility_columns(self):
        records = [
            self.record("welded_beam", "cuckoo", 0, [9.0, 3.0], [10, 20]),
            self.record("welded_beam", "cuckoo", 1, [5.0, 2.0], [10, 20]),
            self.record("welded_beam", "cuckoo", 2, [], [], status="error"),
        ]
        records[1]["best_feasible"] = False  # 2.0 is penalized, not a feasible best
        (row,) = summarize(records, target_objective=None)
        assert row.feasible_rate == pytest.approx(1 / 3)
        assert row.best_feasible_final == 3.0
        assert row.best_final == 2.0
        records[0]["best_feasible"] = False
        (row,) = summarize(records, target_objective=None)
        assert row.feasible_rate == 0.0
        assert row.best_feasible_final is None
        header, line = format_summary([row]).splitlines()
        cells = dict(zip(header.split("\t"), line.split("\t")))
        assert (cells["feasible_rate"], cells["best_feasible_final"]) == ("0.0", "NA")

    def test_rows_sorted_by_problem_then_algorithm(self):
        records = [
            self.record("sphere", "hill_climb", 0, [1.0], [5]),
            self.record("ackley", "cuckoo", 0, [1.0], [5]),
            self.record("sphere", "cuckoo", 0, [1.0], [5]),
        ]
        rows = summarize(records, None)
        assert [(r.problem, r.algorithm) for r in rows] == [
            ("ackley", "cuckoo"),
            ("sphere", "cuckoo"),
            ("sphere", "hill_climb"),
        ]


class TestExecuteTrial:
    def test_trial_errors_are_contained(self):
        task = {
            "problem": "no_such_problem",
            "dimension": 2,
            "algorithm": "cuckoo",
            "params": AlgorithmParams(stop=StopCriterion(max_evaluations=50)),
            "penalty": PenaltyConfig(),
            "trial": 0,
            "seed": 0,
        }
        record = _execute_trial(task)
        assert record["status"] == "error"
        assert "no_such_problem" in record["error"]
        assert record["history"] == []
        assert record["wall_time_seconds"] >= 0.0

    def test_trial_record_layout(self):
        task = {
            "problem": "sphere",
            "dimension": 2,
            "algorithm": "hill_climb",
            "params": HillClimbParams(stall_limit=5, stop=StopCriterion(max_evaluations=60)),
            "penalty": PenaltyConfig(penalty_weight=1e8, eq_tolerance=1e-4),
            "trial": 3,
            "seed": 103,
        }
        record = _execute_trial(task)
        assert record["status"] == "ok"
        assert harness._record_stem(record) == harness._record_stem(task)
        assert record["seed"] == 103
        assert record["evaluations"] == 60
        assert len(record["history"]) == len(record["history_evaluations"])
        assert record["terminated_by"] == "max_evaluations"


class TestStackedTrials:
    @staticmethod
    def tasks(spec_overrides, trials):
        spec = spec_from_dict({**BASE_SPEC, "output": "unused", **spec_overrides})
        return [t for t in harness._tasks(spec) if t["algorithm"] == "cuckoo"][:trials]

    @staticmethod
    def without_wall(records):
        return [{k: v for k, v in r.items() if k != "wall_time_seconds"} for r in records]

    def test_stack_records_match_alone_and_share_the_wall_time(self):
        # the target stops the trials at different evaluations
        tasks = self.tasks({"stop": {"max_evaluations": 3000, "target_objective": 1e-3}}, 2)
        started = time.perf_counter()
        stacked = harness._execute_stack(tasks)
        wall = time.perf_counter() - started
        alone = [_execute_trial(t) for t in tasks]
        assert self.without_wall(stacked) == self.without_wall(alone)
        assert len({r["evaluations"] for r in stacked}) == 2
        # each trial carries the stack's wall time in proportion to its evaluations
        per_eval = [r["wall_time_seconds"] / r["evaluations"] for r in stacked]
        assert per_eval[0] == pytest.approx(per_eval[1], rel=1e-12)
        assert 0.0 < sum(r["wall_time_seconds"] for r in stacked) <= wall

    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=5, unique=True),
        n=st.integers(2, 8),
        budget=st.integers(10, 300),
    )
    @example(seeds=list(range(6)), n=10, budget=60)  # five of these seeds fail, one does not
    @settings(max_examples=60, deadline=None)
    def test_a_failing_trial_gets_its_own_error(self, seeds, n, budget):
        # a NaN region that some seeds reach: the stack fails, and each trial
        # reruns alone to exactly its own record or error
        nan_corner = Problem("nan_corner", [(0.0, 1.0)] * 2,
                             objective=lambda x: np.where(x[0] > 0.9, np.nan, x[0] + x[1] * x[1]))
        params = {"n": n, "p_a": 0.25}
        task = self.tasks({"algorithms": [{"name": "cuckoo", "params": params}],
                           "stop": {"max_evaluations": budget}}, 1)[0]
        tasks = [{**task, "seed": seed, "trial": k} for k, seed in enumerate(seeds)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "get_problem", lambda name, dimension: nan_corner)
            alone = [_execute_trial(t) for t in tasks]
            assert self.without_wall(harness._execute_stack(tasks)) == self.without_wall(alone)

    def test_a_failed_stack_counts_its_time(self, monkeypatch):
        tasks = self.tasks({"stop": {"max_evaluations": 300}}, 2)
        alone = [_execute_trial(t) for t in tasks]
        real = harness.cuckoo_search

        def failing_stack(problem, params, seed, penalty):
            if isinstance(seed, list):
                time.sleep(0.05)
                raise RuntimeError("stack")
            return real(problem, params, seed=seed, penalty=penalty)

        monkeypatch.setattr(harness, "cuckoo_search", failing_stack)
        started = time.perf_counter()
        records = harness._execute_stack(tasks)
        wall = time.perf_counter() - started
        assert self.without_wall(records) == self.without_wall(alone)
        # the reruns' wall times include their shares of the failed stack's
        assert 0.05 <= sum(r["wall_time_seconds"] for r in records) <= wall

    def test_large_cells_and_hill_climbing_run_alone(self, tmp_path, monkeypatch):
        def refuse(tasks):
            raise AssertionError("stacked")

        monkeypatch.setattr(harness, "_execute_stack", refuse)
        # 2 trials * 2 * n * d above 2**16 values: the chunk runs trial by trial
        params = {"n": 900, "p_a": 0.25}
        tasks = self.tasks({"problems": [{"name": "sphere", "dimension": 20}], "trials": 2,
                            "algorithms": [{"name": "cuckoo", "params": params}],
                            "stop": {"max_evaluations": 2000}}, 2)
        spec = spec_from_dict({**BASE_SPEC, "output": "unused"})
        tasks += [t for t in harness._tasks(spec) if t["algorithm"] == "hill_climb"]
        records = harness._run_and_write(tasks[:2], tmp_path) + harness._run_and_write(tasks[2:], tmp_path)
        assert self.without_wall(records) == self.without_wall([_execute_trial(t) for t in tasks])
        assert len(list(tmp_path.glob("*.meta.json"))) == 4


class TestRunExperiment:
    def test_end_to_end_files(self, tmp_path):
        spec = load_experiment(write_spec(tmp_path))
        rows = run_experiment(spec)
        out = tmp_path / "out"

        stems = sorted(p.name for p in (out / "records").glob("*.tsv"))
        assert stems == [
            "sphere__cuckoo__t000.tsv",
            "sphere__cuckoo__t001.tsv",
            "sphere__hill_climb__t000.tsv",
            "sphere__hill_climb__t001.tsv",
        ]
        body = (out / "records" / "sphere__cuckoo__t000.tsv").read_text()
        assert body.startswith("iteration\tbest_objective\tevaluations\n0\t")

        meta = json.loads((out / "records" / "sphere__cuckoo__t001.meta.json").read_text())
        assert meta["seed"] == 101
        assert meta["status"] == "ok"
        assert meta["algorithm"] == "cuckoo"
        assert meta["dimension"] == 3
        assert isinstance(meta["best_objective"], float)

        summary = (out / "summary.tsv").read_text()
        assert summary == format_summary(rows)
        assert summary.splitlines()[0].startswith("problem\talgorithm\ttrials")
        assert [r.algorithm for r in rows] == ["cuckoo", "hill_climb"]
        assert all(r.trials == 2 for r in rows)

        # the resolved copy lists every param, defaults included, and reloads to the same spec
        stored = yaml.safe_load((out / "experiment.yaml").read_text())
        assert [set(a["params"]) for a in stored["algorithms"]] == [
            PARAM_KEYS["cuckoo"],
            PARAM_KEYS["hill_climb"],
        ]
        reloaded = load_experiment(out / "experiment.yaml")
        assert reloaded == spec

    def test_numpy_counts(self, tmp_path):
        out = tmp_path / "out"
        data = {
            **BASE_SPEC,
            "output": str(out),
            "trials": np.int64(2),
            "base_seed": np.int64(100),
            "stop": {
                "max_evaluations": np.int64(400),
                "target_objective": np.float64(1e-9),
                "stagnation_window": np.int64(50),
            },
            "algorithms": [
                {
                    "name": "cuckoo",
                    "params": {"n": np.int64(10), "p_a": np.float64(0.3), "alpha": np.float64(0.05)},
                },
                {"name": "hill_climb", "params": {"stall_limit": np.int64(5)}},
            ],
            # an integer for a float setting is written back as a float
            "penalty": {"penalty_weight": np.float64(1e6), "eq_tolerance": 0},
        }
        spec = spec_from_dict(data)
        run_experiment(spec)
        assert load_experiment(out / "experiment.yaml") == spec
        stored = yaml.safe_load((out / "experiment.yaml").read_text())
        assert stored["penalty"] == {"penalty_weight": 1e6, "eq_tolerance": 0.0}
        assert isinstance(stored["penalty"]["eq_tolerance"], float)
        assert [r["seed"] for r in read_records(out)] == [100, 101, 100, 101]
        # a spec that cannot be written fails before the earlier run's files are cleared
        before = {p.name: p.read_bytes() for p in (out / "records").iterdir()}
        unwritable = replace(spec.algorithms[0], label=np.str_("cuckoo"))
        with pytest.raises(yaml.YAMLError):
            run_experiment(replace(spec, algorithms=(unwritable,)))
        assert {p.name: p.read_bytes() for p in (out / "records").iterdir()} == before
        assert (out / "summary.tsv").is_file()
        assert load_experiment(out / "experiment.yaml") == spec

    def test_records_reproduce_byte_identically(self, tmp_path):
        first = load_experiment(write_spec(tmp_path, {"output": str(tmp_path / "a")}))
        second = load_experiment(write_spec(tmp_path, {"output": str(tmp_path / "b")}, name="exp2.yaml"))
        run_experiment(first)
        run_experiment(second)
        for tsv_a in sorted((tmp_path / "a" / "records").glob("*.tsv")):
            tsv_b = tmp_path / "b" / "records" / tsv_a.name
            assert tsv_a.read_bytes() == tsv_b.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        # 2 trials give one task per chunk on 2 workers; 5 trials, ten tasks, give two
        for trials in (2, 5):
            serial_dir, parallel_dir = tmp_path / f"serial{trials}", tmp_path / f"parallel{trials}"
            serial = load_experiment(
                write_spec(tmp_path, {"output": str(serial_dir), "trials": trials})
            )
            parallel = load_experiment(
                write_spec(
                    tmp_path,
                    {"output": str(parallel_dir), "workers": 2, "trials": trials},
                    name="exp_par.yaml",
                )
            )
            run_experiment(serial)
            run_experiment(parallel)
            names = sorted(p.name for p in (serial_dir / "records").iterdir())
            assert len(names) == 2 * 2 * trials
            assert names == sorted(p.name for p in (parallel_dir / "records").iterdir())
            for name in names:
                a, b = serial_dir / "records" / name, parallel_dir / "records" / name
                if name.endswith(".tsv"):
                    assert a.read_bytes() == b.read_bytes()
                else:
                    meta_a, meta_b = json.loads(a.read_text()), json.loads(b.read_text())
                    del meta_a["wall_time_seconds"], meta_b["wall_time_seconds"]
                    assert meta_a == meta_b
            summary_serial = (serial_dir / "summary.tsv").read_text().splitlines()
            summary_parallel = (parallel_dir / "summary.tsv").read_text().splitlines()
            # identical apart from wall time, which is the last column
            for line_a, line_b in zip(summary_serial, summary_parallel):
                assert line_a.rsplit("\t", 1)[0] == line_b.rsplit("\t", 1)[0]

    def test_no_more_workers_than_trials(self, tmp_path, monkeypatch, fresh_pool):
        started = []

        class RecordingPool:  # runs the chunks in this process, starting nothing
            def __init__(self, max_workers):
                started.append(max_workers)

            def shutdown(self, wait=True, *, cancel_futures=False):
                return None

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        # 4 tasks start 4 workers, not 64; 1 task runs serially, with no pool
        cases = ((2, BASE_SPEC["algorithms"], [4]), (1, ["cuckoo"], []))
        for trials, algorithms, expected in cases:
            overrides = {"workers": 64, "trials": trials, "algorithms": algorithms}
            started.clear()
            rows = run_experiment(load_experiment(write_spec(tmp_path, overrides)))
            assert started == expected
            assert sum(row.trials for row in rows) == trials * len(algorithms)

    def test_the_pool_is_kept_between_calls(self, tmp_path, fresh_pool):
        serial_dir = tmp_path / "serial"
        run_experiment(load_experiment(write_spec(tmp_path, {"output": str(serial_dir), "trials": 3})))
        pids = []
        for name in ("first", "second"):
            overrides = {"output": str(tmp_path / name), "workers": 2, "trials": 3}
            run_experiment(load_experiment(write_spec(tmp_path, overrides)))
            pids.append(worker_pids())
            assert records_but_wall_time(tmp_path / name) == records_but_wall_time(serial_dir)
        assert len(pids[0]) == 2 and pids[0] == pids[1]

    def test_another_worker_count_replaces_the_pool(self, tmp_path, fresh_pool):
        spec = load_experiment(write_spec(tmp_path, {"workers": 2, "trials": 3}))
        run_experiment(spec)
        two = worker_pids()
        run_experiment(replace(spec, workers=3))
        three = worker_pids()
        assert len(two) == 2 and len(three) == 3 and not two & three

    def test_a_pool_whose_worker_died_between_calls_is_replaced(self, tmp_path, fresh_pool):
        spec = load_experiment(write_spec(tmp_path, {"workers": 2, "trials": 3}))
        run_experiment(spec)
        before = worker_pids()
        os.kill(min(before), signal.SIGKILL)
        deadline = time.monotonic() + 60
        while worker_pids() and time.monotonic() < deadline:  # the pool ends its other worker
            time.sleep(0.01)
        assert not worker_pids()
        assert sum(row.trials for row in run_experiment(spec)) == 6
        after = worker_pids()
        assert len(after) == 2 and not before & after

    def test_records_land_where_each_call_says(self, tmp_path, monkeypatch):
        # the workers forked for the first call keep its working directory
        spec = load_experiment(write_spec(tmp_path, {"output": "res", "workers": 2}))
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            run_experiment(spec)
        a, b = (records_but_wall_time(tmp_path / name / "res") for name in ("a", "b"))
        assert len(a) == 8 and a == b

    def test_an_interrupt_in_a_worker_drops_the_pool(self, tmp_path, monkeypatch, fresh_pool):
        real = harness._execute_trial

        def interrupted(task):  # runs in a forked worker
            if task["trial"] == 1:
                raise KeyboardInterrupt
            return real(task)

        monkeypatch.setattr(harness, "_execute_trial", interrupted)
        spec = load_experiment(write_spec(tmp_path, {"algorithms": ["hill_climb"], "trials": 8, "workers": 2}))
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec)
        # every worker is gone, so no record can appear after the call raised
        assert not harness._kept_pool and not worker_pids()
        assert not (tmp_path / "out" / "records" / "sphere__hill_climb__t001.meta.json").exists()

    def test_exit_leaves_no_worker_running(self, tmp_path):
        child = (
            "import multiprocessing, sys\n"
            "from cuckoo.harness import load_experiment, run_experiment\n"
            "for path in sys.argv[1:]:\n"
            "    run_experiment(load_experiment(path))\n"
            "print(*(child.pid for child in multiprocessing.active_children()))\n"
        )
        paths = [str(write_spec(tmp_path, {"output": str(tmp_path / name), "workers": 2}, name=f"{name}.yaml"))
                 for name in ("a", "b")]
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # output to a file: a worker left running would hold a pipe open
        with open(tmp_path / "child.txt", "w") as out:
            done = subprocess.run([sys.executable, "-c", child, *paths], stdout=out,
                                  stderr=subprocess.STDOUT, env=env, timeout=300)
        text = (tmp_path / "child.txt").read_text()
        assert done.returncode == 0, text
        pids = [int(pid) for pid in text.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_interrupt_keeps_finished_records(self, tmp_path, monkeypatch, capsys):
        real = harness.cuckoo_search
        seeds = []

        def interrupted(problem, params, seed, penalty):
            seeds.append(seed)
            if len(seeds) == 3:
                raise KeyboardInterrupt
            return real(problem, params, seed=seed, penalty=penalty)

        monkeypatch.setattr(harness, "cuckoo_search", interrupted)
        spec = load_experiment(write_spec(tmp_path, {"algorithms": ["cuckoo"], "trials": 4}))
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.tsv").write_text("an earlier run's summary\n")
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec)
        records = read_records(out)
        assert [(r["trial"], r["status"]) for r in records] == [(0, "ok"), (1, "ok")]
        assert all(r["history"] for r in records)
        assert not list((out / "records").glob("*.tmp"))
        assert not (out / "summary.tsv").exists()
        # the resolved spec was written first, so the kept trials can be summarized
        assert main(["summarize", str(out)]) == 0
        (line,) = capsys.readouterr().out.splitlines()[1:]
        assert line.split("\t")[:3] == ["sphere", "cuckoo", "2"]

    def test_read_records_roundtrip(self, tmp_path):
        spec = load_experiment(write_spec(tmp_path))
        run_experiment(spec)
        records = read_records(tmp_path / "out")
        assert len(records) == 4
        assert {r["algorithm"] for r in records} == {"cuckoo", "hill_climb"}
        for record in records:
            assert record["history"], "history came back empty"
            assert len(record["history"]) == len(record["history_evaluations"])
            assert record["best_objective"] == record["history"][-1]


class TestSidecars:
    def test_json_roundtrip(self, tmp_path, monkeypatch):
        message = (
            'a "double-quoted" name,\ta tab and \'single quotes\', then a newline\n'
            "and enough text after it to run past eighty characters on one line"
        )
        real = harness.hill_climb_restart

        def failing(problem, params, seed, penalty):
            if seed == 101:
                raise RuntimeError(message)
            return real(problem, params, seed=seed, penalty=penalty)

        monkeypatch.setattr(harness, "hill_climb_restart", failing)
        # enough budget for a cuckoo best below 1e-4, which repr writes in exponent form
        spec = spec_from_dict({**BASE_SPEC, "stop": {"max_evaluations": 5000}})
        records = [harness._execute_trial(task) for task in harness._tasks(spec)]
        assert records[-1]["error"] == f"RuntimeError: {message}"
        assert "e-" in repr(records[0]["best_objective"])
        (tmp_path / "records").mkdir()
        for record in records:
            harness._write_record(record, tmp_path / "records")
        assert read_records(tmp_path) == sorted(records, key=harness._record_stem)

    @pytest.mark.parametrize("libyaml", [False, True])
    def test_libyaml_loads_what_pure_python_loads(self, tmp_path, libyaml):
        # beside the JSON sidecars, experiment.yaml is the one YAML file a results directory holds
        if libyaml and not yaml.__with_libyaml__:
            pytest.skip("PyYAML was built without libyaml")
        spec = load_experiment(write_spec(tmp_path))
        run_experiment(spec)
        text = (tmp_path / "out" / "experiment.yaml").read_text()
        expected = yaml.load(text, Loader=yaml.SafeLoader)
        loaded = yaml.load(text, Loader=yaml.CSafeLoader if libyaml else yaml.SafeLoader)
        assert loaded == expected
        assert loaded["stop"]["target_objective"] == 1e-9
        assert spec_from_dict(loaded) == spec


class TestCli:
    def test_listings(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("sphere")
        assert "welded_beam" in out
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        assert "cuckoo" in out and "hill_climb" in out

    def test_run_and_summarize(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        assert main(["run", str(path)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("problem\talgorithm")
        summary_path = tmp_path / "out" / "summary.tsv"
        before = summary_path.read_bytes()
        assert main(["summarize", str(tmp_path / "out")]) == 0
        assert summary_path.read_bytes() == before

    def test_output_override(self, tmp_path):
        path = write_spec(tmp_path)
        assert main(["run", str(path), "--output", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "summary.tsv").is_file()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"algorithms": ["annealing"]})
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_workers_override_exit_code(self, tmp_path, capsys):
        assert main(["run", str(write_spec(tmp_path)), "--workers", "0"]) == 2
        assert capsys.readouterr().err == "error: workers must be an integer in [1, inf), got 0\n"

    @pytest.mark.parametrize(
        "text, name",
        [
            ("algorithms: [{name: cuckoo, params: {alpha: yes}}]", "alpha"),  # a bool
            # YAML reads an exponent without a dot as a string
            ("stop: {max_evaluations: 400, target_objective: 1e-3}", "target_objective"),
            ('algorithms: [{name: cuckoo, params: {p_a: "0.3"}}]', "p_a"),
            # an integer too large for a float
            ("penalty: {penalty_weight: 1" + "0" * 400 + "}", "penalty_weight"),
        ],
    )
    def test_yaml_values_that_are_not_numbers(self, tmp_path, capsys, text, name):
        key = next(iter(yaml.safe_load(text)))
        data = {k: v for k, v in BASE_SPEC.items() if k != key}
        data["output"] = str(tmp_path / "out")
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(data) + text + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{name} must be a number"):
            load_experiment(path)
        assert main(["run", str(path)]) == 2
        assert f"{name} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("algorithms: [{name: cuckoo, params: {n: 1" + "0" * 400 + "}}]", "n must be"),
            ("problems: [{name: sphere, dimension: 1" + "0" * 400 + "}]", "dimension must be"),
        ],
        ids=["n", "dimension"],
    )
    def test_counts_too_large_for_an_array(self, tmp_path, capsys, text, message):
        key = next(iter(yaml.safe_load(text)))
        data = {k: v for k, v in BASE_SPEC.items() if k != key}
        data["output"] = str(tmp_path / "out")
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(data) + text + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_experiment(path)
        assert main(["run", str(path)]) == 2
        assert f"{message} an integer in [" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cuckoo_block_too_large_for_an_array(self, tmp_path, capsys):
        # the global walk draws (2, n, d) float64 uniforms: 16 * n * d bytes
        largest = sys.maxsize // (16 * 3)
        spec_from_dict({**BASE_SPEC, "algorithms": [{"name": "cuckoo", "params": {"n": largest}}]})
        path = write_spec(tmp_path, {"algorithms": [{"name": "cuckoo", "params": {"n": largest + 1}}]})
        with pytest.raises(ConfigError, match=r"n=\d+ at dimension 3 needs a \(2, n, d\) array"):
            load_experiment(path)
        assert main(["run", str(path)]) == 2
        assert "above sys.maxsize" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_trial_exit_code(self, tmp_path, capsys, monkeypatch):
        real = harness.hill_climb_restart

        def failing(problem, params, seed, penalty):
            if seed == 101:
                raise RuntimeError("boom")
            return real(problem, params, seed=seed, penalty=penalty)

        monkeypatch.setattr(harness, "hill_climb_restart", failing)
        assert main(["run", str(write_spec(tmp_path, {"workers": 1}))]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("problem\talgorithm")
        assert captured.err == "# trial failed: sphere/hill_climb t001: RuntimeError: boom\n"
        assert len(list((tmp_path / "out" / "records").glob("*.tsv"))) == 4
        # summarizing the stored records reports the failure the same way
        assert main(["summarize", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("problem\talgorithm")
        assert captured.err == "# trial failed: sphere/hill_climb t001: RuntimeError: boom\n"

    def test_lost_worker_keeps_the_finished_trials(self, tmp_path, capsys, monkeypatch, fresh_pool):
        real = harness._execute_trial

        def dying(task):  # runs in a forked worker, which it ends at trial 2
            if task["trial"] == 2:
                os._exit(1)
            return real(task)

        monkeypatch.setattr(harness, "_execute_trial", dying)
        path = write_spec(tmp_path, {"algorithms": ["hill_climb"], "trials": 6, "workers": 2})
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died;") and "Traceback" not in err
        out = tmp_path / "out"
        done = {p.name.removesuffix(".meta.json") for p in (out / "records").glob("*.meta.json")}
        lost = {f"sphere__hill_climb__t{trial:03d}" for trial in range(6)} - done
        assert "sphere__hill_climb__t002" in lost
        assert err.endswith(f"{len(lost)} of 6 trials have no record: {', '.join(sorted(lost))}\n")
        # the summary covers the trials that have a record
        rows = [row.split("\t")[:3] for row in (out / "summary.tsv").read_text().splitlines()[1:]]
        assert rows == ([["sphere", "hill_climb", str(len(done))]] if done else [])

    def test_a_lost_worker_leaves_no_pool_behind(self, tmp_path, monkeypatch, fresh_pool):
        real = harness._execute_trial

        def dying(task):  # runs in a forked worker, which it ends at trial 2
            if task["trial"] == 2:
                os._exit(1)
            return real(task)

        monkeypatch.setattr(harness, "_execute_trial", dying)
        path = write_spec(tmp_path, {"algorithms": ["hill_climb"], "trials": 6, "workers": 2})
        assert main(["run", str(path)]) == 1
        assert not worker_pids()
        monkeypatch.undo()  # the next pool forks from unpatched code
        assert main(["run", str(path)]) == 0
        assert len(worker_pids()) == 2
        assert len(list((tmp_path / "out" / "records").glob("*.meta.json"))) == 6

    def test_rerun_clears_old_records(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(write_spec(tmp_path, {"trials": 4}))]) == 0
        (out / "records" / "sphere__cuckoo__t009.tsv.tmp").write_text("partial")
        (out / "records" / "sphere__cuckoo__t000.meta.yaml").write_text("an older sidecar")
        assert main(["run", str(write_spec(tmp_path, {"trials": 2}, name="exp2.yaml"))]) == 0
        assert sorted(p.name for p in (out / "records").iterdir()) == [
            f"sphere__{label}__t00{trial}.{ext}"
            for label in ("cuckoo", "hill_climb")
            for trial in (0, 1)
            for ext in ("meta.json", "tsv")
        ]
        capsys.readouterr()
        assert main(["summarize", str(out)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split("\t")[2] for row in rows] == ["2", "2"]

    def test_missing_paths(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2
        assert main(["summarize", str(tmp_path / "never_ran")]) == 2
        capsys.readouterr()
