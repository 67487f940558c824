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

from cuckoo import core, harness
from cuckoo.baselines import HillClimbParams
from cuckoo.cli import main
from cuckoo.core import AlgorithmParams, StopCriterion, abandonment_count
from cuckoo.harness import (
    PARAM_KEYS,
    AlgorithmRef,
    ConfigError,
    ExperimentSpec,
    ProblemRef,
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


# a sidecar with every key that read_records checks, each value of its type
SIDECAR = {"algorithm": "hill_climb", "best_feasible": True, "best_objective": 0.5, "error": None,
           "problem": "sphere", "status": "ok", "terminated_by": "max_evaluations", "trial": 1,
           "wall_time_seconds": 0.1}


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

    def test_the_readme_layout_names_only_written_keys(self):
        # the README's experiment-file block must parse, and name no key that a stored spec lacks
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = [part.split("```", 1)[0] for part in readme.split("```yaml\n")[1:]]
        layout = yaml.safe_load(block)
        written = spec_to_dict(spec_from_dict(layout))

        def unwritten(given, stored, path):
            if isinstance(given, dict):
                for key, value in given.items():
                    yield from unwritten(value, stored[key], f"{path}.{key}") if key in stored else [f"{path}.{key}"]
            elif isinstance(given, list):
                for i, (entry, kept) in enumerate(zip(given, stored)):
                    yield from unwritten(entry, kept, f"{path}[{i}]")

        assert list(unwritten(layout, written, "")) == []

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
            # a label names record files and fills a summary column
            {"algorithms": [{"name": "cuckoo", "label": "a/b"}]},
            {"algorithms": [{"name": "cuckoo", "label": "x\ty"}]},
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
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_missing_required_key(self):
        data = dict(BASE_SPEC)
        del data["stop"]
        with pytest.raises(ConfigError, match="stop"):
            spec_from_dict(data)

    def test_a_bare_string_is_a_name_only_where_a_name_is_a_key(self):
        assert spec_from_dict({**BASE_SPEC, "problems": ["sphere"]}).problems[0].name == "sphere"
        for key in ("stop", "penalty"):
            with pytest.raises(ConfigError, match=f"^{key} must be a mapping, got 'sphere'$"):
                spec_from_dict({**BASE_SPEC, key: "sphere"})

    def test_a_spec_built_in_python_obeys_the_file_rules(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(write_spec(tmp_path))]) == 0
        before = {path.name: path.read_bytes() for path in (out / "records").iterdir()}
        params = AlgorithmParams(n=10, stop=StopCriterion(max_evaluations=400))
        # a label that cannot name a record file
        with pytest.raises(ConfigError, match="label must be"):
            AlgorithmRef(params, "a/b")
        # the name comes from the params, so a name where the params go is refused
        with pytest.raises(ConfigError, match=r"params must be one of \['AlgorithmParams', 'HillClimbParams'\]"):
            AlgorithmRef("hill_climb", "h")
        assert AlgorithmRef(params, "h").name == "cuckoo"
        assert AlgorithmRef(HillClimbParams()).label == "hill_climb"
        # a problem gets its default dimension, or is refused
        assert ProblemRef("sphere", None) == ProblemRef("sphere") == ProblemRef("sphere", 10)
        assert ProblemRef("welded_beam").dimension == 4
        for args in (("made_up",), ("sphere", 0), ("welded_beam", 3), (["sphere"],), ("sphere", True)):
            with pytest.raises(ConfigError):
                ProblemRef(*args)
        # an experiment needs at least one problem and one algorithm, as entries
        spec = load_experiment(write_spec(tmp_path))
        for problems in ((), ["sphere"], ("sphere",), [ProblemRef("sphere")]):
            with pytest.raises(ConfigError, match="problems must be a non-empty tuple of ProblemRef"):
                replace(spec, problems=problems)
        with pytest.raises(ConfigError, match="algorithms must be a non-empty tuple of AlgorithmRef"):
            replace(spec, algorithms=())
        assert {path.name: path.read_bytes() for path in (out / "records").iterdir()} == before

    def test_config_objects_of_the_wrong_type_are_refused(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(write_spec(tmp_path))]) == 0
        before = {path.name: path.read_bytes() for path in (out / "records").iterdir()}
        spec = load_experiment(write_spec(tmp_path))
        with pytest.raises(ConfigError, match="penalty must be a PenaltyConfig, got 'heavy'"):
            replace(spec, penalty="heavy")
        with pytest.raises(ConfigError, match="must carry the experiment's stop criterion"):
            replace(spec, stop=None)
        for cls, key, name in ((HillClimbParams, "stop", "StopCriterion"), (AlgorithmParams, "stop", "StopCriterion"),
                               (AlgorithmParams, "levy", "LevyConfig")):
            with pytest.raises(TypeError, match=f"{key} must be a {name}, got 'x'"):
                cls(**{key: "x"})
        assert {path.name: path.read_bytes() for path in (out / "records").iterdir()} == before

    def test_a_spec_built_in_python_runs_and_reloads(self, tmp_path, capsys):
        stop = StopCriterion(max_evaluations=300)
        spec = ExperimentSpec(
            problems=(ProblemRef("sphere"),),
            algorithms=(AlgorithmRef(HillClimbParams(stall_limit=5, stop=stop)),),
            trials=2, base_seed=7, stop=stop, output=str(tmp_path / "out"),
        )
        assert [(p.name, p.dimension) for p in spec.problems] == [("sphere", 10)]
        (row,) = run_experiment(spec)
        assert (row.problem, row.algorithm, row.trials) == ("sphere", "hill_climb", 2)
        assert load_experiment(tmp_path / "out" / "experiment.yaml") == spec
        assert main(["summarize", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("sphere\thill_climb\t2\t")

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
        (record,) = _execute_trial([task])
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
            "penalty": PenaltyConfig(penalty_weight=1e8),
            "trial": 3,
            "seed": 103,
        }
        (record,) = _execute_trial([task])
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

    @staticmethod
    def alone(tasks):
        return [_execute_trial([task])[0] for task in tasks]

    def test_stack_records_match_alone_and_share_the_wall_time(self):
        # the target stops the trials at different evaluations
        tasks = self.tasks({"stop": {"max_evaluations": 3000, "target_objective": 1e-3}}, 2)
        started = time.perf_counter()
        stacked = _execute_trial(tasks)
        wall = time.perf_counter() - started
        alone = self.alone(tasks)
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
            assert self.without_wall(_execute_trial(tasks)) == self.without_wall(self.alone(tasks))

    def test_a_failed_stack_counts_its_time(self, monkeypatch):
        # a stack of three trials that raises runs 1 + 3 times: each of its trials reruns alone
        tasks = self.tasks({"trials": 3, "stop": {"max_evaluations": 300}}, 3)
        alone = self.alone(tasks)
        real, calls = core._search, []

        def failing_stack(problem, params, seeds, penalty):
            calls.append(len(seeds))
            if len(seeds) > 1:
                time.sleep(0.05)
                raise RuntimeError("stack")
            return real(problem, params, seeds, penalty)

        monkeypatch.setattr(core, "_search", failing_stack)
        started = time.perf_counter()
        records = _execute_trial(tasks)
        wall = time.perf_counter() - started
        assert calls == [3, 1, 1, 1]
        assert self.without_wall(records) == self.without_wall(alone)
        # the call's time, the failed stack's included, is shared among its records
        assert 0.05 <= sum(r["wall_time_seconds"] for r in records) <= wall

    def test_only_the_failed_stack_reruns(self, monkeypatch):
        # NaN near x[0] = 1, which only seed 7 of 3..7 reaches alone; n = 4096 at d = 2 caps a stack at 4 trials
        nan_edge = Problem("nan_edge", [(0.0, 1.0)] * 2,
                           objective=lambda x: np.where(x[0] > 1 - 1e-4, np.nan, x[0] + x[1] * x[1]))
        task = self.tasks({"algorithms": [{"name": "cuckoo", "params": {"n": 4096, "p_a": 0.25}}],
                           "stop": {"max_evaluations": 12288}}, 1)[0]
        tasks = [{**task, "seed": seed, "trial": k} for k, seed in enumerate(range(3, 8))]
        monkeypatch.setattr(harness, "get_problem", lambda name, dimension: nan_edge)
        alone = self.alone(tasks)
        assert [r["status"] for r in alone] == ["ok"] * 4 + ["error"]
        assert alone[-1]["error"].startswith("EvaluationError: ")
        sizes = []

        def recording(problem, params, seeds, penalty, search=core._search):
            sizes.append(len(seeds))
            return search(problem, params, seeds, penalty)

        monkeypatch.setattr(core, "_search", recording)
        records = _execute_trial(tasks)
        assert sizes == [4, 1]  # 5 trial runs for 5 trials: the finished stack of 4 does not rerun
        assert self.without_wall(records) == self.without_wall(alone)

    @pytest.mark.parametrize("algorithm, optimizer", [("cuckoo", "cuckoo_search"),
                                                      ("hill_climb", "hill_climb_restart")])
    def test_a_failed_trial_runs_once(self, monkeypatch, algorithm, optimizer):
        calls = []

        def failing(problem, params, seed, penalty):
            calls.append(seed)
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, optimizer, failing)
        spec = spec_from_dict({**BASE_SPEC, "output": "unused"})
        task = next(t for t in harness._tasks(spec) if t["algorithm"] == algorithm)
        started = time.perf_counter()
        (record,) = _execute_trial([task])
        assert len(calls) == 1
        assert (record["status"], record["error"], record["evaluations"]) == ("error", "RuntimeError: boom", 0)
        assert 0.0 <= record["wall_time_seconds"] <= time.perf_counter() - started
        # a call of three trials that raises as a whole runs once and gives each trial its error
        calls.clear()
        tasks = [{**task, "trial": k, "seed": 100 + k} for k in range(3)]
        records = _execute_trial(tasks)
        assert len(calls) == 1
        assert [(r["trial"], r["status"], r["error"]) for r in records] == [
            (k, "error", "RuntimeError: boom") for k in range(3)]

    def test_hill_climbing_runs_alone(self, tmp_path, monkeypatch):
        real, calls = harness._execute_trial, []

        def one_call(tasks):
            calls.append(len(tasks))
            return real(tasks)

        monkeypatch.setattr(harness, "_execute_trial", one_call)
        spec = spec_from_dict({**BASE_SPEC, "output": "unused"})
        tasks = [t for t in harness._tasks(spec) if t["algorithm"] == "hill_climb"]
        records = harness._run_and_write(tasks, tmp_path)
        assert calls == [1, 1]
        assert self.without_wall(records) == self.without_wall(self.alone(tasks))
        assert len(list(tmp_path.glob("*.meta.json"))) == 2

    def test_a_large_cuckoo_cell_runs_in_one_call(self, tmp_path, monkeypatch):
        # 5 trials * 2 * n * d = 80000 values, above 2**16: one call, which
        # cuckoo_search runs as stacks of 4 and 1 trials
        calls, sizes = [], []
        execute_trial, search = harness._execute_trial, core._search

        def stack(tasks):
            calls.append(len(tasks))
            return execute_trial(tasks)

        def recording(problem, params, seeds, penalty):
            sizes.append(len(seeds))
            return search(problem, params, seeds, penalty)

        monkeypatch.setattr(harness, "_execute_trial", stack)
        monkeypatch.setattr(core, "_search", recording)
        tasks = self.tasks({"problems": [{"name": "sphere", "dimension": 20}], "trials": 5,
                            "algorithms": [{"name": "cuckoo", "params": {"n": 400, "p_a": 0.25}}],
                            "stop": {"max_evaluations": 2000}}, 5)
        records = harness._run_and_write(tasks, tmp_path)
        assert (calls, sizes) == ([5], [4, 1])
        assert self.without_wall(records) == self.without_wall(self.alone(tasks))
        assert len(list(tmp_path.glob("*.meta.json"))) == 5


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
            "penalty": {"penalty_weight": np.int64(1000000)},
        }
        spec = spec_from_dict(data)
        run_experiment(spec)
        assert load_experiment(out / "experiment.yaml") == spec
        stored = yaml.safe_load((out / "experiment.yaml").read_text())
        assert stored["penalty"] == {"penalty_weight": 1e6}
        assert isinstance(stored["penalty"]["penalty_weight"], float)
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

    def test_a_serial_run_calls_one_trial_at_a_time(self, tmp_path, monkeypatch):
        # the traced benchmark roots each serial record at one _execute_trial call,
        # and checks the record's wall time against that call's span within 1 ms
        real, calls = harness._execute_trial, []

        def timed(tasks):
            started = time.perf_counter()
            records = real(tasks)
            calls.append((len(tasks), records, time.perf_counter() - started))
            return records

        monkeypatch.setattr(harness, "_execute_trial", timed)
        # 6 trials, which the pool's rule would split into tasks of 2 for one worker
        run_experiment(load_experiment(write_spec(tmp_path, {"trials": 3, "workers": 1})))
        assert len(calls) == len(read_records(tmp_path / "out")) == 6
        for size, records, duration in calls:
            assert size == len(records) == 1
            assert abs(records[0]["wall_time_seconds"] - duration) <= 1e-3

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

        def interrupted(tasks):  # runs in a forked worker
            if tasks[0]["trial"] == 1:
                raise KeyboardInterrupt
            return real(tasks)

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

    def test_a_dotted_label_round_trips(self, tmp_path, capsys):
        # the label holds the sidecar suffix, which only the end of a name may lose
        spec = load_experiment(write_spec(tmp_path, {"algorithms": [{"name": "cuckoo", "label": "x.meta.json"}]}))
        run_experiment(spec)
        records = read_records(tmp_path / "out")
        assert [(r["algorithm"], r["trial"]) for r in records] == [("x.meta.json", 0), ("x.meta.json", 1)]
        assert all(r["history"][-1] == r["best_objective"] for r in records)
        assert main(["summarize", str(tmp_path / "out")]) == 0
        (line,) = capsys.readouterr().out.splitlines()[1:]
        assert line.split("\t")[:3] == ["sphere", "x.meta.json", "2"]


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
        records = [harness._execute_trial([task])[0] for task in harness._tasks(spec)]
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
        # a YAML syntax error and a file that is not UTF-8: exit 2 (not 1, a failed trial) naming the file
        for text in (b"trials: [2\n", b"trials: 2\noutput: \xff\n"):
            path.write_bytes(text)
            assert main(["run", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 YAML: ")
        # summarize reads the stored spec: a corrupt one leaves the old summary as it was
        out = tmp_path / "out"
        assert main(["run", str(write_spec(tmp_path))]) == 0
        before = (out / "summary.tsv").read_bytes()
        (out / "experiment.yaml").write_text("stop: {max_evaluations: 400\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["summarize", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out / 'experiment.yaml'} is not UTF-8 YAML: ")
        assert (out / "summary.tsv").read_bytes() == before

    @pytest.mark.parametrize(
        "suffix, text, message",
        [
            (".meta.json", b'{"problem": "sphere",\n', "Expecting"),
            (".meta.json", b'{"problem": "\xff"}\n', "can't decode byte 0xff"),
            (".tsv", b"iteration\tbest_objective\tevaluations\n0\t1.5\n", "not enough values to unpack"),
            # JSON, but not a record: not an object, or without a key that summarize reads
            pytest.param(".meta.json", b"[]\n", "not a JSON object with the keys algorithm, ", id="a-list"),
            pytest.param(".meta.json", b'{"problem": "sphere"}\n', "keys algorithm, best_feasible, ",
                         id="no-algorithm"),
            pytest.param(".meta.json", json.dumps({k: v for k, v in SIDECAR.items() if k != "trial"}).encode(),
                         "terminated_by, trial, wall_time_seconds", id="no-trial"),
            # every key, one value of the wrong type, which summarize would fail on
            pytest.param(".meta.json", json.dumps({**SIDECAR, "problem": 5}).encode(),
                         "problem has a value of the wrong type: 5", id="problem-5"),
            pytest.param(".meta.json", json.dumps({**SIDECAR, "trial": "1"}).encode(),
                         "trial has a value of the wrong type: '1'", id="trial-a-string"),
            pytest.param(".meta.json", json.dumps({**SIDECAR, "wall_time_seconds": "slow"}).encode(),
                         "wall_time_seconds has a value of the wrong type: 'slow'", id="wall-time-a-string"),
        ],
    )
    def test_a_corrupt_record_file_exit_code(self, tmp_path, capsys, suffix, text, message):
        # exit 2 (not 1, a failed trial) naming the file, and the old summary left as it was
        out = tmp_path / "out"
        assert main(["run", str(write_spec(tmp_path))]) == 0
        before = (out / "summary.tsv").read_bytes()
        path = out / "records" / f"sphere__hill_climb__t001{suffix}"
        path.write_bytes(text)
        capsys.readouterr()
        assert main(["summarize", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not a record file: ") and message in err
        assert err.count("\n") == 1
        assert (out / "summary.tsv").read_bytes() == before

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
        # a trial draws 3nd + 4n + ceil(p_a * n) * d float64 uniforms per iteration, at d = 3 and p_a = 0.25
        def nbytes(n):
            return 8 * (3 * n * 3 + 4 * n + abandonment_count(0.25, n) * 3)

        largest = sys.maxsize // 110  # 8 * (13 + 3 / 4) bytes per nest
        while nbytes(largest + 1) <= sys.maxsize:
            largest += 1
        while nbytes(largest) > sys.maxsize:
            largest -= 1
        spec_from_dict({**BASE_SPEC, "algorithms": [{"name": "cuckoo", "params": {"n": largest}}]})
        path = write_spec(tmp_path, {"algorithms": [{"name": "cuckoo", "params": {"n": largest + 1}}]})
        with pytest.raises(ConfigError, match=r"n=\d+ at dimension 3 needs an iteration's \d+ uniforms"):
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

        def dying(tasks):  # runs in a forked worker, which it ends at trial 2
            if tasks[0]["trial"] == 2:
                os._exit(1)
            return real(tasks)

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

        def dying(tasks):  # runs in a forked worker, which it ends at trial 2
            if tasks[0]["trial"] == 2:
                os._exit(1)
            return real(tasks)

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

    def test_a_label_too_long_for_a_file_name_keeps_the_old_records(self, tmp_path, capsys):
        # sphere__<label>__t001.meta.json.tmp takes 28 bytes beside the label
        out = tmp_path / "out"
        assert main(["run", str(write_spec(tmp_path))]) == 0
        before = sorted(p.name for p in (out / "records").iterdir())
        for label in ("a" * 228, "é" * 114, "a" * 260):
            path = write_spec(tmp_path, {"algorithms": [{"name": "cuckoo", "label": label}]}, name="long.yaml")
            assert main(["run", str(path)]) == 2
            assert "above the 255 of a file name" in capsys.readouterr().err
        assert sorted(p.name for p in (out / "records").iterdir()) == before
        # the longest label counts, wherever it sorts
        labels = [{"name": "cuckoo", "label": "a" * 228}, {"name": "hill_climb", "label": "z"}]
        with pytest.raises(ConfigError, match="take 256 bytes"):
            spec_from_dict({**BASE_SPEC, "algorithms": labels})
        # the longest label that fits runs and writes its records
        edge = {"algorithms": [{"name": "cuckoo", "label": "a" * 227}], "output": str(tmp_path / "edge")}
        run_experiment(spec_from_dict({**BASE_SPEC, **edge}))
        assert len(list((tmp_path / "edge" / "records").glob("*.meta.json"))) == 2

    def test_missing_paths(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2
        assert main(["summarize", str(tmp_path / "never_ran")]) == 2
        capsys.readouterr()
        records = tmp_path / "empty" / "records"
        records.mkdir(parents=True)
        assert main(["summarize", str(records.parent)]) == 2
        assert capsys.readouterr().err == f"error: no records found under {records}\n"
        # records whose experiment.yaml is gone: the target cannot be read back
        assert main(["run", str(write_spec(tmp_path))]) == 0
        (tmp_path / "out" / "experiment.yaml").unlink()
        capsys.readouterr()
        assert main(["summarize", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"error: missing {tmp_path / 'out' / 'experiment.yaml'};"
                                           " cannot recover the target objective\n")

    def test_an_experiment_file_that_lists_eq_tolerance_still_summarizes(self, tmp_path, capsys):
        # every experiment.yaml stored before the tolerance became a constant lists it
        assert main(["run", str(write_spec(tmp_path))]) == 0
        stored = tmp_path / "out" / "experiment.yaml"
        spec = load_experiment(stored)
        before = (tmp_path / "out" / "summary.tsv").read_bytes()
        old = yaml.safe_load(stored.read_text(encoding="utf-8"))
        old["penalty"]["eq_tolerance"] = 0.0001
        stored.write_text(yaml.safe_dump(old), encoding="utf-8")
        assert load_experiment(stored) == spec
        (tmp_path / "out" / "summary.tsv").unlink()
        assert main(["summarize", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary.tsv").read_bytes() == before
