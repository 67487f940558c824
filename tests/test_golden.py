"""Golden digests of the records of a fixed small grid.

The grid runs twice: budget-only, and with a target that some cells reach
and others do not.  The test runs both serially and with two workers,
where each cuckoo cell's two trials run as one stack, and both must match
the same digests.  Each line of golden_records.txt is a record stem, the
sha256 of its TSV, and the sha256 of its sidecar without wall_time_seconds.
After a deliberate change of the draws, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from cuckoo.harness import run_experiment, spec_from_dict

GOLDEN = Path(__file__).with_name("golden_records.txt")
NUMPY = "2.4.6"  # the build the digests were made with; a ufunc's last bit may differ elsewhere
STOPS = {
    "budget": {"max_evaluations": 5000},
    "target": {"max_evaluations": 5000, "target_objective": 1.0},
}


def digests(root: Path, workers: int = 1) -> dict[str, str]:
    lines = {}
    for name, stop in STOPS.items():
        spec = spec_from_dict({
            "problems": [{"name": p, "dimension": 5} for p in ("sphere", "rosenbrock", "ackley", "rastrigin")]
            + ["spring_design", "welded_beam"],
            "algorithms": ["cuckoo", {"name": "cuckoo", "label": "cuckoo-parent",
                                     "params": {"compare_to": "parent"}}, "hill_climb"],
            "trials": 2, "base_seed": 7, "stop": stop, "output": str(root / name), "workers": workers,
        })
        run_experiment(spec)
        for tsv in sorted((root / name / "records").glob("*.tsv")):
            meta = json.loads(tsv.with_suffix(".meta.json").read_text(encoding="utf-8"))
            del meta["wall_time_seconds"]
            data = (tsv.read_bytes(), json.dumps(meta, sort_keys=True).encode())
            lines[f"{name}/{tsv.stem}"] = " ".join(hashlib.sha256(d).hexdigest() for d in data)
    return lines


def test_records_match_golden_digests(tmp_path):
    golden = dict(line.split(" ", 1) for line in GOLDEN.read_text(encoding="utf-8").splitlines())
    for workers in (1, 2):
        now = digests(tmp_path / f"workers{workers}", workers)
        changed = sorted(stem for stem in golden.keys() | now.keys() if golden.get(stem) != now.get(stem))
        assert not changed, (
            f"with {workers} workers, records changed for {len(changed)} stems: {', '.join(changed)}."
            f" The digests are tied to numpy {NUMPY} (running {np.__version__}); regenerate them as"
            " the module docstring says only if the change of the draws is deliberate."
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text("".join(f"{k} {v}\n" for k, v in digests(Path(tmp)).items()), encoding="utf-8")
