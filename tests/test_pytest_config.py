"""The repository's pytest configuration reports a failing hypothesis test like any other."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SAMPLE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # filterwarnings = error must not turn a warning raised while hypothesis
    # builds its failure report into an INTERNALERROR that skips later tests
    (tmp_path / "test_sample.py").write_text(SAMPLE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
    assert "INTERNALERROR" not in output, output
