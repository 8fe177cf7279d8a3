"""The repository's pytest configuration, exercised on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_that_fails(x):
    assert x < 5


def test_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_is_reported_by_name(tmp_path):
    # filterwarnings = "error" must not turn a warning raised while
    # hypothesis reports the failure into an INTERNALERROR that ends the run
    (tmp_path / "test_planted.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_planted.py::test_property_that_fails" in out, out
    assert "1 failed, 1 passed" in out, out
