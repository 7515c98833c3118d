"""The suite's pytest configuration runs in a checkout and reports a
failing property test.

`pythonpath = ["src"]` lets a bare `python -m pytest` import tmlab without
an install.  `filterwarnings = ["error"]` turns every warning into an
error, also the ones raised while Hypothesis writes its failure report;
one such warning used to stop the whole run with INTERNALERROR.
"""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_failing_given_test_is_reported(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out
    assert "INTERNALERROR" not in out


def test_bare_pytest_imports_tmlab_from_src():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--collect-only", "tests/test_sampling.py"],
        cwd=PYPROJECT.parent, env=env, capture_output=True, text=True,
        timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
