"""The suite's own pytest settings: a failing property test is reported as
one failure, and the tests after it still run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_plain():
    pass
'''


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
