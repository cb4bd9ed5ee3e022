import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_property_test_fails_without_crashing_pytest(tmp_path):
    (tmp_path / "test_fail.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fail.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
