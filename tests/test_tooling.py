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


LOC = PYPROJECT.parent / "tools" / "loc.py"

# 17 lines: code 6, docstring 6, comment-only 1, blank 4
COUNTED = '''"""Module docstring,
over two lines."""

# a comment alone
import os  # a comment after code


class C:
    """Class docstring."""

    def f(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string, not a docstring
        # not a comment"""
        return text
'''


def test_loc_counts_lines_by_kind(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "counted.py").write_text(COUNTED)
    (tmp_path / "one.py").write_text("x = 1\n")
    run = subprocess.run(
        [sys.executable, str(LOC), str(tmp_path / "pkg"), str(tmp_path / "one.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    assert rows[0] == ["lines", "code", "docstring", "comment", "blank", "path"]
    assert rows[1:] == [
        ["17", "6", "6", "1", "4", str(tmp_path / "pkg" / "counted.py")],
        ["1", "1", "0", "0", "0", str(tmp_path / "one.py")],
        ["18", "7", "6", "1", "4", "total"],
    ]
