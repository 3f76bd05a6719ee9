"""The suite's own pytest configuration: a failing hypothesis property is
reported as a test failure, with its falsifying example, and the session
goes on to run the tests after it."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_does_not_abort_the_session(tmp_path):
    # on a failure hypothesis imports libcst, whose import warns with a
    # DeprecationWarning that the configuration otherwise turns into errors
    (tmp_path / "test_a_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_below_ten(x):\n"
        "    assert x < 10\n"
    )
    (tmp_path / "test_b_plain.py").write_text("def test_passes():\n    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_a_property.py", "test_b_plain.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out
    assert run.returncode == 1, out
