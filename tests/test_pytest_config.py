"""The pytest settings in pyproject.toml: warnings are errors, yet a failing
hypothesis test still reports its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_shows_its_example(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n"
    )
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    out = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_throwaway.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    text = out.stdout + out.stderr
    assert out.returncode == 1, text
    assert "Falsifying example" in text
    assert "INTERNALERROR" not in text
