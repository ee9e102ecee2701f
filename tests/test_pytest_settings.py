import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REPRO = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # with every warning an error, the deprecation warning that hypothesis's failure report sets off
    # used to end the session with INTERNALERROR, and the tests after the failing one never ran
    (tmp_path / "test_repro.py").write_text(REPRO, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_repro.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
    assert result.returncode == 1
