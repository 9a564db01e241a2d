"""The project's pytest settings report a failing property and go on.

Warnings are errors in this suite.  When a `hypothesis` property fails, its
pytest plugin loads more code to write the failing example as a patch, and
a deprecation warning raised there must not abort the session.
"""
import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")

PROPERTY_THEN_PLAIN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_b_passing():
    assert True
"""


WARNING_IN_TEST_CODE = """
import warnings


def test_warns():
    warnings.warn("mypy_extensions is deprecated", DeprecationWarning)
"""


def _run_pytest(tmp_path, source):
    (tmp_path / "test_probe.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    out = _run_pytest(tmp_path, PROPERTY_THEN_PLAIN)
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout[-2000:]
    assert "FAILED test_probe.py::test_a_failing_property" in out.stdout, out.stdout[-2000:]
    assert "PASSED test_probe.py::test_b_passing" in out.stdout, out.stdout[-2000:]
    assert "1 failed, 1 passed" in out.stdout


def test_a_warning_from_test_code_still_fails_its_test(tmp_path):
    # the ignored message is matched whole, so a near one stays an error
    out = _run_pytest(tmp_path, WARNING_IN_TEST_CODE)
    assert "FAILED test_probe.py::test_warns" in out.stdout, out.stdout[-2000:]
    assert "DeprecationWarning: mypy_extensions is deprecated" in out.stdout
