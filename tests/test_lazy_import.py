"""The closed-form layer and the CLI start without scipy.

Each check runs in a fresh interpreter, because the test process has long
imported the verifier by the time this file runs.
"""
import os
import subprocess
import sys

import pytest

import susyhier

SRC = os.path.dirname(os.path.dirname(os.path.abspath(susyhier.__file__)))

LAZY_MODULES = ("scipy", "susyhier.verifier")

PROBE = f"""
import sys
import {{module}}
loaded = [m for m in {LAZY_MODULES!r} if m in sys.modules]
assert not loaded, loaded

from susyhier import ScanAxis, verify
import susyhier
assert susyhier.reality_scan.__module__ == "susyhier.verifier"
assert "susyhier.verifier" in sys.modules
missing = [name for name in susyhier.__all__ if not hasattr(susyhier, name)]
assert not missing, missing
assert susyhier.verifier.ScanAxis is ScanAxis
assert susyhier.verifier.verify is verify
assert set(susyhier.__all__) <= set(dir(susyhier))
"""


def _run(module: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", PROBE.format(module=module)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_unloaded():
    proc = _run("susyhier.cli")
    assert proc.returncode == 0, proc.stderr


def test_package_import_leaves_scipy_unloaded():
    proc = _run("susyhier")
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        susyhier.no_such_name
