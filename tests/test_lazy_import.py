"""The closed-form layer and the CLI start without numpy or scipy: the
closed-form commands and a rejected config never load numpy, array code
imports it when first used, and real and complex wells are verified
without scipy.

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


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)


def _run(module: str) -> subprocess.CompletedProcess:
    return _python(PROBE.format(module=module))


def test_cli_import_leaves_scipy_unloaded():
    proc = _run("susyhier.cli")
    assert proc.returncode == 0, proc.stderr


def test_package_import_leaves_scipy_unloaded():
    proc = _run("susyhier")
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        susyhier.no_such_name


REAL_WELL = """
[model]
family = morse_general
v1 = 25
v2 = 50

[grid]
x_min = -3
x_max = 30
n_points = 400

[run]
mode = self-consistent
n_max = 3
tol_abs = 0.1
"""

COMPLEX_WELL = """
[model]
family = poschl_teller
v0 = 8+1i
q = 1+0.3i

[grid]
x_min = -10
x_max = 10
n_points = 201

[run]
n_max = 1
"""

SCAN = COMPLEX_WELL.replace("[run]", """[run]
scan1_param = v0
scan1_component = re
scan1_start = 6.0
scan1_stop = 7.0
scan1_count = 2
scan2_param = q
scan2_component = im
scan2_start = 0.0
scan2_stop = 0.3
scan2_count = 2""")

COMMANDS_PROBE = """
import sys
from susyhier.cli import main
for command, path in {runs!r}:
    code = main([command, "--config", path, "--out", path + ".out"])
    assert code == 0, (command, code)
print(",".join(m for m in ("scipy", "scipy.linalg", "scipy.sparse") if m in sys.modules))
"""


def _loaded_after(tmp_path, *runs):
    """The scipy modules loaded after the CLI ran each (command, config text)."""
    paths = []
    for i, (command, text) in enumerate(runs):
        path = tmp_path / f"{i}.ini"
        path.write_text(text, encoding="utf-8")
        paths.append((command, str(path)))
    proc = _python(COMMANDS_PROBE.format(runs=paths))
    assert proc.returncode == 0, proc.stderr
    return set(filter(None, proc.stdout.strip().split(",")))


@pytest.fixture(scope="module")
def scipy_libs_dstebz():
    """Skip where scipy's bundled OpenBLAS exports no dstebz, so real wells fall back to scipy."""
    proc = _python("import sys; from susyhier import verifier; "
                   "sys.exit(verifier._lapack('dstebz', 18) is None)")
    if proc.returncode != 0:
        pytest.skip("scipy's bundled OpenBLAS exports no dstebz")


@pytest.mark.parametrize("command", ["verify", "spectrum", "wavefunction"])
def test_real_well_commands_leave_scipy_unloaded(command, tmp_path, request):
    if command == "verify":
        request.getfixturevalue("scipy_libs_dstebz")
    assert _loaded_after(tmp_path, (command, REAL_WELL)) == set()


def test_complex_verify_leaves_scipy_unloaded(tmp_path):
    assert _loaded_after(tmp_path, ("verify", COMPLEX_WELL)) == set()


def test_scan_loads_dense_and_arnoldi_solvers(tmp_path):
    assert _loaded_after(tmp_path, ("scan", SCAN)) == {"scipy", "scipy.linalg", "scipy.sparse"}


SETTERS_PROBE = """
import ctypes, os, sys
from susyhier import verifier
from susyhier.cli import main
assert main(["verify", "--config", {real!r}, "--out", {real!r} + ".out"]) == 0
assert "scipy" not in sys.modules
assert main(["scan", "--config", {scan!r}, "--out", {scan!r} + ".out"]) == 0
import scipy
scipy_libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs", "")
with open("/proc/self/maps", encoding="utf-8") as fh:
    paths = {{p for p in (line.split()[-1] for line in fh)
             if p.startswith(scipy_libs) and "openblas" in p}}
assert paths, "the scan loaded no OpenBLAS from scipy.libs"
exporting = [p for p in paths if hasattr(ctypes.CDLL(p), "openblas_set_num_threads_local")]
lib = verifier._bundled_openblas()
assert len(exporting) == hasattr(lib, "openblas_set_num_threads_local"), exporting
"""


def test_thread_cap_sees_scipy_openblas_after_a_real_well_verify(tmp_path, scipy_libs_dstebz):
    real, scan = tmp_path / "real.ini", tmp_path / "scan.ini"
    real.write_text(REAL_WELL, encoding="utf-8")
    scan.write_text(SCAN, encoding="utf-8")
    proc = _python(SETTERS_PROBE.format(real=str(real), scan=str(scan)))
    assert proc.returncode == 0, proc.stderr


FAMILIES = {
    "morse_general": "v1 = 25\nv2 = 50",
    "morse_nonpt": "d = 9\np = 2",
    "morse_pt1": "v1 = 16\nv2 = 12",
    "morse_pt2": "omega = 2\nd = 3",
    "poschl_teller": "v0 = 6\nq = 1",
    "poschl_teller_pt": "v0 = 4\nq = 0.5",
}

INVALID = {
    "family": "[model]\nfamily = nope\n",
    "key": "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\nv3 = 1\n",
    "value": "[model]\nfamily = morse_pt2\nomega = 0\nd = 1\n",
    "mode": "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n\n[run]\nmode = nope\n",
    "grid": "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n\n[grid]\nn_points = 3\n",
}

NUMPY_PROBE = """
import contextlib, io, sys
{code}
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""

CLI_PROBE = """
from susyhier.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in {runs!r}]
assert codes == {codes!r}, codes
"""


def _assert_numpy_unloaded(code: str):
    proc = _python(NUMPY_PROBE.format(code=code))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["susyhier", "susyhier.cli"])
def test_import_leaves_numpy_unloaded(module):
    _assert_numpy_unloaded(f"import {module}")


@pytest.mark.parametrize("argv", [["--help"], ["spectrum", "--help"]])
def test_help_leaves_numpy_unloaded(argv):
    _assert_numpy_unloaded(f"""
from susyhier.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main({argv!r})
    except SystemExit as exc:
        assert exc.code == 0, exc.code
""")


def test_invalid_configs_leave_numpy_unloaded(tmp_path):
    # every config that load_config rejects, and a missing file
    runs = [["spectrum", "--config", str(tmp_path / "missing.ini")]]
    for name, text in INVALID.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text, encoding="utf-8")
        runs += [[command, "--config", str(path)] for command in ("spectrum", "verify")]
    _assert_numpy_unloaded(CLI_PROBE.format(runs=runs, codes=[1] * len(runs)))


def test_spectrum_of_every_family_in_both_modes_leaves_numpy_unloaded(tmp_path):
    runs, codes = [], []
    for family, params in FAMILIES.items():
        path = tmp_path / f"{family}.ini"
        path.write_text(f"[model]\nfamily = {family}\n{params}\n\n[run]\nl_max = 2\n",
                        encoding="utf-8")
        for mode in ("paper-literal", "self-consistent"):
            runs.append(["spectrum", "--config", str(path), "--mode", mode])
            # the rational wells have no two-term exponential ladder to match
            codes.append(1 if family.startswith("poschl") and mode == "self-consistent" else 0)
    _assert_numpy_unloaded(CLI_PROBE.format(runs=runs, codes=codes))


def test_closed_form_library_calls_leave_numpy_unloaded():
    _assert_numpy_unloaded("""
from susyhier import Mode, MorseGeneral, MorsePT1, hierarchy, spectrum_records
for model in (MorseGeneral(25.0, 50.0), MorsePT1(16.0, 12.0)):
    for mode in Mode:
        assert len(hierarchy(model, 3, mode)) == 4
        assert len(spectrum_records(model, 5, 2, mode=mode)) == 18
""")


def test_array_code_imports_numpy_when_first_used(tmp_path):
    path = tmp_path / "real.ini"
    path.write_text(REAL_WELL, encoding="utf-8")
    proc = _python(f"""
import sys
from susyhier.cli import main
assert main(["spectrum", "--config", {str(path)!r}, "--out", {str(path)!r} + ".s"]) == 0
assert "numpy" not in sys.modules
assert main(["wavefunction", "--config", {str(path)!r}, "--out", {str(path)!r} + ".w"]) == 0
assert "numpy" in sys.modules and "scipy" not in sys.modules
""")
    assert proc.returncode == 0, proc.stderr


def test_lapack_is_found_after_numpy_loads_late(tmp_path, scipy_libs_dstebz):
    # the CLI starts without numpy, so dstebz is looked up only after a
    # command has loaded numpy; it must come from scipy's bundled OpenBLAS
    path = tmp_path / "real.ini"
    path.write_text(REAL_WELL, encoding="utf-8")
    proc = _python(f"""
import sys
from susyhier.cli import main
assert main(["spectrum", "--config", {str(path)!r}, "--out", {str(path)!r} + ".s"]) == 0
assert "numpy" not in sys.modules
assert main(["verify", "--config", {str(path)!r}, "--out", {str(path)!r} + ".v"]) == 0
from susyhier import verifier
assert verifier._lapack("dstebz", 18) is not None
assert "scipy" not in sys.modules
""")
    assert proc.returncode == 0, proc.stderr
