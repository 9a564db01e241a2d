import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from susyhier.cli import _COMMANDS, main
from susyhier.potentials import FAMILIES

DATA = Path(__file__).parent / "data"

MORSE_VERIFY = """
[model]
family = morse_general
v1 = 25
v2 = 50

[grid]
x_min = -3
x_max = 30
n_points = 4000

[run]
mode = self-consistent
l_max = 0
n_max = 4
"""


def write_cfg(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_golden_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_general\nv1 = 25\nv2 = 25\n"
                              "\n[run]\nn_max = 1\n")
    assert main(["spectrum", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out == ("n,l,E_re,E_im,formula,admissible\n"
                   "0,0,-20.25,0.0,morse_general,true\n"
                   "1,0,-16.0,0.0,morse_general,true\n")


def test_spectrum_no_admissible_levels(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_general\nv1 = 1\nv2 = 0.5\n")
    assert main(["spectrum", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out == "n,l,E_re,E_im,formula,admissible\n"
    assert "no admissible bound levels" in captured.err


def test_spectrum_mode_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
                              "\n[run]\nn_max = 0\n")
    assert main(["spectrum", "--config", cfg]) == 0
    literal = capsys.readouterr().out
    assert "0,0,-90.25,0.0,morse_general,true" in literal
    assert main(["spectrum", "--config", cfg, "--mode", "self-consistent"]) == 0
    matched = capsys.readouterr().out
    assert "0,0,-20.25,0.0,self_consistent,true" in matched


def test_spectrum_marks_inadmissible_rows(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_general\nv1 = 25\nv2 = 25\n"
                              "\n[run]\nn_max = 9\n")
    assert main(["spectrum", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "9,0,-0.0,0.0,morse_general,false" not in out  # negative zero is folded
    assert "9,0,0.0,0.0,morse_general,false" in out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_match_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, MORSE_VERIFY)
    out1, out2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert main(["verify", "--config", cfg, "--out", out1]) == 0
    assert main(["verify", "--config", cfg, "--out", out2]) == 0
    text1 = Path(out1).read_bytes()
    assert text1 == Path(out2).read_bytes()
    text = text1.decode()
    assert "# verify report" in text
    assert "family = morse_general" in text
    assert "mode = self_consistent" in text
    assert "role = gating" in text
    assert "verdict = match" in text
    assert "converged = true" in text
    # five matched rows; a real well solves only the five levels they index,
    # and each of them pairs, so no numeric level is left unmatched
    rows = [ln for ln in text.splitlines() if ln and ln[0].isdigit()]
    assert len(rows) == 5
    assert "# unmatched numeric eigenvalue" not in text
    # every numeric cell round-trips exactly through float()
    for ln in rows:
        for cell in ln.split(",")[2:]:
            assert str(float(cell)) == cell


def test_verify_not_converged_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MORSE_VERIFY.replace("n_points = 4000", "n_points = 32"))
    assert main(["verify", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "converged = false" in out


def test_verify_lists_analytic_levels_left_without_a_numeric_one(tmp_path, capsys):
    # 19 literal levels against the 14 eigenvalues of 14 interior points
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
                              "\n[grid]\nn_points = 16\n\n[run]\nn_max = 18\n")
    assert main(["verify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "# verify report"
    assert [ln for ln in lines if ln.startswith("# unmatched analytic")] == [
        f"# unmatched analytic level n={n} l=0 E={e}+0.0i"
        for n, e in enumerate([-90.25, -81.0, -72.25, -64.0, -56.25])]
    assert len([ln for ln in lines if ln and ln[0].isdigit()]) == 14


def test_verify_mismatch_exit_code(tmp_path, capsys):
    # the literal level formula for this well does not agree with the operator
    cfg = write_cfg(tmp_path, MORSE_VERIFY.replace("mode = self-consistent",
                                                   "mode = paper-literal"))
    assert main(["verify", "--config", cfg]) == 3
    out = capsys.readouterr().out
    assert "verdict = mismatch" in out
    assert "converged = true" in out


def test_verify_rel_err_is_nan_at_zero_energy(tmp_path, capsys):
    # the one admissible level is E = 0 at n = l = 0, so only the lowest FD
    # level is solved, and E = 0 pairs with the well's ground level -4
    cfg = write_cfg(tmp_path, "[model]\nfamily = poschl_teller\nv0 = 6\nq = 1\n\n"
                              "[grid]\nn_points = 1001\n")
    assert main(["verify", "--config", cfg]) == 3
    rows = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("0,0,")]
    assert len(rows) == 1
    cells = rows[0].split(",")
    assert cells[:4] == ["0", "0", "0.0", "0.0"]
    assert float(cells[6]) > 1e-3 and cells[7] == "nan"


def test_verify_pairs_each_hierarchy_depth_on_its_own(tmp_path, capsys):
    # the depth-1 levels -12.25, -6.25, -2.25 are V's levels from index 1 up;
    # paired together with depth 0 they lost -12.25 and -6.25 to it
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
                              "\n[run]\nmode = self_consistent\nn_max = 2\nl_max = 1\n")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "verdict = match" in out
    rows = [ln.split(",") for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("0", "0", "-20.25"), ("1", "0", "-12.25"), ("2", "0", "-6.25"),
        ("0", "1", "-12.25"), ("1", "1", "-6.25"), ("2", "1", "-2.25")]
    assert all(float(r[6]) < 1e-6 for r in rows)
    # each depth took the levels it shares with the other, and the four levels
    # solved (V's 0..3) are all taken, so none is unmatched
    assert not any(ln.startswith("# unmatched numeric") for ln in out.splitlines())


def test_verify_self_consistent_levels_follow_units(tmp_path, capsys):
    # with mass = 1, hbar^2 / 2m = 0.5: the levels of V / 0.5, scaled by 0.5
    cfg = write_cfg(tmp_path, MORSE_VERIFY.replace("n_points = 4000", "n_points = 8000")
                    .replace("n_max = 4", "n_max = 3") + "\n[units]\nmass = 1\n")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "verdict = match" in out
    assert "converged = true" in out
    rows = [ln.split(",") for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert [float(r[2]) for r in rows] == pytest.approx(
        [-21.5895, -15.5184, -10.4473, -6.3763], abs=1e-4)


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as when the output is piped into head."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_verify_mismatch_exit_code_survives_a_closed_pipe(tmp_path, monkeypatch):
    # a Hermitian well whose literal levels miss the operator's
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_general\nv1 = 16.735\n"
                              "v2 = 40.7195\n\n[run]\nn_max = 3\n")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["verify", "--config", cfg]) == 3

def test_verify_diagnostic_family_never_gates(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_pt2\nomega = 1\nd = 1\n"
                              "\n[grid]\nx_min = -8\nx_max = 8\nn_points = 401\n"
                              "\n[run]\nn_max = 3\n")
    assert main(["verify", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert "role = diagnostic" in captured.out
    assert "diagnostic-only family" in captured.err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_csv_and_agreement(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
[model]
family = poschl_teller
v0 = 6
q = 1

[grid]
x_min = -10
x_max = 10
n_points = 257

[run]
scan1_param = v0
scan1_component = re
scan1_start = 6
scan1_stop = 8
scan1_count = 2
scan2_param = q
scan2_component = im
scan2_start = 0
scan2_stop = 0.5
scan2_count = 2
""")
    assert main(["scan", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "param1,param2,max_im_E,is_real,condition_holds,status"
    assert len(lines) == 6  # header + 4 points + agreement
    flags = [ln.split(",")[3:5] for ln in lines[1:5]]
    assert flags == [["true", "true"], ["false", "false"],
                     ["true", "true"], ["false", "false"]]
    assert lines[5] == "# agreement: 4/4 ok points have is_real == condition_holds"


def test_scan_warns_unless_grid_sets_n_points(tmp_path, capsys):
    axes = ("\n[run]\nscan1_param = v0\nscan1_component = re\nscan1_start = 6\n"
            "scan1_stop = 6\nscan1_count = 1\nscan2_param = q\nscan2_component = im\n"
            "scan2_start = 0\nscan2_stop = 0\nscan2_count = 1\n")
    for grid, warned in (("", True), ("x_min = -10\n", True), ("n_points = 257\n", False)):
        cfg = write_cfg(tmp_path, "[model]\nfamily = poschl_teller\nv0 = 6\nq = 1\n"
                                  f"\n[grid]\n{grid}" + axes)
        assert main(["scan", "--config", cfg]) == 0
        err = capsys.readouterr().err
        assert ("scanning on the default 4000-point grid" in err) is warned, grid


def test_scan_refuses_the_removed_workers_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = poschl_teller\nv0 = 6+1i\nq = 1\n"
                              "\n[grid]\nn_points = 257\n"
                              "\n[run]\nscan1_param = v0\nscan1_component = re\nscan1_start = 6\n"
                              "scan1_stop = 7\nscan1_count = 2\nscan2_param = q\n"
                              "scan2_component = im\nscan2_start = 0\nscan2_stop = 0.5\n"
                              "scan2_count = 2\nworkers = 1\n")
    assert main(["scan", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: [run]: unknown key 'workers'\n")


def test_scan_requires_both_axes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = poschl_teller\nv0 = 6\nq = 1\n")
    assert main(["scan", "--config", cfg]) == 1
    assert "scan1_" in capsys.readouterr().err


_SCAN_AXES = ("\n[grid]\nn_points = 257\n"
              "\n[run]\nscan1_param = v0\nscan1_component = re\n"
              "scan1_start = 6\nscan1_stop = 7\nscan1_count = 2\n"
              "scan2_param = {param2}\nscan2_component = {component2}\n"
              "scan2_start = 0\nscan2_stop = 0.5\nscan2_count = 2\n")


@pytest.mark.parametrize("model, param2, component2, message", [
    ("family = poschl_teller\nv0 = 6\nq = 1", "v0", "re",
     "scan axes must differ, both sweep v0 re"),
    ("family = morse_general\nv1 = 25\nv2 = 50", "q", "im",
     "reality scan is defined for the rational well"),
], ids=["two_axes_on_one_component", "non_rational_family"])
def test_scan_refused_config_exits_1(tmp_path, capsys, model, param2, component2, message):
    cfg = write_cfg(tmp_path, f"[model]\n{model}\n"
                              + _SCAN_AXES.format(param2=param2, component2=component2))
    assert main(["scan", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# wavefunction
# ---------------------------------------------------------------------------

def test_wavefunction_normalized_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_general\nv1 = 25\nv2 = 25\n"
                              "\n[grid]\nx_min = -3\nx_max = 12\nn_points = 64\n")
    assert main(["wavefunction", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,psi_re,psi_im"
    assert len(lines) == 65
    for ln in lines[1:]:
        cells = ln.split(",")
        assert len(cells) == 3
        for cell in cells:
            assert str(float(cell)) == cell  # shortest round-trip form


def test_wavefunction_unnormalized_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_nonpt\nd = 9\np = 2\n"
                              "\n[grid]\nx_min = -2\nx_max = 8\nn_points = 32\n")
    assert main(["wavefunction", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# unnormalized"
    assert lines[1] == "x,psi_re,psi_im"
    assert len(lines) == 34


def test_wavefunction_follows_mode(tmp_path):
    """--mode picks the ladder whose ground state is sampled: the self-consistent
    psi0 of morse_general 25/50 is the finite-difference ground state, the
    literal one (whose E0 = -90.25 is not a level of this well) is not."""
    from susyhier import Mode, load_config
    from susyhier.verifier import _states_below, bound_states, build_hamiltonian
    cfg = load_config(str(DATA / "morse_general_wavefunction.ini"))
    states = bound_states(_states_below(build_hamiltonian(cfg.model, cfg.grid, cfg.units),
                                        cfg.tol_imag / 100))
    lowest = int(np.argmin(states.eigenvalues.real))  # the solve returns no set order
    assert states.eigenvalues[lowest].real == pytest.approx(-20.25, abs=1e-2)
    ground = states.eigenvectors[:, lowest]
    overlaps = {}
    for mode in Mode:
        out = tmp_path / f"{mode.value}.csv"
        assert main(["wavefunction", "--config", str(DATA / "morse_general_wavefunction.ini"),
                     "--mode", mode.value.replace("_", "-"), "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        psi = (rows[:, 1] + 1j * rows[:, 2])[1:-1]  # the FD vector lives on interior points
        overlaps[mode] = abs(np.vdot(ground, psi)) / (np.linalg.norm(ground) * np.linalg.norm(psi))
    assert overlaps[Mode.SELF_CONSISTENT] >= 0.999999
    assert overlaps[Mode.PAPER_LITERAL] < 0.5


@pytest.mark.parametrize("family,params", [("poschl_teller", "v0 = 6\nq = 1"),
                                           ("poschl_teller_pt", "v0 = 4\nq = 0.5")],
                         ids=["poschl_teller", "poschl_teller_pt"])
def test_wavefunction_self_consistent_rational_exits_1(tmp_path, capsys, family, params):
    """A rational well has no self-consistent ladder: wavefunction refuses it with
    spectrum's error line."""
    cfg = write_cfg(tmp_path, f"[model]\nfamily = {family}\n{params}\n")
    assert main(["wavefunction", "--config", cfg, "--mode", "self-consistent"]) == 1
    err = capsys.readouterr().err
    assert "is not a two-term exponential well" in err
    assert main(["spectrum", "--config", cfg, "--mode", "self-consistent"]) == 1
    assert capsys.readouterr().err == err


def test_wavefunction_self_consistent_without_bound_state_exits_1(tmp_path, capsys):
    """morse_pt2's self-consistent ground level fails the bound-state condition,
    where spectrum prints a bare header."""
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_pt2\nomega = 2\nd = 3\n")
    assert main(["wavefunction", "--config", cfg, "--mode", "self-consistent"]) == 1
    assert capsys.readouterr().err == ("error: level (n=0, l=0) fails the bound-state "
                                       "condition\n")
    assert main(["spectrum", "--config", cfg, "--mode", "self-consistent"]) == 0
    assert "no admissible bound levels" in capsys.readouterr().err
    assert main(["wavefunction", "--config", cfg]) == 0


# ---------------------------------------------------------------------------
# failure exits
# ---------------------------------------------------------------------------

def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["verify"], ["nope"], ["spectrum", "--mode", "nope"],
                                  ["spectrum", "--config", "run.ini", "--mode", "nope"]])
def test_usage_error_exits_1_with_usage_on_stderr(argv, capsys):
    # argparse's own code for a usage error is 2, which means "did not converge" here
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: susyhier") and "error: " in captured.err


def test_help_lists_each_command_with_its_docstring(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    words = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
    assert "{spectrum,verify,scan,wavefunction}" in words
    for name, command in _COMMANDS.items():
        assert command.__doc__ and f" {name} {command.__doc__} " in words


def test_non_utf8_config_exits_1(tmp_path, capsys):
    p = tmp_path / "latin1.ini"
    p.write_bytes(b"[model]\nfamily = morse_general\nv1 = 25\nv2 = 50 # \xff\n")
    assert main(["spectrum", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config")


def test_unwritable_out_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n")
    out = tmp_path / "missing" / "x.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write")
    assert captured.out == ""


def test_bad_config_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
                              "coupling = 3\n")
    assert main(["spectrum", "--config", cfg]) == 1
    assert "not valid for family" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["v1 = 2 5", "v1 = 1 000", "v1 = 1_000", "v1 = (5)",
                                  "n_points = \uff11\uff12"])
def test_number_outside_the_grammar_exits_1(tmp_path, capsys, line):
    model = "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
    if line.startswith("v1"):
        text = model.replace("v1 = 25", line)
    else:
        text = model + f"\n[grid]\n{line}\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["spectrum", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_zero_omega_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_pt2\nomega = 0\nd = 1\n")
    assert main(["spectrum", "--config", cfg]) == 1
    assert "omega" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "verify", "wavefunction"])
def test_pole_on_domain_exits_1(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "[model]\nfamily = poschl_teller\nv0 = 4\nq = -0.5\n"
                              "\n[grid]\nx_min = -10\nx_max = 10\nn_points = 101\n")
    assert main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: denominator zero at x = -0.346574 inside the domain\n"


# configs that parse but whose arithmetic leaves floating-point range: each
# with the commands that must end in one `error:` line, their exit code and
# the line's start, up to the text that Python or LAPACK supplies
_RANGE = "error: out of floating-point range ("
_OUT_OF_RANGE = {
    # omega**2 overflows in V's coefficients
    "A": ("[model]\nfamily = morse_pt2\nomega = 1e300\nd = -1\n", ["verify"], 1, _RANGE),
    # alpha**2 underflows to 0 in lam
    "B": ("[model]\nfamily = morse_general\nv1 = 3+4i\nv2 = 100\nalpha = 1e-300\n",
          ["spectrum", "verify", "wavefunction"], 1, _RANGE),
    # q**2 overflows in the level, as in F, before V or psi0 is evaluated
    "C": ("[model]\nfamily = poschl_teller_pt\nv0 = 1e-300\nq = 1e300\n"
          "\n[grid]\nn_points = 17\n", ["verify", "wavefunction"], 1,
          "error: level (n=0, l=0) is not finite: E = (nan+0j)\n"),
    # hbar^2/(2m h^2) is about 3e197: LAPACK's bisection does not converge
    "D": ("[model]\nfamily = poschl_teller\nv0 = 0\nq = 1\n"
          "\n[units]\nhbar = 0.1\nmass = 1e-200\n\n[grid]\nn_points = 17\n", ["verify"], 2,
          "error: stebz did not converge (LAPACK info = 4)\n"),
    # the window is 4e301 wide, so h**2 overflows
    "E": ("[model]\nfamily = poschl_teller_pt\nv0 = 3\nq = 2\nalpha = 1e-300\n"
          "\n[grid]\nn_points = 16\n", ["verify"], 1, _RANGE),
    # q**2 overflows in the level, so E0 = -inf * 0 is NaN
    "F": ("[model]\nfamily = poschl_teller_pt\nv0 = 1e-300\nq = 1e300\n", ["spectrum"], 1,
          "error: level (n=0, l=0) is not finite: E = (nan+0j)\n"),
    # d**2 / omega**2 overflows, so every level is -inf
    "G": ("[model]\nfamily = morse_pt2\nomega = 1e-300\nd = 1e300\n"
          "\n[grid]\nn_points = 17\n", ["spectrum", "verify"], 1,
          "error: level (n=0, l=0) is not finite: E = (-inf+0j)\n"),
    # a complex well's ground-state samples overflow
    "H": ("[model]\nfamily = morse_pt1\nv1 = 1e300\nv2 = 1\n"
          "\n[grid]\nn_points = 17\n", ["wavefunction"], 1,
          "error: samples overflow on this grid; shrink the domain\n"),
    # q**2 * hbar^2/(2m) overflows, so every level is NaN
    "I": ("[model]\nfamily = poschl_teller\nv0 = 0\nq = 1e300\n"
          "\n[units]\nhbar = 0.1\nmass = 1e-200\n\n[grid]\nn_points = 17\n",
          ["spectrum", "verify"], 1, "error: level (n=0, l=0) is not finite: E = (nan+nanj)\n"),
    # the levels are finite, but V overflows on the grid
    "J": ("[model]\nfamily = morse_general\nv1 = 1e307\nv2 = 1e307\n"
          "\n[grid]\nn_points = 101\n", ["verify"], 1,
          "error: V or hbar^2/(2m h^2) is not finite on this grid\n"),
    # the scan's first point is a real well whose eigenvector solve's bisection does not converge
    "K": ("[model]\nfamily = poschl_teller\nv0 = 1e190\nq = 1\n"
          "\n[units]\nhbar = 0.1\nmass = 1e-200\n\n[grid]\nn_points = 17\n"
          "\n[run]\nscan1_param = v0\nscan1_component = re\nscan1_start = 1e190\n"
          "scan1_stop = 2e190\nscan1_count = 2\nscan2_param = q\nscan2_component = im\n"
          "scan2_start = 0\nscan2_stop = 0.1\nscan2_count = 2\n", ["scan"], 2,
          "error: stebz (eigh_tridiagonal) did not converge (LAPACK info=1)\n"),
    # x_max - x_min overflows, so the grid spacing is inf
    "L": ("[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
          "\n[grid]\nx_min = -1e308\nx_max = 1e308\nn_points = 101\n",
          ["spectrum", "verify", "wavefunction", "scan"], 1,
          "error: grid spacing must be finite and positive, got inf\n"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_out_of_range_config_ends_in_one_error_line(tmp_path, capsys, case):
    text, commands, code, message = _OUT_OF_RANGE[case]
    cfg = write_cfg(tmp_path, text)
    for command in commands:
        assert main([command, "--config", cfg]) == code, command
        out, err = capsys.readouterr()
        assert out == "", (command, out)
        assert err.startswith(message) and err.count("\n") == 1, (command, err)


def test_failed_bisection_leaves_scipy_unloaded(tmp_path):
    # the bisection's failure ends the run; no second solver reruns it
    text, _, code, message = _OUT_OF_RANGE["D"]
    cfg = write_cfg(tmp_path, text)
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", (
        "import sys\n"
        "from susyhier.cli import main\n"
        f"code = main(['verify', '--config', {cfg!r}])\n"
        "assert 'scipy' not in sys.modules, 'a failed bisection loaded scipy'\n"
        "sys.exit(code)\n")], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message)


@pytest.mark.parametrize("command, grid", [
    # the coarse grid's dense H alone is 596 GiB
    ("verify", "[model]\nfamily = morse_pt1\nv1 = 16\nv2 = 12\n\n[grid]\nn_points = 200001\n"),
    # the grid's points alone are 7.45 GiB
    ("wavefunction", "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
                     "\n[grid]\nn_points = 1000000000\n"),
], ids=["verify", "wavefunction"])
def test_out_of_memory_ends_in_one_error_line(tmp_path, command, grid):
    # a child process whose address space is capped at 2 GiB before susyhier
    # loads, so numpy refuses the allocation whatever the host's overcommit
    # policy, and nothing large is ever allocated
    cfg = write_cfg(tmp_path, grid)
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from susyhier.cli import main\n"
        f"sys.exit(main([{command!r}, '--config', {cfg!r}]))\n")],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: out of memory (Unable to allocate ")
    assert proc.stderr.count("\n") == 1, proc.stderr


_MAGNITUDES = st.sampled_from([0.0, 1e-300, 1e-150, 0.5, 1.0, 3.0, 25.0, 1e150, 1e300])
_REALS = st.builds(lambda m, sign: sign * m, _MAGNITUDES, st.sampled_from([1.0, -1.0]))
_POSITIVE = st.sampled_from([1e-300, 1e-150, 0.1, 0.5, 1.0, 2.0, 1e150, 1e300])


@st.composite
def _extreme_configs(draw) -> str:
    """A config that parses, with parameters and [units] from 1e-300 to 1e300."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    lines = ["[model]", f"family = {family}"]
    for f in fields(FAMILIES[family]):
        if f.name == "alpha":
            value = repr(draw(_POSITIVE))
        elif f.type == "complex":
            re, im = draw(_REALS), draw(_REALS)
            value = f"{re!r}{'-' if im < 0 else '+'}{abs(im)!r}i"
        else:
            value = repr(draw(_REALS))
        lines.append(f"{f.name} = {value}")
    lines += ["[grid]", f"n_points = {draw(st.integers(16, 41))}", "[units]"]
    lines += [f"{name} = {draw(_POSITIVE)!r}" for name in ("hbar", "mass", "e_sq")]
    return "\n".join(lines) + "\n"


_FINITE_COLUMNS = {"E_re", "E_im", "numeric_re", "numeric_im", "abs_err", "psi_re", "psi_im"}


@settings(max_examples=200, deadline=None)
@given(text=_extreme_configs(), command=st.sampled_from(["spectrum", "verify", "wavefunction"]),
       mode=st.sampled_from(["paper-literal", "self-consistent"]))
# finite ground-state samples whose squares overflow in the normalization
@example(text="[model]\nfamily = poschl_teller\nv0 = 0.0+0.0i\nq = 0.5+0.0i\nalpha = 1e-300\n"
              "[grid]\nn_points = 16\n[units]\nhbar = 1e-150\nmass = 1e-300\ne_sq = 0.5\n",
         command="wavefunction", mode="paper-literal")
def test_extreme_configs_never_raise(text, command, mode):
    """main() returns a documented exit code, and exit 1 comes with an `error:` line."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--mode", mode])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()
        return
    # every energy and psi field on stdout is finite (rel_err and
    # richardson_delta may be NaN by design)
    table = [line.split(",") for line in out.getvalue().splitlines()
             if "," in line and not line.startswith("#")]
    for row in table[1:]:
        for name, value in zip(table[0], row):
            if name in _FINITE_COLUMNS:
                assert math.isfinite(float(value)), (name, row)
