import io
import sys
from pathlib import Path

import pytest

from susyhier.cli import _COMMANDS, main

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
    # five matched rows, then the positive box levels left unmatched
    rows = [ln for ln in text.splitlines() if ln and ln[0].isdigit()]
    assert len(rows) == 5
    assert "# unmatched numeric eigenvalue" in text
    # every numeric cell round-trips exactly through float()
    for ln in rows:
        for cell in ln.split(",")[2:]:
            assert str(float(cell)) == cell


def test_verify_not_converged_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MORSE_VERIFY.replace("n_points = 4000", "n_points = 32"))
    assert main(["verify", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "converged = false" in out


def test_verify_mismatch_exit_code(tmp_path, capsys):
    # the literal level formula for this well does not agree with the operator
    cfg = write_cfg(tmp_path, MORSE_VERIFY.replace("mode = self-consistent",
                                                   "mode = paper-literal"))
    assert main(["verify", "--config", cfg]) == 3
    out = capsys.readouterr().out
    assert "verdict = mismatch" in out
    assert "converged = true" in out



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


def test_scan_refuses_two_axes_on_one_component(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = poschl_teller\nv0 = 6\nq = 1\n"
                              "\n[grid]\nn_points = 257\n"
                              "\n[run]\nscan1_param = v0\nscan1_component = re\n"
                              "scan1_start = 6\nscan1_stop = 7\nscan1_count = 2\n"
                              "scan2_param = v0\nscan2_component = re\n"
                              "scan2_start = 1\nscan2_stop = 2\nscan2_count = 2\n")
    assert main(["scan", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scan axes must differ, both sweep v0 re\n"


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


def test_zero_omega_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = morse_pt2\nomega = 0\nd = 1\n")
    assert main(["spectrum", "--config", cfg]) == 1
    assert "omega" in capsys.readouterr().err


def test_pole_on_domain_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nfamily = poschl_teller\nv0 = 4\nq = -0.5\n"
                              "\n[grid]\nx_min = -10\nx_max = 10\nn_points = 101\n")
    assert main(["wavefunction", "--config", cfg]) == 1
    assert "denominator zero" in capsys.readouterr().err
