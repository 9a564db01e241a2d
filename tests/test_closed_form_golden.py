"""Golden bytes of the closed-form layer in both hierarchy modes.

Pins, for each of the six families: `spectrum` stdout, stderr and exit code
(n_max = 3, l_max = 1), the ground energies of `hierarchy(model, 2, mode)`,
and `riccati_residual` at l = 0..2, including the UnsupportedFamilyError
message where self-consistent mode is refused; then V and the ground state
of `groundstate_wavefunction` at l = 0 and 1 in both modes, sampled on a
17-point grid over the family's window, or the error line where the call
raises.  The golden file is fixed;
regenerate it only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_closed_form_golden.py
"""
from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from susyhier import (Grid, Mode, SusyhierError, groundstate_wavefunction, hierarchy,
                      riccati_residual)
from susyhier.cli import main
from susyhier.config import load_config

GOLDEN = Path(__file__).parent / "data" / "closed_form_golden.txt"

FAMILIES = [
    ("morse_general", "v1 = 25\nv2 = 50"),
    ("morse_nonpt", "d = 9\np = 2"),
    ("morse_pt1", "v1 = 16\nv2 = 12"),
    ("morse_pt2", "omega = 2\nd = 3"),
    ("poschl_teller", "v0 = 6\nq = 1"),
    ("poschl_teller_pt", "v0 = 4\nq = 0.5"),
]
RESIDUAL_POINTS = 201
SAMPLE_POINTS = 17


def _error(exc: SusyhierError) -> str:
    return f"error {type(exc).__name__}: {exc}"


def render(workdir: Path) -> str:
    out = []
    for family, params in FAMILIES:
        path = workdir / f"{family}.ini"
        path.write_text(f"[model]\nfamily = {family}\n{params}\n\n"
                        "[run]\nn_max = 3\nl_max = 1\n", encoding="utf-8")
        model = load_config(str(path)).model
        grid = Grid(*model.window, RESIDUAL_POINTS)
        for mode in Mode:
            token = mode.value.replace("_", "-")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["spectrum", "--config", str(path), "--mode", token])
            out += [f"== spectrum {family} {token}", f"exit {code}",
                    "-- stdout", stdout.getvalue().rstrip("\n"),
                    "-- stderr", stderr.getvalue().rstrip("\n")]
            try:
                e0 = repr([lv.e0 for lv in hierarchy(model, 2, mode)])
            except SusyhierError as exc:
                e0 = _error(exc)
            out += [f"== hierarchy {family} {token} l_max=2", e0]
            for l in range(3):
                try:
                    rep = riccati_residual(model, l, grid, mode=mode)
                    line = f"{rep.e0!r},{rep.max_abs_residual!r},{rep.argmax_x!r}"
                except SusyhierError as exc:
                    line = _error(exc)
                out += [f"== riccati_residual {family} {token} l={l}", line]
        samples = Grid(*model.window, SAMPLE_POINTS)
        out += [f"== evaluate {family}", repr(model.evaluate(samples.points()).tolist())]
        for mode in Mode:
            token = mode.value.replace("_", "-")
            for l in range(2):
                try:
                    line = repr(groundstate_wavefunction(model, l, samples,
                                                         mode=mode).values.tolist())
                except SusyhierError as exc:
                    line = _error(exc)
                out += [f"== groundstate {family} {token} l={l}", line]
    return "\n".join(out) + "\n"


def test_closed_form_golden(tmp_path):
    assert render(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(render(Path(tmp)), encoding="utf-8")
