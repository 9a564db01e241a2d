"""Acceptance suite: ten independent pass/fail criteria.

Run with `pytest -v tests/test_acceptance.py` to get one PASS/FAIL line per
criterion; each test also prints a summary line (visible with -s).
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from susyhier import (
    DerivativeScale,
    Grid,
    Mode,
    MorseGeneral,
    MorseNonPT,
    MorsePT1,
    MorsePT2,
    PoschlTeller,
    PoschlTellerPT,
    SymmetryClass,
    UnitSystem,
    Verdict,
    build_hamiltonian,
    classify_symmetry,
    conjugate_pairing_ok,
    eigen_spectrum,
    energy_morse_complex,
    energy_morse_general,
    energy_morse_shifted,
    energy_poschl_teller,
    groundstate_wavefunction,
    riccati_residual,
    spectrum_records,
    superpotential,
    symmetric_grid,
    verify,
)
from susyhier.cli import main

DATA = Path(__file__).parent / "data"
RESID_GRID = Grid(-3.0, 30.0, 2000)


def test_criterion_01_formula_fidelity():
    """Each family's closed-form level reproduces a hand-computed value."""
    assert energy_morse_general(5.0, 1.0, 0, 0) == pytest.approx(-20.25, abs=1e-12)
    assert energy_morse_complex(3.0, 1, 0) == pytest.approx(-4.0, abs=1e-12)
    assert energy_morse_shifted(1.0, 2.0, 0, 0) == pytest.approx(-1.5625, abs=1e-12)
    assert energy_poschl_teller(1.0, UnitSystem(1.0, 1.0, 1.0), 0, 0) \
        == pytest.approx(-0.125, abs=1e-12)
    print("criterion 01 PASS - four closed-form levels exact to 1e-12")


def test_criterion_02_selfconsistent_riccati_identity():
    """W^2 - W' = V - E0 to 1e-10 for every exponential family, l <= 5."""
    worst = 0.0
    for model in (MorseGeneral(25.0, 50.0, 1.0), MorseNonPT(9.0, 2.0),
                  MorsePT1(16.0, 12.0), MorsePT2(2.0, 3.0, 1.0)):
        for l in range(6):
            rep = riccati_residual(model, l, RESID_GRID, mode=Mode.SELF_CONSISTENT)
            worst = max(worst, rep.max_abs_residual)
    assert worst < 1e-10
    print(f"criterion 02 PASS - worst self-consistent residual {worst:.3e}")


def test_criterion_03_literal_residual_regression():
    """The verbatim ansatz misses the identity by a stable, documented amount.

    Golden values: the maximum sits at the left grid edge and equals
    lam^2 |q| e^{-alpha x_min}; doubling the coefficient ratio q doubles it.
    """
    r1 = riccati_residual(MorseGeneral(25.0, 25.0, 1.0), 0, RESID_GRID,
                          mode=Mode.PAPER_LITERAL, scale=DerivativeScale.INVERSE_ALPHA)
    r2 = riccati_residual(MorseGeneral(25.0, 50.0, 1.0), 0, RESID_GRID,
                          mode=Mode.PAPER_LITERAL, scale=DerivativeScale.INVERSE_ALPHA)
    assert r1.max_abs_residual == pytest.approx(502.13842307969026, rel=1e-12)
    assert r2.max_abs_residual == pytest.approx(1004.2768461593814, rel=1e-12)
    assert (r1.argmax_x, r2.argmax_x) == (-3.0, -3.0)
    assert r2.max_abs_residual / r1.max_abs_residual == pytest.approx(2.0, abs=1e-9)
    print(f"criterion 03 PASS - literal residuals {r1.max_abs_residual:.6f} (q=1), "
          f"{r2.max_abs_residual:.6f} (q=2), ratio 2")


def test_criterion_04_fd_oracle_agreement():
    """Certified finite differences reproduce all five analytic levels to 1e-3."""
    model = MorseGeneral(25.0, 50.0, 1.0)
    records = spectrum_records(model, 4, 0, mode=Mode.SELF_CONSISTENT)
    report = verify(model, records, Grid(-3.0, 30.0, 4000))
    assert report.converged
    assert report.verdict is Verdict.MATCH
    assert len(report.pairs) == 5
    worst = max(p.abs_err for p in report.pairs)
    assert worst < 1e-3
    for p, n in zip(report.pairs, range(5)):
        assert p.record.energy == pytest.approx(-((4.5 - n) ** 2))
    print(f"criterion 04 PASS - 5/5 levels matched, worst abs err {worst:.3e}")


def test_criterion_05_log_derivative_identity():
    """(ln psi0)' = -W to 1e-8, via a 5-point stencil on the sampled state."""
    worst = 0.0
    for model, x_hi in ((MorseGeneral(25.0, 25.0, 1.0), 6.0), (MorseNonPT(9.0, 2.0), 6.0)):
        h = 2.5e-4
        n_core = int(round((x_hi - (-1.0)) / h)) + 1
        grid = Grid(-1.0 - 2 * h, x_hi + 2 * h, n_core + 4)
        ws = groundstate_wavefunction(model, 0, grid)
        psi = ws.values
        x = grid.points()
        d = (-psi[4:] + 8.0 * psi[3:-1] - 8.0 * psi[1:-3] + psi[:-4]) / (12.0 * grid.h)
        logderiv = d / psi[2:-2]
        w = superpotential(model, 0).evaluate(x[2:-2])
        worst = max(worst, float(np.max(np.abs(logderiv + w))))
    assert worst < 1e-8
    print(f"criterion 05 PASS - worst |(ln psi)' + W| = {worst:.3e}")


def test_criterion_06_degeneracy_identities():
    """Level ladders are degenerate under the hierarchy shift, 1000 random draws."""
    rng = np.random.default_rng(20260822)
    checked = 0
    for _ in range(1000):
        lam = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        q = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        d = rng.uniform(-5.0, 5.0)
        omega = rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0])
        units = UnitSystem(1.0, rng.uniform(0.25, 4.0), rng.uniform(0.5, 2.0))
        n = int(rng.integers(2, 11))
        l = int(rng.integers(0, 6))

        def close(a, b):
            return abs(a - b) <= 1e-12 * max(1.0, abs(a))

        assert close(energy_morse_general(lam, q, n, l),
                     energy_morse_general(lam, q, n - 2, l + 1))
        assert close(energy_morse_complex(lam, n, l),
                     energy_morse_complex(lam, n - 2, l + 1))
        assert close(energy_morse_shifted(d, omega, n, l),
                     energy_morse_shifted(d, omega, n - 2, l + 1))
        assert close(energy_poschl_teller(q, units, n, l),
                     energy_poschl_teller(q, units, n - 1, l + 1))
        checked += 4
    print(f"criterion 06 PASS - {checked} degeneracy identities exact to 1e-12")


def test_criterion_07_pt_structure():
    """Classification, conjugate pairing, and Hermitian reality of the FD spectra."""
    grid = symmetric_grid(8.0, 301)
    pt_models = (MorsePT1(16.0, 12.0), MorsePT2(2.0, 3.0, 1.0), PoschlTellerPT(4.0, 0.5, 1.0))
    for m in pt_models:
        assert classify_symmetry(m, grid, tol=1e-10) is SymmetryClass.PT_SYMMETRIC
        ham = build_hamiltonian(m, grid)
        spec = eigen_spectrum(ham, ham.dimension)
        assert conjugate_pairing_ok(spec.eigenvalues)
    for m, g in ((MorseGeneral(25.0, 50.0, 1.0), Grid(-3.0, 30.0, 1200)),
                 (PoschlTeller(6.0, 1.0, 1.0), Grid(-10.0, 10.0, 513))):
        assert classify_symmetry(m, symmetric_grid(6.0, 241)) is SymmetryClass.HERMITIAN
        vals = eigen_spectrum(build_hamiltonian(m, g), 8).eigenvalues
        assert float(np.max(np.abs(vals.imag))) < 1e-10
    print("criterion 07 PASS - PT labels, conjugate pairing, Hermitian reality")


def test_criterion_08_reality_scan_golden(tmp_path):
    """10x10 lattice: is_real tracks the parameter condition; deterministic output."""
    cfg = str(DATA / "scan_lattice.ini")
    out1, out2 = str(tmp_path / "scan1.csv"), str(tmp_path / "scan2.csv")
    t0 = time.monotonic()
    assert main(["scan", "--config", cfg, "--out", out1]) == 0
    assert main(["scan", "--config", cfg, "--out", out2]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    raw1 = Path(out1).read_bytes()
    assert raw1 == Path(out2).read_bytes()  # byte-identical repeats

    # environment-stable projection (drop the max_im_E column) against the golden
    proj = []
    for ln in raw1.decode().splitlines():
        if ln.startswith("param1"):
            proj.append("param1,param2,is_real,condition_holds,status")
        elif ln.startswith("#"):
            proj.append(ln)
        else:
            c = ln.split(",")
            proj.append(",".join([c[0], c[1], c[3], c[4], c[5]]))
    golden = (DATA / "scan_reality_golden.csv").read_text(encoding="utf-8")
    assert "\n".join(proj) + "\n" == golden
    assert proj[-1] == "# agreement: 100/100 ok points have is_real == condition_holds"
    print(f"criterion 08 PASS - 100/100 agreement, two runs byte-identical, "
          f"{elapsed:.1f}s for both")


def test_criterion_09_convergence_order():
    """Dirichlet box eigenvalue errors shrink by ~4x when h is halved."""

    class _Flat:
        def evaluate(self, x):
            return np.zeros_like(np.asarray(x, dtype=float))

    grid = Grid(0.0, math.pi, 201)
    exact = np.arange(1, 4, dtype=float) ** 2
    e_h = eigen_spectrum(build_hamiltonian(_Flat(), grid), 3).eigenvalues.real
    e_h2 = eigen_spectrum(build_hamiltonian(_Flat(), grid.refined()), 3).eigenvalues.real
    ratios = (e_h - exact) / (e_h2 - exact)
    assert np.all(ratios > 3.5) and np.all(ratios < 4.5)
    print(f"criterion 09 PASS - error ratios {np.round(ratios, 5)}")


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    """Every command is byte-deterministic; all four exit codes are reachable."""

    def cfg(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    def run_twice(command, path):
        a, b = str(tmp_path / "a.out"), str(tmp_path / "b.out")
        code = main([command, "--config", path, "--out", a])
        assert main([command, "--config", path, "--out", b]) == code
        ra, rb = Path(a).read_bytes(), Path(b).read_bytes()
        assert ra == rb
        return code, ra

    spectrum_cfg = cfg("spectrum.ini",
                       "[model]\nfamily = morse_general\nv1 = 25\nv2 = 25\n"
                       "\n[run]\nn_max = 2\n")
    code, out = run_twice("spectrum", spectrum_cfg)
    assert code == 0 and out.startswith(b"n,l,E_re,E_im")

    verify_cfg = cfg("verify.ini",
                     "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
                     "\n[grid]\nx_min = -3\nx_max = 30\nn_points = 1201\n"
                     "\n[run]\nmode = self-consistent\nn_max = 4\ntol_abs = 0.02\n")
    code, out = run_twice("verify", verify_cfg)
    assert code == 0 and b"verdict = match" in out

    scan_cfg = cfg("scan.ini",
                   "[model]\nfamily = poschl_teller\nv0 = 6\nq = 1\n"
                   "\n[grid]\nx_min = -10\nx_max = 10\nn_points = 101\n"
                   "\n[run]\nscan1_param = v0\nscan1_component = re\n"
                   "scan1_start = 6\nscan1_stop = 7\nscan1_count = 2\n"
                   "scan2_param = q\nscan2_component = im\n"
                   "scan2_start = 0\nscan2_stop = 0.5\nscan2_count = 2\n")
    code, out = run_twice("scan", scan_cfg)
    assert code == 0 and out.startswith(b"param1,param2,max_im_E")

    wf_cfg = cfg("wf.ini",
                 "[model]\nfamily = morse_nonpt\nd = 9\np = 2\n"
                 "\n[grid]\nx_min = -2\nx_max = 8\nn_points = 64\n")
    code, out = run_twice("wavefunction", wf_cfg)
    assert code == 0 and out.startswith(b"# unnormalized")

    # exit-code contract: 1 invalid, 2 not converged, 3 mismatch
    bad_cfg = cfg("bad.ini", "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\nzeta = 1\n")
    assert main(["spectrum", "--config", bad_cfg]) == 1
    coarse_cfg = cfg("coarse.ini",
                     "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
                     "\n[grid]\nx_min = -3\nx_max = 30\nn_points = 32\n"
                     "\n[run]\nmode = self-consistent\nn_max = 4\n")
    assert main(["verify", "--config", coarse_cfg]) == 2
    mismatch_cfg = cfg("mismatch.ini",
                       "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n"
                       "\n[grid]\nx_min = -3\nx_max = 30\nn_points = 4000\n"
                       "\n[run]\nmode = paper-literal\nn_max = 4\n")
    assert main(["verify", "--config", mismatch_cfg]) == 3
    print("criterion 10 PASS - byte-identical reruns; exit codes 0/1/2/3 verified")
