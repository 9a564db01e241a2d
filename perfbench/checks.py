"""Correctness checks on the outputs of one round.

Each check returns None when the job's output is right, else a one-line
reason.  The dense reference for the complex verify jobs is computed here,
in the parent process, after the child has exited, so it is outside every
timed region and outside the child's peak RSS.
"""
from __future__ import annotations

import os
import re

import numpy as np
from scipy.linalg import eigvals

# reported numeric eigenvalues of a complex verify job must match the
# reference Richardson combination to this share of max(1, |E|); the two
# LAPACK paths (with and without eigenvectors) agree to 1e-10 or better on
# the levels these wells keep
REFERENCE_RTOL = 1e-8
# the verifier keeps k = admissible + 5 eigenpairs per grid
K_EXTRA = 5
# self-consistent mode solves the Riccati identity exactly, so its residual
# is roundoff on the scale of the potential
SELF_CONSISTENT_RESIDUAL_RTOL = 1e-9

SCAN_POINTS = 100
SCAN_HEADER = "param1,param2,max_im_E,is_real,condition_holds,status"
GOLDEN = os.path.join("tests", "data", "scan_reality_golden.csv")

_UNMATCHED_NUMERIC = re.compile(r"# unmatched numeric eigenvalue (\S+)$")


def _complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _data_rows(stdout: str) -> list[str]:
    return [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]


def _pair_rows(stdout: str) -> list[str]:
    """verify rows `n,l,...`; the report's other lines start with a letter or #."""
    return [ln for ln in stdout.splitlines() if ln[:1].isdigit()]


def _header(stdout: str) -> dict:
    return dict(ln.split(" = ", 1) for ln in stdout.splitlines() if " = " in ln)


def scan_projection(stdout: str) -> str:
    """The scan CSV without its max_im_E column, as the committed golden stores it."""
    proj = []
    for ln in stdout.splitlines():
        if ln.startswith("param1"):
            proj.append("param1,param2,is_real,condition_holds,status")
        elif ln.startswith("#"):
            proj.append(ln)
        else:
            c = ln.split(",")
            proj.append(",".join([c[0], c[1], c[3], c[4], c[5]]))
    return "\n".join(proj) + "\n"


def check_scan(stdout: str, seed: int, root: str):
    lines = stdout.splitlines()
    if not lines or lines[0] != SCAN_HEADER or len(lines) != SCAN_POINTS + 2:
        return "scan output is not a 10x10 lattice"
    m = re.fullmatch(r"# agreement: (\d+)/(\d+) ok points have is_real == condition_holds",
                     lines[-1])
    if not m or m.group(1) != m.group(2) or int(m.group(2)) != SCAN_POINTS:
        return f"scan agreement line is {lines[-1]!r}"
    if seed == 0:
        with open(os.path.join(root, GOLDEN), encoding="utf-8") as fh:
            if scan_projection(stdout) != fh.read():
                return "scan differs from the golden projection"
    return None


def numeric_eigenvalues(stdout: str) -> list[complex]:
    """Every numeric eigenvalue a verify report lists, paired or not."""
    out = []
    for ln in stdout.splitlines():
        m = _UNMATCHED_NUMERIC.match(ln)
        if m:
            out.append(_complex(m.group(1)))
        elif ln[:1].isdigit():
            c = ln.split(",")
            out.append(complex(float(c[4]), float(c[5])))
    return out


def dense_reference(config_path: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` lowest-by-(Re, Im) eigenvalues at h and h/2, from scipy eigvals."""
    from susyhier.config import load_config  # the checkout's src/ is on sys.path by now
    from susyhier.verifier import build_hamiltonian
    cfg = load_config(config_path)
    out = []
    for grid in (cfg.grid, cfg.grid.refined()):
        ham = build_hamiltonian(cfg.model, grid, cfg.units)
        vals = eigvals(ham.dense())
        out.append(vals[np.lexsort((vals.imag, vals.real))][:count])
    return out[0], out[1]


def _tol(z: complex) -> float:
    return REFERENCE_RTOL * max(1.0, abs(z))


def _tie_groups(vals: np.ndarray, k: int) -> list[tuple[int, ...]]:
    """Groups of reference positions covering 0..k-1 that a (Re, Im) sort may
    put in either order: a conjugate pair whose real parts tie within the
    tolerance (positions i, i+1), else a single level.  A pair may reach
    position k: the program's k-th level can then be either partner."""
    groups, i = [], 0
    while i < k:
        if i + 1 < len(vals) and abs(vals[i + 1] - np.conj(vals[i])) <= _tol(vals[i]):
            groups.append((i, i + 1))
            i += 2
        else:
            groups.append((i,))
            i += 1
    return groups


def _orders(groups) -> list[dict]:
    """Every position map that reverses some of the pair groups."""
    maps = [{}]
    for g in groups:
        maps = [{**m, **dict(zip(g, order))} for m in maps for order in {g, g[::-1]}]
    return maps


def _take(values: list, want: list):
    """`values` less one value within tolerance of each of `want`, or None."""
    left = list(values)
    for z in want:
        dist = [abs(v - z) for v in left]
        if not dist or min(dist) > _tol(z):
            return None
        left.pop(int(np.argmin(dist)))
    return left


def richardson_mismatch(nums, coarse: np.ndarray, fine: np.ndarray, k: int):
    """None when the k reported values are, one to one, the program's index-wise
    Richardson combination (4 fine[i] - coarse[i]) / 3 of the k lowest reference
    levels, else a reason.

    The program sorts its own eigenvalues by (Re, Im), so within a conjugate
    pair whose real parts tie to roundoff its order on either grid may differ
    from the reference's; each such pair is accepted in either order, on each
    grid independently.  Nothing else is: a combination of levels that are not
    conjugate partners, a value given twice, or a level dropped for level k
    all fail.
    """
    c_groups, f_groups = _tie_groups(coarse, k), _tie_groups(fine, k)
    # blocks: runs of positions that neither grid's pair groups cross
    c_ends, f_ends = {g[-1] for g in c_groups}, {g[-1] for g in f_groups}
    ends = sorted((c_ends & f_ends) | {max(c_ends | f_ends)})
    remaining, lo = list(nums), 0
    for hi in ends:
        positions = range(lo, min(hi + 1, k))
        options = ([(4.0 * fine[f_map[i]] - coarse[c_map[i]]) / 3.0 for i in positions]
                   for c_map in _orders([g for g in c_groups if lo <= g[0] <= hi])
                   for f_map in _orders([g for g in f_groups if lo <= g[0] <= hi]))
        left = None
        for want in options:
            left = _take(remaining, want)
            if left is not None:
                break
        if left is None:
            return (f"the reported values do not hold the Richardson combination "
                    f"of reference levels {lo}..{positions[-1]}")
        remaining, lo = left, hi + 1
    return None


def check_complex_verify(stdout: str, config_path: str):
    head = _header(stdout)
    if head.get("role") != "diagnostic":
        return f"role is {head.get('role')!r}, expected diagnostic"
    rows = _pair_rows(stdout)
    unmatched_analytic = stdout.count("# unmatched analytic level")
    nums = numeric_eigenvalues(stdout)
    k = len(rows) + unmatched_analytic + K_EXTRA
    if len(nums) != k:
        return f"{len(nums)} numeric eigenvalues listed, expected k = {k}"
    # one level past k, for a conjugate pair that straddles the cut
    coarse, fine = dense_reference(config_path, k + 1)
    return richardson_mismatch(nums, coarse, fine, k)


def check_job(job: dict, code: int, stdout: str, stderr: str, *, seed: int, root: str,
              config_path: str):
    expect, command = job["expect"], job["command"]
    if expect == "invalid":
        if code != 1 or stdout or not stderr.startswith("error:"):
            return f"invalid config gave exit {code}, expected 1 with an error message"
        return None
    if code != 0:
        return f"exit {code}: {stderr.strip()[:200]}"
    if expect == "scan":
        return check_scan(stdout, seed, root)
    if expect == "diagnostic":
        return check_complex_verify(stdout, config_path)
    if expect == "match":
        head = _header(stdout)
        if (head.get("role"), head.get("verdict"), head.get("converged")) != \
                ("gating", "match", "true"):
            return "Hermitian verify is not a converged match"
        return None
    rows = _data_rows(stdout)
    if command == "spectrum":
        if not rows or rows[0] != "n,l,E_re,E_im,formula,admissible" \
                or len(rows) - 1 != job["rows"]:
            return f"spectrum has {len(rows) - 1} rows, expected {job['rows']}"
    elif command == "wavefunction":
        if not rows or rows[0] != "x,psi_re,psi_im" or len(rows) - 1 != job["rows"]:
            return f"wavefunction has {len(rows) - 1} rows, expected {job['rows']}"
    elif command == "hierarchy":
        if [int(r.split(",")[0]) for r in rows] != list(range(job["level"] + 1)):
            return "hierarchy levels are not l = 0..l_max in order"
    elif command == "riccati_residual":
        e0, resid, _ = (complex(v) for v in stdout.strip().split(","))
        if not np.isfinite(resid.real):
            return "residual is not finite"
        if (job["mode"] == "self-consistent"
                and resid.real > SELF_CONSISTENT_RESIDUAL_RTOL * max(1.0, abs(e0))):
            return f"self-consistent residual {resid.real:.3e} is not roundoff"
    return None
