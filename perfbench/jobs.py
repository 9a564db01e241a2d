"""Seeded job lists for the three benchmark workloads.

Every input the program sees is a generated INI config; the seed never
reaches the program.  The same (workload, seed) pair always yields the same
jobs and the same config texts.

A job is a plain dict so it can travel to the child process as JSON:

    id       unique, also the stem of its config file
    kind     "cli"  -> susyhier.cli.main([command, "--config", path, ...])
             "lib"  -> a public library call on the loaded config
    command  cli: spectrum | verify | scan | wavefunction
             lib: hierarchy | riccati_residual
    mode     "paper-literal", "self-consistent" or None (config default)
    level    l for riccati_residual, l_max for hierarchy, else 0
    rows     CSV data rows a spectrum or wavefunction job must write
    expect   what the correctness check requires of the output:
             ok | invalid | match | diagnostic | scan
"""
from __future__ import annotations

import math
import random

FAMILIES = ("morse_general", "morse_nonpt", "morse_pt1", "morse_pt2",
            "poschl_teller", "poschl_teller_pt")
# families whose self-consistent ladder has admissible levels
# (morse_pt2's has none, so its spectrum would be a bare header)
SELF_CONSISTENT = ("morse_general", "morse_nonpt", "morse_pt1")

ANALYTIC_JOBS = 300
DEFAULT_POINTS = 4000  # grid size the program uses when a config has no [grid]
# Share of analytic_mix jobs per kind; the rest are invalid configs.  No
# usage data exists to weight them by.  The counts are set so that each kind
# of work this workload is for takes a measurable share of a round's time:
# closed forms and config parsing (spectrum, about 4 ms a job), tridiagonal
# solves (verify, about 40 ms) and CSV serialisation (wavefunction, about
# 17 ms).  The library calls and invalid configs take little time and are
# there so that those paths are exercised and checked.  result.json reports
# the measured time share of each kind under jobs.time_share.
ANALYTIC_SHARES = (("spectrum", 0.45), ("wavefunction", 0.15), ("verify", 0.10),
                   ("hierarchy", 0.10), ("riccati_residual", 0.10))


def _num(x: float) -> str:
    return repr(round(x, 4) + 0.0)


def _job(jid, kind, command, mode=None, level=0, expect="ok", rows=0):
    return {"id": jid, "kind": kind, "command": command, "mode": mode,
            "level": level, "expect": expect, "rows": rows}


def _ini(family: str, params: dict, grid=None, run=None) -> str:
    lines = ["[model]", f"family = {family}"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    if grid:
        lines += ["", "[grid]"] + [f"{k} = {v}" for k, v in grid.items()]
    if run:
        lines += ["", "[run]"] + [f"{k} = {v}" for k, v in run.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scan_lattice
# ---------------------------------------------------------------------------

def scan_axes(seed: int) -> tuple[float, float, float]:
    """(v0 start, v0 step, Im q step) of the 10x10 lattice.

    Seed 0 is the committed lattice of tests/data/scan_lattice.ini.  Other
    seeds keep the Im q = 0 column and an Im q step of at least 0.1, so the
    lattice always has real and complex points and no pole on the domain.
    v0 starts no lower than the committed 6.0: below it, at Im q near 1,
    a point can keep no bound state at all, and the scan then reports its
    empty spectrum as real.
    """
    if seed == 0:
        return 6.0, 0.5, 0.1
    rng = random.Random(seed)
    return 6.0 + 0.25 * rng.randrange(9), 0.5, 0.1 + 0.005 * rng.randrange(5)


def _scan_lattice(seed: int):
    v0_start, v0_step, q_step = scan_axes(seed)
    text = ("# 10x10 reality-condition lattice: deep wells so every point retains "
            "bound states\n"
            + _ini("poschl_teller", {"v0": _num(v0_start), "q": "1.0"},
                   grid={"x_min": -10, "x_max": 10, "n_points": 257},
                   run={"tol_imag": "1e-6",
                        "scan1_param": "v0", "scan1_component": "re",
                        "scan1_start": _num(v0_start),
                        "scan1_stop": _num(v0_start + 9 * v0_step),
                        "scan1_count": 10,
                        "scan2_param": "q", "scan2_component": "im",
                        "scan2_start": "0.0", "scan2_stop": _num(9 * q_step),
                        "scan2_count": 10}))
    return [_job("scan", "cli", "scan", expect="scan")], {"scan": text}


# ---------------------------------------------------------------------------
# verify_complex
# ---------------------------------------------------------------------------

def _verify_complex(seed: int):
    """One diagnostic verify job at 601 points (refined to 1201) per round.

    The seed picks the PT family and its parameters.  k = n_max + 6
    eigenpairs are kept out of the 599 and 1199 that the dense solver
    computes.  One job per round keeps rounds short, so a run's median is
    taken over several of them.
    """
    rng = random.Random(seed)
    if rng.random() < 0.5:
        family, params = "morse_pt1", {"v1": _num(rng.uniform(20.0, 30.0)),
                                       "v2": _num(rng.uniform(40.0, 60.0))}
    else:
        family, params = "morse_pt2", {"omega": _num(rng.uniform(1.5, 3.0)),
                                       "d": _num(rng.uniform(1.0, 4.0))}
    text = _ini(family, params, grid={"x_min": -20, "x_max": 20, "n_points": 601},
                run={"n_max": 8})
    return [_job("verify", "cli", "verify", expect="diagnostic")], {"verify": text}


# ---------------------------------------------------------------------------
# analytic_mix
# ---------------------------------------------------------------------------

def _morse_general(rng: random.Random) -> tuple[dict, float]:
    """Real Morse well and its self-consistent ground coefficient a0.

    Levels are E_n = -(a0 - n)^2 with a0 = v2 / (2 sqrt(v1)) - 1/2.
    """
    v1, ratio = rng.uniform(9.0, 30.0), rng.uniform(3.0, 5.0)
    v1_text, v2_text = _num(v1), _num(2.0 * ratio * math.sqrt(v1))
    a0 = float(v2_text) / (2.0 * math.sqrt(float(v1_text))) - 0.5
    return {"v1": v1_text, "v2": v2_text}, a0


def _family_params(rng: random.Random, family: str) -> dict:
    u = rng.uniform
    if family == "morse_general":
        return _morse_general(rng)[0]
    if family == "morse_nonpt":
        return {"d": _num(u(4.0, 16.0)), "p": _num(u(1.0, 3.0))}
    if family == "morse_pt1":
        return {"v1": _num(u(9.0, 30.0)), "v2": _num(u(20.0, 60.0))}
    if family == "morse_pt2":
        return {"omega": _num(u(1.0, 3.0)), "d": _num(u(1.0, 5.0)),
                "alpha": _num(u(0.8, 1.25))}
    if family == "poschl_teller":
        return {"v0": _num(u(3.0, 10.0)), "q": _num(u(0.5, 2.0)),
                "alpha": _num(u(0.8, 1.25))}
    return {"v0": _num(u(2.0, 8.0)), "q": _num(u(0.2, 0.8)),
            "alpha": _num(u(0.8, 1.25))}


def _invalid_config(rng: random.Random) -> str:
    """A config that must be refused with exit code 1."""
    family = rng.choice(FAMILIES)
    params = _family_params(rng, family)
    case = rng.randrange(8)
    if case == 0:
        params["zeta"] = "1"
    elif case == 1:
        family = "morse_cubic"
    elif case == 2:
        params[next(iter(params))] = "2+3j"
    elif case == 3:
        params.pop(next(iter(params)))
    elif case == 4:
        return _ini(family, params, run={"n_max": -1})
    elif case == 5:
        return _ini(family, params, grid={"n_points": 8})
    elif case == 6:
        return _ini("morse_pt2", {"omega": "0", "d": "1"})
    else:
        return _ini(family, params) + "[run]\nl = 0\nl = 1\n"
    return _ini(family, params)


def _analytic_mix(seed: int):
    rng = random.Random(seed)
    kinds = []
    for kind, share in ANALYTIC_SHARES:
        kinds += [kind] * round(share * ANALYTIC_JOBS)
    kinds += ["invalid"] * (ANALYTIC_JOBS - len(kinds))
    rng.shuffle(kinds)
    jobs, configs = [], {}
    for i, kind in enumerate(kinds):
        jid = f"j{i:03d}"
        if kind == "invalid":
            configs[jid] = _invalid_config(rng)
            command = rng.choice(("spectrum", "verify", "wavefunction"))
            jobs.append(_job(jid, "cli", command, expect="invalid"))
            continue
        if kind == "verify":
            # Hermitian path: real Morse well, default 4000-point grid,
            # self-consistent levels, so the gate must report a match.
            # n_max stops at the last level with E <= -1: a level nearer the
            # threshold decays over more than the 33-unit box and has no
            # bound state on the grid to match
            params, a0 = _morse_general(rng)
            configs[jid] = _ini("morse_general", params,
                                run={"n_max": int(math.floor(a0 - 1.0))})
            jobs.append(_job(jid, "cli", "verify", mode="self-consistent", expect="match"))
            continue
        family = rng.choice(FAMILIES)
        params = _family_params(rng, family)
        modes = (("paper-literal", "self-consistent") if family in SELF_CONSISTENT
                 else ("paper-literal",))
        mode = rng.choice(modes)
        if kind == "spectrum":
            n_max, l_max = rng.randrange(20, 61), rng.randrange(3, 9)
            configs[jid] = _ini(family, params, run={"n_max": n_max, "l_max": l_max})
            jobs.append(_job(jid, "cli", "spectrum", mode=mode,
                             rows=(n_max + 1) * (l_max + 1)))
        elif kind == "wavefunction":
            configs[jid] = _ini(family, params)
            jobs.append(_job(jid, "cli", "wavefunction", rows=DEFAULT_POINTS))
        elif kind == "hierarchy":
            configs[jid] = _ini(family, params)
            jobs.append(_job(jid, "lib", "hierarchy", mode=mode, level=rng.randrange(2, 7)))
        else:
            configs[jid] = _ini(family, params, grid={"n_points": 2000})
            jobs.append(_job(jid, "lib", "riccati_residual", mode=mode,
                             level=rng.randrange(0, 3)))
    return jobs, configs


_GENERATORS = {"scan_lattice": _scan_lattice, "verify_complex": _verify_complex,
             "analytic_mix": _analytic_mix}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> tuple[list[dict], dict[str, str]]:
    """(jobs, {config stem: INI text}) for one workload and seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](seed)
