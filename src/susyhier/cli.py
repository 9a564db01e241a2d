"""Command-line front end.

    susyhier <spectrum|verify|scan|wavefunction> --config <path>
             [--out <path>] [--mode paper-literal|self-consistent]

Exit codes: 0 success; 1 usage error, invalid config (a grid spacing that
is not finite included), model precondition, parameters and units whose
arithmetic leaves floating-point range (a closed-form level or a
ground-state sample that is not finite), or a grid too large for memory;
2 numerical non-convergence (a Hermitian family's Richardson certificate,
or an eigensolver); 3 verification mismatch (Hermitian families only).
A failed run prints one `error:` line to stderr, except a usage error
(argparse's message) and the certificate's exit 2 (its report on stdout).

All data rows are serialized with shortest round-trip decimals so repeated
runs on the same config are byte-identical; warnings go to stderr.

Each `cmd_*` function's docstring is its subcommand's `--help` line.
`verify` and `scan` import the finite-difference verifier when they run, so
the closed-form commands start without it; numpy loads with the first array
(never for `spectrum`), and only `scan` imports scipy (`verify` too where
the OpenBLAS that scipy's wheel bundles in `scipy.libs` is not found).
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from typing import Callable, Optional

from .config import DEFAULT_POINTS, RunConfig, load_config
from .errors import ConfigError, NotConvergedError, SusyhierError
from .hierarchy import Mode
from .potentials import ensure_no_pole
from .spectra import groundstate_wavefunction, spectrum_records

_MODE_TOKENS = {m.value.replace("_", "-"): m for m in Mode}

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_CONVERGED = 2
EXIT_MISMATCH = 3


def _fmt(x: float) -> str:
    # cast defensively: str() on a numpy scalar is not round-trip-stable;
    # adding 0.0 folds negative zero into plain 0.0
    return str(float(x) + 0.0)


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def cmd_spectrum(cfg: RunConfig) -> tuple[str, list[str], int]:
    """emit the closed-form energy levels as CSV"""
    ensure_no_pole(cfg.model, cfg.grid.x_min, cfg.grid.x_max)
    records = spectrum_records(cfg.model, cfg.n_max, cfg.l_max, cfg.units, mode=cfg.mode)
    lines = ["n,l,E_re,E_im,formula,admissible"]
    warnings = []
    if any(r.admissible for r in records):
        for r in records:
            lines.append(",".join([str(r.nq.n), str(r.nq.l),
                                   _fmt(r.energy.real), _fmt(r.energy.imag),
                                   r.formula.value,
                                   "true" if r.admissible else "false"]))
    else:
        warnings.append("warning: no admissible bound levels for this model; "
                        "emitting header only")
    return "\n".join(lines) + "\n", warnings, EXIT_OK


def cmd_verify(cfg: RunConfig) -> tuple[str, list[str], int]:
    """compare closed forms against the finite-difference solver"""
    from .verifier import Verdict, verify
    records = spectrum_records(cfg.model, cfg.n_max, cfg.l_max, cfg.units, mode=cfg.mode)
    report = verify(cfg.model, records, cfg.grid, cfg.tol_abs, cfg.units)
    gating = cfg.model.structurally_hermitian()
    lines = [
        "# verify report",
        f"family = {cfg.model.token}",
        f"mode = {cfg.mode.value}",
        f"role = {'gating' if gating else 'diagnostic'}",
        f"verdict = {report.verdict.value}",
        f"converged = {'true' if report.converged else 'false'}",
        f"richardson_delta = {_fmt(report.richardson_delta)}",
        f"tol_abs = {_fmt(report.tol_abs)}",
        "n,l,E_re,E_im,numeric_re,numeric_im,abs_err,rel_err",
    ]
    for p in report.pairs:
        lines.append(",".join([str(p.record.nq.n), str(p.record.nq.l),
                               _fmt(p.record.energy.real), _fmt(p.record.energy.imag),
                               _fmt(p.numeric.real), _fmt(p.numeric.imag),
                               _fmt(p.abs_err), _fmt(p.rel_err)]))
    for r in report.unmatched_analytic:
        lines.append(f"# unmatched analytic level n={r.nq.n} l={r.nq.l} "
                     f"E={_fmt_complex(r.energy)}")
    for e in report.unmatched_numeric:
        lines.append(f"# unmatched numeric eigenvalue {_fmt_complex(e)}")
    text = "\n".join(lines) + "\n"
    if gating:
        if not report.converged:
            return text, [], EXIT_NOT_CONVERGED
        if report.verdict is not Verdict.MATCH:
            return text, [], EXIT_MISMATCH
        return text, [], EXIT_OK
    # non-Hermitian families: the box truncation is a diagnostic, not a gate
    warnings = []
    if not report.converged or report.verdict is not Verdict.MATCH:
        warnings.append("warning: diagnostic-only family; verdict "
                        f"{report.verdict.value} (converged="
                        f"{'true' if report.converged else 'false'}) "
                        "does not gate the exit code")
    return text, warnings, EXIT_OK


def cmd_scan(cfg: RunConfig) -> tuple[str, list[str], int]:
    """sweep two parameter components and map spectral reality"""
    if cfg.scan1 is None or cfg.scan2 is None:
        raise ConfigError("[run]: scan command needs scan1_* and scan2_* axes")
    from .verifier import reality_scan
    records = reality_scan(cfg.model, cfg.scan1, cfg.scan2, cfg.grid,
                           tol_imag=cfg.tol_imag, units=cfg.units)
    lines = ["param1,param2,max_im_E,is_real,condition_holds,status"]
    for r in records:
        lines.append(",".join([_fmt(r.param1), _fmt(r.param2), _fmt(r.max_im_e),
                               "true" if r.is_real else "false",
                               "true" if r.condition_holds else "false",
                               r.status]))
    ok = [r for r in records if r.status == "ok"]
    agree = sum(1 for r in ok if r.is_real == r.condition_holds)
    lines.append(f"# agreement: {agree}/{len(ok)} ok points have "
                 "is_real == condition_holds")
    warnings = []
    if not cfg.grid_given:
        warnings.append(f"warning: scanning on the default {DEFAULT_POINTS}-point grid; "
                        "set [grid] n_points for faster sweeps")
    return "\n".join(lines) + "\n", warnings, EXIT_OK


def cmd_wavefunction(cfg: RunConfig) -> tuple[str, list[str], int]:
    """sample the ground-state wavefunction on the grid"""
    sample = groundstate_wavefunction(cfg.model, cfg.l, cfg.grid, cfg.units, mode=cfg.mode)
    lines = []
    if not sample.normalized:
        lines.append("# unnormalized")
    lines.append("x,psi_re,psi_im")
    x = sample.grid.points()
    for xi, psi in zip(x, sample.values):
        lines.append(",".join([_fmt(xi), _fmt(psi.real), _fmt(psi.imag)]))
    return "\n".join(lines) + "\n", [], EXIT_OK


_COMMANDS: dict[str, Callable[[RunConfig], tuple[str, list[str], int]]] = {
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "wavefunction": cmd_wavefunction,
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2, which here means EXIT_NOT_CONVERGED
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


# parsing does not change the parser, so one serves every main() call
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="susyhier",
        description="Closed-form hierarchy spectra with a finite-difference cross-check")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.add_argument("--mode", choices=sorted(_MODE_TOKENS), default=None,
                       help="override the [run] mode")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.mode is not None:
            cfg = replace(cfg, mode=_MODE_TOKENS[args.mode])
        text, warnings, code = _COMMANDS[args.command](cfg)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except SusyhierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:  # Python float arithmetic: overflow, or division by 0
        print(f"error: out of floating-point range ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return EXIT_INVALID
    if args.out is None:
        try:
            sys.stdout.write(text)
        except BrokenPipeError:  # downstream (e.g. head) closed the pipe
            return code
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_INVALID
    for w in warnings:
        print(w, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
